"""Command-line front end: graph plumbing, extension arithmetic, and the
batch experiments, all emitting versioned JSON reports.

Subcommands
    fold      fold a graph (or the bouquet of generator words)
    core      fold, then strip spurs
    member    membership of a word in the subgroup read by a graph
    extend    universal extension order and word (in)equalities
    dissolve  run dissolving checks of a quotient against a base group
    tower     iterated-extension campaign over a base group
    rz        product-separation experiment for a word and subgroups

Reports go to --out when given and then to stdout, as the text of
json.dumps(report, indent=2, sort_keys=True) and a newline: a two-space
indent, sorted keys, and non-ASCII and control characters as \\uXXXX
escapes, written in one pass by _json_text on every interpreter.
Identical configuration and seed produce byte-identical output;
dissolve, tower and rz print a PASS/FAIL line to stderr.  Exit codes:
0 all checks passed, 1 a property failed (a constellation survived, an
experiment stayed inconclusive), 2 an enumeration budget was exceeded,
3 bad input, an --out path that cannot be written among it.

A flat key-value JSON file passed with --config supplies defaults for
the chosen subcommand; explicit flags win.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import List, Optional, Sequence

from .constellations import EXHAUSTIVE_EDGE_BUDGET, MODES, dissolves_all
from .extension import (S_EQUAL_BUDGET, ExtContext, ext_order,
                        extension_group, kernel_rank, s_equal)
from .groups import (BUILTIN_NAMES, DEFAULT_ENUM_BUDGET,
                     EnumerationBudgetError, FinGroup, builtin,
                     group_from_json)
from .stallings import (LabeledGraph, bouquet, core, fold, graph_from_json,
                        graph_to_dot, graph_to_json, member, stallings_graph)
from .tower import (MAX_LEVEL, TowerSpec, rz_experiment, treelike_campaign)
from .words import DEFAULT_ALPHABET, parse_word, reduce_word, word_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


class CliInputError(ValueError):
    """Bad command line or config file; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with
    # the budget exit code; raise instead and let main() map it to 3
    def error(self, message):
        raise CliInputError(message)


# -- input plumbing -----------------------------------------------------


def _split_csv(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _alphabet_arg(text: Optional[str]) -> tuple:
    return tuple(_split_csv(text)) if text else ()


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliInputError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliInputError("%s: %s" % (path, exc))


def group_arg(text: str, enum_budget: int = DEFAULT_ENUM_BUDGET) -> FinGroup:
    """Group named on the command line: a builtin name, a JSON file, or
    NAME^p for the universal C_p-extension of NAME; each enumerates at
    most enum_budget elements."""
    if text.endswith(".json"):
        return group_from_json(_load_json(text), name=Path(text).stem,
                               enum_budget=enum_budget)
    if "^" in text:
        base_text, _, p_text = text.rpartition("^")
        base = group_arg(base_text, enum_budget)
        try:
            p = int(p_text)
        except ValueError:
            raise CliInputError("group %r: exponent after ^ must be an "
                                "integer" % text)
        return extension_group(base, p, enum_budget=enum_budget)
    try:
        return builtin(text, enum_budget)
    except ValueError:
        raise CliInputError("unknown group %r (builtins: %s; or give a "
                            ".json file)" % (text, ", ".join(BUILTIN_NAMES)))


def _input_graph(args) -> LabeledGraph:
    inputs = args.input
    if len(inputs) == 1 and inputs[0].endswith(".json"):
        return graph_from_json(_load_json(inputs[0]))
    alphabet = _alphabet_arg(args.alphabet)
    return bouquet([parse_word(text, alphabet or DEFAULT_ALPHABET)
                    for text in inputs], alphabet)


def _parse_primes(text: str) -> tuple:
    try:
        return tuple(int(p) for p in _split_csv(text))
    except ValueError:
        raise CliInputError("--primes: comma-separated integers expected, "
                            "got %r" % text)


def _tower_spec(args, base_budget: int) -> TowerSpec:
    # the group is checked before --primes
    base = group_arg(args.base, base_budget)
    return TowerSpec(base, _parse_primes(args.primes),
                     max_level=args.max_level,
                     enum_budget=args.budget_enum, seed=args.seed)


def _json_text(value, indent: str = "\n", memo: Optional[dict] = None
               ) -> str:
    """json.dumps(value, indent=2, sort_keys=True), written at `indent`
    (a newline, then its spaces) in one pass, where json's pure-Python
    encoder (all of it before CPython 3.13) indents chunk by chunk.
    Here strings, ints, bools and None are written directly; a list of
    ints, or of int lists, is one join; any other dict or list is
    rendered once per indent, memo[(id, indent)] (a report lists a
    failure in both of its lists as one dict); and any other value (a
    float, a subclass, a dict with a key that is no str) is json.dumps'
    own text with its later lines moved to indent, which is exact
    because JSON text holds no raw newline."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if kind not in (dict, list, tuple) or kind is dict and not all(
            type(k) is str for k in value):     # a key json converts
        return json.dumps(value, indent=2, sort_keys=True).replace(
            "\n", indent)
    if memo is None:
        memo = {}
    key = (id(value), indent)
    text = memo.get(key)
    if text is not None:
        return text
    inner = indent + "  "
    if not value:
        text = "{}" if kind is dict else "[]"
    elif kind is dict:
        text = "{" + inner + ("," + inner).join([
            _escape(k) + ": " + _json_text(value[k], inner, memo)
            for k in sorted(value)]) + indent + "}"
    else:
        kinds = set(map(type, value))
        if kinds == {int}:
            text = ("," + inner).join(map(int.__repr__, value))
        elif kinds == {list} and {type(x) for v in value for x in v} <= {int}:
            deeper = inner + "  "
            text = ("," + inner).join([
                "[" + deeper + ("," + deeper).join(map(int.__repr__, v))
                + inner + "]" if v else "[]" for v in value])
        else:
            text = ("," + inner).join([_json_text(v, inner, memo)
                                       for v in value])
        text = "[" + inner + text + indent + "]"
    memo[key] = text
    return text


def _emit(report: dict, out: Optional[str]) -> None:
    """Write --out first, so that an unwritable path prints no report."""
    text = _json_text(report) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _status(ok: bool, detail: str = "") -> None:
    line = "PASS" if ok else "FAIL"
    if detail:
        line += ": " + detail
    print(line, file=sys.stderr)


# -- subcommands --------------------------------------------------------


def cmd_graph(args):
    g = fold(_input_graph(args))
    if args.command == "core":
        g = core(g)
    if args.dot:
        Path(args.dot).write_text(graph_to_dot(g))
    return {"schema": 1, "graph": graph_to_json(g)}, EXIT_OK


def cmd_member(args):
    if bool(args.graph) == bool(args.gens):
        raise CliInputError("member: give exactly one of --graph/--gens")
    if args.graph:
        g = graph_from_json(_load_json(args.graph))
    else:
        alphabet = _alphabet_arg(args.alphabet)
        gens = [parse_word(t, alphabet or DEFAULT_ALPHABET)
                for t in _split_csv(args.gens)]
        g = stallings_graph(gens, alphabet)
    w = reduce_word(parse_word(args.word, g.alphabet))
    return {
        "schema": 1,
        "word": args.word,
        "reduced": word_str(w, g.alphabet),
        "member": member(g, w),
    }, EXIT_OK


def cmd_extend(args):
    G = group_arg(args.group, args.budget_enum)
    # G's order formula refuses G over the budget first, so a refused
    # G exits 2 before any report; neither it nor separated() builds an
    # element of G
    m = None if args.p is None else G.formula_order()
    report = {
        "schema": 1,
        "group": G.name,
        "separated": G.separated(),
        "equalities": [],
    }
    if not G.separated():
        # extension arithmetic still works; only certificates refuse
        report["warning"] = ("generator images do not separate: need two "
                             "or more distinct nonidentity generators")
    ctx = S = None
    if args.p is not None:
        ctx = ExtContext(G, args.p)
        report["p"] = args.p
        # json refuses an int of more than 4,300 digits (CPython 3.11+):
        # a larger order, None here, is reported as the string |G|*p^r
        report["ext_order"] = (
            ext_order(m, G.n_letters, args.p, 10 ** 4300 - 1)
            or "%d*%d^%d" % (m, args.p, kernel_rank(m, G.n_letters)))
    else:
        S = builtin(args.S)
        report["S"] = S.name
    for u_text, v_text in args.eq or []:
        u = parse_word(u_text, G.alphabet)
        v = parse_word(v_text, G.alphabet)
        entry = {"u": u_text, "v": v_text}
        if ctx is not None:
            entry["equal"] = ctx.evaluate(u) == ctx.evaluate(v)
            entry["method"] = "cocycle"
        else:
            mode = args.eq_mode
            res = None
            if mode == "auto":
                try:
                    res = s_equal(G, S, u, v, mode="exact",
                                  budget=args.budget_homs)
                    mode = "exact"
                except EnumerationBudgetError:
                    mode = "witness"
            if res is None:
                res = s_equal(G, S, u, v, mode=mode, samples=args.samples,
                              budget=args.budget_homs, seed=args.seed)
            entry["equal"] = res.status != "distinct"
            entry["status"] = res.status
            entry["method"] = mode
            if mode == "witness":
                entry["seed"] = args.seed
        report["equalities"].append(entry)
    return report, EXIT_OK


def cmd_dissolve(args):
    H = group_arg(args.H, args.budget_enum)
    G = group_arg(args.G, args.budget_enum)
    report = dissolves_all(H, G, mode=args.mode,
                           edge_budget=args.edge_budget,
                           samples=args.samples, max_len=args.max_len,
                           seed=args.seed, detail_limit=args.detail_limit)
    ok = report["all_dissolved"]
    _status(ok, "" if ok else "%d of %d constellations not dissolved"
            % (report["total"] - report["dissolved"], report["total"]))
    return report, EXIT_OK if ok else EXIT_FAIL


def cmd_tower(args):
    if not args.base or not args.primes:
        raise CliInputError("tower: --base and --primes are required "
                            "(directly or via --config)")
    report = treelike_campaign(_tower_spec(args, args.budget_enum),
                               levels=args.levels,
                               mode=args.mode, step=args.step,
                               edge_budget=args.edge_budget,
                               samples=args.samples, max_len=args.max_len,
                               detail_limit=args.detail_limit)
    ok = report["all_dissolved"]
    _status(ok, "" if ok else _tower_failure(report["levels"]))
    return report, EXIT_OK if ok else EXIT_FAIL


def _tower_failure(levels: List[dict]) -> str:
    """What the first failing level of a campaign report failed."""
    for entry in levels:
        n = entry["level"]
        if entry.get("overflow") == "level":
            return "level %d not enumerable" % n
        sub = entry.get("dissolves")
        if sub and not sub["all_dissolved"]:
            return "level %d: %d of %d constellations not dissolved" % (
                n, sub["total"] - sub["dissolved"], sub["total"])
        certs = entry.get("certificates")
        if certs and certs["succeeded"] < certs["total"]:
            return "level %d: %d of %d certificates failed" % (
                n, certs["total"] - certs["succeeded"], certs["total"])


def cmd_rz(args):
    # rz enumerates a builtin or .json base whatever --budget-enum, which
    # bounds the levels above it; a NAME^p base is such a level
    extension = "^" in args.base and not args.base.endswith(".json")
    spec = _tower_spec(args, args.budget_enum if extension
                       else DEFAULT_ENUM_BUDGET)
    alphabet = spec.base.alphabet
    factor_texts = [t for t in (args.h1, args.h2, args.h3, args.h4)
                    if t is not None]
    cores = [stallings_graph([parse_word(t, alphabet)
                              for t in _split_csv(text)], alphabet)
             for text in factor_texts]
    w = reduce_word(parse_word(args.w, alphabet))
    report = rz_experiment(spec, cores, w)
    # conclusive either way is a pass; only an unresolved non-member fails
    ok = report["member"] or report["separated_at"] is not None
    _status(ok, "" if ok else "non-member not separated at any "
            "enumerable level")
    return report, EXIT_OK if ok else EXIT_FAIL


# -- parser -------------------------------------------------------------


def _scan_flags(p, samples: int) -> None:
    """Flags of the constellation scan shared by dissolve and tower."""
    p.add_argument("--edge-budget", type=int,
                   default=EXHAUSTIVE_EDGE_BUDGET)
    p.add_argument("--samples", type=int, default=samples)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--detail-limit", type=int, default=50)


# integer flags that refuse a value below 0: a limit or budget, where 0
# lists or admits nothing
_AT_LEAST_0 = ("detail_limit", "budget_enum", "budget_homs", "edge_budget")

# integer flags as (default, help); each subcommand declares those it reads
_SHARED = {
    "--seed": (0, "seed for every randomized step (default 0)"),
    "--budget-enum": (DEFAULT_ENUM_BUDGET, "group enumeration budget"),
    "--budget-homs": (S_EQUAL_BUDGET,
                      "assignment-scan budget for word equality"),
    "--max-level": (MAX_LEVEL, "highest tower level"),
}


def _subcommand(sub, name: str, text: str, *shared: str, unread=()):
    """Subparser with the given _SHARED flags, then --out and --config.
    The flags in `unread` are accepted and not read."""
    p = sub.add_parser(name, help=text)
    for flag in shared:
        default, about = _SHARED[flag]
        if flag in unread:
            about = "accepted and not read by %s" % name
        p.add_argument(flag, type=int, default=default, help=about)
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON report to PATH")
    p.add_argument("--config", metavar="PATH",
                   help="flat key-value JSON file of defaults for this "
                        "subcommand")
    return p


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built on first use, not at import, so a caller that replaces the
    # cmd_* functions before the first main() call dispatches to them
    parser = _Parser(prog="treelike",
                     description="finite quotients, constellations, and "
                                 "separation experiments on labelled "
                                 "graphs")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    for name, text in (("fold", "fold a graph or a bouquet of generators"),
                       ("core", "fold, then strip non-basepoint spurs")):
        p = _subcommand(sub, name, text)
        p.add_argument("input", nargs="+",
                       help="a graph .json file, or generator words")
        p.add_argument("--alphabet", help="comma-separated letter names")
        p.add_argument("--dot", metavar="PATH", help="write DOT drawing")
        p.set_defaults(func=cmd_graph)

    p = _subcommand(sub, "member", "subgroup membership for a word")
    p.add_argument("word", help="word to test (reduced automatically)")
    p.add_argument("--graph", metavar="PATH", help="graph .json file")
    p.add_argument("--gens", help="comma-separated generator words")
    p.add_argument("--alphabet", help="comma-separated letter names")
    p.set_defaults(func=cmd_member)

    p = _subcommand(sub, "extend", "universal extension order and "
                    "equalities", "--seed", "--budget-enum", "--budget-homs")
    p.add_argument("group", help="builtin name, .json file, or NAME^p")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--p", type=int, help="prime for a C_p-extension")
    which.add_argument("--S", help="builtin simple group for the "
                                   "equality oracle")
    p.add_argument("--eq", nargs=2, action="append", metavar=("U", "V"),
                   help="word pair to compare (repeatable)")
    p.add_argument("--eq-mode", choices=("auto", "exact", "witness"),
                   default="auto")
    p.add_argument("--samples", type=int, default=4000,
                   help="witness-mode sample count")
    p.set_defaults(func=cmd_extend)

    p = _subcommand(sub, "dissolve", "dissolving checks of a quotient "
                    "against a base group", "--seed", "--budget-enum")
    p.add_argument("--H", required=True, help="quotient group")
    p.add_argument("--G", required=True, help="base group")
    p.add_argument("--mode", choices=MODES, default="exhaustive")
    _scan_flags(p, samples=1000)
    p.set_defaults(func=cmd_dissolve)

    p = _subcommand(sub, "tower", "iterated-extension campaign",
                    "--seed", "--budget-enum", "--max-level")
    p.add_argument("--base", help="base group")
    p.add_argument("--primes", help="comma-separated primes, lowest "
                                    "level first")
    p.add_argument("--levels", type=int, default=1,
                   help="how many base levels to check")
    p.add_argument("--mode", choices=MODES, default="exhaustive")
    p.add_argument("--step", choices=("extension", "identity"),
                   default="extension",
                   help="quotient for each level ('identity' is the "
                        "failing baseline)")
    _scan_flags(p, samples=200)
    p.set_defaults(func=cmd_tower)

    # rz reads no seed; --seed stays so that existing rz command lines run
    p = _subcommand(sub, "rz", "product-separation experiment",
                    "--seed", "--budget-enum", "--max-level",
                    unread=("--seed",))
    p.add_argument("--h1", required=True,
                   help="comma-separated generators of the first factor")
    p.add_argument("--h2", required=True,
                   help="generators of the second factor")
    p.add_argument("--h3", help="generators of the third factor")
    p.add_argument("--h4", help="generators of the fourth factor")
    p.add_argument("--w", required=True, help="word to separate")
    p.add_argument("--base", default="C2xC2", help="tower base group")
    p.add_argument("--primes", default="2",
                   help="comma-separated tower primes")
    p.set_defaults(func=cmd_rz)

    return parser


def _splice_config(argv: Sequence[str]) -> List[str]:
    """Pull --config FILE out of argv and splice the file's key-value
    pairs back in as flags right after the subcommand, so flags given
    explicitly win (argparse keeps the last occurrence).  Each pair is
    one --name=value token, so a subcommand that does not take the flag
    names it with its value and never reads the value as a positional
    argument.  No flag takes a boolean, so a boolean value is bad
    input."""
    argv = list(argv)
    path = None
    rest: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise CliInputError("--config: missing file argument")
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            rest.append(tok)
            i += 1
    if path is None:
        return rest
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliInputError("%s: flat key-value object expected" % path)
    flags: List[str] = []
    for key in sorted(data):
        name = "--" + str(key).replace("_", "-")
        value = data[key]
        if isinstance(value, bool):
            raise CliInputError("%s: key %r: no flag takes a boolean, got "
                                "%s" % (path, key, json.dumps(value)))
        if isinstance(value, list):
            flags.append(name + "=" + ",".join(str(x) for x in value))
        else:
            flags.append(name + "=" + str(value))
    for pos, tok in enumerate(rest):
        if not tok.startswith("-"):
            return rest[:pos + 1] + flags + rest[pos + 1:]
    return rest + flags


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        argv = _splice_config(sys.argv[1:] if argv is None else argv)
        args = _build_parser().parse_args(argv)
        for name in _AT_LEAST_0:
            if (value := getattr(args, name, 0)) < 0:
                raise CliInputError("--%s must be at least 0, got %d"
                                    % (name.replace("_", "-"), value))
        report, code = args.func(args)
        report["command"] = args.command
        _emit(report, args.out)
    except EnumerationBudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:    # CliInputError among them
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
