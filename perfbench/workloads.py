"""Seeded job lists for the three workloads, and the checks on their outputs.

A job list is run as a closed loop: the next job starts only after the
previous one returned.  `make_jobs(workload, seed)` builds it from the seed
alone; the inputs are generated here with the benchmark's own word and
permutation arithmetic, so a change to the program cannot change what it is
asked.  Each job has a timed `run` and an untimed `check` that returns None
or a failure message and adds deterministic work counts to `counts`.

Job mixes are fixed, and so is every choice that sets a job's cost: the
groups, primes, budgets and refusal specs.  The seed chooses only words
and subgroup generators (certify, separate) and the job order (scan), so
that two seeds ask for the same amount of work.  The order of the
separate jobs is fixed, grouped by base group: with a shuffled order the
process's peak RSS moved by 10% from seed to seed.  The mixes are sized so that the per-job percentiles fall inside
a band of jobs of one kind, not on the edge between two kinds:

- scan: 4 cheap C3 scans, 4 refusals and 2 C2xC2 scans.  p50 falls among
  the refusals, p90 among the C2xC2 scans.
- certify: 80 certificate jobs on C2xC2^2, 10 on S3^2 and 16 on D4^2,
  plus one enumeration and one sampling job per group.  p50 falls among
  the C2xC2^2 certificates, p90 among the D4^2 certificates.
- separate: 96 jobs that stop at saturation or level 0, and 27 that reach
  level 1.  p50 falls among the cheap jobs, p90 among the level-1 jobs on
  S3 and on C2xC2 with p = 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import treelike
from treelike import cli


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def run_cli(argv: List[str]) -> tuple:
    """`treelike.cli.main(argv)` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- independent word and permutation arithmetic ------------------------
#
# Words are tuples of nonzero ints over the letters a = 1, b = 2, with
# negative ints for inverses.  Permutations compose left to right, as a
# word is read: (p * q)[i] = q[p[i]].

BASE_PERMS = {
    # the builtin generator assignments of treelike.groups
    "C2xC2": ((1, 0, 2, 3), (0, 1, 3, 2)),
    "C3": ((1, 2, 0), (2, 0, 1)),
    "S3": ((1, 0, 2), (1, 2, 0)),
    "D4": ((1, 0, 3, 2), (0, 3, 2, 1)),
}
BASE_ORDER = {"C2xC2": 4, "S3": 6, "D4": 8}


def _pmul(p: tuple, q: tuple) -> tuple:
    return tuple(q[i] for i in p)


def _pinv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_of(base: str, w: tuple) -> tuple:
    gens = BASE_PERMS[base]
    x = tuple(range(len(gens[0])))
    for s in w:
        g = gens[abs(s) - 1]
        x = _pmul(x, g if s > 0 else _pinv(g))
    return x


def subgroup_perms(base: str, gen_words: List[tuple]) -> set:
    gens = [perm_of(base, w) for w in gen_words]
    gens += [_pinv(g) for g in gens]
    ident = tuple(range(len(BASE_PERMS[base][0])))
    seen, stack = {ident}, [ident]
    while stack:
        x = stack.pop()
        for g in gens:
            y = _pmul(x, g)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def product_perms(base: str, factors: List[List[tuple]]) -> set:
    out = {tuple(range(len(BASE_PERMS[base][0])))}
    for gens in factors:
        sub = subgroup_perms(base, gens)
        out = {_pmul(x, h) for x in out for h in sub}
    return out


def free_reduce(w) -> tuple:
    out: List[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def random_word(rng: random.Random, length: int) -> tuple:
    out: List[int] = []
    while len(out) < length:
        x = rng.choice((1, -1, 2, -2))
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def word_text(w: tuple) -> str:
    return " ".join("ab"[abs(x) - 1] + ("" if x > 0 else "^-1") for x in w)


def _load(stdout: str) -> Optional[dict]:
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _add(counts: Dict[str, int], key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


# -- scan ---------------------------------------------------------------

SCAN_TOTALS = {"C3": 2032, "C2xC2": 50094}
# (H, G, exit code): the exhaustive scans, then the identity quotients
DISSOLVES = (("C3^2", "C3", 0), ("C3^3", "C3", 0), ("C3^5", "C3", 0),
             ("C2xC2^2", "C2xC2", 0), ("C3", "C3", 1), ("C2xC2", "C2xC2", 1))
# refusals of about equal cost, so that p50 falls between two of them
REFUSALS = (("C2xC2^2^2", "C2xC2"), ("C3^2^2", "C3"), ("C3^3^2", "C3"),
            ("C2xC2^3^2", "C2xC2"))
REFUSAL_BUDGET = 10000


def _scan_jobs(rng: random.Random, counts: Dict[str, int]) -> List[Job]:
    """The seed picks the CLI's own seed (the witness words of the
    identity quotients) and the job order."""
    cli_seed = str(rng.randrange(1 << 30))
    jobs = [_dissolve_job(H, G, code, cli_seed, counts)
            for H, G, code in DISSOLVES]
    jobs += [_refusal_job(H, G, REFUSAL_BUDGET, cli_seed, counts)
             for H, G in REFUSALS]
    rng.shuffle(jobs)
    return jobs


def _dissolve_job(H: str, G: str, want_code: int, cli_seed: str,
                  counts: Dict[str, int]) -> Job:
    argv = ["dissolve", "--H", H, "--G", G, "--seed", cli_seed]

    def check(result) -> Optional[str]:
        code, out, _ = result
        rep = _load(out)
        if code != want_code or rep is None:
            return "%s: exit %d, wanted %d" % (" ".join(argv), code, want_code)
        total, dissolved = rep.get("total"), rep.get("dissolved")
        _add(counts, "constellations_decided", total or 0)
        _add(counts, "counterexamples", (total or 0) - (dissolved or 0))
        _add(counts, "report_bytes", len(out))
        if total != SCAN_TOTALS[G]:
            return "%s: %r constellations, wanted %d" % (H, total, SCAN_TOTALS[G])
        want = 0 if H == G else total
        if dissolved != want:
            return "%s: %r dissolved, wanted %d" % (H, dissolved, want)
        for entry in rep.get("failures", []):
            u = treelike.parse_word(entry["u"])
            v = treelike.parse_word(entry["v"])
            if perm_of(G, u) != perm_of(G, v):
                return "%s: counterexample words differ in %s" % (H, G)
        return None

    return Job("identity" if H == G else "dissolve",
               lambda: run_cli(argv), check)


def _refusal_job(H: str, G: str, budget: int, cli_seed: str,
                 counts: Dict[str, int]) -> Job:
    argv = ["dissolve", "--H", H, "--G", G, "--budget-enum", str(budget),
            "--seed", cli_seed]

    def check(result) -> Optional[str]:
        code, out, err = result
        _add(counts, "refusals")
        if code != 2 or out or "budget" not in err:
            return "%s: exit %d, wanted a budget refusal" % (" ".join(argv), code)
        return None

    return Job("refusal", lambda: run_cli(argv), check)


# -- certify ------------------------------------------------------------

# (base, extension prime, certificate jobs)
CERTIFY_GROUPS = (("C2xC2", 2, 80), ("S3", 2, 10), ("D4", 2, 16))
S_PRIME = 3
A5_EXPONENT = 30


def _cyclic(p: int) -> treelike.FinGroup:
    return treelike.FinGroup.from_perms(
        ("a",), [tuple(list(range(1, p)) + [0])], name="C%d" % p)


def _certify_jobs(rng: random.Random, counts: Dict[str, int]) -> List[Job]:
    jobs: List[Job] = []
    for base, p, n_pairs in CERTIFY_GROUPS:
        jobs += _certify_group(base, p, n_pairs, rng.randrange(1 << 30),
                               counts)
    return jobs


def _certify_group(base: str, p: int, n_pairs: int, sample_seed: int,
                   counts: Dict[str, int]) -> List[Job]:
    state: dict = {}
    order = BASE_ORDER[base] * p ** (BASE_ORDER[base] + 1)

    def enumerate_group():
        G = treelike.extension_group(treelike.builtin(base), p)
        state["G"] = G
        state["S"] = (_cyclic(S_PRIME), treelike.builtin("A5"))
        return G.order()

    def check_enumerate(n) -> Optional[str]:
        _add(counts, "elements_enumerated", n)
        if n != order:
            return "%s^%d: order %d, wanted %d" % (base, p, n, order)
        return None

    def sample():
        rng = random.Random(sample_seed)
        state["pairs"] = list(treelike.sample_constellations(
            state["G"], rng, n_pairs, max_len=8))
        return state["pairs"]

    def check_sample(pairs) -> Optional[str]:
        G = state["G"]
        _add(counts, "pairs_sampled", len(pairs))
        if len(pairs) != n_pairs:
            return "%s^%d: %d pairs sampled, wanted %d" % (base, p, len(pairs), n_pairs)
        for c, u, v in pairs:
            if not (G.evaluate(u) == G.evaluate(v) == c.g != 0):
                return "%s^%d: sampled pair does not read 1 -> g" % (base, p)
        return None

    jobs = [Job("enumerate", enumerate_group, check_enumerate),
            Job("sample", sample, check_sample)]
    for i in range(n_pairs):
        jobs.append(_certificate_job(base, p, i, state, counts))
    return jobs


def _certificate_job(base: str, p: int, i: int, state: dict,
                     counts: Dict[str, int]) -> Job:
    def run():
        c, u, v = state["pairs"][i]
        return [treelike.dissolving_certificate(state["G"], c, u, v, S)
                for S in state["S"]]

    def check(certs) -> Optional[str]:
        G = state["G"]
        c, u, v = state["pairs"][i]
        _add(counts, "certificates", len(certs))
        if G.evaluate(u) != G.evaluate(v):
            return "%s^%d: certified pair differs in G" % (base, p)
        ext = treelike.ExtContext(G, S_PRIME)
        if ext.evaluate(u) == ext.evaluate(v):
            return "%s^%d: certified pair equal in the C_%d-extension" % (
                base, p, S_PRIME)
        for cert, o in zip(certs, (S_PRIME, A5_EXPONENT)):
            if (cert.o != o or cert.u_exp % o == 0 or cert.v_exp % o == 0
                    or cert.u_border_sum != 1 or cert.v_border_sum != 1
                    or cert.e not in c.X.pos_edges or cert.e in c.T.pos_edges
                    or cert.f not in c.T.pos_edges or cert.f in c.X.pos_edges):
                return "%s^%d: malformed certificate against S of exponent %d" % (
                    base, p, o)
        return None

    return Job("certificate", run, check)


# -- separate -----------------------------------------------------------

# (base, prime, members, level-0 separations, level-1 jobs, overflow jobs)
SEPARATE_MIX = (
    ("C2xC2", 2, 12, 15, 6, 0),
    ("C2xC2", 3, 9, 12, 3, 0),
    ("S3", 2, 9, 15, 12, 0),
    ("D4", 2, 9, 15, 3, 3),
)
OVERFLOW_BUDGET = 3000
ABELIAN_MODULUS = 12


def _factors(rng: random.Random, max_gens: int) -> List[List[tuple]]:
    return [[random_word(rng, rng.randint(1, 4))
             for _ in range(rng.randint(1, max_gens))]
            for _ in range(rng.randint(2, 4))]


def _member_word(rng: random.Random, factors: List[List[tuple]]) -> tuple:
    while True:
        w: tuple = ()
        for gens in factors:
            for _ in range(rng.randint(0, 2)):
                g = rng.choice(gens)
                w = free_reduce(w + (g if rng.random() < 0.5
                                     else tuple(-x for x in reversed(g))))
        if w:
            return w


def exponent_sums(w: tuple, n: int) -> tuple:
    """The image of w in the abelianization Z^2, reduced mod n."""
    return (sum(x // abs(x) for x in w if abs(x) == 1) % n,
            sum(x // abs(x) for x in w if abs(x) == 2) % n)


def abelian_span(factors: List[List[tuple]], n: int) -> set:
    """The image of the product of the factors in (Z/n)^2: in an abelian
    group, the subgroup generated by all their generators."""
    steps = [exponent_sums(g, n) for gens in factors for g in gens]
    seen, stack = {(0, 0)}, [(0, 0)]
    while stack:
        x, y = stack.pop()
        for dx, dy in steps:
            z = ((x + dx) % n, (y + dy) % n)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def _query(rng: random.Random, base: str, kind: str) -> tuple:
    """(factors, word) of the given kind.

    Level-0 words have an image in the base group outside the product's
    image.  Level-1 and overflow words have an image inside it, so every
    one builds tower level 1; their exponent sums mod ABELIAN_MODULUS lie
    outside the factors' span, so none is a member and each costs the
    same kind of work.  They use cyclic factors: the product-set loop over
    level 1 has no budget, and cyclic factors keep it to a few thousand
    products."""
    if kind == "member":
        factors = _factors(rng, 2)
        return factors, _member_word(rng, factors)
    outside = kind == "level0"
    while True:
        factors = _factors(rng, 2 if outside else 1)
        image = product_perms(base, factors)
        span = None if outside else abelian_span(factors, ABELIAN_MODULUS)
        if (len(image) == BASE_ORDER[base] if outside
                else len(span) == ABELIAN_MODULUS ** 2):
            continue
        for _ in range(50):
            w = random_word(rng, rng.randint(3, 8) if outside
                            else rng.randint(5, 9))
            if outside:
                if perm_of(base, w) not in image:
                    return factors, w
            elif (perm_of(base, w) in image
                  and exponent_sums(w, ABELIAN_MODULUS) not in span):
                return factors, w


def _separate_jobs(rng: random.Random, counts: Dict[str, int]) -> List[Job]:
    jobs = []
    for base, p, n_m, n_0, n_1, n_ovf in SEPARATE_MIX:
        kinds = (["member"] * n_m + ["level0"] * n_0 + ["level1"] * n_1
                 + ["overflow"] * n_ovf)
        for kind in kinds:
            factors, w = _query(rng, base, kind)
            jobs.append(_rz_job(base, p, kind, factors, w,
                                str(rng.randrange(1 << 30)), counts))
    return jobs


def _rz_job(base: str, p: int, kind: str, factors: List[List[tuple]],
            w: tuple, cli_seed: str, counts: Dict[str, int]) -> Job:
    argv = ["rz", "--base", base, "--primes", str(p), "--w", word_text(w),
            "--seed", cli_seed]
    for i, gens in enumerate(factors):
        argv += ["--h%d" % (i + 1), ",".join(word_text(g) for g in gens)]
    if kind == "overflow":
        argv += ["--budget-enum", str(OVERFLOW_BUDGET)]

    def check(result) -> Optional[str]:
        code, out, _ = result
        rep = _load(out)
        where = "rz %s^%d %s %r" % (base, p, kind, word_text(w))
        if rep is None or code not in (0, 1):
            return "%s: exit %d without a report" % (where, code)
        levels = rep.get("levels", [])
        _add(counts, "report_bytes", len(out))
        _add(counts, "levels_walked", len(levels))
        _add(counts, "overflows", sum(1 for lv in levels if lv.get("overflow")))
        if rep["member"]:
            _add(counts, "members")
            if code != 0 or kind != "member":
                return "%s: reported a member" % where
            return _check_factorization(base, factors, w, rep)
        if kind == "member":
            return "%s: constructed member rejected" % where
        if rep["separated_at"] is not None:
            _add(counts, "separated_at_%d" % rep["separated_at"])
        else:
            _add(counts, "inconclusive")
        if kind == "level0":
            if code != 0 or rep["separated_at"] != 0:
                return "%s: not separated at level 0" % where
        elif not levels or not levels[0].get("contains"):
            return "%s: level 0 should contain the word" % where
        elif kind == "overflow" and not levels[-1].get("overflow"):
            return "%s: level 1 did not overflow at budget %d" % (
                where, OVERFLOW_BUDGET)
        if code != (0 if rep["separated_at"] is not None else 1):
            return "%s: exit %d does not match the verdict" % (where, code)
        return None

    return Job(kind, lambda: run_cli(argv), check)


def _check_factorization(base: str, factors: List[List[tuple]], w: tuple,
                         rep: dict) -> Optional[str]:
    pieces = [treelike.parse_word(t) for t in rep.get("factorization", [])]
    if len(pieces) != len(factors):
        return "rz %s: factorization has %d pieces for %d factors" % (
            base, len(pieces), len(factors))
    prod: tuple = ()
    for h, gens in zip(pieces, factors):
        core = treelike.stallings_graph(list(gens), ("a", "b"))
        if not treelike.member(core, treelike.reduce_word(h)):
            return "rz %s: factorization piece outside its factor" % base
        prod = prod + h
    if treelike.reduce_word(prod) != free_reduce(w):
        return "rz %s: factorization does not multiply to the word" % base
    return None


_JOBS = {"scan": _scan_jobs, "certify": _certify_jobs,
         "separate": _separate_jobs}


def make_jobs(workload: str, seed: int) -> tuple:
    """(jobs, counts): the job list of this seed, and the dict its checks
    fill with work counts."""
    counts: Dict[str, int] = {}
    rng = random.Random("%s/%d" % (workload, seed))
    return _JOBS[workload](rng, counts), counts
