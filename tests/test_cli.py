import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import treelike
from test_stallings import canonical_form
from treelike.cli import _build_parser, main
from treelike.stallings import (
    bouquet,
    core,
    fold,
    graph_from_json,
    stallings_graph,
)
from treelike.words import parse_word


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _child_env():
    """Environment in which a child process imports this `treelike`."""
    env = dict(os.environ)
    root = str(Path(treelike.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def _help(*cmd):
    return subprocess.run([*cmd, "--help"], capture_output=True, text=True,
                          env=_child_env())


def _declared_scripts():
    """The `[project.scripts]` table of pyproject.toml, {name: "module:attr"}.

    Read line by line: `tomllib` is 3.11+ and the package supports 3.10.
    """
    scripts, inside = {}, False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line and not line.startswith("#"):
            name, target = (part.strip().strip("\"'")
                            for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    proc = _help(sys.executable, "-m", "treelike.cli")
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout
    # The console script: declared, bound to `main`, and run the way an
    # installed wrapper runs it.
    target = _declared_scripts().get("treelike")
    assert target is not None
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    wrapper = ("import importlib, sys; sys.argv[0] = 'treelike'; "
               "sys.exit(getattr(importlib.import_module(%r), %r)())"
               % (module, attr))
    proc = _help(sys.executable, "-c", wrapper)
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


@pytest.mark.skipif(shutil.which("treelike") is None,
                    reason="no `treelike` console script on PATH "
                           "(pip install -e . makes one)")
def test_installed_script_help():
    proc = _help(shutil.which("treelike"))
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


def test_fold_report(capsys):
    code, report, _ = _run(capsys, "fold", "a^2", "a b a^-1")
    assert code == 0
    assert report["schema"] == 1 and report["command"] == "fold"
    got = graph_from_json(report["graph"])
    want = fold(bouquet([parse_word("a^2"), parse_word("a b a^-1")]))
    assert canonical_form(got) == canonical_form(want)


def test_core_report_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, report, _ = _run(capsys, "core", "a b a^-1", "--dot", str(dot))
    assert code == 0
    got = graph_from_json(report["graph"])
    want = core(fold(bouquet([parse_word("a b a^-1")])))
    assert canonical_form(got) == canonical_form(want)
    assert dot.read_text().startswith("digraph")


def test_fold_accepts_graph_json(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "edges": [{"src": 0, "label": "a", "dst": 1},
                  {"src": 0, "label": "a", "dst": 2}],
        "basepoint": 0}))
    code, report, _ = _run(capsys, "fold", str(path))
    assert code == 0
    assert len(report["graph"]["vertices"]) == 2


def test_fold_lists_mixed_vertex_ids_in_repr_order(tmp_path, capsys):
    # int and str ids do not compare, so the report sorts them by repr:
    # strings first, and 10 before 9
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "vertices": [0, 2, 9, 10, "p", "q"],
        "edges": [{"src": 0, "label": "a", "dst": 2},
                  {"src": 0, "label": "a", "dst": "q"},
                  {"src": 0, "label": "b", "dst": 10},
                  {"src": 10, "label": "a", "dst": 9},
                  {"src": 2, "label": "b", "dst": "p"}],
        "basepoint": 0}))
    code, report, _ = _run(capsys, "fold", str(path))
    assert code == 0
    vertices = report["graph"]["vertices"]
    assert len(vertices) == 5 and {0, 9, 10, "p"} <= set(vertices)
    assert vertices == sorted(vertices, key=repr)
    assert vertices.index(10) < vertices.index(9)


def test_member(capsys):
    code, report, _ = _run(capsys, "member", "a b^2 a^-1",
                           "--gens", "a^2,a b a^-1")
    assert code == 0
    assert report["member"] is True
    code, report, _ = _run(capsys, "member", "b",
                           "--gens", "a^2,a b a^-1")
    assert code == 0
    assert report["member"] is False
    assert report["reduced"] == "b"


def test_member_reduces_word(capsys):
    code, report, _ = _run(capsys, "member", "a a^-1 b",
                           "--gens", "b")
    assert code == 0
    assert report["reduced"] == "b"
    assert report["member"] is True


def test_member_input_exclusivity(capsys):
    code, _, err = _run(capsys, "member", "a")
    assert code == 3 and "exactly one of" in err
    code, _, err = _run(capsys, "member", "a", "--gens", "a",
                        "--graph", "x.json")
    assert code == 3


def test_extend_order_and_cocycle_equalities(capsys):
    code, report, _ = _run(capsys, "extend", "C2xC2", "--p", "2",
                           "--eq", "a b", "b a", "--eq", "a^2", "a^2")
    assert code == 0
    assert report["ext_order"] == 128
    assert report["separated"] is True
    first, second = report["equalities"]
    assert first["equal"] is False and first["method"] == "cocycle"
    assert second["equal"] is True


def test_extend_warns_on_non_separated_base(capsys):
    code, report, _ = _run(capsys, "extend", "C2", "--p", "2")
    assert code == 0
    assert report["separated"] is False
    assert "warning" in report
    assert report["ext_order"] == 16


def test_extend_s_oracle_auto_falls_back(capsys):
    code, report, _ = _run(capsys, "extend", "C2xC2", "--S", "A5",
                           "--eq", "a b", "b a")
    assert code == 0
    entry = report["equalities"][0]
    assert entry["status"] == "distinct"
    assert entry["method"] == "witness"
    assert entry["seed"] == 0
    code, report, _ = _run(capsys, "extend", "C2xC2", "--S", "C2",
                           "--eq", "a b", "b a")
    assert code == 0
    assert report["equalities"][0]["method"] == "exact"


def test_extend_group_tower_name(capsys):
    code, report, _ = _run(capsys, "extend", "C3^2", "--p", "3")
    assert code == 0
    # base of the next step has order 48
    assert report["ext_order"] == 48 * 3 ** (48 + 1)


def test_extend_reports_a_huge_order_as_its_formula(capsys):
    """|C5^5| = 78,125, so its C_2-extension has an order of 23,524
    digits, more than json converts to text by default (CPython 3.11+):
    the report carries the exact string |G|*p^r instead."""
    code = main(["extend", "C5^5", "--p", "2"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["ext_order"] == "78125*2^%d" % (78125 * (2 - 1) + 1)


def test_dissolve_extension_passes(capsys):
    code, report, err = _run(capsys, "dissolve", "--H", "C3^2", "--G", "C3")
    assert code == 0
    assert report["all_dissolved"] is True
    assert report["total"] == 2032
    assert "PASS" in err


def test_dissolve_identity_fails(capsys):
    code, report, err = _run(capsys, "dissolve", "--H", "C3", "--G", "C3",
                             "--detail-limit", "3")
    assert code == 1
    assert report["all_dissolved"] is False
    assert len(report["failures"]) == 3
    assert "FAIL" in err


def test_dissolve_sampled_is_deterministic(capsys):
    argv = ("dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
            "--samples", "20", "--seed", "9")
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 9 and report["samples"] == 20


def test_tower_campaign(capsys):
    code, report, err = _run(capsys, "tower", "--base", "C3",
                             "--primes", "2", "--seed", "5")
    assert code == 0
    assert report["all_dissolved"] is True
    assert report["seed"] == 5
    assert report["levels"][0]["order"] == 3
    assert "PASS" in err


def test_rz_separation(capsys):
    code, report, _ = _run(capsys, "rz", "--h1", "a", "--h2", "b",
                           "--w", "b a")
    assert code == 0
    assert report["member"] is False
    assert report["separated_at"] == 1
    assert report["levels"][1]["product_size"] == 16


def test_rz_member(capsys):
    code, report, _ = _run(capsys, "rz", "--h1", "a", "--h2", "b",
                           "--w", "a b")
    assert code == 0
    assert report["member"] is True
    assert report["factorization"] == ["a", "b"]


def test_rz_inconclusive_fails(capsys):
    code, report, err = _run(capsys, "rz", "--h1", "a", "--h2", "b",
                             "--w", "b a", "--max-level", "0")
    assert code == 1
    assert report["inconclusive"] is True
    assert "FAIL" in err


def test_exit_code_input_errors(capsys):
    cases = [
        ("extend", "Nope", "--p", "2"),
        ("fold", "nosuch.json"),
        ("member", "a^x", "--gens", "a"),
        ("tower", "--base", "C3", "--primes", "4"),
        ("dissolve", "--H", "C3", "--G", "C3", "--mode", "bogus"),
        ("fold", "a", "--no-such-flag"),
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 3, argv
        assert "error" in err


def test_exit_code_budget(capsys):
    code, _, err = _run(capsys, "extend", "C2xC2^2", "--p", "2",
                        "--budget-enum", "10")
    assert code == 2
    assert "budget exceeded" in err


def test_budget_refusals_name_their_units(capsys):
    cases = [
        (("dissolve", "--H", "A5", "--G", "A5"),
         "exhaustive constellation scan over 120 edges exceeds budget of "
         "16 edges"),
        (("extend", "C2xC2", "--S", "A5", "--eq", "a b", "b a",
          "--eq-mode", "exact", "--budget-homs", "10"),
         "exact scan of 60^5 assignments exceeds budget of 10 assignments"),
    ]
    for argv, message in cases:
        code, report, err = _run(capsys, *argv)
        assert (code, report) == (2, None), argv
        assert err == "budget exceeded: %s\n" % message


@pytest.mark.parametrize("argv, name, value", [
    (("dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
      "--samples", "0"), "samples", 0),
    (("dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
      "--samples", "-5"), "samples", -5),
    (("dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
      "--max-len", "0"), "max_len", 0),
    (("tower", "--base", "C2xC2", "--primes", "2", "--levels", "0"),
     "levels", 0),
    (("tower", "--base", "C2xC2", "--primes", "2", "--mode", "sampled",
      "--samples", "0"), "samples", 0),
    (("tower", "--base", "C2xC2", "--primes", "2", "--max-len", "0"),
     "max_len", 0),
    (("extend", "C2xC2", "--S", "A5", "--eq", "a b", "b a",
      "--eq-mode", "witness", "--samples", "0"), "samples", 0),
    (("extend", "C2xC2", "--S", "A5", "--eq", "a b", "b a",
      "--eq-mode", "witness", "--samples", "-3"), "samples", -3),
])
def test_counts_below_one_are_refused(capsys, argv, name, value):
    # checking nothing must not print PASS
    code, report, err = _run(capsys, *argv)
    assert (code, report) == (3, None)
    assert err == "error: %s must be at least 1, got %d\n" % (name, value)


@pytest.mark.parametrize("argv", [
    ("dissolve", "--H", "D4", "--G", "C2xC2"),
    ("tower", "--base", "C2xC2", "--primes", "2"),
], ids=["dissolve", "tower"])
def test_negative_detail_limit_is_refused(capsys, argv):
    for limit in ("-1", "-7"):
        code, report, err = _run(capsys, *argv, "--detail-limit", limit)
        assert (code, report) == (3, None)
        assert err == "error: --detail-limit must be at least 0, got %s\n" \
            % limit
    code, report, _ = _run(capsys, *argv, "--detail-limit", "0")
    assert code in (0, 1) and report is not None


@pytest.mark.parametrize("argv, flag, value", [
    (("dissolve", "--H", "C3^2", "--G", "C3", "--budget-enum", "-5"),
     "--budget-enum", -5),
    (("dissolve", "--H", "C3^2", "--G", "C3", "--edge-budget", "-1"),
     "--edge-budget", -1),
    (("tower", "--base", "C3", "--primes", "2", "--budget-enum", "-1"),
     "--budget-enum", -1),
    (("extend", "C3", "--S", "A5", "--eq", "a", "b", "--budget-homs", "-1"),
     "--budget-homs", -1),
    (("rz", "--h1", "a", "--h2", "b", "--w", "b a", "--budget-enum", "-1"),
     "--budget-enum", -1),
], ids=["dissolve-enum", "dissolve-edges", "tower-enum", "extend-homs",
        "rz-enum"])
def test_negative_budget_is_refused(capsys, argv, flag, value):
    """A budget below 0 is bad input, not a budget every job exceeds."""
    code, report, err = _run(capsys, *argv)
    assert (code, report) == (3, None)
    assert err == "error: %s must be at least 0, got %d\n" % (flag, value)


@pytest.mark.parametrize("argv, line", [
    (("--primes", "2", "--step", "identity"),
     "FAIL: level 0: 50094 of 50094 constellations not dissolved\n"),
    (("--primes", "2,2,2", "--levels", "3", "--mode", "sampled",
      "--samples", "50"), "FAIL: level 2 not enumerable\n"),
], ids=["identity", "overflow"])
def test_tower_fail_line_names_the_failing_level(capsys, argv, line):
    code, report, err = _run(capsys, "tower", "--base", "C2xC2", *argv)
    assert code == 1 and not report["all_dissolved"]
    assert err == line


@pytest.mark.parametrize("argv", [
    ("dissolve", "--H", "C3^2", "--G", "C3^2", "--mode", "sampled"),
    ("dissolve", "--H", "C2xC2^2", "--G", "C2xC2^2", "--mode", "sampled"),
    ("dissolve", "--H", "S3^2", "--G", "S3^2", "--mode", "sampled"),
    # level 1 is not enumerable: the certificate path samples level 0
    ("tower", "--base", "C3^2", "--primes", "2", "--mode", "sampled"),
], ids=["dissolve-C3^2", "dissolve-C2xC2^2", "dissolve-S3^2", "tower-C3^2"])
def test_stalled_sampling_is_bad_input(capsys, argv):
    # one-letter words have no second spelling: no constellation exists,
    # which is no evidence about dissolving, so not the FAIL code 1
    code, report, err = _run(capsys, *argv, "--max-len", "1",
                             "--samples", "1")
    assert (code, report) == (3, None)
    assert err == ("error: constellation sampling stalled: 0 of 1 after "
                   "1000 attempts\n")


def test_exact_mode_ignores_samples(capsys):
    argv = ("extend", "C2xC2", "--S", "C3", "--eq", "a b", "b a",
            "--eq", "a", "b", "--eq-mode", "exact")
    plain = _run(capsys, *argv)
    assert plain[0] == 0
    assert _run(capsys, *argv, "--samples", "0") == plain


def test_exit_code_predicted_pairs(capsys):
    # D4 has 31,164 candidates: refused after the candidate pass
    code, report, err = _run(capsys, "dissolve", "--H", "D4^2", "--G", "D4")
    assert code == 2
    assert report is None
    assert "scan over 971194896 candidate pairs exceeds budget" in err


def test_out_writes_report_copy(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = _run(capsys, "member", "a", "--gens", "a",
                           "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("argv,status", [
    (["fold", "a"], []),
    (["dissolve", "--H", "C3^2", "--G", "C3", "--detail-limit", "0"],
     ["PASS"])], ids=["fold", "dissolve"])
def test_unwritable_out_is_bad_input(tmp_path, capsys, argv, status):
    # the report is written to --out before stdout: a path that cannot
    # be written prints no report, only the PASS/FAIL line already out
    # and one error line naming the path
    out = tmp_path / "no-such-dir" / "report.json"
    code, report, err = _run(capsys, *argv, "--out", str(out))
    assert (code, report) == (3, None)
    lines = err.splitlines()
    assert lines[:-1] == status
    assert lines[-1].startswith("error: ") and str(out) in lines[-1]
    assert not out.parent.exists()


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "rz.json"
    cfg.write_text(json.dumps({"h1": "a", "h2": "b", "w": "b a"}))
    code, report, _ = _run(capsys, "rz", "--config", str(cfg))
    assert code == 0
    assert report["word"] == "b a"
    code, report, _ = _run(capsys, "rz", "--config", str(cfg),
                           "--w", "a b")
    assert code == 0
    assert report["word"] == "a b"
    assert report["member"] is True


def test_config_equals_spelling_reads_the_same_file(tmp_path, capsys):
    cfg = tmp_path / "rz.json"
    cfg.write_text(json.dumps({"h1": "a", "h2": "b", "w": "b a"}))
    spaced = _run(capsys, "rz", "--config", str(cfg))
    joined = _run(capsys, "rz", "--config=%s" % cfg)
    assert joined == spaced and joined[0] == 0
    assert joined[1]["word"] == "b a"


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = _run(capsys, "rz", "--config", str(bad))
    assert code == 3 and "flat key-value" in err
    code, _, err = _run(capsys, "rz", "--config")
    assert code == 3
    code, _, err = _run(capsys, "rz", "--config", str(tmp_path / "no.json"))
    assert code == 3


# each subcommand declares only the flags it reads; these are the ones
# it does not declare, with a short valid command line to add them to
_UNDECLARED = {
    ("fold", "a b"): ("--seed", "--budget-enum", "--budget-homs",
                      "--max-level"),
    ("core", "a b"): ("--seed", "--budget-enum", "--budget-homs",
                      "--max-level"),
    ("member", "a", "--gens", "a"): ("--seed", "--budget-enum",
                                     "--budget-homs", "--max-level"),
    ("extend", "C2xC2", "--p", "2"): ("--max-level",),
    ("dissolve", "--H", "C3^2", "--G", "C3"): ("--budget-homs",
                                               "--max-level"),
    ("tower", "--base", "C3", "--primes", "2", "--mode", "sampled",
     "--samples", "3"): ("--budget-homs",),
    ("rz", "--h1", "a", "--h2", "b", "--w", "a b"): ("--budget-homs",),
}
_FLAG_VALUES = {"--seed": "1", "--budget-enum": "10", "--budget-homs": "-5",
                "--max-level": "-1"}


@pytest.mark.parametrize("argv, flag", [
    (argv, flag) for argv, flags in _UNDECLARED.items() for flag in flags],
    ids=["%s%s" % (argv[0], flag) for argv, flags in _UNDECLARED.items()
         for flag in flags])
def test_undeclared_flags_are_bad_input(capsys, argv, flag):
    code, report, err = _run(capsys, *argv, flag, _FLAG_VALUES[flag])
    assert (code, report) == (3, None)
    assert err == "error: unrecognized arguments: %s %s\n" % (
        flag, _FLAG_VALUES[flag])


def test_config_key_of_an_undeclared_flag_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "dissolve.json"
    cfg.write_text(json.dumps({"max_level": 2}))
    code, report, err = _run(capsys, "dissolve", "--H", "C3^2", "--G", "C3",
                             "--config", str(cfg))
    assert (code, report) == (3, None)
    assert err == "error: unrecognized arguments: --max-level=2\n"


@pytest.mark.parametrize("key", ["samples", "nonsense"])
@pytest.mark.parametrize("value", [True, False])
def test_config_boolean_value_is_bad_input(tmp_path, capsys, key, value):
    # no flag takes a boolean: true and false, on a key tower declares
    # and on one it does not, are refused before any work
    cfg = tmp_path / "tower.json"
    data = {"base": "C3", "primes": [2], "mode": "sampled", "samples": 5}
    data[key] = value
    cfg.write_text(json.dumps(data))
    code, report, err = _run(capsys, "tower", "--config", str(cfg))
    assert (code, report) == (3, None)
    assert err == "error: %s: key %r: no flag takes a boolean, got %s\n" % (
        cfg, key, json.dumps(value))


@pytest.mark.parametrize("command", ["fold", "core"])
def test_config_values_are_not_read_as_input_words(tmp_path, capsys,
                                                   command):
    # fold and core take one or more input words after the subcommand,
    # where the config flags are spliced in
    cfg = tmp_path / "graph.json"
    cfg.write_text(json.dumps({"max_level": 2}))
    code, report, err = _run(capsys, command, "a b", "--config", str(cfg))
    assert (code, report) == (3, None)
    assert err == "error: unrecognized arguments: --max-level=2\n"
    dot = tmp_path / "graph.dot"
    cfg.write_text(json.dumps({"alphabet": ["a", "b"], "dot": str(dot)}))
    code, report, _ = _run(capsys, command, "a b", "--config", str(cfg))
    assert code == 0
    assert report == _run(capsys, command, "a b", "--alphabet", "a,b")[1]
    assert dot.read_text().startswith("digraph")


_EDGE = {"src": 0, "label": "a", "dst": 1}


@pytest.mark.parametrize("command, data, message", [
    ("fold", {"vertices": [[1]], "edges": []},
     "graph JSON field 'vertices': vertex id must not be an array or "
     "object, got [1]"),
    ("fold", {"vertices": [0, 1], "edges": [dict(_EDGE, src=[0])]},
     "graph JSON edge 0 src: vertex id must not be an array or object, "
     "got [0]"),
    ("fold", {"vertices": [0, 1], "edges": [dict(_EDGE, dst={"v": 1})]},
     "graph JSON edge 0 dst: vertex id must not be an array or object, "
     "got {'v': 1}"),
    ("fold", {"vertices": [0], "edges": [], "basepoint": [0]},
     "graph JSON field 'basepoint': vertex id must not be an array or "
     "object, got [0]"),
    ("fold", {"vertices": [0, False], "basepoint": 0,
              "edges": [dict(_EDGE, dst=False)]},
     "graph JSON field 'vertices': vertex id false would merge with vertex "
     "id 0"),
    ("fold", {"vertices": [1, True, 1.0], "edges": []},
     "graph JSON field 'vertices': vertex id true would merge with vertex "
     "id 1"),
    ("fold", {"vertices": [0, 1], "edges": [dict(_EDGE, dst=1.0)]},
     "graph JSON edge 0 dst: vertex id 1.0 would merge with vertex id 1"),
    ("fold", {"vertices": [0, 1], "edges": [dict(_EDGE, src=False)]},
     "graph JSON edge 0 src: vertex id false would merge with vertex id 0"),
    ("fold", {"vertices": [1, 2], "edges": [], "basepoint": True},
     "graph JSON field 'basepoint': vertex id true would merge with vertex "
     "id 1"),
    ("fold", {"vertices": [0, 1], "edges": [dict(_EDGE, label=["a"])]},
     "graph JSON edge 0: label must be a string, got ['a']"),
    ("fold", {"vertices": [0, 1], "edges": [_EDGE, dict(_EDGE, label=1)]},
     "graph JSON edge 1: label must be a string, got 1"),
    ("fold", {"vertices": [0], "edges": [], "alphabet": 5},
     "graph JSON field 'alphabet': list of strings required"),
    ("fold", {"vertices": [0], "edges": [], "alphabet": "ab"},
     "graph JSON field 'alphabet': list of strings required"),
    ("fold", {"vertices": [0], "edges": [], "alphabet": ["a", 2]},
     "graph JSON field 'alphabet': list of strings required"),
    ("extend", {"degree": 2, "gens": {"a": [1.0, 0], "b": [0, 1]}},
     "group JSON field 'gens.a': not a permutation of 0..1"),
    ("extend", {"degree": 2, "gens": {"a": [1, 0], "b": [True, False]}},
     "group JSON field 'gens.b': not a permutation of 0..1"),
    ("extend", {"degree": 2, "gens": {"a": [1, 0], "b": [0, "1"]}},
     "group JSON field 'gens.b': not a permutation of 0..1"),
    ("extend", {"degree": True, "gens": {"a": [0], "b": [0]}},
     "group JSON field 'degree': positive integer required"),
], ids=["vertex-array", "src-array", "dst-object", "basepoint-array",
        "vertex-zero-false", "vertex-one-true-float", "dst-float",
        "src-false", "basepoint-true", "label-array", "label-int", "alphabet-int", "alphabet-str",
        "alphabet-mixed", "image-float", "image-bool", "image-str",
        "degree-bool"])
def test_malformed_json_input_is_bad_input(tmp_path, capsys, command, data,
                                           message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--p", "2"] if command == "extend"
                                   else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ("extend", "{path}", "--p", "2"),
    ("fold", "{path}"),
    ("tower", "--config", "{path}"),
], ids=["group", "graph", "config"])
def test_unparsable_json_file_is_bad_input(tmp_path, capsys, argv):
    """A file that is no JSON at all exits 3 with a line naming it."""
    path = tmp_path / "in.json"
    path.write_text('{"degree": 2,')
    code, out, err = _call(capsys, [a.replace("{path}", str(path))
                                    for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error: %s: Expecting" % path)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, message", [
    (("rz", "--h1", "a", "--h2", "b", "--w", "b a", "--max-level", "-1"),
     "tower max_level must be at least 0, got -1"),
    # level 1 (order 128) is enumerable, but above --max-level
    (("tower", "--base", "C2xC2", "--primes", "2", "--levels", "1",
      "--max-level", "0", "--samples", "3"),
     "campaign over 1 levels reaches level 1, above max_level 0"),
    (("tower", "--base", "C2xC2", "--primes", "2,2,2,2", "--levels", "4"),
     "campaign over 4 levels reaches level 4, above max_level 3"),
], ids=["rz-negative", "tower-above", "tower-default-max"])
def test_max_level_out_of_range_is_bad_input(capsys, argv, message):
    code, report, err = _run(capsys, *argv)
    assert (code, report) == (3, None)
    assert err == "error: %s\n" % message


def test_identity_step_reaches_max_level(capsys):
    # the identity baseline checks levels 0 .. levels-1 only
    code, report, _ = _run(capsys, "tower", "--base", "C2xC2",
                           "--primes", "2", "--levels", "2",
                           "--max-level", "1", "--step", "identity",
                           "--mode", "sampled", "--samples", "3")
    assert code == 1
    assert [level["level"] for level in report["levels"]] == [0, 1]


def _call(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base": "C3", "primes": [2],
                               "mode": "sampled", "samples": 5}))
    calls = [
        ("fold", "a^2", "a b a^-1"),
        ("core", "a b a^-1"),
        ("member", "a b^2 a^-1", "--gens", "a^2,a b a^-1"),
        ("extend", "C2xC2", "--p", "2", "--eq", "a b", "b a",
         "--eq", "a^2", "a^2"),
        # the --eq list of the previous call must not carry over
        ("extend", "C2xC2", "--p", "2", "--eq", "a", "a"),
        ("fold", "a", "--no-such-flag"),
        ("extend", "C2xC2^2", "--p", "2", "--budget-enum", "10"),
        ("dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
         "--samples", "5"),
        ("tower", "--config", str(cfg)),
        ("rz", "--h1", "a", "--h2", "b", "--w", "b a"),
    ]
    _build_parser.cache_clear()
    reused = [_call(capsys, argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert [got[0] for got in reused] == [0, 0, 0, 0, 0, 3, 2, 0, 0, 0]
    assert len(json.loads(reused[4][1])["equalities"]) == 1
    for argv, got in zip(calls, reused):
        _build_parser.cache_clear()
        assert _call(capsys, argv) == got, argv
    assert _build_parser.cache_info().misses == 1
