"""Frozen CLI reports, border certificates and help texts.

Each CLI case's stdout and exit code (tower, rz, extend and dissolve
runs) and each certificate case's `certificate_to_json` output are
compared byte for byte with tests/golden/<name>.json, and the `--help`
output of `treelike` and of each subcommand, at COLUMNS=80, with
tests/golden/help/<name>.txt.  To rewrite the
files after an intended change of content, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from treelike.cli import main
from treelike.constellations import sample_constellations
from treelike.extension import (certificate_to_json, dissolving_certificate,
                                extension_group)
from treelike.groups import builtin

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, argv, exit code)
CASES = [
    ("tower_c2xc2_exhaustive",
     ["tower", "--base", "C2xC2", "--primes", "2", "--levels", "1",
      "--detail-limit", "3"], 0),
    ("tower_c2xc2_two_levels_sampled",
     ["tower", "--base", "C2xC2", "--primes", "2,2", "--levels", "2",
      "--mode", "sampled", "--samples", "50", "--budget-enum", "3000",
      "--detail-limit", "3"], 0),
    ("tower_c3_sampled",
     ["tower", "--base", "C3", "--primes", "2", "--mode", "sampled",
      "--samples", "50", "--detail-limit", "3"], 0),
    ("rz_s3",
     ["rz", "--base", "S3", "--primes", "2", "--h1", "a", "--h2", "b",
      "--w", "b a"], 0),
    ("rz_c2xc2_p3",
     ["rz", "--base", "C2xC2", "--primes", "3", "--h1", "a", "--h2", "b",
      "--w", "b a"], 0),
    ("rz_d4_overflow",
     ["rz", "--base", "D4", "--primes", "2", "--h1", "a", "--h2", "b",
      "--w", "b b a", "--budget-enum", "3000"], 1),
    # two-generator factors: the level-1 product set is 384 of 768
    ("rz_s3_two_generator_factors",
     ["rz", "--base", "S3", "--primes", "2",
      "--h1", "b^-1 b^-1 a,b b a^-1",
      "--h2", "a^-1 b^-1 a b,b^-1 a^-1 b^-1 a",
      "--w", "a b^-1 a b b a^-1"], 0),
    ("rz_c2xc2_primes_2_3",
     ["rz", "--base", "C2xC2", "--primes", "2,3", "--h1", "a", "--h2", "b",
      "--w", "b a"], 0),
    ("extend_c2xc2_p3",
     ["extend", "C2xC2", "--p", "3", "--eq", "a b", "b a"], 0),
    # level 2 and C2xC2^2^2 are refused by their exact order
    ("tower_c2xc2_two_levels_readme",
     ["tower", "--base", "C2xC2", "--primes", "2,2", "--levels", "2",
      "--mode", "sampled", "--samples", "50", "--detail-limit", "3"], 0),
    ("dissolve_c2xc2_2_2_refused",
     ["dissolve", "--H", "C2xC2^2^2", "--G", "C2xC2"], 2),
    # the s_equal path: exact scan over the used basis indices, and the
    # seeded witness search
    ("extend_c2xc2_s_c3_exact",
     ["extend", "C2xC2", "--S", "C3", "--eq", "a b", "b a",
      "--eq", "a^6", "", "--eq", "a^2 b^2", "b^2 a^2", "--eq", "a", "b",
      "--eq-mode", "exact"], 0),
    ("extend_s3_s_a5_witness",
     ["extend", "S3", "--S", "A5", "--eq", "a b a", "b a b",
      "--eq", "a^2 b^2", "b^2 a^2", "--eq", "a^120", "",
      "--eq-mode", "witness", "--samples", "200", "--seed", "5"], 0),
    # the exhaustive scan: the identity quotient's counterexample witness
    # words with truncated failures, and a quotient that dissolves all
    ("dissolve_c2xc2_identity_detail5",
     ["dissolve", "--H", "C2xC2", "--G", "C2xC2", "--detail-limit", "5"], 1),
    ("dissolve_c3_2_c3",
     ["dissolve", "--H", "C3^2", "--G", "C3"], 0),
]

# (name, extension group base, prime, constellation pairs, sampling seed);
# every pair is certified against C3 and A5
CERT_CASES = [
    ("certificates_c2xc2_2", "C2xC2", 2, 6, 11),
    ("certificates_s3_2", "S3", 2, 4, 12),
    ("certificates_d4_2", "D4", 2, 3, 13),
]


# the top-level help, then each subcommand's
HELP_COMMANDS = ["treelike", "fold", "core", "member", "extend", "dissolve",
                 "tower", "rz"]


@pytest.mark.parametrize("name,argv,code", CASES,
                         ids=[case[0] for case in CASES])
def test_report_matches_golden(name, argv, code, capsys):
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert out == (GOLDEN / (name + ".json")).read_text()


def _certificates(base, p, count, seed) -> str:
    """One JSON line per sampled pair: u, v, g and its certificates."""
    G = extension_group(builtin(base), p)
    targets = (builtin("C3"), builtin("A5"))
    lines = []
    for c, u, v in sample_constellations(G, random.Random(seed), count):
        certs = [certificate_to_json(dissolving_certificate(G, c, u, v, S))
                 for S in targets]
        lines.append(json.dumps({"u": list(u), "v": list(v), "g": c.g,
                                 "certificates": certs}, sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


@pytest.mark.parametrize("name,base,p,count,seed", CERT_CASES,
                         ids=[case[0] for case in CERT_CASES])
def test_certificates_match_golden(name, base, p, count, seed):
    got = _certificates(base, p, count, seed)
    assert got == (GOLDEN / (name + ".json")).read_text()


def _help(name: str) -> str:
    """stdout of `treelike [name] --help`; the caller sets COLUMNS."""
    argv = ["--help"] if name == "treelike" else [name, "--help"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.suppress(SystemExit):
        main(argv)
    return buf.getvalue()


# captured with CPython 3.11; CI runs 3.10-3.12
@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse help layout changed in Python 3.13")
@pytest.mark.parametrize("name", HELP_COMMANDS)
def test_help_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(name) == (GOLDEN / "help" / (name + ".txt")).read_text()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            got = main(argv)
        if got != code:
            sys.exit("%s: exit code %d, expected %d" % (name, got, code))
        (GOLDEN / (name + ".json")).write_text(buf.getvalue())
    for name, *args in CERT_CASES:
        (GOLDEN / (name + ".json")).write_text(_certificates(*args))
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help").mkdir(exist_ok=True)
    for name in HELP_COMMANDS:
        (GOLDEN / "help" / (name + ".txt")).write_text(_help(name))


if __name__ == "__main__":
    _regenerate()
