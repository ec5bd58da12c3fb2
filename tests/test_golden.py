"""Frozen CLI reports: stdout and exit code of tower, rz, extend and
dissolve runs.

Each case's stdout is compared byte for byte with tests/golden/<name>.json.
To rewrite the files after an intended change of report content, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from treelike.cli import main

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
]


@pytest.mark.parametrize("name,argv,code", CASES,
                         ids=[case[0] for case in CASES])
def test_report_matches_golden(name, argv, code, capsys):
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert out == (GOLDEN / (name + ".json")).read_text()


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


if __name__ == "__main__":
    _regenerate()
