"""CLI parity manifest: one line per command, byte for byte.

Each case runs in-process through `treelike.cli.main`, and its exit code
and the SHA-256 of its stdout and of its stderr are compared with
tests/golden/parity.json.  The cases are the graph commands, `rz`
members and non-members on C2xC2, S3 and D4 with two to four factors,
short `tower`, `dissolve` and `extend` runs, failing checks (exit 1),
budget refusals (exit 2) and each kind of bad input that the command
line checks itself (exit 3); together they run in about 2 s.  Some
cases read files: graph `.json` input, a `--config` file and the group
file c16.json (the cyclic group of order 16 on one letter, whose
`dissolve_c16_2` scan C16^2 ->> C16 is cheaper as a pair scan than as a
cut cover, so it pins the pair path byte for byte), committed in
tests/golden/ and named `{golden}/...` in argv, and `--out` reports
written to a fresh temporary directory, `{tmp}`.  A case that writes
`--out` also records the hash of that file, which must equal the hash
of its stdout.  Each case runs under an address-space cap, so one that
regresses into a runaway computation fails instead of exhausting
memory.  A hash that changes is a change of behaviour.  To rewrite the
manifest after an intended change, run `PYTHONPATH=src python
tests/test_parity.py` from the repository root.

The cases too slow for every test run (S3^2, S3^3 and S3^5 ->> S3, the
full failure listing of D4 ->> C2xC2, an exhaustive tower level over S3
and a quotient of order 144 ->> S3 whose listed failures all come after
its listed constellations) are kept in tests/golden/parity_slow.json, in
the same format.  `--slow` selects them, and `--check` compares a
manifest instead of rewriting it: `python tests/test_parity.py --slow
--check` exits 1 and names each case that differs.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from treelike.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "parity.json"
SLOW_MANIFEST = MANIFEST.with_name("parity_slow.json")
GOLDEN = MANIFEST.parent

RZ = ["rz", "--base"]

# (name, argv)
CASES = [
    ("fold", ["fold", "a^2", "a b a^-1"]),
    ("core", ["core", "a b a^-1"]),
    ("member", ["member", "a b^2 a^-1", "--gens", "a^2,a b a^-1"]),
    ("fold_graph_file", ["fold", "{golden}/graph_unfolded.json"]),
    ("core_graph_file", ["core", "{golden}/graph_unfolded.json"]),
    ("fold_graph_file_out", ["fold", "{golden}/graph_folded.json",
                             "--out", "{tmp}/fold.json"]),
    ("member_graph_file", ["member", "a a b a^-1 b",
                           "--graph", "{golden}/graph_folded.json"]),
    ("member_graph_file_non_member",
     ["member", "b", "--graph", "{golden}/graph_folded.json"]),
    # reports with strings that JSON escapes: non-ASCII letters, a quote
    ("fold_non_ascii_alphabet", ["fold", "α β α^-1", "--alphabet", "α,β"]),
    ("member_quoted_letter",
     ["member", 'x" y', "--gens", 'x"', "--alphabet", 'x",y']),
    ("extend_cocycle",
     ["extend", "C2xC2", "--p", "2", "--eq", "a b", "b a",
      "--eq", "a^2 b", "b a^2"]),
    ("extend_witness",
     ["extend", "S3", "--S", "A5", "--eq", "a b a", "b a b",
      "--eq-mode", "witness", "--budget-homs", "1", "--samples", "5"]),
    ("extend_exact",
     ["extend", "C2xC2", "--S", "C3", "--eq", "a b", "b a", "--eq", "a^6", "",
      "--eq-mode", "exact"]),
    ("extend_order_only", ["extend", "C3^2", "--p", "3"]),
    ("tower_sampled",
     ["tower", "--base", "C3", "--primes", "2", "--mode", "sampled",
      "--samples", "20", "--detail-limit", "2"]),
    # the file's keys, primes as a list among them, under an explicit
    # --samples, which wins
    ("tower_config_file",
     ["tower", "--config", "{golden}/config_tower_c3.json",
      "--samples", "5"]),
    ("tower_c3_exhaustive",
     ["tower", "--base", "C3", "--primes", "2", "--detail-limit", "2"]),
    ("tower_c2xc2_exhaustive",
     ["tower", "--base", "C2xC2", "--primes", "2", "--detail-limit", "1"]),
    ("tower_c2xc2_two_levels",
     ["tower", "--base", "C2xC2", "--primes", "2,2", "--levels", "2",
      "--mode", "sampled", "--samples", "10", "--detail-limit", "1"]),
    ("tower_s3_two_levels",
     ["tower", "--base", "S3", "--primes", "2,2", "--levels", "2",
      "--mode", "sampled", "--samples", "5", "--detail-limit", "1"]),
    ("dissolve_exhaustive",
     ["dissolve", "--H", "C3^2", "--G", "C3", "--detail-limit", "2"]),
    ("dissolve_exhaustive_out",
     ["dissolve", "--H", "C3^2", "--G", "C3", "--detail-limit", "2",
      "--out", "{tmp}/report.json"]),
    ("dissolve_limit_200",
     ["dissolve", "--H", "C3^2", "--G", "C3", "--detail-limit", "200"]),
    ("dissolve_sampled",
     ["dissolve", "--H", "C3^2", "--G", "C3", "--mode", "sampled",
      "--samples", "20", "--detail-limit", "1"]),
    # the exhaustive scans of the benchmark's scan workload, at the
    # default detail limit: the identity quotients list 200 failures
    # each, with their witness words
    ("dissolve_scan_c3_2", ["dissolve", "--H", "C3^2", "--G", "C3",
                            "--seed", "5"]),
    ("dissolve_scan_c3_3", ["dissolve", "--H", "C3^3", "--G", "C3",
                            "--seed", "5"]),
    ("dissolve_scan_c3_5", ["dissolve", "--H", "C3^5", "--G", "C3",
                            "--seed", "5"]),
    ("dissolve_scan_c2xc2_2", ["dissolve", "--H", "C2xC2^2", "--G", "C2xC2",
                               "--seed", "5"]),
    ("dissolve_scan_c3_identity", ["dissolve", "--H", "C3", "--G", "C3",
                                   "--seed", "5"]),
    ("dissolve_scan_c2xc2_identity",
     ["dissolve", "--H", "C2xC2", "--G", "C2xC2", "--seed", "5"]),
    ("dissolve_c3_5_limit_0",
     ["dissolve", "--H", "C3^5", "--G", "C3", "--detail-limit", "0"]),
    # G^p ->> G at an odd prime on a four-element G: lift masks 972 bits
    # wide, every constellation dissolved
    ("dissolve_c2xc2_5", ["dissolve", "--H", "C2xC2^5", "--G", "C2xC2"]),
    # a one-letter cyclic G of 16 edges: its 136 candidates make the
    # pair scan cheaper than the cut cover's 2^16 transform
    ("dissolve_c16_2", ["dissolve", "--H", "{golden}/c16.json^2",
                        "--G", "{golden}/c16.json"]),
    # -- rz: separated non-members, members, inconclusive runs
    ("rz_c2xc2_p2", RZ + ["C2xC2", "--primes", "2", "--h1", "a",
                          "--h2", "b", "--w", "b a"]),
    ("rz_c2xc2_p2_2", RZ + ["C2xC2", "--primes", "2,2", "--h1", "a",
                            "--h2", "b", "--w", "b a"]),
    ("rz_s3_p2_2", RZ + ["S3", "--primes", "2,2", "--h1", "a", "--h2", "b",
                         "--w", "b a"]),
    ("rz_s3_p2_3_three_factors",
     RZ + ["S3", "--primes", "2,3", "--h1", "a", "--h2", "b",
           "--h3", "a b", "--w", "b a b"]),
    ("rz_c2xc2_p3_member", RZ + ["C2xC2", "--primes", "3", "--h1", "a b",
                                 "--h2", "b^2", "--w", "a b^3"]),
    ("rz_d4_overflow", RZ + ["D4", "--primes", "2", "--h1", "a", "--h2", "b",
                             "--w", "b b a", "--budget-enum", "3000"]),
    ("rz_c2xc2_member", RZ + ["C2xC2", "--h1", "a b", "--h2", "b a^-1",
                              "--w", "a b b a^-1"]),
    ("rz_c2xc2_three_factors_level0",
     RZ + ["C2xC2", "--h1", "a^2", "--h2", "b^2", "--h3", "a b",
           "--w", "a"]),
    ("rz_c2xc2_p3_four_factors_member",
     RZ + ["C2xC2", "--primes", "3", "--h1", "a", "--h2", "b",
           "--h3", "a b", "--h4", "b a", "--w", "a b a"]),
    ("rz_s3_three_factors_member",
     RZ + ["S3", "--h1", "a^2,b", "--h2", "a b a", "--h3", "b a",
           "--w", "a^2 b a b a"]),
    ("rz_s3_level0", RZ + ["S3", "--h1", "a b", "--h2", "b^3", "--w", "a"]),
    ("rz_s3_four_factors_level0",
     RZ + ["S3", "--h1", "a^2", "--h2", "b^2", "--h3", "a b a", "--h4", "b",
           "--w", "a"]),
    ("rz_d4_three_factors_member",
     RZ + ["D4", "--h1", "a b", "--h2", "b^-1 a", "--h3", "a^3",
           "--w", "a b b^-1 a a^3"]),
    ("rz_d4_four_factors_member",
     RZ + ["D4", "--h1", "a", "--h2", "b", "--h3", "a b", "--h4", "b a",
           "--w", "a b a b a"]),
    ("rz_d4_level0", RZ + ["D4", "--h1", "a^2", "--h2", "b^2", "--w", "a b"]),
    ("rz_s3_two_generator_factors",
     RZ + ["S3", "--primes", "2", "--h1", "b^-1 b^-1 a,b b a^-1",
           "--h2", "a^-1 b^-1 a b,b^-1 a^-1 b^-1 a",
           "--w", "a b^-1 a b b a^-1"]),
    ("rz_c2xc2_p2_2_budget_10e42",
     RZ + ["C2xC2", "--primes", "2,2", "--h1", "a", "--h2", "b", "--w", "b a",
           "--budget-enum", str(10 ** 42)]),
    ("rz_s3_p2_2_budget_10e42",
     RZ + ["S3", "--primes", "2,2", "--h1", "a", "--h2", "b", "--w", "b a",
           "--budget-enum", str(10 ** 42)]),
    # a NAME^p^q base over the budget: level 0 overflows at once, its
    # letter images unbuilt
    ("rz_base_three_levels_budget_10e42",
     RZ + ["C2xC2^2^2^2", "--primes", "2", "--h1", "a", "--h2", "b",
           "--w", "b a", "--budget-enum", str(10 ** 42)]),
    ("rz_max_level_0", RZ + ["C2xC2", "--primes", "2", "--h1", "a",
                             "--h2", "b", "--w", "b a", "--max-level", "0"]),
    # -- checked properties that fail (exit 1)
    ("tower_identity_step",
     ["tower", "--base", "C3", "--primes", "2", "--mode", "sampled",
      "--samples", "5", "--step", "identity"]),
    ("tower_level_not_enumerable",
     ["tower", "--base", "C2xC2", "--primes", "2,2", "--levels", "2",
      "--budget-enum", "100"]),
    ("tower_three_levels",
     ["tower", "--base", "C2xC2", "--primes", "2,2,2", "--levels", "3",
      "--mode", "sampled", "--samples", "5"]),
    ("dissolve_identity_quotient_limit_0",
     ["dissolve", "--H", "C2xC2", "--G", "C2xC2", "--detail-limit", "0"]),
    ("dissolve_identity_quotient_limit_1",
     ["dissolve", "--H", "C2xC2", "--G", "C2xC2", "--detail-limit", "1"]),
    ("dissolve_identity_quotient_limit_7",
     ["dissolve", "--H", "C2xC2", "--G", "C2xC2", "--detail-limit", "7"]),
    ("dissolve_d4_limit_7",
     ["dissolve", "--H", "D4", "--G", "C2xC2", "--detail-limit", "7"]),
    ("dissolve_d4_limit_3",
     ["dissolve", "--H", "D4", "--G", "C2xC2", "--detail-limit", "3"]),
    ("dissolve_d4_limit_13",
     ["dissolve", "--H", "D4", "--G", "C2xC2", "--detail-limit", "13"]),
    # -- budget refusals (exit 2)
    ("refuse_enumeration_by_order",
     ["dissolve", "--H", "C2xC2^2^2", "--G", "C2xC2"]),
    ("refuse_enumeration", ["extend", "C2xC2^2", "--p", "2",
                            "--budget-enum", "10"]),
    # the refusal jobs of the benchmark's scan workload
    ("refuse_scan_c2xc2_2_2",
     ["dissolve", "--H", "C2xC2^2^2", "--G", "C2xC2", "--budget-enum",
      "10000"]),
    ("refuse_scan_c3_2_2",
     ["dissolve", "--H", "C3^2^2", "--G", "C3", "--budget-enum", "10000"]),
    ("refuse_scan_c3_3_2",
     ["dissolve", "--H", "C3^3^2", "--G", "C3", "--budget-enum", "10000"]),
    ("refuse_scan_c2xc2_3_2",
     ["dissolve", "--H", "C2xC2^3^2", "--G", "C2xC2", "--budget-enum",
      "10000"]),
    ("refuse_extend_two_levels", ["extend", "C3^2^2", "--p", "2"]),
    # a budget admitting C2xC2^2^2 (2^136 elements): the order string of
    # its extension, and the refusal of the level above it
    ("extend_order_string_budget_10e42",
     ["extend", "C2xC2^2^2", "--p", "2", "--budget-enum", str(10 ** 42)]),
    ("refuse_three_levels_budget_10e42",
     ["dissolve", "--H", "C2xC2^2^2^2", "--G", "C2xC2", "--budget-enum",
      str(10 ** 42)]),
    ("refuse_tower_base_three_levels_budget_10e42",
     ["tower", "--base", "C2xC2^2^2^2", "--primes", "2", "--budget-enum",
      str(10 ** 42)]),
    ("refuse_scan_edges", ["dissolve", "--H", "C3^2", "--G", "C3",
                           "--edge-budget", "3"]),
    ("refuse_scan_pairs", ["dissolve", "--H", "D4^2", "--G", "D4"]),
    # G of 78,125 elements (156,250 edges), far over the edge budget
    ("refuse_scan_edges_c5_5", ["dissolve", "--H", "C5^5", "--G", "C5^5"]),
    ("refuse_builtin_base", ["tower", "--base", "C2xC2", "--primes", "2",
                             "--budget-enum", "3"]),
    ("refuse_exact_assignments",
     ["extend", "S3", "--S", "A5", "--eq", "a^2 b^2", "b^2 a^2",
      "--eq-mode", "exact", "--budget-homs", "10"]),
    # -- bad input (exit 3)
    ("error_unknown_group", ["dissolve", "--H", "Q8", "--G", "C3"]),
    ("error_exponent", ["dissolve", "--H", "C3^x", "--G", "C3"]),
    ("error_no_canonical_morphism", ["dissolve", "--H", "C3", "--G", "C2xC2"]),
    ("error_primes_syntax", ["tower", "--base", "C3", "--primes", "2,x"]),
    ("error_not_prime", ["tower", "--base", "C3", "--primes", "4"]),
    ("error_tower_needs_base", ["tower", "--primes", "2"]),
    ("error_prime_per_level", ["tower", "--base", "C3", "--primes", "2",
                               "--levels", "2"]),
    ("error_samples", ["tower", "--base", "C3", "--primes", "2", "--mode",
                       "sampled", "--samples", "0"]),
    ("error_detail_limit", ["dissolve", "--H", "C3^2", "--G", "C3",
                            "--detail-limit", "-1"]),
    ("error_member_source", ["member", "a"]),
    ("error_unknown_letter", ["member", "c", "--gens", "a"]),
    ("error_unreduced_generator", ["fold", "a a^-1"]),
    ("error_missing_graph_file", ["fold", "no-such-graph.json"]),
    ("error_graph_not_folded",
     ["member", "b", "--graph", "{golden}/graph_unfolded.json"]),
    ("error_unknown_flag", ["fold", "a", "--no-such-flag"]),
    ("error_undeclared_flag", ["dissolve", "--H", "C3^2", "--G", "C3",
                               "--max-level", "2"]),
    ("error_config_argument", ["rz", "--config"]),
    ("error_missing_config_file", ["rz", "--config", "no-such-config.json"]),
    ("error_extend_needs_p_or_s", ["extend", "C2xC2"]),
    ("error_rz_needs_h2", ["rz", "--h1", "a", "--w", "a"]),
    ("error_no_command", []),
]

# (name, argv), checked by `python tests/test_parity.py --slow --check`
SLOW_CASES = [
    ("dissolve_s3_2", ["dissolve", "--H", "S3^2", "--G", "S3"]),
    ("dissolve_s3_3", ["dissolve", "--H", "S3^3", "--G", "S3"]),
    ("dissolve_s3_5", ["dissolve", "--H", "S3^5", "--G", "S3"]),
    ("dissolve_d4_every_failure",
     ["dissolve", "--H", "D4", "--G", "C2xC2", "--detail-limit", "31140"]),
    ("tower_s3_identity_step",
     ["tower", "--base", "S3", "--primes", "2", "--levels", "1",
      "--step", "identity"]),
    # the regular representation of subdirect([S3, C3^2]) (order 144):
    # its first 50 constellations are dissolved, so all 50 listed
    # failures come after them in the ordered order
    ("dissolve_s3_c3_2_failures_after_listing",
     ["dissolve", "--H", "{golden}/s3_c3_2.json", "--G", "S3"]),
]


@contextlib.contextmanager
def _address_space_cap(extra=1 << 30):
    """Lower this process's soft address-space limit to `extra` bytes
    above its present size for the block, where Linux tells that size:
    a case that regresses into a runaway computation (the budget-10^42
    cases) then fails with MemoryError instead of exhausting memory."""
    try:
        import resource
        pages = int(Path("/proc/self/statm").read_text().split()[0])
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = pages * resource.getpagesize() + extra
    limits = [x for x in (soft, hard) if x != resource.RLIM_INFINITY]
    resource.setrlimit(resource.RLIMIT_AS, (min([cap] + limits), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _entry(name, argv) -> dict:
    """The manifest entry of one in-process run, with {golden} and {tmp}
    in argv replaced by their directories."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        real = [a.replace("{golden}", str(GOLDEN)).replace("{tmp}", tmp)
                for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with _address_space_cap():
                code = main(real)
        entry = {"name": name, "argv": argv, "code": code,
                 "stdout_sha256": _sha256(out.getvalue()),
                 "stderr_sha256": _sha256(err.getvalue())}
        if "--out" in argv:
            entry["out_sha256"] = _sha256(
                Path(real[argv.index("--out") + 1]).read_text())
    return entry


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _manifest(path=MANIFEST) -> list:
    return json.loads(path.read_text())


def test_manifest_holds_every_case_once():
    assert [(e["name"], e["argv"]) for e in _manifest()] == [
        (name, argv) for name, argv in CASES]


def test_slow_manifest_holds_every_case_once():
    assert [(e["name"], e["argv"]) for e in _manifest(SLOW_MANIFEST)] == [
        (name, argv) for name, argv in SLOW_CASES]


def test_out_file_equals_stdout():
    written = [e for e in _manifest() if "out_sha256" in e]
    assert len(written) == 2
    assert all(e["out_sha256"] == e["stdout_sha256"] for e in written)


@pytest.mark.parametrize("name,argv", CASES, ids=[case[0] for case in CASES])
def test_cli_run_matches_manifest(name, argv):
    want = {e["name"]: e for e in _manifest()}[name]
    assert _entry(name, argv) == want


if __name__ == "__main__":
    path, cases = ((SLOW_MANIFEST, SLOW_CASES) if "--slow" in sys.argv
                   else (MANIFEST, CASES))
    entries = [_entry(name, argv) for name, argv in cases]
    if "--check" in sys.argv:
        want = _manifest(path)
        differ = [e["name"] for e in entries if e not in want]
        for name in differ:
            print("differs: %s" % name, file=sys.stderr)
        sys.exit(1 if differ else 0)
    path.write_text("[\n" + ",\n".join(json.dumps(e, sort_keys=True)
                                        for e in entries) + "\n]\n")
