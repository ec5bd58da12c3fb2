#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs every workload of BENCHMARK.json
once per seed, for seeds 1 to 10, in two sets, one run at a time, and
compares the results.

    python3 perfbench/steady.py

For each workload and set it prints the error rate, and for each
end-to-end metric the median over the seeds, with its unit, and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread
passes when it is below a third of the metric's bound in BENCHMARK.json,
and the second set's median must not be worse than the first's by more
than the bound.  The deterministic work counts of each seed must be equal
in both sets.  Exit code 0 when everything passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (
            workload, seed, proc.returncode, proc.stderr))
    counts = next(json.loads(line[len("counts "):]) for line in lines
                  if line.startswith("counts "))
    return json.loads(lines[-1]), counts


def spread(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = {}
            for seed in SEEDS:
                result, counts = run_once(workload, seed, bench["run_seconds"])
                runs[seed] = (result, counts)
                if not result["correct"]:
                    print("%s seed %d: incorrect, %d of %d failed" % (
                        workload, seed, result["failed"], result["attempted"]))
                    ok = False
            sets.append(runs)
        summary[workload] = {}
        for k, runs in enumerate(sets):
            failed = sum(runs[s][0]["failed"] for s in SEEDS)
            attempted = sum(runs[s][0]["attempted"] for s in SEEDS)
            print("%-9s error_rate   set %d  %.6f (%d of %d jobs failed their check)"
                  % (workload, k + 1, failed / attempted, failed, attempted))
        for metric in bench["end_to_end"]:
            name, bound, unit = metric["name"], metric["bound"], metric["unit"]
            medians = []
            for k, runs in enumerate(sets):
                values = [runs[s][0]["metrics"][name]["value"] for s in SEEDS]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                steady = sp < bound / 3
                ok &= steady
                print("%-9s %-12s set %d  median %12.4f %-3s spread %6.3f  "
                      "(third of bound %.3f) %s" % (
                          workload, name, k + 1, med, unit, sp, bound / 3,
                          "ok" if steady else "UNSTEADY"))
                summary[workload].setdefault(name, []).append(
                    {"median": med, "spread": sp, "values": values})
            drift = medians[1] / medians[0] - 1
            held = drift <= bound
            ok &= held
            print("%-9s %-12s set 2 vs set 1: %+.3f (bound %.2f) %s" % (
                workload, name, drift, bound, "ok" if held else "DRIFT"))
        differ = [seed for seed in SEEDS if sets[1][seed][1] != sets[0][seed][1]]
        ok &= not differ
        print("%s: work counts %s" % (
            workload, "differ between sets for seeds %s" % differ if differ
            else "identical across sets"))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
