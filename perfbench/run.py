#!/usr/bin/env python3
"""Benchmark of the treelike library and CLI: one workload, one seed.

    python3 perfbench/run.py --workload {scan,certify,separate} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout; the program is loaded from `src/` (no install
needed).  With `--trace 0` the run repeats the seed's job list a fixed
number of times, about S seconds' worth on the host the benchmark was
sized on, and reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced runs of the job list and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  A
result file and, for traced runs, the recorded spans are written under
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# seconds of one untraced run of the job list, on a 2-core x86-64 virtual
# machine with CPython 3.11; they fix the repetition count for a given
# --seconds, so a slower program gets as many repetitions as a faster one
REPETITION_S = {"scan": 7.0, "certify": 6.5, "separate": 5.5}
MIN_REPETITIONS = 3
# a traced repetition and its untraced partner cost about three untraced ones
TRACED_PAIR_FACTOR = 3
SETUP_PROBES = 15
PROBES_PER_REPETITION = 3
# a safety stop that a normal run never reaches: no repetition starts
# once the run could end later than this
DEADLINE_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(REPETITION_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import treelike, build the job list, and exit "
                        "(what setup_s times)")
    return p.parse_args(argv)


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def setup_probe(args) -> float:
    """Wall time of a fresh interpreter that imports treelike and builds
    the workload's inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
    return elapsed


def treelike_caches() -> list:
    return [obj for name, mod in sorted(sys.modules.items())
            if name.startswith("treelike")
            for obj in vars(mod).values() if hasattr(obj, "cache_info")]


def fresh_program_state() -> None:
    """Empty the program's module-level caches before a repetition, as a
    new CLI process would have them, so every repetition does the same
    work."""
    for cache in treelike_caches():
        cache.cache_clear()
    gc.collect()


def cache_entries() -> int:
    return sum(cache.cache_info().currsize for cache in treelike_caches())


def run_jobs(jobs, tracer=None):
    """Run the jobs in order, one at a time.  (wall s, per-job s, outputs)."""
    clock = time.perf_counter
    latencies, outputs = [], []
    start = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        try:
            result, error = job.run(), None
        except Exception as exc:
            result, error = None, "%s job raised %s: %s" % (
                job.kind, type(exc).__name__, exc)
        latencies.append(clock() - t0)
        outputs.append((result, error))
    return clock() - start, latencies, outputs


def check_jobs(jobs, outputs) -> list:
    failures = []
    for job, (result, error) in zip(jobs, outputs):
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:
                error = "check of %s job raised %s: %s" % (
                    job.kind, type(exc).__name__, exc)
        if error:
            failures.append(error)
    return failures


class Run:
    def __init__(self, args, make_jobs):
        self.args = args
        self.make_jobs = make_jobs
        self.attempted = 0
        self.failures: list = []
        self.start = time.perf_counter()
        self.stopped_early = False

    def repetitions(self, traced: bool = False) -> int:
        """The repetition count for --seconds: fixed, not read off the
        clock.  Traced runs count untraced-and-traced pairs."""
        nominal = REPETITION_S[self.args.workload]
        if traced:
            return max(1, round(self.args.seconds / (TRACED_PAIR_FACTOR * nominal)))
        return max(MIN_REPETITIONS, round(self.args.seconds / nominal))

    def fits(self, last_s: float) -> bool:
        """False only when another repetition could pass the safety stop."""
        if time.perf_counter() - self.start + last_s > DEADLINE_S:
            self.stopped_early = True
        return not self.stopped_early

    def repetition(self, tracer=None):
        """One run of the seed's job list: (wall s, per-job s, work counts)."""
        jobs, counts = self.make_jobs(self.args.workload, self.args.seed)
        fresh_program_state()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            wall, latencies, outputs = run_jobs(jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        counts["encode_cache_entries"] = cache_entries()
        self.failures += check_jobs(jobs, outputs)
        self.attempted += len(jobs)
        return wall, latencies, counts


def measure(run: Run) -> tuple:
    """End-to-end metrics, tracing off.  `wall_s` is the median wall time
    of one repetition of the job list, and each job's latency is its
    median over the repetitions.  The set-up probes are spread over the
    run, a few before each repetition, so that their median does not hang
    on one moment of the host."""
    n = run.repetitions()
    setup, walls, reps, counts0, peak_kb = [], [], [], None, 0
    while len(walls) < n and run.fits(walls[-1] if walls else 0.0):
        for _ in range(min(PROBES_PER_REPETITION, SETUP_PROBES - len(setup))):
            setup.append(setup_probe(run.args))
        wall, latencies, counts = run.repetition()
        walls.append(wall)
        reps.append(latencies)
        if counts0 is None:
            counts0 = counts
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(run.args))
    latency = [statistics.median(times) for times in zip(*reps)]
    cuts = statistics.quantiles(latency, n=10, method="inclusive")
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_ms": cuts[4] * 1e3,
        "job_p90_ms": cuts[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {
        "repetitions": len(walls),
        "repetition_wall_s": walls,
        "jobs": len(latency),
        "jobs_beyond_p90": sum(1 for x in latency if x > cuts[8]),
        "setup_probe_s": setup,
        "stopped_early": run.stopped_early,
    }
    return metrics, metric_units("end_to_end"), counts0, detail


def measure_traced(run: Run) -> tuple:
    """Per-layer metrics from traced repetitions of the job list, each
    paired with an untraced repetition for the tracing overhead."""
    from layers import OVERHEAD, layer_values
    from spans import Tracer
    tracer = Tracer()
    n = run.repetitions(traced=True)
    untraced, traced, values, counts0 = [], [], [], None
    while len(traced) < n and run.fits(traced[-1] + untraced[-1] if traced else 0.0):
        wall, _, _ = run.repetition()
        untraced.append(wall)
        wall, _, counts = run.repetition(tracer)
        traced.append(wall)
        values.append(layer_values(tracer, counts))
        counts0 = counts0 or counts
    metrics = {name: statistics.median(v[name] for v in values)
               for name in values[0]}
    metrics[OVERHEAD] = statistics.median(traced) / statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (run.args.workload, run.args.seed))
    tracer.write(spans_path)
    detail = {
        "repetitions": len(traced),
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_dropped": tracer.dropped,
        "stopped_early": run.stopped_early,
    }
    return metrics, metric_units("per_layer"), counts0, detail


def report(args, metrics, unit_of, counts, detail, run) -> dict:
    env = environment()
    failed = len(run.failures)
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print("metric %-38s %14.6f %s" % (name, value, unit_of[name]))
    print("error_rate %.6f (%d of %d jobs failed their check)"
          % (failed / max(run.attempted, 1), failed, run.attempted))
    if args.trace == 0:
        print("samples %d jobs, each the median of %d repetitions; %d beyond p90"
              % (detail["jobs"], detail["repetitions"],
                 detail["jobs_beyond_p90"]))
    if run.stopped_early:
        print("stopped early: %d repetitions fitted before the safety stop"
              % detail["repetitions"])
    print("counts " + json.dumps(counts, sort_keys=True))
    for message in run.failures[:20]:
        print("FAILED: " + message, file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
        "error_rate": failed / max(run.attempted, 1),
        "counts": counts, "detail": detail, "failures": run.failures[:100],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treelike" / "__init__.py").is_file():
        print("perfbench: no treelike package at %s; run from a checkout of "
              "the repository" % (SRC / "treelike"), file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import workloads
    if args.setup_only:
        workloads.make_jobs(args.workload, args.seed)
        return 0
    run = Run(args, workloads.make_jobs)
    measured = measure_traced(run) if args.trace else measure(run)
    result = report(args, *measured, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
