"""Benchmark of the sectorial library: three workloads, timed end to end and
traced layer by layer from outside the library.

    python3 perfbench/run.py --workload thermal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, seed 1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Each workload runs in a fresh process with OpenBLAS pinned to one
thread.  ``--trace 0`` times every job with tracing off and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
prints the per-layer metrics.  Both check every job against its oracle.
The metric names and units printed on the last line come from
BENCHMARK.json; the full run record goes to ``perfbench/out/``.
Default seed 1; use seed 2 to re-check a claim on inputs not used while
writing it.  Exit code 0 on success, 2 when the checkout has no library or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("thermal", "lattice", "cli-suite")
SETUP_RUNS = 7          # set-up is measured this many times, median reported
DEADLINE_S = 170        # all workers of one workload end within this


def spawn(workload: str, seed: int, seconds: float, trace: int, tag: str,
          deadline: float, extra=()) -> tuple[dict, float]:
    """Run one worker process; returns its record and its spawn timestamp."""
    out = OUT / f"{workload}-s{seed}-t{trace}-{tag}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, timeout=max(deadline - spawned, 1.0), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{tag} exited with {proc.returncode}")
    record = json.loads(out.read_text())
    out.unlink()
    return record, spawned


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 small: bool = False) -> dict:
    extra = ["--small"] if small else []
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def probe(i):
        rec, spawned = spawn(workload, seed, seconds, trace, f"setup{i}", deadline,
                             extra + ["--setup-only"])
        setups.append(rec["ready"] - spawned)

    # machine speed drifts over seconds, so the set-up probes straddle the run
    for i in range(SETUP_RUNS // 2):
        probe(i)
    min_jobs = ["--min-jobs", "2"] if trace else []
    record, spawned = spawn(workload, seed, seconds, trace, "run", deadline,
                            extra + min_jobs)
    setups.append(record["ready"] - spawned)
    for i in range(SETUP_RUNS // 2, SETUP_RUNS - 1):
        probe(i)
    record["setup_runs_s"] = setups
    record["metrics"]["setup_s"] = statistics.median(setups)
    record["metrics"]["peak_rss_mb"] = record["peak_rss_mb"]
    return record


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring window per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sectorial" / "__init__.py").is_file():
        print(f"run.py: no library at {ROOT / 'src' / 'sectorial'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        path = OUT / f"{name}-s{args.seed}-t{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str))
        m = record["metrics"]
        jobs = record["jobs"]
        failed = sum(not j["ok"] for j in jobs)
        for j in jobs:
            if not j["ok"]:
                print(f"{name}: job {j['k']} failed: {j['error'] or j['checks']}")
        print(f"{name}: {len(jobs)} jobs, {failed} failed, fail_frac {m['fail_frac']:.3f}, "
              f"latency {m['latency']}")
        numbers = {k: v for k, v in m.items() if isinstance(v, (int, float))}
        for key in sorted(numbers):
            print(f"  {name} {key} = {numbers[key]:.6g}")
        absent = [w["name"] for w in wanted if w["name"] not in numbers]
        if absent:
            print(f"  {name} absent: {', '.join(absent)}")
        metrics = {w["name"]: {"value": numbers[w["name"]], "unit": w["unit"]}
                   for w in wanted if w["name"] in numbers}
        results[name] = {"correct": failed == 0, "attempted": len(jobs),
                         "failed": failed, "metrics": metrics}
        print(f"  record: {path.relative_to(ROOT)}")

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
