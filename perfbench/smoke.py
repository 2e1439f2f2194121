"""Smoke test of the benchmark itself: one reduced-size pass per workload.

    python3 perfbench/smoke.py

Runs every workload at reduced size, untraced and traced, and checks the
record schema, the oracle checks and the tracer's invariants: each traced
job's summed self time is at most its wall time, spans nest inside their
parents, originals are restored after unwrapping, and a target that does not
exist is reported as absent rather than as zero.  Exit code 0 when all hold.
"""

from __future__ import annotations

import math
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import run  # noqa: E402  (run.py sits next to this file)


def check(cond: bool, what: str, failures: list) -> None:
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def check_spans(spans, jobs, failures) -> None:
    """Self times from the dumped spans: sum per job <= job wall; nesting."""
    child = [0.0] * len(spans)
    for name, job, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
            p = spans[parent]
            check(p[3] <= start and end <= p[4], f"span {name} nests in {p[0]}", failures)
    for j in jobs:
        if not j["traced"]:
            continue
        total = sum(s[4] - s[3] - c for s, c in zip(spans, child) if s[1] == j["k"])
        check(0.0 < total <= j["wall_s"], f"job {j['k']} self sum {total:.4f} <= wall "
              f"{j['wall_s']:.4f}", failures)


def check_absent(failures) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np
    from sectorial import numcore, semigroup
    from tracer import Target, Tracer

    original = numcore.pairwise_sum
    tr = Tracer("sectorial", [Target("numcore.pairwise_sum", "numcore.pairwise_sum"),
                              Target("contour._no_such_entry", "contour.gone")])
    tr.install()
    check(semigroup.pairwise_sum is numcore.pairwise_sum is not original,
          "every binding of a target is wrapped", failures)
    tr.job = 0
    numcore.pairwise_sum([np.ones(2)] * 3)
    tr.job = -1
    check(tr.uninstall() and numcore.pairwise_sum is original
          and semigroup.pairwise_sum is original, "originals restored", failures)
    check(tr.absent == ["contour._no_such_entry"], "missing target reported absent", failures)
    check(tr.counters == {"numcore.pairwise_sum.calls": 1}, "only armed calls count", failures)


def main() -> int:
    spec = run.load_spec()
    failures: list = []
    run.OUT.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            record = run.run_workload(name, seed=1, seconds=0, trace=trace, small=True)
            m = record["metrics"]
            wanted = spec["per_layer" if trace else "end_to_end"]
            for w in wanted:
                v = m.get(w["name"])
                check(isinstance(v, (int, float)) and math.isfinite(v),
                      f"{name} t{trace}: metric {w['name']} = {v!r}", failures)
            check(all(j["ok"] for j in record["jobs"]), f"{name} t{trace}: oracle checks",
                  failures)
            check(len(record["jobs"]) == 1 + trace, f"{name} t{trace}: job count", failures)
            env = record["environment"]["threads"]
            check(set(env.values()) == {"1"}, f"{name}: BLAS pinned {env}", failures)
            if trace:
                tr = record["trace"]
                check(tr["restored"] and tr["bindings"] > 0, f"{name}: restored", failures)
                check(not tr["absent"], f"{name}: absent targets {tr['absent']}", failures)
                check_spans(tr["spans"], record["jobs"], failures)
            print(f"ok {name} trace={trace}: {len(record['jobs'])} jobs, "
                  f"err max {m['check.oracle_err_max']:.1e}")
    check_absent(failures)
    print("smoke: PASS" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
