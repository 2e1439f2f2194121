"""One workload in one fresh process; started by run.py, not by hand.

The parent pins OPENBLAS_NUM_THREADS / OMP_NUM_THREADS to 1 in this
process's environment; that must happen before numpy is imported, so this
module checks it before importing anything numerical.  The library is
imported from ``src/`` of the checkout this file sits in.

Writes one JSON record (``--out``) holding set-up timestamps, every job's
wall time and oracle errors, peak RSS and, when traced, per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def layer_targets():
    """Library entry points wrapped by the tracer, with their count hooks."""
    from tracer import Target

    def angles(tr, a):
        tr.add("forms.numrange_angles", a["m"])

    def batch(tr, a):
        m, n = len(a["rule"].nodes), a["a"].shape[0]
        tr.add("contour.nodes", m)
        tr.log("contour.nodes", m)
        tr.peak("contour.batch_bytes_max", 16 * m * n * n)

    def terms(tr, a):
        a["terms"] = list(a["terms"])
        tr.add("numcore.pairwise_terms", len(a["terms"]))

    plain = ["forms.numerical_range", "forms.fit_sector", "numcore.eigvals_oracle",
             "numcore.eig_oracle", "numcore.solve", "semigroup.emap",
             "schrodinger.family", "eigenstate.track_eigenvalue",
             "eigenstate.rank_one_decompose", "resolvent.rmap",
             "resolvent.neumann_resolvent", "rigging.make_h_plus",
             "holocheck.cauchy_residual"]
    hooks = {"forms.numerical_range": angles, "numcore.pairwise_sum": terms}
    out = [Target(p, p, hooks.get(p)) for p in plain + ["numcore.pairwise_sum"]]
    out += [Target(p, "contour.rule") for p in (
        "contour.Circle.rule", "contour.Polyline.rule", "contour.SectorBoundary.rule",
        "contour.adapted_sector_boundary")]
    out += [Target("contour._resolvent_nodes", "contour.resolvent_batch", batch),
            Target("contour._check_clearance", "contour.checks"),
            Target("cli.run", "cli")]
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    return {"threads": {k: os.environ.get(k) for k in PINNED},
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(np), "openblas_scipy": blas(scipy)}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    v = sorted(values)
    x = (len(v) - 1) * p / 100.0
    lo = int(x)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (x - lo)


def job_metrics(jobs) -> dict:
    """End-to-end figures of the untraced jobs, plus the latency distribution."""
    walls = [j["wall_s"] for j in jobs if not j["traced"]]
    ok = [j for j in jobs if not j["traced"] and j["ok"]]
    failed = sum(not j["ok"] for j in jobs)
    # highest percentile with at least ten samples beyond it
    tail = next(({"p": p, "value_s": percentile(walls, p), "beyond": int(len(walls) * (100 - p) / 100)}
                 for p in (99.9, 99, 95, 90, 75, 50) if len(walls) * (100 - p) / 100 >= 10), None)
    errs = [e for j in jobs for _, e, _ in j["checks"]]
    return {"job_p50_s": percentile(walls, 50), "jobs_per_s": len(ok) / sum(walls),
            "fail_frac": failed / len(jobs), "latency": {"samples": len(walls), "tail": tail,
            "min_s": min(walls), "max_s": max(walls)},
            "check.oracle_err_max": max(errs) if errs else None}


def layer_metrics(tracer, jobs) -> dict:
    """Per traced job: self time and calls of every wrapped layer, and counters."""
    traced = [j["wall_s"] for j in jobs if j["traced"]]
    untraced = [j["wall_s"] for j in jobs if not j["traced"]]
    n = len(traced)
    present = {t.span for t in tracer.targets if t.path not in tracer.absent}
    self_s = tracer.self_times()
    out = {}
    for span in sorted(present):
        out[f"{span}.self_s"] = self_s.get(span, 0.0) / n
        out[f"{span}.calls"] = tracer.counters.get(f"{span}.calls", 0) / n
    for name in ("forms.numrange_angles", "contour.nodes", "numcore.pairwise_terms",
                 "cli.bytes_written"):
        out[name] = tracer.counters.get(name, 0) / n
    if "contour.resolvent_batch" in present:
        out["contour.batches"] = out["contour.resolvent_batch.calls"]
        out["contour.batch_bytes_max"] = tracer.maxima.get("contour.batch_bytes_max", 0)
    out["trace.overhead_frac"] = percentile(traced, 50) / percentile(untraced, 50) - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the smoke test")
    ap.add_argument("--min-jobs", type=int, default=1)
    args = ap.parse_args(argv)

    unpinned = [k for k in PINNED if os.environ.get(k) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"worker: {unpinned or PINNED} must be 1 before numpy is imported",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sectorial
    from sectorial.errors import NumericalFailure
    from workloads import WORKLOADS
    if not Path(sectorial.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: sectorial imported from {sectorial.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    imported = time.monotonic()

    cls = WORKLOADS[args.workload]
    workdir = Path(args.out).with_suffix(".work")
    # the one warm-up: a reduced-size job loads LAPACK kernels and touches every path
    warm = cls(args.seed, True, workdir / "warm")
    warm.job(warm.make_input(0))
    warm.close()
    wl = cls(args.seed, args.small, workdir / "run")
    ready = time.monotonic()
    record = {"workload": args.workload, "seed": args.seed, "imported": imported,
              "ready": ready, "environment": environment(), "inputs": wl.describe()}
    if args.setup_only:
        wl.close()
        Path(args.out).write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer("sectorial", layer_targets())
        tracer.install()
    jobs = []
    window = time.monotonic()
    while len(jobs) < args.min_jobs or time.monotonic() - window < args.seconds:
        k = len(jobs)
        inp = wl.make_input(k)
        # a traced run alternates untraced and traced jobs, for the overhead
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.job = k
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.job(inp)
        except NumericalFailure as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if traced:
            for name, value in wl.counts(inp).items():
                tracer.add(name, value)
            tracer.job = -1
        checks = [] if out is None else [[n, float(e), t] for n, e, t in wl.check(inp, out)]
        ok = error is None and all(e <= t for _, e, t in checks)
        jobs.append({"k": k, "traced": traced, "wall_s": wall, "ok": ok,
                     "error": error, "checks": checks,
                     "note": {} if out is None else wl.note(out)})
    wl.close()
    record["jobs"] = jobs
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        bindings = tracer.bindings()
        traced_jobs = sum(j["traced"] for j in jobs)
        record["trace"] = {
            "bindings": bindings, "restored": tracer.uninstall(),
            "absent": tracer.absent, "traced_jobs": traced_jobs,
            "self_s": tracer.self_times(), "counters": tracer.counters,
            "maxima": tracer.maxima,
            "derived": wl.derived(tracer, max(traced_jobs, 1)),
            "spans": tracer.dump()}
    record["metrics"] = job_metrics(jobs)
    if tracer is not None:
        record["metrics"].update(layer_metrics(tracer, jobs))
    Path(args.out).write_text(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
