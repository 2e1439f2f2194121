"""The benchmark's tracer (perfbench/tracer.py) wraps library entry points by
name and reads some of their arguments; a refactor that renames one or
changes its arguments leaves the tracer reporting nothing, without an error.
These tests read the benchmark's own target list and check it against the
library, without changing anything under perfbench/."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from sectorial import contour
from sectorial.contour import Circle, riesz_projection

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# deleted with the graded sector-boundary rule; the benchmark still lists them
GONE = {"contour.SectorBoundary.rule", "contour.adapted_sector_boundary"}


@pytest.fixture
def bench(monkeypatch):
    """perfbench's worker and tracer modules, importable for one test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker"), importlib.import_module("tracer")


def resolves(path: str) -> bool:
    """Whether ``module.attr`` or ``module.Class.method`` below the package
    exists, looked up the way the tracer looks it up."""
    owner_path, _, attr = path.rpartition(".")
    module_name, _, cls_name = owner_path.partition(".")
    try:
        owner = importlib.import_module(f"sectorial.{module_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_benchmark_target_still_resolves(bench):
    worker, _ = bench
    absent = {t.path for t in worker.layer_targets() if not resolves(t.path)}
    assert absent <= GONE, sorted(absent - GONE)


def traced_riesz(worker, tracer_mod, a):
    """The tracer's counters and maxima over one riesz_projection of ``a``."""
    tracer = tracer_mod.Tracer("sectorial", worker.layer_targets())
    tracer.install()
    try:
        tracer.job = 0
        riesz_projection(a, Circle(0.0, 1.0, 64))
        tracer.job = -1
    finally:
        assert tracer.uninstall()
    return tracer.counters, tracer.maxima


def test_resolvent_batch_keeps_the_arguments_the_tracer_reads(bench):
    assert list(inspect.signature(contour._resolvent_nodes).parameters) == ["a", "rule"]
    # not hermitian: the Schur form is not diagonal, so the pass solves every node
    counters, maxima = traced_riesz(*bench, np.array([[0.0, 1.0], [0.0, 5.0]]))
    assert counters["contour.nodes"] == 64
    assert counters["contour.checks.calls"] == 1
    assert maxima["contour.batch_bytes_max"] == 16 * 32 * 2 * 2


def test_hermitian_riesz_forms_no_resolvent_batch(bench):
    counters, maxima = traced_riesz(*bench, np.diag([0.0, 5.0]))
    assert counters.get("contour.nodes", 0) == 0
    assert "contour.batch_bytes_max" not in maxima
    assert counters["contour.checks.calls"] == 1
