import ctypes
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla

from sectorial import forms, numcore
from sectorial.errors import NoConvergenceError, NotSectorialError, SectorViolationError

from conftest import rand_complex, rand_hermitian, rand_sectorial

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_split_hermitian_input(rng):
    h = rand_hermitian(rng, 5)
    hr, hi = forms.hermitian_split(h)
    assert np.allclose(hr, h, atol=1e-14)
    assert np.abs(hi).max() <= 1e-14


def test_split_antihermitian_input(rng):
    h = rand_hermitian(rng, 5)
    hr, hi = forms.hermitian_split(1j * h)
    assert np.abs(hr).max() <= 1e-14
    assert np.allclose(hi, h, atol=1e-14)


def test_split_nilpotent_explicit():
    hr, hi = forms.hermitian_split(NILPOTENT)
    assert np.allclose(hr, [[0.0, 0.5], [0.5, 0.0]], atol=0)
    assert np.allclose(hi, [[0.0, -0.5j], [0.5j, 0.0]], atol=0)


def test_split_reassembles(rng):
    t = rand_complex(rng, 6)
    hr, hi = forms.hermitian_split(t)
    assert np.abs(hr + 1j * hi - t).max() <= 1e-15 * np.abs(t).max()


def test_adjoint_involution(rng):
    t = rand_complex(rng, 4)
    assert np.array_equal(forms.adjoint_form(forms.adjoint_form(t)), t)
    h = rand_hermitian(rng, 4)
    assert np.allclose(forms.adjoint_form(h), h, atol=1e-14)
    assert np.array_equal(forms.adjoint_form(1j * np.eye(2)), -1j * np.eye(2))


def test_range_identity_is_point():
    b = forms.numerical_range(np.eye(3), 16)
    assert np.abs(b.points - 1.0).max() <= 1e-12
    assert b.is_convex()


def test_range_nilpotent_is_half_disk():
    b = forms.numerical_range(NILPOTENT, 256)
    assert abs(np.abs(b.points).max() - 0.5) <= 1e-8
    assert abs(np.abs(b.points).min() - 0.5) <= 1e-8
    assert b.is_convex()


def test_range_hermitian_is_real_segment():
    b = forms.numerical_range(np.diag([0.0, 1.0]), 64)
    assert np.abs(b.points.imag).max() <= 1e-12
    assert b.points.real.min() == pytest.approx(0.0, abs=1e-12)
    assert b.points.real.max() == pytest.approx(1.0, abs=1e-12)


def test_range_requires_enough_nodes():
    with pytest.raises(ValueError):
        forms.numerical_range(np.eye(2), 4)


def _full_eigh_sweep(t, m):
    """Reference sweep: full eigh of (e^{-i phi} T + e^{i phi} T*)/2 at each angle."""
    points, support = np.empty(m, dtype=complex), np.empty(m)
    for k in range(m):
        rot = np.exp(-2j * math.pi * k / m) * t
        w, v = sla.eigh((rot + rot.conj().T) / 2.0)
        points[k], support[k] = v[:, -1].conj() @ t @ v[:, -1], w[-1]
    return points, support


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_range_matches_full_eigh_sweep(n):
    t = rand_complex(np.random.default_rng([11, n]), n)
    b = forms.numerical_range(t, 48)
    points, support = _full_eigh_sweep(t, 48)
    assert np.abs(b.support - support).max() <= 1e-13 * max(1.0, np.linalg.norm(t, 2))
    assert np.abs(b.points - points).max() <= 1e-12


@pytest.mark.parametrize("t, value", [(np.eye(3), 1.0), (np.zeros((3, 3)), 0.0)])
def test_range_degenerate_top_is_the_point(t, value):
    # every direction's top eigenvalue has multiplicity 3; any top vector works
    b = forms.numerical_range(t, 64)
    assert np.abs(b.points - value).max() <= 1e-12
    assert np.abs(b.support - value * np.cos(b.angles)).max() <= 1e-12
    assert b.is_convex()


def test_range_segment_points_stay_on_segment():
    # diag(0, 1) at phi = +-pi/2: both eigenvalues of the hermitian part are
    # zero up to cos(pi/2) rounding, so the top vector may be either basis vector
    b = forms.numerical_range(np.diag([0.0, 1.0]), 64)
    vertical = np.isclose(np.abs(np.sin(b.angles)), 1.0)
    assert vertical.sum() == 2 and np.abs(b.support[vertical]).max() <= 1e-12
    assert np.abs(b.points.imag).max() <= 1e-12
    assert b.points.real.min() >= -1e-12 and b.points.real.max() <= 1.0 + 1e-12
    assert b.is_convex()


def _failing(step):
    """``step`` run as it is, then its info (the last argument) set to 1.

    A zhetrd workspace query (lwork, the ninth argument, at -1) is left to
    succeed, so the failure is that of a reduction."""
    reduces = step is forms.zhetrd

    def fail(*args):
        step(*args)
        if not reduces or ctypes.c_int.from_address(args[8]).value != -1:
            ctypes.c_int.from_address(args[-1]).value = 1
    return fail


def test_eigh_failure_is_no_convergence(monkeypatch):
    # a nonzero info from any LAPACK step of the eigen-helper is a typed failure;
    # require_range takes no eigenvectors, so it runs only the first two steps
    for routine in ("zhetrd", "dstebz", "dstein", "zunmqr"):
        with monkeypatch.context() as mp:
            mp.setattr(forms, routine, _failing(getattr(forms, routine)))
            with pytest.raises(NoConvergenceError, match=routine):
                forms.numerical_range(np.eye(2), 8)
            if routine in ("zhetrd", "dstebz"):
                with pytest.raises(NoConvergenceError, match=routine):
                    forms.Sector(vertex=0.0, half_angle=0.5).require_range(np.eye(2))


@pytest.mark.parametrize("routine", ["zhetrd", "dstebz", "dstein", "zunmqr"])
def test_worker_failure_reaches_the_caller(monkeypatch, routine):
    # fail only off the calling thread, which waits until a worker has made
    # the call, so the error must cross from a worker; no thread outlives the sweep
    caller, worker_called = threading.current_thread(), threading.Event()
    step = getattr(forms, routine)
    failing = _failing(step)

    def fail_off_caller(*args):
        if threading.current_thread() is caller:
            worker_called.wait(10.0)
            step(*args)
        else:
            failing(*args)
            if ctypes.c_int.from_address(args[-1]).value == 1:  # not a workspace query
                worker_called.set()

    monkeypatch.setattr(forms, "_cpu_count", lambda: 2)
    monkeypatch.setattr(forms, routine, fail_off_caller)
    threads = threading.active_count()
    with pytest.raises(NoConvergenceError, match=f"LAPACK {routine} returned info=1"):
        forms.numerical_range(np.eye(forms.THREAD_MIN_DIM), 16)
    assert worker_called.is_set()
    assert threading.active_count() == threads


def test_caller_failure_stops_the_workers(monkeypatch):
    # when the calling thread leaves the sweep, a worker ends after its current angle
    caller, worker_started, caller_left = threading.current_thread(), threading.Event(), threading.Event()
    worker_reductions = []
    zhetrd = forms.zhetrd

    def zhetrd_or_leave(*args):
        if ctypes.c_int.from_address(args[8]).value != -1:  # a reduction, not a workspace query
            if threading.current_thread() is caller:
                worker_started.wait(10.0)
                caller_left.set()
                raise RuntimeError("caller left")
            worker_started.set()
            caller_left.wait(10.0)
            time.sleep(0.05)  # time for the caller to unwind
            worker_reductions.append(1)
        zhetrd(*args)

    monkeypatch.setattr(forms, "_cpu_count", lambda: 2)
    monkeypatch.setattr(forms, "zhetrd", zhetrd_or_leave)
    with pytest.raises(RuntimeError, match="caller left"):
        forms.numerical_range(np.eye(forms.THREAD_MIN_DIM), 128)
    assert len(worker_reductions) == 1


@pytest.mark.parametrize("cpus, threads", [(8, 2), (1, 1)])
def test_sweep_threads_fit_the_workspace_bound(monkeypatch, cpus, threads):
    # at most SWEEP_WORKSPACE_BYTES of workspace, whatever the CPU count; each thread builds one _Reducer
    n = forms.THREAD_MIN_DIM
    reducers = []

    class Counted(forms._Reducer):
        def __init__(self, n):
            reducers.append(threading.get_ident())
            super().__init__(n)

    monkeypatch.setattr(forms, "_Reducer", Counted)
    monkeypatch.setattr(forms, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(forms, "SWEEP_WORKSPACE_BYTES", 2 * 32 * n * n + 1)
    forms.numerical_range(np.eye(n), 128)
    assert len(reducers) == len(set(reducers)) == threads
    monkeypatch.setattr(forms, "SWEEP_WORKSPACE_BYTES", 32 * n * n - 1)  # less than one thread's: still one
    reducers.clear()
    forms.numerical_range(np.eye(n), 128)
    assert len(reducers) == 1


def _exactly_hermitian(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2.0


ORACLE_CASES = {
    "non-normal": rand_complex(np.random.default_rng(21), 40),  # past the blocking size
    "hermitian": _exactly_hermitian(np.random.default_rng(22), 9),
    "nilpotent": NILPOTENT,
    "identity": np.eye(3, dtype=complex),  # both ends degenerate at every angle
    "diagonal": np.diag([1.0 + 2.0j, -0.5, 3.0 - 1.0j, 0.25j]),  # the tridiagonal splits
    "n=1": np.array([[0.3 - 0.7j]]),
    "n=2": rand_complex(np.random.default_rng(23), 2),
}


def _rotated(t, phi):
    tr, ti = forms.hermitian_split(t)
    return math.cos(phi) * tr + math.sin(phi) * ti


@pytest.mark.parametrize("m", [16, 17])
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_paired_sweep_matches_independent_oracle(name, m):
    t = ORACLE_CASES[name]
    n = t.shape[0]
    b = forms.numerical_range(t, m)
    tol = 1e-12 * max(1.0, np.linalg.norm(t, 2))
    top = np.array([np.linalg.eigvalsh(_rotated(t, phi))[-1] for phi in b.angles])  # zheevd
    assert np.abs(b.support - top).max() <= tol
    assert np.abs(np.real(np.exp(-1j * b.angles) * b.points) - b.support).max() <= tol
    # the angles that take the top end of their own reduction keep the bits of
    # a per-angle subset eigh; the bottom vectors only give the stacked product
    # T @ vecs the library's shape
    own = m // 2 if m % 2 == 0 else m
    support, vecs = np.empty(m), np.empty((n, m), dtype=complex)
    for k, phi in enumerate(b.angles[:own]):
        h = _rotated(t, phi)
        w, v = sla.eigh(h, subset_by_index=[n - 1, n - 1], check_finite=False)
        support[k], vecs[:, k] = w[0], v[:, 0]
        if own < m:
            vecs[:, k + own] = sla.eigh(h, subset_by_index=[0, 0], check_finite=False)[1][:, 0]
    points = np.einsum("ik,ik->k", vecs.conj(), t @ vecs)
    assert np.array_equal(b.support[:own], support[:own])
    assert np.array_equal(b.points[:own], points[:own])


@pytest.mark.parametrize("m, reductions", [(16, 8), (17, 17)])
def test_sweep_reduces_once_per_opposite_pair(monkeypatch, m, reductions):
    calls = []
    zhetrd = forms.zhetrd

    def counted(*args):  # n, unless lwork = -1 makes the call a workspace query
        if ctypes.c_int.from_address(args[8]).value != -1:
            calls.append(ctypes.c_int.from_address(args[1]).value)
        zhetrd(*args)

    monkeypatch.setattr(forms, "zhetrd", counted)

    def no_eigh(*args, **kwargs):
        raise AssertionError("forms called scipy.linalg.eigh")

    monkeypatch.setattr(sla, "eigh", no_eigh)
    t = rand_complex(np.random.default_rng(24), 6)
    forms.numerical_range(t, m)
    assert len(calls) == reductions
    del calls[:]
    forms.Sector(vertex=-100.0, half_angle=1.4).require_range(t)
    assert len(calls) == 3
    assert not hasattr(forms, "sla")


def test_zhetrd_workspace_is_queried_once_per_dimension(monkeypatch):
    queries = []
    zhetrd = forms.zhetrd

    def counted(*args):  # n of each workspace query (lwork, the ninth argument, at -1)
        if ctypes.c_int.from_address(args[8]).value == -1:
            queries.append(ctypes.c_int.from_address(args[1]).value)
        zhetrd(*args)

    monkeypatch.setattr(forms, "zhetrd", counted)
    monkeypatch.setattr(forms, "_ZHETRD_LWORK", {})
    sector = forms.Sector(vertex=-100.0, half_angle=1.4)
    for n in (7, 7, 5):
        t = rand_complex(np.random.default_rng(26), n)
        sector.require_range(t)
        sector.require_range(t)
        forms.numerical_range(t, 16)
    assert queries == [7, 5]


@pytest.mark.parametrize("m", [16, 17, 128])
@pytest.mark.parametrize("name", [*ORACLE_CASES, "sectorial n=128"])
def test_threaded_sweep_has_the_sequential_bits(monkeypatch, name, m):
    t = ORACLE_CASES.get(name)
    t = rand_sectorial(np.random.default_rng(25), 128) if t is None else t
    monkeypatch.setattr(forms, "THREAD_MIN_DIM", t.shape[0] + 1)
    sequential = forms.numerical_range(t, m)
    monkeypatch.setattr(forms, "THREAD_MIN_DIM", 1)
    interval, threads = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)  # frequent thread switches: an angle left unswept shows
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(forms, "_cpu_count", lambda: workers)
            b = forms.numerical_range(t, m)
            for field in ("angles", "points", "support"):
                assert np.array_equal(getattr(b, field), getattr(sequential, field)), (workers, field)
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


def test_range_convexity_random(rng):
    # Num t is convex for every matrix; check the sampled boundary on 100 cases
    for k in range(100):
        n = int(rng.integers(2, 33))
        t = rand_complex(rng, n)
        b = forms.numerical_range(t, 48)
        assert b.is_convex(1e-10), f"case {k} dim {n}"


def test_range_hermitian_min_is_lambda_min(rng):
    for _ in range(20):
        n = int(rng.integers(2, 16))
        h = rand_hermitian(rng, n, lo=-2.0, hi=3.0)
        b = forms.numerical_range(h, 64)
        lam = numcore.eig_oracle(h).eigenvalues.real.min()
        assert abs(b.points.real.min() - lam) <= 1e-8


def test_range_contains_spectrum(rng):
    for _ in range(30):
        n = int(rng.integers(2, 33))
        t = rand_complex(rng, n)
        b = forms.numerical_range(t, 256)
        spec = numcore.eig_oracle(t).eigenvalues
        assert b.encloses(spec, slack=1e-7)


def test_fit_sector_positive_diagonal():
    # a real segment [a, b] gets vertex a - (b - a): [0, 1] gets -1, not the
    # vertex 0 that has the same aperture 0
    for diag, vertex in (([1.0, 2.0], 0.0), ([0.0, 1.0], -1.0)):
        sec = forms.fit_sector(forms.numerical_range(np.diag(diag), 64), margin=0.05)
        assert sec.vertex == vertex
        assert sec.half_angle == pytest.approx(0.05, abs=1e-9)


def _aperture(points, c):
    return float(np.arctan2(np.abs(points.imag), points.real - c).max())


SECTORIAL_CASES = [(s, n) for s in range(40) for n in (4, 8)]


@pytest.mark.parametrize("seed, n", SECTORIAL_CASES)
def test_fit_sector_is_the_left_end(seed, n):
    # every point's angle shrinks as the vertex moves left, so the fit is the
    # left end of [min Re - spread, min Re], exactly
    b = forms.numerical_range(rand_sectorial(np.random.default_rng(seed), n), 128)
    pts = b.points
    sec = forms.fit_sector(b, margin=0.05)
    assert sec.vertex == pts.real.min() - np.ptp(pts.real)
    aperture = _aperture(pts, sec.vertex)
    assert sec.half_angle == aperture + 0.05
    for c in np.linspace(sec.vertex, pts.real.min(), 9)[1:]:
        assert _aperture(pts, c) > aperture


def test_fit_sector_rotated_segment():
    # segment on the 45-degree ray: leftmost searchable vertex needs exactly pi/4
    t = np.exp(1j * math.pi / 4) * np.diag([1.0, 2.0])
    sec = forms.fit_sector(forms.numerical_range(t, 128), margin=0.02)
    assert math.pi / 4 <= sec.half_angle < math.pi / 2
    assert sec.half_angle == pytest.approx(math.pi / 4 + 0.02, abs=1e-6)
    assert sec.contains(np.exp(1j * math.pi / 4) * np.array([1.0, 2.0]), slack=1e-9)


def test_fit_sector_imaginary_axis_fails():
    t = 1j * np.diag([1.0, 2.0])
    with pytest.raises(NotSectorialError):
        forms.fit_sector(forms.numerical_range(t, 64), margin=0.05)


def test_fit_sector_contains_boundary():
    for seed, n in SECTORIAL_CASES:
        b = forms.numerical_range(rand_sectorial(np.random.default_rng(seed), n), 128)
        sec = forms.fit_sector(b, margin=0.05)
        assert sec.contains(b.points, slack=1e-9), (seed, n)


def test_sector_geometry():
    sec = forms.Sector(vertex=0.0, half_angle=math.pi / 4)
    assert sec.contains([1.0 + 0.5j, 2.0])
    assert not sec.contains([-1.0])
    assert not sec.contains([0.1 + 1.0j])


def test_require_range_zero_half_angle_needs_vertex_normal():
    # at half_angle 0 the two edge half-planes alone admit Re z < vertex
    sec = forms.Sector(vertex=0.5, half_angle=0.0)
    with pytest.raises(SectorViolationError, match="past the vertex: excess 3.0"):
        sec.require_range(np.diag([0.2, 1.0]))
    sec.require_range(np.diag([1.0, 2.0]))


def test_require_range_is_exact_between_sweep_angles():
    # Num T is the disk |z - 1| <= 1/2; the wedge's edges cut it by 5e-5 at
    # normals halfway between two of 128 sweep angles, where every sampled
    # boundary point still lies inside the wedge
    t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    theta = 2.0 * math.pi * 42.5 / 128 - math.pi / 2
    cut = forms.Sector(1.0 - 0.49995 / math.sin(theta), theta)
    assert cut.contains(forms.numerical_range(t, 128).points, slack=1e-9)
    with pytest.raises(SectorViolationError, match="past the upper edge: excess 5.0000"):
        cut.require_range(t)
    forms.Sector(1.0 - 0.50005 / math.sin(theta), theta).require_range(t)


def test_hull_distance_matches_known_cases():
    b = forms.numerical_range(np.diag([0.0, 1.0]), 256)
    assert b.hull_distance(-1.0) == pytest.approx(1.0, abs=1e-10)
    assert b.hull_distance(0.5 + 2.0j) == pytest.approx(2.0, abs=1e-4)
    assert b.hull_distance(0.5) == 0.0
