import itertools
import sys
import threading

import numpy as np
import pytest

from sectorial import eigenstate as eg, numcore, schrodinger as sch
from sectorial.contour import Circle, riesz_projection
from sectorial.errors import IsolationLostError, NoConvergenceError, RankNotOneError

from conftest import (count_decompositions, exchanged, failing_decomposition, lattice_problem,
                      lattice_ramp_end, rand_complex, rand_hermitian)


def test_decompose_orthogonal_projector():
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = 1.0
    pair = eg.rank_one_decompose(p)
    assert np.allclose(pair.phi, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(pair.eta, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.outer(pair.phi, pair.eta.conj()), p, atol=1e-12)


def test_decompose_oblique_projector():
    p = np.array([[1.0, -0.5], [0.0, 0.0]], dtype=complex)
    pair = eg.rank_one_decompose(p)
    assert abs(pair.eta.conj() @ pair.phi - 1.0) <= 1e-12
    assert np.linalg.norm(pair.phi) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.outer(pair.phi, pair.eta.conj()), p, atol=1e-10)
    k = pair.pin
    assert pair.phi[k].imag == pytest.approx(0.0, abs=1e-12)
    assert pair.phi[k].real > 0


def test_decompose_rejects_higher_rank():
    with pytest.raises(RankNotOneError):
        eg.rank_one_decompose(np.eye(2))


def test_decompose_random_rank_one(rng):
    for _ in range(10):
        phi = rand_complex(rng, 6, 1).ravel()
        phi /= np.linalg.norm(phi)
        eta = phi + 0.2 * rand_complex(rng, 6, 1).ravel()
        eta /= np.conj(eta.conj() @ phi)
        p = np.outer(phi, eta.conj())
        pair = eg.rank_one_decompose(p)
        assert np.linalg.norm(np.outer(pair.phi, pair.eta.conj()) - p, 2) <= 1e-8


def test_track_constant_path():
    fam = lambda s: np.diag([0.0, 1.0]).astype(complex)
    pts = eg.track_eigenvalue(fam, [0.0, 0.5, 1.0], Circle(0.0, 0.3, 128))
    assert all(abs(p.energy) <= 1e-12 for p in pts)
    assert all(p.gap == pytest.approx(1.0, abs=1e-12) for p in pts)


def test_track_linear_drift():
    fam = lambda s: np.diag([0.1 * s, 1.0]).astype(complex)
    svals = np.linspace(0.0, 1.0, 11)
    pts = eg.track_eigenvalue(fam, svals, Circle(0.0, 0.3, 128), s_values=svals)
    for s, p in zip(svals, pts):
        assert p.energy == pytest.approx(0.1 * s, abs=1e-12)
    rows = eg.track_to_rows(pts)
    assert rows[3]["s"] == pytest.approx(0.3)
    assert rows[3]["repinned"] == 0


def test_track_schrodinger_ramp_matches_oracle():
    g = sch.Grid(d=1, n=8, delta=1.0)
    space = sch.ManyBodySpace(grid=g, particles=1)
    u0 = 1.0 + np.cos(2 * np.pi * np.arange(8) / 8)
    base = sch.FieldConfig.zero(g, u0=u0)
    direction = sch.delta_u(g, 3)
    fam = lambda s: sch.family(g, space, base + float(s) * direction)
    spec0 = numcore.eig_oracle(fam(0.0)).eigenvalues
    gap = abs(spec0[1] - spec0[0])
    svals = np.linspace(0.0, 0.5, 11)
    pts = eg.track_eigenvalue(fam, svals, Circle(complex(spec0[0]), 0.4 * gap, 128),
                              s_values=svals)
    for s, p in zip(svals, pts):
        oracle = numcore.eig_oracle(fam(s)).eigenvalues
        nearest = oracle[np.argmin(np.abs(oracle - p.energy))]
        assert abs(p.energy - nearest) <= 1e-8


def test_track_isolation_lost(monkeypatch):
    # eigenvalues collide at s = 1
    fam = lambda s: np.diag([0.0, 1.0 - s]).astype(complex)
    svals = np.linspace(0.0, 1.0, 21)
    monkeypatch.setattr(eg, "GAP_FLOOR", 0.2)
    with pytest.raises(IsolationLostError):
        eg.track_eigenvalue(fam, svals, Circle(0.0, 0.25, 128), s_values=svals)


def test_track_phase_continuity_and_eta_equals_phi(rng):
    h0 = rand_hermitian(rng, 6, lo=0.0, hi=3.0)
    h1 = rand_hermitian(rng, 6, lo=-0.2, hi=0.2)
    fam = lambda s: h0 + s * h1
    spec0 = numcore.eig_oracle(h0).eigenvalues
    gap = abs(spec0[1] - spec0[0])
    svals = np.linspace(0.0, 1.0, 9)
    pts = eg.track_eigenvalue(fam, svals, Circle(complex(spec0[0]), 0.4 * gap, 128),
                              s_values=svals)
    for prev, cur in zip(pts, pts[1:]):
        if not cur.repinned:
            # continuous phase: successive states overlap positively
            assert (prev.pair.phi.conj() @ cur.pair.phi).real > 0.5
    for p in pts:
        assert np.linalg.norm(p.pair.eta - p.pair.phi) <= 1e-8  # hermitian family


def test_hf_diagonal_family():
    fam = lambda p: np.diag([1.0 + p[0], 3.0]).astype(complex)
    val = eg.hellmann_feynman(fam, np.zeros(1), np.array([1.0]),
                              Circle(1.0, 0.5, 128))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_hf_hermitian_family_real(rng):
    h0 = rand_hermitian(rng, 5, lo=0.5, hi=3.0)
    dh = rand_hermitian(rng, 5, lo=-1.0, hi=1.0)
    fam = lambda p: h0 + p[0] * dh
    spec = numcore.eig_oracle(h0).eigenvalues
    gap = abs(spec[1] - spec[0])
    val = eg.hellmann_feynman(fam, np.zeros(1), np.array([1.0]),
                              Circle(complex(spec[0]), 0.4 * gap, 128))
    assert abs(val.imag) <= 1e-10


def test_hf_matches_tracked_finite_difference(rng):
    g = sch.Grid(d=1, n=8, delta=1.0)
    space = sch.ManyBodySpace(grid=g, particles=1)
    base = sch.FieldConfig.zero(g, u0=1.0 + np.cos(2 * np.pi * np.arange(8) / 8))
    dirs = [sch.delta_u(g, 2), sch.delta_a(g, 0, (5,))]
    fam, dfam = sch.config_family(g, space, base, dirs)
    spec = numcore.eig_oracle(fam(np.zeros(2))).eigenvalues
    gap = abs(spec[1] - spec[0])
    c = Circle(complex(spec[0]), 0.4 * gap, 128)
    w = np.array([0.7, 0.4])
    val = eg.hellmann_feynman(fam, np.zeros(2), w, c, dfamily=dfam)
    eps = 1e-5
    e_plus = numcore.eig_oracle(fam(eps * w)).eigenvalues[0]
    e_minus = numcore.eig_oracle(fam(-eps * w)).eigenvalues[0]
    fd = (e_plus - e_minus) / (2 * eps)
    assert abs(val - fd) <= 1e-5 * max(1.0, abs(fd))


def test_hf_default_differencing_is_exact_for_polynomial_families(rng):
    g = sch.Grid(d=1, n=6, delta=1.0)
    space = sch.ManyBodySpace(grid=g, particles=1)
    base = sch.FieldConfig.zero(g, u0=1.0 + np.cos(2 * np.pi * np.arange(6) / 6))
    dirs = [sch.delta_a(g, 0, (1,))]
    fam, dfam = sch.config_family(g, space, base, dirs)
    spec = numcore.eig_oracle(fam(np.zeros(1))).eigenvalues
    gap = abs(spec[1] - spec[0])
    c = Circle(complex(spec[0]), 0.4 * gap, 128)
    w = np.array([1.0])
    with_analytic = eg.hellmann_feynman(fam, np.zeros(1), w, c, dfamily=dfam)
    with_default = eg.hellmann_feynman(fam, np.zeros(1), w, c)
    assert abs(with_analytic - with_default) <= 1e-9


def test_projection_derivative_orthogonality(rng):
    # Tr((dP/ds) A) = 0 for any A commuting with P
    h0 = rand_hermitian(rng, 6, lo=0.5, hi=3.0)
    dh = rand_hermitian(rng, 6, lo=-1.0, hi=1.0)
    fam = lambda s: h0 + s * dh
    spec = numcore.eig_oracle(h0).eigenvalues
    gap = abs(spec[1] - spec[0])
    c = Circle(complex(spec[0]), 0.4 * gap, 128)
    eps = 1e-5
    dp = (riesz_projection(fam(eps), c) - riesz_projection(fam(-eps), c)) / (2 * eps)
    p0 = riesz_projection(fam(0.0), c)
    for a in (p0, fam(0.0), fam(0.0) @ p0):
        assert abs(np.trace(dp @ a)) <= 1e-6 * np.linalg.norm(a, 2)


def test_eigenstate_density_well_peak_and_hf_match():
    g = sch.Grid(d=1, n=8, delta=1.0)
    space = sch.ManyBodySpace(grid=g, particles=1)
    u0 = np.full(8, 1.0)
    u0[3] = 0.0  # attractive well at site 3
    cfg = sch.FieldConfig.zero(g, u0=u0)
    h = sch.family(g, space, cfg)
    spec = numcore.eig_oracle(h).eigenvalues
    gap = abs(spec[1] - spec[0])
    c = Circle(complex(spec[0]), 0.4 * gap, 128)
    rho, current = eg.eigenstate_density(g, space, cfg, c)
    flat = rho.real.reshape(-1)
    assert flat.argmax() == 3
    assert np.abs(current).max() <= 1e-10
    # per-site Hellmann-Feynman: dE/du_j = rho_j * delta^d
    eps = 1e-5
    for j in range(8):
        d = sch.delta_u(g, j)
        ep = numcore.eig_oracle(sch.family(g, space, cfg + eps * d)).eigenvalues[0]
        em = numcore.eig_oracle(sch.family(g, space, cfg + (-eps) * d)).eigenvalues[0]
        fd = (ep - em).real / (2 * eps)
        assert abs(flat[j] - fd) <= 1e-6


def test_monodromy_reporting_closed_loop(rng):
    # contractible loop in a hermitian family returns to the start
    h0 = rand_hermitian(rng, 5, lo=0.5, hi=3.0)
    dh = rand_hermitian(rng, 5, lo=-0.3, hi=0.3)
    svals = np.concatenate([np.linspace(0, 1, 6), np.linspace(1, 0, 6)[1:]])
    fam = lambda s: h0 + s * dh
    spec = numcore.eig_oracle(h0).eigenvalues
    gap = abs(spec[1] - spec[0])
    pts = eg.track_eigenvalue(fam, svals, Circle(complex(spec[0]), 0.4 * gap, 128),
                              s_values=svals)
    assert abs(pts[-1].energy - pts[0].energy) <= 1e-10


# -- the next point decomposed on a second thread (numcore.schur_ahead) -------

def closing_ramp(n, close=0.0):
    """family(s) = Q diag(0, 1 - close * s, 2, ...) Q* + s K: exactly hermitian
    at s = 0 (``zheevd``), non-normal for s > 0 (``zgees``), with its ground
    state isolated by 1 - close * s, less a perturbation of norm 0.01."""
    rng = np.random.default_rng(40 + n)
    q = np.linalg.qr(rand_complex(rng, n))[0]
    rest = np.linspace(2.0, 4.0, n - 2)
    k = rand_complex(rng, n)
    k *= 0.01 / np.linalg.norm(k, 2)

    def family(s):
        h = q @ np.diag(np.concatenate([[0.0, 1.0 - close * s], rest])) @ q.conj().T
        return (h + h.conj().T) / 2 + s * k
    return family


PATH = [0.0, 0.5, 1.0]
C0 = Circle(0.0, 0.3, 128)


def tracked_bits(points):
    return [(p.index, p.s, p.energy, p.gap, p.repinned, p.pair.pin, p.pair.phi.tobytes(),
             p.pair.eta.tobytes()) for p in points]


@pytest.mark.parametrize("n", [12, 64])
def test_prefetched_tracking_has_the_serial_bits(monkeypatch, n):
    family = closing_ramp(n)
    monkeypatch.setattr(eg, "schur_ahead", iter)  # the serial loop: each matrix as the family gives it
    serial = tracked_bits(eg.track_eigenvalue(family, PATH, C0))
    monkeypatch.undo()
    numcore.drop_schur_memo()
    caller, off_caller = threading.current_thread(), []
    zgees = numcore.zgees

    def noted(*args):
        off_caller.append(threading.current_thread() is not caller)
        zgees(*args)
    monkeypatch.setattr(numcore, "zgees", noted)
    interval, threads = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)  # frequent thread switches: a step reading a half-made entry shows
    try:
        ahead = tracked_bits(eg.track_eigenvalue(family, PATH, C0))
    finally:
        sys.setswitchinterval(interval)
    assert ahead == serial
    assert threading.active_count() == threads
    assert any(off_caller)  # the ramp points' zgees run off the calling thread (their workspace queries on it)


def test_prefetched_tracking_of_an_exchange_symmetric_family_has_the_serial_bits(monkeypatch):
    # each point decomposed in its two exchange blocks, ahead on the second thread or in the serial loop
    s, rng = 8, np.random.default_rng(48)
    u = np.linalg.qr(rand_complex(rng, s))[0]
    e = np.concatenate([[0.0, 1.0], np.linspace(1.5, 3.0, s - 2)])
    uu = np.kron(u, u)  # commutes with the exchange, so H0 does: two particles of levels e
    h0 = uu @ np.diag(np.add.outer(e, e).ravel()) @ uu.conj().T
    h0 = (h0 + h0.conj().T) / 2
    k = rand_complex(rng, s * s)
    k *= 0.01 / np.linalg.norm(k, 2)

    def family(x):  # exchange-symmetric bit for bit, and exactly hermitian at x = 0
        h = h0 + x * k
        return (h + exchanged(h, s)) / 2
    assert all(numcore._exchange_view(family(x)) is not None for x in PATH)
    with monkeypatch.context() as patch:
        patch.setattr(eg, "schur_ahead", iter)
        serial = tracked_bits(eg.track_eigenvalue(family, PATH, C0))
    numcore.drop_schur_memo()
    calls = count_decompositions(monkeypatch)
    threads = threading.active_count()
    assert tracked_bits(eg.track_eigenvalue(family, PATH, C0)) == serial
    assert sorted(kind for kind, _ in calls) == ["eigh", "schur", "schur"]
    assert threading.active_count() == threads


def failing_third(monkeypatch, family, fail_on):
    """Track PATH with step 2's matrix failing: ``fail_on`` is "zgees" (info 1
    from its decomposition) or "family" (family_f(PATH[2]) raises)."""
    if fail_on == "zgees":  # step 1's decomposition is the first zgees, step 2's the second
        calls = itertools.count()
        monkeypatch.setattr(numcore, "zgees", failing_decomposition("zgees", lambda: next(calls) == 1))
        return eg.track_eigenvalue(family, PATH, C0)

    def raising(s):
        if s == PATH[2]:
            raise RuntimeError("no matrix at s = 1")
        return family(s)
    return eg.track_eigenvalue(raising, PATH, C0)


@pytest.mark.parametrize("fail_on", ["zgees", "family"])
def test_isolation_lost_at_a_step_wins_over_the_next_points_failure(monkeypatch, fail_on):
    family = closing_ramp(32, close=0.9)  # gaps 1, 0.55, 0.1
    threads = threading.active_count()
    expected = NoConvergenceError if fail_on == "zgees" else RuntimeError
    with monkeypatch.context() as patch:  # reached, step 2's failure is raised at step 2
        with pytest.raises(expected):
            failing_third(patch, family, fail_on)
    assert threading.active_count() == threads
    monkeypatch.setattr(eg, "GAP_FLOOR", 0.7)  # isolation lost at step 1, while step 2 is drawn or decomposed
    with pytest.raises(IsolationLostError, match="at step 1"):
        failing_third(monkeypatch, family, fail_on)
    assert threading.active_count() == threads


def test_no_thread_outlives_an_early_exit(monkeypatch):
    # an interrupt from family_f is not deferred: it leaves while step 1's decomposition is in flight
    class Interrupt(BaseException):
        pass
    family = closing_ramp(32)
    caller, released, in_flight = threading.current_thread(), threading.Event(), []
    zgees = numcore.zgees

    def held(*args):  # step 1's zgees, off the calling thread, waits until the interrupt is raised
        if threading.current_thread() is not caller:
            released.wait(timeout=60)
        zgees(*args)

    def interrupted(s):
        if s == PATH[2]:
            in_flight.append(threading.active_count())
            released.set()
            raise Interrupt
        return family(s)
    monkeypatch.setattr(numcore, "zgees", held)
    threads = threading.active_count()
    with pytest.raises(Interrupt):
        eg.track_eigenvalue(interrupted, PATH, C0)
    assert in_flight == [threads + 1]
    assert threading.active_count() == threads


def test_a_family_refilling_one_buffer_tracks_the_same(monkeypatch):
    family = closing_ramp(32)
    buffer = np.empty((32, 32), dtype=complex)

    def refilled(s):
        buffer[:] = family(s)
        return buffer
    fresh = tracked_bits(eg.track_eigenvalue(family, PATH, C0))
    numcore.drop_schur_memo()
    assert tracked_bits(eg.track_eigenvalue(refilled, PATH, C0)) == fresh


def test_prefetched_lattice_job_makes_three_decompositions(rng, monkeypatch):
    problem = lattice_problem(rng, 6)
    with monkeypatch.context() as patch:
        calls = count_decompositions(patch)
        ahead = lattice_ramp_end(*problem)
    # the hermitian start and two ramp points; Hellmann-Feynman and the density reuse the last,
    # and the start's zheevd and the first ramp point's zgees may begin in either order
    assert sorted(kind for kind, _ in calls) == ["eigh", "schur", "schur"]
    numcore.drop_schur_memo()
    monkeypatch.setattr(eg, "schur_ahead", iter)
    serial = lattice_ramp_end(*problem)
    for got, ref in zip(ahead, serial):
        assert got.tobytes() == ref.tobytes()
