import cmath
import math

import numpy as np
import pytest

from sectorial import contour, numcore, semigroup
from sectorial.errors import (
    H0NotCoerciveError,
    NotSectorialForBetaError,
    NumericalFailure,
    SectorViolationError,
    ZeroPartitionFunctionError,
)
from sectorial.forms import Sector, fit_sector, numerical_range

from conftest import (count_decompositions, exact_hermitian, rand_complex, rand_hermitian,
                      rand_sectorial)


def fitted(t, margin=0.05):
    return fit_sector(numerical_range(t, 128), margin=margin)


def test_emap_identity():
    e = semigroup.emap(1.0, np.eye(2), Sector(0.5, 0.05))
    assert np.allclose(e, math.exp(-1.0) * np.eye(2), atol=1e-12)


def test_emap_diagonal():
    e = semigroup.emap(2.0, np.diag([1.0, 2.0]), Sector(0.5, 0.05))
    assert np.allclose(e, np.diag([math.exp(-2.0), math.exp(-4.0)]), atol=1e-12)


def test_emap_random_sectorial_vs_oracle(rng):
    for _ in range(6):
        t = rand_sectorial(rng, 16)
        sec = fitted(t)
        beta = complex(rng.uniform(0.4, 1.5), rng.uniform(-0.3, 0.3))
        e = semigroup.emap(beta, t, sec)
        oracle = numcore.expm_oracle(-beta * t)
        assert np.linalg.norm(e - oracle, 2) <= 1e-6 * np.linalg.norm(oracle, 2)


def acceptance_cases(count):
    """(T, fitted sector) pairs from the exponential-map acceptance generator."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        t = rand_sectorial(rng, int(rng.integers(4, 65)), angle=0.25, lo=0.4, hi=3.0)
        yield t, fitted(t)


def test_hyperbola_vs_oracle(rng):
    cases = []
    for t, sec in acceptance_cases(6):
        room = math.pi / 2 - sec.half_angle
        cases += [(beta, t, sec) for beta in
                  (0.6, 1.0, 1.7, cmath.rect(1.0, 0.5 * room), cmath.rect(1.7, -0.5 * room))]
    # small beta: the nodes zeta = v0 - lambda / beta reach |zeta| ~ 1e4
    h = rand_hermitian(rng, 12, lo=0.3, hi=2.5)
    cases.append((0.007, h, fitted(h)))
    for beta, t, sec in cases:
        e = semigroup.emap(beta, t, sec, check_range=False)
        oracle = numcore.expm_oracle(-beta * t)
        err = np.linalg.norm(e - oracle, 2) / np.linalg.norm(oracle, 2)
        assert err <= 1e-10, f"n {t.shape[0]} beta {beta}"


def test_hyperbola_node_count_follows_the_room():
    for t, sec in acceptance_cases(15):
        room = math.pi / 2 - sec.half_angle
        for arg in np.linspace(-0.5 * room, 0.5 * room, 5):
            beta = cmath.rect(1.0, arg)
            assert len(semigroup._wedge_rule(beta, sec).nodes) <= 150, f"beta {beta}"
    # the count depends on the room alone, not on |beta| or the vertex
    counts = {len(semigroup._wedge_rule(b, Sector(v, 0.4)).nodes)
              for b in (0.01, 1.0, 100.0) for v in (-3.0, 0.3)}
    assert len(counts) == 1


def test_thin_room_exceeds_the_node_budget():
    # the thinnest room the graded wedge rule resolved still fits the budget
    wide = Sector(0.0, math.pi / 2 - 8.1e-4)
    assert len(semigroup._wedge_rule(1.0, wide).nodes) <= semigroup.NODE_BUDGET
    thin = Sector(0.0, math.pi / 2 - 1e-6)
    with pytest.raises(NumericalFailure, match=r"delta = 1\.570795327, room = 1\.000e-06"):
        semigroup.emap(1.0, np.eye(2), thin)


def test_emap_rejects_wide_beta():
    with pytest.raises(NotSectorialForBetaError):
        semigroup.emap(cmath.rect(1.0, 1.5), np.eye(2), Sector(0.0, 0.3))
    with pytest.raises(NotSectorialForBetaError):
        semigroup.emap(-1.0, np.eye(2), Sector(0.0, 0.3))


def test_emap_rejects_escaping_range(rng):
    t = rand_sectorial(rng, 6, angle=0.4)
    with pytest.raises(SectorViolationError):
        semigroup.emap(1.0, t, Sector(vertex=10.0, half_angle=0.01))


def test_free_energy_path_rejects_escaping_range(rng):
    t = rand_sectorial(rng, 6, angle=0.4)
    with pytest.raises(SectorViolationError):
        semigroup.free_energy_path([1.0, 0.5], t, Sector(vertex=10.0, half_angle=0.01))


def test_range_check_is_exact_between_sweep_angles():
    # Num T = disk |z - 1| <= 1/2 crosses both edges by 5e-5 between two of
    # the 128 sweep angles a sampled check would look at
    t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    theta = 2.0 * math.pi * 42.5 / 128 - math.pi / 2
    sec = Sector(1.0 - 0.49995 / math.sin(theta), theta)
    with pytest.raises(SectorViolationError):
        semigroup.emap(0.5, t, sec)
    with pytest.raises(SectorViolationError):
        semigroup.free_energy_path([0.5, 1.0], t, sec)


def test_free_energy_path_checks_range_once(rng, monkeypatch):
    calls = []
    require = Sector.require_range
    monkeypatch.setattr(Sector, "require_range",
                        lambda sec, t: calls.append(t.shape) or require(sec, t))
    t = rand_sectorial(rng, 6)
    semigroup.free_energy_path([0.5, 1.0, 1.5], t, fitted(t))
    assert calls == [(6, 6)]
    semigroup.free_energy_path([0.5, 1.0], t, fitted(t))
    assert calls == [(6, 6)] * 2


def test_free_energy_path_matches_trace_of_emap(rng):
    t = rand_sectorial(rng, 16)
    sec = fitted(t)
    betas = [0.7, 1.3 + 0.4j, 0.9 - 0.3j]
    zs, _ = semigroup.free_energy_path(betas, t, sec)
    for b, z in zip(betas, zs):
        ref = np.trace(semigroup.emap(b, t, sec, check_range=False))
        assert abs(z - ref) <= 1e-12 * abs(ref), f"beta {b}"


def test_free_energy_path_rejects_later_wide_beta(rng):
    t = rand_sectorial(rng, 6)
    with pytest.raises(NotSectorialForBetaError):
        semigroup.free_energy_path([0.5, 1.0, cmath.rect(1.0, 1.5)], t, fitted(t))


def test_free_energy_path_is_trace_only(rng, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("matrix engine reached")

    monkeypatch.setattr(contour, "_resolvent_nodes", boom)
    monkeypatch.setattr(semigroup, "emap", boom)
    t = rand_sectorial(rng, 8)
    sector = fitted(t)
    reductions = count_decompositions(monkeypatch)
    semigroup.free_energy_path([0.5, 1.0 + 0.2j, 1.5], t, sector)
    assert [a.shape for _, a in reductions] == [(8, 8)]


def test_emap_semigroup_law(rng):
    t = rand_sectorial(rng, 12)
    sec = fitted(t)
    b1, b2 = 0.6 + 0.2j, 0.9 - 0.1j
    lhs = semigroup.emap(b1 + b2, t, sec)
    rhs = semigroup.emap(b1, t, sec) @ semigroup.emap(b2, t, sec)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * np.linalg.norm(lhs, 2)


def test_emap_conjugate_beta_real_matrix(rng):
    t = np.abs(rand_complex(rng, 8).real) + 4.0 * np.eye(8)
    t = (t + t.T) / 2
    sec = fitted(t)
    beta = 0.8 + 0.25j
    e = semigroup.emap(beta, t, sec)
    e_conj = semigroup.emap(np.conj(beta), t, sec)
    assert np.linalg.norm(e_conj - e.conj(), 2) <= 1e-10 * np.linalg.norm(e, 2)


def test_emap_schatten_hoelder(rng):
    h = rand_hermitian(rng, 10, lo=0.4, hi=3.0)
    sec = fitted(h)
    for p in (2.0, 4.0):
        lhs = numcore.schatten_norm(semigroup.emap(1.0, h, sec), 1)
        rhs = numcore.schatten_norm(semigroup.emap(1.0 / p, h, sec), p) ** p
        assert lhs <= rhs * (1 + 1e-9)


def test_thermal_single_mode():
    eps = 0.7
    st = semigroup.thermal_state(1.3, np.array([[eps]]), Sector(0.5, 0.01))
    assert st.z == pytest.approx(math.exp(-1.3 * eps), rel=1e-12)
    assert st.f == pytest.approx(eps, rel=1e-12)
    assert st.rho[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_thermal_two_level_closed_form():
    delta = 1.0
    h = np.diag([0.0, delta]).astype(complex)
    sec = Sector(-0.05, 0.02)
    for beta in (0.5, 1.0, 2.0):
        st = semigroup.thermal_state(beta, h, sec)
        f_exact = -math.log(1.0 + math.exp(-beta * delta)) / beta
        assert abs(st.f - f_exact) <= 1e-12
        assert abs(np.trace(st.rho) - 1.0) <= 1e-9


def test_thermal_hermitian_eig_sum_oracle(rng):
    h = rand_hermitian(rng, 64, lo=0.1, hi=6.0)
    sec = fitted(h)
    beta = 1.1
    st = semigroup.thermal_state(beta, h, sec)
    lam = numcore.eig_oracle(h).eigenvalues.real
    f_oracle = -math.log(np.sum(np.exp(-beta * lam))) / beta
    assert abs(st.f - f_oracle) <= 1e-9
    assert abs(np.trace(st.rho) - 1.0) <= 1e-9


def test_thermal_zero_partition():
    # two-level Z = 1 + e^{-beta}: nearly cancelled at beta = 0.1 + i pi
    h = np.diag([0.0, 1.0]).astype(complex)
    sec = Sector(-0.05, 0.02)
    beta = 0.1 + 1j * math.pi
    st = semigroup.thermal_state(beta, h, sec)
    assert abs(st.z - (1.0 - math.exp(-0.1))) <= 1e-10
    with pytest.raises(ZeroPartitionFunctionError):
        semigroup.thermal_state(beta, h, sec, z_floor_factor=0.1)


def test_thermal_expectation_identity_and_closed_form():
    delta = 0.9
    h = np.diag([0.0, delta]).astype(complex)
    st = semigroup.thermal_state(1.0, h, Sector(-0.05, 0.02))
    assert semigroup.thermal_expectation(st, np.eye(2)) == pytest.approx(1.0, rel=1e-12)
    expect = delta * math.exp(-delta) / (1.0 + math.exp(-delta))
    assert semigroup.thermal_expectation(st, h) == pytest.approx(expect, rel=1e-10)


def test_thermal_expectation_random_vs_eig_basis(rng):
    h = rand_hermitian(rng, 12, lo=0.2, hi=2.0)
    b = rand_complex(rng, 12)
    beta = 0.8
    st = semigroup.thermal_state(beta, h, fitted(h))
    lam, v = np.linalg.eigh(h)
    w = np.exp(-beta * lam)
    oracle = np.sum(w * np.diag(v.conj().T @ b @ v)) / np.sum(w)
    assert abs(semigroup.thermal_expectation(st, b) - oracle) <= 1e-9 * abs(oracle)


def test_free_energy_path_unwraps_phase():
    h = np.diag([0.0, 1.0]).astype(complex)
    sec = Sector(-0.05, 0.02)
    betas = [0.5 + 1j * x for x in np.linspace(0.0, 2.9, 30)]
    _, fs = semigroup.free_energy_path(betas, h, sec)
    # continuity: no branch jumps of size ~ 2 pi / |beta|
    steps = np.abs(np.diff(fs))
    assert steps.max() < 1.0


def test_duhamel_zero_direction(rng):
    h = rand_hermitian(rng, 5)
    out = semigroup.duhamel_first_order(1.0, h, np.zeros((5, 5)))
    assert np.abs(out).max() == 0.0


def test_duhamel_commuting_closed_form(rng):
    d = np.diag(np.array([0.3, 0.9, 1.7]))
    t = np.diag(np.array([1.0, -0.5, 0.25]))
    beta = 0.8
    out = semigroup.duhamel_first_order(beta, d, t)
    expect = -beta * t @ numcore.expm_oracle(-beta * d)
    assert np.linalg.norm(out - expect, 2) <= 1e-10 * np.linalg.norm(expect, 2)


def test_duhamel_matches_finite_difference(rng, monkeypatch):
    calls = count_decompositions(monkeypatch)
    h = rand_hermitian(rng, 8, lo=0.3, hi=2.0)
    cases = [(1.0, h, rand_hermitian(rng, 8, lo=-1.0, hi=1.0), fitted(h))]
    # non-normal H, non-hermitian T, complex beta at +-room/2
    for n, sign in ((6, 1), (11, -1), (16, 1)):
        h = rand_sectorial(rng, n)
        sec = fitted(h)
        beta = cmath.rect(1.2, sign * 0.5 * (math.pi / 2 - sec.half_angle))
        cases.append((beta, h, rand_complex(rng, n), sec))
    for beta, h, t, sec in cases:
        n = h.shape[0]
        calls.clear()
        out = semigroup.duhamel_first_order(beta, h, t, sector=sec)
        # one decomposition, of H at size n, kept: e^{-beta H} after it decomposes nothing
        assert len(calls) == 1 and calls[0][1].shape == (n, n) and np.array_equal(calls[0][1], h)
        semigroup.emap(beta, h, sec)
        assert len(calls) == 1
        eps = 1e-5
        fd = (numcore.expm_oracle(-beta * (h + eps * t))
              - numcore.expm_oracle(-beta * (h - eps * t))) / (2 * eps)
        assert np.linalg.norm(out - fd, 2) <= 1e-5 * np.linalg.norm(fd, 2)
        block = numcore.expm_oracle(-beta * np.block([[h, t], [np.zeros_like(h), h]]))[:n, n:]
        assert np.linalg.norm(out - block, 2) <= 1e-11 * np.linalg.norm(block, 2)
        # the rescale of T is by a power of two, so D is linear in T bit for bit
        assert np.array_equal(semigroup.duhamel_first_order(beta, h, 2 * t, sector=sec), 2 * out)
        # a subnormal T keeps its last bits and does not overflow in the rescale
        tiny = semigroup.duhamel_first_order(beta, h, 1e-310 * t, sector=sec)
        assert np.abs(tiny - 1e-310 * out).max() <= 1e-10 * np.abs(1e-310 * out).max()


@pytest.mark.parametrize("make, kind", [(exact_hermitian, "eigh"), (rand_sectorial, "schur")],
                         ids=["exactly_hermitian", "sectorial"])
def test_duhamel_at_n_128_matches_the_block_oracle(rng, monkeypatch, make, kind):
    n, beta = 128, 0.8
    h, t = make(rng, n), rand_complex(rng, n)
    calls = count_decompositions(monkeypatch)
    out = semigroup.duhamel_first_order(beta, h, t)
    # the one decomposition is of H at size n: eigh (a diagonal Schur form) for exactly hermitian H
    assert [(k, a.shape) for k, a in calls] == [(kind, (n, n))]
    block = numcore.expm_oracle(-beta * np.block([[h, t], [np.zeros_like(h), h]]))[:n, n:]
    assert np.linalg.norm(out - block, 2) <= 1e-11 * np.linalg.norm(block, 2)


def test_duhamel_checks_supplied_sector(rng):
    h = rand_sectorial(rng, 6, angle=0.4)
    t = rand_hermitian(rng, 6, lo=-1.0, hi=1.0)
    with pytest.raises(SectorViolationError):
        semigroup.duhamel_first_order(1.0, h, t, sector=Sector(vertex=10.0, half_angle=0.01))


def test_of_norm_self_and_rotation(rng):
    h0 = rand_hermitian(rng, 6, lo=1.0, hi=3.0)
    assert semigroup.of_norm(h0, h0) == pytest.approx(1.0, rel=1e-10)
    assert semigroup.of_norm(1j * h0, h0) == pytest.approx(1.0, rel=1e-10)


def test_of_norm_rejects_weak_reference(rng):
    with pytest.raises(H0NotCoerciveError):
        semigroup.of_norm(np.eye(3), 0.5 * np.eye(3))
    with pytest.raises(H0NotCoerciveError):
        semigroup.of_norm(np.eye(3), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_of_norm_unit_ball_sector(rng):
    # |t - h0|_{H0} < 1 forces the quarter-plane wedge on t
    for _ in range(6):
        h0 = rand_hermitian(rng, 6, lo=1.0, hi=3.0)
        s = rand_complex(rng, 6)
        s = (s + s.conj().T) / 2 + 1j * rand_hermitian(rng, 6, lo=-1.0, hi=1.0)
        s *= 0.9 / semigroup.of_norm(s + h0 - h0, h0)
        t = h0 + s
        assert semigroup.of_norm(t - h0, h0) < 1.0
        b = numerical_range(t, 64)
        assert Sector(0.0, math.pi / 4).contains(b.points, slack=1e-8)


def test_trace_norm_bounded_on_of_ball(rng):
    # desk-scale echo of local trace-norm boundedness of the thermal map
    h0 = rand_hermitian(rng, 10, lo=1.0, hi=4.0)
    sec = Sector(0.0, math.pi / 4 + 0.05)
    base = {}
    for beta in (0.5, 1.0, 2.0):
        base[beta] = numcore.schatten_norm(semigroup.emap(beta, h0, sec, check_range=False), 1)
    for k in range(5):
        s = rand_hermitian(rng, 10, lo=-1.0, hi=1.0) + 1j * rand_hermitian(rng, 10, lo=-1.0, hi=1.0)
        s *= 0.5 / semigroup.of_norm(s, h0)
        t = h0 + s
        for beta in (0.5, 1.0, 2.0):
            tn = numcore.schatten_norm(semigroup.emap(beta, t, sec, check_range=False), 1)
            assert tn <= 4.0 * base[beta], f"trial {k} beta {beta}"
