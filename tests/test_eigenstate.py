import numpy as np
import pytest

from sectorial import eigenstate as eg, numcore, schrodinger as sch
from sectorial.contour import Circle, riesz_projection
from sectorial.errors import IsolationLostError, RankNotOneError

from conftest import rand_complex, rand_hermitian


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
