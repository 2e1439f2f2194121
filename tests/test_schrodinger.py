import itertools
from dataclasses import replace

import numpy as np
import pytest

from sectorial import forms, numcore, schrodinger as sch
from sectorial.errors import (
    DimensionMismatchError,
    ModulationTooLargeError,
    NotNormalizedPairError,
)

from conftest import rand_complex


def ring(n, delta=1.0, particles=1):
    g = sch.Grid(d=1, n=n, delta=delta)
    return g, sch.ManyBodySpace(grid=g, particles=particles)


def test_grid_validation():
    with pytest.raises(ValueError):
        sch.Grid(d=3, n=4, delta=1.0)
    with pytest.raises(ValueError):
        sch.Grid(d=1, n=2, delta=1.0)
    with pytest.raises(DimensionMismatchError):
        sch.ManyBodySpace(grid=sch.Grid(d=2, n=8, delta=1.0), particles=2)


def test_codec_roundtrip_exact():
    g = sch.Grid(d=2, n=4, delta=0.5)
    space = sch.ManyBodySpace(grid=g, particles=2)
    for flat in range(space.dim):
        assert space.rank(space.unrank(flat)) == flat
    assert g.site_index(g.site_coords(11)) == 11


def test_kinetic_free_ring_spectrum():
    # covariant difference at A=0: eigenvalues (2 - 2 cos(2 pi k / n)) / delta^2
    for n, delta in ((4, 1.0), (8, 0.5)):
        g, space = ring(n, delta)
        k = sch.kinetic_form(g, space, np.zeros((1, n)))
        got = np.sort(numcore.eig_oracle(k).eigenvalues.real)
        expect = np.sort((2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / delta**2)
        assert np.allclose(got, expect, atol=1e-10)


def test_kinetic_constant_field_circulant_oracle():
    # constant A: the one-particle matrix is circulant; Fourier symbol oracle
    n, delta, a = 8, 0.7, 0.45
    g, space = ring(n, delta)
    k = sch.kinetic_form(g, space, np.full((1, n), a))
    got = np.sort(numcore.eig_oracle(k).eigenvalues.real)
    first_row = k[0].copy()
    symbol = np.fft.fft(first_row)  # circulant eigenvalues
    assert np.allclose(np.sort(symbol.real), got, atol=1e-9)
    assert np.abs(symbol.imag).max() <= 1e-9


def test_kinetic_gauge_covariance_refines_quadratically():
    def defect(n, L=8.0):
        delta = L / n
        g, space = ring(n, delta)
        x = np.arange(n) * delta
        a = (0.3 + 0.2 * np.cos(2 * np.pi * (x + delta / 2) / L)).reshape(1, n)
        chi = 0.7 * np.sin(2 * np.pi * x / L)
        grad = sch.gauge_link_field(g, chi).real
        k1 = sch.kinetic_form(g, space, a)
        k2 = sch.kinetic_form(g, space, a + grad)
        u = np.diag(np.exp(1j * chi))
        return np.linalg.norm(k2 - u @ k1 @ u.conj().T, 2) / np.linalg.norm(k1, 2)

    d16, d32, d64 = defect(16), defect(32), defect(64)
    assert d32 < d16 and d64 < d32
    assert 3.0 <= d16 / d32 <= 5.0
    assert 3.0 <= d32 / d64 <= 5.0


def test_kinetic_polynomial_in_field(rng):
    # entries are degree-<=2 polynomials: second difference in the field is exact
    g, space = ring(6)
    a0 = rand_complex(rng, 1, 6).reshape(1, 6)
    da = rand_complex(rng, 1, 6).reshape(1, 6)
    k = lambda z: sch.kinetic_form(g, space, a0 + z * da)
    # central difference with a large step is exact for quadratics
    d_num = (k(1.0) - k(-1.0)) / 2.0
    d_ana = sch.kinetic_form_derivative(g, space, a0, da)
    assert np.abs(d_num - d_ana).max() <= 1e-12


def test_kinetic_2d_free_spectrum():
    g = sch.Grid(d=2, n=4, delta=1.0)
    space = sch.ManyBodySpace(grid=g, particles=1)
    k = sch.kinetic_form(g, space, np.zeros((2, 4, 4)))
    got = np.sort(numcore.eig_oracle(k).eigenvalues.real)
    one = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(4) / 4)
    expect = np.sort((one[:, None] + one[None, :]).reshape(-1))
    assert np.allclose(got, expect, atol=1e-10)


def test_potential_constant_is_cNI():
    g, space = ring(5, particles=2)
    u = sch.potential_form(space, np.full(5, 1.7))
    assert np.allclose(u, 2 * 1.7 * np.eye(space.dim), atol=1e-14)


def test_potential_site_delta():
    g, space = ring(5)
    u = np.zeros(5)
    u[2] = 1.0
    mat = sch.potential_form(space, u)
    assert np.allclose(np.diag(mat), u, atol=0)


def test_potential_two_particle_kron_oracle(rng):
    g, space = ring(4, particles=2)
    w = rand_complex(rng, 1, 4).ravel()
    mat = sch.potential_form(space, w)
    eye = np.eye(4)
    oracle = np.kron(np.diag(w), eye) + np.kron(eye, np.diag(w))
    assert np.allclose(mat, oracle, atol=1e-13)


def test_potential_full_configuration_mode(rng):
    g, space = ring(4, particles=2)
    diag = rand_complex(rng, 1, 16).ravel()
    assert np.allclose(sch.potential_form(space, diag, per_particle=False),
                       np.diag(diag), atol=0)


def test_interaction_constant():
    g, space = ring(4, particles=3)
    v = sch.interaction_form(space, np.full(4, 2.0))
    assert np.allclose(v, 2.0 * 3 * np.eye(space.dim), atol=1e-13)  # c N(N-1)/2


def test_interaction_single_particle_is_zero():
    g, space = ring(4, particles=1)
    assert np.abs(sch.interaction_form(space, np.ones(4))).max() == 0.0


def test_interaction_onsite_delta_counts_coincidences():
    g, space = ring(4, particles=2)
    v = np.zeros(4)
    v[0] = 1.0
    mat = sch.interaction_form(space, v)
    diag = np.diag(mat).real
    for flat in range(space.dim):
        s1, s2 = space.unrank(flat)
        assert diag[flat] == pytest.approx(1.0 if s1 == s2 else 0.0, abs=1e-14)


def test_interaction_soft_coulomb_double_loop_oracle():
    n = 5
    g, space = ring(n, delta=0.8, particles=2)
    kernel = sch.kernel_from_function(g, lambda r: 1.0 / np.sqrt(1.0 + r @ r))
    mat = sch.interaction_form(space, kernel)
    for flat in range(space.dim):
        s1, s2 = space.unrank(flat)
        # brute-force minimal periodic displacement
        raw = (s2 - s1) % n
        mdisp = raw - n if 2 * raw > n else raw
        expect = 1.0 / np.sqrt(1.0 + (mdisp * 0.8) ** 2)
        assert mat[flat, flat].real == pytest.approx(expect, abs=1e-12)


def test_interaction_relative_coordinate_conjugacy():
    # N=2 interaction is, under the pair-coordinate relabeling, a one-body
    # potential in the relative coordinate: identical spectra
    n = 6
    g, space = ring(n, particles=2)
    kernel = sch.kernel_from_function(g, lambda r: np.exp(-abs(r[0])))
    inter = sch.interaction_form(space, kernel)
    rel_potential = np.array([kernel[(s2 - 0) % n] for s2 in range(n)])
    one_body = np.kron(np.diag(rel_potential), np.eye(n))  # relative x center
    got = np.sort(numcore.eig_oracle(inter).eigenvalues.real)
    expect = np.sort(numcore.eig_oracle(one_body).eigenvalues.real)
    assert np.allclose(got, expect, atol=1e-9)


def test_family_zero_config_hermitian_nonnegative(rng):
    g, space = ring(6, particles=2)
    u0 = 1.0 + np.cos(2 * np.pi * np.arange(6) / 6)
    v0 = sch.kernel_from_function(g, lambda r: 0.5 / (1.0 + r @ r)).real
    cfg = sch.FieldConfig.zero(g, u0=u0, v0=v0)
    h = sch.family(g, space, cfg)
    assert np.abs(h - h.conj().T).max() <= 1e-12
    lam = numcore.eig_oracle(h).eigenvalues.real
    assert lam.min() >= -1e-10


def test_family_imaginary_potential_is_imaginary_part(rng):
    g, space = ring(5, particles=2)
    w = rng.standard_normal(5)
    cfg = sch.FieldConfig.zero(g)
    pert = 1j * 0.3 * sch.delta_u(g, 0) * 0.0  # start from zero then add iw
    cfg_i = cfg + 1j * sch.FieldConfig(grid=g, u=0.3 * w, a=np.zeros((1, 5)),
                                       v=np.zeros(5), f=np.zeros(5))
    h = sch.family(g, space, cfg_i)
    _, hi = forms.hermitian_split(h)
    oracle = sch.potential_form(space, 0.3 * w)
    assert np.abs(hi - oracle).max() <= 1e-12


def test_family_bounded_below_by_potential_inf(rng):
    g, space = ring(6, particles=2)
    u = rng.uniform(-0.8, 0.8, 6)
    cfg = sch.FieldConfig(grid=g, u=u, a=np.zeros((1, 6)), v=np.zeros(6),
                          f=np.zeros(6))
    h = sch.family(g, space, cfg)
    lam = numcore.eig_oracle(h).eigenvalues.real
    assert lam.min() >= -np.abs(u).max() * 2 - 1e-10


def test_family_rejects_large_modulation():
    g, space = ring(4)
    cfg = sch.FieldConfig(grid=g, u=np.zeros(4), a=np.zeros((1, 4)),
                          v=np.zeros(4), f=np.full(4, 1.0))
    with pytest.raises(ModulationTooLargeError):
        sch.family(g, space, cfg)


def test_family_modulation_scales_background():
    g, space = ring(4)
    u0 = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = sch.FieldConfig(grid=g, u=np.zeros(4), a=np.zeros((1, 4)),
                          v=np.zeros(4), f=np.full(4, 0.5), u0=u0)
    h = sch.family(g, space, cfg)
    h0 = sch.family(g, space, sch.FieldConfig.zero(g, u0=u0))
    assert np.allclose(np.diag(h - h0), 0.5 * u0, atol=1e-13)


def test_family_derivative_exactness(rng):
    g, space = ring(5, particles=2)
    base = sch.FieldConfig(grid=g, u=rng.standard_normal(5),
                           a=0.3 * rand_complex(rng, 1, 5).reshape(1, 5),
                           v=np.zeros(5), f=np.zeros(5), u0=np.ones(5))
    direction = sch.FieldConfig(grid=g, u=rng.standard_normal(5),
                                a=0.2 * rand_complex(rng, 1, 5).reshape(1, 5),
                                v=rng.standard_normal(5), f=0.2 * rng.standard_normal(5))
    fam = lambda z: sch.family(g, space, base + z * direction)
    d_num = (fam(0.5) - fam(-0.5)) / 1.0  # exact for quadratics
    d_ana = sch.family_derivative(g, space, base, direction)
    assert np.abs(d_num - d_ana).max() <= 1e-11


def test_density_ground_state_real_and_normalized():
    g, space = ring(6, delta=0.7, particles=2)
    u0 = 1.0 + np.cos(2 * np.pi * np.arange(6) / 6)
    cfg = sch.FieldConfig.zero(g, u0=u0)
    h = sch.family(g, space, cfg)
    data = numcore.eig_oracle(h)
    phi = data.right_eigenvectors[:, 0]
    phi = phi / np.linalg.norm(phi)
    rho, current = sch.charge_current_from_pair(space, g, phi, phi, cfg.a)
    assert np.abs(rho.imag).max() <= 1e-12
    assert rho.real.min() >= -1e-12
    assert rho.real.sum() * 0.7 == pytest.approx(2.0, abs=1e-8)
    assert np.abs(current).max() <= 1e-10  # real ground state carries no current


def test_density_translation_invariant_is_uniform():
    g, space = ring(5, delta=1.3, particles=2)
    cfg = sch.FieldConfig.zero(g, v0=sch.kernel_from_function(
        g, lambda r: 1.0 / (1.0 + r @ r)).real)
    h = sch.family(g, space, cfg)
    data = numcore.eig_oracle(h)
    phi = data.right_eigenvectors[:, 0]
    phi = phi / np.linalg.norm(phi)
    rho, _ = sch.charge_current_from_pair(space, g, phi, phi, cfg.a)
    expect = 2.0 / (5 * 1.3)
    assert np.allclose(rho.real, expect, atol=1e-9)


def test_density_requires_normalized_pair():
    g, space = ring(4)
    phi = np.zeros(4, dtype=complex)
    phi[0] = 1.0
    with pytest.raises(NotNormalizedPairError):
        sch.charge_current_from_pair(space, g, phi, 2.0 * phi, np.zeros((1, 4)))


def test_config_arithmetic(rng):
    g = sch.Grid(d=1, n=4, delta=1.0)
    a = sch.delta_u(g, 1)
    b = sch.delta_a(g, 0, (2,))
    combo = a + 2.0j * b
    assert combo.u[1] == 1.0
    assert combo.a[0, 2] == 2.0j
    assert combo.u0.max() == 0.0
    with pytest.raises(ValueError):
        sch.FieldConfig.zero(g, u0=-np.ones(4))


def folded(cfg, dirs, p):
    """cfg + p_i dir_i as FieldConfig arithmetic, one nonzero p_i at a time."""
    for coeff, direction in zip(np.asarray(p).ravel(), dirs):
        if coeff != 0:
            cfg = cfg + complex(coeff) * direction
    return cfg


@pytest.mark.parametrize("d, n, particles", [(1, 5, 2), (2, 3, 1)])
def test_config_family_has_the_bits_of_the_folded_config(rng, d, n, particles):
    g = sch.Grid(d=d, n=n, delta=0.5)
    space = sch.ManyBodySpace(grid=g, particles=particles)
    base = sch.FieldConfig.zero(g, u0=rng.uniform(0.5, 1.5, g.sites), v0=rng.uniform(0.0, 0.4, g.shape))
    mixed = sch.FieldConfig(grid=g, u=rand_complex(rng, g.sites, 1), a=rand_complex(rng, d * g.sites, 1),
                            v=rand_complex(rng, g.sites, 1), f=0.1 * rand_complex(rng, g.sites, 1))
    dirs = [sch.delta_u(g, j) for j in range(g.sites)] + [mixed] + [
        sch.delta_a(g, k, c) for k in range(d) for c in itertools.product(range(n), repeat=d)]
    fam, dfam = sch.config_family(g, space, base, dirs)
    m = len(dirs)
    coeffs = [np.zeros(m), 0.05 * rng.standard_normal(m), 0.05 * rand_complex(rng, m, 1).ravel()]
    for p in coeffs[1:]:
        p[::3] = 0.0
    for p in coeffs:
        assert fam(p).tobytes() == sch.family(g, space, folded(base, dirs, p)).tobytes()
        for w in coeffs:
            ref = sch.family_derivative(g, space, folded(base, dirs, p),
                                        folded(sch.FieldConfig.zero(g), dirs, w))
            assert dfam(p, w).tobytes() == ref.tobytes()


def test_config_family_rejects_a_direction_on_another_grid():
    g, space = ring(4, 0.5)
    fam, dfam = sch.config_family(g, space, sch.FieldConfig.zero(g),
                                  [sch.delta_u(g, 0), sch.delta_u(sch.Grid(d=1, n=5, delta=0.5), 1)])
    fam([0.1, 0.0])  # a zero coefficient leaves its direction out
    with pytest.raises(DimensionMismatchError):
        fam([0.1, 0.2])
    with pytest.raises(DimensionMismatchError):
        dfam([0.0, 0.0], [0.0, 1.0])


def kron_sum(space, m1):
    """sum_alpha I x ... x M1 x ... x I from Kronecker products, added in particle order."""
    eye = np.eye(space.sites, dtype=complex)
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for alpha in range(space.particles):
        factors = [eye] * space.particles
        factors[alpha] = m1
        acc = factors[0]
        for fac in factors[1:]:
            acc = np.kron(acc, fac)
        total += acc
    return total


@pytest.mark.parametrize("d, n, particles", [(1, 5, 1), (1, 5, 2), (1, 4, 3), (2, 3, 2)])
def test_one_body_to_many_has_the_bits_of_the_kronecker_sum(rng, d, n, particles):
    space = sch.ManyBodySpace(grid=sch.Grid(d=d, n=n, delta=0.5), particles=particles)
    s = space.sites
    m1 = rand_complex(rng, s)
    # exact zeros and signed zeros in either part, and a diagonal that cancels across particles
    m1[0, 1] = complex(-0.0, 0.0)
    m1[1, 0] = complex(0.0, -0.0)
    m1[2, 2] = complex(-0.0, -0.0)
    m1[1, 1] = complex(1.5, -m1[0, 0].imag)
    m1[0, 0] = complex(-1.5, m1[0, 0].imag)
    m1[:, 3] = 0.0
    kinetic = sch._kinetic_one_particle(space.grid, rand_complex(rng, d * s, 1).reshape((d,) + space.grid.shape))
    for m in (m1, kinetic):
        assert sch.one_body_to_many(space, m).tobytes() == kron_sum(space, m).tobytes()


def random_config(rng, g, zero_sign=True):
    """Complex fields with |f| < 1 and nonnegative backgrounds; with
    ``zero_sign``, a few parts of u, a and v are -0.0."""
    cfg = sch.FieldConfig(grid=g, u=rand_complex(rng, g.sites, 1), a=0.3 * rand_complex(rng, g.d * g.sites, 1),
                          v=rand_complex(rng, g.sites, 1), f=0.2 * rand_complex(rng, g.sites, 1),
                          u0=rng.uniform(0.0, 1.0, g.sites), v0=rng.uniform(0.0, 0.5, g.shape))
    if zero_sign:
        for m in (cfg.u.reshape(-1), cfg.a.reshape(-1), cfg.v.reshape(-1)):
            m[0] = complex(-0.0, m[0].imag)
            m[1] = complex(m[1].real, -0.0)
    return cfg


@pytest.mark.parametrize("d, n, particles", [(1, 5, 1), (1, 5, 2), (1, 4, 3), (2, 3, 2)])
def test_family_has_the_bits_of_the_summed_forms(rng, d, n, particles):
    g = sch.Grid(d=d, n=n, delta=0.5)
    space = sch.ManyBodySpace(grid=g, particles=particles)
    for cfg in (random_config(rng, g), random_config(rng, g, zero_sign=False), sch.FieldConfig.zero(g)):
        ref = (sch.kinetic_form(g, space, cfg.a) + sch.potential_form(space, cfg.u0 + cfg.u + cfg.f * cfg.u0)
               + sch.interaction_form(space, cfg.v0 + cfg.v))
        assert sch.family(g, space, cfg).tobytes() == ref.tobytes()
        full = random_config(rng, g)
        zero = sch.FieldConfig.zero(g)
        # each field of the direction alone, then all of them
        for direction in (replace(zero, u=full.u), replace(zero, f=full.f), replace(zero, a=full.a),
                          replace(zero, v=full.v), full, zero):
            ref = sch.potential_form(space, direction.u + direction.f * cfg.u0)
            if np.any(direction.a):
                ref = ref + sch.kinetic_form_derivative(g, space, cfg.a, direction.a)
            if np.any(direction.v):
                ref = ref + sch.interaction_form(space, direction.v)
            assert sch.family_derivative(g, space, cfg, direction).tobytes() == ref.tobytes()
