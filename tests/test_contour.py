import cmath
import math
import sys

import numpy as np
import pytest

from sectorial import contour, eigenstate, numcore, semigroup
from sectorial.contour import (
    CHUNK_NODES,
    Circle,
    Polyline,
    RightBoundary,
    SectorBoundary,
    adapted_sector_boundary,
    enclosed_count,
    extract_eigenvalue,
    low_energy_hamiltonian,
    projected_operator,
    rank_of_projection,
    rdt_function,
    riesz_projection,
)
from sectorial.errors import (
    ContourThroughSpectrumError,
    DegenerateEnclosureError,
    EmptyEnclosureError,
    GammaHitsSpectrumError,
    NotAProjectionError,
)
from sectorial.forms import Sector, fit_sector, numerical_range

from conftest import rand_complex, rand_sectorial


def oracle_projector(a, inside):
    """Spectral projector from the eigen oracle: V 1_S V^{-1}."""
    data = numcore.eig_oracle(a)
    sel = np.array([inside(lam) for lam in data.eigenvalues])
    v = data.right_eigenvectors
    vinv = np.linalg.inv(v)
    return v[:, sel] @ vinv[sel, :]


def test_circle_rule_self_test():
    rule = Circle(center=1.0 + 1.0j, radius=0.7, nodes=32).rule()
    rule.self_test(interior=1.0 + 1.0j)
    assert abs(rule.circulation()) <= 1e-12
    assert rule.winding(1.2 + 0.9j) == pytest.approx(1.0, abs=1e-10)
    assert abs(rule.winding(3.0)) <= 1e-8


def test_polyline_rule_self_test():
    tri = Polyline(vertices=(0.0, 2.0, 1.0 + 2.0j), order=16, panels=4)
    rule = tri.rule()
    rule.self_test(interior=tri.interior_hint())
    assert rule.winding(1.0 + 0.5j) == pytest.approx(1.0, abs=1e-9)


def test_sector_boundary_is_open_and_graded():
    path = adapted_sector_boundary(vertex=-0.5, half_angle=0.6, radius=20.0,
                                   inner=Sector(vertex=0.0, half_angle=0.2))
    rule = path.rule()
    assert not rule.closed
    assert isinstance(path, SectorBoundary)
    steps = np.diff(path.breaks)
    assert steps[-2] > steps[0]  # grows away from the vertex


def test_riesz_diagonal_projector():
    p = riesz_projection(np.diag([0.0, 5.0]), Circle(0.0, 1.0, 64))
    assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-10)


def test_riesz_jordan_block_full_enclosure():
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    p = riesz_projection(a, Circle(1.0, 1.0, 64))
    assert np.allclose(p, np.eye(2), atol=1e-9)


def test_riesz_oblique_projector():
    a = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)
    p = riesz_projection(a, Circle(0.0, 1.0, 64))
    assert np.allclose(p, [[1.0, -0.5], [0.0, 0.0]], atol=1e-10)
    q = oracle_projector(a, lambda lam: abs(lam) < 1.0)
    assert np.allclose(p, q, atol=1e-10)


def test_riesz_contracts(rng):
    for _ in range(10):
        t = rand_complex(rng, 10)
        spec = numcore.eig_oracle(t).eigenvalues
        k = int(rng.integers(len(spec)))
        center = spec[k]
        gap = np.abs(np.delete(spec, k) - center).min()
        c = Circle(complex(center), 0.4 * gap, 256)
        p = riesz_projection(t, c)
        norm = np.linalg.norm
        assert norm(p @ p - p, 2) <= 1e-8
        assert norm(p @ t - t @ p, 2) <= 1e-8 * norm(t, 2)


def test_clearance_precondition():
    with pytest.raises(ContourThroughSpectrumError):
        riesz_projection(np.diag([0.0, 1.01]), Circle(0.0, 1.0, 64))


def test_projected_operator_examples():
    ap = projected_operator(np.diag([0.0, 5.0]), Circle(0.0, 1.0, 64))
    assert np.allclose(ap, np.zeros((2, 2)), atol=1e-10)
    ap = projected_operator(np.diag([3.0, 7.0]), Circle(3.0, 1.0, 64))
    assert np.allclose(ap, np.diag([3.0, 0.0]), atol=1e-10)


def test_projected_operator_restriction(rng):
    a = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)
    c = Circle(2.0, 0.5, 128)
    p = riesz_projection(a, c)
    ap = projected_operator(a, c)
    assert np.allclose(ap, a @ p, atol=1e-8)
    assert np.allclose(ap, p @ a @ p, atol=1e-8)
    spec = numcore.eig_oracle(ap).eigenvalues
    big = spec[np.abs(spec) > 1e-8]
    assert np.allclose(big, [2.0], atol=1e-8)


def test_rdt_constant_is_projection(rng):
    t = rand_sectorial(rng, 6)
    spec = numcore.eig_oracle(t).eigenvalues
    c = Circle(complex(spec[0]), 0.3 * abs(spec[1] - spec[0]), 256)
    assert np.allclose(rdt_function(t, c, lambda z: 1.0),
                       riesz_projection(t, c), atol=1e-12)
    assert np.allclose(rdt_function(t, c, lambda z: z),
                       projected_operator(t, c), atol=1e-12)


def test_rdt_exponential_matches_oracle(rng):
    t = rand_sectorial(rng, 8, angle=0.2, lo=0.5, hi=2.0)
    spec = numcore.eig_oracle(t).eigenvalues
    center = complex(spec.real.mean())
    radius = 1.5 * float(np.abs(spec - center).max())
    c = Circle(center, radius, 256)
    fa = rdt_function(t, c, lambda z: np.exp(-z))
    oracle = numcore.expm_oracle(-t)
    assert np.linalg.norm(fa - oracle, 2) <= 1e-7 * np.linalg.norm(oracle, 2)


def test_rdt_algebra_morphism(rng):
    t = rand_sectorial(rng, 6)
    spec = numcore.eig_oracle(t).eigenvalues
    center = complex(spec.real.mean())
    radius = 1.5 * float(np.abs(spec - center).max())
    c = Circle(center, radius, 256)
    p = riesz_projection(t, c)
    f = lambda z: np.exp(-0.3 * z)
    g = lambda z: 1.0 / (z + 5.0 + radius)
    fg = rdt_function(t, c, lambda z: f(z) * g(z))
    sep = rdt_function(t, c, f) @ rdt_function(t, c, g)
    assert np.linalg.norm((fg - sep) @ p, 2) <= 1e-7


def test_rdt_annihilates_kernel(rng):
    t = rand_sectorial(rng, 8)
    spec = numcore.eig_oracle(t).eigenvalues
    k = int(rng.integers(len(spec)))
    gap = np.abs(np.delete(spec, k) - spec[k]).min()
    c = Circle(complex(spec[k]), 0.4 * gap, 256)
    p = riesz_projection(t, c)
    f = lambda z: np.exp(z)
    fa = rdt_function(t, c, f)
    fmax = max(abs(f(z)) for z in c.rule().nodes)
    assert np.linalg.norm(fa @ (np.eye(8) - p), 2) <= 1e-7 * fmax


def test_extract_diagonal():
    assert extract_eigenvalue(np.diag([3.0, 7.0]), Circle(3.0, 1.0, 64)) \
        == pytest.approx(3.0, abs=1e-10)


def test_extract_triangular():
    a = np.array([[2.0, 5.0], [0.0, 9.0]], dtype=complex)
    assert extract_eigenvalue(a, Circle(2.0, 2.0, 64)) == pytest.approx(2.0, abs=1e-8)


def test_extract_empty_enclosure():
    with pytest.raises(EmptyEnclosureError):
        extract_eigenvalue(np.diag([3.0, 7.0]), Circle(-5.0, 1.0, 64))


def test_extract_degenerate_enclosure():
    with pytest.raises(DegenerateEnclosureError):
        extract_eigenvalue(np.diag([3.0, 3.5]), Circle(3.25, 2.0, 256))


def test_trapezoid_extraction_converges_geometrically():
    a = np.diag([0.0, 1.3]).astype(complex)
    errs = []
    for m in (16, 32, 64):
        e = extract_eigenvalue(a, Circle(0.0, 0.55, m), clearance_factor=1.0)
        errs.append(abs(e))
    assert errs[1] <= errs[0] * 0.7**16
    assert errs[2] <= max(errs[1], 1e-13)
    assert errs[0] <= 1e-4


def test_rank_of_projection_basics():
    assert rank_of_projection(np.zeros((3, 3))) == 0
    assert rank_of_projection(np.eye(5)) == 5
    assert rank_of_projection(np.array([[1.0, -0.5], [0.0, 0.0]])) == 1


def test_rank_of_projection_rejects_non_idempotent():
    with pytest.raises(NotAProjectionError):
        rank_of_projection(0.5 * np.eye(2))


def test_rank_stability_under_contour_perturbation(rng):
    a = rand_complex(rng, 8)
    spec = numcore.eig_oracle(a).eigenvalues
    k = int(rng.integers(len(spec)))
    gap = np.abs(np.delete(spec, k) - spec[k]).min()
    c1 = Circle(complex(spec[k]), 0.40 * gap, 128)
    c2 = Circle(complex(spec[k]) + 0.02 * gap, 0.38 * gap, 128)
    p = riesz_projection(a, c1)
    q = riesz_projection(a, c2)
    assert np.linalg.norm(p - q, 2) < 1.0
    assert rank_of_projection(p) == rank_of_projection(q)


def test_projection_additivity(rng):
    a = np.diag([0.0, 3.0, 10.0]).astype(complex)
    p0 = riesz_projection(a, Circle(0.0, 1.0, 128))
    p3 = riesz_projection(a, Circle(3.0, 1.0, 128))
    both = riesz_projection(a, Circle(1.5, 2.6, 256))
    assert np.linalg.norm(p0 + p3 - both, 2) <= 1e-8


def test_low_energy_partition():
    a = np.diag([1.0, 2.0, 10.0]).astype(complex)
    rb = RightBoundary(abscissa=5.0, sector=Sector(vertex=0.5, half_angle=0.05))
    p, a_low = low_energy_hamiltonian(a, rb)
    assert rank_of_projection(p) == 2
    spec = numcore.eig_oracle(a_low).eigenvalues
    kept = np.sort(spec[np.abs(spec) > 1e-6].real)
    assert np.allclose(kept, [1.0, 2.0], atol=1e-7)


def test_low_energy_empty():
    a = np.diag([1.0, 2.0]).astype(complex)
    rb = RightBoundary(abscissa=0.2, sector=Sector(vertex=0.0, half_angle=0.05))
    p, _ = low_energy_hamiltonian(a, rb)
    assert np.linalg.norm(p, 2) <= 1e-8


def test_low_energy_hits_spectrum():
    a = np.diag([1.0, 2.0]).astype(complex)
    rb = RightBoundary(abscissa=2.0, sector=Sector(vertex=0.0, half_angle=0.05))
    with pytest.raises(GammaHitsSpectrumError):
        low_energy_hamiltonian(a, rb)


def test_low_energy_sectorial_vs_oracle(rng):
    t = rand_sectorial(rng, 32, angle=0.2, lo=0.5, hi=6.0)
    spec = numcore.eig_oracle(t).eigenvalues
    res = np.sort(spec.real)
    gaps = np.diff(res)
    k = len(gaps) // 2 + int(np.argmax(gaps[len(gaps) // 2 - 2: len(gaps) // 2 + 3])) - 2
    gamma = 0.5 * (res[k] + res[k + 1])
    from sectorial.forms import fit_sector, numerical_range
    sec = fit_sector(numerical_range(t, 128), margin=0.05)
    p, _ = low_energy_hamiltonian(t, RightBoundary(abscissa=gamma, sector=sec))
    q = oracle_projector(t, lambda lam: lam.real < gamma)
    assert np.linalg.norm(p - q, 2) <= 1e-7
    assert rank_of_projection(p) == k + 1


def test_enclosed_count(rng):
    a = np.diag([0.0, 1.0, 1.0, 4.0]).astype(complex)
    assert enclosed_count(a, Circle(1.0, 0.5, 64)) == 2
    assert enclosed_count(a, Circle(1.0, 2.0, 64)) == 3
    assert enclosed_count(a, Circle(-3.0, 1.0, 64)) == 0


# -- the streaming engine -------------------------------------------------------

def reference_sums(a, rule, funcs):
    """Per-node solve, then pairwise_sum over every weighted term: the batch
    definition the streaming engine must reproduce bit for bit."""
    eye = np.eye(a.shape[0], dtype=complex)
    res = [np.linalg.solve(a - z * eye, eye) for z in rule.nodes]
    return [numcore.pairwise_sum([w * f(z) * r for z, w, r in zip(rule.nodes, rule.weights, res)])
            for f in funcs]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def count_calls(monkeypatch, fn):
    """Replace ``fn`` at every binding in the package; return the log of calls."""
    log = []

    def spy(*args):
        log.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "sectorial" or name.startswith("sectorial."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return log


def test_riesz_and_extract_are_bitwise_batch_reference(rng):
    t = rand_complex(rng, 8)
    spec = numcore.eig_oracle(t).eigenvalues
    gap = np.abs(spec[1:] - spec[0]).min()
    for m in (64, 65, 100, 128):
        c = Circle(complex(spec[0]), 0.4 * gap, m)
        p_ref, ap_ref = reference_sums(t, c.rule(), [lambda z: 1.0, lambda z: z])
        assert same_bits(riesz_projection(t, c), -p_ref / (2j * math.pi))
        assert same_bits(extract_eigenvalue(t, c), complex(np.trace(-ap_ref / (2j * math.pi))))


def test_emap_is_bitwise_batch_reference(rng, monkeypatch):
    t = rand_sectorial(rng, 8)
    sec = fit_sector(numerical_range(t, 64), margin=0.05)
    rules = []
    engine = semigroup.resolvent_sums
    monkeypatch.setattr(semigroup, "resolvent_sums",
                        lambda a, rule, funcs: rules.append(rule) or engine(a, rule, funcs))
    beta = 1.2 * cmath.exp(0.1j)
    e = semigroup.emap(beta, t, sec, check_range=False)
    (rule,) = rules
    assert len(rule.nodes) > 10 * CHUNK_NODES
    (ref,) = reference_sums(t, rule, [lambda z: cmath.exp(-beta * z)])
    assert same_bits(e, ref / (2j * math.pi))


def test_resolvent_batches_never_exceed_the_chunk(rng, monkeypatch):
    t = rand_sectorial(rng, 6)
    sec = fit_sector(numerical_range(t, 64), margin=0.05)
    log = count_calls(monkeypatch, contour._resolvent_nodes)
    semigroup.emap(0.8, t, sec, check_range=False)
    sizes = [len(rule.nodes) for _, rule in log]
    assert max(sizes) == CHUNK_NODES and len(sizes) > 1
    assert all(s == CHUNK_NODES for s in sizes[:-1])


def test_track_step_is_one_pass_and_one_oracle(monkeypatch):
    fam = lambda s: np.diag([0.1 * s, 1.0, 2.0]).astype(complex)
    solves = count_calls(monkeypatch, contour._resolvent_nodes)
    oracles = count_calls(monkeypatch, numcore.eigvals_oracle)
    steps = 3
    eigenstate.track_eigenvalue(fam, [0.0, 0.5, 1.0], Circle(0.0, 0.3, 128))
    assert sum(len(rule.nodes) for _, rule in solves) == steps * 128
    assert len(solves) == steps * 128 // CHUNK_NODES
    assert len(oracles) == steps
