import cmath
import math
import sys

import numpy as np
import pytest

import scipy.linalg as sla

from sectorial import contour, eigenstate, numcore, semigroup
from sectorial.contour import (
    CHUNK_NODES,
    TRACE_CHUNK_NODES,
    Circle,
    Polyline,
    QuadratureRule,
    RightBoundary,
    enclosed_count,
    extract_eigenvalue,
    hessenberg_trace_sum,
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
    SingularMatrixError,
    SpectrumHitError,
)
from sectorial.forms import Sector, fit_sector, numerical_range

from conftest import rand_complex, rand_hermitian, rand_sectorial


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

def node_resolvent(h, z):
    """R(z, H) from the engine's per-node step on a one-node rule."""
    (r,) = contour._resolvent_nodes(h, QuadratureRule(np.array([complex(z)]),
                                                      np.array([1.0 + 0j]), closed=False))
    return r


def reference_sums(a, rule, funcs):
    """Hessenberg form A = Q H Q*, the per-node resolvent of H one node at a
    time, pairwise_sum over every weighted term, then Q S Q*: the definition
    the chunked, streaming engine must reproduce bit for bit."""
    h, q = sla.hessenberg(a, calc_q=True)
    res = [node_resolvent(h, z) for z in rule.nodes]
    return [q @ numcore.pairwise_sum([w * f(z) * r for z, w, r in zip(rule.nodes, rule.weights, res)])
            @ q.conj().T for f in funcs]


def dense_reference_sums(a, rule, funcs):
    """Dense per-node solve of A - zI, then pairwise_sum over every term."""
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
    # |arg beta| at 0.8 of pi/2 - half_angle leaves a thin room: ~370 nodes
    beta = 1.2 * cmath.exp(0.8j * (math.pi / 2 - sec.half_angle))
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


def test_engine_matches_dense_solve_reference(rng):
    near_jordan = 2.0 * np.eye(12) + np.diag(np.ones(11), 1)
    near_jordan[-1, 0] = 1e-10
    q = np.linalg.qr(rand_complex(rng, 12))[0]
    deflated = np.triu(rand_complex(rng, 10), -1)
    deflated[5, 4] = 0.0
    # subdiagonal 10 against entries ~0.1: rows swap at every step for
    # every node of the radius-5 circle (asserted below)
    swapping = np.triu(0.1 * rand_complex(rng, 10))
    swapping[np.arange(1, 10), np.arange(9)] = 10.0
    nonnormal = np.diag(np.arange(8.0)) + 3.0 * np.triu(rand_complex(rng, 8), 1)
    cases = {
        "random non-normal": (rand_complex(rng, 16), Circle(0.0, 3.0, 64)),
        "graded non-normal": (nonnormal, Circle(2.0, 1.5, 64)),
        "near-Jordan": (q @ near_jordan @ q.conj().T, Circle(2.0, 1.5, 64)),
        "deflated Hessenberg": (deflated, Circle(0.0, 2.5, 64)),
        "pivot swap at every step": (swapping, Circle(0.0, 5.0, 128)),
        "n=1": (np.array([[0.7 + 0.1j]]), Circle(0.5, 1.0, 32)),
        "n=2": (rand_complex(rng, 2), Circle(0.0, 4.0, 33)),
    }
    assert sla.hessenberg(deflated)[5, 4] == 0.0
    funcs = [lambda z: 1.0, lambda z: z]
    for name, (a, c) in cases.items():
        rule = c.rule()
        # the O(n^2) LU swaps rows exactly where LAPACK's GEPP does
        h = sla.hessenberg(a)
        _, _, swap = contour._hessenberg_lu(h, rule.nodes)
        n = a.shape[0]
        gepp = [sla.lu_factor(h - z * np.eye(n))[1][:-1] == np.arange(1, n) for z in rule.nodes]
        assert np.array_equal(swap, np.array(gepp).reshape(swap.shape)), name
        assert swap.all() or name != "pivot swap at every step"
        for got, ref in zip(contour.resolvent_sums(a, rule, funcs), dense_reference_sums(a, rule, funcs)):
            assert np.linalg.norm(ref) > 1.0, name
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_engine_node_on_eigenvalue_raises_singular():
    a = np.diag([0.0, 1.0, 3.0]).astype(complex)
    rule = QuadratureRule(np.array([2.0, 1.0 + 0j]), np.ones(2, dtype=complex), closed=False)
    with pytest.raises(SingularMatrixError, match="pivot") as err:
        contour.resolvent_sums(a, rule, [lambda z: 1.0])
    assert "node 1 (zeta = 1+0j)" in str(err.value)


def test_engine_reduces_once_per_call(rng, monkeypatch):
    t = rand_sectorial(rng, 6)
    sec = fit_sector(numerical_range(t, 64), margin=0.05)
    calls = []
    hessenberg = sla.hessenberg
    monkeypatch.setattr(contour.sla, "hessenberg",
                        lambda *args, **kw: calls.append(args) or hessenberg(*args, **kw))
    semigroup.emap(0.8, t, sec, check_range=False)
    assert len(calls) == 1


def test_gauss_rule_is_computed_once_per_order(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda order: calls.append(order) or leggauss(order))
    contour._legendre.cache_clear()
    first = Polyline(vertices=(0.0, 2.0, 1.0 + 2.0j), order=16, panels=4).rule()
    again = Polyline(vertices=(0.0, 2.0, 1.0 + 2.0j), order=16, panels=4).rule()
    assert calls == [16]
    assert same_bits(first.nodes, again.nodes) and same_bits(first.weights, again.weights)
    x, w = leggauss(16)
    assert same_bits(contour._legendre(16)[0], x) and same_bits(contour._legendre(16)[1], w)
    contour._legendre.cache_clear()


# -- trace engine ---------------------------------------------------------------

def dense_trace(t, z):
    n = t.shape[0]
    return np.trace(np.linalg.solve(t - z * np.eye(n), np.eye(n)))


def node_trace(h, z):
    """Tr R(z, H) from the trace engine on a one-node, unit-weight rule."""
    rule = QuadratureRule(np.array([complex(z)]), np.array([1.0 + 0j]), closed=False)
    return hessenberg_trace_sum(h, rule, lambda _: 1.0)


def test_hyman_traces_match_dense_trace(rng):
    ring = 2.0 + 1.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False))
    shifts = np.array([3.1 + 0.5j, -0.5 - 0.7j, 1.2 + 2.0j, 0.3 - 0.2j])
    blocks = np.triu(rand_complex(rng, 16), -1)
    blocks[8, 7] = 0.0
    jordan = 2.0 * np.eye(40) + np.diag(np.ones(39), 1)
    jordan[-1, 0] = 1e-10
    q = np.linalg.qr(rand_complex(rng, 40))[0]
    # x grows like 1e9 per row here: overflows unless rescaled
    graded = np.triu(rand_complex(rng, 80))
    graded[np.arange(1, 80), np.arange(79)] = 1e-9
    cases = {
        "n=1": (np.array([[0.7 + 0.1j]]), shifts),
        "diagonal": (np.diag([0.0, 1.0, 2.5, -1.0, 4.0]).astype(complex), shifts),
        "hermitian": (rand_hermitian(rng, 64, lo=0.1, hi=6.0), shifts),
        "block triangular": (blocks, shifts),
        "near-Jordan": (q @ jordan @ q.conj().T, ring),
        "tiny subdiagonal": (graded, np.array([6.0 + 6.0j, -6.0 - 2.0j, 0.5 + 7.0j])),
    }
    for name, (t, zs) in cases.items():
        h = sla.hessenberg(t)
        for z in zs:
            ref = dense_trace(t, z)
            assert abs(node_trace(h, z) - ref) <= 1e-12 * abs(ref), f"{name} at {z}"


def test_hyman_traces_on_sector_nodes_dim256(rng):
    t = rand_sectorial(rng, 256)
    rule = semigroup._wedge_rule(1.0, fit_sector(numerical_range(t, 64), margin=0.05))
    h = sla.hessenberg(t)
    for z in rule.nodes[::4]:
        ref = dense_trace(t, z)
        assert abs(node_trace(h, z) - ref) <= 1e-12 * abs(ref), f"node {z}"


def test_trace_sum_chunks_in_node_order(rng):
    t = rand_sectorial(rng, 12)
    sec = fit_sector(numerical_range(t, 64), margin=0.05)
    # |arg beta| at 0.9 of pi/2 - half_angle leaves a thin room: ~860 nodes
    beta = 0.5 * cmath.exp(0.9j * (math.pi / 2 - sec.half_angle))
    rule = semigroup._wedge_rule(beta, sec)
    assert len(rule.nodes) > 2 * TRACE_CHUNK_NODES
    h = sla.hessenberg(t)
    f = lambda z: cmath.exp(-beta * z)
    terms = [w * f(z) * node_trace(h, z) for z, w in zip(rule.nodes, rule.weights)]
    ref = numcore.pairwise_sum(terms)
    assert abs(hessenberg_trace_sum(h, rule, f) - ref) <= 1e-12 * abs(ref)


def test_trace_engine_rejects_node_on_eigenvalue():
    h = np.diag([0.0, 1.0]).astype(complex)
    rule = QuadratureRule(np.array([2.0, 1.0 + 0j]), np.ones(2, dtype=complex), closed=False)
    with pytest.raises(SpectrumHitError, match="node 1"):
        hessenberg_trace_sum(h, rule, lambda z: 1.0)


def test_chunk_nodes_bound_the_chunk_bytes():
    # 32 nodes up to n = 1024 (2**29 bytes of resolvents), fewer above
    assert contour._chunk_nodes(256) == CHUNK_NODES == 32
    assert contour._chunk_nodes(1024) == 32
    assert contour._chunk_nodes(2048) == 8
    assert contour._chunk_nodes(10 ** 5) == 1
