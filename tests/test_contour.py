import cmath
import math
import sys
import tracemalloc
import weakref
from contextlib import closing

import numpy as np
import pytest

import scipy.linalg as sla

from sectorial import cli, contour, eigenstate, numcore, schrodinger, semigroup
from sectorial.contour import (
    CHUNK_NODES,
    TRACE_CHUNK_NODES,
    Circle,
    Polyline,
    QuadratureRule,
    RightBoundary,
    enclosed_pair,
    extract_eigenvalue,
    low_energy_hamiltonian,
    projected_operator,
    rank_of_projection,
    rdt_function,
    riesz_projection,
    schur_trace_sum,
    spectral_pair,
)
from sectorial.errors import (
    ContourThroughSpectrumError,
    DegenerateEnclosureError,
    EmptyEnclosureError,
    GammaHitsSpectrumError,
    NotAProjectionError,
    ProbeOrthogonalError,
    RankNotOneError,
    SingularMatrixError,
    SpectrumHitError,
)
from sectorial.forms import Sector, fit_sector, numerical_range

from conftest import (count_decompositions, count_pair_passes, exact_hermitian, lattice_problem,
                      lattice_ramp_end, rand_complex, rand_hermitian, rand_sectorial)


def oracle_projector(a, inside):
    """Spectral projector from the eigen oracle: V 1_S V^{-1}."""
    data = numcore.eig_oracle(a)
    sel = np.array([inside(lam) for lam in data.eigenvalues])
    v = data.right_eigenvectors
    vinv = np.linalg.inv(v)
    return v[:, sel] @ vinv[sel, :]


def test_circle_rule_self_test():
    rule = Circle(center=1.0 + 1.0j, radius=0.7, nodes=32).rule()
    assert abs(rule.circulation()) <= 1e-12
    assert rule.winding(1.2 + 0.9j) == pytest.approx(1.0, abs=1e-10)
    assert abs(rule.winding(3.0)) <= 1e-8


def test_polyline_rule_self_test():
    tri = Polyline(vertices=(0.0, 2.0, 1.0 + 2.0j), order=16, panels=4)
    rule = tri.rule()
    assert abs(rule.circulation()) <= 1e-10
    assert rule.winding(1.0 + 0.5j) == pytest.approx(1.0, abs=1e-9)


def test_polyline_default_panels_match_the_cli():
    vertices = (-1.0 - 1.0j, 1.0 - 1.0j, 1.0 + 1.0j, -1.0 + 1.0j)
    cfg = {"contour": {"type": "polyline", "vertices": [[z.real, z.imag] for z in vertices], "order": 5}}
    library, cli_rule = Polyline(vertices, 5).rule(), cli.parse_contour(cfg).rule()
    assert np.array_equal(library.nodes, cli_rule.nodes)
    assert np.array_equal(library.weights, cli_rule.weights)


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


def test_trapezoid_extraction_converges_geometrically(monkeypatch):
    monkeypatch.setattr(contour, "CLEARANCE_FACTOR", 1.0)
    a = np.diag([0.0, 1.3]).astype(complex)
    errs = []
    for m in (16, 32, 64):
        e = extract_eigenvalue(a, Circle(0.0, 0.55, m))
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


@pytest.mark.parametrize("order", [4, 6])
def test_low_energy_low_order_clears(order):
    # panels of length dmin/2 fail the clearance check here at orders <= 6
    a = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    rb = RightBoundary(abscissa=0.5, sector=Sector(vertex=-0.5, half_angle=0.2))
    p, a_low = low_energy_hamiltonian(a, rb, order=order)
    assert abs(np.trace(p) - 1.0) <= 1e-12
    assert abs(np.trace(a_low)) <= 1e-12


def test_panel_gap_closed_forms():
    assert contour._panel_gap(1) == 1.0
    assert contour._panel_gap(2) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert contour._panel_gap(16) == pytest.approx(0.0950, abs=5e-5)


@pytest.mark.parametrize("order", range(1, 33))
def test_right_boundary_triangle_spacing_clears(order, monkeypatch):
    built = []
    integrate = contour._integrate_rdt
    monkeypatch.setattr(contour, "_integrate_rdt", lambda a, tri, *args, **kw:
                        built.append(tri) or integrate(a, tri, *args, **kw))
    cases = [(np.array([0.0, 1.0, 2.0, 3.0]),
              RightBoundary(abscissa=0.5, sector=Sector(vertex=-0.5, half_angle=0.2))),
             (np.array([0.3 + 0.2j, 1.1 - 0.1j, 2.0 + 0.3j, 4.0]),
              RightBoundary(abscissa=1.5, sector=Sector(vertex=-0.5, half_angle=0.3)))]
    for spec, rb in cases:
        low_energy_hamiltonian(np.diag(spec), rb, order=order)
        verts = list(built[-1].vertices)
        dmin = min(contour._segment_spectrum_distance(p0, p1, spec)
                   for p0, p1 in zip(verts, verts[1:] + verts[:1]))
        assert built[-1].rule().max_spacing() * contour.CLEARANCE_FACTOR <= dmin


def enclosed_count(a, contour) -> int:
    """Number of eigenvalues (oracle, with multiplicity) the contour winds around."""
    rule = contour.rule()
    return int(sum(int(round(rule.winding(z).real)) for z in numcore.eigvals_oracle(a)))


def test_enclosed_count(rng):
    a = np.diag([0.0, 1.0, 1.0, 4.0]).astype(complex)
    assert enclosed_count(a, Circle(1.0, 0.5, 64)) == 2
    assert enclosed_count(a, Circle(1.0, 2.0, 64)) == 3
    assert enclosed_count(a, Circle(-3.0, 1.0, 64)) == 0


# -- the streaming engine -------------------------------------------------------

def node_resolvent(t, z):
    """R(z, T) from the engine's per-node step on a one-node rule."""
    (r,) = contour._resolvent_nodes(t, QuadratureRule(np.array([complex(z)]),
                                                      np.array([1.0 + 0j]), closed=False))
    return r


def reference_sums(a, rule, funcs):
    """Schur form A = Z T Z*, the per-node resolvent of T one node at a
    time, pairwise_sum over every weighted term, then Z S Z*: the definition
    the chunked, streaming engine must reproduce bit for bit."""
    t, q, _ = numcore.schur_oracle(a)
    res = [node_resolvent(t, z) for z in rule.nodes]
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
        # extraction takes Tr AP from the trace engine, not the resolvent
        # sum, so it agrees with the resolvent path to rounding, not bit for bit
        e_ref = complex(np.trace(-ap_ref / (2j * math.pi)))
        assert abs(extract_eigenvalue(t, c) - e_ref) <= 1e-13 * abs(e_ref)


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
    schurs = count_calls(monkeypatch, numcore.schur_oracle)
    decompositions = count_decompositions(monkeypatch)
    resolvents = count_calls(monkeypatch, contour._resolvent_nodes)
    oracles = count_calls(monkeypatch, numcore.eigvals_oracle)
    steps = 3
    eigenstate.track_eigenvalue(fam, [0.0, 0.5, 1.0], Circle(0.0, 0.3, 128))
    assert len(schurs) == len(decompositions) == steps
    assert not resolvents and not oracles


def test_lattice_ramp_end_is_decomposed_once(rng, monkeypatch):
    grid, space, base, dirs, x_end, w = lattice_problem(rng, 6)
    # the serial loop, one decomposition at a time, so they come in path order (test_eigenstate's
    # test_prefetched_lattice_job_makes_three_decompositions counts them with the next point ahead)
    monkeypatch.setattr(eigenstate, "schur_ahead", iter)
    with monkeypatch.context() as patch:
        calls = count_decompositions(patch)
        shared = lattice_ramp_end(grid, space, base, dirs, x_end, w)
    # three ramp steps, the first at real fields (hermitian); Hellmann-Feynman
    # and the density reuse the last one
    assert [kind for kind, _ in calls] == ["eigh", "schur", "schur"]
    oracle = numcore.schur_oracle

    def fresh(a):
        numcore.drop_schur_memo()
        return oracle(a)
    monkeypatch.setattr(contour, "schur_oracle", fresh)
    calls = count_decompositions(monkeypatch)
    alone = lattice_ramp_end(grid, space, base, dirs, x_end, w)
    assert len(calls) == 5
    for got, ref in zip(shared, alone):
        assert got.tobytes() == ref.tobytes()


def test_engine_matches_dense_solve_reference(rng):
    near_jordan = 2.0 * np.eye(12) + np.diag(np.ones(11), 1)
    near_jordan[-1, 0] = 1e-10
    q = np.linalg.qr(rand_complex(rng, 12))[0]
    deflated = np.triu(rand_complex(rng, 10), -1)
    deflated[5, 4] = 0.0
    # subdiagonal 10 against entries ~0.1: strongly non-normal
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
        for got, ref in zip(contour.resolvent_sums(a, rule, funcs), dense_reference_sums(a, rule, funcs)):
            assert np.linalg.norm(ref) > 1.0, name
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_engine_operand_matches_per_node_solves(rng, monkeypatch):
    # sum_j w_j f(zeta_j) R b R against a dense solve per node: a non-normal A
    # (triangular Schur form) and an exactly hermitian one (diagonal, no resolvent)
    nonnormal = np.diag(np.arange(6.0)) + 0.5 * rand_complex(rng, 6)
    cases = {"triangular T": (nonnormal, Circle(1.0, 1.7, 64)),
             "diagonal T": (exact_hermitian(rng, 6, lo=0.0, hi=5.0), Circle(1.0, 1.7, 64))}
    funcs = [lambda z: 1.0, lambda z: cmath.exp(-0.7 * z)]
    eye = np.eye(6, dtype=complex)
    resolvents = count_calls(monkeypatch, contour._resolvent_nodes)
    for name, (a, c) in cases.items():
        rule = c.rule()
        b = rand_complex(rng, 6)
        res = [numcore.solve(a - z * eye, eye) for z in rule.nodes]
        refs = [numcore.pairwise_sum([w * f(z) * (r @ b @ r)
                                      for z, w, r in zip(rule.nodes, rule.weights, res)])
                for f in funcs]
        resolvents.clear()
        got = contour.resolvent_sums(a, rule, funcs, b=b)
        assert bool(resolvents) == (name == "triangular T"), name
        for s, ref in zip(got, refs):
            assert np.linalg.norm(ref) > 0.1, name
            assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref), name
        # B = Z* b Z and every product scale exactly: linear in b bit for bit
        for s2, s in zip(contour.resolvent_sums(a, rule, funcs, b=2 * b), got):
            assert same_bits(s2, 2 * s), name


def test_engine_node_on_eigenvalue_raises_singular():
    rule = QuadratureRule(np.array([2.0, 1.0 + 0j]), np.ones(2, dtype=complex), closed=False)
    # hermitian (a diagonal Schur form) and not (a triangular one)
    for a in (np.diag([0.0, 1.0, 3.0]), np.diag([0.0, 1.0, 3.0]) + np.diag([0.0, 1.0], 1)):
        with pytest.raises(SingularMatrixError, match="pivot") as err:
            contour.resolvent_sums(a.astype(complex), rule, [lambda z: 1.0])
        assert "node 1 (zeta = 1+0j)" in str(err.value)


@pytest.mark.parametrize("a", [np.diag([0.0, 5.0]), np.array([[0.0, 1.0], [0.0, 5.0]])],
                         ids=["diagonal T", "triangular T"])
def test_engines_raise_spectrum_hit_on_a_pivot_with_no_finite_reciprocal(a):
    # pivot 0 - 1e-310 is finite and nonzero, but 1 / pivot overflows
    a = a.astype(complex)
    rule = QuadratureRule(np.array([1e-310, 2.0 + 0j]), np.ones(2, dtype=complex), closed=False)
    t = numcore.schur_oracle(a)[0]
    assert np.array_equal(np.diagonal(t), [0.0, 5.0])
    probes = np.ones((2, 2), dtype=complex)
    for engine in (lambda: contour.resolvent_sums(a, rule, [lambda z: 1.0]),
                   lambda: schur_trace_sum(t, rule, [lambda z: 1.0]),
                   lambda: contour._triangular_probe_sums(t, rule, *probes)):
        with pytest.raises(SpectrumHitError, match="node 0 ") as err:
            engine()
        assert isinstance(err.value, SingularMatrixError)


def test_diagonal_sums_are_pairwise_sum_bit_for_bit(rng, monkeypatch):
    a = exact_hermitian(rng, 12)
    t, q, _ = numcore.schur_oracle(a)
    lam = np.diagonal(t)
    assert np.array_equal(t, np.diag(lam))
    resolvents = count_calls(monkeypatch, contour._resolvent_nodes)
    rule = Circle(2.5, 1.0, 2 * TRACE_CHUNK_NODES + 88).rule()  # three chunks, the last short
    funcs = [lambda z: 1.0, lambda z: z, lambda z: cmath.exp(-0.7 * z)]
    got = contour.resolvent_sums(a, rule, funcs)
    assert not resolvents
    for f, s in zip(funcs, got):
        diag_sum = numcore.pairwise_sum([w * f(z) * (1.0 / (lam - z))
                                         for z, w in zip(rule.nodes, rule.weights)])
        assert same_bits(s, (q * diag_sum) @ q.conj().T)


@pytest.mark.parametrize("n", [1, 2, 17, 256])
def test_hermitian_contour_quantities_match_their_oracles(n, rng):
    # acceptance tolerances: criterion 03 (P, eigenvalue) and 05 (e^{-beta A})
    a = exact_hermitian(rng, n, lo=0.5, hi=3.0)
    data = numcore.eig_oracle(a)
    spec, v = data.eigenvalues, data.right_eigenvectors[:, 0]
    gap = abs(spec[1] - spec[0]) if n > 1 else 1.0
    c = Circle(complex(spec[0]), 0.4 * gap, 128)
    p = riesz_projection(a, c)
    assert np.linalg.norm(p - np.outer(v, v.conj()), 2) <= 1e-8
    assert np.linalg.norm(p @ p - p, 2) <= 1e-8
    assert rank_of_projection(p) == 1
    assert abs(extract_eigenvalue(a, c) - spec[0]) <= 1e-8
    beta = 0.9 * cmath.exp(0.4j)
    e = semigroup.emap(beta, a, Sector(vertex=0.0, half_angle=0.1))
    oracle = numcore.expm_oracle(-beta * a)
    assert np.linalg.norm(e - oracle, 2) <= 1e-6 * np.linalg.norm(oracle, 2)


def diagonal_pass_peak(a, rule):
    """Peak traced bytes of one resolvent_sums pass on a kept diagonal
    Schur form, after a warm-up pass on the same A and rule."""
    contour.resolvent_sums(a, rule, [lambda z: 1.0])
    tracemalloc.start()
    try:
        contour.resolvent_sums(a, rule, [lambda z: 1.0])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagonal_pass_memory_does_not_grow_with_the_node_count(rng):
    a = exact_hermitian(rng, 128)
    peaks = {m: diagonal_pass_peak(a, Circle(2.5, 1.0, m).rule())
             for m in (TRACE_CHUNK_NODES, 16 * TRACE_CHUNK_NODES)}
    # one block of TRACE_CHUNK_NODES pivots at a time; only log2 m partial sums add up
    assert peaks[16 * TRACE_CHUNK_NODES] <= 1.05 * peaks[TRACE_CHUNK_NODES]


def test_engine_reduces_once_per_call(rng, monkeypatch):
    t = rand_sectorial(rng, 6)
    sec = fit_sector(numerical_range(t, 64), margin=0.05)
    calls = count_decompositions(monkeypatch)
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


def node_trace(t, z):
    """Tr R(z, T) from the trace engine on a one-node, unit-weight rule."""
    rule = QuadratureRule(np.array([complex(z)]), np.array([1.0 + 0j]), closed=False)
    return schur_trace_sum(t, rule, [lambda _: 1.0])[0]


def test_schur_traces_match_dense_trace(rng):
    ring = 2.0 + 1.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False))
    shifts = np.array([3.1 + 0.5j, -0.5 - 0.7j, 1.2 + 2.0j, 0.3 - 0.2j])
    blocks = np.triu(rand_complex(rng, 16), -1)
    blocks[8, 7] = 0.0
    jordan = 2.0 * np.eye(40) + np.diag(np.ones(39), 1)
    jordan[-1, 0] = 1e-10
    q = np.linalg.qr(rand_complex(rng, 40))[0]
    # subdiagonal 1e-9 against entries ~1: strongly graded and non-normal
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
        h = numcore.schur_oracle(t)[0]
        for z in zs:
            ref = dense_trace(t, z)
            assert abs(node_trace(h, z) - ref) <= 1e-12 * abs(ref), f"{name} at {z}"


def test_schur_traces_on_sector_nodes_dim256(rng):
    t = rand_sectorial(rng, 256)
    rule = semigroup._wedge_rule(1.0, fit_sector(numerical_range(t, 64), margin=0.05))
    h = numcore.schur_oracle(t)[0]
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
    h = numcore.schur_oracle(t)[0]
    f = lambda z: cmath.exp(-beta * z)
    terms = [w * f(z) * node_trace(h, z) for z, w in zip(rule.nodes, rule.weights)]
    ref = numcore.pairwise_sum(terms)
    assert abs(schur_trace_sum(h, rule, [f])[0] - ref) <= 1e-12 * abs(ref)


def test_trace_engine_rejects_node_on_eigenvalue():
    h = np.diag([0.0, 1.0]).astype(complex)
    rule = QuadratureRule(np.array([2.0, 1.0 + 0j]), np.ones(2, dtype=complex), closed=False)
    with pytest.raises(SpectrumHitError, match="node 1"):
        schur_trace_sum(h, rule, [lambda z: 1.0])


def test_trace_engine_rejects_a_matrix_that_is_not_triangular():
    rule = QuadratureRule(np.array([2.0 + 0j]), np.ones(1, dtype=complex), closed=False)
    with pytest.raises(ValueError, match="upper-triangular"):
        schur_trace_sum(np.array([[0.0, 1.0], [1e-300, 0.0]]), rule, [lambda z: 1.0])


@pytest.mark.parametrize("quantity", ["riesz", "spectral_pair", "low_energy"])
def test_full_matrix_pass_is_one_schur_decomposition(quantity, rng, monkeypatch):
    t = rand_sectorial(rng, 12, angle=0.2, lo=0.5, hi=6.0)
    spec = numcore.eigvals_oracle(t)
    circle = Circle(complex(spec[0]), 0.4 * abs(spec[1] - spec[0]), 64)
    right = RightBoundary(abscissa=0.5 * float(spec[5].real + spec[6].real),
                          sector=fit_sector(numerical_range(t, 64), margin=0.05))
    run = {"riesz": lambda: riesz_projection(t, circle),
           "spectral_pair": lambda: spectral_pair(t, circle),
           "low_energy": lambda: low_energy_hamiltonian(t, right)}[quantity]
    schurs = count_decompositions(monkeypatch)
    oracles = count_calls(monkeypatch, numcore.eigvals_oracle)
    reductions = []
    hessenberg = sla.hessenberg
    monkeypatch.setattr(sla, "hessenberg",
                        lambda *args, **kw: reductions.append(args) or hessenberg(*args, **kw))
    run()
    assert len(schurs) == 1 and not oracles and not reductions


def test_a_rule_of_several_chunks_is_cleared_once(rng, monkeypatch):
    a = rand_sectorial(rng, 8)
    spec = numcore.eigvals_oracle(a)
    circle = Circle(complex(spec[0]), 0.4 * np.abs(spec[1:] - spec[0]).min(),
                    2 * TRACE_CHUNK_NODES + 88)
    checks = count_calls(monkeypatch, contour._check_clearance)
    riesz_projection(a, circle)
    assert len(checks) == 1


def test_chunk_nodes_bound_the_chunk_bytes():
    # 32 nodes up to n = 1024 (2**29 bytes of resolvents), fewer above
    assert contour._chunk_nodes(256) == CHUNK_NODES == 32
    assert contour._chunk_nodes(1024) == 32
    assert contour._chunk_nodes(2048) == 8
    assert contour._chunk_nodes(10 ** 5) == 1


# -- rank-one pairs from probe solves -------------------------------------------

def pair_reference(a, c):
    """(rank_one_decompose(P), Tr AP) from the full projection P and AP."""
    p, ap = contour.spectral_pair(a, c)
    return eigenstate.rank_one_decompose(p), complex(np.trace(ap))


def assert_pair_matches(a, c, tol=1e-12):
    phi, eta, energy, _ = enclosed_pair(a, c)
    ref, e_ref = pair_reference(a, c)
    phase = phi[ref.pin] / abs(phi[ref.pin])
    assert abs(energy - e_ref) <= tol * abs(e_ref)
    assert np.linalg.norm(phi / phase - ref.phi) <= tol
    assert np.linalg.norm(eta / phase - ref.eta) <= tol * np.linalg.norm(ref.eta)
    assert abs(eta.conj() @ phi - 1.0) <= tol


def test_enclosed_pair_matches_decomposed_projection_sectorial(rng):
    # subdiagonal 10 against entries ~0.1: a strongly non-normal pair case
    swapping = np.triu(0.1 * rand_complex(rng, 10))
    swapping[np.arange(1, 10), np.arange(9)] = 10.0
    for t in [rand_sectorial(rng, n) for n in (1, 2, 9, 40)] + [swapping]:
        n = t.shape[0]
        spec = numcore.eigvals_oracle(t)
        for k in {0, n // 2, n - 1}:
            others = np.delete(spec, k)
            gap = np.abs(others - spec[k]).min() if others.size else 1.0
            c = Circle(complex(spec[k]), 0.4 * gap, 128)
            assert_pair_matches(t, c)


def test_enclosed_pair_matches_decomposed_projection_lattice(rng, monkeypatch):
    grid = schrodinger.Grid(d=1, n=8, delta=0.5)
    space = schrodinger.ManyBodySpace(grid=grid, particles=2)
    x = np.arange(8)
    base = schrodinger.FieldConfig.zero(grid, u0=1.5 + np.cos(2 * np.pi * x / 8),
                                        v0=0.4 / (1.0 + (0.5 * np.minimum(x, 8 - x)) ** 2))
    dirs = [schrodinger.delta_u(grid, j) for j in range(8)] \
        + [schrodinger.delta_a(grid, 0, (j,)) for j in range(8)]
    fam, _ = schrodinger.config_family(grid, space, base, dirs)
    # a complex field ramp: the family is not hermitian, so eta != phi
    mat = fam(0.05 * rng.standard_normal(len(dirs)) * (1.0 + 0.3j))
    spec = numcore.eigvals_oracle(mat)
    for k in (0, 1):
        gap = np.abs(np.delete(spec, k) - spec[k]).min()
        assert_pair_matches(mat, Circle(complex(spec[k]), 0.4 * gap, 64))
    phi, eta, _, _ = enclosed_pair(mat, Circle(complex(spec[0]), 0.4 * abs(spec[1] - spec[0])))
    assert np.linalg.norm(eta - phi) > 1e-6
    # at real fields T is diagonal: the pair path divides by the pivots and
    # keeps the bits of the full substitutions
    herm = fam(np.zeros(len(dirs)))
    spec = numcore.eigvals_oracle(herm)
    c = Circle(complex(spec[0]), 0.4 * abs(spec[1] - spec[0]))
    pair = enclosed_pair(herm, c)
    with monkeypatch.context() as patch:
        patch.setattr(contour, "_is_diagonal", lambda t: False)
        patch.setattr(contour, "kept_pair", lambda t: None)  # a second pass, not the kept pair
        passes = count_pair_passes(patch)
        assert all(same_bits(got, ref) for got, ref in zip(pair, enclosed_pair(herm, c)))
        assert len(passes) == 1


def test_enclosed_pair_typed_enclosure_errors():
    with pytest.raises(EmptyEnclosureError):
        enclosed_pair(np.diag([3.0, 7.0]), Circle(-5.0, 1.0, 64))
    with pytest.raises(DegenerateEnclosureError):
        enclosed_pair(np.diag([3.0, 3.5]), Circle(3.25, 2.0, 256))
    with pytest.raises(ContourThroughSpectrumError):
        enclosed_pair(np.diag([3.0, 3.5]), Circle(3.0, 0.45, 64))


def use_probes(monkeypatch, v, u):
    monkeypatch.setattr(contour, "_default_probes", lambda n: np.array([v, u]))


def test_enclosed_pair_rejects_probes_orthogonal_to_the_pair(rng, monkeypatch):
    n = 6
    a = np.diag(np.arange(n, dtype=float)) + np.triu(0.3 * rand_complex(rng, n), 1)
    c = Circle(0.0, 0.4, 128)
    ref, _ = pair_reference(a, c)
    good = rand_complex(rng, n, 1).ravel()
    use_probes(monkeypatch, good, good)
    assert enclosed_pair(a, c)[2] == pytest.approx(0.0, abs=1e-12)
    for eps in (0.0, 1e-9):
        # v nearly orthogonal to eta, then u nearly orthogonal to phi
        v = good - (ref.eta.conj() @ good) / (ref.eta.conj() @ ref.eta) * ref.eta + eps * ref.eta
        u = good - (ref.phi.conj() @ good) * ref.phi + eps * ref.phi
        for probes in ((v, good), (good, u)):
            use_probes(monkeypatch, *probes)
            with pytest.raises(ProbeOrthogonalError):
                enclosed_pair(a, c)


def test_enclosed_pair_residual_check_rejects_an_inaccurate_rule(monkeypatch):
    a = np.diag([0.0, 1.3]).astype(complex)
    # 8 trapezoid nodes leave Tr P within TRACE_TOL of 1 but phi off by ~1e-3
    c = Circle(0.0, 0.55, 8)
    use_probes(monkeypatch, np.ones(2), np.ones(2))
    monkeypatch.setattr(contour, "CLEARANCE_FACTOR", 0.0)
    with pytest.raises(RankNotOneError, match="residuals"):
        enclosed_pair(a, c)
    monkeypatch.setattr(contour, "CLEARANCE_FACTOR", 1.0)
    phi, _, _, _ = enclosed_pair(a, Circle(0.0, 0.55, 64))
    assert abs(abs(phi[0]) - 1.0) <= 1e-14


def test_enclosed_pair_node_on_a_schur_pivot_raises_singular(monkeypatch):
    monkeypatch.setattr(contour, "CLEARANCE_FACTOR", 0.0)
    a = np.diag([0.0, 1.0, 3.0]).astype(complex)
    # node 0 of the 4-node unit circle is exactly 1 + 0j, an eigenvalue
    with pytest.raises(SingularMatrixError, match="Schur pivot") as err:
        enclosed_pair(a, Circle(0.0, 1.0, 4))
    assert "node 0 (zeta = 1+0j)" in str(err.value)


def test_shifted_triangular_solves_match_per_node_reference(rng):
    near_jordan = 2.0 * np.eye(12) + np.diag(np.ones(11), 1)
    near_jordan[-1, 0] = 1e-10
    nonnormal = np.diag(np.arange(8.0)) + 3.0 * np.triu(rand_complex(rng, 8), 1)
    cases = {
        "random non-normal": (rand_complex(rng, 16), Circle(0.0, 3.0, 64)),
        "graded non-normal": (nonnormal, Circle(2.0, 1.5, 64)),
        "near-Jordan": (near_jordan, Circle(2.0, 1.5, 64)),
        "n=1": (np.array([[0.7 + 0.1j]]), Circle(0.5, 1.0, 32)),
        "n=2": (rand_complex(rng, 2), Circle(0.0, 4.0, 33)),
        "exactly hermitian (diagonal T)": (exact_hermitian(rng, 10), Circle(2.5, 1.0, 64)),
    }
    for name, (a, c) in cases.items():
        t, _, _ = numcore.schur_oracle(a)
        rule = c.rule()
        n, z = t.shape[0], rule.nodes
        b, d = rand_complex(rng, 2, n)
        x, y = contour._shifted_triangular_solves(t, z, b, d)
        for j, zj in enumerate(z):
            shifted = t - zj * np.eye(n)
            ref_x = sla.solve_triangular(shifted, b)
            ref_y = sla.solve_triangular(shifted, d, trans="T")
            assert np.linalg.norm(x[:, j] - ref_x) <= 1e-13 * np.linalg.norm(ref_x), name
            assert np.linalg.norm(y[:, j] - ref_y) <= 1e-13 * np.linalg.norm(ref_y), name
        # the pair path's sums (b / pivots on a diagonal T) keep the substitutions' bits
        right, left = contour._triangular_probe_sums(t, rule, b, d)
        assert same_bits(right, numcore.pairwise_sum([w * x[:, j] for j, w in enumerate(rule.weights)]))
        assert same_bits(left, numcore.pairwise_sum([w * y[:, j] for j, w in enumerate(rule.weights)]))


def test_is_diagonal_reads_any_storage_order(rng):
    n = 7
    d = np.diag(rand_complex(rng, n, 1).ravel())
    for i, j in [(0, 1), (0, 2), (n - 3, n - 1), (0, n - 1), (2, 4)]:
        t = d.copy()
        t[i, j] = 1e-300
        # C order, Fortran order, and a view with a negative row stride
        for view in (t, np.asfortranarray(t), t[::-1].copy()[::-1]):
            assert not contour._is_diagonal(view), (i, j)
    for view in (d, np.asfortranarray(d), d[::-1].copy()[::-1], d[:1, :1]):
        assert contour._is_diagonal(view)


def pair_pass_peak(a, c, cold):
    """Peak traced bytes of one enclosed_pair pass after a warm-up pass on
    the same A and another circle, which makes the measured pass reuse the
    Schur decomposition, but not the pair, unless ``cold`` drops it first."""
    enclosed_pair(a, Circle(c.center, 0.9 * c.radius, c.nodes))  # warm caches outside the measurement
    if cold:
        numcore.drop_schur_memo()
    tracemalloc.start()
    try:
        enclosed_pair(a, c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_pass_memory_does_not_grow_with_the_node_count(rng):
    a = rand_sectorial(rng, 128)
    spec = numcore.eigvals_oracle(a)
    gap = np.abs(spec[1:] - spec[0]).min()
    for cold in (True, False):
        peaks = {m: pair_pass_peak(a, Circle(complex(spec[0]), 0.4 * gap, m), cold)
                 for m in (128, TRACE_CHUNK_NODES, 4 * TRACE_CHUNK_NODES)}
        # a 128-node pass solves one half-width block; past one full block of
        # TRACE_CHUNK_NODES nodes only the per-node scalars add up
        assert peaks[128] <= peaks[4 * TRACE_CHUNK_NODES], cold
        assert peaks[4 * TRACE_CHUNK_NODES] <= 1.05 * peaks[TRACE_CHUNK_NODES], cold


# -- the pair kept with the Schur memo entry ------------------------------------

def isolated_circle(a, nodes=64):
    """A circle about the lowest eigenvalue of ``a``, 0.4 of its gap wide."""
    spec = numcore.eigvals_oracle(a)
    return Circle(complex(spec[0]), 0.4 * np.abs(spec[1:] - spec[0]).min(), nodes)


class FixedRule:
    """A contour whose rule is given."""

    def __init__(self, rule):
        self._rule = rule

    def rule(self):
        return self._rule


def test_hellmann_feynman_then_density_make_one_pair_pass(rng, monkeypatch):
    problem = lattice_problem(rng, 6)
    passes = count_pair_passes(monkeypatch)
    kept = lattice_ramp_end(*problem)
    # three tracking steps and Hellmann-Feynman; the density, on HF's matrix and circle, makes none
    assert len(passes) == 4
    numcore.drop_schur_memo()
    monkeypatch.setattr(contour, "kept_pair", lambda t: None)
    cold = lattice_ramp_end(*problem)
    assert len(passes) == 4 + 5
    assert all(same_bits(got, ref) for got, ref in zip(kept, cold))


def test_a_changed_rule_matrix_bit_or_probe_makes_a_new_pass(rng, monkeypatch):
    a = rand_sectorial(rng, 12)
    c = isolated_circle(a)
    passes = count_pair_passes(monkeypatch)
    phi, eta, energy, _ = first = enclosed_pair(a, c)
    again = enclosed_pair(np.asfortranarray(a.copy()), c)  # another array with the same bits
    assert len(passes) == 1 and all(x is y for x, y in zip(first, again))
    for m in (phi, eta):
        with pytest.raises(ValueError):
            m[0] = 1.0
    rule = c.rule()
    weights = rule.weights.copy()
    weights[0] = complex(np.nextafter(weights[0].real, np.inf), weights[0].imag)
    nudged = a.copy()
    nudged[3, 4] = complex(nudged[3, 4].real, np.nextafter(nudged[3, 4].imag, np.inf))
    changes = [(a, Circle(c.center, c.radius, c.nodes + 1)),
               (a, FixedRule(QuadratureRule(rule.nodes, rule.weights, closed=False))),
               (a, FixedRule(QuadratureRule(rule.nodes, weights))),
               (nudged, c)]
    for m, contour_ in changes:
        enclosed_pair(m, contour_)
        enclosed_pair(m, contour_)
        enclosed_pair(a, c)
    assert len(passes) == 1 + 2 * len(changes)
    v, u = rand_complex(rng, 2, 12)
    use_probes(monkeypatch, v, u)
    for _ in range(2):
        got = enclosed_pair(a, c)
    assert len(passes) == 2 + 2 * len(changes)
    assert abs(got[2] - energy) <= 1e-12 * abs(energy)


@pytest.mark.parametrize("name, value, error", [
    ("CLEARANCE_FACTOR", 1e6, ContourThroughSpectrumError),
    ("TRACE_TOL", 0.0, DegenerateEnclosureError),
    ("PROBE_FLOOR", 2.0, ProbeOrthogonalError),
    ("RESIDUAL_TOL", 0.0, RankNotOneError),
])
def test_a_kept_pair_raises_what_a_pass_raises(rng, monkeypatch, name, value, error):
    a = rand_sectorial(rng, 12)
    c = isolated_circle(a)
    passes = count_pair_passes(monkeypatch)
    enclosed_pair(a, c)
    with monkeypatch.context() as patch:
        patch.setattr(contour, name, value)
        with pytest.raises(error) as kept:
            enclosed_pair(a, c)
        assert len(passes) == 1  # the kept figures were checked again, nothing was solved
        patch.setattr(contour, "kept_pair", lambda t: None)
        with pytest.raises(error) as cold:
            enclosed_pair(a, c)
    assert str(kept.value) == str(cold.value)
    # the clearance check comes before any pass; a pass that failed a check kept nothing
    assert len(passes) == (1 if name == "CLEARANCE_FACTOR" else 2)
    enclosed_pair(a, c)
    assert len(passes) == (1 if name == "CLEARANCE_FACTOR" else 2)


def test_the_kept_pair_goes_with_its_entry(rng, monkeypatch):
    a, b = rand_sectorial(rng, 12), rand_sectorial(rng, 12)
    c = isolated_circle(a)
    passes = count_pair_passes(monkeypatch)

    def kept_phi(m):
        return weakref.ref(enclosed_pair(m, c)[0])
    for event in (numcore.drop_schur_memo, lambda: numcore.schur_oracle(b)):
        phi = kept_phi(a)
        assert phi() is not None
        event()
        assert phi() is None
    with closing(numcore.schur_ahead([a, b])) as matrices:
        phi = kept_phi(next(matrices))
        assert phi() is not None
        next(matrices)  # b's decomposition becomes the entry
        assert phi() is None
    assert len(passes) == 3
