import ctypes
import importlib
import itertools
import json
import warnings
from contextlib import closing

import numpy as np
import pytest
import scipy.linalg as sla

from sectorial import cli, numcore
from sectorial.errors import InvalidPError, NoConvergenceError, OverflowError_, SingularMatrixError

from conftest import count_decompositions, exact_hermitian, exchanged, failing_decomposition, \
    rand_complex, rand_hermitian


def test_solve_identity():
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(numcore.solve(eye, eye), eye)


def test_solve_diagonal_inverse():
    a = np.diag([2.0, 4.0]).astype(complex)
    x = numcore.solve(a, np.eye(2, dtype=complex))
    assert np.allclose(x, np.diag([0.5, 0.25]), atol=0, rtol=1e-15)


def test_solve_residual_well_conditioned(rng):
    a = rand_complex(rng, 8) + 8.0 * np.eye(8)
    b = rand_complex(rng, 8, 1)
    x = numcore.solve(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= numcore.TOL_SOLVE
    resid = np.linalg.norm(a @ x - b, 2)
    assert resid <= numcore.TOL_SOLVE * np.linalg.norm(a, 2) * np.linalg.norm(x, 2)


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        numcore.solve(a, np.eye(2, dtype=complex))


def test_eig_diagonal():
    a = np.diag([1.0, 2.0 + 3.0j])
    data = numcore.eig_oracle(a)
    assert np.allclose(data.eigenvalues, [1.0, 2.0 + 3.0j], atol=1e-14)


def test_eig_nilpotent_spectrum_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    data = numcore.eig_oracle(a)
    assert np.abs(data.eigenvalues).max() <= 1e-12
    assert data.condition > 1e6  # defective pair


def test_eig_companion_polynomial_roots():
    # z^2 - 3 z + 2 = (z - 1)(z - 2)
    comp = np.array([[0.0, -2.0], [1.0, 3.0]], dtype=complex)
    data = numcore.eig_oracle(comp)
    assert np.allclose(sorted(data.eigenvalues.real), [1.0, 2.0], atol=1e-12)
    assert np.abs(data.eigenvalues.imag).max() <= 1e-12


def test_eig_residual_invariant(rng):
    for n in (2, 5, 17, 40):
        a = rand_complex(rng, n)
        data = numcore.eig_oracle(a)
        scale = np.linalg.norm(a, 2)
        res = a @ data.right_eigenvectors - data.right_eigenvectors * data.eigenvalues
        assert np.linalg.norm(res, axis=0).max() <= 1e-10 * scale


def test_eig_sort_order(rng):
    a = rand_complex(rng, 12)
    w = numcore.eig_oracle(a).eigenvalues
    key = list(zip(w.real, w.imag))
    assert key == sorted(key)


def test_schur_oracle_factors_and_sorts_like_eigvals(rng):
    for n in (1, 2, 12):
        a = rand_complex(rng, n)
        t, z, spec = numcore.schur_oracle(a)
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 1e-14 * n
        assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
        assert sorted(spec.tolist(), key=lambda w: (w.real, w.imag)) == spec.tolist()
        assert np.abs(spec - numcore.eigvals_oracle(a)).max() <= 1e-12 * np.linalg.norm(a)


def test_schur_oracle_takes_eigh_for_exactly_hermitian_input(rng, monkeypatch):
    calls = count_decompositions(monkeypatch)
    for n in (1, 2, 12, 100):
        a = exact_hermitian(rng, n)
        t, z, spec = numcore.schur_oracle(a)
        assert np.array_equal(t, np.diag(np.diagonal(t)))
        assert np.linalg.norm(z.conj().T @ z - np.eye(n), 2) <= 1e-13
        assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
        assert sorted(spec.tolist(), key=lambda w: (w.real, w.imag)) == spec.tolist()
        assert np.abs(spec - numcore.eigvals_oracle(a)).max() <= 1e-12 * np.linalg.norm(a)
        assert [kind for kind, _ in calls] == ["eigh"]
        if n > 1:
            # one ulp of asymmetry: not hermitian, so the general Schur form
            b = a.copy()
            b[0, 1] = complex(np.nextafter(b[0, 1].real, np.inf), b[0, 1].imag)
            t, z, _ = numcore.schur_oracle(b)
            assert [kind for kind, _ in calls] == ["eigh", "schur"]
            assert np.linalg.norm(z @ t @ z.conj().T - b) <= 1e-13 * np.linalg.norm(b)
        calls.clear()


def lapack_fails(monkeypatch, routine, a):
    monkeypatch.setattr(numcore, routine, failing_decomposition(routine))
    with pytest.raises(NoConvergenceError, match=f"LAPACK {routine} returned info=1"):
        numcore.schur_oracle(a)


def test_schur_oracle_maps_lapack_failure_to_no_convergence(monkeypatch):
    lapack_fails(monkeypatch, "zgees", np.triu(np.ones((3, 3))))


def test_schur_oracle_maps_eigh_failure_to_no_convergence(monkeypatch):
    lapack_fails(monkeypatch, "zheevd", np.eye(3))


def test_schur_oracle_hit_returns_the_kept_read_only_factors(rng, monkeypatch):
    a = rand_complex(rng, 12)
    first = numcore.schur_oracle(a)
    calls = count_decompositions(monkeypatch)
    # another array with the same bits, in Fortran order, is the same input
    again = numcore.schur_oracle(np.asfortranarray(a.copy()))
    assert not calls
    for kept, hit in zip(first, again):
        assert hit.tobytes() == kept.tobytes()
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0] = 1.0


def test_schur_oracle_decomposes_again_after_an_in_place_change(rng, monkeypatch):
    a = rand_complex(rng, 6)
    a[2, 3] = 0.0
    calls = count_decompositions(monkeypatch)
    numcore.schur_oracle(a)
    numcore.schur_oracle(a)
    assert len(calls) == 1
    a[2, 3] = -0.0  # equal value, other bits
    t, z, _ = numcore.schur_oracle(a)
    assert len(calls) == 2
    assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
    a[0, 0] += 1.0
    t, z, spec = numcore.schur_oracle(a)
    assert len(calls) == 3
    assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
    assert np.abs(spec - numcore.eigvals_oracle(a)).max() <= 1e-12 * np.linalg.norm(a)
    numcore.schur_oracle(a[:5, :5])  # another shape
    assert len(calls) == 4


def test_schur_oracle_failure_keeps_no_entry(rng, monkeypatch):
    a, b = rand_complex(rng, 5), rand_complex(rng, 5)
    numcore.schur_oracle(a)

    monkeypatch.setattr(numcore, "zgees", failing_decomposition("zgees"))
    with pytest.raises(NoConvergenceError):
        numcore.schur_oracle(b)
    # the miss dropped a's entry and the failure kept none for b
    for m in (a, b):
        with pytest.raises(NoConvergenceError):
            numcore.schur_oracle(m)


def test_schur_oracle_keeps_the_copy_schur_ahead_made_uncopied(rng):
    a = rand_complex(rng, 6)
    with closing(numcore.schur_ahead([a])) as matrices:
        drawn = next(matrices)
        numcore.schur_oracle(drawn)
        assert numcore._schur_last.a is drawn
    # any other input is copied, read-only or not
    for m in (a, drawn.copy()):
        m.flags.writeable = False
        numcore.drop_schur_memo()
        numcore.schur_oracle(m)
        assert numcore._schur_last.a is not m and not numcore._schur_last.a.flags.writeable


def test_compute_modules_bind_no_oracle():
    # an oracle the compute code can call is no longer independent of it
    oracles = (numcore.eigvals_oracle, numcore.eig_oracle, numcore.expm_oracle, numcore)
    bound = [f"{name}.{attr}"
             for name in ("contour", "semigroup", "eigenstate", "forms", "resolvent",
                          "rigging", "schrodinger", "holocheck")
             for attr, value in vars(importlib.import_module(f"sectorial.{name}")).items()
             if any(value is o for o in oracles)]
    assert bound == []


def test_forms_binds_one_lapack_path(rng, monkeypatch):
    # the sweep, require_range and the Schur form reach LAPACK only through numcore's GIL-free binding
    from scipy.linalg import lapack
    forms = importlib.import_module("sectorial.forms")
    bound = [attr for attr, value in vars(forms).items() if value is lapack or attr in ("lapack", "sla")]
    assert bound == []
    assert forms._lapack is numcore._lapack and forms._addresses is numcore._addresses

    def no_scipy(*args, **kwargs):
        raise AssertionError("numcore decomposed through scipy.linalg")
    for name in ("schur", "eigh"):
        monkeypatch.setattr(numcore.sla, name, no_scipy)
    calls = count_decompositions(monkeypatch)
    numcore.schur_oracle(rand_complex(rng, 5))
    numcore.schur_oracle(exact_hermitian(rng, 5))
    assert [kind for kind, _ in calls] == ["schur", "eigh"]


def lapack_calls(monkeypatch):
    """Log of numcore's LAPACK decompositions, one (routine, n) per call; a
    workspace query is not logged."""
    calls = []
    for routine, n_at, lwork_at in (("zgees", 3, 11), ("zheevd", 2, 7)):
        def call(*args, routine=routine, step=getattr(numcore, routine), n_at=n_at, lwork_at=lwork_at):
            if ctypes.c_int.from_address(args[lwork_at]).value != -1:
                calls.append((routine, ctypes.c_int.from_address(args[n_at]).value))
            step(*args)
        monkeypatch.setattr(numcore, routine, call)
    return calls


def whole_route(monkeypatch):
    """numcore with the exchange split turned off: every A decomposed whole."""
    monkeypatch.setattr(numcore, "_exchange_view", lambda a: None)


@pytest.mark.parametrize("s", [2, 3, 6, 16])
def test_exchange_split_factors_like_the_whole_route(rng, monkeypatch, s):
    n = s * s
    x = rand_complex(rng, n)
    a = x + exchanged(x, s)
    assert np.array_equal(exchanged(a, s), a)
    lapack = lapack_calls(monkeypatch)
    decompositions = count_decompositions(monkeypatch)
    split = numcore.schur_oracle(a)
    # one decomposition in two half-size zgees calls: s(s + 1)/2 symmetric, s(s - 1)/2 antisymmetric
    assert lapack == [("zgees", s * (s + 1) // 2), ("zgees", s * (s - 1) // 2)]
    assert [kind for kind, _ in decompositions] == ["schur"]
    with monkeypatch.context() as patch:
        whole_route(patch)
        numcore.drop_schur_memo()
        whole = numcore.schur_oracle(a)
    assert lapack[2:] == [("zgees", n)]
    scale = np.linalg.norm(a)
    for t, z, spec in (split, whole):
        assert not np.tril(t, -1).any()
        assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 1e-14 * n
        assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * scale
        assert sorted(spec.tolist(), key=lambda w: (w.real, w.imag)) == spec.tolist()
        assert np.abs(spec - numcore.eigvals_oracle(a)).max() <= 1e-12 * scale
        assert all(not m.flags.writeable for m in (t, z, spec))


def test_exchange_split_of_an_exactly_hermitian_matrix_is_diagonal(rng, monkeypatch):
    from sectorial.contour import _is_diagonal
    s = 6
    h = exact_hermitian(rng, s * s)
    a = (h + exchanged(h, s)) / 2  # hermitian and exchange-symmetric, bit for bit
    lapack = lapack_calls(monkeypatch)
    decompositions = count_decompositions(monkeypatch)
    t, z, spec = numcore.schur_oracle(a)
    assert lapack == [("zheevd", 21), ("zheevd", 15)]
    assert [kind for kind, _ in decompositions] == ["eigh"]
    assert _is_diagonal(t) and np.array_equal(t, np.diag(np.diagonal(t)))
    assert not np.diagonal(t).imag.any()
    assert np.linalg.norm(z.conj().T @ z - np.eye(36), 2) <= 1e-13
    assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
    assert np.abs(spec - numcore.eigvals_oracle(a)).max() <= 1e-12 * np.linalg.norm(a)


def test_one_entry_off_the_exchange_symmetry_takes_the_whole_route_with_its_bits(rng, monkeypatch):
    s, n = 5, 25
    x = rand_complex(rng, n)
    a = x + exchanged(x, s)
    a[3, 7] += 1e-3
    h = exact_hermitian(rng, n)
    h = (h + exchanged(h, s)) / 2
    h[3, 7] += 1e-3  # still exactly hermitian, no longer exchange-symmetric
    h[7, 3] = h[3, 7].conjugate()
    lapack = lapack_calls(monkeypatch)
    t, z, spec = numcore.schur_oracle(a)
    ref_t, ref_z = sla.schur(a, output="complex")
    assert t.tobytes() == ref_t.tobytes() and z.tobytes() == ref_z.tobytes()
    t, z, spec = numcore.schur_oracle(h)
    w, v = sla.eigh(h, driver="evd")
    assert t.tobytes() == np.diag(w.astype(complex)).tobytes() and z.tobytes() == v.tobytes()
    # and a dimension that is not a square decomposes whole whatever its symmetry
    numcore.schur_oracle(rand_complex(rng, 24))
    assert lapack == [("zgees", n), ("zheevd", n), ("zgees", 24)]


@pytest.mark.parametrize("routine, block", [("zgees", 0), ("zgees", 1), ("zheevd", 1)])
def test_a_failing_exchange_block_raises_no_convergence(rng, monkeypatch, routine, block):
    s = 4
    x = exact_hermitian(rng, s * s) if routine == "zheevd" else rand_complex(rng, s * s)
    a = (x + exchanged(x, s)) / 2
    numcore.schur_oracle(rand_complex(rng, 3))
    calls = itertools.count()
    monkeypatch.setattr(numcore, routine, failing_decomposition(routine, lambda: next(calls) == block))
    with pytest.raises(NoConvergenceError, match=f"LAPACK {routine} returned info=1"):
        numcore.schur_oracle(a)
    assert numcore._schur_last is None  # the miss dropped the old entry and the failure kept none


def test_solve_has_the_bits_of_lu_factor_and_lu_solve(rng):
    for n, rhs in ((1, (1,)), (3, (3,)), (12, (12, 12)), (40, (40, 3))):
        a = rand_complex(rng, n) + n * np.eye(n)
        b = rng.standard_normal(rhs) + 1j * rng.standard_normal(rhs)
        ref = sla.lu_solve(sla.lu_factor(a, check_finite=False), b, check_finite=False)
        for m in (a, np.asfortranarray(a)):
            assert numcore.solve(m, b).tobytes() == ref.tobytes()
    ref = sla.lu_solve(sla.lu_factor(a), np.eye(40, dtype=complex))
    assert numcore.inverse(a).tobytes() == ref.tobytes()


def test_solve_singular_raises_without_a_warning():
    exact = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)  # a zero pivot
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (exact, near, np.zeros((2, 2))):
            with pytest.raises(SingularMatrixError):
                numcore.solve(a, np.ones(len(a), dtype=complex))


def test_expm_zero_is_identity():
    assert np.array_equal(numcore.expm_oracle(np.zeros((3, 3))), np.eye(3))


def test_expm_scalar():
    e = numcore.expm_oracle(np.diag([-1.0]))
    assert abs(e[0, 0] - np.exp(-1.0)) <= 1e-15


def test_expm_nilpotent_truncates():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(numcore.expm_oracle(n), np.eye(2) + n, atol=1e-15)


def test_expm_norm_cap():
    with pytest.raises(OverflowError_):
        numcore.expm_oracle(1e4 * np.eye(2))


def test_expm_commuting_product(rng):
    d1 = rng.uniform(-1, 1, 6)
    d2 = rng.uniform(-1, 1, 6)
    q = np.linalg.qr(rand_complex(rng, 6))[0]
    a = q @ np.diag(d1) @ q.conj().T
    b = q @ np.diag(d2) @ q.conj().T
    lhs = numcore.expm_oracle(a + b)
    rhs = numcore.expm_oracle(a) @ numcore.expm_oracle(b)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(lhs, 2)


def test_schatten_identity():
    assert numcore.schatten_norm(np.eye(5), 1) == pytest.approx(5.0, abs=1e-12)


def test_schatten_rank_one(rng):
    u = rand_complex(rng, 6, 1)
    v = rand_complex(rng, 6, 1)
    a = u @ v.conj().T
    expect = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (1.0, 2.0, 3.5, np.inf):
        assert numcore.schatten_norm(a, p) == pytest.approx(expect, rel=1e-12)


def test_schatten_ordering(rng):
    a = rand_complex(rng, 6)
    n1 = numcore.schatten_norm(a, 1)
    n2 = numcore.schatten_norm(a, 2)
    ninf = numcore.schatten_norm(a, np.inf)
    assert n1 >= n2 >= ninf


def test_schatten_invalid_p():
    with pytest.raises(InvalidPError):
        numcore.schatten_norm(np.eye(2), 0.5)


def test_schatten_hoelder_thermal(rng):
    # |e^{-beta H}|_1 <= |e^{-(beta/p) H}|_p^p for positive-definite hermitian H
    h = rand_hermitian(rng, 10, lo=0.3, hi=2.5)
    for beta in (0.5, 1.0, 2.0):
        lhs = numcore.schatten_norm(numcore.expm_oracle(-beta * h), 1)
        for p in (2.0, 3.0, 4.0):
            rhs = numcore.schatten_norm(numcore.expm_oracle(-(beta / p) * h), p) ** p
            assert lhs <= rhs * (1 + 1e-9)


def test_pairwise_sum_matches_plain(rng):
    xs = [rand_complex(rng, 3) for _ in range(13)]
    assert np.allclose(numcore.pairwise_sum(xs), sum(xs), atol=1e-13)


def test_pairwise_accumulator_is_bitwise_pairwise_sum(rng):
    for m in range(1, 258):
        scalars = list(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        arrays = [rand_complex(rng, 2) for _ in range(m)]
        for terms in (scalars, arrays):
            acc = numcore.PairwiseAccumulator()
            for t in terms:
                acc.add(t)
            got, want = np.asarray(acc.total()), np.asarray(numcore.pairwise_sum(terms))
            assert got.tobytes() == want.tobytes(), m


def test_pairwise_accumulator_empty_raises():
    with pytest.raises(ValueError):
        numcore.PairwiseAccumulator().total()


def test_matrix_json_roundtrip_bit_exact(rng):
    a = rand_complex(rng, 7)
    a[0, 1], a[2, 3] = complex(-0.0, 0.0), complex(0.0, -0.0)
    blob = json.dumps(numcore.matrix_to_json(a))
    back = cli.parse_matrix({"matrix": json.loads(blob)})
    assert np.array_equal(a.view(np.uint64), back.view(np.uint64))  # signed zeros too


def test_matrix_json_shape():
    obj = numcore.matrix_to_json(np.eye(2))
    assert obj["dim"] == 2
    assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
