"""Dense complex linear algebra foundation and independent oracles.

Everything downstream (contour calculus, semigroups, tracking) is validated
against the three oracles here: LAPACK eigendecomposition, scaling-and-squaring
matrix exponential, and SVD-based Schatten norms.  Dense storage only; the
intended scale is dimensions up to ~2048.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    InvalidPError,
    NoConvergenceError,
    OverflowError_,
    SingularMatrixError,
)

# Overridable per call; these are the documented defaults.
TOL_SOLVE = 1e-12
PIVOT_RTOL = 1e-13
EXPM_NORM_CAP = 500.0


def as_matrix(a) -> np.ndarray:
    """Validate and return a square complex matrix (C-contiguous copy-free when possible)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def pairwise_sum(terms):
    """Sum a sequence of arrays/scalars by balanced tree reduction.

    Fixed association order makes accumulated rounding independent of any
    parallel scheduling of the term evaluations, which is what the
    reproducibility contract needs.
    """
    items = list(terms)
    if not items:
        raise ValueError("pairwise_sum of empty sequence")
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


class PairwiseAccumulator:
    """Streaming form of :func:`pairwise_sum`: terms are added one at a time.

    A binary-counter stack holds one partial sum per set bit of the term
    count (at most log2(m) + 1 of them); folding it right to left at the end
    reproduces :func:`pairwise_sum`'s association, so the total is the same
    bit for bit without ever holding all m terms.
    """

    def __init__(self):
        self._stack = []  # (terms covered, partial sum), sizes strictly decreasing

    def add(self, term) -> None:
        size = 1
        while self._stack and self._stack[-1][0] == size:
            term = self._stack.pop()[1] + term
            size *= 2
        self._stack.append((size, term))

    def total(self):
        if not self._stack:
            raise ValueError("pairwise_sum of empty sequence")
        acc = self._stack[-1][1]
        for _, part in reversed(self._stack[:-1]):
            acc = part + acc
        return acc


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with a reproducible ordering.

    eigenvalues are sorted by (real, imag) ascending; column k of
    ``right_eigenvectors`` pairs with ``eigenvalues[k]`` and is normalized.
    ``condition`` is the 2-norm condition number of the eigenvector matrix
    (large values flag near-defective input).
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    condition: float


def solve(a, b, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve A X = B by partially pivoted LU.

    Raises SingularMatrixError when any pivot falls below
    ``pivot_rtol * norm(A, inf)``.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side not conformable")
    scale = np.linalg.norm(a, np.inf)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if pivots.min() < pivot_rtol * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {pivot_rtol:.1e} * |A| = {pivot_rtol * scale:.3e}"
        )
    return sla.lu_solve((lu, piv), b, check_finite=False)


def inverse(a, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """A^-1 through :func:`solve` with the identity right-hand side."""
    a = as_matrix(a)
    return solve(a, np.eye(a.shape[0], dtype=complex), pivot_rtol=pivot_rtol)


def eig_oracle(a) -> SpectralData:
    """Full eigendecomposition, sorted by (Re, Im).

    The residual contract ``|A v_k - lambda_k v_k| <= 1e-10 |A|`` holds for
    any diagonalizable input at desk scale; near-defective matrices are
    signalled through the condition estimate rather than rejected.
    """
    a = as_matrix(a)
    try:
        w, v = sla.eig(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergenceError(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    sv = sla.svdvals(v)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return SpectralData(eigenvalues=w, right_eigenvectors=v, condition=condition)


def eigvals_oracle(a) -> np.ndarray:
    """Eigenvalues only (same sort as :func:`eig_oracle`), for callers that
    validate geometry and do not need vectors."""
    a = as_matrix(a)
    try:
        w = sla.eigvals(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    return w[np.lexsort((w.imag, w.real))]


def expm_oracle(a, norm_cap: float = EXPM_NORM_CAP) -> np.ndarray:
    """Matrix exponential by scaling and squaring (scipy backend)."""
    a = as_matrix(a)
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    if norm > norm_cap:
        raise OverflowError_(f"|A| = {norm:.3e} exceeds cap {norm_cap:.3e}")
    return sla.expm(a)


def schatten_norm(a, p) -> float:
    """Schatten p-norm from singular values; p = inf gives the spectral norm."""
    if not p >= 1:
        raise InvalidPError(f"p must be >= 1, got {p}")
    a = as_matrix(a)
    try:
        sv = sla.svdvals(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    if np.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


# -- JSON interchange ---------------------------------------------------------
#
# {"dim": n, "entries": [[re, im], ...]} row-major.  Python's json module
# serializes floats with repr (shortest round-trip), so the cycle is bit-exact.

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    flat = a.reshape(-1)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    n = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(n, n)
