"""Contour representations, quadrature, and the contour operator calculus:
spectral projections, projected operators, scalar functions of a matrix,
isolated-eigenvalue extraction, and low-energy truncation across a vertical
splitting line.

Circles use the trapezoid rule (exponentially convergent for analytic
integrands); straight segments use composite Gauss-Legendre panels.  The
hyperbolic rules for e^{-beta T} are built in :mod:`semigroup`.  Every
contour quantity goes through one engine, :func:`resolvent_sums`, which
reduces A = Q H Q* to Hessenberg form once per call, forms each node's
resolvent of H from an O(n^2) shifted Hessenberg LU and one triangular
inverse (~n^3/6 multiply-adds against ~4n^3/3 for a dense LU and solve;
Wilkinson, *The Algebraic Eigenvalue Problem*, 1965, ch. 7), folds the
weighted terms in a fixed pairwise order and conjugates each sum by Q once
at the end.  Nodes are solved in chunks of at most CHUNK_NODES nodes and
CHUNK_BYTES of resolvents, so results do not depend on evaluation
scheduling and memory grows with neither the node count nor, past
n = 1024, the chunk.  Sums that need only the trace of the resolvent use
its trace-only counterpart, :func:`hessenberg_trace_sum`, which never forms
a resolvent: O(n^2) per node by Hyman's method, summed in the same fixed
order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import (
    ContourThroughSpectrumError,
    DegenerateEnclosureError,
    EmptyEnclosureError,
    GammaHitsSpectrumError,
    NotAProjectionError,
    SingularMatrixError,
    SpectrumHitError,
)
from .forms import Sector
from .numcore import PairwiseAccumulator, as_matrix, eigvals_oracle, pairwise_sum

DEFAULT_CIRCLE_NODES = 128
DEFAULT_GAUSS_ORDER = 16
CLEARANCE_FACTOR = 10.0
CHUNK_NODES = 32  # most nodes per Hessenberg LU batch in resolvent_sums
CHUNK_BYTES = 2 ** 29  # most bytes of resolvents per batch: 32 nodes at n = 1024
TRACE_CHUNK_NODES = 256  # nodes per vectorized recurrence in hessenberg_trace_sum
_HYMAN_BIG = 2.0 ** 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and d-zeta weights of a parameterized path."""

    nodes: np.ndarray
    weights: np.ndarray
    closed: bool = True

    def circulation(self) -> complex:
        return complex(pairwise_sum(list(self.weights)))

    def winding(self, z0: complex) -> complex:
        """(1/2 pi i) * integral of dzeta/(zeta - z0)."""
        vals = self.weights / (self.nodes - z0)
        return complex(pairwise_sum(list(vals))) / (2j * math.pi)

    def self_test(self, interior: complex, circ_tol: float = 1e-10,
                  wind_tol: float = 1e-8) -> None:
        """Closed-contour sanity: zero circulation, unit winding at ``interior``."""
        if not self.closed:
            return
        if abs(self.circulation()) > circ_tol:
            raise ValueError(f"circulation {abs(self.circulation()):.2e} exceeds {circ_tol:.1e}")
        w = self.winding(interior) * 2j * math.pi
        if abs(w - 2j * math.pi) > wind_tol:
            raise ValueError(f"winding integral off by {abs(w - 2j * math.pi):.2e}")

    def max_spacing(self) -> float:
        pts = self.nodes
        if len(pts) < 2:
            return 0.0
        gaps = np.abs(np.diff(pts))
        if self.closed:
            gaps = np.append(gaps, abs(pts[0] - pts[-1]))
        return float(gaps.max())


@functools.lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panel(a: complex, b: complex, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(order)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w


def gauss_segment(a: complex, b: complex, order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the straight segment a -> b."""
    cuts = np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n, w = _gauss_panel(a + (b - a) * lo, a + (b - a) * hi, order)
        nodes.append(n)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class Circle:
    """Anticlockwise circle, trapezoid quadrature on m equispaced nodes."""

    center: complex
    radius: float
    nodes: int = DEFAULT_CIRCLE_NODES

    def rule(self) -> QuadratureRule:
        theta = 2.0 * math.pi * np.arange(self.nodes) / self.nodes
        z = self.center + self.radius * np.exp(1j * theta)
        w = (2j * math.pi / self.nodes) * self.radius * np.exp(1j * theta)
        return QuadratureRule(nodes=z, weights=w, closed=True)

    def interior_hint(self) -> complex:
        return complex(self.center)


@dataclass(frozen=True)
class Polyline:
    """Closed anticlockwise polygon through ``vertices``; composite Gauss panels.

    ``panels`` is either a single count for every edge or one count per edge.
    """

    vertices: tuple
    order: int = DEFAULT_GAUSS_ORDER
    panels: tuple | int = 1

    def _panel_counts(self) -> list[int]:
        nseg = len(self.vertices)
        if isinstance(self.panels, int):
            return [self.panels] * nseg
        counts = list(self.panels)
        if len(counts) != nseg:
            raise ValueError("panel list must match the number of edges")
        return counts

    def rule(self) -> QuadratureRule:
        verts = [complex(v) for v in self.vertices]
        if len(verts) < 3:
            raise ValueError("polyline contour needs at least 3 vertices")
        counts = self._panel_counts()
        nodes, weights = [], []
        for k, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
            n, w = gauss_segment(a, b, self.order, counts[k])
            nodes.append(n)
            weights.append(w)
        return QuadratureRule(nodes=np.concatenate(nodes),
                              weights=np.concatenate(weights), closed=True)

    def interior_hint(self) -> complex:
        return complex(np.mean([complex(v) for v in self.vertices]))


@dataclass(frozen=True)
class RightBoundary:
    """Vertical splitting line Re = abscissa with a sector for completion.

    The line, oriented upward, separates low energies (left) from the rest;
    :func:`low_energy_hamiltonian` closes it with the edges of a dilation of
    ``sector`` into a quadrature-ready triangle.
    """

    abscissa: float
    sector: Sector


# -- operator calculus --------------------------------------------------------

def _hessenberg_lu(h: np.ndarray, z: np.ndarray):
    """LU of H - z_j I for every shift z_j of an upper-Hessenberg H, in O(n^2)
    per shift, vectorized over the shifts.

    Partial pivoting only ever compares rows k and k+1; the swap is taken
    when |h_{k+1,k}| > |u_kk| in LAPACK's |Re| + |Im| measure, so the pivots
    are the ones GEPP picks.  Returns ``ut`` with ``ut[j] = U_j^T`` (U_j's rows
    stored as columns, so ``ut[j].T`` is U_j in Fortran order) and the
    multipliers and swap flags of each step, shape (shifts, n - 1).
    """
    n, c = h.shape[0], z.size
    ut = np.zeros((c, n, n), dtype=complex)
    mult = np.empty((c, n - 1), dtype=complex)
    swap = np.empty((c, n - 1), dtype=bool)
    sub = np.diagonal(h, -1)
    sub_size = np.abs(sub.real) + np.abs(sub.imag)
    carry = np.empty((c, n), dtype=complex)  # row k of the partly eliminated matrix
    carry[:] = h[0]
    carry[:, 0] -= z
    for k in range(n - 1):
        cur = carry[:, k:]
        nxt = np.empty_like(cur)
        nxt[:] = h[k + 1, k:]
        nxt[:, 1] -= z
        s = sub_size[k] > np.abs(cur[:, 0].real) + np.abs(cur[:, 0].imag)
        piv = np.where(s[:, None], nxt, cur)
        other = np.where(s[:, None], cur, nxt)
        ut[:, k:, k] = piv
        mult[:, k] = other[:, 0] / piv[:, 0]
        swap[:, k] = s
        carry[:, k + 1:] = other[:, 1:] - mult[:, k, None] * piv[:, 1:]
    ut[:, n - 1, n - 1] = carry[:, n - 1]
    return ut, mult, swap


def _resolvent_nodes(a: np.ndarray, rule: QuadratureRule) -> list[np.ndarray]:
    """R(zeta_j, A) at every node for an upper-Hessenberg A, in three steps:
    the O(n^2) shifted Hessenberg LU A - zeta_j I = M_j^-1 U_j of every node
    at once, one triangular inverse U_j^-1 per node (LAPACK ``ztrtri``,
    ~n^3/6 multiply-adds, in place on the Fortran-ordered U_j), then
    R = U^-1 M applied as O(n^2) column operations: each Gauss transform and
    row swap of the LU, last step first.

    Nodes are independent and each is computed the same way whatever the
    other nodes of the rule are, so the caller's fixed pairwise fold does not
    depend on how nodes are grouped.  A node with a pivot that is exactly
    zero or not finite raises SingularMatrixError naming the node's index in
    ``rule``, zeta_j and the pivot.
    """
    z = rule.nodes
    with np.errstate(all="ignore"):
        ut, mult, swap = _hessenberg_lu(a, z)
        pivots = np.diagonal(ut, axis1=1, axis2=2)
        bad = ~(np.isfinite(pivots) & (pivots != 0))
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise SingularMatrixError(
                f"node {j} (zeta = {complex(z[j]):.6g}) has Hessenberg LU pivot {k} = "
                f"{complex(pivots[j, k]):.3e}: the node is on the spectrum")
        for j in range(z.size):
            lapack.ztrtri(ut[j].T, overwrite_c=1)  # in place: ut[j] = U_j^-T
        # rows of ut[j] are columns of the resolvent: R = U^-1 M_{n-2} ... M_0
        for k in range(a.shape[0] - 2, -1, -1):
            ut[:, k] -= mult[:, k, None] * ut[:, k + 1]
            sw = np.flatnonzero(swap[:, k])
            if sw.size:
                ut[sw[:, None], [k, k + 1]] = ut[sw[:, None], [k + 1, k]]
    return list(ut.transpose(0, 2, 1))


def _chunk_nodes(n: int) -> int:
    """Nodes per resolvent batch at dimension n: CHUNK_NODES, or fewer when
    their n x n complex resolvents would pass CHUNK_BYTES (at least one)."""
    return min(CHUNK_NODES, max(1, CHUNK_BYTES // (16 * n * n)))


def _fold_chunk(sums, funcs, chunk: QuadratureRule, resolvents) -> None:
    for z, w, r in zip(chunk.nodes, chunk.weights, resolvents):
        for f, acc in zip(funcs, sums):
            acc.add(w * f(z) * r)


def resolvent_sums(a: np.ndarray, rule: QuadratureRule, funcs) -> list:
    """sum_j w_j f(zeta_j) R(zeta_j, A) over the nodes of ``rule``, for each f.

    The one quadrature engine behind every contour quantity.  A = Q H Q* is
    reduced to Hessenberg form once per call (a finite reduction, not an
    eigen-solver), so each node costs an O(n^2) LU and one triangular inverse
    (:func:`_resolvent_nodes`).  Nodes are solved :func:`_chunk_nodes` at a
    time (CHUNK_NODES up to n = 1024, then CHUNK_BYTES of resolvents) and
    each weighted term is folded at once into a :class:`PairwiseAccumulator`
    per f, so memory is O(CHUNK_BYTES + len(funcs) * log2 m * n^2) whatever
    the node count m, and every sum equals ``pairwise_sum`` over the m terms
    bit for bit.  Q commutes with the node sum: each total S becomes Q S Q*
    once, at the end.
    """
    h, q = sla.hessenberg(as_matrix(a), calc_q=True, check_finite=False)
    sums = [PairwiseAccumulator() for _ in funcs]
    step = _chunk_nodes(h.shape[0])
    for lo in range(0, len(rule.nodes), step):
        chunk = QuadratureRule(nodes=rule.nodes[lo:lo + step],
                               weights=rule.weights[lo:lo + step], closed=False)
        # a helper call, so the chunk's resolvents are freed before the next solve
        _fold_chunk(sums, funcs, chunk, _resolvent_nodes(h, chunk))
    qh = q.conj().T
    return [q @ acc.total() @ qh for acc in sums]


def _hessenberg_blocks(h: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) row ranges of the diagonal blocks of upper-Hessenberg ``h``,
    split wherever |h[i+1, i]| <= eps * |h|_F (treated as an exact zero)."""
    tol = np.finfo(float).eps * np.linalg.norm(h)
    cuts = [0] + [int(i) + 1 for i in np.flatnonzero(np.abs(np.diagonal(h, -1)) <= tol)]
    cuts.append(h.shape[0])
    return list(zip(cuts[:-1], cuts[1:]))


def _hyman_traces(b: np.ndarray, z: np.ndarray):
    """(Tr R(z_j, B), c_j, c'_j) at every shift z_j for an unreduced
    upper-Hessenberg block B.

    Hyman's method: with x_k = 1, rows k..2 of (B - zI) x = c e_1 fix x by
    back-substitution through the (nonzero) subdiagonal, and c is
    det(B - zI) up to a factor independent of z.  Differentiating the same
    recurrence gives c' = dc/dz, and Tr R(z) = -d/dz log det(B - zI) = -c'/c.
    Columns [:m] of ``xs`` carry x and [m:] carry x' for the m shifts, so one
    matrix-vector product per row serves both.
    """
    k, m = b.shape[0], z.size
    xs = np.zeros((k, 2 * m), dtype=complex)
    xs[k - 1, :m] = 1.0
    for i in range(k - 1, 0, -1):
        s = b[i, i:] @ xs[i:]
        s[:m] -= z * xs[i, :m]
        s[m:] -= z * xs[i, m:] + xs[i, :m]
        xs[i - 1] = s / -b[i, i - 1]
        # x and x' grow together; scale them jointly by a power of two (exact,
        # so the ratio c'/c is unchanged) before they can overflow
        big = np.abs(xs[i - 1]) > _HYMAN_BIG
        if big.any():
            cols = np.flatnonzero(big[:m] | big[m:])
            xs[i - 1:, cols] /= _HYMAN_BIG
            xs[i - 1:, cols + m] /= _HYMAN_BIG
    s = b[0] @ xs
    c = s[:m] - z * xs[0, :m]
    dc = s[m:] - z * xs[0, m:] - xs[0, :m]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tr = -dc / c
    return tr, c, dc


def hessenberg_trace_sum(h, rule: QuadratureRule, f) -> complex:
    """sum_j w_j f(zeta_j) Tr R(zeta_j, H) over the nodes of ``rule`` for an
    upper-Hessenberg H; the trace-only counterpart of :func:`resolvent_sums`.

    No resolvent is formed: each trace costs O(n^2) through Hyman's method,
    vectorized over TRACE_CHUNK_NODES nodes at a time, so memory is
    O(TRACE_CHUNK_NODES * n) whatever the node count.  H is split into
    diagonal blocks at subdiagonals <= eps * |H|_F and the block traces are
    added, which makes diagonal and block-triangular inputs exact.  The m
    terms are reduced with :func:`pairwise_sum` in node order, so the sum is
    reproducible.  A node where det(H - zeta I) vanishes or the trace is not
    finite raises SpectrumHitError naming the node.
    """
    h = as_matrix(h)
    if np.any(np.tril(h, -2)):
        raise ValueError("expected an upper-Hessenberg matrix")
    blocks = _hessenberg_blocks(h)
    terms = []
    for lo in range(0, len(rule.nodes), TRACE_CHUNK_NODES):
        z = rule.nodes[lo:lo + TRACE_CHUNK_NODES]
        tr = np.zeros(z.size, dtype=complex)
        for a, b in blocks:
            block_tr, c, dc = _hyman_traces(h[a:b, a:b], z)
            bad = np.flatnonzero(~np.isfinite(block_tr))
            if bad.size:
                j = bad[0]
                raise SpectrumHitError(
                    f"node {lo + j} (zeta = {complex(z[j]):.6g}) gives Hyman c = "
                    f"{complex(c[j]):.3e}, c' = {complex(dc[j]):.3e} on Hessenberg "
                    f"block rows {a}:{b}: the node is numerically on the spectrum")
            tr += block_tr
        terms += [w * f(zj) * t
                  for zj, w, t in zip(z, rule.weights[lo:lo + TRACE_CHUNK_NODES], tr)]
    return complex(pairwise_sum(terms))


def _check_clearance(rule: QuadratureRule, spectrum: np.ndarray,
                     factor: float = CLEARANCE_FACTOR) -> None:
    dist = np.abs(rule.nodes[:, None] - spectrum[None, :]).min()
    spacing = rule.max_spacing()
    if dist < factor * spacing:
        raise ContourThroughSpectrumError(
            f"nodes come within {dist:.3e} of the spectrum "
            f"(need >= {factor:.0f} x spacing = {factor * spacing:.3e})"
        )


def _integrate_rdt(a, contour, funcs, clearance_factor: float = CLEARANCE_FACTOR,
                   spectrum=None):
    """-(1/2 pi i) * contour integral of f(zeta) R(zeta, A) for each f.

    One resolvent pass whatever the number of f.  Returns the integrals and
    the oracle spectrum the contour was cleared against (``spectrum`` when
    the caller already holds it).
    """
    a = as_matrix(a)
    rule = contour.rule()
    spec = eigvals_oracle(a) if spectrum is None else spectrum
    _check_clearance(rule, spec, clearance_factor)
    return [-s / (2j * math.pi) for s in resolvent_sums(a, rule, funcs)], spec


def riesz_projection(a, contour, clearance_factor: float = CLEARANCE_FACTOR) -> np.ndarray:
    """Spectral projection -(1/2 pi i) * integral of R(zeta, A) d zeta."""
    (p,), _ = _integrate_rdt(a, contour, [lambda z: 1.0], clearance_factor)
    return p


def projected_operator(a, contour, clearance_factor: float = CLEARANCE_FACTOR) -> np.ndarray:
    """A restricted to the enclosed spectral subspace: -(1/2 pi i) * integral of zeta R d zeta."""
    (ap,), _ = _integrate_rdt(a, contour, [lambda z: z], clearance_factor)
    return ap


def rdt_function(a, contour, f, clearance_factor: float = CLEARANCE_FACTOR) -> np.ndarray:
    """f(A) on the enclosed spectrum: -(1/2 pi i) * integral of f(zeta) R d zeta.

    ``f`` must be evaluable at every quadrature node and holomorphic on and
    inside the contour.
    """
    (fa,), _ = _integrate_rdt(a, contour, [f], clearance_factor)
    return fa


def spectral_pair(a, contour, clearance_factor: float = CLEARANCE_FACTOR):
    """(P, AP, spectrum): the Riesz projection and the projected operator from
    one resolvent pass, with the oracle spectrum that cleared the contour."""
    (p, ap), spec = _integrate_rdt(a, contour, [lambda z: 1.0, lambda z: z], clearance_factor)
    return p, ap, spec


def enclosed_eigenvalue(p, ap, trace_tol: float = 0.01) -> complex:
    """Tr AP for a rank-one enclosure (P, AP) from :func:`spectral_pair`.

    Tr P counts enclosed algebraic multiplicity: ~0 raises
    EmptyEnclosureError, ~k > 1 DegenerateEnclosureError.
    """
    tr = complex(np.trace(p))
    if abs(tr) <= trace_tol:
        raise EmptyEnclosureError(f"Tr P = {tr:.3e}: contour encloses nothing")
    if abs(tr - 1.0) > trace_tol:
        raise DegenerateEnclosureError(f"Tr P = {tr:.4f}: enclosure is not rank one")
    return complex(np.trace(ap))


def extract_eigenvalue(a, contour, trace_tol: float = 0.01,
                       clearance_factor: float = CLEARANCE_FACTOR) -> complex:
    """Isolated nondegenerate eigenvalue enclosed by the contour (see
    :func:`enclosed_eigenvalue`)."""
    p, ap, _ = spectral_pair(a, contour, clearance_factor)
    return enclosed_eigenvalue(p, ap, trace_tol)


def rank_of_projection(p, idem_tol: float = 1e-6) -> int:
    """Rank of a (possibly oblique) projection: rounded real trace.

    Cross-validated against the count of singular values above 1/2; a
    mismatch or an idempotency defect beyond ``idem_tol`` raises
    NotAProjectionError.
    """
    p = as_matrix(p)
    defect = np.linalg.norm(p @ p - p, 2)
    if defect > idem_tol:
        raise NotAProjectionError(f"|P^2 - P| = {defect:.3e} exceeds {idem_tol:.1e}")
    r = int(round(float(np.trace(p).real)))
    sv = np.linalg.svd(p, compute_uv=False)
    by_sv = int(np.sum(sv > 0.5))
    if by_sv != r:
        raise NotAProjectionError(f"trace rank {r} != singular-value rank {by_sv}")
    return r


def _segment_spectrum_distance(a: complex, b: complex, spectrum: np.ndarray) -> float:
    """Min distance from the segment a->b to a point set."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return float(np.abs(spectrum - a).min())
    t = np.clip(((spectrum - a) * np.conj(d)).real / L2, 0.0, 1.0)
    return float(np.abs(spectrum - (a + t * d)).min())


def low_energy_hamiltonian(a, boundary: RightBoundary,
                           order: int = DEFAULT_GAUSS_ORDER,
                           line_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """(P, A_low) for the spectrum strictly left of the vertical line.

    The line is closed into a triangle with the edges of a dilation of the
    supplied sector; the dilation only moves the path away from the spectrum
    and never changes which eigenvalues are enclosed (anything left of the
    line and inside the sector).  Panels per edge follow the distance from
    that edge to the spectrum.
    """
    a = as_matrix(a)
    spec = eigvals_oracle(a)
    gamma = float(boundary.abscissa)
    scale = max(1.0, float(np.abs(spec).max()) if spec.size else 1.0)
    if spec.size and np.abs(spec.real - gamma).min() < line_tol * scale:
        raise GammaHitsSpectrumError(f"spectrum touches the line Re = {gamma}")

    sec = boundary.sector
    theta = 0.5 * (sec.half_angle + math.pi / 2)
    vertex = sec.vertex - max(0.5, 0.05 * scale)
    n = a.shape[0]
    if gamma <= vertex:
        z = np.zeros((n, n), dtype=complex)
        return z, z.copy()

    h = (gamma - vertex) * math.tan(theta)
    verts = [complex(vertex, 0.0), complex(gamma, -h), complex(gamma, h)]
    edges = list(zip(verts, verts[1:] + verts[:1]))
    if spec.size:
        dmin = max(min(_segment_spectrum_distance(p0, p1, spec) for p0, p1 in edges), 1e-6)
    else:
        dmin = 1.0
    # the clearance heuristic is global, so every edge resolves the global
    # minimum distance: panel length <= dmin/2 keeps 10 x spacing below dmin
    counts = [int(np.clip(math.ceil(2.0 * abs(p1 - p0) / dmin), 4, 512))
              for p0, p1 in edges]
    tri = Polyline(vertices=tuple(verts), order=order, panels=tuple(counts))
    (p, ap), _ = _integrate_rdt(a, tri, [lambda z: 1.0, lambda z: z], spectrum=spec)
    return p, ap


def enclosed_count(a, contour) -> int:
    """Number of eigenvalues (oracle, with multiplicity) the contour winds around."""
    spec = eigvals_oracle(as_matrix(a))
    rule = contour.rule()
    return int(sum(int(round(rule.winding(z).real)) for z in spec))
