"""Contour representations, quadrature, and the contour operator calculus:
spectral projections, projected operators, scalar functions of a matrix,
isolated-eigenvalue extraction, rank-one eigenvector pairs, and low-energy
truncation across a vertical splitting line.

Circles use the trapezoid rule (exponentially convergent for analytic
integrands); straight segments use composite Gauss-Legendre panels.  The
hyperbolic rules for e^{-beta T} are built in :mod:`semigroup`.  Every
contour quantity is computed in one basis, the Schur form A = Z T Z* of
:func:`numcore.schur_oracle` (diagonal, from ``eigh``, for exactly hermitian
input), taken once per distinct matrix (it keeps the last one), whose
diagonal also clears the contour; resolvents at many shifts from one Schur
form follow Trefethen (Acta Numerica 8, 1999).  Three engines sum over the
nodes, all on one walk (:func:`_walk`): the rule in chunks, in node order;
one pivot check, where a pivot t_ii - zeta_j with no finite reciprocal
raises SpectrumHitError; and one fold of the weighted terms in a fixed
pairwise order.  So results do not depend on evaluation scheduling, and
memory does not grow with the node count.  Full matrices come from
:func:`resolvent_sums`: one triangular inverse of T - zeta_j per node
(~n^3/6 multiply-adds), or for a diagonal T the vector of 1/(t_ii - zeta_j),
each sum conjugated by Z once at the end.  Traces come from
:func:`schur_trace_sum`, sum_i 1/(t_ii - zeta_j) per node, and give
:func:`extract_eigenvalue` Tr P and Tr AP.  The rank-one pair phi, eta of an
isolated eigenvalue (:func:`enclosed_pair`) takes one back and one forward
substitution on T - zeta_j per node, O(n^2), and b / pivots on a diagonal T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ContourThroughSpectrumError,
    DegenerateEnclosureError,
    EmptyEnclosureError,
    GammaHitsSpectrumError,
    NotAProjectionError,
    ProbeOrthogonalError,
    RankNotOneError,
    SpectrumHitError,
)
from .forms import Sector
from .numcore import PairwiseAccumulator, as_matrix, pairwise_sum, schur_oracle

DEFAULT_CIRCLE_NODES = 128
DEFAULT_GAUSS_ORDER = 16
CLEARANCE_FACTOR = 10.0  # least node distance from the spectrum, in node spacings
TRACE_TOL = 0.01  # how far Tr P of a rank-one enclosure may sit from 1 (and 0 from empty)
LINE_TOL = 1e-9  # least distance of the spectrum from a splitting line, relative to |spectrum|
CHUNK_NODES = 32  # most nodes per triangular-inverse batch in resolvent_sums
CHUNK_BYTES = 2 ** 29  # most bytes of resolvents per batch: 32 nodes at n = 1024
TRACE_CHUNK_NODES = 256  # nodes per vectorized block: traces, probe solves, clearance
PROBE_SEED = 20031  # seed of the fixed probe vectors of enclosed_pair
PROBE_FLOOR = 1e-6  # least overlap cosine of a probe with its eigenvector
RESIDUAL_TOL = 1e-7  # eigenpair residuals of enclosed_pair, relative to |A|
IDEM_TOL = 1e-6  # largest idempotency defect |P^2 - P|_2 rank_of_projection accepts


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


@dataclass(frozen=True)
class Polyline:
    """Closed anticlockwise polygon through ``vertices``; composite Gauss panels.

    ``panels`` is either a single count for every edge or one count per edge.
    """

    vertices: tuple
    order: int = DEFAULT_GAUSS_ORDER
    panels: tuple | int = 1

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polyline contour needs at least 3 vertices")
        if not isinstance(self.panels, int) and len(self.panels) != len(self.vertices):
            raise ValueError("panel list must match the number of edges")

    def rule(self) -> QuadratureRule:
        verts = [complex(v) for v in self.vertices]
        counts = [self.panels] * len(verts) if isinstance(self.panels, int) else list(self.panels)
        nodes, weights = [], []
        for k, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
            n, w = gauss_segment(a, b, self.order, counts[k])
            nodes.append(n)
            weights.append(w)
        return QuadratureRule(nodes=np.concatenate(nodes),
                              weights=np.concatenate(weights), closed=True)


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

def _chunks(rule: QuadratureRule, step: int):
    """(first index, sub-rule) of each run of up to ``step`` nodes, in order."""
    for lo in range(0, len(rule.nodes), step):
        yield lo, QuadratureRule(nodes=rule.nodes[lo:lo + step],
                                 weights=rule.weights[lo:lo + step], closed=False)


def _is_diagonal(t: np.ndarray) -> bool:
    """Whether the triangular T has nothing above its diagonal.  A nonzero on
    the first superdiagonal, which almost every other T has, answers in O(n)."""
    return not (np.any(np.diagonal(t, 1)) or np.any(np.triu(t, 1)))


def _schur_pivots(t: np.ndarray, z: np.ndarray, first: int):
    """(pivots, reciprocals): t_ii - z_j of T - z_j I for an upper-triangular
    T and 1 / (t_ii - z_j), each of shape (n, shifts).  The one check of
    every Schur-basis engine: a pivot with no finite reciprocal (zero, not
    finite, or so small that 1 / pivot overflows) raises SpectrumHitError
    naming node ``first + j``, z_j and the pivot."""
    piv = np.diagonal(t)[:, None] - z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / piv
    ok = np.isfinite(piv) & np.isfinite(inv)
    if not ok.all():
        j, i = np.argwhere(~ok.T)[0]
        raise SpectrumHitError(
            f"node {first + j} (zeta = {complex(z[j]):.6g}) has Schur pivot {i} = "
            f"{complex(piv[i, j]):.3e}: the node is on the spectrum")
    return piv, inv


def _resolvent_nodes(a: np.ndarray, rule: QuadratureRule) -> list[np.ndarray]:
    """R(zeta_j, A) = (A - zeta_j I)^-1 at every node for an upper-triangular
    A: one LAPACK ``ztrtri`` per node, ~n^3/6 multiply-adds, in place on the
    transposed (lower-triangular, Fortran-ordered) view of a copy of
    A - zeta_j I.

    Nodes are independent and each is computed the same way whatever the
    other nodes of the rule are, so the caller's fixed pairwise fold does not
    depend on how nodes are grouped.  The caller checks the pivots first
    (:func:`_schur_pivots`).
    """
    z = rule.nodes
    n = a.shape[0]
    u = np.empty((z.size, n, n), dtype=complex)
    u[:] = a
    u.reshape(z.size, -1)[:, ::n + 1] -= z[:, None]
    for r in u:
        lapack.ztrtri(r.T, lower=1, overwrite_c=1)  # r becomes its own inverse
    return list(u)


def _chunk_nodes(n: int) -> int:
    """Nodes per resolvent batch at dimension n: CHUNK_NODES, or fewer when
    their n x n complex resolvents would pass CHUNK_BYTES (at least one)."""
    return min(CHUNK_NODES, max(1, CHUNK_BYTES // (16 * n * n)))


def _fold_chunk(sums, funcs, chunk: QuadratureRule, terms) -> None:
    """The one place a weighted term enters a sum: w_j f(zeta_j) term_j into
    the accumulator of each f (w_j alone for an f of None)."""
    adds = [acc.add for acc in sums]
    for z, w, term in zip(chunk.nodes, chunk.weights, terms):
        for f, add in zip(funcs, adds):
            add((w if f is None else w * f(z)) * term)


def _walk(rule: QuadratureRule, step: int, funcs, terms) -> list:
    """sum_j w_j f(zeta_j) term_j for each f: the node walk of every
    Schur-basis engine.  ``terms(chunk, first)`` checks the pivots of
    ``step`` nodes from node ``first`` on (:func:`_schur_pivots`) and gives
    their terms, each folded at once into a :class:`PairwiseAccumulator`,
    so a sum is ``pairwise_sum`` over all m terms bit for bit and memory
    holds one chunk of terms and log2 m partial sums per f."""
    sums = [PairwiseAccumulator() for _ in funcs]
    for lo, chunk in _chunks(rule, step):
        # one call, so each chunk's terms are freed before the next is formed
        _fold_chunk(sums, funcs, chunk, terms(chunk, lo))
    return [acc.total() for acc in sums]


def resolvent_sums(a: np.ndarray, rule: QuadratureRule, funcs, b=None) -> list:
    """sum_j w_j f(zeta_j) R(zeta_j, A) over the nodes of ``rule``, for each f;
    with an operand b, the terms are R(zeta_j, A) b R(zeta_j, A).

    The engine behind every full-matrix contour quantity.  A = Z T Z* in
    Schur form (:func:`numcore.schur_oracle`, which returns the
    decomposition a clearance check on the same A just made; diagonal, from
    ``eigh``, for exactly hermitian A), summed by :func:`_walk`, which
    raises SpectrumHitError for a node on a Schur pivot.  Z commutes with
    the node sum: b enters as B = Z* b Z, and each total S becomes Z S Z*
    once, at the end.

    A triangular T costs one triangular inverse per node
    (:func:`_resolvent_nodes`), :func:`_chunk_nodes` nodes at a time, so
    memory is O(CHUNK_BYTES + len(funcs) * log2 m * n^2) for m nodes.  A
    diagonal T forms no resolvent: R(zeta_j, T) is diag(1/(t_ii - zeta_j)),
    so each term is the vector w_j f(zeta_j) / (t_ii - zeta_j) of the rule's
    scalar filter (Higham, Functions of Matrices, SIAM 2008, ch. 4),
    TRACE_CHUNK_NODES nodes at a time in O(TRACE_CHUNK_NODES * n) memory,
    and each sum is Z diag(s) Z*.  R B R takes two products more on a
    triangular T, one node at a time, and on a diagonal T it is the matrix
    B_ik / ((t_ii - zeta_j)(t_kk - zeta_j)), O(n^2) (Daleckii-Krein).
    """
    t, z, _ = schur_oracle(a)
    diagonal = _is_diagonal(t)
    bb = None if b is None else z.conj().T @ b @ z

    def terms(chunk, lo):
        inv = _schur_pivots(t, chunk.nodes, lo)[1]
        # column j of 1 / pivots is the diagonal of R(zeta_j, T)
        rs = inv.T if diagonal else _resolvent_nodes(t, chunk)
        return rs if bb is None else (r[:, None] * bb * r if diagonal else r @ bb @ r for r in rs)
    sums = _walk(rule, TRACE_CHUNK_NODES if diagonal else _chunk_nodes(t.shape[0]), funcs, terms)
    zh = z.conj().T
    return [(z * s if s.ndim == 1 else z @ s) @ zh for s in sums]


def schur_trace_sum(t, rule: QuadratureRule, funcs) -> list[complex]:
    """sum_j w_j f(zeta_j) Tr R(zeta_j, T) over the nodes of ``rule`` for an
    upper-triangular T, for each f; the trace-only counterpart of
    :func:`resolvent_sums`.

    No resolvent is formed: Tr R(zeta, T) = sum_i 1/(t_ii - zeta), the
    reciprocals of :func:`_schur_pivots` added in row order, for
    TRACE_CHUNK_NODES nodes at a time of :func:`_walk`, so memory is
    O(TRACE_CHUNK_NODES * n) whatever the node count.  A node on a Schur
    pivot raises SpectrumHitError; a T that is not upper triangular raises
    ValueError.
    """
    t = as_matrix(t)
    if np.any(np.tril(t, -1)):
        raise ValueError("expected an upper-triangular matrix")

    def traces(chunk, lo):
        inv = _schur_pivots(t, chunk.nodes, lo)[1]
        tr = np.zeros(chunk.nodes.size, dtype=complex)
        for row in inv:
            tr += row
        return tr
    return [complex(s) for s in _walk(rule, TRACE_CHUNK_NODES, funcs, traces)]


def _check_clearance(rule: QuadratureRule, spectrum: np.ndarray) -> None:
    """Every node at least CLEARANCE_FACTOR node spacings from the spectrum;
    ContourThroughSpectrumError otherwise."""
    # TRACE_CHUNK_NODES nodes at a time: the distance table does not grow with the rule
    dist = min(np.abs(chunk.nodes[:, None] - spectrum).min()
               for _, chunk in _chunks(rule, TRACE_CHUNK_NODES))
    need = CLEARANCE_FACTOR * rule.max_spacing()
    if dist < need:
        raise ContourThroughSpectrumError(
            f"nodes come within {dist:.3e} of the spectrum "
            f"(need >= {CLEARANCE_FACTOR:.0f} x spacing = {need:.3e})"
        )


def _cleared(a, contour):
    """(A, rule, T, Z, spectrum): A as a matrix, the contour's rule, and the
    Schur form A = Z T Z* (:func:`numcore.schur_oracle`, which keeps it for
    the pass that follows) whose spectrum clears the rule."""
    a = as_matrix(a)
    rule = contour.rule()
    t, z, spec = schur_oracle(a)
    _check_clearance(rule, spec)
    return a, rule, t, z, spec


def _integrate_rdt(a, contour, funcs) -> list:
    """-(1/2 pi i) * contour integral of f(zeta) R(zeta, A) for each f, from
    one resolvent pass on a cleared contour."""
    a, rule, _, _, _ = _cleared(a, contour)
    return [-s / (2j * math.pi) for s in resolvent_sums(a, rule, funcs)]


def riesz_projection(a, contour) -> np.ndarray:
    """Spectral projection -(1/2 pi i) * integral of R(zeta, A) d zeta."""
    (p,) = _integrate_rdt(a, contour, [lambda z: 1.0])
    return p


def projected_operator(a, contour) -> np.ndarray:
    """A restricted to the enclosed spectral subspace: -(1/2 pi i) * integral of zeta R d zeta."""
    (ap,) = _integrate_rdt(a, contour, [lambda z: z])
    return ap


def rdt_function(a, contour, f) -> np.ndarray:
    """f(A) on the enclosed spectrum: -(1/2 pi i) * integral of f(zeta) R d zeta.

    ``f`` must be evaluable at every quadrature node and holomorphic on and
    inside the contour.
    """
    (fa,) = _integrate_rdt(a, contour, [f])
    return fa


def spectral_pair(a, contour):
    """(P, AP): the Riesz projection and the projected operator from one
    resolvent pass."""
    p, ap = _integrate_rdt(a, contour, [lambda z: 1.0, lambda z: z])
    return p, ap


def enclosed_eigenvalue(tr_p, tr_ap) -> complex:
    """Tr AP for a rank-one enclosure, from the traces of P and AP.

    Tr P counts enclosed algebraic multiplicity: within TRACE_TOL of 0
    raises EmptyEnclosureError, farther than TRACE_TOL from 1
    DegenerateEnclosureError.
    """
    tr = complex(tr_p)
    if abs(tr) <= TRACE_TOL:
        raise EmptyEnclosureError(f"Tr P = {tr:.3e}: contour encloses nothing")
    if abs(tr - 1.0) > TRACE_TOL:
        raise DegenerateEnclosureError(f"Tr P = {tr:.4f}: enclosure is not rank one")
    return complex(tr_ap)


def _enclosed_traces(t, rule: QuadratureRule) -> list[complex]:
    """(Tr P, Tr AP) over the contour from the trace engine on a Schur form T."""
    sums = schur_trace_sum(t, rule, [lambda z: 1.0, lambda z: z])
    return [-s / (2j * math.pi) for s in sums]


def extract_eigenvalue(a, contour) -> complex:
    """Isolated nondegenerate eigenvalue enclosed by the contour (see
    :func:`enclosed_eigenvalue`), from Tr P and Tr AP alone: one Schur form
    T (:func:`numcore.schur_oracle`), whose diagonal also clears the contour,
    and :func:`schur_trace_sum` on it, no resolvent formed."""
    _, rule, t, _, _ = _cleared(a, contour)
    return enclosed_eigenvalue(*_enclosed_traces(t, rule))


def _default_probes(n: int) -> np.ndarray:
    """Fixed complex Gaussian probes (v, u) of dimension n, from PROBE_SEED."""
    g = np.random.default_rng(PROBE_SEED).standard_normal((2, 2, n))
    return g[:, 0] + 1j * g[:, 1]


def _shifted_triangular_solves(t, z, b, c, first: int = 0):
    """(X, Y), one (2, n, shifts) array, with columns (T - z_j I)^-1 b and
    (T - z_j I)^-T c for an upper-triangular T: one back and one forward
    substitution, each row a vector over the shifts, O(n^2) per shift.  A
    pivot with no finite reciprocal raises SpectrumHitError (:func:`_schur_pivots`)."""
    piv = _schur_pivots(t, z, first)[0]
    tc = np.ascontiguousarray(t.T)  # row i holds column i of T
    x, y = xy = np.empty((2,) + piv.shape, dtype=complex)
    for i in range(len(t) - 1, -1, -1):
        x[i] = (b[i] - t[i, i + 1:] @ x[i + 1:]) / piv[i]
    for i in range(len(t)):
        y[i] = (c[i] - tc[i, :i] @ y[:i]) / piv[i]
    return xy


def _triangular_probe_sums(t, rule: QuadratureRule, b, c):
    """(sum_j w_j (T - zeta_j)^-1 b, sum_j w_j (T - zeta_j)^-T c) for an
    upper-triangular T, TRACE_CHUNK_NODES nodes at a time of :func:`_walk`.
    A T with nothing above its diagonal takes b / pivots and c / pivots:
    the substitutions' products above the diagonal are exact zeros, so the
    bits are theirs."""
    if _is_diagonal(t):
        bc = np.stack((b, c))[:, :, None]
        solves = lambda chunk, lo: bc / _schur_pivots(t, chunk.nodes, lo)[0]
    else:
        solves = lambda chunk, lo: _shifted_triangular_solves(t, chunk.nodes, b, c, lo)
    # node j's term is the (2, n) pair of its columns, and the sum's rows are the two sums
    return _walk(rule, TRACE_CHUNK_NODES, [None],
                 lambda chunk, lo: np.moveaxis(solves(chunk, lo), -1, 0))[0]


def enclosed_pair(a, contour):
    """(phi, eta, E, spectrum) of the isolated simple eigenvalue E the contour
    encloses: its Riesz projection is P = phi eta* with |phi| = 1 and
    eta* phi = 1, E = Tr AP, and ``spectrum`` is the Schur spectrum diag(T),
    sorted like :func:`numcore.eigvals_oracle`, that cleared the contour.
    P itself is never formed.

    The contour is applied to the fixed probes v, u of :func:`_default_probes`
    instead of the identity (Sakurai & Sugiura, J. Comput. Appl. Math. 159,
    2003; Polizzi, Phys. Rev. B 79, 115112, 2009): phi is P v and eta is
    P* u, normalized.  One complex Schur decomposition A = Z T Z* per
    distinct matrix serves the pass (Trefethen, Acta Numerica 8, 1999):
    diag(T) clears the contour, the probe sums take one back and one forward
    substitution on T - zeta_j per node, or b / pivots on a diagonal T
    (:func:`_triangular_probe_sums`), and Tr P, Tr AP come from
    :func:`schur_trace_sum` on T.  At n = 256 and 128 nodes (one BLAS
    thread) a pass takes ~0.1 s, mostly Schur, and ~0.01 s (~5 ms for a
    diagonal T) on the A of the last :func:`numcore.schur_oracle` call.

    Checks, each raising a typed error: the clearance oracle; a node on a
    Schur pivot (SpectrumHitError); Tr P through
    :func:`enclosed_eigenvalue`; each probe's overlap cosine with its vector
    (|eta* v| / |eta||v| and |phi* u| / |u|) at least PROBE_FLOOR
    (ProbeOrthogonalError); and the residuals |A phi - E phi| and
    |A* eta - conj(E) eta| / |eta| at most RESIDUAL_TOL times |A|
    (RankNotOneError).  |A| there is the largest column norm, a lower bound
    on |A|_2, so the residual checks are at least as strict as against the
    2-norm.
    """
    a, rule, t, z, spec = _cleared(a, contour)
    v, u = (np.asarray(p, dtype=complex) / np.linalg.norm(p)
            for p in _default_probes(a.shape[0]))
    zh = z.conj().T
    right, left = _triangular_probe_sums(t, rule, zh @ v, (zh @ u).conj())
    energy = enclosed_eigenvalue(*_enclosed_traces(t, rule))
    pv = z @ right / (-2j * math.pi)               # P v = phi (eta* v)
    pu = z @ left.conj() / (2j * math.pi)          # P* u = eta (phi* u)
    with np.errstate(all="ignore"):  # a probe orthogonal to its vector gives 0 / 0
        phi = pv / np.linalg.norm(pv)
        overlap_u = complex(phi.conj() @ pu)       # phi* P* u = phi* u
        eta = pu / overlap_u
        eta_norm = float(np.linalg.norm(eta))
        cos_v = float(np.linalg.norm(pv)) / eta_norm
    cos_u = abs(overlap_u)
    if not (cos_v >= PROBE_FLOOR and cos_u >= PROBE_FLOOR):  # NaN fails too
        raise ProbeOrthogonalError(
            f"probe overlaps |eta* v|/|eta| = {cos_v:.3e}, |phi* u| = {cos_u:.3e}: "
            f"need >= {PROBE_FLOOR:.0e} for both")
    scale = RESIDUAL_TOL * float(np.linalg.norm(a, axis=0).max())
    res_phi = float(np.linalg.norm(a @ phi - energy * phi))
    res_eta = float(np.linalg.norm(a.conj().T @ eta - np.conj(energy) * eta)) / eta_norm
    if not (res_phi <= scale and res_eta <= scale):
        raise RankNotOneError(
            f"residuals |A phi - E phi| = {res_phi:.3e}, |A* eta - conj(E) eta|/|eta| = "
            f"{res_eta:.3e} exceed {RESIDUAL_TOL:.0e} x max column norm = {scale:.3e}")
    return phi, eta, energy, spec


def rank_of_projection(p, defect: float | None = None) -> int:
    """Rank of a (possibly oblique) projection: rounded real trace.

    Cross-validated against the count of singular values above 1/2; a
    mismatch or an idempotency defect |P^2 - P|_2 beyond IDEM_TOL raises
    NotAProjectionError.  A caller that already holds the defect passes it
    as ``defect`` and it is not computed again.
    """
    p = as_matrix(p)
    if defect is None:
        defect = np.linalg.norm(p @ p - p, 2)
    if defect > IDEM_TOL:
        raise NotAProjectionError(f"|P^2 - P| = {defect:.3e} exceeds {IDEM_TOL:.1e}")
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


def _panel_gap(order: int) -> float:
    """Largest gap between neighbouring nodes of composite order-``order``
    Gauss-Legendre panels, as a fraction of one panel's length; the gap
    across a panel join counts, so order 1 (one node per panel) has gap 1."""
    x, _ = _legendre(order)
    return 0.5 * max(np.diff(x).max(initial=0.0), (1.0 - x[-1]) + (1.0 + x[0]))


def low_energy_hamiltonian(a, boundary: RightBoundary,
                           order: int = DEFAULT_GAUSS_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """(P, A_low) for the spectrum strictly left of the vertical line.

    The line is closed into a triangle with the edges of a dilation of the
    supplied sector; the dilation only moves the path away from the spectrum
    and never changes which eigenvalues are enclosed (anything left of the
    line and inside the sector).  Panels per edge are sized from the
    clearance check, at most 512 per edge: a spectrum nearer the path than
    that count clears raises ContourThroughSpectrumError.
    """
    a = as_matrix(a)
    spec = schur_oracle(a)[2]  # the resolvent pass below reuses the decomposition
    gamma = float(boundary.abscissa)
    scale = max(1.0, float(np.abs(spec).max()) if spec.size else 1.0)
    if spec.size and np.abs(spec.real - gamma).min() < LINE_TOL * scale:
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
    # the clearance check is global: the nearest node, at least dmin from the
    # spectrum, against CLEARANCE_FACTOR x the largest node gap anywhere.  So
    # every edge takes panels of length <= dmin / (CLEARANCE_FACTOR x g), g the
    # panel's largest gap fraction; gaps across joins and vertices are covered
    per_length = CLEARANCE_FACTOR * _panel_gap(order) / dmin
    counts = [int(np.clip(math.ceil(per_length * abs(p1 - p0)), 4, 512)) for p0, p1 in edges]
    tri = Polyline(vertices=tuple(verts), order=order, panels=tuple(counts))
    p, ap = _integrate_rdt(a, tri, [lambda z: 1.0, lambda z: z])
    return p, ap
