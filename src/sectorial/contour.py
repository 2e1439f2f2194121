"""Contour representations, quadrature, and the contour operator calculus:
spectral projections, projected operators, scalar functions of a matrix,
isolated-eigenvalue extraction, and low-energy truncation across a vertical
splitting line.

Circles use the trapezoid rule (exponentially convergent for analytic
integrands); straight segments and sector rays use composite Gauss-Legendre
panels.  Every contour quantity goes through one engine, :func:`resolvent_sums`,
which solves the nodes in fixed chunks and folds the weighted terms in a
fixed pairwise order, so results do not depend on evaluation scheduling and
memory does not grow with the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourThroughSpectrumError,
    DegenerateEnclosureError,
    EmptyEnclosureError,
    GammaHitsSpectrumError,
    NotAProjectionError,
    NumericalFailure,
)
from .forms import Sector
from .numcore import PairwiseAccumulator, as_matrix, eigvals_oracle, pairwise_sum, solve

DEFAULT_CIRCLE_NODES = 128
DEFAULT_GAUSS_ORDER = 16
CLEARANCE_FACTOR = 10.0
CHUNK_NODES = 32  # nodes per batched solve in resolvent_sums


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


def _gauss_panel(a: complex, b: complex, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
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


@dataclass(frozen=True)
class SectorBoundary:
    """Truncated boundary of a wedge, traversed lower ray inward then upper
    ray outward (the orientation that makes the exponential calculus come out
    with unit winding around the enclosed spectrum).

    ``breaks`` are the radial panel boundaries, 0 = first entry, truncation
    radius = last entry.
    """

    vertex: complex
    half_angle: float
    breaks: tuple
    order: int = DEFAULT_GAUSS_ORDER

    @property
    def radius(self) -> float:
        return float(self.breaks[-1])

    def rule(self) -> QuadratureRule:
        up = np.exp(1j * self.half_angle)
        down = np.exp(-1j * self.half_angle)
        t_nodes, t_weights = [], []
        for lo, hi in zip(self.breaks[:-1], self.breaks[1:]):
            n, w = _gauss_panel(complex(lo), complex(hi), self.order)
            t_nodes.append(n.real)
            t_weights.append(w.real)
        t = np.concatenate(t_nodes)
        wt = np.concatenate(t_weights)
        # integral over the path = int_0^R [g(v + t e^{i a}) e^{i a}
        #                                  - g(v + t e^{-i a}) e^{-i a}] dt
        nodes = np.concatenate([self.vertex + t[::-1] * down, self.vertex + t * up])
        weights = np.concatenate([-wt[::-1] * down, wt * up])
        return QuadratureRule(nodes=nodes, weights=weights, closed=False)


def adapted_sector_boundary(vertex: complex, half_angle: float, radius: float,
                            inner: Sector, max_panel: float | None = None,
                            order: int = DEFAULT_GAUSS_ORDER,
                            max_panels: int = 20000) -> SectorBoundary:
    """Sector boundary with radial panels graded by the local distance to the
    enclosed (inner) sector.

    The spectrum sits inside ``inner``, so a panel no longer than ~1.2x the
    distance from its start to that wedge keeps the Gauss rule deep in its
    exponential-convergence regime; ``max_panel`` additionally resolves
    exponential factors of a known oscillation/decay scale.
    """
    direction = np.exp(1j * half_angle)
    breaks = [0.0]
    floor = 1e-6 * max(1.0, abs(vertex))
    while breaks[-1] < radius:
        if len(breaks) > max_panels:
            raise NumericalFailure(
                f"sector-boundary panel budget {max_panels} exhausted at "
                f"t = {breaks[-1]:.3e} of {radius:.3e}; the wedge geometry is "
                "too thin to resolve")
        t = breaks[-1]
        d = inner.distance(complex(vertex + t * direction))
        # the distance function is 1-Lipschitz: step <= d/2 keeps every point
        # of the panel at least d/2 away from the enclosed wedge
        step = max(0.5 * d, floor)
        if max_panel is not None:
            step = min(step, max_panel)
        breaks.append(min(radius, t + step))
    return SectorBoundary(vertex=vertex, half_angle=half_angle,
                          breaks=tuple(breaks), order=order)


# -- operator calculus --------------------------------------------------------

def _resolvent_nodes(a: np.ndarray, rule: QuadratureRule) -> list[np.ndarray]:
    """R(zeta_j, A) at every node; one batched LAPACK call.

    Nodes are independent (this is the parallelizable step); the caller
    reduces with a fixed pairwise tree so the result does not depend on how
    the batch was scheduled.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    shifted = a[None, :, :] - rule.nodes[:, None, None] * eye[None, :, :]
    try:
        res = np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
    except np.linalg.LinAlgError:
        # fall back to the pivot-checked path for a precise diagnosis
        return [solve(a - z * eye, eye) for z in rule.nodes]
    return list(res)


def _fold_chunk(sums, funcs, chunk: QuadratureRule, resolvents) -> None:
    for z, w, r in zip(chunk.nodes, chunk.weights, resolvents):
        for f, acc in zip(funcs, sums):
            acc.add(w * f(z) * r)


def resolvent_sums(a: np.ndarray, rule: QuadratureRule, funcs) -> list:
    """sum_j w_j f(zeta_j) R(zeta_j, A) over the nodes of ``rule``, for each f.

    The one quadrature engine behind every contour quantity.  Nodes are
    solved CHUNK_NODES at a time and each weighted term is folded at once
    into a :class:`PairwiseAccumulator` per f, so memory is
    O((CHUNK_NODES + len(funcs) * log2 m) n^2) whatever the node count m,
    and every sum equals ``pairwise_sum`` over the m terms bit for bit.
    """
    sums = [PairwiseAccumulator() for _ in funcs]
    for lo in range(0, len(rule.nodes), CHUNK_NODES):
        chunk = QuadratureRule(nodes=rule.nodes[lo:lo + CHUNK_NODES],
                               weights=rule.weights[lo:lo + CHUNK_NODES], closed=False)
        # a helper call, so the chunk's resolvents are freed before the next solve
        _fold_chunk(sums, funcs, chunk, _resolvent_nodes(a, chunk))
    return [acc.total() for acc in sums]


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
