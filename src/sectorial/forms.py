"""Sesquilinear-form geometry: hermitian splitting, numerical range, sectors.

A form t[phi, psi] = phi* T psi is carried by its dense matrix T.  The
numerical range boundary is sampled by the rotated-hermitian-part sweep: each
angle's support value and boundary point come from the top eigenpair of
Re(e^{-i phi} T).  Re(e^{-i(phi+pi)} T) = -Re(e^{-i phi} T), so one tridiagonal
reduction yields both ends of the spectrum and serves a pair of opposite
angles; convexity of the sampled polygon is a checkable invariant.
Containment of Num t in a sector is decided exactly from three support
values (:meth:`Sector.require_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergenceError, NotSectorialError, SectorViolationError
from .numcore import as_matrix

CONVEXITY_SLACK = 1e-10
DEFAULT_NODES = 256


def adjoint_form(t) -> np.ndarray:
    """Adjoint form t*[phi,psi] = conj(t[psi,phi]): the conjugate transpose."""
    return as_matrix(t).conj().T


def hermitian_split(t) -> tuple[np.ndarray, np.ndarray]:
    """Split T = T^r + i T^i into hermitian parts (T+T*)/2 and (T-T*)/(2i)."""
    t = as_matrix(t)
    th = t.conj().T
    return (t + th) / 2.0, (t - th) / 2.0j


def _extreme_pairs(h: np.ndarray, vectors: bool = True):
    """Top and bottom eigenvalue of hermitian h, with unit eigenvectors, from one reduction.

    The steps are those LAPACK ``zheevr`` takes for a one-index subset:
    ``zhetrd`` to a real tridiagonal, ``dstebz`` bisection for index n and
    index 1, ``dstein`` inverse iteration for each (with its own split
    blocks), and one unblocked ``zunmqr`` back-transformation of both vectors.
    The top pair has the bits of ``scipy.linalg.eigh(h, subset_by_index=[n-1,
    n-1])``.  Returns ``(top, bottom)``, or ``(top, bottom, v)`` with the top
    vector in ``v[:, 0]`` and the bottom one in ``v[:, 1]``.
    """
    n = h.shape[0]
    if n == 1:
        w = float(h[0, 0].real)
        return (w, w, np.ones((1, 2), dtype=complex)) if vectors else (w, w)
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    c, d, e, tau, info = lapack.zhetrd(h, lower=1, lwork=lwork)
    _require_converged("zhetrd", info)
    ends = []
    for index in (n, 1):
        _, w, block, split, info = lapack.dstebz(d, e, 2, 0.0, 0.0, index, index, 0.0, "B")
        _require_converged("dstebz", info)
        ends.append((w[:1], block, split))
    top, bottom = (float(w[0]) for w, _, _ in ends)
    if not vectors:
        return top, bottom
    v = np.empty((n, 2), dtype=complex)
    for j, (w, block, split) in enumerate(ends):
        z, info = lapack.dstein(d, e, w, block, split)
        _require_converged("dstein", info)
        v[:, j] = z[:, 0]
    # lwork = 2 keeps zunmqr unblocked: it then gives zheevr's bits, the blocked one does not
    v[1:], _, info = lapack.zunmqr("L", "N", c[1:, :n - 1], tau, v[1:], 2)
    _require_converged("zunmqr", info)
    return top, bottom, v


def _require_converged(routine: str, info: int) -> None:
    if info != 0:
        raise NoConvergenceError(f"LAPACK {routine} returned info={info}")


@dataclass(frozen=True)
class Sector:
    """Right-facing wedge with real vertex: {vertex + r e^{i phi}, |phi| <= half_angle}."""

    vertex: float
    half_angle: float

    def __post_init__(self):
        if not 0.0 <= self.half_angle < math.pi / 2:
            raise ValueError(f"half_angle must lie in [0, pi/2), got {self.half_angle}")

    def contains(self, z, slack: float = 0.0) -> bool:
        """Wedge membership test; slack loosens both defining inequalities."""
        z = np.asarray(z, dtype=complex)
        dx = z.real - self.vertex
        ok = (dx >= -slack) & (np.abs(z.imag) <= math.tan(self.half_angle) * np.maximum(dx, 0.0) + slack)
        return bool(np.all(ok))

    def require_range(self, t) -> None:
        """Raise SectorViolationError unless Num T lies in the wedge.

        Num T is convex, so it lies in the wedge exactly when its support
        value lambda_max(Re(e^{-i phi} T)) is at most Re(e^{-i phi} vertex) at
        the wedge's three outward normals: phi = pi at the vertex and
        +-(pi/2 + half_angle) on the edges (Johnson, SIAM J. Numer. Anal. 15,
        1978).  The vertex normal matters at half_angle = 0, where the two edge
        half-planes alone admit points left of the vertex.  The slack is 1e-9
        relative to the largest |support value| (at least 1e-9); the error
        names the side with the largest excess over its bound.
        """
        tr, ti = hermitian_split(t)
        edge = math.pi / 2 + self.half_angle
        excess, support = {}, []
        for side, phi in (("vertex", math.pi), ("upper edge", edge), ("lower edge", -edge)):
            top, _ = _extreme_pairs(math.cos(phi) * tr + math.sin(phi) * ti, vectors=False)
            support.append(abs(top))
            excess[side] = top - self.vertex * math.cos(phi)
        slack = 1e-9 * max(1.0, *support)
        side = max(excess, key=excess.get)
        if not excess[side] <= slack:  # a NaN excess fails too
            raise SectorViolationError(
                f"numerical range escapes Sec(vertex={self.vertex!r}, "
                f"half_angle={self.half_angle!r}) past the {side}: "
                f"excess {excess[side]:.6e} > slack {slack:.6e}")


@dataclass(frozen=True)
class NumericalRangeBoundary:
    """Sampled boundary of Num t.

    ``points[k]`` is the boundary point in sweep direction ``angles[k]`` and
    ``support[k]`` the support value max Re(e^{-i angle} Num t); the polygon
    spanned by the points is convex up to slack.
    """

    angles: np.ndarray
    points: np.ndarray
    support: np.ndarray

    def convexity_margin(self) -> float:
        """Most negative oriented cross product of consecutive edges.

        Nonnegative (up to slack * diam^2) for a convex anticlockwise sweep.
        """
        p = self.points
        # drop consecutive duplicates to avoid zero edges dominating
        keep = np.abs(np.diff(np.concatenate([p, p[:1]]))) > 0
        q = p[keep] if keep.any() else p[:1]
        if len(q) < 3:
            return 0.0
        e = np.diff(np.concatenate([q, q[:2]]))
        cross = np.imag(np.conj(e[:-1]) * e[1:])
        return float(cross.min())

    def is_convex(self, slack: float = CONVEXITY_SLACK) -> bool:
        diam = float(np.abs(self.points[:, None] - self.points[None, :]).max()) if len(self.points) > 1 else 0.0
        return self.convexity_margin() >= -slack * max(1.0, diam**2)

    def hull_distance(self, zeta: complex) -> float:
        """Distance from zeta to the support-function hull.

        max_k [Re(e^{-i angle_k} zeta) - support_k] is <= the true distance to
        Num t (the hull only shrinks as more angles are sampled), so bounds of
        the form 1/dist computed from it are conservative.  Returns 0 when
        zeta is inside every supporting half-plane.
        """
        viol = np.real(np.exp(-1j * self.angles) * zeta) - self.support
        return float(max(0.0, viol.max()))

    def encloses(self, z, slack: float = 0.0) -> bool:
        """True when every z lies inside all sampled supporting half-planes."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        proj = np.real(np.exp(-1j * self.angles)[:, None] * z[None, :])
        return bool(np.all(proj <= self.support[:, None] + slack))


def numerical_range(t, m: int = DEFAULT_NODES) -> NumericalRangeBoundary:
    """Sample the numerical-range boundary at m sweep angles.

    For each angle phi the top eigenpair (lambda, v) of cos phi T^r + sin phi T^i,
    the hermitian part of e^{-i phi} T, gives the support value lambda and the
    boundary point v*Tv; one product of T with the stacked unit v gives all m.
    For even m the angles k and k + m/2 are opposite, and the hermitian part at
    the second is minus that at the first, so one reduction at angle k gives
    both: its bottom eigenpair, negated, is the top one at k + m/2.  For odd m
    every angle takes its own reduction.
    """
    t = as_matrix(t)
    if m < 8:
        raise ValueError(f"need at least 8 sweep angles, got {m}")
    tr, ti = hermitian_split(t)
    angles = 2.0 * math.pi * np.arange(m) / m
    support = np.empty(m)
    tops = np.empty((t.shape[0], m), dtype=complex)
    own = m // 2 if m % 2 == 0 else m  # the angles that take a reduction of their own
    for k, phi in enumerate(angles[:own]):
        top, bottom, v = _extreme_pairs(math.cos(phi) * tr + math.sin(phi) * ti)
        support[k], tops[:, k] = top, v[:, 0]
        if own < m:
            support[k + own], tops[:, k + own] = -bottom, v[:, 1]
    tv = t @ tops  # conjugating tops in place then spares a third n x m array
    points = np.einsum("ik,ik->k", np.conjugate(tops, out=tops), tv)
    return NumericalRangeBoundary(angles=angles, points=points, support=support)


def fit_sector(boundary: NumericalRangeBoundary, margin: float = 0.05) -> Sector:
    """Fit a real-vertex sector around a sampled numerical-range boundary.

    The vertex is min Re - spread, with spread the real-axis extent of the
    boundary, and the half-angle is the largest angle arctan(|Im p| /
    (Re p - vertex)) any boundary point p subtends there, dilated by
    ``margin``.  No vertex in [min Re - spread, min Re] does better: as the
    vertex moves left every point's angle shrinks, so the aperture is
    smallest at the left end.  Raises NotSectorialError when the aperture
    leaves no room for the margin below pi/2.
    """
    pts = boundary.points
    if len(pts) == 0:
        raise ValueError("empty boundary")
    vertex = float(pts.real.min() - np.ptp(pts.real))
    angle = float(np.arctan2(np.abs(pts.imag), pts.real - vertex).max())
    if angle >= math.pi / 2 - margin:
        raise NotSectorialError(
            f"required half-angle {angle:.6f} leaves no room for margin {margin:.3f}"
        )
    return Sector(vertex=vertex, half_angle=angle + margin)
