"""Sesquilinear-form geometry: hermitian splitting, numerical range, sectors.

A form t[phi, psi] = phi* T psi is carried by its dense matrix T.  The
numerical range boundary is sampled by the rotated-hermitian-part sweep: for
each angle the top eigenvector of Re(e^{-i phi} T) supplies one boundary
point and one support value, and convexity of the sampled polygon is a
checkable invariant.  Containment of Num t in a sector is decided exactly
from three support values (:meth:`Sector.require_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
        n = tr.shape[0]
        edge = math.pi / 2 + self.half_angle
        excess, support = {}, []
        for side, phi in (("vertex", math.pi), ("upper edge", edge), ("lower edge", -edge)):
            try:
                top = float(sla.eigh(math.cos(phi) * tr + math.sin(phi) * ti, eigvals_only=True,
                                     subset_by_index=[n - 1, n - 1], check_finite=False)[0])
            except sla.LinAlgError as exc:  # pragma: no cover
                raise NoConvergenceError(str(exc)) from exc
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

    For each angle phi the top eigenvector v of (e^{-i phi} T + e^{i phi} T*)/2
    yields the boundary point v*Tv / v*v; the matching eigenvalue is the
    support value in that direction.
    """
    t = as_matrix(t)
    if m < 8:
        raise ValueError(f"need at least 8 sweep angles, got {m}")
    angles = 2.0 * math.pi * np.arange(m) / m
    points = np.empty(m, dtype=complex)
    support = np.empty(m)
    for k, phi in enumerate(angles):
        rot = np.exp(-1j * phi) * t
        h = (rot + rot.conj().T) / 2.0
        try:
            w, v = sla.eigh(h, check_finite=False)
        except sla.LinAlgError as exc:  # pragma: no cover
            raise NoConvergenceError(str(exc)) from exc
        top = v[:, -1]
        support[k] = w[-1]
        points[k] = (top.conj() @ t @ top) / (top.conj() @ top)
    return NumericalRangeBoundary(angles=angles, points=points, support=support)


def _max_aperture(points: np.ndarray, c: float) -> float:
    """Largest angle subtended at real vertex c by any boundary point."""
    dx = points.real - c
    dy = np.abs(points.imag)
    return float(np.arctan2(dy, dx).max()) if len(points) else 0.0


def fit_sector(boundary: NumericalRangeBoundary, margin: float = 0.05) -> Sector:
    """Fit a real-vertex sector around a sampled numerical-range boundary.

    Golden-section search for the vertex over [min Re - spread, min Re]
    minimizing the maximal aperture, then the half-angle is dilated by
    ``margin`` to produce an ample sector.  Flat stretches of the objective
    resolve toward the rightmost (tightest) vertex.
    """
    pts = boundary.points
    if len(pts) == 0:
        raise ValueError("empty boundary")
    lo_re = float(pts.real.min())
    spread = float(np.ptp(pts.real))
    a, b = lo_re - spread, lo_re
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = _max_aperture(pts, x1), _max_aperture(pts, x2)
    for _ in range(80):
        if f1 > f2 + 1e-15:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = _max_aperture(pts, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = _max_aperture(pts, x1)
    candidates = [(f1, x1), (f2, x2), (_max_aperture(pts, b), b)]
    best = min(candidates, key=lambda q: (q[0], -q[1]))
    angle, vertex = best
    for f, x in candidates:  # prefer the rightmost vertex among ties
        if f <= angle + 1e-12 and x > vertex:
            angle, vertex = f, x
    if angle >= math.pi / 2 - margin:
        raise NotSectorialError(
            f"required half-angle {angle:.6f} leaves no room for margin {margin:.3f}"
        )
    return Sector(vertex=vertex, half_angle=angle + margin)
