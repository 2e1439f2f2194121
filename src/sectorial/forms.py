"""Sesquilinear-form geometry: hermitian splitting, numerical range, sectors.

A form t[phi, psi] = phi* T psi is carried by its dense matrix T.  The
numerical range boundary is sampled by the rotated-hermitian-part sweep: each
angle's support value and boundary point come from the top eigenpair of
Re(e^{-i phi} T).  Re(e^{-i(phi+pi)} T) = -Re(e^{-i phi} T), so one tridiagonal
reduction yields both ends of the spectrum and serves a pair of opposite
angles; convexity of the sampled polygon is a checkable invariant.  From
n = ``THREAD_MIN_DIM`` up the reductions are spread over the process's CPUs;
an angle's figures come from the same operations on whichever thread takes
it, so the bits do not depend on the number of threads.  Containment of Num t
in a sector is decided exactly from three support values
(:meth:`Sector.require_range`).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NotSectorialError, SectorViolationError
from .numcore import _addresses, _lapack, as_matrix

CONVEXITY_SLACK = 1e-10
DEFAULT_NODES = 256
THREAD_MIN_DIM = 64  # below it a thread's start-up costs more than its share of the sweep saves
SWEEP_WORKSPACE_BYTES = 1 << 28  # what the sweep's threads may allocate together: two threads at n = 2048


def adjoint_form(t) -> np.ndarray:
    """Adjoint form t*[phi,psi] = conj(t[psi,phi]): the conjugate transpose."""
    return as_matrix(t).conj().T


def hermitian_split(t) -> tuple[np.ndarray, np.ndarray]:
    """Split T = T^r + i T^i into hermitian parts (T+T*)/2 and (T-T*)/(2i)."""
    t = as_matrix(t)
    th = t.conj().T
    return (t + th) / 2.0, (t - th) / 2.0j


# looked up by name at each call; info is every routine's last argument
zhetrd = _lapack("zhetrd", 10)
dstebz = _lapack("dstebz", 18)
dstein = _lapack("dstein", 13)
zunmqr = _lapack("zunmqr", 13)


_ZHETRD_LWORK = {}  # n -> zhetrd's optimal lwork, which depends on n alone


class _Reducer:
    """One thread's LAPACK workspace for the extreme eigenpairs of n x n hermitian matrices.

    The steps are those LAPACK ``zheevr`` takes for a one-index subset:
    ``zhetrd`` to a real tridiagonal, ``dstebz`` bisection for index n and
    index 1, ``dstein`` inverse iteration for each (with its own split
    blocks), and one unblocked ``zunmqr`` back-transformation of both vectors.
    The top pair has the bits of ``scipy.linalg.eigh(h, subset_by_index=[n-1,
    n-1])``.  Every array and argument address is made once, here, so each
    matrix then takes three numpy operations and six GIL-free LAPACK calls.
    A reducer made with ``vectors=False`` gives eigenvalues only, and makes
    neither the vector arrays nor the last two steps' arguments.
    """

    def __init__(self, n: int, vectors: bool = True):
        self.a = np.empty((n, n), dtype=complex, order="F")  # h, then zhetrd's reflectors
        self.b = np.empty((n, n), dtype=complex, order="F")  # the second term of h
        self.d, self.e = np.empty(n), np.empty(max(n - 1, 1))  # e and tau hold n - 1 entries
        self.tau = np.empty(max(n - 1, 1), dtype=complex)
        self.w = np.empty((2, n))  # per end: dstebz's value
        self.block, self.split = np.empty((2, n), dtype=np.int32), np.empty((2, n), dtype=np.int32)
        # dstebz takes 4n reals and 3n ints, dstein 5n reals, n ints and its ifail (at 3n)
        self.real_work, self.int_work = np.empty(5 * n), np.empty(4 * n, dtype=np.int32)
        self.zero = np.zeros(1)
        # the integer arguments: n, n - 1, 1, 2, lwork (-1 asks for its size), info, dstebz's m and nsplit
        self.ints = np.array([n, n - 1, 1, 2, -1, 0, 0, 0], dtype=np.int32)
        self.info = self.ints[5:6]
        n_, n1, one, two, lwork, info, found, nsplit = (self.ints.ctypes.data + 4 * i for i in range(8))

        def zhetrd_args():
            return _addresses(b"L", n_, self.a, n_, self.d, self.e, self.tau, self.work, lwork, info)
        if n not in _ZHETRD_LWORK:  # the workspace query, once per n
            self.work = np.empty(1, dtype=complex)
            self._call("zhetrd", zhetrd_args())
            _ZHETRD_LWORK[n] = int(self.work[0].real)
        self.ints[4] = _ZHETRD_LWORK[n]
        self.work = np.empty(self.ints[4], dtype=complex)
        self.zhetrd_args = zhetrd_args()
        # each array's address once; an end's row of w, z, block and split starts end * n entries in
        d, e, w, block, split, real_work, int_work, zero = _addresses(
            self.d, self.e, self.w, self.block, self.split, self.real_work, self.int_work, self.zero)
        self.dstebz_args = [
            _addresses(b"I", b"B", n_, zero, zero, index, index, zero, d, e, found, nsplit, w + 8 * n * end,
                       block + 4 * n * end, split + 4 * n * end, real_work, int_work, info)
            for end, index in enumerate((n_, one))]
        if not vectors:
            return
        self.z = np.empty((2, n))  # per end: dstein's vector
        self.v = np.empty((n, 2), dtype=complex, order="F")
        self.small_work = np.empty(2, dtype=complex)
        z, ifail = _addresses(self.z, self.int_work[3 * n:])
        self.dstein_args = [
            _addresses(n_, d, e, one, w + 8 * n * end, block + 4 * n * end, split + 4 * n * end, z + 8 * n * end,
                       n_, real_work, int_work, ifail, info)
            for end in range(2)]
        # C = v[1:] and the reflectors below a's diagonal, both with leading dimension n;
        # lwork = 2 keeps zunmqr unblocked: it then gives zheevr's bits, the blocked one does not
        self.zunmqr_args = _addresses(b"L", b"N", n1, two, n1, self.a[1:], n_, self.tau, self.v[1:], n_,
                                      self.small_work, two, info)

    def _call(self, routine: str, args: tuple) -> None:
        globals()[routine](*args)
        if self.info[0] != 0:
            raise NoConvergenceError(f"LAPACK {routine} returned info={self.info[0]}")

    def extremes(self, tr, ti, phi: float, vectors: bool = True):
        """Top and bottom eigenvalue of cos phi tr + sin phi ti, with unit eigenvectors.

        Returns ``(top, bottom)``, or ``(top, bottom, v)`` with the top vector
        in ``v[:, 0]`` and the bottom one in ``v[:, 1]``; the next call
        overwrites v.  tr and ti must be Fortran-ordered, as ``a`` is: each
        operation then runs numpy's contiguous loop, and gives the bits that
        ``cos phi * tr + sin phi * ti`` gives on C-ordered arrays.
        """
        np.multiply(tr, math.cos(phi), out=self.a)
        np.multiply(ti, math.sin(phi), out=self.b)
        np.add(self.a, self.b, out=self.a)
        self._call("zhetrd", self.zhetrd_args)
        for args in self.dstebz_args:
            self._call("dstebz", args)
        top, bottom = float(self.w[0, 0]), float(self.w[1, 0])
        if not vectors:
            return top, bottom
        for args in self.dstein_args:
            self._call("dstein", args)
        self.v[:] = self.z.T
        self._call("zunmqr", self.zunmqr_args)
        return top, bottom, self.v


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
        tr, ti = (np.asfortranarray(h) for h in hermitian_split(t))
        reducer = _Reducer(tr.shape[0], vectors=False)
        edge = math.pi / 2 + self.half_angle
        excess, support = {}, []
        for side, phi in (("vertex", math.pi), ("upper edge", edge), ("lower edge", -edge)):
            top, _ = reducer.extremes(tr, ti, phi, vectors=False)
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
    every angle takes its own reduction.  From n = ``THREAD_MIN_DIM`` up the
    reductions run on one thread per available CPU, each thread taking the
    next angle left, with no more threads than ``SWEEP_WORKSPACE_BYTES`` of
    workspace allow (at most two at n = 2048, one above).  An angle's figures
    come from the same operations on whichever thread, so the bits depend
    neither on the number of threads nor on their timing; a failure is
    reported for the lowest failing angle.
    """
    t = as_matrix(t)
    if m < 8:
        raise ValueError(f"need at least 8 sweep angles, got {m}")
    n = t.shape[0]
    tr, ti = (np.asfortranarray(h) for h in hermitian_split(t))
    angles = 2.0 * math.pi * np.arange(m) / m
    support = np.empty(m)
    tops = np.empty((n, m), dtype=complex)
    own = m // 2 if m % 2 == 0 else m  # the angles that take a reduction of their own
    # a thread's workspace is mostly _Reducer's two n x n complex arrays
    parts = min(own, _cpu_count(), max(1, SWEEP_WORKSPACE_BYTES // (32 * n * n))) if n >= THREAD_MIN_DIM else 1
    pending = deque(range(own))  # popleft is thread-safe: each angle goes to the first free thread
    failures = {}

    def sweep() -> None:
        reducer = _Reducer(n)
        while True:
            try:
                k = pending.popleft()
            except IndexError:  # every angle is taken
                return
            try:
                top, bottom, v = reducer.extremes(tr, ti, angles[k])
            except NoConvergenceError as exc:
                failures[k] = exc
                continue
            support[k], tops[:, k] = top, v[:, 0]
            if own < m:
                support[k + own], tops[:, k + own] = -bottom, v[:, 1]

    if parts == 1:
        sweep()
    else:
        # leaving the block joins every thread, also when one raised
        with ThreadPoolExecutor(parts - 1) as pool:
            try:
                rest = [pool.submit(sweep) for _ in range(1, parts)]
                sweep()
                for future in rest:
                    future.result()
            finally:  # on an early exit the other threads stop after their current angle
                pending.clear()
    if failures:  # the lowest failing angle, whoever took it
        raise failures[min(failures)]
    tv = t @ tops  # conjugating tops in place then spares a third n x m array
    points = np.einsum("ik,ik->k", np.conjugate(tops, out=tops), tv)
    return NumericalRangeBoundary(angles=angles, points=points, support=support)


def _cpu_count() -> int:
    """The CPUs this process may run on (all of the machine's where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
