"""Finite-dimensional Hilbert rigging built from a coercive hermitian form.

A shift of the hermitian part produces h+ >= 1 with Cholesky factor L
(h+ = L* L, L upper triangular).  The weighted geometries |psi|_+ = |L psi|
and |eta|_- = |L^-* eta| turn every relatively bounded form into a bounded
operator between them; the class norm below is the operator norm in that
pair of geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NotCoerciveError, NotHermitianizableError
from .forms import Sector, hermitian_split
from .numcore import as_matrix

TINY_THRESHOLD = 1e-3
TINY_A_MAX = 1e6


@dataclass(frozen=True)
class Rigging:
    """Coercive hermitian form h+ >= 1 with its Cholesky factorization.

    ``factor`` is upper triangular with positive diagonal and
    h_plus = factor* factor; ``shift`` is the scalar m with
    h_plus = m + h^r.
    """

    h_plus: np.ndarray
    factor: np.ndarray
    shift: float

    @property
    def dim(self) -> int:
        return self.h_plus.shape[0]

    def plus_norm(self, psi) -> float:
        """|psi|_+ = sqrt(psi* h+ psi)."""
        psi = np.asarray(psi, dtype=complex)
        return float(np.linalg.norm(self.factor @ psi))

    def to_plus_frame(self, t) -> np.ndarray:
        """L^-* T L^-1: the matrix of the form in the h+ orthonormal frame."""
        t = as_matrix(t)
        y = sla.solve_triangular(self.factor.conj().T, t, lower=True, check_finite=False)
        return sla.solve_triangular(self.factor.conj().T, y.conj().T, lower=True,
                                    check_finite=False).conj().T


def make_h_plus(h) -> Rigging:
    """Standardized rigging from a form: h+ = m + h^r with m = max(0, 1 - lambda_min).

    The eigenvalue floor lambda_min(h+) >= 1 makes h+ a legitimate inner
    product dominating the ambient one.
    """
    hr, _ = hermitian_split(h)
    try:
        w = sla.eigh(hr, eigvals_only=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotHermitianizableError(str(exc)) from exc
    m = max(0.0, 1.0 - float(w[0]))
    h_plus = m * np.eye(hr.shape[0]) + hr
    # lower Cholesky, then transpose: h+ = L*L with L upper triangular
    try:
        low = sla.cholesky(h_plus, lower=True, check_finite=False)
    except sla.LinAlgError:
        # strictly PSD edge: nudge by the coercivity slack and retry
        low = sla.cholesky(h_plus + 1e-12 * np.eye(hr.shape[0]), lower=True,
                           check_finite=False)
    return Rigging(h_plus=h_plus, factor=low.conj().T, shift=m)


def class_norm(t, rg: Rigging) -> float:
    """Operator norm of the form in the H+ -> H- geometry: |L^-* T L^-1|."""
    return float(sla.svdvals(rg.to_plus_frame(t), check_finite=False)[0])


def pseudo_cauchy_schwarz_margin(t, rg: Rigging, trials: int, seed: int = 0) -> float:
    """Sampled sup of |t[x,y]|^2 / (h+[x] h+[y]).

    Never exceeds class_norm(t)^2; the gap quantifies how far random probing
    stays from the extremal pair.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t = as_matrix(t)
    n = rg.dim
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        num = abs(x.conj() @ t @ y) ** 2
        den = (rg.plus_norm(x) ** 2) * (rg.plus_norm(y) ** 2)
        if den > 0:
            best = max(best, num / den)
    return best


def relative_bound_profile(t, h, a_grid) -> np.ndarray:
    """b(a) = |(a + h+)^{-1/2} T (a + h+)^{-1/2}| over an increasing grid of a.

    A quadratic surrogate for the relative bound: |t[psi]| <= b(a) (a|psi|^2
    + h+[psi]) for every psi, so a decaying profile certifies Kato tininess
    of t against h.  The profile is monotone non-increasing in a.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or len(a_grid) == 0:
        raise ValueError("a_grid must be a nonempty 1-D sequence")
    if np.any(np.diff(a_grid) <= 0) or a_grid[0] <= 0:
        raise ValueError("a_grid must be positive and strictly increasing")
    t = as_matrix(t)
    rg = make_h_plus(h)
    w, q = sla.eigh(rg.h_plus, check_finite=False)
    tq = q.conj().T @ t @ q
    out = np.empty(len(a_grid))
    for i, a in enumerate(a_grid):
        s = 1.0 / np.sqrt(a + w)
        out[i] = sla.svdvals(s[:, None] * tq * s[None, :], check_finite=False)[0]
    return out


def is_kato_tiny(profile: np.ndarray, threshold: float = TINY_THRESHOLD) -> bool:
    """Heuristic sufficient criterion: the profile tail fell below threshold.

    This is a diagnostic, not a theorem: it reports that the surrogate bound
    b(a_max) is already below ``threshold``.
    """
    return bool(profile[-1] < threshold)


def sectorial_iso_check(t, rg: Rigging, tol: float = 1e-10) -> float:
    """Lower isomorphism bound of the form between the rigged spaces.

    Requires t^r >= 1 and t^r >= h+ (both verified; the standardized rigging
    of t itself satisfies the second automatically).  Under these the minimum
    singular value of L^-* T L^-1 is >= 1: coercivity survives the passage to
    the rigged geometry with constant one.
    """
    t = as_matrix(t)
    tr, _ = hermitian_split(t)
    w = sla.eigh(tr, eigvals_only=True, check_finite=False)
    if w[0] < 1.0 - tol:
        raise NotCoerciveError(f"lambda_min(t^r) = {w[0]:.6e} < 1")
    gap = sla.eigh(tr - rg.h_plus, eigvals_only=True, check_finite=False)
    if gap[0] < -tol * max(1.0, abs(w[-1])):
        raise NotCoerciveError("rigging is not subordinate: h+ <= t^r fails")
    return float(sla.svdvals(rg.to_plus_frame(t), check_finite=False)[-1])


def sector_stability_radius(sector: Sector, ample: Sector) -> float:
    """Class-norm radius keeping numerical ranges inside the ample sector.

    For a form t with numerical range in ``sector`` (vertex <= 0), t^r >= 1,
    and the rigging built from t itself, any perturbation s of t with
    class_norm(s - t) < radius has numerical range inside ``ample``
    (vertex <= 0, strictly wider).  Derivation: the form value moves by at
    most delta * t^r[psi] relative to Re t[psi] >= (1 - delta) t^r[psi],
    giving tan(theta') >= (tan(theta) + delta) / (1 - delta).
    """
    if ample.half_angle <= sector.half_angle:
        raise ValueError("ample sector must have strictly larger half-angle")
    if sector.vertex > 0 or ample.vertex > 0:
        raise ValueError("stability radius requires vertices <= 0")
    tth, tamp = np.tan(sector.half_angle), np.tan(ample.half_angle)
    return float((tamp - tth) / (1.0 + tamp))
