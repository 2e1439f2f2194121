"""Resolvent map, Neumann-type series for perturbed inverses, and the
distance-to-numerical-range bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import SingularMatrixError, SpectrumHitError, ZetaInsideRangeError
from .forms import DEFAULT_NODES, numerical_range
from .numcore import as_matrix, inverse
from .rigging import Rigging


def rmap(zeta: complex, t) -> np.ndarray:
    """Resolvent (T - zeta)^{-1} by direct solve.

    Raises SpectrumHitError when the shifted matrix is numerically singular,
    i.e. zeta sits on the spectrum to within the pivot tolerance.
    """
    t = as_matrix(t)
    shifted = t - complex(zeta) * np.eye(t.shape[0])
    try:
        return inverse(shifted)
    except SingularMatrixError as exc:
        raise SpectrumHitError(f"zeta = {zeta} is numerically in the spectrum") from exc


@dataclass
class NeumannResult:
    """Truncated perturbed-inverse expansion sum_k H^{-1} (-T H^{-1})^k.

    ``ratio`` is the contraction norm |L^-* T H^{-1} L^*| measured in the
    H_- operator geometry of the rigging; when it is < 1 the truncation error
    obeys |L (S_n - (H+T)^{-1}) L^*| <= c_geom * ratio^{n+1} / (1 - ratio).
    """

    series: np.ndarray
    ratio: float
    contractive: bool
    error_bound: float
    c_geom: float
    partials: list = field(default_factory=list, repr=False)


def neumann_resolvent(h, t, rg: Rigging, n_terms: int) -> NeumannResult:
    """Partial sums of (H+T)^{-1} = sum_k H^{-1} (-T H^{-1})^k.

    H must be invertible.  The result is returned even when the ratio is >= 1
    (flagged via ``contractive``); the error bound is then meaningless and set
    to inf.
    """
    h = as_matrix(h)
    t = as_matrix(t)
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    hinv = inverse(h)
    l = rg.factor
    # contraction measured as an operator on H-: |L^-* (T H^{-1}) L^*|
    m = sla.solve_triangular(l.conj().T, t @ hinv @ l.conj().T, lower=True,
                             check_finite=False)
    ratio = float(sla.svdvals(m, check_finite=False)[0])
    c_geom = float(sla.svdvals(l @ hinv @ l.conj().T, check_finite=False)[0])
    term = hinv.copy()
    acc = hinv.copy()
    partials = [acc.copy()]
    for _ in range(n_terms):
        term = -term @ t @ hinv
        acc = acc + term
        partials.append(acc.copy())
    contractive = ratio < 1.0
    if contractive:
        bound = c_geom * ratio ** (n_terms + 1) / (1.0 - ratio)
    else:
        bound = float("inf")
    return NeumannResult(series=acc, ratio=ratio, contractive=contractive,
                         error_bound=bound, c_geom=c_geom, partials=partials)


def resolvent_bound_check(t, zeta: complex, m: int = DEFAULT_NODES,
                          boundary=None) -> tuple[float, float]:
    """(|R(zeta,T)|, 1/dist(zeta, hull Num T)); the first never exceeds the second.

    The hull distance comes from the sampled support function, which
    under-estimates the true distance, so the returned bound is conservative.
    A precomputed ``boundary`` (for repeated zeta against one matrix) skips
    the sweep.  Raises ZetaInsideRangeError when zeta lies inside every
    sampled supporting half-plane.
    """
    t = as_matrix(t)
    if boundary is None:
        boundary = numerical_range(t, m)
    dist = boundary.hull_distance(zeta)
    if dist <= 0.0:
        raise ZetaInsideRangeError(f"zeta = {zeta} is inside the numerical-range hull")
    lhs = float(sla.svdvals(rmap(zeta, t), check_finite=False)[0])
    return lhs, 1.0 / dist
