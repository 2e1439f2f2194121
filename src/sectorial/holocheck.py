"""Holomorphy verification harness.

One-complex-dimensional affine slices zeta -> F(x + zeta w) are probed with
fixed weak-operator functionals; trapezoid circle quadrature then yields a
Cauchy residual (zero for holomorphic targets, O(r) for anti-holomorphic
ones), contour-extracted Taylor coefficients, and convergence-radius
estimates.  The harness falsifies or corroborates at tolerance; it proves
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailureError, NotEnoughTermsError, SectorialError

DEFAULT_SLICE_RADIUS = 1e-2
COEFF_FLOOR = 1e-13


def weak_probe(dim: int, seed: int = 0):
    """Fixed random weak-operator functional M -> <eta, M phi> (unit vectors)."""
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    eta /= np.linalg.norm(eta)
    phi /= np.linalg.norm(phi)

    def probe(m):
        m = np.asarray(m)
        if m.ndim == 0:
            return complex(m)
        return complex(eta.conj() @ m @ phi)

    return probe


def scalar_probe(m):
    """Identity probe for scalar-valued targets."""
    return complex(np.asarray(m))


def _sample_circle(f, x, w, r: float, m: int, probe):
    theta = 2.0 * math.pi * np.arange(m) / m
    zeta = r * np.exp(1j * theta)
    vals = np.empty(m, dtype=complex)
    for j, z in enumerate(zeta):
        try:
            vals[j] = probe(f(x + z * w))
        except SectorialError:
            raise
        except Exception as exc:
            raise EvaluationFailureError(f"slice node {j}: {exc}") from exc
    return theta, zeta, vals


@dataclass(frozen=True)
class SliceResidual:
    """Cauchy integral of a probed slice: raw |contour integral|, the probe
    scale max|g|, and the reported residual raw/scale."""

    raw: float
    scale: float

    @property
    def value(self) -> float:
        return self.raw / self.scale if self.scale > 0 else self.raw


def cauchy_residual(f, x, w, r: float = DEFAULT_SLICE_RADIUS, m: int = 64,
                    probe=scalar_probe) -> SliceResidual:
    """|contour integral of probe(F) dzeta| on the slice circle of radius r.

    Holomorphic slices give residuals at the quadrature/rounding floor; an
    anti-holomorphic component of size |g| produces a residual of order
    2 pi r |g|.
    """
    return residual_and_coefficients(f, x, w, r, m, k_max=0, probe=probe)[0]


def taylor_coefficients(f, x, w, r: float = DEFAULT_SLICE_RADIUS, m: int = 64,
                        k_max: int = 8, probe=scalar_probe) -> np.ndarray:
    """Contour-extracted slice Taylor coefficients c_k, k = 0..k_max.

    c_k = (1/m) sum_j g(r e^{i theta_j}) e^{-i k theta_j} r^{-k}; needs
    m >= 4 k_max so aliasing of the retained orders is negligible.
    """
    return residual_and_coefficients(f, x, w, r, m, k_max, probe)[1]


def residual_and_coefficients(f, x, w, r: float = DEFAULT_SLICE_RADIUS, m: int = 64,
                              k_max: int = 8, probe=scalar_probe):
    """(:func:`cauchy_residual`, :func:`taylor_coefficients`) of one slice
    from one sampling of its circle."""
    if m < 4 * k_max:
        raise ValueError(f"need m >= 4 k_max = {4 * k_max}, got {m}")
    theta, zeta, vals = _sample_circle(f, x, w, r, m, probe)
    # d zeta = i zeta d theta; trapezoid on the periodic grid
    integral = np.sum(vals * 1j * zeta) * (2.0 * math.pi / m)
    residual = SliceResidual(raw=float(abs(integral)), scale=float(np.abs(vals).max()))
    ks = np.arange(k_max + 1)
    phases = np.exp(-1j * np.outer(ks, theta))
    return residual, (phases @ vals) / m / (r**ks)


def radius_estimate(coeffs) -> float:
    """Convergence radius 1/limsup |c_k|^{1/k} by a log-linear fit.

    Coefficients below the relative floor are treated as zero; a vanishing
    tail (polynomial slice) reports an unbounded radius.  Raises
    NotEnoughTermsError when fewer than 5 usable growth terms remain.
    """
    c = np.abs(np.asarray(coeffs, dtype=complex))
    if len(c) < 6:
        raise NotEnoughTermsError(f"need at least 6 coefficients, got {len(c)}")
    scale = c.max()
    if scale == 0.0:
        return float("inf")
    ks = np.arange(1, len(c))
    tail = c[1:]
    alive = tail > COEFF_FLOOR * scale
    # vanishing upper half of the table: degree-limited slice
    upper = alive[len(alive) // 2:]
    if not upper.any():
        return float("inf")
    if alive.sum() < 5:
        raise NotEnoughTermsError(f"only {int(alive.sum())} nonzero coefficients")
    slope = np.polyfit(ks[alive], np.log(tail[alive]), 1)[0]
    return float(math.exp(-slope))


def local_boundedness_scan(f, center, radius: float, samples: int,
                           norm=None, seed: int = 0, directions=None) -> float:
    """Max of norm(F) over random points of the parameter ball.

    ``directions`` spans the scan subspace (defaults to the canonical basis
    when the center is a plain vector); the returned maximum is the runtime
    local-boundedness certificate used by the regular-family criteria.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if norm is None:
        norm = lambda m: float(np.linalg.norm(np.atleast_2d(np.asarray(m)), 2))
    rng = np.random.default_rng(seed)
    if directions is None:
        base = np.asarray(center, dtype=complex)
        directions = [np.eye(base.size, dtype=complex)[k].reshape(base.shape)
                      for k in range(base.size)]
    best = norm(f(center))
    for _ in range(samples):
        coeffs = rng.standard_normal(len(directions)) + 1j * rng.standard_normal(len(directions))
        coeffs *= radius * rng.uniform() ** (1.0 / max(1, len(directions))) / np.linalg.norm(coeffs)
        point = center
        for cf, d in zip(coeffs, directions):
            point = point + cf * d
        try:
            best = max(best, norm(f(point)))
        except SectorialError:
            raise
        except Exception as exc:
            raise EvaluationFailureError(str(exc)) from exc
    return best
