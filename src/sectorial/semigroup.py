"""Exponential map e^{-beta T} through adapted sector contours, thermal
quantities (partition function, free energy, statistical operator), the
first-order Duhamel term, and the operator-form norm against a reference
hermitian form.

:func:`emap` and everything built on the full matrix e^{-beta T} go through
the resolvent engine; :func:`free_energy_path`, which needs only
Z = Tr e^{-beta T}, reduces T to Hessenberg form once per path and takes
each Z from resolvent traces on the same wedge contour.  Each checks its
precondition Num T inside the sector once, exactly, through
:meth:`Sector.require_range` (three top eigenvalues).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .contour import QuadratureRule, adapted_sector_boundary, hessenberg_trace_sum, resolvent_sums
from .errors import (
    H0NotCoerciveError,
    NotSectorialForBetaError,
    ZeroPartitionFunctionError,
)
from .forms import Sector, hermitian_split, numerical_range, fit_sector
from .numcore import as_matrix, pairwise_sum, solve

VERTEX_SETBACK = 0.5
TAIL_CUTOFF = 1e-14
RANGE_NODES = 128
DEFAULT_S_NODES = 20


def _admissible(beta: complex, sector: Sector) -> float:
    """Angular room pi/2 - |arg beta| - half_angle; must be positive."""
    beta = complex(beta)
    if beta == 0 or beta.real <= 0:
        raise NotSectorialForBetaError(f"beta = {beta} must lie in the open right half-plane")
    room = math.pi / 2 - abs(cmath.phase(beta)) - sector.half_angle
    if room <= 0:
        raise NotSectorialForBetaError(
            f"|arg beta| + half_angle = {abs(cmath.phase(beta)) + sector.half_angle:.4f} >= pi/2"
        )
    return room


def _wedge_rule(beta: complex, sector: Sector, order: int) -> QuadratureRule:
    """Quadrature rule for (1/2 pi i) * integral of e^{-beta zeta} R(zeta) d zeta:
    a truncated wedge boundary exterior to a dilation of ``sector`` whose tail
    is below TAIL_CUTOFF.  Raises NotSectorialForBetaError when beta is not
    admissible for the sector.
    """
    _admissible(beta, sector)
    theta = 0.5 * (sector.half_angle + (math.pi / 2 - abs(cmath.phase(beta))))
    vertex = sector.vertex - VERTEX_SETBACK
    decay = abs(beta) * min(math.cos(cmath.phase(beta) + theta),
                            math.cos(cmath.phase(beta) - theta))
    radius = math.log(1.0 / TAIL_CUTOFF) / decay
    path = adapted_sector_boundary(vertex=complex(vertex), half_angle=theta,
                                   radius=radius, inner=sector,
                                   max_panel=4.0 / abs(beta), order=order)
    return path.rule()


def emap(beta: complex, t, sector: Sector, order: int = 16,
         check_range: bool = True) -> np.ndarray:
    """e^{-beta T} = (1/2 pi i) * integral of e^{-beta zeta} R(zeta, T) d zeta
    over a truncated wedge boundary exterior to a dilation of ``sector``.

    Preconditions: |arg beta| + half_angle < pi/2 and Num T inside the sector
    (checked exactly by :meth:`Sector.require_range` unless
    ``check_range=False``); either failure raises.
    """
    t = as_matrix(t)
    beta = complex(beta)
    rule = _wedge_rule(beta, sector, order)
    if check_range:
        sector.require_range(t)
    (total,) = resolvent_sums(t, rule, [lambda z: cmath.exp(-beta * z)])
    return total / (2j * math.pi)


@dataclass(frozen=True)
class ThermalState:
    """Unnormalized/normalized thermal data at one inverse temperature."""

    beta: complex
    e_matrix: np.ndarray
    z: complex
    f: complex
    rho: np.ndarray


def thermal_state(beta: complex, t, sector: Sector, z_floor_factor: float = 1e-12,
                  **emap_kwargs) -> ThermalState:
    """Partition function Z = Tr e^{-beta T}, free energy -log(Z)/beta
    (principal branch), and the statistical operator e^{-beta T} / Z.
    """
    t = as_matrix(t)
    e = emap(beta, t, sector, **emap_kwargs)
    z = complex(np.trace(e))
    floor = z_floor_factor * t.shape[0]
    if abs(z) <= floor:
        raise ZeroPartitionFunctionError(f"|Z| = {abs(z):.3e} <= floor {floor:.3e}")
    f = -cmath.log(z) / complex(beta)
    return ThermalState(beta=complex(beta), e_matrix=e, z=z, f=f, rho=e / z)


def thermal_expectation(state: ThermalState, b) -> complex:
    """Tr(rho B)."""
    b = as_matrix(b)
    return complex(np.trace(state.rho @ b))


def free_energy_path(betas, t, sector: Sector, z_floor_factor: float = 1e-12,
                     order: int = 16):
    """Free energies along a beta path with the phase of Z unwrapped.

    Standalone :func:`thermal_state` uses the principal log branch; along a
    continuous path the argument of Z is unwrapped instead so F cannot jump
    across the cut.  Every beta is checked admissible, then Num T inside the
    sector once for the whole path, exactly, by :meth:`Sector.require_range`.
    Z = Tr e^{-beta T} is the trace of the
    integral :func:`emap` takes, on the same wedge contour, from one
    Hessenberg reduction of T and :func:`hessenberg_trace_sum`; no n x n
    resolvent or e^{-beta T} is formed.  Returns (Z array, F array).
    """
    t = as_matrix(t)
    betas = [complex(b) for b in betas]
    rules = [_wedge_rule(b, sector, order) for b in betas]
    sector.require_range(t)
    h = sla.hessenberg(t)
    zs = np.array([hessenberg_trace_sum(h, rule, lambda z: cmath.exp(-b * z)) / (2j * math.pi)
                   for b, rule in zip(betas, rules)])
    floor = z_floor_factor * t.shape[0]
    if np.abs(zs).min() <= floor:
        raise ZeroPartitionFunctionError("partition function vanished along the path")
    args = np.unwrap(np.angle(zs))
    logs = np.log(np.abs(zs)) + 1j * args
    fs = -logs / np.array(betas)
    return zs, fs


def duhamel_first_order(beta: complex, h, t_dir, s_nodes: int = DEFAULT_S_NODES,
                        sector: Sector | None = None, margin: float = 0.05,
                        **emap_kwargs) -> np.ndarray:
    """First-order response integral_0^1 e^{-s beta H} (-beta T) e^{-(1-s) beta H} ds.

    Equals the directional derivative of eps -> e^{-beta (H + eps T)} at 0.
    Gauss-Legendre in s; the node set is symmetric so each semigroup factor
    is computed once.  The sector defaults to a fit of Num H; a supplied one
    is checked once to contain Num H (SectorViolationError otherwise).
    """
    h = as_matrix(h)
    t_dir = as_matrix(t_dir)
    if not np.any(t_dir):
        return np.zeros_like(h)
    if sector is None:
        sector = fit_sector(numerical_range(h, RANGE_NODES), margin=margin)
    else:
        sector.require_range(h)
    x, w = np.polynomial.legendre.leggauss(s_nodes)
    s = (x + 1.0) / 2.0
    w = w / 2.0
    exps = [emap(si * beta, h, sector, check_range=False, **emap_kwargs) for si in s]
    terms = [wi * (ei @ (-beta * t_dir) @ ej)
             for wi, ei, ej in zip(w, exps, exps[::-1])]
    return pairwise_sum(terms)


def of_norm(t, h0, tol: float = 1e-10) -> float:
    """Operator-form norm |T^r H0^{-1}| + |T^i H0^{-1}| against hermitian H0 >= 1.

    Forms with norm < 1 relative to the H0 form itself keep their numerical
    range inside the quarter-plane sector Sec(0, pi/4).
    """
    t = as_matrix(t)
    h0 = as_matrix(h0)
    if np.abs(h0 - h0.conj().T).max() > tol * max(1.0, np.abs(h0).max()):
        raise H0NotCoerciveError("reference form must be hermitian")
    w = sla.eigh(h0, eigvals_only=True, check_finite=False)
    if w[0] < 1.0 - tol:
        raise H0NotCoerciveError(f"lambda_min(H0) = {w[0]:.6e} < 1")
    h0_inv = solve(h0, np.eye(h0.shape[0], dtype=complex))
    tr, ti = hermitian_split(t)
    return float(sla.svdvals(tr @ h0_inv)[0] + sla.svdvals(ti @ h0_inv)[0])
