"""Exponential map e^{-beta T} through hyperbolic contours, thermal
quantities (partition function, free energy, statistical operator), the
first-order Duhamel term, and the operator-form norm against a reference
hermitian form.

e^{-beta T} is the trapezoid rule on a hyperbola round the sector that
holds Num T (Weideman & Trefethen, Math. Comp. 76, 2007; Lopez-Fernandez &
Palencia, Appl. Numer. Math. 51, 2004): tens of nodes, a count fixed by the
angular room pi/2 - half_angle - |arg beta| alone.  :func:`emap` and
everything built on the full matrix e^{-beta T} go through the resolvent
engine; :func:`free_energy_path`, which needs only Z = Tr e^{-beta T}, takes
the Schur form of T once per path and each Z from resolvent traces on the
same hyperbola.  Each checks its precondition Num T inside
the sector once, exactly, through :meth:`Sector.require_range` (three top
eigenvalues).  The Duhamel term is one pass of the same engine on H, with
T between the two resolvents of each node.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .contour import QuadratureRule, resolvent_sums, schur_trace_sum
from .errors import (
    H0NotCoerciveError,
    NotSectorialForBetaError,
    NumericalFailure,
    ZeroPartitionFunctionError,
)
from .forms import Sector, hermitian_split, numerical_range, fit_sector
from .numcore import as_matrix, inverse, schur_oracle

VERTEX_SETBACK = 0.5
TAIL_CUTOFF = 1e-14
NODE_BUDGET = 20000 * 16  # most nodes per hyperbolic rule: binds below a room of ~7.8e-4
RANGE_NODES = 128  # sweep angles whenever a sector is fitted to Num T


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


def _wedge_rule(beta: complex, sector: Sector) -> QuadratureRule:
    """Quadrature rule for (1/2 pi i) * integral of e^{-beta zeta} R(zeta) d zeta
    on a path round ``sector``, clockwise: the trapezoid rule on a hyperbola
    (Weideman & Trefethen, Math. Comp. 76, 2007).

    In lambda = -beta (zeta - v0), v0 = vertex - VERTEX_SETBACK, the
    integrand is e^{lambda} e^{-beta v0} R and R is singular only in the
    left-facing wedge |arg(-lambda)| <= delta = half_angle + |arg beta|.  The
    path lambda(u) = mu (1 + sin(iu - alpha)) has asymptotes at angle
    pi/2 - alpha from the negative axis; u -> u + iy turns alpha into
    alpha + y, so the integrand is analytic for |Im u| < d as long as
    0 < alpha - d and alpha + d < pi/2 - delta.  alpha is fixed at half the
    room pi/2 - delta and d just below alpha.  For each a on a grid, mu puts
    the truncation estimate mu (1 - sin(alpha) cosh a) at log TAIL_CUTOFF,
    M puts the discretization estimate mu (1 - sin(alpha - d)) - 2 pi d M / a
    there too, and the a with the fewest nodes u_k = k a / M, |k| <= M, is
    taken.  The count depends on delta alone: 43 nodes at delta = 0, ~2000
    at a room of 0.07.

    Raises NotSectorialForBetaError when beta is not admissible for the
    sector, and NumericalFailure when the room is too thin for NODE_BUDGET
    nodes.
    """
    room = _admissible(beta, sector)
    beta = complex(beta)
    alpha = room / 2.0
    d = 0.99 * alpha
    log_tol = -math.log(TAIL_CUTOFF)
    a = math.acosh(1.0 / math.sin(alpha)) + np.linspace(0.25, 4.0, 128)
    mu = log_tol / (math.sin(alpha) * np.cosh(a) - 1.0)
    half = a * (log_tol + mu * (1.0 - math.sin(alpha - d))) / (2.0 * math.pi * d)
    j = int(np.argmin(half))
    estimate = 2.0 * half[j] + 1.0
    if not estimate <= NODE_BUDGET:
        raise NumericalFailure(
            f"hyperbolic contour for beta = {beta} needs ~{estimate:.3g} nodes, over the "
            f"budget of {NODE_BUDGET}: delta = {math.pi / 2 - room:.9f}, room = {room:.3e}")
    m = math.ceil(half[j])
    h = a[j] / m
    u = h * np.arange(-m, m + 1)
    lam = mu[j] * (1.0 + np.sin(1j * u - alpha))
    dlam = 1j * mu[j] * np.cos(1j * u - alpha)
    # zeta = v0 - lambda / beta runs anticlockwise round the spectrum, the
    # opposite way to the clockwise integral: the weight is +h lambda' / beta
    v0 = sector.vertex - VERTEX_SETBACK
    return QuadratureRule(nodes=v0 - lam / beta, weights=h * dlam / beta, closed=False)


def emap(beta: complex, t, sector: Sector, check_range: bool = True) -> np.ndarray:
    """e^{-beta T} = (1/2 pi i) * integral of e^{-beta zeta} R(zeta, T) d zeta
    on the hyperbola of :func:`_wedge_rule` round ``sector``.

    Preconditions: |arg beta| + half_angle < pi/2 and Num T inside the sector
    (checked exactly by :meth:`Sector.require_range` unless
    ``check_range=False``); either failure raises.
    """
    t = as_matrix(t)
    beta = complex(beta)
    rule = _wedge_rule(beta, sector)
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
                  check_range: bool = True) -> ThermalState:
    """Partition function Z = Tr e^{-beta T}, free energy -log(Z)/beta
    (principal branch), and the statistical operator e^{-beta T} / Z;
    ``check_range`` goes to :func:`emap`.
    """
    t = as_matrix(t)
    e = emap(beta, t, sector, check_range=check_range)
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


def free_energy_path(betas, t, sector: Sector, z_floor_factor: float = 1e-12):
    """Free energies along a beta path with the phase of Z unwrapped.

    Standalone :func:`thermal_state` uses the principal log branch; along a
    continuous path the argument of Z is unwrapped instead so F cannot jump
    across the cut.  Every beta is checked admissible, then Num T inside the
    sector once for the whole path, exactly, by :meth:`Sector.require_range`.
    Z = Tr e^{-beta T} is the trace of the integral :func:`emap` takes, on
    the same hyperbola, from the triangular factor of one Schur
    decomposition of T (:func:`numcore.schur_oracle`) and
    :func:`schur_trace_sum`; no n x n resolvent or e^{-beta T} is formed.
    Returns (Z array, F array).
    """
    t = as_matrix(t)
    betas = [complex(b) for b in betas]
    rules = [_wedge_rule(b, sector) for b in betas]
    sector.require_range(t)
    s = schur_oracle(t)[0]
    zs = np.array([schur_trace_sum(s, rule, [lambda z: cmath.exp(-b * z)])[0] / (2j * math.pi)
                   for b, rule in zip(betas, rules)])
    floor = z_floor_factor * t.shape[0]
    if np.abs(zs).min() <= floor:
        raise ZeroPartitionFunctionError("partition function vanished along the path")
    args = np.unwrap(np.angle(zs))
    logs = np.log(np.abs(zs)) + 1j * args
    fs = -logs / np.array(betas)
    return zs, fs


def duhamel_first_order(beta: complex, h, t_dir, sector: Sector | None = None) -> np.ndarray:
    """First-order response integral_0^1 e^{-s beta H} (-beta T) e^{-(1-s) beta H} ds.

    Equals the directional derivative of eps -> e^{-beta (H + eps T)} at 0,
    -(1/2 pi i) * integral of e^{-beta zeta} R(zeta, H) T R(zeta, H) d zeta on
    the hyperbola of :func:`emap` (Higham, Functions of Matrices, SIAM 2008,
    ch. 3): one :func:`resolvent_sums` pass on H, at size n, with the operand
    T / 2^k, k the binary exponent of max |T_ij| kept in the normal range,
    and the sum multiplied back by 2^k, both exactly; so D(beta, H, 2T) is
    2 D(beta, H, T) bit for bit.  The sector defaults to a fit of Num H; a
    supplied one is checked once to contain Num H (SectorViolationError).
    """
    h = as_matrix(h)
    t_dir = as_matrix(t_dir)
    if not np.any(t_dir):
        return np.zeros_like(h)
    if sector is None:
        sector = fit_sector(numerical_range(h, RANGE_NODES))
    else:
        sector.require_range(h)
    beta = complex(beta)
    rule = _wedge_rule(beta, sector)
    # 2^k near max |T_ij|, kept normal: complex division by a subnormal overflows
    k = min(max(math.frexp(float(np.abs(t_dir).max()))[1], -1021), 1023)
    scale = math.ldexp(1.0, k)
    (total,) = resolvent_sums(h, rule, [lambda z: cmath.exp(-beta * z)], b=t_dir / scale)
    return scale * total / (-2j * math.pi)


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
    h0_inv = inverse(h0)
    tr, ti = hermitian_split(t)
    return float(sla.svdvals(tr @ h0_inv)[0] + sla.svdvals(ti @ h0_inv)[0])
