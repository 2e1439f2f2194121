"""Rank-one spectral pairs, eigenvalue tracking along parameter paths, and
derivative/density evaluation for isolated nondegenerate eigenvalues.

Tracking, Hellmann-Feynman derivatives and densities need only the rank-one
pair phi, eta and E = Tr AP of an enclosed eigenvalue, never the n x n
projection: they take it from :func:`sectorial.contour.enclosed_pair`, in
the same Schur basis as every other contour quantity: one Schur
decomposition per distinct matrix and two O(n^2) triangular probe solves
per node, none for a repeat (matrix, contour), whose residual checks stand
in for the idempotency and singular-value rank tests
:func:`rank_one_decompose` applies to a full projection.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .contour import Circle, enclosed_pair, rank_of_projection
from .errors import IsolationLostError, RankNotOneError
from .numcore import as_matrix, schur_ahead
from . import schrodinger

GAP_FLOOR = 1e-6
RADIUS_GAP_FACTOR = 0.4
PIN_FLOOR = 0.1
FD_STEP = 1e-2  # central-difference step of hellmann_feynman without dfamily


@dataclass(frozen=True)
class RankOnePair:
    """|phi><eta| data of a rank-one projection: |phi| = 1, <eta, phi> = 1.

    The residual common phase is pinned by making the largest-magnitude
    component of phi (index ``pin``) real positive.
    """

    phi: np.ndarray
    eta: np.ndarray
    pin: int


def _pinned(phi, eta, pin: int | None) -> RankOnePair:
    """The pair with the common phase making phi[pin] real positive; a pin
    that is None or where |phi| < PIN_FLOOR moves to the largest component."""
    if pin is None or abs(phi[pin]) < PIN_FLOOR:
        pin = int(np.argmax(np.abs(phi)))
    phase = phi[pin] / abs(phi[pin])
    return RankOnePair(phi=phi / phase, eta=eta / phase, pin=pin)


def rank_one_decompose(p, pin: int | None = None) -> RankOnePair:
    """Split a rank-one projection into its |phi><eta| pair.

    ``pin`` carries a previous phase-pinning component for continuity along
    paths; by default the largest component of phi is pinned.
    """
    p = as_matrix(p)
    if rank_of_projection(p) != 1:
        raise RankNotOneError(f"trace {complex(np.trace(p)):.3f} is not 1")
    col = int(np.argmax(np.linalg.norm(p, axis=0)))
    phi = p[:, col]
    phi = phi / np.linalg.norm(phi)
    eta_h = phi.conj() @ p          # phi* P = (phi* phi) eta* = eta*
    eta = eta_h.conj()
    overlap = complex(eta.conj() @ phi)
    return _pinned(phi, eta / np.conj(overlap), pin)


@dataclass(frozen=True)
class TrackPoint:
    """One tracked sample: path parameter, eigenvalue, isolation gap, pinning."""

    index: int
    s: float
    energy: complex
    gap: float
    repinned: bool
    pair: RankOnePair


def _gap_at(spec: np.ndarray, energy: complex) -> float:
    dist = np.abs(spec - energy)
    if len(dist) < 2:
        return float("inf")
    order = np.argsort(dist)
    return float(abs(spec[order[1]] - spec[order[0]]))


def track_eigenvalue(family_f, path, c0: Circle, s_values=None) -> list[TrackPoint]:
    """Follow an isolated nondegenerate eigenvalue along a sampled path.

    The initial contour must enclose exactly one simple eigenvalue of
    family_f(path[0]).  At each subsequent sample the circle is re-centered
    at the previous eigenvalue with radius min(previous, 0.4 * gap); the gap
    to the rest of the spectrum is monitored and IsolationLostError raised
    when it falls below GAP_FLOOR.  Eigenvector phases are carried
    continuously; re-pinning events are flagged.

    A step's contour depends on the step before, its Schur form does not:
    family_f may be called one point ahead, on the calling thread, and its
    output is copied once, so a family that refills one buffer is read
    correctly.  The next point is decomposed on a second thread while a
    step runs (:func:`numcore.schur_ahead`), which holds one extra
    decomposition; every point, error and memo entry is the one a serial
    run gives.
    """
    path = list(path)
    if s_values is None:
        s_values = list(range(len(path)))
    s_values = [float(s) for s in s_values]
    if len(s_values) != len(path):
        raise ValueError("s_values must match the path length")

    out: list[TrackPoint] = []
    circle = c0
    pin = None
    with closing(schur_ahead(family_f(p) for p in path)) as matrices:
        for k, (s, a) in enumerate(zip(s_values, matrices)):
            # one probe pass gives the pair and E; its Schur spectrum gives the gap
            phi, eta, energy, spec = enclosed_pair(a, circle)
            gap = _gap_at(spec, energy)
            if gap < GAP_FLOOR:
                raise IsolationLostError(f"gap {gap:.3e} < floor {GAP_FLOOR:.1e} at step {k}")
            pair = _pinned(phi, eta, pin)
            repinned = k > 0 and pair.pin != pin
            pin = pair.pin
            out.append(TrackPoint(index=k, s=s, energy=energy, gap=gap,
                                  repinned=repinned, pair=pair))
            radius = min(circle.radius, RADIUS_GAP_FACTOR * gap)
            circle = Circle(center=energy, radius=radius, nodes=circle.nodes)
    return out


def track_to_rows(points: list[TrackPoint]) -> list[dict]:
    """CSV-ready rows: parameter_index, s, Re E, Im E, gap, re-pin flag."""
    return [
        {
            "parameter_index": p.index,
            "s": p.s,
            "re_E": p.energy.real,
            "im_E": p.energy.imag,
            "gap": p.gap,
            "repinned": int(p.repinned),
        }
        for p in points
    ]


def hellmann_feynman(family_f, x, w, contour: Circle, dfamily=None) -> complex:
    """Directional eigenvalue derivative <eta| (D h . w) |phi> at parameter x.

    The pair comes from one probe pass (:func:`enclosed_pair`: one Schur
    decomposition per distinct H, so a pass on the H the last tracking step
    solved reuses it, and two triangular solves per node), which checks
    phi and eta as right and left eigenvectors to ``contour.RESIDUAL_TOL`` * |H|.
    The pair is kept with H's decomposition, so a density on the same H and
    contour that follows (:func:`eigenstate_density`) makes no pass.

    ``dfamily(x, w)`` supplies the directional derivative of the form matrix;
    when omitted it is taken as the central difference of family_f over
    x +/- FD_STEP * w, which is exact (to rounding) for families of
    polynomial degree <= 2 in the parameter.
    """
    phi, eta, _, _ = enclosed_pair(family_f(x), contour)
    if dfamily is not None:
        dh = as_matrix(dfamily(x, w))
    else:
        plus = as_matrix(family_f(x + FD_STEP * w))
        minus = as_matrix(family_f(x - FD_STEP * w))
        dh = (plus - minus) / (2.0 * FD_STEP)
    return complex(eta.conj() @ dh @ phi)


def eigenstate_density(grid, space, cfg, contour: Circle):
    """(rho, J) of the isolated eigenstate of a lattice family enclosed by the contour.

    Takes the rank-one pair from one probe pass (:func:`enclosed_pair`: one
    Schur decomposition per distinct matrix and two triangular solves per
    node) and evaluates the lattice charge/current formulas at the
    configuration's vector potential.  After a Hellmann-Feynman pass on the
    same matrix and contour, the pair kept with its decomposition is
    returned and no pass runs.
    """
    matrix = schrodinger.family(grid, space, cfg)
    phi, eta, _, _ = enclosed_pair(matrix, contour)
    return schrodinger.charge_current_from_pair(space, grid, phi, eta, cfg.a)
