"""Discrete magnetic Schrödinger form families on periodic lattices.

The kinetic form uses the midpoint covariant difference

    (D_A psi)_link = (psi_head - psi_tail)/delta - i A_link (psi_head + psi_tail)/2

with the vector potential entering *without* conjugation on the bra side, so
every matrix entry is a polynomial of degree <= 2 in the field values and
one-complex-dimensional slices of the family have finite Taylor expansions.
Scalar potentials and two-body interactions are diagonal.  N <= 3 particles
on the full tensor grid (no statistics), total dimension capped at 2048.

On two particles a family matrix commutes bit for bit with the particle
exchange |i, j> -> |j, i> whenever the pair kernel is even bit for bit,
v(-x) = v(x), as a radial interaction such as 0.4 / (1 + r^2) is: each
entry of the one-body part adds at most two terms into zero, which gives
the same bits in either order, and the pair term at sites (x_i, x_j) is
v(x_j - x_i).  :func:`numcore.schur_oracle` decomposes such a matrix in
its symmetric and antisymmetric blocks, about half the work of the whole;
three-particle spaces are decomposed whole.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModulationTooLargeError,
    NotNormalizedPairError,
)
DIM_CAP = 2048
PAIR_TOL = 1e-8  # how far <eta, phi> of a density's pair may sit from 1


@dataclass(frozen=True)
class Grid:
    """Periodic lattice: d in {1, 2}, n sites per dimension, spacing delta."""

    d: int
    n: int
    delta: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only d = 1 or 2 supported")
        if self.n < 3:
            raise ValueError("need n >= 3 sites per dimension")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def sites(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def site_index(self, coords) -> int:
        return int(np.ravel_multi_index(tuple(int(c) % self.n for c in coords), self.shape))

    def site_coords(self, index: int) -> tuple:
        return tuple(int(c) for c in np.unravel_index(index, self.shape))

    def links(self):
        """Directed links (direction, tail coords, head coords), direction-major."""
        for direction in range(self.d):
            for coords in itertools.product(range(self.n), repeat=self.d):
                head = list(coords)
                head[direction] = (head[direction] + 1) % self.n
                yield direction, coords, tuple(head)


@dataclass(frozen=True)
class ManyBodySpace:
    """N-particle tensor grid with an exact flat-index codec.

    Particle 0 is the leftmost tensor factor (C order), so axis alpha of the
    reshaped state addresses particle alpha.
    """

    grid: Grid
    particles: int

    def __post_init__(self):
        if not 1 <= self.particles <= 3:
            raise ValueError("1 to 3 particles supported")
        if self.dim > DIM_CAP:
            raise DimensionMismatchError(
                f"dimension {self.dim} exceeds the desk-scale cap {DIM_CAP}")

    @property
    def sites(self) -> int:
        return self.grid.sites

    @property
    def dim(self) -> int:
        return self.grid.sites**self.particles

    def rank(self, site_tuple) -> int:
        return int(np.ravel_multi_index(tuple(site_tuple), (self.sites,) * self.particles))

    def unrank(self, flat: int) -> tuple:
        return tuple(int(s) for s in np.unravel_index(flat, (self.sites,) * self.particles))


def _zeros_like_field(grid: Grid, kind: str) -> np.ndarray:
    if kind == "site":
        return np.zeros(grid.sites, dtype=complex)
    if kind == "link":
        return np.zeros((grid.d,) + grid.shape, dtype=complex)
    if kind == "kernel":
        return np.zeros(grid.shape, dtype=complex)
    raise ValueError(kind)


@dataclass(frozen=True)
class FieldConfig:
    """Variable fields (u, a, v, f) over fixed nonnegative backgrounds (u0, v0).

    u and f are per site (flattened), a is per directed link indexed
    (direction, *tail), v is a kernel per displacement class on the torus.
    Addition and scalar multiplication act on the variable fields only, so
    base + z * direction walks an affine slice through the family.
    """

    grid: Grid
    u: np.ndarray
    a: np.ndarray
    v: np.ndarray
    f: np.ndarray
    u0: np.ndarray = field(default=None)
    v0: np.ndarray = field(default=None)

    def __post_init__(self):
        g = self.grid
        object.__setattr__(self, "u", np.asarray(self.u, dtype=complex).reshape(g.sites))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=complex).reshape((g.d,) + g.shape))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex).reshape(g.shape))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex).reshape(g.sites))
        u0 = np.zeros(g.sites) if self.u0 is None else np.asarray(self.u0, dtype=float).reshape(g.sites)
        v0 = np.zeros(g.shape) if self.v0 is None else np.asarray(self.v0, dtype=float).reshape(g.shape)
        if (u0 < 0).any() or (v0 < 0).any():
            raise ValueError("background fields must be entrywise nonnegative")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)

    @staticmethod
    def zero(grid: Grid, u0=None, v0=None) -> "FieldConfig":
        return FieldConfig(grid=grid, u=_zeros_like_field(grid, "site"),
                           a=_zeros_like_field(grid, "link"),
                           v=_zeros_like_field(grid, "kernel"),
                           f=_zeros_like_field(grid, "site"), u0=u0, v0=v0)

    def __add__(self, other: "FieldConfig") -> "FieldConfig":
        if other.grid != self.grid:
            raise DimensionMismatchError("grids differ")
        return replace(self, u=self.u + other.u, a=self.a + other.a,
                       v=self.v + other.v, f=self.f + other.f)

    def __mul__(self, z) -> "FieldConfig":
        z = complex(z)
        return replace(self, u=z * self.u, a=z * self.a, v=z * self.v, f=z * self.f)

    __rmul__ = __mul__


def delta_u(grid: Grid, site: int) -> FieldConfig:
    """Unit scalar-potential bump at one site."""
    cfg = FieldConfig.zero(grid)
    u = cfg.u.copy()
    u[site] = 1.0
    return replace(cfg, u=u)


def delta_a(grid: Grid, direction: int, tail_coords) -> FieldConfig:
    """Unit vector-potential bump on one directed link."""
    cfg = FieldConfig.zero(grid)
    a = cfg.a.copy()
    a[(direction,) + tuple(int(c) % grid.n for c in tail_coords)] = 1.0
    return replace(cfg, a=a)


def gauge_link_field(grid: Grid, chi_sites) -> np.ndarray:
    """Discrete gradient of a per-site gauge function: (chi_head - chi_tail)/delta."""
    chi = np.asarray(chi_sites, dtype=complex).reshape(grid.shape)
    out = np.empty((grid.d,) + grid.shape, dtype=complex)
    for direction in range(grid.d):
        out[direction] = (np.roll(chi, -1, axis=direction) - chi) / grid.delta
    return out


def kernel_from_function(grid: Grid, fn) -> np.ndarray:
    """Displacement kernel from a function of the physical displacement vector.

    Each torus displacement is reduced to its minimal periodic representative
    (ties broken toward the nonnegative one) before evaluation.
    """
    out = np.empty(grid.shape, dtype=complex)
    for raw in itertools.product(range(grid.n), repeat=grid.d):
        minimal = tuple(c - grid.n if 2 * c > grid.n else c for c in raw)
        out[raw] = fn(np.array(minimal, dtype=float) * grid.delta)
    return out


# -- one-particle building blocks ---------------------------------------------

def _kinetic_one_particle(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Midpoint covariant-difference kinetic matrix on one particle."""
    n = grid.sites
    d = grid.delta
    k = np.zeros((n, n), dtype=complex)
    for direction, tail, head in grid.links():
        t = grid.site_index(tail)
        h = grid.site_index(head)
        al = a[(direction,) + tail]
        k[h, h] += 1.0 / d**2 + al**2 / 4.0
        k[t, t] += 1.0 / d**2 + al**2 / 4.0
        k[h, t] += -((1.0 / d + 1j * al / 2.0) ** 2)
        k[t, h] += -((1.0 / d - 1j * al / 2.0) ** 2)
    return k


def _kinetic_one_particle_derivative(grid: Grid, a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Directional derivative of the one-particle kinetic matrix in the field a."""
    n = grid.sites
    d = grid.delta
    k = np.zeros((n, n), dtype=complex)
    for direction, tail, head in grid.links():
        idx = (direction,) + tail
        dal = da[idx]
        if dal == 0:
            continue
        t = grid.site_index(tail)
        h = grid.site_index(head)
        al = a[idx]
        k[h, h] += dal * al / 2.0
        k[t, t] += dal * al / 2.0
        k[h, t] += dal * (-1j) * (1.0 / d + 1j * al / 2.0)
        k[t, h] += dal * 1j * (1.0 / d - 1j * al / 2.0)
    return k


def _add_diagonal(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """m + diag(d), in place on m, with the bits of adding the full matrix
    when no part of m off its diagonal is -0.0: adding +0.0 there changes
    nothing.  That holds for any sum that starts from zeros, such as
    :func:`one_body_to_many`'s, since x + y is -0.0 only when both are."""
    i = np.arange(len(m))
    m[i, i] += d
    return m


def one_body_to_many(space: ManyBodySpace, m1: np.ndarray) -> np.ndarray:
    """sum_alpha I x ... x M1 x ... x I on the tensor grid.

    Term alpha adds M1 to the blocks where every other particle keeps its
    site, in particle order, into a zero matrix.  The Kronecker products
    hold M1 x 1 there and zeros elsewhere; adding a zero of either sign
    leaves an entry that starts at +0 as it is, and M1 x 1 differs from M1
    only in the sign of a zero part, so the bits are those of summing the
    Kronecker products, which are not formed.
    """
    s, n = space.sites, space.particles
    total = np.zeros((space.dim, space.dim), dtype=complex)
    axes = total.reshape((s,) * (2 * n))  # row sites, then column sites
    for alpha in range(n):
        for rest in itertools.product(range(s), repeat=n - 1):
            sites = rest[:alpha] + (slice(None),) + rest[alpha:]
            axes[sites + sites] += m1
    return total


# -- assembled forms ----------------------------------------------------------

def kinetic_form(grid: Grid, space: ManyBodySpace, a) -> np.ndarray:
    """Magnetic kinetic form sum over particles and links of
    conj((D_{conj A} phi)) (D_A psi); degree <= 2 polynomial in the link field.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (grid.d,) + grid.shape:
        raise DimensionMismatchError(
            f"link field must have shape {(grid.d,) + grid.shape}, got {a.shape}")
    return one_body_to_many(space, _kinetic_one_particle(grid, a))


def kinetic_form_derivative(grid: Grid, space: ManyBodySpace, a, da) -> np.ndarray:
    """Directional derivative of :func:`kinetic_form` at field a along da."""
    a = np.asarray(a, dtype=complex)
    da = np.asarray(da, dtype=complex)
    return one_body_to_many(space, _kinetic_one_particle_derivative(grid, a, da))


def potential_form(space: ManyBodySpace, w, per_particle: bool = True) -> np.ndarray:
    """Diagonal scalar-potential form.

    ``per_particle=True``: w is a site field and the diagonal is
    sum_alpha w(x_alpha).  ``per_particle=False``: w is already a function on
    the full configuration space.
    """
    if not per_particle:
        w = np.asarray(w, dtype=complex).reshape(space.dim)
        return np.diag(w)
    return np.diag(_potential_diagonal(space, w))


def _potential_diagonal(space: ManyBodySpace, w) -> np.ndarray:
    """The diagonal sum_alpha w(x_alpha) of :func:`potential_form` for a site field w."""
    w = np.asarray(w, dtype=complex).reshape(space.sites)
    shape = (space.sites,) * space.particles
    diag = np.zeros(shape, dtype=complex)
    for alpha in range(space.particles):
        bshape = [1] * space.particles
        bshape[alpha] = space.sites
        diag = diag + w.reshape(bshape)
    return diag.reshape(-1)


def interaction_form(space: ManyBodySpace, v) -> np.ndarray:
    """Diagonal two-body form (1/2) sum_{alpha != beta} v(x_alpha - x_beta).

    v is a kernel on torus displacements; the zero form for one particle.
    """
    return np.diag(_interaction_diagonal(space, v))


def _interaction_diagonal(space: ManyBodySpace, v) -> np.ndarray:
    """The diagonal of :func:`interaction_form`: zeros for one particle."""
    grid = space.grid
    v = np.asarray(v, dtype=complex).reshape(grid.shape)
    if space.particles == 1:
        return np.zeros(space.dim, dtype=complex)
    coords = np.array([grid.site_coords(s) for s in range(space.sites)])
    # pair lookup: V2[s, s'] = v((coords' - coords) mod n)
    disp = (coords[None, :, :] - coords[:, None, :]) % grid.n
    v2 = v[tuple(disp[..., k] for k in range(grid.d))]
    shape = (space.sites,) * space.particles
    diag = np.zeros(shape, dtype=complex)
    for alpha in range(space.particles):
        for beta in range(alpha + 1, space.particles):
            bshape = [1] * space.particles
            bshape[alpha] = space.sites
            bshape[beta] = space.sites
            diag = diag + v2.reshape(bshape)
    return diag.reshape(-1)


def family(grid: Grid, space: ManyBodySpace, cfg: FieldConfig) -> np.ndarray:
    """Total Hamiltonian form k_A + U(u0 + u + f u0) + V(v0 + v).

    Entries are polynomials of total degree <= 2 in (u, a, v, f); degree 2
    enters only through the vector potential.
    """
    if cfg.grid != grid:
        raise DimensionMismatchError("config grid differs")
    fmax = float(np.abs(cfg.f).max()) if cfg.f.size else 0.0
    if fmax >= 1.0:
        raise ModulationTooLargeError(f"|f|_inf = {fmax:.4f} >= 1")
    w = cfg.u0 + cfg.u + cfg.f * cfg.u0
    out = kinetic_form(grid, space, cfg.a)
    _add_diagonal(out, _potential_diagonal(space, w))
    return _add_diagonal(out, _interaction_diagonal(space, cfg.v0 + cfg.v))


def family_derivative(grid: Grid, space: ManyBodySpace, cfg: FieldConfig,
                      direction: FieldConfig) -> np.ndarray:
    """Exact directional derivative of :func:`family` at cfg along direction."""
    dw = _potential_diagonal(space, direction.u + direction.f * cfg.u0)
    if np.any(direction.a):
        out = _add_diagonal(kinetic_form_derivative(grid, space, cfg.a, direction.a), dw)
    else:
        out = np.diag(dw)
    if np.any(direction.v):
        _add_diagonal(out, _interaction_diagonal(space, direction.v))
    return out


def config_family(grid: Grid, space: ManyBodySpace, base: FieldConfig, directions):
    """Family over a finite coordinate patch: p -> family(base + sum p_i dir_i).

    Returns (fam, dfam) where fam(p) assembles the matrix at coefficient
    vector p and dfam(p, w) the exact directional derivative (the family is
    polynomial, so it is linear algebra, not differencing).

    The configuration at p is the fold cfg + p_i dir_i over the nonzero p_i,
    in order, made on the field arrays and wrapped in one FieldConfig at the
    end: each field takes the elementwise operations ``cfg + complex(p_i) *
    dir_i`` takes, so the matrix has its bits.  A direction on another grid
    with a nonzero coefficient raises DimensionMismatchError.
    """
    directions = list(directions)

    def at(cfg, p):
        u, a, v, f = cfg.u, cfg.a, cfg.v, cfg.f
        for coeff, d in zip(np.asarray(p).ravel(), directions):
            if coeff != 0:
                if d.grid != cfg.grid:
                    raise DimensionMismatchError("grids differ")
                z = complex(coeff)
                u, a, v, f = u + z * d.u, a + z * d.a, v + z * d.v, f + z * d.f
        return replace(cfg, u=u, a=a, v=v, f=f)

    def fam(p):
        return family(grid, space, at(base, p))

    def dfam(p, w):
        # linear in the direction: one derivative along sum_i w_i dir_i
        return family_derivative(grid, space, at(base, p), at(FieldConfig.zero(grid), w))

    return fam, dfam


# -- densities ----------------------------------------------------------------

def _transition_matrix(space: ManyBodySpace, phi, eta) -> np.ndarray:
    """G[s, s'] = sum_alpha sum_{rest} conj(eta)(s at alpha, rest) phi(s' at alpha, rest)."""
    s = space.sites
    n_part = space.particles
    phi_t = np.asarray(phi, dtype=complex).reshape((s,) * n_part)
    eta_t = np.asarray(eta, dtype=complex).reshape((s,) * n_part)
    total = np.zeros((s, s), dtype=complex)
    for alpha in range(n_part):
        pm = np.moveaxis(phi_t, alpha, 0).reshape(s, -1)
        em = np.moveaxis(eta_t, alpha, 0).reshape(s, -1)
        total += em.conj() @ pm.T
    return total


def charge_current_from_pair(space: ManyBodySpace, grid: Grid, phi, eta, a):
    """Charge density and link current of a normalized eigenpair.

    rho is a per-site density (sum_j rho_j delta^d = N); J lives on directed
    links and is the field gradient of the energy per unit volume, i.e. the
    discrete counterpart of 2 A rho plus the antisymmetric covariant-gradient
    bilinear.  Requires <eta, phi> = 1 to PAIR_TOL.
    """
    a = np.asarray(a, dtype=complex).reshape((grid.d,) + grid.shape)
    phi = np.asarray(phi, dtype=complex).reshape(space.dim)
    eta = np.asarray(eta, dtype=complex).reshape(space.dim)
    overlap = complex(eta.conj() @ phi)
    if abs(overlap - 1.0) > PAIR_TOL:
        raise NotNormalizedPairError(f"<eta, phi> = {overlap:.2e} is not 1")
    g = _transition_matrix(space, phi, eta)
    vol = grid.delta**grid.d
    rho = np.real_if_close(np.diag(g)).astype(complex) / vol
    current = np.zeros((grid.d,) + grid.shape, dtype=complex)
    for direction, tail, head in grid.links():
        t = grid.site_index(tail)
        h = grid.site_index(head)
        al = a[(direction,) + tail]
        grad = (1j / grid.delta) * (g[t, h] - g[h, t])
        mid = (al / 2.0) * (g[h, h] + g[h, t] + g[t, h] + g[t, t])
        current[(direction,) + tail] = (grad + mid) / vol
    return rho.reshape(grid.shape), current
