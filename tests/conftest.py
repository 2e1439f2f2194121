import ctypes
import os

# One BLAS thread: threaded OpenBLAS is slower on these small matrices and
# its timings vary with the machine's load.  Must precede the numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from sectorial import contour, eigenstate, numcore, schrodinger
from sectorial.contour import Circle


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def rand_hermitian(rng, n, lo=1.0, hi=4.0):
    """Random hermitian with eigenvalues uniform in [lo, hi]."""
    q = np.linalg.qr(rand_complex(rng, n))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.conj().T


def rand_sectorial(rng, n, angle=0.3, lo=0.5, hi=3.0):
    """Hermitian-dominant matrix with numerical range in a thin wedge."""
    h = rand_hermitian(rng, n, lo, hi)
    k = rand_complex(rng, n)
    k = (k + k.conj().T) / 2
    k *= angle * lo / max(np.linalg.norm(k, 2), 1e-30)
    return h + 1j * k


def exact_hermitian(rng, n, lo=1.0, hi=4.0):
    """:func:`rand_hermitian` made hermitian bit for bit, A == A*."""
    h = rand_hermitian(rng, n, lo, hi)
    return (h + h.conj().T) / 2


def count_decompositions(monkeypatch):
    """Log of the LAPACK decompositions numcore makes while the test runs,
    as (kind, A) with kind "schur" (``zgees``) or "eigh" (``zheevd``, for an
    exactly hermitian A) and A a copy of the matrix handed to LAPACK, in
    the order the calls start, on whichever thread.  numcore's ctypes
    bindings ``numcore.zgees`` and ``numcore.zheevd``, looked up at each
    call, are wrapped; a workspace query (lwork at -1) is not logged.  The
    numerical-range sweep and :meth:`Sector.require_range` reduce through
    forms' own routines (``forms.zhetrd``) and make no decomposition of A."""
    calls = []

    def counted(kind, routine, n_at, lwork_at):  # A is the argument after n
        def call(*args):
            if ctypes.c_int.from_address(args[lwork_at]).value != -1:
                n = ctypes.c_int.from_address(args[n_at]).value
                data = (ctypes.c_char * (16 * n * n)).from_address(args[n_at + 1])
                calls.append((kind, np.frombuffer(data, dtype=complex).reshape((n, n), order="F").copy()))
            routine(*args)
        return call
    monkeypatch.setattr(numcore, "zgees", counted("schur", numcore.zgees, 3, 11))
    monkeypatch.setattr(numcore, "zheevd", counted("eigh", numcore.zheevd, 2, 7))
    return calls


def count_pair_passes(monkeypatch):
    """Log of the probe passes :func:`contour.enclosed_pair` makes while the
    test runs, as (T, rule), one per call of ``contour._triangular_probe_sums``,
    which the pass looks up at each call and a pair kept with the Schur
    memo entry does not make."""
    calls = []
    sums = contour._triangular_probe_sums

    def counted(t, rule, b, c):
        calls.append((t, rule))
        return sums(t, rule, b, c)
    monkeypatch.setattr(contour, "_triangular_probe_sums", counted)
    return calls


def failing_decomposition(routine, fails=lambda: True):
    """numcore's ``routine`` ("zgees" or "zheevd") run as it is, then its
    info (the last argument) set to 1 when ``fails()``, as LAPACK reports a
    failed decomposition.  A workspace query (lwork at -1) always succeeds."""
    step, lwork_at = getattr(numcore, routine), {"zgees": 11, "zheevd": 7}[routine]

    def call(*args):
        step(*args)
        if ctypes.c_int.from_address(args[lwork_at]).value != -1 and fails():
            ctypes.c_int.from_address(args[-1]).value = 1
    return call


def lattice_problem(rng, sites):
    """(grid, space, base, dirs, x_end, w): a two-particle ring of ``sites``
    sites (dimension sites ** 2), its site-potential and link
    directions, a complex ramp end x_end along them and a direction w."""
    grid = schrodinger.Grid(d=1, n=sites, delta=0.5)
    space = schrodinger.ManyBodySpace(grid=grid, particles=2)
    x = np.arange(sites)
    base = schrodinger.FieldConfig.zero(grid, u0=1.5 + np.cos(2 * np.pi * x / sites),
                                        v0=0.4 / (1.0 + (0.5 * np.minimum(x, sites - x)) ** 2))
    dirs = [schrodinger.delta_u(grid, j) for j in range(sites)] \
        + [schrodinger.delta_a(grid, 0, (j,)) for j in range(sites)]
    x_end = 0.05 * rng.standard_normal(len(dirs)) * (1.0 + 0.3j)
    w = rng.standard_normal(len(dirs))
    return grid, space, base, dirs, x_end, w


def lattice_ramp_end(grid, space, base, dirs, x_end, w):
    """Track along a 3-point ramp to x_end, then Hellmann-Feynman along w and
    the density at the ramp end, on the last step's circle."""
    fam, dfam = schrodinger.config_family(grid, space, base, dirs)
    spec = numcore.eigvals_oracle(fam(np.zeros(len(dirs))))
    c0 = Circle(complex(spec[0]), 0.4 * abs(spec[1] - spec[0]), 64)
    steps = (0.0, 0.5, 1.0)
    points = eigenstate.track_eigenvalue(fam, [s * x_end for s in steps], c0, s_values=steps)
    radius = min([c0.radius] + [eigenstate.RADIUS_GAP_FACTOR * p.gap for p in points])
    circle = Circle(points[-1].energy, radius, c0.nodes)
    hf = eigenstate.hellmann_feynman(fam, x_end, w, circle, dfamily=dfam)
    cfg_end = base
    for c, d in zip(x_end, dirs):
        cfg_end = cfg_end + c * d
    rho, current = eigenstate.eigenstate_density(grid, space, cfg_end, circle)
    pairs = [np.concatenate([p.pair.phi, p.pair.eta]) for p in points]
    return [np.array([p.energy for p in points]), np.array([hf]), rho, current, *pairs]


@pytest.fixture(autouse=True)
def fresh_schur_memo():
    """Start every test with no kept Schur decomposition, so the order of the
    tests cannot decide whether a test decomposes or reuses one."""
    numcore.drop_schur_memo()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
