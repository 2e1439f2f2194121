"""Dense complex linear algebra foundation and independent oracles.

Everything downstream (contour calculus, semigroups, tracking) is validated
against the three oracles here: LAPACK eigendecomposition, scaling-and-squaring
matrix exponential, and SVD-based Schatten norms.  The contour calculus itself
computes in the complex Schur basis of :func:`schur_oracle` (LAPACK
``zgees``; diagonal, from ``zheevd``, for exactly hermitian input, both
through GIL-free ``ctypes`` bindings, which :func:`schur_ahead` uses to
decompose a sequence's next matrix on a second thread), so its results are
checked against an independent ``zgeev`` (:func:`eigvals_oracle`,
:func:`eig_oracle`).  Dense storage only; the intended scale is dimensions
up to ~2048.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import zheevd_lwork

from .errors import (
    InvalidPError,
    NoConvergenceError,
    OverflowError_,
    SingularMatrixError,
)

TOL_SOLVE = 1e-12
PIVOT_RTOL = 1e-13
EXPM_NORM_CAP = 500.0


def as_matrix(a) -> np.ndarray:
    """Validate and return a square complex matrix (C-contiguous copy-free when possible)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def pairwise_sum(terms):
    """Sum a sequence of arrays/scalars by balanced tree reduction.

    Fixed association order makes accumulated rounding independent of any
    parallel scheduling of the term evaluations, which is what the
    reproducibility contract needs.
    """
    items = list(terms)
    if not items:
        raise ValueError("pairwise_sum of empty sequence")
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


class PairwiseAccumulator:
    """Streaming form of :func:`pairwise_sum`: terms are added one at a time.

    A binary-counter stack holds one partial sum per set bit of the term
    count (at most log2(m) + 1 of them); folding it right to left at the end
    reproduces :func:`pairwise_sum`'s association, so the total is the same
    bit for bit without ever holding all m terms.
    """

    def __init__(self):
        self._stack = []  # (terms covered, partial sum), sizes strictly decreasing

    def add(self, term) -> None:
        size = 1
        while self._stack and self._stack[-1][0] == size:
            term = self._stack.pop()[1] + term
            size *= 2
        self._stack.append((size, term))

    def total(self):
        if not self._stack:
            raise ValueError("pairwise_sum of empty sequence")
        acc = self._stack[-1][1]
        for _, part in reversed(self._stack[:-1]):
            acc = part + acc
        return acc


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with a reproducible ordering.

    eigenvalues are sorted by (real, imag) ascending; column k of
    ``right_eigenvectors`` pairs with ``eigenvalues[k]`` and is normalized.
    ``condition`` is the 2-norm condition number of the eigenvector matrix
    (large values flag near-defective input).
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    condition: float


def solve(a, b) -> np.ndarray:
    """Solve A X = B by partially pivoted LU.

    Raises SingularMatrixError when any pivot falls below
    ``PIVOT_RTOL * norm(A, inf)``.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side not conformable")
    scale = np.linalg.norm(a, np.inf)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.1e} * |A| = {PIVOT_RTOL * scale:.3e}"
        )
    return sla.lu_solve((lu, piv), b, check_finite=False)


def inverse(a) -> np.ndarray:
    """A^-1 through :func:`solve` with the identity right-hand side."""
    a = as_matrix(a)
    return solve(a, np.eye(a.shape[0], dtype=complex))


def eig_oracle(a) -> SpectralData:
    """Full eigendecomposition, sorted by (Re, Im).

    The residual contract ``|A v_k - lambda_k v_k| <= 1e-10 |A|`` holds for
    any diagonalizable input at desk scale; near-defective matrices are
    signalled through the condition estimate rather than rejected.
    """
    a = as_matrix(a)
    try:
        w, v = sla.eig(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergenceError(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    sv = sla.svdvals(v)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return SpectralData(eigenvalues=w, right_eigenvectors=v, condition=condition)


def eigvals_oracle(a) -> np.ndarray:
    """Eigenvalues only (same sort as :func:`eig_oracle`), from LAPACK
    ``zgeev``: an oracle independent of the Schur form every contour
    quantity is computed in, used by tests, benchmark checks and the CLI's
    holomorphy base point."""
    a = as_matrix(a)
    try:
        w = sla.eigvals(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    return w[np.lexsort((w.imag, w.real))]


# -- GIL-free LAPACK ----------------------------------------------------------

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name: str, nargs: int):
    """LAPACK routine ``name`` as a ctypes function of ``nargs`` addresses.

    ``scipy.linalg.cython_lapack`` exports the C entry point of each routine
    of the LAPACK that ``scipy.linalg.lapack`` wraps, so the bits are those of
    the f2py wrappers.  Those wrappers hold the GIL for the whole call; a
    ctypes call releases it, so LAPACK calls on several threads run at once.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


# looked up by name at each call; info is every routine's last argument
zgees = _lapack("zgees", 15)
zheevd = _lapack("zheevd", 13)
_CHARS = {c: ctypes.create_string_buffer(c) for c in (b"L", b"N", b"I", b"B", b"V")}


def _addresses(*args) -> tuple:
    """Each argument's address: an array's data, a one-letter option's buffer, an int or None as it is."""
    return tuple(x.ctypes.data if isinstance(x, np.ndarray) else
                 ctypes.addressof(_CHARS[x]) if isinstance(x, bytes) else x for x in args)


@functools.cache
def _openblas_threads():
    """``scipy_openblas_get_num_threads`` of the OpenBLAS in ``scipy.libs``,
    the library scipy's wheels bundle and whose LAPACK every routine here
    calls, or None when there is none.  Its file name carries a build hash,
    so it is found at run time."""
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*")):
        try:
            getter = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter
    return None


def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports now, or None when no
    such library is found."""
    getter = _openblas_threads()
    return None if getter is None else int(getter())


class _SchurJob:
    """The Schur form of one matrix, in three steps, so that the LAPACK call
    may run on another thread while the calling thread keeps every Python
    object to itself.

    The constructor, on the calling thread, allocates every array LAPACK
    writes; :meth:`run` makes one GIL-free LAPACK call and nothing else;
    :meth:`factors`, back on the calling thread, frees the workspace, checks
    info and returns (T, Z, spectrum), all read-only.  ``a`` is read, never
    written.

    An A that equals A* bit for bit takes ``zheevd`` (jobz 'V', uplo 'L',
    the workspace sizes of ``scipy.linalg.lapack.zheevd_lwork``) and gives
    T = diag(lambda), Z = V: the bits of ``scipy.linalg.eigh(a,
    driver="evd")``.  Any other A takes ``zgees`` (sort 'N', lwork from the
    -1 query): the bits of ``scipy.linalg.schur(a, output="complex")``.
    """

    def __init__(self, a: np.ndarray):
        n = a.shape[0]
        self.t = np.array(a, order="F")  # A, then T (zgees) or V (zheevd)
        # n, leading dimension, lwork (-1 asks for its size), lrwork, liwork, zgees' sdim, info
        self.ints = np.array([n, max(n, 1), -1, 0, 0, 0, 0], dtype=np.int32)
        n_, ld, lwork, lrwork, liwork, sdim, info = (self.ints.ctypes.data + 4 * i for i in range(7))
        # a diagonal entry off the real axis settles it in O(n), before the n x n comparison
        if not np.diagonal(a).imag.any() and np.array_equal(a, a.conj().T):
            self.routine = "zheevd"
            work_size, iwork_size, rwork_size, _ = zheevd_lwork(n, compute_v=1, lower=1)
            self.ints[2:5] = int(work_size.real), int(rwork_size), int(iwork_size)
            self.w = np.empty(n)
            self.work = [np.empty(self.ints[2], dtype=complex), np.empty(self.ints[3]),
                         np.empty(self.ints[4], dtype=np.int32)]
            self.args = _addresses(b"V", b"L", n_, self.t, ld, self.w, self.work[0], lwork,
                                   self.work[1], lrwork, self.work[2], liwork, info)
        else:
            self.routine = "zgees"
            self.w, self.z = np.empty(n, dtype=complex), np.empty((n, n), dtype=complex, order="F")
            self.work = [np.empty(1, dtype=complex), np.empty(n)]
            # sort 'N': LAPACK references neither the select function nor bwork, so both are NULL
            args = [b"V", b"N", None, n_, self.t, ld, sdim, self.w, self.z, ld, self.work[0], lwork,
                    self.work[1], None, info]
            self.args = _addresses(*args)
            self.run()  # the workspace query
            self.ints[2] = int(self.work[0][0].real)
            args[10] = self.work[0] = np.empty(self.ints[2], dtype=complex)
            self.args = _addresses(*args)
        self.info = self.ints[6:7]

    def run(self) -> None:
        globals()[self.routine](*self.args)

    def factors(self) -> tuple:
        self.work = None  # before T and the spectrum are made
        if self.info[0] != 0:
            raise NoConvergenceError(f"LAPACK {self.routine} returned info={self.info[0]}")
        t, z = (np.diag(self.w.astype(complex)), self.t) if self.routine == "zheevd" else (self.t, self.z)
        w = np.diagonal(t)
        out = (t, z, w[np.lexsort((w.imag, w.real))])
        for m in out:
            m.flags.writeable = False
        return out


class _SchurEntry:
    """What :func:`schur_oracle` keeps of its last decomposition: ``a``, a
    read-only A that is the key; ``factors``, (T, Z, spectrum); and
    ``pair``, the last rank-one pair established on that A
    (:func:`contour.enclosed_pair`), None until one is.  The pair lives and
    dies with the entry."""

    __slots__ = ("a", "factors", "pair")

    def __init__(self, a: np.ndarray, factors: tuple):
        self.a, self.factors, self.pair = a, factors, None


_schur_last = None  # the _SchurEntry of the last decomposition
# the read-only copies schur_ahead made, by id: nothing writes them, so one can be a key uncopied
_sealed = weakref.WeakValueDictionary()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same raw bits (so -0.0 and +0.0 differ)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


def drop_schur_memo() -> None:
    """Forget the decomposition :func:`schur_oracle` holds, and the pair kept with it."""
    global _schur_last
    _schur_last = None


def kept_pair(t: np.ndarray):
    """The pair :func:`keep_pair` kept with the entry whose T is ``t``, or
    None when there is none or no entry holds that T."""
    entry = _schur_last
    return entry.pair if entry is not None and entry.factors[0] is t else None


def keep_pair(t: np.ndarray, pair) -> None:
    """Keep ``pair`` with the entry whose T is ``t``, in place of the pair
    kept there; nothing when no entry holds that T."""
    entry = _schur_last
    if entry is not None and entry.factors[0] is t:
        entry.pair = pair


def schur_oracle(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, Z, spectrum): the complex Schur form A = Z T Z* (T upper
    triangular, Z unitary) and diag(T) sorted like :func:`eigvals_oracle`:
    the basis every contour quantity is computed in, and the spectrum its
    contour is cleared against.

    LAPACK ``zgees`` computes it, except for an A that equals A* bit for
    bit, the physical slice of real parameters.  There the Schur form is
    A = V diag(lambda) V*, and ``zheevd`` computes it ~5x faster (n = 64 to
    256, one BLAS thread): T = diag(lambda) as a complex matrix, Z = V.  The
    divide-and-conquer driver keeps |Z*Z - I| and the backward error near
    5e-15 at n = 256, as ``zgees`` does; scipy's default MRRR driver left
    both near 1e-13.  Both routines are called through ``ctypes`` on the
    entry points of ``scipy.linalg.cython_lapack``, with the arguments and
    workspace sizes scipy's ``schur`` and ``eigh(driver="evd")`` pass, so
    the factors have their bits; the call releases the GIL, which lets
    :func:`schur_ahead` run one on a second thread.  A nonzero info raises
    NoConvergenceError naming the routine.

    One decomposition per distinct matrix: the last one is kept, with a copy
    of its A, and a call on an A of the same shape and raw bits returns it
    without calling LAPACK, so the passes that read one H_x (the last
    tracking step, Hellmann-Feynman, densities) share it.  The read-only
    copy :func:`schur_ahead` yields is kept as it is, not copied again.  A
    miss drops the kept entry, and the pair kept with it (:func:`kept_pair`),
    before decomposing; a failed decomposition leaves none.  The returned
    arrays are read-only and shared between hits.  The entry holds 3n^2
    complex values: 3 MB at n = 256, 192 MB at n = 2048.
    """
    global _schur_last
    a = as_matrix(a)
    last = _schur_last
    if last is not None and _same_bits(a, last.a):
        return last.factors
    _schur_last = last = None  # free the old entry before decomposing
    job = _SchurJob(a)
    job.run()
    factors = job.factors()
    if _sealed.get(id(a)) is not a:
        a = a.copy()
        a.flags.writeable = False
    _schur_last = _SchurEntry(a, factors)
    return factors


def _drawn(items):
    """(read-only complex copy of the next matrix, None), (None, the error
    drawing it raised), or None when ``items`` is exhausted."""
    try:
        a = as_matrix(np.array(next(items), dtype=complex))
    except StopIteration:
        return None
    except Exception as exc:  # re-raised unchanged when this matrix's turn comes
        return None, exc
    a.flags.writeable = False
    _sealed[id(a)] = a
    return a, None


def schur_ahead(matrices):
    """Yield each matrix of ``matrices`` while the next one is decomposed on
    another thread.

    Each matrix is drawn on the calling thread, one ahead of the one
    yielded, and copied once into a read-only complex array: that array is
    what is yielded and the A of its memo entry, whether this generator or
    the caller's :func:`schur_oracle` call makes the entry, so an iterable
    that refills one buffer is read correctly.  A drawn matrix without the
    bits of the one before it starts its decomposition on a thread of its
    own (:class:`_SchurJob`: workspace allocated here, only the LAPACK call
    on the thread) before the one before it is yielded, and that
    decomposition becomes :func:`schur_oracle`'s entry just before the
    matrix itself is yielded; the first matrix, and one with the bits of the
    one before, is left to the caller's :func:`schur_oracle` call, which
    then decomposes it as a serial loop would, or hits.  So a decomposition
    runs beside the caller's work on the matrix before it, at most two
    decompositions are in flight (the one the caller is about to get and
    the next), and every memo hit and miss is the serial loop's.  The old
    entry, and the pair kept with it, is freed before the next matrix is
    drawn; the extra decomposition holds 3n^2 complex values (192 MB at
    n = 2048) and its workspace.  Below n ~ 26 the thread
    costs more than the decomposition it takes over: 0.25-0.4 ms a point
    (one BLAS thread, 2 vCPUs), the price of one path at every n.

    An error drawing a matrix, validating it or decomposing it is raised
    when that matrix's turn comes, so a caller that stops earlier never sees
    it and the errors and their order are those of the serial loop.  Close
    the generator (``contextlib.closing``) to join the threads on an early
    exit: no thread outlives it.
    """
    global _schur_last
    items = iter(matrices)
    ahead = _drawn(items)
    job = worker = next_worker = None  # a's decomposition and its thread, if one was started
    try:
        while ahead is not None:
            a, error = ahead
            if error is not None:
                raise error
            if worker is not None:  # a's decomposition replaces the entry: free that first
                _schur_last = None
            ahead, next_job, next_worker = _drawn(items), None, None
            if ahead is not None and ahead[1] is None and not _same_bits(ahead[0], a):
                next_job = _SchurJob(ahead[0])
                next_worker = threading.Thread(target=next_job.run)
                next_worker.start()
            if worker is not None:
                worker.join()
                _schur_last = _SchurEntry(a, job.factors())
            job, worker = next_job, next_worker
            yield a
    finally:
        for thread in (worker, next_worker):
            if thread is not None:
                thread.join()


def expm_oracle(a, norm_cap: float = EXPM_NORM_CAP) -> np.ndarray:
    """Matrix exponential by scaling and squaring (scipy backend)."""
    a = as_matrix(a)
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    if norm > norm_cap:
        raise OverflowError_(f"|A| = {norm:.3e} exceeds cap {norm_cap:.3e}")
    return sla.expm(a)


def schatten_norm(a, p) -> float:
    """Schatten p-norm from singular values; p = inf gives the spectral norm."""
    if not p >= 1:
        raise InvalidPError(f"p must be >= 1, got {p}")
    a = as_matrix(a)
    try:
        sv = sla.svdvals(a, check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    if np.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


# -- JSON interchange ---------------------------------------------------------
#
# {"dim": n, "entries": [[re, im], ...]} row-major, the CLI's matrix block
# (read back by cli.parse_matrix).  Python's json module serializes floats with
# repr (shortest round-trip), so the cycle is bit-exact.

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    flat = a.reshape(-1)
    return {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }
