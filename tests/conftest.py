import os
import types

# One BLAS thread: threaded OpenBLAS is slower on these small matrices and
# its timings vary with the machine's load.  Must precede the numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from sectorial import numcore


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
    """Log of the LAPACK decompositions :func:`numcore.schur_oracle` makes
    while the test runs, as (kind, A) with kind "schur" (``zgees``) or
    "eigh" (exactly hermitian A).  Only numcore's binding of scipy.linalg is
    replaced, so no other module's call is counted: the numerical-range sweep
    and :meth:`Sector.require_range` reduce through forms' own ctypes binding
    of LAPACK (``forms.zhetrd``) and make no decomposition of A."""
    calls = []
    linalg = numcore.sla

    def counted(kind):
        fn = getattr(linalg, kind)
        return lambda a, *args, **kw: calls.append((kind, a)) or fn(a, *args, **kw)
    monkeypatch.setattr(numcore, "sla", types.SimpleNamespace(
        **{**vars(linalg), "schur": counted("schur"), "eigh": counted("eigh")}))
    return calls


@pytest.fixture(autouse=True)
def fresh_schur_memo():
    """Start every test with no kept Schur decomposition, so the order of the
    tests cannot decide whether a test decomposes or reuses one."""
    numcore.drop_schur_memo()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
