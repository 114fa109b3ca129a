"""Deterministic numerical primitives.

Everything stochastic in the toolkit flows through :class:`RngStream`, a
counter-based Philox generator keyed by (master seed, stream index), each in
[0, 2**64): the same key always reproduces the same draws, bit for bit,
independent of call order, so experiment replicates can be regenerated or
reordered freely.  A key outside that range raises ``ValueError`` rather
than wrapping onto another stream.

The linear-algebra helpers wrap LAPACK (via numpy) with the conventions the
rest of the package relies on: descending eigenvalue order, a deterministic
SVD sign convention, and clamped positive-semidefinite square roots.  scipy
is imported only for the gesvd retry of :func:`svd_full`, so importing the
package does not load it.

:func:`svd_full` has two routes.  A well-conditioned matrix takes one
``eigh`` of its smaller Gram matrix: at 200 x 200 the ``eigh`` takes about
half the time of LAPACK's SVD driver gesdd.  Vectors read off the Gram lose
orthogonality as eps * kappa^2 (Golub & Van Loan, *Matrix Computations*,
4th ed., on the SVD from the cross-product matrix), so the route is taken
only while the estimated condition number kappa = s_max / s_min is at most
GRAM_COND_MAX; everything else takes gesdd.  Forcing the Gram route on
200 x 200 matrices with log-spaced singular values gave the defect
|U^T U - I|:

    kappa    1e3       4096      8192      1e5
    defect   1.6e-11   3.5e-10   8.9e-10   1.1e-7

The reconstruction stayed within 3.1e-16 of the norm and the values within
2.3e-13 relative at every kappa.  At the bound 2**12 the defect stays near
4e-10, below the 1e-8 relative change that ``tools/parity.py`` still
classes as roundoff.

:func:`_map_replicates` runs the Monte Carlo replicates of a ``simlab``
runner.  With two or more replicates it spends the BLAS thread budget B,
numpy's OpenBLAS thread count at call time, across replicates: up to B
Python threads run them while OpenBLAS is pinned to one thread.  A
replicate's LAPACK calls are too small for a second BLAS thread to pay (on
two cores of an Intel Xeon, a 200 x 200 ``eigh`` took 3.6 ms on two threads
and 3.9 ms on one), so the cores are better spent on different replicates.
Every replicate then runs on one BLAS thread whatever the core count, so
the bytes of such a run do not depend on it; ``OPENBLAS_NUM_THREADS=1``
runs the replicates serially.  No process is forked, and ``glob`` and
``concurrent.futures`` are imported on first use, so importing the package
loads neither.
"""
from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SYM_TOL",
    "GRAM_COND_MAX",
    "RngStream",
    "SvdTriplet",
    "check_symmetric",
    "sym_eig",
    "psd_sqrt",
    "fix_signs",
    "svd_full",
    "haar_orthogonal",
]

# Relative Frobenius asymmetry above which a matrix is rejected as not
# symmetric.
SYM_TOL = 1e-10

# Largest estimated condition number s_max / s_min at which svd_full takes
# its singular vectors from the Gram matrix: their orthogonality defect
# grows as eps * kappa^2 (see the module docstring).
GRAM_COND_MAX = 2.0**12


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: Philox keyed by (master_seed, index).

    Both parts of the key lie in [0, 2**64), Philox's two key words.
    Streams with distinct (seed, index) pairs are statistically independent;
    equal pairs reproduce draws exactly. ``generator()`` returns a fresh
    generator positioned at the start of the stream every time.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64 and 0 <= self.stream_index < 2**64):
            raise ValueError("seed and stream index must lie in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SvdTriplet:
    """SVD A = U diag(s) V^T with s descending and deterministic signs."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must have finite entries")
    return a


def check_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate symmetry up to relative Frobenius asymmetry SYM_TOL."""
    s = _as_matrix(s, "matrix")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"matrix must be square, got shape {s.shape}")
    scale = np.linalg.norm(s)
    if scale > 0.0:
        asym = np.linalg.norm(s - s.T) / scale
        if asym > SYM_TOL:
            raise ValueError(f"matrix is not symmetric (relative asymmetry {asym:.3e})")
    return s


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``w`` decreasing and ``v``'s columns the matching
    orthonormal eigenvectors (each determined up to sign).
    """
    s = check_symmetric(s)
    w, v = np.linalg.eigh(s)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, with roundoff eigenvalues set to zero.

    Eigenvalues below ``-tau`` with ``tau = p * ulp(max |eig|)`` raise; those
    in ``[-tau, tau]`` are roundoff of a zero eigenvalue and become zero, so
    the root of a rank-deficient matrix has no part in its null space.
    """
    s = check_symmetric(s)
    w, v = np.linalg.eigh(s)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tau = s.shape[0] * np.spacing(scale) if scale > 0.0 else 0.0
    if w[0] < -tau:
        raise ValueError(f"matrix is indefinite (eigenvalue {w[0]:.3e} < -{tau:.3e})")
    root = (v * np.sqrt(np.where(w > tau, w, 0.0))) @ v.T
    return (root + root.T) / 2.0


def fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copies of paired singular vectors with deterministic column signs.

    The entry of u with the largest magnitude (lowest row on ties) is made
    positive; u and v flip together, so ``u s v^T`` is unchanged.
    """
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = np.where(lead < 0.0, -1.0, 1.0)
    return u * flip, v * flip


def _gram_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Unsigned thin SVD ``(u, s, v)`` from ``eigh`` of the smaller Gram, or None.

    With B = A (at least as many rows as columns) or B = A^T, the
    eigenvectors W of B^T B are one side's singular vectors, the column
    norms of B W the values, and B W / s the other side's vectors.  B is
    first scaled by a power of two, which is exact, so that B^T B neither
    overflows nor underflows.  None where the route is not accurate: when
    ``eigh`` raises, s_max = 0, or s_max / s_min exceeds GRAM_COND_MAX.
    """
    tall = a.shape[0] >= a.shape[1]
    b = a if tall else a.T
    scale = 2.0 ** np.frexp(np.max(np.abs(b), initial=0.0))[1]
    b = b / scale
    try:
        _, w = np.linalg.eigh(b.T @ b)
    except np.linalg.LinAlgError:
        return None
    bw = b @ w
    s = np.linalg.norm(bw, axis=0)
    order = np.argsort(-s, kind="stable")
    s, w, bw = s[order], w[:, order], bw[:, order]
    if not (s.size and 0.0 < s[0] <= GRAM_COND_MAX * s[-1]):
        return None
    return (bw / s, s * scale, w) if tall else (w, s * scale, bw / s)


def svd_full(a: np.ndarray) -> SvdTriplet:
    """Thin SVD of a finite 2-d matrix with a deterministic sign convention.

    An m x n input gives min(m, n) triplets, singular values descending, with
    signs set by :func:`fix_signs` at the one exit both routes share:

    * Gram route: ``eigh`` of the smaller Gram B^T B, B = A or A^T (see
      :func:`_gram_svd`), when its estimate of s_max / s_min is at most
      GRAM_COND_MAX.  Values agree with LAPACK's to about eps * kappa
      relative, and the vectors read as B W / s are orthonormal to about
      eps * kappa^2 (4e-10 at the bound; see the module docstring).
    * gesdd route, otherwise (s_max = 0, an estimate above the bound, or
      ``eigh`` raising ``LinAlgError``): LAPACK's divide-and-conquer driver
      gesdd; when it does not converge, the SVD is retried once with the
      QR-iteration driver gesvd.  A rank-deficient input always lands here.
    """
    a = _as_matrix(a, "matrix")
    trip = _gram_svd(a)
    if trip is None:
        try:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
        except np.linalg.LinAlgError:
            import scipy.linalg

            u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        trip = u, s, vh.T
    u, s, v = trip
    u, v = fix_signs(u, v)
    return SvdTriplet(u=u, s=s, v=v)


def haar_orthogonal(
    p: int, generator: np.random.Generator, columns: int | None = None
) -> np.ndarray:
    """Haar-distributed p x p orthogonal matrix, or its first ``columns``.

    QR of a standard p x p Gaussian matrix G with the R diagonal forced
    positive, which makes the factorization unique and the law exactly Haar.
    Column j of Q depends only on G[:, :j + 1], so with ``columns`` = k only
    G[:, :k] is factored and the p x k leading block is returned.  The whole
    of G is drawn either way, so ``generator`` advances by the same p * p
    draws and callers can keep drawing from the same stream.
    """
    if p < 1:
        raise ValueError("dimension must be positive")
    k = p if columns is None else columns
    if not 1 <= k <= p:
        raise ValueError(f"columns must satisfy 1 <= columns <= {p}, got {columns}")
    g = generator.standard_normal((p, p))
    q, r = np.linalg.qr(g[:, :k])
    d = np.diagonal(r).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)


@functools.cache
def _blas_threads():
    """numpy's OpenBLAS thread-count (getter, setter) pair, or None if not found.

    Found the way threadpoolctl finds it: the OpenBLAS that numpy's wheel
    vendors in ``numpy.libs``, opened only if already loaded, and its
    ``scipy_openblas_{get,set}_num_threads64_`` symbols (numpy 2) or
    ``openblas_{get,set}_num_threads64_`` (numpy 1).  Looked up on first
    use, so importing the package does no lookup.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _map_replicates(replicate, count: int) -> list:
    """``[replicate(i) for i in range(count)]``, spread over the BLAS thread budget.

    With two or more replicates and numpy's OpenBLAS found, its thread count
    B is the budget: min(count, B) Python threads run the replicates while
    OpenBLAS is pinned to one thread, and B is restored afterwards, also
    when a replicate raises.  Results come back in replicate order, and a
    failure raises the first failing replicate's error in that order, as the
    plain loop would.  Otherwise the plain loop runs in the calling thread:
    with one replicate or no OpenBLAS found the count is neither read nor
    set, and with B = 1 it is only read.  The count is process-wide: while
    the pin lasts, BLAS calls from other threads of the process run on one
    thread too.
    """
    handle = _blas_threads() if count > 1 else None
    budget = handle[0]() if handle is not None else 1
    workers = min(count, budget)
    if workers < 2:
        return [replicate(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor

    set_threads = handle[1]
    set_threads(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(replicate, range(count)))
    finally:
        set_threads(budget)
