"""Covariance eigenstructure estimators.

Two fits of the same population eigenstructure from mean-zero data:

* classical PCA, the eigendecomposition of the sample second-moment matrix;
* product PCA, which splits the sample into two halves, multiplies the PSD
  square roots of the two half-sample covariances, and reads eigenvalue and
  eigenvector estimates off the SVD of that product.  Left and right singular
  vectors estimate the same population eigenvector, so they are fused by
  normalized averaging.

Both fits compute values only unless asked for vectors.  Values come from
the smallest matrix that carries them: PCA from the eigenvalues of the
smaller of X^T X / n and X X^T / n, product PCA from the singular values of
B_1 B_2^T for any factors with B_i^T B_i = S_i, the half covariances
(Halko, Martinsson & Tropp 2011, on reduced cores).  With vectors, PCA
decomposes the p x p covariance and product PCA lifts the vectors of the
core diag(s_1) V_1^T V_2 diag(s_2), where V_i and s_i are the right singular
vectors and values of each scaled half, from the half covariance when the
half has at least p rows.  A wider half and the core are decomposed by
:func:`svd_full`: one ``eigh`` of the smaller Gram while the estimated
condition number is at most ``numkernel.GRAM_COND_MAX``, LAPACK's SVD
otherwise (a rank-deficient matrix always).  Every basis, PCA's included,
takes the sign rule of :func:`fix_signs`.  Values past a fit's rank are
exact zeros, and vectors are returned for the rank block only: those of
the zeros would span an arbitrary null basis.

:func:`fit_values` gives both values-only fits of one sample from shared
work.  For wide data (p > n) it forms the n x n Gram X X^T once: the
product core X_1 X_2^T / sqrt(h_1 h_2) is its block of first-half rows and
second-half columns, and PCA takes the eigenvalues of the Gram over n.

Also provides high-dimensional bias corrections for isolated spiked
eigenvalues of both fits, a threshold rank estimator, and a subspace
similarity score.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import RngStream, _as_matrix, fix_signs, svd_full, sym_eig
from .rmt import _check_ratio
from .spectra import _check_spectrum

__all__ = [
    "FUSION_NORM_TOL",
    "ORTHONORMAL_TOL",
    "PCAFit",
    "PPCAFit",
    "sample_cov",
    "pca_fit",
    "ppca_fit",
    "fit_values",
    "debias_ppca",
    "debias_pca",
    "estimate_rank",
    "similarity_xi",
]

# Below this norm the sum of paired singular vectors is treated as
# pathologically anti-aligned and fusion falls back to the left vector.
FUSION_NORM_TOL = 1e-8

# Max-norm deviation of a column Gram matrix from the identity above which
# an input claimed orthonormal is rejected.
ORTHONORMAL_TOL = 1e-6


@dataclass(frozen=True)
class PCAFit:
    """Classical PCA fit: eigenpairs of the sample covariance.

    ``eigenvalues`` are descending, clipped at zero (the matrix is PSD up to
    roundoff) and exactly 0.0 past the rank min(n, p); column j of
    ``eigenvectors`` (rank block only, signs set by :func:`fix_signs`) pairs
    with ``eigenvalues[j]``, and is ``None`` for a values-only fit.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


@dataclass(frozen=True)
class PPCAFit:
    """Product PCA fit from one random half-split of the sample.

    ``singular_values`` are the p descending singular values of the product
    of half-sample covariance square roots, exactly 0.0 past its rank
    min(h1, h2, p) for halves of h1 and h2 rows.  Columns j of
    ``left_vectors`` / ``right_vectors`` (rank block only) are the sign-fixed
    singular vector pair, and ``fused_vectors[:, j]`` is their normalized
    sum, the eigenvector estimate; all three are ``None`` for a values-only
    fit.  A vector fit lifts the core's singular vectors by each half's right
    singular vectors, taken from the half covariance when the half has at
    least p rows (see :func:`ppca_fit`).  ``partition`` holds the two
    disjoint row-index halves drawn from the split stream.
    ``fallback_columns`` lists columns where the pair was so anti-aligned
    that fusion fell back to the left vector alone (empty without vectors).
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray | None
    right_vectors: np.ndarray | None
    fused_vectors: np.ndarray | None
    partition: tuple[np.ndarray, np.ndarray]
    fallback_columns: tuple[int, ...] = ()


def _check_data(x: np.ndarray, min_rows: int = 1) -> np.ndarray:
    """Data as a finite samples-by-features matrix with a feature and ``min_rows`` rows.

    Its sum of squares must be finite too: it bounds every Gram entry, so no
    fit's second moments overflow.
    """
    x = _as_matrix(x, "data")
    if x.shape[1] < 1:
        raise ValueError(f"data needs at least one feature column, got shape {x.shape}")
    if x.shape[0] < min_rows:
        raise ValueError(f"need at least {min_rows} samples, got {x.shape[0]}")
    if not np.isfinite(np.vdot(x, x)):
        raise ValueError("data must have a finite sum of squares")
    return x


def sample_cov(x: np.ndarray) -> np.ndarray:
    """Sample second-moment matrix X^T X / n (no mean subtraction)."""
    x = _check_data(x)
    return x.T @ x / x.shape[0]


def pca_fit(x: np.ndarray, *, vectors: bool = False) -> PCAFit:
    """Eigenvalues of the sample covariance, descending; vectors on request.

    Values only: the min(n, p) eigenvalues of the smaller of X^T X / n and
    X X^T / n, which share their nonzero spectrum.  With ``vectors`` the
    p x p sample covariance is decomposed and the rank block's eigenvectors
    are kept, each signed so its largest-magnitude entry is positive.
    """
    x = _check_data(x)
    n, p = x.shape
    if not vectors:
        gram = x.T @ x if p <= n else x @ x.T
        return PCAFit(eigenvalues=_gram_eigenvalues(gram, n, p), eigenvectors=None)
    rank = min(n, p)
    full, v = sym_eig(sample_cov(x))
    v = v[:, :rank]
    return PCAFit(eigenvalues=_clipped(full[:rank], p), eigenvectors=fix_signs(v, v)[0])


def _padded(values: np.ndarray, p: int) -> np.ndarray:
    """Descending values followed by exact zeros up to length p."""
    return np.concatenate([values, np.zeros(p - values.size)])


def _clipped(eigenvalues: np.ndarray, p: int) -> np.ndarray:
    """Descending PSD eigenvalues padded to length p, roundoff negatives clipped to 0."""
    return np.maximum(_padded(eigenvalues, p), 0.0)


def _gram_eigenvalues(gram: np.ndarray, n: int, p: int) -> np.ndarray:
    """PCA values from a Gram matrix X^T X or X X^T, divided by n in place."""
    gram /= n
    return _clipped(np.linalg.eigvalsh(gram)[::-1], p)


def _fuse(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Column-wise normalized sums of paired singular vectors.

    Columns whose sum has norm below FUSION_NORM_TOL (anti-aligned pairs,
    which only occur for zero singular values) fall back to the left vector;
    their indices are reported.
    """
    sums = u + v
    norms = np.linalg.norm(sums, axis=0)
    fallback = np.flatnonzero(norms < FUSION_NORM_TOL)
    safe = np.where(norms < FUSION_NORM_TOL, 1.0, norms)
    fused = sums / safe
    if fallback.size:
        fused[:, fallback] = u[:, fallback]
    return fused, tuple(int(j) for j in fallback)


def _split(n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row-index halves of a random equal split drawn from ``rng``."""
    perm = rng.generator().permutation(n)
    return np.sort(perm[: n // 2]), np.sort(perm[n // 2 :])


def _half_factor(half: np.ndarray) -> np.ndarray:
    """A factor B with B^T B = X_h^T X_h / h and at most p rows.

    The scaled half itself when it has at most p rows, else its QR R factor.
    """
    b = half / np.sqrt(half.shape[0])
    return b if b.shape[0] <= b.shape[1] else np.linalg.qr(b, mode="r")


def _half_svd(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values s and right singular vectors V of X_h / sqrt(h).

    A half with at least p rows takes V from the eigenvectors of its p x p
    covariance and s as the column norms of X_h V / sqrt(h); the square
    roots of the eigenvalues would turn roundoff in a rank-deficient half
    into values near 1e-8 of the largest.  A wider half goes through
    :func:`svd_full`, like the core.  Either way the h x p U is never formed.
    """
    h, p = half.shape
    if h < p:
        trip = svd_full(half / np.sqrt(h))
        return trip.s, trip.v
    _, v = sym_eig(sample_cov(half))
    return np.linalg.norm(half @ v, axis=0) / np.sqrt(h), v


def ppca_fit(x: np.ndarray, rng: RngStream, *, vectors: bool = False) -> PPCAFit:
    """Product PCA: SVD of the product of half-covariance square roots.

    The sample is split into two near-equal halves by a random equal split
    drawn from ``rng``, which depends only on n and the stream.  For any factors
    with B_i^T B_i = S_i, the nonzero singular values of S_1^{1/2} S_2^{1/2}
    are those of B_1 B_2^T, so values only take a values-only SVD of that
    min(h1, p) x min(h2, p) matrix.  With ``vectors``, each scaled half is
    U_i diag(s_i) V_i^T and the product is V_1 C V_2^T; only s_i and V_i are
    computed (see :func:`_half_svd`), and the core
    C = diag(s_1) V_1^T V_2 diag(s_2) is decomposed by :func:`svd_full`
    (from its smaller Gram when well conditioned) and its vectors lifted.
    Requires n >= 4 so each half has at least two rows.
    """
    x = _check_data(x, min_rows=4)
    p = x.shape[1]
    first, second = _split(x.shape[0], rng)
    if not vectors:
        return _ppca_values(_half_core(x, first, second), p, (first, second))
    s1, v1 = _half_svd(x[first])
    s2, v2 = _half_svd(x[second])
    trip = svd_full((s1[:, None] * (v1.T @ v2)) * s2)
    left, right = fix_signs(v1 @ trip.u, v2 @ trip.v)
    fused, fallback = _fuse(left, right)
    return PPCAFit(
        singular_values=_padded(trip.s, p),
        left_vectors=left,
        right_vectors=right,
        fused_vectors=fused,
        partition=(first, second),
        fallback_columns=fallback,
    )


def _half_core(x: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The values-only product core B_1 B_2^T from the two half factors."""
    return _half_factor(x[first]) @ _half_factor(x[second]).T


def _ppca_values(core: np.ndarray, p: int, halves: tuple[np.ndarray, np.ndarray]) -> PPCAFit:
    """Values-only product-PCA fit: the core's singular values padded to length p."""
    return PPCAFit(
        singular_values=_padded(np.linalg.svd(core, compute_uv=False), p),
        left_vectors=None,
        right_vectors=None,
        fused_vectors=None,
        partition=halves,
    )


def fit_values(x: np.ndarray, rng: RngStream) -> tuple[PPCAFit, PCAFit]:
    """Values-only product PCA and PCA of one sample, from shared work.

    Matches ``(ppca_fit(x, rng), pca_fit(x))``: the same random half-split
    drawn from ``rng``, the same exact zeros, and the same values (to
    roundoff in the wide core, which one product forms).  For wide data
    (p > n) the n x n Gram X X^T is formed once; the product core
    X_1 X_2^T / sqrt(h_1 h_2) is its block of first-half rows and second-half
    columns, taken before the Gram is divided by n in place for PCA.
    Otherwise each fit takes its own values route.  Requires n >= 4.
    """
    x = _check_data(x, min_rows=4)
    n, p = x.shape
    first, second = _split(n, rng)
    if p > n:
        gram = x @ x.T
        core = gram[np.ix_(first, second)]
        core /= np.sqrt(first.size * second.size)
    else:
        core = _half_core(x, first, second)
        gram = x.T @ x
    ppca = _ppca_values(core, p, (first, second))
    return ppca, PCAFit(eigenvalues=_gram_eigenvalues(gram, n, p), eigenvectors=None)


def _check_spike_args(values: np.ndarray, c: float, j: int) -> np.ndarray:
    values = _check_spectrum(values)
    if values.size < 2:
        raise ValueError("need a spectrum with at least two entries")
    _check_ratio(c)
    if not 1 <= j < values.size:
        raise ValueError(f"spike index must satisfy 1 <= j < {values.size}, got {j}")
    return values


def _tail_companion(spike: float, z: float, tail: np.ndarray, ratio: float, noun: str) -> float:
    """Plug-in companion value ratio * mean(1/(tail - z)) + (ratio - 1)/z.

    The trailing values ``tail`` stand in for the limiting law; ``noun``
    names them in the pole error.
    """
    if np.any(tail == z):
        raise ValueError(f"spike coincides with a trailing {noun} (pole)")
    if spike <= 0.0:
        raise ValueError("spike must be positive")
    return ratio * float(np.mean(1.0 / (tail - z))) + (ratio - 1.0) / z


def debias_ppca(singular_values: np.ndarray, c: float, j: int) -> float:
    """Bias-corrected j-th product-PCA spike (1-based index).

    Inverts the spike-forward map using the trailing singular values as a
    plug-in for the limiting law: with z = s_j^2 and the tail average
    s(z) = mean of 1/(s_l^2 - z) over l > j, the companion value
    2c s(z) + (2c - 1)/z evaluated at the spike gives the corrected
    eigenvalue -1 / (companion * s_j).  Here c should be the realized p/n.
    The values are taken in units of the power of two at or below s_j, an
    exact rescaling, so no square overflows.
    """
    values = _check_spike_args(singular_values, c, j)
    unit = float(np.ldexp(1.0, np.frexp(values[j - 1])[1] - 1))
    values = values / unit
    top = values[j - 1]
    companion = _tail_companion(top, top * top, values[j:] ** 2, 2.0 * c, "singular value")
    return -1.0 / (companion * top) * unit


def debias_pca(eigenvalues: np.ndarray, c: float, j: int) -> float:
    """Bias-corrected j-th classical-PCA spike (1-based index).

    Same construction as :func:`debias_ppca` in eigenvalue scale: with
    z = lam_j and m(z) = mean of 1/(lam_l - z) over l > j, returns
    -1 / (c m(z) + (c - 1)/z).
    """
    values = _check_spike_args(eigenvalues, c, j)
    z = values[j - 1]
    return -1.0 / _tail_companion(z, z, values[j:], c, "eigenvalue")


def estimate_rank(eigenvalues: np.ndarray, edge: float) -> int:
    """Number of eigenvalues strictly above the bulk edge."""
    values = _check_spectrum(eigenvalues)
    if not np.isfinite(edge) or edge < 0.0:
        raise ValueError(f"edge must be a nonnegative real, got {edge}")
    return int(np.count_nonzero(values > edge))


def _check_orthonormal(mat: np.ndarray, name: str) -> np.ndarray:
    mat = _as_matrix(mat, name)
    if mat.shape[0] < mat.shape[1] or mat.shape[1] < 1:
        raise ValueError(f"{name} must be a tall p-by-k matrix, got shape {mat.shape}")
    gram = mat.T @ mat
    dev = float(np.max(np.abs(gram - np.eye(mat.shape[1]))))
    if dev > ORTHONORMAL_TOL:
        raise ValueError(f"{name} columns are not orthonormal (deviation {dev:.3e})")
    return mat


def similarity_xi(basis: np.ndarray, targets: np.ndarray) -> float:
    """Mean singular value of basis^T targets: subspace capture in [0, 1].

    ``basis`` is a p-by-q orthonormal frame (the estimate), ``targets`` a
    p-by-r orthonormal frame with q >= r (the directions to capture).  Value
    1 means span(targets) lies inside span(basis); 0 means orthogonality.
    """
    basis = _check_orthonormal(basis, "basis")
    targets = _check_orthonormal(targets, "targets")
    if basis.shape[0] != targets.shape[0]:
        raise ValueError("basis and targets must share the ambient dimension")
    if basis.shape[1] < targets.shape[1]:
        raise ValueError("basis must have at least as many columns as targets")
    sing = np.linalg.svd(basis.T @ targets, compute_uv=False)
    return float(min(1.0, np.mean(sing)))
