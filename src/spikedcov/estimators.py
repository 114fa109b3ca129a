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
half-sample SVD core.  Values past a fit's rank are exact zeros, and vectors
are returned for the rank block only: those of the zeros would span an
arbitrary null basis.

Also provides high-dimensional bias corrections for isolated spiked
eigenvalues of both fits, a threshold rank estimator, and a subspace
similarity score.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import RngStream, fix_signs, svd_full, sym_eig

__all__ = [
    "FUSION_NORM_TOL",
    "ORTHONORMAL_TOL",
    "PCAFit",
    "PPCAFit",
    "sample_cov",
    "pca_fit",
    "ppca_fit",
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
    ``eigenvectors`` (rank block only) pairs with ``eigenvalues[j]``, and is
    ``None`` for a values-only fit.
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
    fit.  ``partition`` holds the two disjoint row-index halves.
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
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"data must be a 2-d samples-by-features array, got shape {x.shape}")
    if x.shape[0] < min_rows:
        raise ValueError(f"need at least {min_rows} samples, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data must have finite entries")
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
    are kept.
    """
    x = _check_data(x)
    n, p = x.shape
    rank = min(n, p)
    w = np.zeros(p)
    v = None
    if vectors:
        full, v = sym_eig(sample_cov(x))
        w[:rank] = full[:rank]
        v = v[:, :rank]
    else:
        gram = x.T @ x if p <= n else x @ x.T
        w[:rank] = np.linalg.eigvalsh(gram / n)[::-1]
    return PCAFit(eigenvalues=np.maximum(w, 0.0), eigenvectors=v)


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


def _check_partition(
    first: np.ndarray, second: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    first = np.asarray(first, dtype=int)
    second = np.asarray(second, dtype=int)
    merged = np.sort(np.concatenate([first, second]))
    if merged.size != n or np.any(merged != np.arange(n)):
        raise ValueError("partition halves must split range(n) exactly")
    if abs(first.size - second.size) > 1:
        raise ValueError("partition halves must differ in size by at most one")
    return first, second


def _half_factor(half: np.ndarray) -> np.ndarray:
    """A factor B with B^T B = X_h^T X_h / h and at most p rows.

    The scaled half itself when it has at most p rows, else its QR R factor.
    """
    b = half / np.sqrt(half.shape[0])
    return b if b.shape[0] <= b.shape[1] else np.linalg.qr(b, mode="r")


def ppca_fit(
    x: np.ndarray,
    rng: RngStream,
    partition: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    vectors: bool = False,
) -> PPCAFit:
    """Product PCA: SVD of the product of half-covariance square roots.

    The sample is split into two near-equal halves (random equal split drawn
    from ``rng`` unless an explicit ``partition`` is given).  For any factors
    with B_i^T B_i = S_i, the nonzero singular values of S_1^{1/2} S_2^{1/2}
    are those of B_1 B_2^T, so values only take a values-only SVD of that
    min(h1, p) x min(h2, p) matrix.  With ``vectors``, the halves' thin SVDs
    U_i diag(s_i) V_i^T give the product as V_1 C V_2^T; the core
    C = diag(s_1) V_1^T V_2 diag(s_2) is decomposed and its vectors lifted.
    Requires n >= 4 so each half has at least two rows.
    """
    x = _check_data(x, min_rows=4)
    n = x.shape[0]
    if partition is None:
        perm = rng.generator().permutation(n)
        half = n // 2
        first = np.sort(perm[:half])
        second = np.sort(perm[half:])
    else:
        first, second = _check_partition(partition[0], partition[1], n)
    left = right = fused = None
    fallback = ()
    if vectors:
        _, s1, vh1 = np.linalg.svd(x[first] / np.sqrt(first.size), full_matrices=False)
        _, s2, vh2 = np.linalg.svd(x[second] / np.sqrt(second.size), full_matrices=False)
        trip = svd_full((s1[:, None] * (vh1 @ vh2.T)) * s2)
        left, right = fix_signs(vh1.T @ trip.u, vh2.T @ trip.v)
        fused, fallback = _fuse(left, right)
        s = trip.s
    else:
        core = _half_factor(x[first]) @ _half_factor(x[second]).T
        s = np.linalg.svd(core, compute_uv=False)
    return PPCAFit(
        singular_values=np.concatenate([s, np.zeros(x.shape[1] - s.size)]),
        left_vectors=left,
        right_vectors=right,
        fused_vectors=fused,
        partition=(first, second),
        fallback_columns=fallback,
    )


def _check_spike_args(values: np.ndarray, c: float, j: int) -> tuple[np.ndarray, int]:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a 1-d spectrum with at least two entries")
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrum must be finite")
    if np.any(np.diff(values) > 0.0):
        raise ValueError("spectrum must be sorted descending")
    if not np.isfinite(c) or c <= 0.0:
        raise ValueError(f"aspect ratio must be positive, got {c}")
    p = values.size
    if not 1 <= j < p:
        raise ValueError(f"spike index must satisfy 1 <= j < {p}, got {j}")
    return values, p


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
    """
    values, _ = _check_spike_args(singular_values, c, j)
    top = values[j - 1]
    companion = _tail_companion(top, top * top, values[j:] ** 2, 2.0 * c, "singular value")
    return -1.0 / (companion * top)


def debias_pca(eigenvalues: np.ndarray, c: float, j: int) -> float:
    """Bias-corrected j-th classical-PCA spike (1-based index).

    Same construction as :func:`debias_ppca` in eigenvalue scale: with
    z = lam_j and m(z) = mean of 1/(lam_l - z) over l > j, returns
    -1 / (c m(z) + (c - 1)/z).
    """
    values, _ = _check_spike_args(eigenvalues, c, j)
    z = values[j - 1]
    return -1.0 / _tail_companion(z, z, values[j:], c, "eigenvalue")


def estimate_rank(eigenvalues: np.ndarray, edge: float) -> int:
    """Number of eigenvalues strictly above the bulk edge."""
    values = np.asarray(eigenvalues, dtype=float)
    if values.ndim != 1:
        raise ValueError("need a 1-d spectrum")
    if not np.isfinite(edge) or edge < 0.0:
        raise ValueError(f"edge must be a nonnegative real, got {edge}")
    return int(np.count_nonzero(values > edge))


def _check_orthonormal(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < mat.shape[1] or mat.shape[1] < 1:
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
