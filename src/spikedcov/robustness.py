"""Analytic outlier-contamination model for spiked covariances.

A fraction ``epsilon`` of observations is replaced by outliers along K fixed
directions orthogonal to the signal, with effect sizes ``etas``.  The
contaminated population covariance is

    (1 - K eps) * Sigma + eps * sum_k eta_k nu_k nu_k^T

for classical PCA.  Product PCA splits the sample in half, so each half sees
its own outliers at doubled proportion: K1 of them land in half one and
K2 = K - K1 in half two.  Everything here is population-level algebra: exact
perturbed spectra for both estimators, predicates for when an outlier
direction turns into a spurious spike or overtakes the signal in the
eigenvalue ordering, the resulting target ranks, and the comparative
conditions under which product PCA is the more outlier-tolerant method.
The product-PCA results take an assignment of outliers to halves; classical
PCA splits no sample, and its predicates reject an assignment.

An outlier direction becomes a distant spike once its eigenvalue exceeds the
contaminated bulk level times the estimator's spike threshold (lambda' for
PCA, lambda* for product PCA, from :func:`spikedcov.rmt.ssm_closed_forms`),
and it breaks the ordering once its eigenvalue exceeds the signal's.

The single signal spike has unit noise level (sigma2 = 1), matching the
regime the closed-form comparisons are derived in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import RngStream, haar_orthogonal
from .rmt import SsmParams, ssm_closed_forms

__all__ = [
    "PerturbationScenario",
    "PerturbedSpectrum",
    "build_perturbed_sigma",
    "build_perturbed_half_sigmas",
    "pca_perturbed_spectrum",
    "ppca_perturbed_spectrum",
    "noise_is_spiked",
    "ordering_breaks",
    "target_rank",
    "comparative_conditions",
]


@dataclass(frozen=True)
class PerturbationScenario:
    """One contamination configuration.

    ``epsilon`` is the contamination proportion, ``etas`` the K positive
    outlier effect sizes, ``k1`` how many of the K outlier directions fall in
    the first half of a half-split (the rest fall in the second), ``lambda1``
    the lone signal spike, and ``c`` the aspect ratio.  ``lambda1`` must be a
    distant spike for both estimators, i.e. above the product-PCA threshold
    sqrt(1 + c + sqrt(c^2 + 4c)) (which dominates the classical one).
    """

    epsilon: float
    etas: tuple[float, ...]
    k1: int
    lambda1: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "etas", tuple(float(v) for v in self.etas))
        eps = self.epsilon
        if not (np.isfinite(eps) and 0.0 < eps < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        if any(not np.isfinite(v) or v <= 0.0 for v in self.etas):
            raise ValueError("every outlier effect size must be positive and finite")
        k = len(self.etas)
        if not 0 <= self.k1 <= k:
            raise ValueError(f"k1 must lie in [0, {k}], got {self.k1}")
        if k * eps >= 1.0:
            raise ValueError("contamination K*epsilon must stay below 1")
        if 2.0 * max(self.k1, k - self.k1) * eps >= 1.0:
            raise ValueError("per-half contamination 2*max(K1,K2)*epsilon must stay below 1")
        floor = ssm_closed_forms(SsmParams(c=self.c)).lambda_star
        if not (np.isfinite(self.lambda1) and self.lambda1 > floor):
            raise ValueError(
                f"lambda1 must exceed the product-PCA spike threshold {floor:.6g}, got {self.lambda1}"
            )

    @property
    def k(self) -> int:
        return len(self.etas)

    @property
    def k2(self) -> int:
        return self.k - self.k1


@dataclass(frozen=True)
class PerturbedSpectrum:
    """Exact population spectrum after contamination.

    ``signal_eigenvalue`` sits on the signal direction,
    ``noise_eigenvalues`` pairs each outlier index k (1-based) with its
    eigenvalue, and ``bulk_level`` is the common level of all remaining
    directions.
    """

    signal_eigenvalue: float
    noise_eigenvalues: tuple[tuple[int, float], ...]
    bulk_level: float


def _check_assignment(s: PerturbationScenario, assignment) -> frozenset[int]:
    if assignment is None:
        raise ValueError("product-PCA results need an outlier-to-half assignment")
    half_one = frozenset(int(k) for k in assignment)
    if len(half_one) != len(tuple(assignment)):
        raise ValueError("assignment indices must be distinct")
    if not all(1 <= k <= s.k for k in half_one):
        raise ValueError(f"assignment indices must lie in 1..{s.k}")
    if len(half_one) != s.k1:
        raise ValueError(f"assignment must put exactly k1={s.k1} outliers in half one")
    return half_one


def _check_index(s: PerturbationScenario, k: int) -> int:
    if not 1 <= k <= s.k:
        raise ValueError(f"outlier index must lie in 1..{s.k}, got {k}")
    return int(k)


def _check_method(method: str, assignment) -> str:
    if method not in ("pca", "ppca"):
        raise ValueError(f"method must be 'pca' or 'ppca', got {method!r}")
    if method == "pca" and assignment is not None:
        raise ValueError("classical PCA splits no sample and takes no assignment")
    return method


def _frame_sigma(
    s: PerturbationScenario, q: np.ndarray, level: float, weight: float, ks
) -> np.ndarray:
    """level (I + (lambda1 - 1) gamma gamma^T) + sum_{k in ks} weight eta_k nu_k nu_k^T.

    gamma and nu_k are columns 0 and k of the frame ``q``; a sum of outer
    products is exactly symmetric.
    """
    gamma = q[:, 0]
    sigma = level * (np.eye(q.shape[0]) + (s.lambda1 - 1.0) * np.outer(gamma, gamma))
    for idx in ks:
        sigma += weight * s.etas[idx - 1] * np.outer(q[:, idx], q[:, idx])
    return sigma


def _frame(s: PerturbationScenario, p: int, rng: RngStream) -> np.ndarray:
    """The Haar p x p direction frame: the signal in column 0, outlier k in column k."""
    if p <= s.k:
        raise ValueError(f"need p >= K + 1 = {s.k + 1}, got p = {p}")
    return haar_orthogonal(p, rng.generator())


def build_perturbed_sigma(
    s: PerturbationScenario, p: int, rng: RngStream
) -> np.ndarray:
    """Materialize the contaminated covariance as a p x p matrix.

    The signal direction and the K outlier directions are taken as exactly
    orthonormal columns of a Haar orthogonal matrix, so the returned matrix's
    eigenvalues equal :func:`pca_perturbed_spectrum` exactly.
    """
    q = _frame(s, p, rng)
    return _frame_sigma(s, q, 1.0 - s.k * s.epsilon, s.epsilon, range(1, s.k + 1))


def build_perturbed_half_sigmas(
    s: PerturbationScenario, p: int, rng: RngStream, assignment
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize both half-sample contaminated covariances.

    Each half sees only its own outliers at doubled proportion; both share
    the same exactly-orthonormal direction frame, so the singular values of
    sqrt(first) @ sqrt(second) equal :func:`ppca_perturbed_spectrum` exactly.
    """
    half_one = _check_assignment(s, assignment)
    q = _frame(s, p, rng)
    rest = [k for k in range(1, s.k + 1) if k not in half_one]
    first = _frame_sigma(s, q, 1.0 - 2.0 * s.k1 * s.epsilon, 2.0 * s.epsilon, sorted(half_one))
    return first, _frame_sigma(s, q, 1.0 - 2.0 * s.k2 * s.epsilon, 2.0 * s.epsilon, rest)


def pca_perturbed_spectrum(s: PerturbationScenario) -> PerturbedSpectrum:
    """Population spectrum of the contaminated covariance (classical PCA)."""
    shrink = 1.0 - s.k * s.epsilon
    noise = tuple(
        (idx, shrink + s.epsilon * eta) for idx, eta in enumerate(s.etas, start=1)
    )
    return PerturbedSpectrum(
        signal_eigenvalue=shrink * s.lambda1,
        noise_eigenvalues=noise,
        bulk_level=shrink,
    )


def ppca_perturbed_spectrum(
    s: PerturbationScenario, assignment
) -> PerturbedSpectrum:
    """Population singular values of the half-split covariance product.

    ``assignment`` lists the 1-based outlier indices landing in half one
    (exactly k1 of them).
    """
    half_one = _check_assignment(s, assignment)
    shrink1 = 1.0 - 2.0 * s.k1 * s.epsilon
    shrink2 = 1.0 - 2.0 * s.k2 * s.epsilon
    noise = []
    for idx, eta in enumerate(s.etas, start=1):
        if idx in half_one:
            val = math.sqrt(shrink2 * (shrink1 + 2.0 * s.epsilon * eta))
        else:
            val = math.sqrt(shrink1 * (shrink2 + 2.0 * s.epsilon * eta))
        noise.append((idx, val))
    bulk = math.sqrt(shrink1 * shrink2)
    return PerturbedSpectrum(
        signal_eigenvalue=bulk * s.lambda1,
        noise_eigenvalues=tuple(noise),
        bulk_level=bulk,
    )


def _spectrum(s: PerturbationScenario, method: str, assignment) -> PerturbedSpectrum:
    """The contaminated spectrum the given estimator sees."""
    if _check_method(method, assignment) == "pca":
        return pca_perturbed_spectrum(s)
    return ppca_perturbed_spectrum(s, assignment)


def noise_is_spiked(
    s: PerturbationScenario, k: int, method: str, assignment=None
) -> bool:
    """Whether outlier k's sample eigenvalue separates from the bulk.

    The contaminated bulk has its own phase-transition threshold; an outlier
    direction becomes a spurious (distant) spike once its eigenvalue exceeds
    the bulk level times lambda' (PCA) or lambda* (product PCA), that is once
    eta_k > ((1 - K eps)/eps) sqrt(c) for classical PCA, and
    eta_k > ((1 - 2 K_l eps)/eps) (c + sqrt(c^2 + 4c))/2 for product PCA,
    where K_l counts the outliers sharing k's half.
    """
    k = _check_index(s, k)
    spec = _spectrum(s, method, assignment)
    consts = ssm_closed_forms(SsmParams(c=s.c))
    threshold = consts.lambda_star if method == "ppca" else consts.lambda_prime
    return spec.noise_eigenvalues[k - 1][1] > threshold * spec.bulk_level


def ordering_breaks(
    s: PerturbationScenario, k: int, method: str, assignment=None
) -> bool:
    """Whether outlier k's eigenvalue overtakes the signal eigenvalue.

    Classical PCA loses the ordering once
    eta_k > ((1 - K eps)/eps) (lambda1 - 1); product PCA only once
    eta_k > ((1 - 2 K_l eps)/(2 eps)) (lambda1^2 - 1), a quadratically
    larger bound for distant signals.
    """
    k = _check_index(s, k)
    spec = _spectrum(s, method, assignment)
    return spec.noise_eigenvalues[k - 1][1] > spec.signal_eigenvalue


def target_rank(s: PerturbationScenario, method: str, assignment=None) -> int:
    """Apparent number of distant spikes: 1 signal plus spiked outliers."""
    method = _check_method(method, assignment)
    extra = sum(
        noise_is_spiked(s, k, method, assignment) for k in range(1, s.k + 1)
    )
    return 1 + int(extra)


def comparative_conditions(s: PerturbationScenario) -> dict[str, bool]:
    """The three product-PCA-advantage conditions for a scenario.

    ``eta_win``: the product-PCA spurious-spike threshold exceeds the
    classical one, i.e. ((1 - 2 K1 eps)/(1 - K eps)) (sqrt(c) + sqrt(c+4))/2
    is above 1.  ``a_win``: the signal stays on top of the contaminated
    product bulk ordering, lambda1 > (1 - 2 K2 eps)/(1 - 2 K1 eps).
    ``worst_case_ok``: both conditions at the most lopsided allocation
    K1 = K, which requires 2 K eps < 1 to be admissible at all.  They read
    the scenario's K1, not which outliers land in half one.
    """
    eps, k, k1, k2 = s.epsilon, s.k, s.k1, s.k2
    ratio = (math.sqrt(s.c) + math.sqrt(s.c + 4.0)) / 2.0
    eta_win = (1.0 - 2.0 * k1 * eps) / (1.0 - k * eps) * ratio > 1.0
    a_win = s.lambda1 > (1.0 - 2.0 * k2 * eps) / (1.0 - 2.0 * k1 * eps)
    worst_admissible = 2.0 * k * eps < 1.0
    worst_case_ok = (
        worst_admissible
        and (1.0 - 2.0 * k * eps) / (1.0 - k * eps) * ratio > 1.0
        and s.lambda1 > 1.0 / (1.0 - 2.0 * k * eps)
    )
    return {"eta_win": eta_win, "a_win": a_win, "worst_case_ok": worst_case_ok}
