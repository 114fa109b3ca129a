"""Limiting spectral theory for spiked sample covariances and their products.

Two families of limiting laws are computed from a discrete population bulk
law H (a :class:`~spikedcov.spectra.PopulationSpectrum`; its spikes are
finite-rank and never affect limits) and an aspect ratio c = lim p/n:

- the classical sample-covariance law, written F throughout, whose Stieltjes
  transform m solves the standard fixed-point (Silverstein) equation; and
- the law G of the singular values of the split-sample product estimator,
  which is a composition: G(t) = F_outer(t^2), where the outer law has
  aspect ratio 2c and its bulk is itself the law F_{2c, H^2}.

Real-axis work uses the change of variables lam = -1/m_comp, where m_comp is
the companion transform of the dual Gram matrix (m_comp = c*m + (c-1)/z).
In that coordinate the inverse of the fixed-point equation is explicit:

    z(lam) = psi(lam) = lam * (1 + c * sum_k w_k * t_k / (lam - t_k)),

and psi'(lam) = 1 - q(lam) with q(lam) = c * sum_k w_k * (t_k/(t_k-lam))^2.
Outside the support psi is monotone; its critical points (q = 1) yield the
support edges (as psi values) and the phase-transition thresholds for spiked
eigenvalues. Derivatives of transforms are always obtained by implicit
differentiation, never by finite differences.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .spectra import PopulationSpectrum, make_spectrum, square_spectrum

__all__ = [
    "SOLVER_TOL",
    "FP_DAMPING",
    "FP_MAX_ITER",
    "NEWTON_MAX_ITER",
    "INNER_ATOMS",
    "CDF_GATE",
    "SolverError",
    "StieltjesEval",
    "SpikedLimit",
    "Threshold",
    "SsmParams",
    "SsmConstants",
    "BiasReport",
    "stieltjes",
    "stieltjes_real",
    "mp_density",
    "mass_at_zero",
    "support_edges",
    "psi",
    "ppca_psi",
    "pca_threshold",
    "ppca_threshold",
    "pca_limit",
    "ppca_limit",
    "ppca_support_edges",
    "ppca_mass_at_zero",
    "ppca_lsd_cdf",
    "ppca_lsd_pdf",
    "ssm_spectrum",
    "ssm_closed_forms",
    "ssm_g_pdf",
    "ssm_f_pdf",
    "ssm_g_cdf",
    "ssm_f_cdf",
    "bias_report",
    "rho",
]

# Fixed-point / Newton schedule for the complex solver.
FP_DAMPING = 0.5
FP_MAX_ITER = 500
NEWTON_MAX_ITER = 40
SOLVER_TOL = 1e-10
_FP_TARGET = 1e-6
# Newton keeps polishing below the acceptance gate so the companion identity
# m_under = c*m + (c-1)/z holds to ~1e-12 and not just to SOLVER_TOL.
_NEWTON_TARGET = 1e-14
_LADDER_STEPS = 48

# Quantile atoms used when the inner product law becomes an outer bulk, and
# the convergence gate the doubling test must satisfy.
INNER_ATOMS = 512
CDF_GATE = 1e-3
_CDF_PANELS = 2048

# Composite Gauss-Legendre rule of the closed-form CDFs (see _cdf_from_pdf):
# nodes per panel, panel count, and the width ratio of neighbouring panels
# toward either end of the substituted interval.
_GL_NODES = 20
_GL_PANELS = 40
_GL_GRADING = 0.25

_RTOL = 4.0 * np.finfo(float).eps
_XTOL = 1e-14


class SolverError(RuntimeError):
    """Numerical failure in the spectral solver (non-convergence, bracket)."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class StieltjesEval:
    """One solve of the fixed-point equation at a complex point z.

    m is the Stieltjes transform of the sample law, m_under the companion
    transform of the dual Gram law; residual is the absolute defect of the
    fixed-point equation at the returned root.
    """

    z: complex
    m: complex
    m_under: complex
    residual: float


@dataclass(frozen=True)
class Threshold:
    """Phase-transition threshold and the matching bulk upper edge.

    A population spike strictly above ``threshold`` separates from the bulk;
    at or below it, the sample counterpart sticks to ``bulk_edge``.
    """

    threshold: float
    bulk_edge: float


@dataclass(frozen=True)
class SpikedLimit:
    """Limit of a sample spike: distant (separated) or stuck at the edge."""

    tag: str
    value: float

    @classmethod
    def distant(cls, value: float) -> "SpikedLimit":
        return cls(tag="distant", value=float(value))

    @classmethod
    def stuck(cls, value: float) -> "SpikedLimit":
        return cls(tag="stuck", value=float(value))

    @property
    def is_distant(self) -> bool:
        return self.tag == "distant"


@dataclass(frozen=True)
class SsmParams:
    """Single-atom bulk: every bulk eigenvalue equals sigma2."""

    c: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError("aspect ratio c must be positive and finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError("sigma2 must be positive and finite")


@dataclass(frozen=True)
class SsmConstants:
    """All single-atom closed-form constants for one (c, sigma2).

    lambda_star / lambda_prime are the product / classical spike thresholds;
    (a, b) the product-law support edges in singular-value scale with
    (alpha, beta) their squared-scale counterparts (alpha may be negative,
    in which case the continuous support reaches down to zero); (a_prime,
    b_prime) the classical-law edges; mass0_* the point masses at zero.
    """

    c: float
    sigma2: float
    lambda_star: float
    lambda_prime: float
    a: float
    b: float
    a_prime: float
    b_prime: float
    alpha: float
    beta: float
    mass0_ppca: float
    mass0_pca: float


@dataclass(frozen=True)
class BiasReport:
    """Limits of one distant spike under both estimators.

    ppca/pca are the respective sample-spike limits; gap = pca - ppca is the
    excess upward bias of classical PCA.
    """

    spike: float
    ppca: float
    pca: float
    gap: float


def _bulk(h: PopulationSpectrum) -> tuple[np.ndarray, np.ndarray]:
    return h.values, h.weights


def _check_ratio(c: float) -> float:
    c = float(c)
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("aspect ratio c must be positive and finite")
    return c


def _root(f, lo: float, hi: float) -> float:
    """Root of f on the sign-changing bracket [lo, hi] at the engine tolerances."""
    return brentq(f, lo, hi, xtol=_XTOL, rtol=_RTOL)


def _grow(f, end: float, message: str) -> float:
    """Double a bracket end (away from zero) until f is negative there.

    Raises SolverError(message) when 300 doublings do not get there.
    """
    for _ in range(300):
        if f(end) < 0.0:
            return end
        end *= 2.0
    raise SolverError(message)


# ---------------------------------------------------------------------------
# psi / q machinery on real branches (lam = -1/m_comp coordinates)
# ---------------------------------------------------------------------------


def _psi_raw(c: float, t: np.ndarray, w: np.ndarray, lam):
    """lam*(1 + c*sum w t/(lam-t)); vectorized over lam, no domain checks."""
    lam = np.asarray(lam, dtype=float)
    diff = lam[..., None] - t
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t == 0.0, 0.0, w * t / diff)
    return lam * (1.0 + c * terms.sum(axis=-1))


def _q_raw(c: float, t: np.ndarray, w: np.ndarray, lam):
    """c*sum w (t/(t-lam))^2; vectorized over lam, no domain checks."""
    lam = np.asarray(lam, dtype=float)
    diff = t - lam[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t == 0.0, 0.0, w * (t / diff) ** 2)
    return c * terms.sum(axis=-1)


def _upper_critical(c: float, t: np.ndarray, w: np.ndarray) -> float:
    """Root of q = 1 above the largest bulk atom."""
    u = float(t[-1])
    if u <= 0.0:
        raise SolverError("bulk law has no positive atoms")
    q_minus_one = lambda x: _q_raw(c, t, w, x) - 1.0
    lo = u * (1.0 + 1e-12)
    hi = _grow(q_minus_one, u * (1.0 + np.sqrt(c)) * 10.0, f"no critical point above {lo:.3e}")
    return _root(q_minus_one, lo, hi)


def _lower_critical(c: float, t: np.ndarray, w: np.ndarray) -> float | None:
    """Root of q = 1 below the bulk, or None when the lower edge is 0.

    For effective ratio c*(1-w0) < 1 (w0 the weight at zero) the root sits
    in (0, t_min+); for > 1 it sits on the negative axis; at exactly 1 the
    continuous support touches zero and there is no root.
    """
    w0 = float(w[t == 0.0].sum())
    c_pos = c * (1.0 - w0)
    pos = t[t > 0.0]
    if pos.size == 0:
        return None
    tmin = float(pos[0])
    q_minus_one = lambda x: _q_raw(c, t, w, x) - 1.0
    if c_pos < 1.0 - 1e-12:
        return _root(q_minus_one, tmin * 1e-12, tmin * (1.0 - 1e-12))
    if c_pos > 1.0 + 1e-12:
        hi = -tmin * 1e-12
        lo = _grow(q_minus_one, -max(float(t[-1]), 1.0), f"no critical point below {hi:.3e}")
        return _root(q_minus_one, lo, hi)
    return None


class _BulkLaw:
    """Real-branch solver for one (c, bulk) pair.

    Precomputes the critical points and support edges, then inverts
    psi(lam) = x on the monotone branch above or below the support,
    yielding the real transforms and their derivatives.
    """

    def __init__(self, c: float, t: np.ndarray, w: np.ndarray):
        self.c = float(c)
        self.t = np.asarray(t, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.upper_critical = _upper_critical(c, self.t, self.w)
        self.lower_critical = _lower_critical(c, self.t, self.w)
        self.upper_edge = float(_psi_raw(c, self.t, self.w, self.upper_critical))
        if self.lower_critical is None:
            self.lower_edge = 0.0
        else:
            self.lower_edge = max(
                float(_psi_raw(c, self.t, self.w, self.lower_critical)), 0.0
            )

    def psi_at(self, lam) -> float:
        return _psi_raw(self.c, self.t, self.w, lam)

    def q_at(self, lam) -> float:
        return _q_raw(self.c, self.t, self.w, lam)

    def lam_above(self, x: float) -> float:
        """Invert psi on the increasing branch above the upper critical point."""
        if x <= self.upper_edge:
            raise ValueError(f"x={x!r} is not above the support edge {self.upper_edge!r}")
        lo = self.upper_critical
        message = f"cannot bracket psi = {x!r} above the bulk"
        hi = _grow(lambda y: x - self.psi_at(y), max(2.0 * lo, 2.0 * x), message)
        return _root(lambda y: self.psi_at(y) - x, lo, hi)

    def lam_below(self, x: float) -> float:
        """Invert psi on the increasing branch below the support.

        Covers 0 < x < lower_edge (the gap above zero) and x < 0. x = 0 is
        excluded (lam degenerates there).
        """
        if x == 0.0 or x >= self.lower_edge:
            raise ValueError(f"x={x!r} is not below the support (edge {self.lower_edge!r})")
        psi_minus_x = lambda y: self.psi_at(y) - x
        lc = self.lower_critical
        if lc is not None and lc > 0.0:
            # gap (0, lower_edge) reached from lam in (0, lc); no branch for x<0
            # exists on this side, but with an effective ratio below one the
            # negative axis is free of critical points and handles x < 0.
            if x > 0.0:
                return _root(psi_minus_x, 0.0, lc)
            hi = -abs(x) * 1e-12
        elif lc is not None:
            # effective ratio above one: one increasing branch on (-inf, lc)
            # covers everything below the lower edge, gap included.
            hi = lc
        else:
            hi = -min(abs(x), 1.0) * 1e-12
        start = min(hi * 2.0, -max(float(self.t[-1]), 1.0, abs(x)))
        lo = _grow(psi_minus_x, start, f"cannot bracket psi = {x!r} below the bulk")
        return _root(psi_minus_x, lo, hi)

    def real_transforms(self, x: float, above: bool) -> tuple[float, float, float, float]:
        """(m, m', m_comp, m_comp') at real x above (or below) the support.

        m_comp comes from lam; its derivative from implicit differentiation,
        m_comp' = 1/(lam^2 (1 - q(lam))); m and m' via the exact companion
        relations, arranged to avoid cancellation in m (see _m_from_comp).
        The branch inversion rejects an x on the wrong side of the support.
        """
        lam = self.lam_above(x) if above else self.lam_below(x)
        m_comp = -1.0 / lam
        q = self.q_at(lam)
        m_comp_prime = 1.0 / (lam * lam * (1.0 - q))
        m = _m_from_comp(self.c, self.t, self.w, x, m_comp)
        m_prime = (m_comp_prime + (self.c - 1.0) / x**2) / self.c
        return float(m), float(m_prime), float(m_comp), float(m_comp_prime)

    def q_outer(self, x: float) -> float:
        """q at x of the outer law with ratio c whose bulk is this law.

        q_outer(x) = c * int (s/(s-x))^2 dF(s) = c (1 + 2 x m(x) + x^2 m'(x)),
        through the real transforms on either side of the support.
        """
        m, m_prime, _, _ = self.real_transforms(x, x > self.upper_edge)
        return self.c * (1.0 + 2.0 * x * m + x * x * m_prime)


def _m_from_comp(c: float, t: np.ndarray, w: np.ndarray, z, m_comp):
    """Sample-law transform from the companion one, cancellation-free.

    Writing S = sum w t/(1 + t m_comp), the fixed point gives
    m = (z + (1-c) S) / (z (c S - z)), which stays accurate as c -> 0
    (the naive (m_comp - (c-1)/z)/c loses digits there).
    """
    s = (w * t / (1.0 + np.multiply.outer(m_comp, t))).sum(axis=-1)
    return (z + (1.0 - c) * s) / (z * (c * s - z))


# ---------------------------------------------------------------------------
# complex solver
# ---------------------------------------------------------------------------


def _companion_residual(c, t, w, m, z):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (w * t / (1.0 + np.multiply.outer(m, t))).sum(axis=-1)
        r = np.abs(-1.0 / m + c * s - z)
    return np.where(np.isfinite(r), r, np.inf)


def _ladder_solve(c, t, w, z: complex) -> complex:
    """Continuation fallback: walk Im z down from O(1) with Newton tracking."""
    x, y = z.real, z.imag
    y0 = max(y, 0.5 * (1.0 + abs(x)))
    heights = np.geomspace(y0, y, _LADDER_STEPS)
    wt = w * t

    def residual_at(m: complex, zz: complex) -> complex:
        s = (wt / (1.0 + m * t)).sum()
        return -1.0 / m + c * s - zz

    m = -1.0 / complex(x, y0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for h in heights:
            zz = complex(x, h)
            # damped fixed point: slow but reliable on the upper half-plane
            for _ in range(300):
                s = (wt / (1.0 + m * t)).sum()
                m_new = (1.0 - FP_DAMPING) * m + FP_DAMPING / (c * s - zz)
                if not (np.isfinite(m_new) and m_new.imag > 0.0):
                    m_new = -1.0 / zz
                if abs(m_new - m) <= 1e-14 * max(1.0, abs(m)):
                    m = m_new
                    break
                m = m_new
            # Newton polish, accepting only residual-decreasing steps
            for _ in range(NEWTON_MAX_ITER):
                denom = 1.0 + m * t
                r = residual_at(m, zz)
                if abs(r) <= SOLVER_TOL * 0.1:
                    break
                rp = 1.0 / (m * m) - c * (wt * t / denom**2).sum()
                step = -r / rp
                if not np.isfinite(step):
                    break
                accepted = False
                for _ in range(60):
                    cand = m + step
                    if (
                        np.isfinite(cand)
                        and cand.imag > 0.0
                        and abs(residual_at(cand, zz)) < abs(r)
                    ):
                        accepted = True
                        break
                    step *= 0.5
                if not accepted:
                    break
                m = cand
    return m


def _solve_companion_grid(c: float, t: np.ndarray, w: np.ndarray, z: np.ndarray):
    """Companion transform on an array of complex z with Im z > 0.

    Damped fixed point (freezing converged entries), Newton polish, then a
    per-point continuation ladder for any stragglers; raises SolverError if
    a point still misses the residual tolerance.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    m = -1.0 / flat
    wt = w * t
    active = np.ones(flat.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(FP_MAX_ITER):
            if not active.any():
                break
            ma = m[active]
            za = flat[active]
            s = (wt / (1.0 + np.multiply.outer(ma, t))).sum(axis=-1)
            resid = np.abs(-1.0 / ma + c * s - za)
            done = resid <= _FP_TARGET
            phi = 1.0 / (c * s - za)
            m_new = (1.0 - FP_DAMPING) * ma + FP_DAMPING * phi
            m_new = np.where(np.isfinite(m_new), m_new, -1.0 / za)
            m[active] = np.where(done, ma, m_new)
            idx = np.flatnonzero(active)
            active[idx[done]] = False

        resid = _companion_residual(c, t, w, m, flat)
        polish = resid > _NEWTON_TARGET
        for _ in range(NEWTON_MAX_ITER):
            act = polish & (resid > _NEWTON_TARGET)
            if not act.any():
                break
            ma = m[act]
            za = flat[act]
            denom = 1.0 + np.multiply.outer(ma, t)
            s = (wt / denom).sum(axis=-1)
            r = -1.0 / ma + c * s - za
            rp = 1.0 / (ma * ma) - c * (wt * t / denom**2).sum(axis=-1)
            step = -r / rp
            cand = ma + step
            for _ in range(60):
                bad = ~np.isfinite(cand) | (cand.imag <= 0.0)
                if not bad.any():
                    break
                step = np.where(bad, 0.5 * step, step)
                cand = ma + step
            # a candidate that never became admissible keeps the old iterate
            keep = ~np.isfinite(cand) | (cand.imag <= 0.0)
            cand = np.where(keep, ma, cand)
            new_resid = _companion_residual(c, t, w, cand, za)
            # non-improving points have hit roundoff: keep the better iterate
            # and stop polishing them
            better = new_resid < resid[act]
            cand = np.where(better, cand, ma)
            new_resid = np.where(better, new_resid, resid[act])
            m[act] = cand
            resid[act] = new_resid
            idx = np.flatnonzero(act)
            polish[idx[~better]] = False

    for i in np.flatnonzero(resid > SOLVER_TOL):
        m[i] = _ladder_solve(c, t, w, complex(flat[i]))
        resid[i] = float(_companion_residual(c, t, w, m[i : i + 1], flat[i : i + 1])[0])
    worst = float(resid.max()) if resid.size else 0.0
    if worst > SOLVER_TOL:
        raise SolverError("fixed-point solve did not converge", residual=worst)
    return m.reshape(z.shape), resid.reshape(z.shape)


def stieltjes(c: float, h: PopulationSpectrum, z: complex) -> StieltjesEval:
    """Solve the fixed-point equation at one complex z with Im z > 0."""
    c = _check_ratio(c)
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("stieltjes requires Im z > 0")
    t, w = _bulk(h)
    m_comp, resid = _solve_companion_grid(c, t, w, np.array([z]))
    m_comp = complex(m_comp[0])
    m = complex(_m_from_comp(c, t, w, z, m_comp))
    return StieltjesEval(z=z, m=m, m_under=m_comp, residual=float(resid[0]))


def stieltjes_real(
    c: float, h: PopulationSpectrum, x: float, side: str = "above"
) -> tuple[float, float]:
    """Real transform (m, m') at real x outside the support.

    side="above" requires x above the upper support edge; side="below"
    accepts points in the gap below the continuous support (or negative x).
    Derivatives come from implicit differentiation of the fixed point.
    """
    c = _check_ratio(c)
    law = _BulkLaw(c, *_bulk(h))
    if side not in ("above", "below"):
        raise ValueError(f"unknown side {side!r}")
    m, m_prime, _, _ = law.real_transforms(float(x), side == "above")
    return m, m_prime


def _density_atoms(c: float, t: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continuous density at positive points x via the imaginary part.

    Evaluates at heights eta and eta/2 with eta = max(1e-9, 1e-6 x) and
    Richardson-extrapolates toward the real axis; the linear-in-eta error
    cancels, which also suppresses leakage from any point mass at zero.
    """
    x = np.asarray(x, dtype=float)
    eta = np.maximum(1e-9, 1e-6 * x)
    z = np.concatenate([x + 1j * eta, x + 1j * eta / 2.0])
    m_comp, _ = _solve_companion_grid(c, t, w, z)
    m = _m_from_comp(c, t, w, z, m_comp)
    n = x.size
    f = (2.0 * m.imag[n:] - m.imag[:n]) / np.pi
    return np.clip(f, 0.0, None)


def mp_density(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """Density of the classical sample-covariance law at t > 0."""
    c = _check_ratio(c)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts <= 0.0):
        raise ValueError("mp_density requires t > 0")
    out = _density_atoms(c, *_bulk(h), pts)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def mass_at_zero(c: float, h: PopulationSpectrum) -> float:
    """Point mass at zero of the classical law: max(1 - 1/c, H({0}), 0)."""
    c = _check_ratio(c)
    t, w = _bulk(h)
    w0 = float(w[t == 0.0].sum())
    return max(1.0 - 1.0 / c, w0, 0.0)


def support_edges(c: float, h: PopulationSpectrum) -> tuple[float, float]:
    """Outermost edges of the continuous support of the classical law."""
    c = _check_ratio(c)
    law = _BulkLaw(c, *_bulk(h))
    return law.lower_edge, law.upper_edge


def _check_spike_map(name: str, c: float, h: PopulationSpectrum, lam) -> np.ndarray:
    """Validate a spike-forward map's arguments; lam as a 1-d array."""
    if c < 0.0 or not np.isfinite(c):
        raise ValueError("aspect ratio c must be nonnegative and finite")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr <= h.bulk_upper):
        raise ValueError(f"{name} requires lam above the bulk upper edge {h.bulk_upper!r}")
    return lam_arr


def psi(c: float, h: PopulationSpectrum, lam) -> float | np.ndarray:
    """Spike-forward map of the classical law at lam above the bulk."""
    lam_arr = _check_spike_map("psi", c, h, lam)
    out = _psi_raw(c, *_bulk(h), lam_arr)
    return float(out[0]) if np.ndim(lam) == 0 else out


def ppca_psi(c: float, h: PopulationSpectrum, lam) -> float | np.ndarray:
    """Spike-forward map of the product law: psi of the squared system over lam.

    Equals psi_{2c, H^2}(lam^2)/lam, defined for lam above the bulk.
    """
    lam_arr = _check_spike_map("ppca_psi", c, h, lam)
    h2 = square_spectrum(h)
    out = _psi_raw(2.0 * c, *_bulk(h2), lam_arr**2) / lam_arr
    return float(out[0]) if np.ndim(lam) == 0 else out


def pca_threshold(c: float, h: PopulationSpectrum) -> Threshold:
    """Classical spike threshold and bulk upper edge."""
    c = _check_ratio(c)
    t, w = _bulk(h)
    crit = _upper_critical(c, t, w)
    return Threshold(threshold=float(crit), bulk_edge=float(_psi_raw(c, t, w, crit)))


def _ppca_threshold_parts(c: float, h: PopulationSpectrum):
    """Threshold solve for the product law.

    Returns (lambda_star, y_star, x_star, inner law) where y_star =
    lambda_star^2 is the inner-spike threshold and x_star its image under
    the inner spike-forward map; the derivative criterion for the outer law
    (aspect ratio 2c, bulk = inner law) is evaluated through the inner real
    transforms (:meth:`_BulkLaw.q_outer`).
    """
    c = _check_ratio(c)
    inner = _BulkLaw(2.0 * c, *_bulk(square_spectrum(h)))
    q_minus_one = lambda x: inner.q_outer(x) - 1.0
    edge = inner.upper_edge
    hi = _grow(q_minus_one, max(2.0 * edge, edge + 1.0), f"no outer critical point above {edge!r}")
    x_star = _root(q_minus_one, edge * (1.0 + 1e-9), hi)
    y_star = inner.lam_above(x_star)
    return float(np.sqrt(y_star)), y_star, x_star, inner


def ppca_threshold(c: float, h: PopulationSpectrum) -> Threshold:
    """Product-law spike threshold and bulk upper edge."""
    lambda_star, _, x_star, _ = _ppca_threshold_parts(c, h)
    return Threshold(threshold=lambda_star, bulk_edge=float(x_star / lambda_star))


def _spike_limit(threshold, forward, c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Distant value forward(c, h, lam) above threshold(c, h), else the stuck edge."""
    lam = float(lam)
    if lam <= h.bulk_upper:
        raise ValueError("spike must exceed the bulk upper edge")
    thr = threshold(c, h)
    if lam > thr.threshold:
        return SpikedLimit.distant(forward(c, h, lam))
    return SpikedLimit.stuck(thr.bulk_edge)


def pca_limit(c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Limit of the sample eigenvalue for a population spike lam (classical)."""
    return _spike_limit(pca_threshold, psi, c, h, lam)


def ppca_limit(c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Limit of the sample singular value for a population spike lam (product)."""
    return _spike_limit(ppca_threshold, ppca_psi, c, h, lam)


def ppca_mass_at_zero(c: float, h: PopulationSpectrum) -> float:
    """Point mass at zero of the product law: max(1 - 1/(2c), H({0}), 0)."""
    return mass_at_zero(2.0 * c, h)


def ppca_support_edges(c: float, h: PopulationSpectrum) -> tuple[float, float]:
    """Edges of the continuous support of the product law (singular scale).

    The upper edge is x*^2/y* from the threshold solve (an exact identity:
    the outer spike-forward map composed with the inner one is explicit).
    The lower edge solves the outer derivative criterion on the gap branch
    when 2c < 1; for 2c >= 1 the outer q tends to 1 at zero from below, so
    the continuous support reaches zero exactly.
    """
    _, y_star, x_star, inner = _ppca_threshold_parts(c, h)
    c2 = inner.c
    upper = float(np.sqrt(x_star * x_star / y_star))
    if c2 >= 1.0 - 1e-12:
        return 0.0, upper
    a_in = inner.lower_edge
    x_left = _root(lambda x: inner.q_outer(x) - 1.0, a_in * 1e-8, a_in * (1.0 - 1e-12))
    m_left, _, _, _ = inner.real_transforms(x_left, False)
    a_out = x_left * (1.0 - c2 * (1.0 + x_left * m_left))
    return float(np.sqrt(max(a_out, 0.0))), upper


# ---------------------------------------------------------------------------
# product law CDF / density via the composed (nested) solve
# ---------------------------------------------------------------------------


def _midpoint_cdf(density, lower: float, upper: float, panels: int, mass: float, what: str):
    """Cumulative midpoint-rule integral of density on equal panels.

    Returns the panel nodes and the integral at each node, rescaled so the
    last value is exactly ``mass``; ``what`` names the law in the error
    raised when the density integrates to zero.
    """
    nodes = np.linspace(lower, upper, panels + 1)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    cum = np.concatenate([[0.0], np.cumsum(density(mids)) * (nodes[1] - nodes[0])])
    if cum[-1] <= 0.0:
        raise SolverError(f"{what} law density integrated to zero")
    cum *= mass / cum[-1]
    return nodes, cum


@functools.lru_cache(maxsize=16)
def _inner_quantile_bulk(c: float, atoms: tuple, n_atoms: int):
    """Discretize the inner squared-scale law into quantile atoms.

    The continuous part of F_{2c,H^2} becomes n_atoms equal-weight atoms at
    quantile midpoints (computed from a dense midpoint-rule CDF of the
    solver density); a zero atom carries the point mass when present.
    """
    c2 = 2.0 * c
    h2 = square_spectrum(PopulationSpectrum(atoms=atoms))
    t2, w2 = _bulk(h2)
    law = _BulkLaw(c2, t2, w2)
    mass0 = mass_at_zero(c2, h2)
    cont = 1.0 - mass0
    density = lambda x: _density_atoms(c2, t2, w2, x)
    grid, cum = _midpoint_cdf(density, law.lower_edge, law.upper_edge, 4 * n_atoms, cont, "inner")
    levels = (np.arange(n_atoms) + 0.5) / n_atoms * cont
    pos = np.interp(levels, cum, grid)
    wq = np.full(n_atoms, cont / n_atoms)
    if mass0 > 0.0:
        pos = np.concatenate([[0.0], pos])
        wq = np.concatenate([[mass0], wq])
    return pos, wq


@functools.lru_cache(maxsize=16)
def _ppca_cdf_table(c: float, atoms: tuple, n_atoms: int):
    """Monotone interpolation table for the product-law CDF.

    Integrates the outer-law density in singular-value scale t (where the
    integrand 2 t f_outer(t^2) is bounded) by the midpoint rule on panels
    between the exact support edges, then renormalizes the continuous mass
    so the CDF reaches exactly 1 at the upper edge.
    """
    h = PopulationSpectrum(atoms=atoms)
    tq, wq = _inner_quantile_bulk(c, atoms, n_atoms)
    lower, upper = ppca_support_edges(c, h)
    mass0 = ppca_mass_at_zero(c, h)
    density = lambda t: 2.0 * t * _density_atoms(2.0 * c, tq, wq, t * t)
    nodes, cum = _midpoint_cdf(density, lower, upper, _CDF_PANELS, 1.0 - mass0, "outer")
    interp = PchipInterpolator(nodes, mass0 + cum, extrapolate=False)
    return interp, lower, upper, mass0


def ppca_lsd_cdf(
    c: float, h: PopulationSpectrum, t, n_atoms: int = INNER_ATOMS
) -> float | np.ndarray:
    """CDF of the product law at t >= 0 (composed two-level solve)."""
    c = _check_ratio(c)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts < 0.0):
        raise ValueError("ppca_lsd_cdf requires t >= 0")
    interp, lower, upper, mass0 = _ppca_cdf_table(c, h.atoms, n_atoms)
    out = np.empty(pts.shape)
    below = pts <= lower
    above = pts >= upper
    mid = ~below & ~above
    out[below] = mass0
    out[above] = 1.0
    if mid.any():
        out[mid] = interp(pts[mid])
    return float(out[0]) if np.ndim(t) == 0 else out


def ppca_lsd_pdf(
    c: float, h: PopulationSpectrum, t, n_atoms: int = INNER_ATOMS
) -> float | np.ndarray:
    """Continuous density of the product law at t > 0: 2 t f_outer(t^2)."""
    c = _check_ratio(c)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts <= 0.0):
        raise ValueError("ppca_lsd_pdf requires t > 0")
    tq, wq = _inner_quantile_bulk(c, h.atoms, n_atoms)
    out = 2.0 * pts * _density_atoms(2.0 * c, tq, wq, pts * pts)
    return float(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# single-atom (SSM) closed forms
# ---------------------------------------------------------------------------


def ssm_spectrum(params: SsmParams, spikes=()) -> PopulationSpectrum:
    """Single-atom bulk at sigma2, with optional spikes."""
    return make_spectrum([(params.sigma2, 1.0)], spikes)


@functools.lru_cache(maxsize=256)
def ssm_closed_forms(params: SsmParams) -> SsmConstants:
    """All closed-form constants for a single-atom bulk."""
    c = params.c
    s2 = params.sigma2
    root = np.sqrt(c * c + 4.0 * c)
    lambda_star = s2 * np.sqrt(1.0 + c + root)
    lambda_prime = s2 * (1.0 + np.sqrt(c))
    alpha = 0.5 * (2.0 + 10.0 * c - c * c - np.sqrt(c * (c + 4.0) ** 3)) * s2 * s2
    beta = 0.5 * (2.0 + 10.0 * c - c * c + np.sqrt(c * (c + 4.0) ** 3)) * s2 * s2
    if c < 0.5:
        a = s2 * np.sqrt(1.0 + c - root) * (1.0 - 0.5 * (root + c))
    else:
        a = 0.0
    b = s2 * np.sqrt(1.0 + c + root) * (1.0 + 0.5 * (root - c))
    a_prime = s2 * (1.0 - np.sqrt(c)) ** 2
    b_prime = s2 * (1.0 + np.sqrt(c)) ** 2
    return SsmConstants(
        c=c,
        sigma2=s2,
        lambda_star=float(lambda_star),
        lambda_prime=float(lambda_prime),
        a=float(a),
        b=float(b),
        a_prime=float(a_prime),
        b_prime=float(b_prime),
        alpha=float(alpha),
        beta=float(beta),
        mass0_ppca=max(0.0, 1.0 - 0.5 / c),
        mass0_pca=max(0.0, 1.0 - 1.0 / c),
    )


def _cbrt_sq(x: np.ndarray) -> np.ndarray:
    """Real signed cube root squared: x^(2/3) with cbrt taken on the reals."""
    return np.cbrt(x) ** 2


def ssm_g_pdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form density of the product law for a single-atom bulk."""
    c = params.c
    s2 = params.sigma2
    consts = ssm_closed_forms(params)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts <= 0.0):
        raise ValueError("ssm_g_pdf requires t > 0")
    x = pts * pts
    inside = (x >= consts.alpha) & (x <= consts.beta)
    prod = np.clip((x - consts.alpha) * (consts.beta - x), 0.0, None)
    disc = pts * np.sqrt(prod)
    shift = (9.0 * (c + 1.0) * s2 * x + (2.0 * c - 1.0) ** 3 * s2**3) / (3.0 * np.sqrt(3.0))
    kappa = (
        _cbrt_sq(disc + shift)
        + _cbrt_sq(disc - shift)
        + (3.0 * x + (2.0 * c - 1.0) ** 2 * s2 * s2) / 3.0
    )
    if np.any(kappa[inside] <= 0.0):
        raise SolverError("cube-root branch failure: kappa <= 0 inside the support")
    out = np.where(inside, np.sqrt(prod) / (kappa * np.pi * c * s2), 0.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def ssm_f_pdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form density of the classical law for a single-atom bulk."""
    c = params.c
    s2 = params.sigma2
    consts = ssm_closed_forms(params)
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts <= 0.0):
        raise ValueError("ssm_f_pdf requires t > 0")
    inside = (pts >= consts.a_prime) & (pts <= consts.b_prime)
    prod = np.clip((pts - consts.a_prime) * (consts.b_prime - pts), 0.0, None)
    out = np.where(inside, np.sqrt(prod) / (2.0 * np.pi * c * s2 * pts), 0.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def _gl_panels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel edges on [0, pi/2] and the Gauss-Legendre rule on [0, 1]."""
    inner = (np.pi / 4.0) * _GL_GRADING ** np.arange(_GL_PANELS // 2 - 1, 0, -1)
    half = np.concatenate(([0.0], inner, [np.pi / 4.0]))
    edges = np.concatenate((half, np.pi / 2.0 - half[-2::-1]))
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return edges, 0.5 * (x + 1.0), 0.5 * w


_GL_EDGES, _GL_X, _GL_W = _gl_panels()


def _cdf_from_pdf(pdf, lower: float, upper: float, mass0: float, t) -> float | np.ndarray:
    """mass0 + integral of pdf from lower to min(t, upper).

    The integral is taken in theta, with t = lower + (upper - lower) sin^2
    theta on [0, pi/2], which turns the square-root edges of both laws into
    smooth integrands.  A fixed composite Gauss-Legendre rule integrates
    theta on panels graded geometrically toward both ends: at c = 1/2 the
    product density behaves like t^(-1/3) at zero, where as many uniform
    panels are off by 1e-6.  The full panels are summed once; each query
    point then adds one partial-panel rule from its panel's left edge, and
    every node of the call goes through one vectorized pdf evaluation.
    """
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(pts < 0.0):
        raise ValueError("cdf requires t >= 0")
    width = upper - lower
    theta = np.arcsin(np.sqrt((np.clip(pts, lower, upper) - lower) / width))
    panel = np.clip(np.searchsorted(_GL_EDGES, theta, side="right") - 1, 0, _GL_PANELS - 1)
    start = _GL_EDGES[panel]
    # one row per interval: every full panel, then each point's partial panel
    left = np.concatenate((_GL_EDGES[:-1], start))
    span = np.concatenate((np.diff(_GL_EDGES), theta - start))
    nodes = left[:, None] + span[:, None] * _GL_X
    sin = np.sin(nodes)
    x = lower + width * (sin * sin)
    # nodes of a point at a zero lower edge sit at t = 0, which the pdfs reject
    dens = np.zeros(x.shape)
    positive = x > 0.0
    dens[positive] = pdf(x[positive])
    # dt = width * sin(2 theta) dtheta
    seg = (dens * np.sin(2.0 * nodes)) @ _GL_W * (width * span)
    cum = np.concatenate(([0.0], np.cumsum(seg[:_GL_PANELS])))
    out = np.clip(mass0 + cum[panel] + seg[_GL_PANELS:], 0.0, 1.0)
    out[pts >= upper] = 1.0
    return float(out[0]) if np.ndim(t) == 0 else out


def ssm_g_cdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form CDF of the product law (point mass at zero included)."""
    consts = ssm_closed_forms(params)
    return _cdf_from_pdf(
        functools.partial(ssm_g_pdf, params),
        consts.a,
        consts.b,
        consts.mass0_ppca,
        t,
    )


def ssm_f_cdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form CDF of the classical law (point mass at zero included)."""
    consts = ssm_closed_forms(params)
    return _cdf_from_pdf(
        functools.partial(ssm_f_pdf, params),
        consts.a_prime,
        consts.b_prime,
        consts.mass0_pca,
        t,
    )


# ---------------------------------------------------------------------------
# bias comparison and the efficiency-of-separation curve
# ---------------------------------------------------------------------------


def bias_report(c: float, h: PopulationSpectrum, lam: float) -> BiasReport:
    """Limits of one spike under both estimators, plus the bias gap.

    Requires the spike to be distant for both methods (above the product
    threshold, which dominates the classical one).
    """
    lam = float(lam)
    ppca_thr = ppca_threshold(c, h)
    pca_thr = pca_threshold(c, h)
    if lam <= ppca_thr.threshold or lam <= pca_thr.threshold:
        raise ValueError(
            f"spike {lam!r} is not distant for both methods "
            f"(thresholds {ppca_thr.threshold!r}, {pca_thr.threshold!r})"
        )
    ppca_val = float(ppca_psi(c, h, lam))
    pca_val = float(psi(c, h, lam))
    return BiasReport(spike=lam, ppca=ppca_val, pca=pca_val, gap=pca_val - ppca_val)


def rho(c) -> float | np.ndarray:
    """Edge-separation efficiency of the product estimator vs the classical one.

    Equals ((1+sqrt(c))/sqrt(2)) * ((2+c+sqrt(c^2+4c))/(1+c+sqrt(c^2+4c)))^(1/2);
    equals 1 at c=0 and increases with c.
    """
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("rho requires c >= 0")
    root = np.sqrt(arr * arr + 4.0 * arr)
    out = ((1.0 + np.sqrt(arr)) / np.sqrt(2.0)) * np.sqrt(
        (2.0 + arr + root) / (1.0 + arr + root)
    )
    return float(out[0]) if np.ndim(c) == 0 else out
