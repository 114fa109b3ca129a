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

The composition needs no nested solve: with k the inner law's companion
transform and U(k) = -1/k + 2c * sum w t/(1 + t k) over H^2, the outer one is
-1/U(k) and z = -k * U(k)^2.  On the real axis k = -1/y makes U = psi(y)
(ratio 2c, bulk H^2), and the critical points 2 y psi'(y) = psi(y) of
x(y) = psi(y)^2/y give the product thresholds and support edges.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .spectra import PopulationSpectrum, make_spectrum, square_spectrum

__all__ = [
    "SOLVER_TOL",
    "FP_DAMPING",
    "FP_MAX_ITER",
    "NEWTON_MAX_ITER",
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

# Largest gap a generic law's CDF may show against a closed form.
CDF_GATE = 1e-3

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


def _points(name: str, t, positive: bool) -> np.ndarray:
    """t as a 1-d float array, checked finite and > 0 (positive) or >= 0."""
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(pts) & ((pts > 0.0) if positive else (pts >= 0.0))):
        raise ValueError(f"{name} requires finite t {'>' if positive else '>='} 0")
    return pts


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


def _g_raw(c: float, t: np.ndarray, w: np.ndarray, y, slope: bool = False):
    """c*sum w t (t+y)/(t-y)^2, which is 1 where 2 y psi'(y) = psi(y), or its slope.

    The slope in y is c*sum w t (3t+y)/(t-y)^3.  Vectorized over y.
    """
    y = np.asarray(y, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w * t * ((3.0 * t + y) / (t - y) ** 3 if slope else (t + y) / (t - y) ** 2)
    return c * np.where(t == 0.0, 0.0, terms).sum(axis=-1)


def _upper_critical(crit, c: float, t: np.ndarray, w: np.ndarray) -> float:
    """Root of crit(c, t, w, .) = 1 above the largest bulk atom."""
    u = float(t[-1])
    if u <= 0.0:
        raise SolverError("bulk law has no positive atoms")
    crit_minus_one = lambda x: crit(c, t, w, x) - 1.0
    lo = u * (1.0 + 1e-12)
    hi = _grow(crit_minus_one, u * (1.0 + np.sqrt(c)) * 10.0, f"no critical point above {lo:.3e}")
    return _root(crit_minus_one, lo, hi)


def _lower_critical(crit, c: float, t: np.ndarray, w: np.ndarray) -> float | None:
    """Root of crit(c, t, w, .) = 1 below the bulk, or None when the lower edge is 0.

    Both criteria equal the effective ratio c*(1-w0) at zero (w0 the weight
    at zero).  Below 1 the root sits in (0, t_min+); above 1 on the negative
    axis; at exactly 1 the continuous support touches zero and there is none.
    """
    w0 = float(w[t == 0.0].sum())
    c_pos = c * (1.0 - w0)
    pos = t[t > 0.0]
    if pos.size == 0:
        return None
    tmin = float(pos[0])
    crit_minus_one = lambda x: crit(c, t, w, x) - 1.0
    if c_pos < 1.0 - 1e-12:
        return _root(crit_minus_one, tmin * 1e-12, tmin * (1.0 - 1e-12))
    if c_pos > 1.0 + 1e-12:
        hi = -tmin * 1e-12
        lo = _grow(crit_minus_one, -max(float(t[-1]), 1.0), f"no critical point below {hi:.3e}")
        return _root(crit_minus_one, lo, hi)
    return None


def _between_atoms(c: float, t: np.ndarray, w: np.ndarray) -> tuple[list[float], list[float]]:
    """Roots of _g_raw = 1 between neighbouring positive atoms, and dips.

    _g_raw is convex between two atoms and infinite at both.  Where its
    minimum is below 1, two roots bound a gap of the product law; where it
    stays above, the minimum (a dip) maps near a sharp bend of the density.
    """
    pos = t[t > 0.0]
    roots, dips = [], []
    for left, right in zip(pos[:-1], pos[1:]):
        lo, hi = left * (1.0 + 1e-12), right * (1.0 - 1e-12)
        if not lo < hi:
            continue
        bottom = _root(lambda y: _g_raw(c, t, w, y, slope=True), lo, hi)
        crit_minus_one = lambda y: _g_raw(c, t, w, y) - 1.0
        if crit_minus_one(bottom) < 0.0:
            roots += [_root(crit_minus_one, lo, bottom), _root(crit_minus_one, bottom, hi)]
        else:
            dips.append(bottom)
    return roots, dips


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
        self.upper_critical = _upper_critical(_q_raw, c, self.t, self.w)
        self.lower_critical = _lower_critical(_q_raw, c, self.t, self.w)
        self.upper_edge = float(_psi_raw(c, self.t, self.w, self.upper_critical))
        if self.lower_critical is None:
            self.lower_edge = 0.0
        else:
            self.lower_edge = max(
                float(_psi_raw(c, self.t, self.w, self.lower_critical)), 0.0
            )

    def psi_at(self, lam) -> float:
        return _psi_raw(self.c, self.t, self.w, lam)

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

    def real_transforms(self, x: float, above: bool) -> tuple[float, float]:
        """(m, m') at real x above (or below) the support.

        m_comp comes from lam; its derivative from implicit differentiation,
        m_comp' = 1/(lam^2 (1 - q(lam))); m and m' via the exact companion
        relations, arranged to avoid cancellation in m (see _m_from_comp).
        The branch inversion rejects an x on the wrong side of the support.
        """
        lam = self.lam_above(x) if above else self.lam_below(x)
        m_comp = -1.0 / lam
        q = _q_raw(self.c, self.t, self.w, lam)
        m_comp_prime = 1.0 / (lam * lam * (1.0 - q))
        m = _m_from_comp(self.c, self.t, self.w, x, m_comp)
        m_prime = (m_comp_prime + (self.c - 1.0) / x**2) / self.c
        return float(m), float(m_prime)


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


class _SampleMap:
    """Explicit inverse z(m) = -1/m + c S(m), S(m) = sum w t/(1+tm), of the classical law.

    z(m) is evaluated as (c - 1 - c sum w/(1+tm))/m, whose terms do not
    cancel where those of -1/m + c S(m) do (|m| large at an effective ratio
    of one).  Residuals are absolute.
    """

    walk_top = 0.5

    def __init__(self, c: float, t: np.ndarray, w: np.ndarray):
        self.c, self.t, self.w = float(c), t, w

    def value_slope(self, m):
        """(z(m), z'(m)), with z' = (c sum w t/(1+tm)^2 - z)/m."""
        denom = 1.0 + np.multiply.outer(m, self.t)
        z = (self.c - 1.0 - self.c * (self.w / denom).sum(axis=-1)) / m
        return z, (self.c * (self.w * self.t / denom**2).sum(axis=-1) - z) / m

    def fixed_step(self, m, z):
        """(|-1/m + c S(m) - z|, fixed-point image 1/(c S(m) - z)) of m."""
        s = (self.w * self.t / (1.0 + np.multiply.outer(m, self.t))).sum(axis=-1)
        return np.abs(-1.0 / m + self.c * s - z), 1.0 / (self.c * s - z)

    def residual(self, m, z):
        return np.abs(self.value_slope(m)[0] - z)


class _ProductMap:
    """Explicit inverse z(k) = -k U(k)^2 of the product law in squared scale.

    k is the inner companion transform, U the inner map (a _SampleMap at
    ratio 2c on H^2) and -1/U(k) the outer companion transform.  The root
    wanted has k and U(k) in the upper half-plane, not the mirror U -> -U.
    """

    def __init__(self, c: float, h: PopulationSpectrum):
        self.c = float(c)
        self.inner = _SampleMap(2.0 * c, *_bulk(square_spectrum(h)))
        self.walk_top = 1.0 + 2.0 * c

    def value_slope(self, k):
        u, u_prime = self.inner.value_slope(k)
        return -k * u * u, -u * (u + 2.0 * k * u_prime)

    def fixed_step(self, k, z):
        """(residual, 1/(2c S(k) - r)), r = sqrt(-z/k) with Im r >= 0: U(k) = r at a fixed point."""
        r = np.sqrt(-z / k)
        return self.residual(k, z), self.inner.fixed_step(k, np.where(r.imag < 0.0, -r, r))[1]

    def residual(self, k, z):
        """|z(k) - z| scaled so that SOLVER_TOL admits SOLVER_TOL |z| plus 32 rounding errors.

        Near z = 0 with 2c >= 1, U(k) is a small difference of order-one
        terms and z(k) cannot get closer to z than its rounding error
        2 eps |U| (|2c - 1| + |2c - 1 - kU|).  Infinite when Im U(k) <= 0.
        """
        u = self.inner.value_slope(k)[0]
        noise = np.abs(u) * (abs(self.inner.c - 1.0) + np.abs(self.inner.c - 1.0 - k * u))
        r = np.abs(-k * u * u - z) / (np.abs(z) + 64.0 * np.finfo(float).eps / SOLVER_TOL * noise)
        return np.where(u.imag > 0.0, r, np.inf)


def _residual(law, m, z):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = law.residual(m, z)
    return np.where(np.isfinite(r), r, np.inf)


def _fixed_point(law, z, m):
    """Damped fixed point from m on flat arrays; an entry freezes at _FP_TARGET."""
    m = m.copy()
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(FP_MAX_ITER):
            if not active.any():
                break
            ma = m[active]
            za = z[active]
            resid, image = law.fixed_step(ma, za)
            done = resid <= _FP_TARGET
            m_new = (1.0 - FP_DAMPING) * ma + FP_DAMPING * image
            m_new = np.where(np.isfinite(m_new), m_new, -1.0 / za)
            m[active] = np.where(done, ma, m_new)
            idx = np.flatnonzero(active)
            active[idx[done]] = False
    return m


def _newton(law, m, z):
    """Newton polish from m on flat arrays toward _NEWTON_TARGET.

    Steps are halved until they stay finite in the upper half-plane, and
    only residual-decreasing steps are taken; returns (m, residual).
    """
    m = m.copy()
    resid = _residual(law, m, z)
    polish = resid > _NEWTON_TARGET
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            act = polish & (resid > _NEWTON_TARGET)
            if not act.any():
                break
            ma = m[act]
            za = z[act]
            value, slope = law.value_slope(ma)
            step = -(value - za) / slope
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
            new_resid = _residual(law, cand, za)
            # non-improving points have hit roundoff: keep the better iterate
            # and stop polishing them
            better = new_resid < resid[act]
            cand = np.where(better, cand, ma)
            new_resid = np.where(better, new_resid, resid[act])
            m[act] = cand
            resid[act] = new_resid
            idx = np.flatnonzero(act)
            polish[idx[~better]] = False
    return m, resid


def _solve_companion_grid(law, z: np.ndarray):
    """Root of law's map at an array of complex z with Im z > 0.

    Damped fixed point (freezing converged entries), then Newton polish.
    Points still above SOLVER_TOL walk down together in Im z: the fixed
    point runs once at height law.walk_top * (1 + |Re z|), then Newton
    alone follows a geometric ladder of heights down to Im z, warm-started
    from the height above.  Raises SolverError if a point still misses the
    tolerance.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    m, resid = _newton(law, _fixed_point(law, flat, -1.0 / flat), flat)
    lost = np.flatnonzero(resid > SOLVER_TOL)
    if lost.size:
        x, y = flat[lost].real, flat[lost].imag
        top = x + 1j * np.maximum(y, law.walk_top * (1.0 + np.abs(x)))
        m_lost = _fixed_point(law, top, -1.0 / top)
        for h in np.geomspace(top.imag, y, _LADDER_STEPS):
            m_lost, r_lost = _newton(law, m_lost, x + 1j * h)
        m[lost] = m_lost
        resid[lost] = r_lost
    worst = float(resid.max()) if resid.size else 0.0
    if worst > SOLVER_TOL:
        raise SolverError("fixed-point solve did not converge", residual=worst)
    return m.reshape(z.shape), resid.reshape(z.shape)


def stieltjes(c: float, h: PopulationSpectrum, z: complex) -> StieltjesEval:
    """Solve the fixed-point equation at one complex z with Im z > 0."""
    c = _check_ratio(c)
    z = complex(z)
    if not (np.isfinite(z) and z.imag > 0.0):
        raise ValueError("stieltjes requires a finite z with Im z > 0")
    t, w = _bulk(h)
    m_comp, resid = _solve_companion_grid(_SampleMap(c, t, w), np.array([z]))
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
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"stieltjes_real requires a finite x, got {x!r}")
    if side not in ("above", "below"):
        raise ValueError(f"unknown side {side!r}")
    return _BulkLaw(c, *_bulk(h)).real_transforms(x, side == "above")


def mp_density(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """Density of the classical sample-covariance law at t > 0.

    Im m/pi at heights eta and eta/2, eta = max(1e-9, 1e-6 t), extrapolated
    (Richardson) to the real axis; the linear-in-eta error cancels, which
    also suppresses leakage from any point mass at zero.
    """
    c = _check_ratio(c)
    pts = _points("mp_density", t, positive=True)
    eta = np.maximum(1e-9, 1e-6 * pts)
    z = np.concatenate([pts + 1j * eta, pts + 1j * eta / 2.0])
    m_comp, _ = _solve_companion_grid(_SampleMap(c, *_bulk(h)), z)
    m = _m_from_comp(c, *_bulk(h), z, m_comp).imag
    out = np.clip((2.0 * m[pts.size :] - m[: pts.size]) / np.pi, 0.0, None)
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
    if not np.all(np.isfinite(lam_arr) & (lam_arr > h.bulk_upper)):
        raise ValueError(f"{name} requires finite lam above the bulk upper edge {h.bulk_upper!r}")
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
    crit = _upper_critical(_q_raw, c, t, w)
    return Threshold(threshold=float(crit), bulk_edge=float(_psi_raw(c, t, w, crit)))


def ppca_threshold(c: float, h: PopulationSpectrum) -> Threshold:
    """Product-law spike threshold sqrt(y*), y* the top critical point, and bulk upper edge."""
    c = _check_ratio(c)
    t2, w2 = _bulk(square_spectrum(h))
    lambda_star = float(np.sqrt(_upper_critical(_g_raw, 2.0 * c, t2, w2)))
    return Threshold(threshold=lambda_star, bulk_edge=float(ppca_psi(c, h, lambda_star)))


def _spike_limit(threshold, forward, c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Distant value forward(c, h, lam) above threshold(c, h), else the stuck edge."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam > h.bulk_upper):
        raise ValueError("spike must be finite and exceed the bulk upper edge")
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


def _ppca_support(c: float, h: PopulationSpectrum) -> tuple[list[tuple[float, float]], list[float]]:
    """Support intervals of the product law and the dips of its density (singular scale).

    The ends are images of critical points y > 0 of x(y) = psi(y)^2/y: one
    above the bulk, pairs between atoms (_between_atoms), and one below the
    bulk when the effective ratio 2c(1 - w0) is below one, else zero.
    """
    c = _check_ratio(c)
    c2 = 2.0 * c
    t2, w2 = _bulk(square_spectrum(h))
    image = lambda ys: [float(abs(_psi_raw(c2, t2, w2, y)) / np.sqrt(y)) for y in ys]  # sqrt(x(y))
    lower = _lower_critical(_g_raw, c2, t2, w2)
    roots, dips = _between_atoms(c2, t2, w2)
    edges = image([lower] if lower is not None and lower > 0.0 else []) or [0.0]
    edges += image(roots + [_upper_critical(_g_raw, c2, t2, w2)])
    return list(zip(edges[::2], edges[1::2])), image(dips)


def ppca_support_edges(c: float, h: PopulationSpectrum) -> tuple[float, float]:
    """Outermost edges of the continuous support of the product law (singular scale)."""
    support, _ = _ppca_support(c, h)
    return support[0][0], support[-1][1]


def _ppca_density(law: _ProductMap, t: np.ndarray) -> np.ndarray:
    """Product-law density 2 t f_outer(t^2) at singular values t inside the support.

    k solved at x + 1e-6 x i (x = t^2) is polished on the real axis, where
    f_outer = Im(-1/U(k))/(2c pi) holds exactly, with no pole term at zero.
    """
    x = t * t
    k, _ = _solve_companion_grid(law, x + 1e-6j * x)
    k, resid = _newton(law, k, x.astype(complex))
    worst = float(resid.max()) if resid.size else 0.0
    if worst > SOLVER_TOL:
        raise SolverError("real-axis polish did not converge", residual=worst)
    return t * (-1.0 / law.inner.value_slope(k)[0]).imag / (law.c * np.pi)


def ppca_lsd_cdf(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """CDF of the product law at t >= 0 (point mass at zero included)."""
    c = _check_ratio(c)
    support, dips = _ppca_support(c, h)
    # graded panels on both sides of a dip: one rule across it is off by up to 1e-3
    pieces = []
    for lower, upper in support:
        cuts = [lower, *(d for d in dips if lower < d < upper), upper]
        pieces += zip(cuts[:-1], cuts[1:])
    pdf = functools.partial(_ppca_density, _ProductMap(c, h))
    return _cdf_from_pdf("ppca_lsd_cdf", pdf, pieces, ppca_mass_at_zero(c, h), t)


def ppca_lsd_pdf(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """Continuous density of the product law at t > 0: 2 t f_outer(t^2)."""
    c = _check_ratio(c)
    pts = _points("ppca_lsd_pdf", t, positive=True)
    inside = np.any([(pts > lo) & (pts < hi) for lo, hi in _ppca_support(c, h)[0]], axis=0)
    out = np.zeros(pts.shape)
    out[inside] = _ppca_density(_ProductMap(c, h), pts[inside])
    return float(out[0]) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# single-atom (SSM) closed forms
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def ssm_closed_forms(params: SsmParams) -> SsmConstants:
    """All closed-form constants for a single-atom bulk."""
    c = params.c
    s2 = params.sigma2
    root = np.sqrt(c * c + 4.0 * c)
    lambda_star = s2 * np.sqrt(1.0 + c + root)
    lambda_prime = s2 * (1.0 + np.sqrt(c))
    # alpha = (A - B)/2 = 2 (1-2c)^3/(A + B), A = 2 + 10c - c^2 and
    # B = sqrt(c (c+4)^3): the second form does not cancel near c = 1/2
    big = 2.0 + 10.0 * c - c * c + np.sqrt(c * (c + 4.0) ** 3)
    alpha = 2.0 * (1.0 - 2.0 * c) ** 3 / big * s2 * s2
    beta = 0.5 * big * s2 * s2
    a = np.sqrt(alpha) if c < 0.5 else 0.0
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
    pts = _points("ssm_g_pdf", t, positive=True)
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
    pts = _points("ssm_f_pdf", t, positive=True)
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


def _cdf_from_pdf(name: str, pdf, support, mass0: float, t) -> float | np.ndarray:
    """mass0 plus the integral of pdf over the support up to t.

    support lists intervals (lower, upper) of the continuous support in
    increasing order, and the CDF is exactly 1 from the last upper edge on.
    Each interval is integrated in theta, with t = lower + (upper - lower)
    sin^2 theta on [0, pi/2], which turns square-root edges into smooth
    integrands.  A fixed composite Gauss-Legendre rule integrates theta on
    panels graded geometrically toward both ends: at c = 1/2 the product
    density behaves like t^(-1/3) at zero, where as many uniform panels are
    off by 1e-6.  The full panels are summed once; each query point inside
    the interval then adds one partial-panel rule from its panel's left
    edge (points above add its whole integral), and every node of an
    interval goes through one vectorized pdf evaluation.
    """
    pts = _points(name, t, positive=False)
    out = np.full(pts.shape, float(mass0))
    for lower, upper in support:
        width = upper - lower
        inside = (pts > lower) & (pts < upper)
        theta = np.arcsin(np.sqrt((pts[inside] - lower) / width))
        panel = np.clip(np.searchsorted(_GL_EDGES, theta, side="right") - 1, 0, _GL_PANELS - 1)
        start = _GL_EDGES[panel]
        # one row per panel: every full panel, then each inner point's partial panel
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
        out[inside] = out[inside] + cum[panel] + seg[_GL_PANELS:]
        out[pts >= upper] += cum[-1]
    out = np.clip(out, 0.0, 1.0)
    out[pts >= support[-1][1]] = 1.0
    return float(out[0]) if np.ndim(t) == 0 else out


def ssm_g_cdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form CDF of the product law (point mass at zero included)."""
    consts = ssm_closed_forms(params)
    return _cdf_from_pdf(
        "ssm_g_cdf",
        functools.partial(ssm_g_pdf, params),
        [(consts.a, consts.b)],
        consts.mass0_ppca,
        t,
    )


def ssm_f_cdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form CDF of the classical law (point mass at zero included)."""
    consts = ssm_closed_forms(params)
    return _cdf_from_pdf(
        "ssm_f_cdf",
        functools.partial(ssm_f_pdf, params),
        [(consts.a_prime, consts.b_prime)],
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
    if not (lam > ppca_thr.threshold and lam > pca_thr.threshold):
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
