"""Limiting spectral theory for spiked sample covariances and their products.

Two families of limiting laws are computed from a discrete population bulk
law H (a :class:`~spikedcov.spectra.PopulationSpectrum`) and an aspect ratio
c = lim p/n.  Finite-rank spikes never move a law: each spike map below takes
the population spike as its own argument lam.  The two laws are:

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
support edges and gaps (as psi values, Silverstein & Choi 1995) and the
phase-transition thresholds for spiked eigenvalues.

The composition needs no nested solve: with k the inner law's companion
transform and U(k) = -1/k + 2c * sum w t/(1 + t k) over H^2, the outer one is
-1/U(k) and z = -k * U(k)^2.  On the real axis k = -1/y makes U = psi(y)
(ratio 2c, bulk H^2), and the critical points 2 y psi'(y) = psi(y) of
x(y) = psi(y)^2/y give the product thresholds, support edges and gaps.

Each critical point is a root found by sign bisection (_root) to
neighbouring floats, in a bracket that ends at the neighbouring float of an
atom or of zero, and both criteria are sums of ratios r = t/(t - y).  The
Im z ladder of the companion solve starts at the law's own top atom.  So no
tolerance or scale enters: the thresholds, edges, spike limits, densities
and CDFs of sH are those of H scaled by s, to within roundoff.  Two limits
are left, each a SolverError: a critical point nearer an atom than the
float grid resolves (c w_top below about 1e-31 for the upper one), and a
companion solve on bulks below about 1e-154, where Newton's slope, of order
1/m^2, falls below the smallest normal float.

One routine (_law) describes either law: its companion map, spike
threshold, support, sorted CDF pieces and zero mass; one top critical point
gives the threshold and the upper edge, where a spike at or below it sticks.
It builds each (c, H, estimator) once, a cached value that every threshold,
edge, limit, density and CDF reads (_law.cache_info() counts the builds).
Both laws share its density routine (_density: a complex solve just above
the real axis, polished by Newton on the axis), one CDF routine (_cdf) and
one residual rule for the solve (_residual).  Each map has one evaluation,
evaluate(m) -> (z(m), z'(m), the rounding scale of z(m)), made once per
Newton iterate; the product map's scale is NaN on its wrong branch
(Im U(k) <= 0), which _residual reads as an infinite residual.

The single-atom closed forms and rho avoid cancellation and never square or
cube c, and the product-law closed-form density works in units of its upper
edge; a closed-form constant or density that would overflow raises
ValueError.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .spectra import PopulationSpectrum, square_spectrum

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
    "mp_density",
    "mp_cdf",
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

# Complex solver schedule: FP_MAX_ITER damped fixed-point steps warm-start
# Newton, which alone judges convergence against SOLVER_TOL.
FP_DAMPING = 0.5
FP_MAX_ITER = 50
NEWTON_MAX_ITER = 40
SOLVER_TOL = 1e-10
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
    transform of the dual Gram law; residual is the scaled defect
    (_residual) of the fixed-point equation at the returned root.
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
        _check_ratio(self.c)
        _check_sigma2(self.sigma2)


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


def _check_ratio(c: float) -> float:
    """c as a float, checked finite and positive, as every law quantity (limits too) needs."""
    c = float(c)
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("aspect ratio c must be positive and finite")
    return c


def _check_sigma2(sigma2: float) -> None:
    """The bulk-level rule of a single-atom bulk: sigma2 finite and positive."""
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"bulk level sigma2 must be positive and finite, got {sigma2}")


def _points(name: str, t, positive: bool) -> np.ndarray:
    """t as a 1-d float array, checked finite and > 0 (positive) or >= 0."""
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(pts) & ((pts > 0.0) if positive else (pts >= 0.0))):
        raise ValueError(f"{name} requires finite t {'>' if positive else '>='} 0")
    return pts


def _root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], two floats of one sign, found to neighbouring floats.

    Each step goes to the geometric mean of the ends (the arithmetic mean
    once that rounds onto an end), so a bracket of any width closes in
    about 64 steps and no tolerance or scale enters.  Returns the end with
    the smaller |f|; raises SolverError when f has one sign at both ends or
    is not finite at a point it evaluates.
    """
    f_lo, f_hi = f(lo), f(hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise SolverError(f"criterion has one sign on [{lo:.17g}, {hi:.17g}]")
    while math.isfinite(f_lo) and math.isfinite(f_hi):
        mid = math.copysign(math.sqrt(abs(lo)) * math.sqrt(abs(hi)), lo)
        if not lo < mid < hi:
            mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if abs(f_lo) < abs(f_hi) else hi
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise SolverError(f"criterion is not finite on [{lo:.17g}, {hi:.17g}]")


# ---------------------------------------------------------------------------
# psi / q machinery on real branches (lam = -1/m_comp coordinates)
# ---------------------------------------------------------------------------


def _psi_raw(c: float, t: np.ndarray, w: np.ndarray, lam):
    """lam*(1 + c*sum w t/(lam-t)); vectorized over lam, no domain checks."""
    lam = np.asarray(lam, dtype=float)
    return lam * (1.0 + c * (w * t / (lam[..., None] - t)).sum(axis=-1))


def _q_raw(c: float, t: np.ndarray, w: np.ndarray, y: float, slope: bool = False) -> float:
    """c*sum w r^2 with r = t/(t-y), which is 1 where psi'(y) = 0, or y times its slope.

    The slope is c*sum w 2 r^2/(t-y), and y/(t-y) = r - 1.  Each term is a
    ratio of lengths that cannot overflow or underflow; r = 0 at a zero atom.
    """
    r = t / (t - y)
    return c * float(np.dot(w, 2.0 * r * r * (r - 1.0) if slope else r * r))


def _g_raw(c: float, t: np.ndarray, w: np.ndarray, y: float, slope: bool = False) -> float:
    """c*sum w r(2r-1), r = t/(t-y), which is 1 where 2 y psi'(y) = psi(y); or y times its slope.

    r(2r-1) = t(t+y)/(t-y)^2, and the slope in y is c*sum w r(4r-1)/(t-y).
    """
    r = t / (t - y)
    return c * float(np.dot(w, r * (4.0 * r - 1.0) * (r - 1.0) if slope else r * (2.0 * r - 1.0)))


def _lower_critical(crit, c: float, t: np.ndarray, w: np.ndarray) -> float | None:
    """Root of crit(c, t, w, .) = 1 below the bulk, or None when the lower edge is 0.

    Both criteria equal the effective ratio c*(1-w0) at zero (w0 the weight
    at zero), read at the smallest float as the criterion computes it.  Below
    1 the root lies above that float and below t_min; above 1 on the negative
    axis; at exactly 1 the continuous support touches zero and there is none.
    """
    tiny = math.ulp(0.0)
    c_pos = crit(c, t, w, tiny)
    crit_minus_one = lambda x: crit(c, t, w, x) - 1.0
    if c_pos < 1.0:
        return _root(crit_minus_one, tiny, math.nextafter(t[t > 0.0][0], 0.0))
    if c_pos > 1.0:
        return _root(crit_minus_one, -sys.float_info.max, -tiny)
    return None


def _between_atoms(crit, c: float, t: np.ndarray, w: np.ndarray) -> tuple[list[float], list[float]]:
    """Roots of crit(c, t, w, .) = 1 between neighbouring positive atoms, and dips.

    Both criteria are convex between two atoms and infinite at both.  Where
    the minimum is below 1, two roots bound a gap of the law; where it stays
    above, the minimum (a dip) maps near a sharp bend of the density.
    """
    pos = t[t > 0.0]
    roots, dips = [], []
    for left, right in zip(pos[:-1], pos[1:]):
        lo, hi = math.nextafter(left, right), math.nextafter(right, left)
        if not lo < hi:
            continue
        bottom = _root(lambda y: crit(c, t, w, y, slope=True), lo, hi)
        crit_minus_one = lambda y: crit(c, t, w, y) - 1.0
        if crit_minus_one(bottom) < 0.0:
            roots += [_root(crit_minus_one, lo, bottom), _root(crit_minus_one, bottom, hi)]
        else:
            dips.append(bottom)
    return roots, dips


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
    of one).
    """

    def __init__(self, c: float, h: PopulationSpectrum):
        self.c, self.t, self.w = float(c), h.values, h.weights

    def evaluate(self, m):
        """(z(m), z'(m), the rounding scale (|c - 1| + |s|)/|m| of z(m)), s = c sum w/(1+tm)."""
        denom = 1.0 + np.multiply.outer(m, self.t)
        s = self.c * (self.w / denom).sum(axis=-1)
        z = (self.c - 1.0 - s) / m
        slope = (self.c * (self.w * self.t / denom**2).sum(axis=-1) - z) / m
        return z, slope, (abs(self.c - 1.0) + np.abs(s)) / np.abs(m)

    def fixed_step(self, m, z):
        """Fixed-point image 1/(c S(m) - z) of m."""
        s = (self.w * self.t / (1.0 + np.multiply.outer(m, self.t))).sum(axis=-1)
        return 1.0 / (self.c * s - z)

    def point(self, t):
        """Real point x at which the density at t is read: x = t."""
        return t

    def density(self, m, t):
        """Density Im m/pi at t from the companion root m at the real point t."""
        return _m_from_comp(self.c, self.t, self.w, t, m).imag / np.pi


class _ProductMap:
    """Explicit inverse z(k) = -k U(k)^2 of the product law in squared scale.

    k is the inner companion transform, U the inner map (a _SampleMap at
    ratio 2c on H^2) and -1/U(k) the outer companion transform.  The root
    wanted has k and U(k) in the upper half-plane, not the mirror U -> -U.
    """

    def __init__(self, c: float, h: PopulationSpectrum):
        self.c = float(c)
        self.inner = _SampleMap(2.0 * c, square_spectrum(h))

    def evaluate(self, k):
        """(z(k), z'(k), the rounding scale of z(k)), the scale NaN where Im U(k) <= 0.

        Near z = 0 with 2c >= 1, U(k) is a small difference of order-one
        terms, and the rounding scale of z(k) is |U| (|2c - 1| + |2c - 1 - kU|).
        """
        u, u_prime, _ = self.inner.evaluate(k)
        noise = np.abs(u) * (abs(self.inner.c - 1.0) + np.abs(self.inner.c - 1.0 - k * u))
        return -k * u * u, -u * (u + 2.0 * k * u_prime), np.where(u.imag > 0.0, noise, np.nan)

    def fixed_step(self, k, z):
        """1/(2c S(k) - r), r = sqrt(-z/k) with Im r >= 0: U(k) = r at a fixed point."""
        r = np.sqrt(-z / k)
        return self.inner.fixed_step(k, np.where(r.imag < 0.0, -r, r))

    def point(self, t):
        """Real point x = t^2 at which the density at singular value t is read."""
        return t * t

    def density(self, k, t):
        """Density 2 t f_outer(t^2), f_outer = Im(-1/U(k))/(2c pi), from the root k at t^2."""
        return t * (-1.0 / self.inner.evaluate(k)[0]).imag / (self.c * np.pi)


def _residual(value, noise, z):
    """|z(m) - z| scaled so that SOLVER_TOL admits SOLVER_TOL |z| plus 32 rounding errors.

    value is z(m) and noise its rounding scale, both from a map's evaluate:
    z(m) cannot get closer to z than 2 eps times that scale.  Infinite where
    not finite, so where the scale is NaN (the product map's wrong branch).
    """
    r = np.abs(value - z) / (np.abs(z) + 64.0 * np.finfo(float).eps / SOLVER_TOL * noise)
    return np.where(np.isfinite(r), r, np.inf)


def _fixed_point(law, z):
    """Newton's warm start: FP_MAX_ITER damped steps from -1/z, with no convergence test."""
    m = -1.0 / z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(FP_MAX_ITER):
            m = (1.0 - FP_DAMPING) * m + FP_DAMPING * law.fixed_step(m, z)
            m = np.where(np.isfinite(m), m, -1.0 / z)
    return m


def _newton(law, m, z):
    """Newton polish from m on flat arrays toward _NEWTON_TARGET.

    law.evaluate runs once on the starting iterates and once per iteration
    on its candidates, whose value and slope, if accepted, serve the next
    step.  Steps are halved until they stay finite in the upper half-plane,
    and only residual-decreasing steps are taken; returns (m, residual).
    """
    m = m.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, slope, noise = law.evaluate(m)
        resid = _residual(value, noise, z)
        polish = resid > _NEWTON_TARGET
        for _ in range(NEWTON_MAX_ITER):
            act = polish & (resid > _NEWTON_TARGET)
            if not act.any():
                break
            ma, za = m[act], z[act]
            step = -(value[act] - za) / slope[act]
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
            cand_value, cand_slope, cand_noise = law.evaluate(cand)
            new_resid = _residual(cand_value, cand_noise, za)
            # non-improving points have hit roundoff: keep the better iterate
            # and stop polishing them
            better = new_resid < resid[act]
            idx = np.flatnonzero(act)
            won = idx[better]
            m[won], resid[won] = cand[better], new_resid[better]
            value[won], slope[won] = cand_value[better], cand_slope[better]
            polish[idx[~better]] = False
    return m, resid


def _solve_companion_grid(law, z: np.ndarray):
    """Root of law's map at an array of complex z with Im z > 0.

    A fixed-length damped fixed point warm-starts Newton, which alone
    judges convergence.  Points still above SOLVER_TOL walk down together
    in Im z from u + |Re z|, u the top atom in the map's point scale (of
    H^2 for the product map): the warm start runs once there, then Newton
    alone follows a geometric ladder down to Im z, warm-started from the
    height above.  Raises SolverError if a point still misses SOLVER_TOL.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    m, resid = _newton(law, _fixed_point(law, flat), flat)
    lost = np.flatnonzero(resid > SOLVER_TOL)
    if lost.size:
        x, y = flat[lost].real, flat[lost].imag
        top = x + 1j * np.maximum(y, getattr(law, "inner", law).t[-1] + np.abs(x))
        m_lost = _fixed_point(law, top)
        for h in np.geomspace(top.imag, y, _LADDER_STEPS):
            m_lost, r_lost = _newton(law, m_lost, x + 1j * h)
        m[lost] = m_lost
        resid[lost] = r_lost
    worst = float(resid.max()) if resid.size else 0.0
    if worst > SOLVER_TOL:
        raise SolverError("companion solve did not converge", residual=worst)
    return m.reshape(z.shape), resid.reshape(z.shape)


def stieltjes(c: float, h: PopulationSpectrum, z: complex) -> StieltjesEval:
    """Solve the fixed-point equation at one complex z with Im z > 0."""
    c = _check_ratio(c)
    z = complex(z)
    if not (np.isfinite(z) and z.imag > 0.0):
        raise ValueError("stieltjes requires a finite z with Im z > 0")
    law = _SampleMap(c, h)
    m_comp, resid = _solve_companion_grid(law, np.array([z]))
    m_comp = complex(m_comp[0])
    m = complex(_m_from_comp(c, law.t, law.w, z, m_comp))
    return StieltjesEval(z=z, m=m, m_under=m_comp, residual=float(resid[0]))


def _density(law, t: np.ndarray) -> np.ndarray:
    """Density of law at points t inside its support.

    The root solved at x + 1e-6 x i (x = law.point(t)) is polished by Newton
    on the real axis, where law.density holds exactly, with no pole term
    from a point mass at zero.
    """
    x = law.point(t)
    m, _ = _solve_companion_grid(law, x + 1e-6j * x)
    m, resid = _newton(law, m, x.astype(complex))
    worst = float(resid.max()) if resid.size else 0.0
    if worst > SOLVER_TOL:
        raise SolverError("real-axis polish did not converge", residual=worst)
    return law.density(m, t)


_Law = namedtuple("_Law", "companion threshold support pieces mass0")


@functools.lru_cache(maxsize=64)
def _law(c: float, h: PopulationSpectrum, *, product: bool) -> _Law:
    """Companion map, Threshold, support intervals, CDF pieces and zero mass of one law.

    The law is the classical one, or the product one if product is true.
    Its support ends are images of the roots of crit(c', t, w, .) = 1, with
    (c', t, w) its sample map's ratio and bulk (2c and H^2 for the product
    law): one above the bulk, pairs between atoms, and one below the bulk,
    or zero at an effective ratio of one; the root y* above it also gives the
    spike threshold, y* or sqrt(y*) for the product law, whose bulk edge is
    the support's upper edge.  Classical ends are psi values at q(lam) = 1,
    clipped at zero against rounding; product ends are sqrt(x(y)) at the
    critical points y of x(y) = psi(y)^2/y, and zero for y <= 0.
    The pieces tile each support interval in increasing order, cut at the
    distinct dip images inside it, which need not follow the atoms' order as
    the ends do; one rule across a dip's sharp bend is off by up to 1e-3.
    Each (c, H, estimator) is built once and cached, with tuples no caller
    can change; product is keyword-only, as the cache keys a positional flag
    apart.  A build that raises is not cached; _law.cache_info() counts builds.
    """
    c = _check_ratio(c)
    companion = _ProductMap(c, h) if product else _SampleMap(c, h)
    sample = companion.inner if product else companion
    args = (sample.c, sample.t, sample.w)
    if product:
        image = lambda y: float(abs(_psi_raw(*args, y)) / np.sqrt(y)) if y > 0.0 else 0.0
        crit, threshold = _g_raw, math.sqrt
    else:
        crit, threshold, image = _q_raw, float, lambda lam: max(float(_psi_raw(*args, lam)), 0.0)
    above = (math.nextafter(sample.t[-1], math.inf), sys.float_info.max)
    top = _root(lambda y: crit(*args, y) - 1.0, *above)
    lower = _lower_critical(crit, *args)
    roots, dips = _between_atoms(crit, *args)
    edges = [image(lower) if lower is not None else 0.0, *map(image, roots + [top])]
    support = tuple(zip(edges[::2], edges[1::2]))
    dips = sorted({image(y) for y in dips})
    cuts = [[lower, *(d for d in dips if lower < d < upper), upper] for lower, upper in support]
    pieces = tuple(piece for cut in cuts for piece in itertools.pairwise(cut))
    spike = Threshold(threshold=threshold(top), bulk_edge=edges[-1])
    return _Law(companion, spike, support, pieces, mass_at_zero(sample.c, h))


def _pdf(name: str, law: _Law, t) -> float | np.ndarray:
    """Density of law at t > 0: _density inside the support intervals, exactly 0 elsewhere."""
    pts = _points(name, t, positive=True)
    inside = np.any([(pts > lo) & (pts < hi) for lo, hi in law.support], axis=0)
    out = np.zeros(pts.shape)
    out[inside] = _density(law.companion, pts[inside])
    return float(out[0]) if np.ndim(t) == 0 else out


def _cdf(name: str, law: _Law, t) -> float | np.ndarray:
    """CDF of law at t >= 0: its zero mass plus _cdf_from_pdf over its pieces."""
    return _cdf_from_pdf(name, functools.partial(_density, law.companion), law.pieces, law.mass0, t)


def mp_density(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """Density of the classical sample-covariance law at t > 0."""
    return _pdf("mp_density", _law(c, h, product=False), t)


def mp_cdf(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """CDF of the classical law at t >= 0 (point mass at zero included)."""
    return _cdf("mp_cdf", _law(c, h, product=False), t)


def mass_at_zero(c: float, h: PopulationSpectrum) -> float:
    """Point mass at zero of the classical law: max(1 - 1/c, H({0}), 0)."""
    c = _check_ratio(c)
    w0 = float(h.weights[h.values == 0.0].sum())
    return max(1.0 - 1.0 / c, w0, 0.0)


def support_edges(c: float, h: PopulationSpectrum) -> tuple[float, float]:
    """Outermost edges of the continuous support of the classical law."""
    support = _law(c, h, product=False).support
    return support[0][0], support[-1][1]


def _check_spike_map(name: str, c: float, h: PopulationSpectrum, lam) -> np.ndarray:
    """Validate a spike map's arguments, c = 0 included (the identity); lam as a 1-d array."""
    if c < 0.0 or not np.isfinite(c):
        raise ValueError("aspect ratio c must be nonnegative and finite")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam_arr) & (lam_arr > h.bulk_upper)):
        raise ValueError(f"{name} requires finite lam above the bulk upper edge {h.bulk_upper!r}")
    return lam_arr


def psi(c: float, h: PopulationSpectrum, lam) -> float | np.ndarray:
    """Spike-forward map of the classical law at lam above the bulk."""
    lam_arr = _check_spike_map("psi", c, h, lam)
    out = _psi_raw(c, h.values, h.weights, lam_arr)
    return float(out[0]) if np.ndim(lam) == 0 else out


def ppca_psi(c: float, h: PopulationSpectrum, lam) -> float | np.ndarray:
    """Spike-forward map of the product law: psi of the squared system over lam.

    Equals psi_{2c, H^2}(lam^2)/lam, defined for lam above the bulk, and is
    taken in units of the power of two at or below lam, an exact rescaling,
    so lam^2 never overflows.
    """
    lam_arr = _check_spike_map("ppca_psi", c, h, lam)
    unit = np.ldexp(1.0, np.frexp(lam_arr)[1] - 1)
    scaled, t2 = lam_arr / unit, (h.values / unit[:, None]) ** 2
    out = _psi_raw(2.0 * c, t2, square_spectrum(h).weights, scaled * scaled) / scaled * unit
    return float(out[0]) if np.ndim(lam) == 0 else out


def pca_threshold(c: float, h: PopulationSpectrum) -> Threshold:
    """Classical spike threshold y*, the top critical point, and bulk upper edge."""
    return _law(c, h, product=False).threshold


def ppca_threshold(c: float, h: PopulationSpectrum) -> Threshold:
    """Product-law spike threshold sqrt(y*), y* the top critical point, and bulk upper edge."""
    return _law(c, h, product=True).threshold


def _spike_limit(
    name: str, forward, c: float, h: PopulationSpectrum, lam: float, product: bool
) -> SpikedLimit:
    """Distant value forward(c, h, lam) above the law's threshold, else its bulk edge.

    forward is flat at the threshold and can round below the edge just above
    it, so a distant value is kept at or above the edge, as a stuck one is.
    """
    lam = float(lam)
    _check_spike_map(name, c, h, lam)
    thr = _law(c, h, product=product).threshold
    if lam > thr.threshold:
        return SpikedLimit.distant(max(forward(c, h, lam), thr.bulk_edge))
    return SpikedLimit.stuck(thr.bulk_edge)


def pca_limit(c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Limit of the sample eigenvalue for a population spike lam (classical)."""
    return _spike_limit("pca_limit", psi, c, h, lam, product=False)


def ppca_limit(c: float, h: PopulationSpectrum, lam: float) -> SpikedLimit:
    """Limit of the sample singular value for a population spike lam (product)."""
    return _spike_limit("ppca_limit", ppca_psi, c, h, lam, product=True)


def ppca_mass_at_zero(c: float, h: PopulationSpectrum) -> float:
    """Point mass at zero of the product law: max(1 - 1/(2c), H({0}), 0)."""
    return mass_at_zero(2.0 * c, h)


def ppca_support_edges(c: float, h: PopulationSpectrum) -> tuple[float, float]:
    """Outermost edges of the continuous support of the product law (singular scale)."""
    support = _law(c, h, product=True).support
    return support[0][0], support[-1][1]


def ppca_lsd_cdf(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """CDF of the product law at t >= 0 (point mass at zero included)."""
    return _cdf("ppca_lsd_cdf", _law(c, h, product=True), t)


def ppca_lsd_pdf(c: float, h: PopulationSpectrum, t) -> float | np.ndarray:
    """Continuous density of the product law at t > 0: 2 t f_outer(t^2)."""
    return _pdf("ppca_lsd_pdf", _law(c, h, product=True), t)


# ---------------------------------------------------------------------------
# single-atom (SSM) closed forms
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def ssm_closed_forms(params: SsmParams) -> SsmConstants:
    """All closed-form constants for a single-atom bulk; ValueError if one overflows."""
    # Python floats: an overflow gives inf, never a numpy warning or an error
    c = float(params.c)
    s2 = float(params.sigma2)
    sqrt_c = float(np.sqrt(c))
    r = sqrt_c * float(np.sqrt(c + 4.0))  # sqrt(c^2 + 4c)
    # big = A + B with A = 2 + 10c - c^2 and B = sqrt(c (c+4)^3) = (c+4) r.
    # B - c^2 = 4c (3c^2 + 12c + 16)/(B + c^2) does not cancel at large c;
    # the ratio is taken with both sides divided by c, so no c^3 is formed
    big = 2.0 + 10.0 * c + 4.0 * (3.0 * c * c + 12.0 * c + 16.0) / ((c + 4.0) * (r / c) + c)
    # alpha = (A - B)/2 = 2 (1-2c)^3/big does not cancel near c = 1/2
    u = 1.0 - 2.0 * c
    alpha = 2.0 * u * (u / big * u) * s2 * s2
    d = (1.0 - c) / (1.0 + sqrt_c)  # 1 - sqrt(c), without cancellation near c = 1
    beta = 0.5 * big * s2 * s2
    consts = SsmConstants(
        c=c,
        sigma2=s2,
        lambda_star=s2 * float(np.sqrt(1.0 + c + r)),
        lambda_prime=s2 * (1.0 + sqrt_c),
        a=float(np.sqrt(alpha)) if c < 0.5 else 0.0,
        # b = sqrt(1 + c + r) (1 + (r - c)/2) s2, and b^2 = beta exactly
        b=float(np.sqrt(beta)),
        a_prime=s2 * d * d,
        b_prime=s2 * (1.0 + sqrt_c) * (1.0 + sqrt_c),
        alpha=alpha,
        beta=beta,
        mass0_ppca=max(0.0, 1.0 - 0.5 / c),
        mass0_pca=max(0.0, 1.0 - 1.0 / c),
    )
    if not np.all(np.isfinite(list(vars(consts).values()))):
        raise ValueError(f"closed-form constants overflow at c = {c!r}, sigma2 = {s2!r}")
    return consts


def ssm_g_pdf(params: SsmParams, t) -> float | np.ndarray:
    """Closed-form density of the product law for a single-atom bulk.

    Lengths are taken in units of the smallest power of two above b, so the
    products and cube-root arguments are O(c) and O(c^(3/2)) at large c
    where their raw values reach c^3.  The rescaling is exact, so for
    sigma2 a power of two the values are bit for bit those of the unscaled
    form.  A density that cannot be represented (c sigma2 below the
    smallest float, say) raises ``ValueError``.
    """
    c = params.c
    consts = ssm_closed_forms(params)
    pts = _points("ssm_g_pdf", t, positive=True)
    unit = float(np.ldexp(1.0, np.frexp(consts.b)[1]))
    s2 = params.sigma2 / unit
    alpha = consts.alpha / unit / unit
    beta = consts.beta / unit / unit
    scaled = pts / unit
    x = scaled * scaled
    inside = (x >= alpha) & (x <= beta)
    prod = np.clip((x - alpha) * (beta - x), 0.0, None)
    disc = scaled * np.sqrt(prod)
    w = (2.0 * c - 1.0) * s2
    shift = (9.0 * (c + 1.0) * s2 * x + w**3) / (3.0 * np.sqrt(3.0))
    # real cube roots: cbrt keeps the sign of a negative argument
    kappa = np.cbrt(disc + shift) ** 2 + np.cbrt(disc - shift) ** 2 + (3.0 * x + w * w) / 3.0
    if np.any(kappa[inside] <= 0.0):
        raise SolverError("cube-root branch failure: kappa <= 0 inside the support")
    with np.errstate(all="ignore"):
        out = np.where(inside, np.sqrt(prod) / (kappa * np.pi * c * params.sigma2), 0.0)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"ssm_g_pdf not representable at c = {c!r}, sigma2 = {params.sigma2!r}")
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
    off by 1e-6.  The panels are split at the query points inside the
    interval, all its nodes go through one vectorized pdf evaluation, and
    one cumulative sum of the nonnegative panel integrals gives every query
    point its CDF (points above add the whole), nondecreasing by construction.
    """
    pts = _points(name, t, positive=False)
    out = np.full(pts.shape, float(mass0))
    for lower, upper in support:
        width = upper - lower
        inside = (pts > lower) & (pts < upper)
        theta = np.arcsin(np.sqrt((pts[inside] - lower) / width))
        edges = np.union1d(_GL_EDGES, theta)
        span = np.diff(edges)
        nodes = edges[:-1, None] + span[:, None] * _GL_X
        sin = np.sin(nodes)
        x = lower + width * (sin * sin)
        # nodes of a point at a zero lower edge sit at t = 0, which the pdfs reject
        dens = np.zeros(x.shape)
        positive = x > 0.0
        dens[positive] = pdf(x[positive])
        # dt = width * sin(2 theta) dtheta
        seg = (dens * np.sin(2.0 * nodes)) @ _GL_W * (width * span)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        out[inside] += cum[np.searchsorted(edges, theta)]
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
    ppca, pca = ppca_limit(c, h, lam), pca_limit(c, h, lam)
    if not (ppca.is_distant and pca.is_distant):
        raise ValueError(f"spike {float(lam)!r} is not distant for both methods")
    return BiasReport(spike=float(lam), ppca=ppca.value, pca=pca.value, gap=pca.value - ppca.value)


def rho(c) -> float | np.ndarray:
    """Edge-separation efficiency of the product estimator vs the classical one.

    Equals ((1+sqrt(c))/sqrt(2)) * ((2+c+sqrt(c^2+4c))/(1+c+sqrt(c^2+4c)))^(1/2);
    equals 1 at c=0 and increases with c.
    """
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("rho requires c >= 0")
    # the ratio is 1 + 1/(1 + c + sqrt(c^2 + 4c)) = 1 + (2/s)/(s - 2/s) with
    # s = sqrt(c) + sqrt(c + 4): nothing cancels or overflows for any float c
    s = np.sqrt(arr) + np.sqrt(arr + 4.0)
    out = ((1.0 + np.sqrt(arr)) / np.sqrt(2.0)) * np.sqrt(1.0 + (2.0 / s) / (s - 2.0 / s))
    return float(out[0]) if np.ndim(c) == 0 else out
