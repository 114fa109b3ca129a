"""Shared fixtures and independent closed-form oracles.

The flat-bulk Stieltjes transform has an explicit quadratic-formula solution;
it is coded here from scratch (not via the package's solver) so solver tests
compare against an independent implementation.  The flat-bulk CDFs get the
same treatment: the classical one from its elementary antiderivative, the
product one by adaptive quadrature of its closed-form density, neither
through the package's Gauss-Legendre rule.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from spikedcov import rmt, spectra


def mp_stieltjes_oracle(c: float, sigma2: float, z: complex) -> tuple[complex, complex]:
    """Companion and plain Stieltjes transform of the flat-bulk sample law.

    Solves the quadratic z*s2*mu^2 + (z + s2*(1-c))*mu + 1 = 0 for the
    companion transform mu and picks the upper-half-plane root; the plain
    transform follows from mu = c*m + (c-1)/z.
    """
    s2 = sigma2
    a = z * s2
    b = z + s2 * (1.0 - c)
    disc = cmath.sqrt(b * b - 4.0 * a)
    mu1 = (-b + disc) / (2.0 * a)
    mu2 = (-b - disc) / (2.0 * a)
    mu = mu1 if mu1.imag > 0 else mu2
    m = (mu - (c - 1.0) / z) / c
    return mu, m


def mp_density_oracle(c: float, sigma2: float, t: float) -> float:
    """Flat-bulk sample eigenvalue density from its explicit formula."""
    lo = sigma2 * (1.0 - math.sqrt(c)) ** 2
    hi = sigma2 * (1.0 + math.sqrt(c)) ** 2
    if t <= lo or t >= hi:
        return 0.0
    return math.sqrt((t - lo) * (hi - t)) / (2.0 * math.pi * c * sigma2 * t)


def mp_cdf_oracle(c: float, sigma2: float, t: float) -> float:
    """Flat-bulk sample eigenvalue CDF from the elementary antiderivative.

    With R = sqrt((s-lo)(hi-s)), the integral of R/s is R + mid*asin((s-mid)/half)
    + sqrt(lo*hi)*asin((lo*hi/s-mid)/half), mid and half the centre and
    half-width of the support; both arcsines are written as atan2 so they
    stay accurate next to the edges.
    """
    lo = sigma2 * (1.0 - math.sqrt(c)) ** 2
    hi = sigma2 * (1.0 + math.sqrt(c)) ** 2
    mass0 = max(0.0, 1.0 - 1.0 / c)
    if t <= lo:
        return mass0
    if t >= hi:
        return 1.0
    mid = 0.5 * (lo + hi)
    geo = math.sqrt(lo * hi)
    root = math.sqrt((t - lo) * (hi - t))
    area = root + mid * (math.atan2(t - mid, root) + 0.5 * math.pi)
    if geo > 0.0:
        area += geo * (math.atan2(lo * hi - mid * t, geo * root) - 0.5 * math.pi)
    return mass0 + area / (2.0 * math.pi * c * sigma2)


def ssm_g_cdf_oracle(c: float, sigma2: float, t: float) -> float:
    """Flat-bulk product-law CDF by adaptive quadrature of its density.

    Below the middle of the support it integrates up from the lower edge,
    above it it subtracts the integral up to the upper edge from 1.  At
    c = 1/2 the density behaves like t^(-1/3) at the lower edge 0, so that
    power goes into quad's algebraic endpoint weight.
    """
    params = rmt.SsmParams(c=c, sigma2=sigma2)
    cf = rmt.ssm_closed_forms(params)
    if t <= cf.a:
        return cf.mass0_ppca
    if t >= cf.b:
        return 1.0

    def pdf(x):
        return rmt.ssm_g_pdf(params, x)

    opts = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 500}
    if t > 0.5 * (cf.a + cf.b):
        return 1.0 - quad(pdf, t, cf.b, **opts)[0]
    if c == 0.5:
        # quad's weighted rule also samples the endpoint 0, where the pdf is
        # undefined, so the smooth factor is read just above it there
        floor = 1e-30 * cf.b

        def smooth(x):
            x = max(x, floor)
            return pdf(x) * x ** (1.0 / 3.0)

        head = quad(smooth, 0.0, t, weight="alg", wvar=(-1.0 / 3.0, 0.0), **opts)[0]
    else:
        head = quad(pdf, cf.a, t, **opts)[0]
    return cf.mass0_ppca + head


def random_bulk(rng: np.random.Generator, n_atoms: int) -> spectra.PopulationSpectrum:
    """Random discrete bulk law with distinct positive atoms."""
    vals = np.sort(rng.uniform(0.2, 3.0, size=n_atoms))
    while np.any(np.diff(vals) < 1e-3):
        vals = np.sort(rng.uniform(0.2, 3.0, size=n_atoms))
    wts = rng.dirichlet(np.ones(n_atoms))
    while np.any(wts < 0.05):
        wts = rng.dirichlet(np.ones(n_atoms))
    return spectra.make_spectrum(atoms=list(zip(vals, wts)))


@pytest.fixture
def flat_bulk() -> spectra.PopulationSpectrum:
    return spectra.make_spectrum(atoms=[(1.0, 1.0)])


@pytest.fixture
def two_atom_bulk() -> spectra.PopulationSpectrum:
    return spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])
