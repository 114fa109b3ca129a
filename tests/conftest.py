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
import pathlib
import types

import numpy as np
import pytest
from scipy.integrate import quad

import spikedcov
from spikedcov import numkernel, rmt, spectra


def pytest_report_header(config):
    """Name the package directory under test: pytest puts this checkout's src/ first."""
    return f"spikedcov: {pathlib.Path(spikedcov.__file__).parent}"


def load_script(path: pathlib.Path) -> types.ModuleType:
    """Execute a script outside the package from source, as a module.

    Nothing is written next to it (no bytecode cache), and its main guard
    does not run.
    """
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


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


def ks_exact_oracle(values, cdf, mass0: float) -> float:
    """Exact KS distance between the ESD of values and a law with mass0 at 0.

    The law is taken continuous on (0, inf).  One loop over the sorted
    positive values compares the law with the empirical CDF just below and at
    each of them; the jump at 0 is compared once.
    """
    x = np.sort(np.asarray(values, dtype=float))
    p = x.size
    zeros = int(np.count_nonzero(x == 0.0))
    worst = abs(zeros / p - mass0)
    for i in range(zeros, p):
        f = float(cdf(float(x[i])))
        worst = max(worst, abs(f - i / p), abs(f - (i + 1) / p))
    return worst


def random_bulk(rng: np.random.Generator, n_atoms: int) -> spectra.PopulationSpectrum:
    """Random discrete bulk law with distinct positive atoms."""
    vals = np.sort(rng.uniform(0.2, 3.0, size=n_atoms))
    while np.any(np.diff(vals) < 1e-3):
        vals = np.sort(rng.uniform(0.2, 3.0, size=n_atoms))
    wts = rng.dirichlet(np.ones(n_atoms))
    while np.any(wts < 0.05):
        wts = rng.dirichlet(np.ones(n_atoms))
    return spectra.make_spectrum(atoms=list(zip(vals, wts)))


class RecordingBlas:
    """Stand-in for numkernel._blas_threads: a thread count to read, and logs.

    ``lookups`` counts lookups, ``sets`` lists every count set; the count
    set last is what the getter reads next.
    """

    def __init__(self, budget: int) -> None:
        self.threads = budget
        self.lookups = 0
        self.sets: list[int] = []

    def lookup(self):
        self.lookups += 1
        return self.get, self.set

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def fake_blas(monkeypatch):
    """Install a RecordingBlas with the given budget as the BLAS thread handle."""

    def install(budget: int) -> RecordingBlas:
        fake = RecordingBlas(budget)
        monkeypatch.setattr(numkernel, "_blas_threads", fake.lookup)
        return fake

    return install


@pytest.fixture
def openblas_two_threads():
    """numpy's OpenBLAS thread-count getter, the count set to 2 for the test.

    Skips where numpy's OpenBLAS is not found; the count is restored after.
    """
    handle = numkernel._blas_threads()
    if handle is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    get, put = handle
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@pytest.fixture
def flat_bulk() -> spectra.PopulationSpectrum:
    return spectra.make_spectrum(atoms=[(1.0, 1.0)])


@pytest.fixture
def two_atom_bulk() -> spectra.PopulationSpectrum:
    return spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])
