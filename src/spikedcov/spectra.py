"""Population and empirical spectral distributions.

:class:`PopulationSpectrum` describes a population bulk law H: finitely many
atoms with weights.  Finite-rank spikes never move a limiting law, so a
spike is not part of a spectrum; spike maps take it as their own argument.

A sample spectrum, the eigenvalues or singular values of one p x p matrix,
has one form: a nonempty, finite, non-increasing 1-d float array, which is
what both fits return.  :func:`esd_cdf` and :func:`ks_distance` read its
empirical distribution, and every function that takes a sample spectrum,
the debiasing maps and the rank estimator included, raises ``ValueError``
for anything else; a rising spectrum is rejected, never re-sorted.

A small text format describes population spectra for the command line:
one ``atom VALUE WEIGHT`` line per bulk atom, with ``#`` comments and blank
lines ignored.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "WEIGHT_SLACK",
    "PopulationSpectrum",
    "make_spectrum",
    "square_spectrum",
    "esd_cdf",
    "ks_distance",
    "parse_spectrum_text",
]

# Bulk weights may miss 1 by at most this much before the input is rejected;
# anything smaller is silently renormalized to an exact unit total.
WEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class PopulationSpectrum:
    """Discrete bulk law.

    Attributes
    ----------
    atoms : tuple of (value, weight) pairs
        The bulk law. Values are nonnegative and strictly increasing,
        weights are positive and sum to one.
    """

    atoms: tuple[tuple[float, float], ...]

    @property
    def values(self) -> np.ndarray:
        """Bulk atom locations, increasing."""
        return np.array([t for t, _ in self.atoms], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        """Bulk atom weights, summing to one."""
        return np.array([w for _, w in self.atoms], dtype=float)

    @property
    def bulk_upper(self) -> float:
        """Largest bulk atom (upper edge of the bulk support)."""
        return self.atoms[-1][0]

    @property
    def bulk_mean(self) -> float:
        """First moment of the bulk law."""
        return float(np.dot(self.values, self.weights))


def make_spectrum(atoms: Iterable[tuple[float, float]]) -> PopulationSpectrum:
    """Validate and build a :class:`PopulationSpectrum`.

    Atoms may be given in any order; they are sorted by value. Atoms and
    weights must be finite, and weights positive and summing to one up to a
    slack of ``WEIGHT_SLACK``, in which case they are renormalized exactly.
    """
    pairs = [(float(t), float(w)) for t, w in atoms]
    if not pairs:
        raise ValueError("spectrum needs at least one bulk atom")
    if not np.all(np.isfinite(pairs)):
        raise ValueError("bulk atoms and weights must be finite")
    pairs.sort(key=lambda p: p[0])
    vals = np.array([t for t, _ in pairs])
    wts = np.array([w for _, w in pairs])
    if np.any(vals < 0.0):
        raise ValueError("bulk atoms must be nonnegative")
    if np.any(np.diff(vals) <= 0.0):
        raise ValueError("bulk atoms must be distinct")
    if np.any(wts <= 0.0):
        raise ValueError("bulk weights must be positive")
    total = float(wts.sum())
    if abs(total - 1.0) > WEIGHT_SLACK:
        raise ValueError(f"bulk weights sum to {total!r}, expected 1")
    wts = wts / total
    return PopulationSpectrum(atoms=tuple(zip(vals.tolist(), wts.tolist())))


def square_spectrum(spectrum: PopulationSpectrum) -> PopulationSpectrum:
    """Pushforward of a spectrum under t -> t**2.

    Bulk atoms map to their squares with unchanged weights. Squaring is
    strictly increasing on the nonnegative axis, so atom ordering and
    distinctness survive.
    """
    return PopulationSpectrum(atoms=tuple((t * t, w) for t, w in spectrum.atoms))


def _check_spectrum(values) -> np.ndarray:
    """A sample spectrum as a nonempty, finite, non-increasing 1-d float array."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError(f"spectrum must be a nonempty 1-d array, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("spectrum must be finite")
    if np.any(np.diff(vals) > 0.0):
        raise ValueError("spectrum must be sorted descending")
    return vals


def esd_cdf(values, t: float | np.ndarray) -> float | np.ndarray:
    """Empirical CDF of the sample spectrum ``values`` at ``t``: fraction <= t.

    Right-continuous step function; accepts scalars or arrays, not NaN.
    """
    vals = _check_spectrum(values)
    pts = np.asarray(t, dtype=float)
    if np.isnan(pts).any():
        raise ValueError("esd_cdf requires t that is not NaN")
    out = np.searchsorted(vals[::-1], pts, side="right") / vals.size
    return float(out) if np.isscalar(t) else out


def ks_distance(
    values,
    reference: Sequence[float] | np.ndarray,
    grid: Sequence[float] | np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance between a sample spectrum and a reference CDF.

    ``values`` is the sample spectrum, ``reference`` holds the reference
    CDF's values at ``grid``, each finite and in [0, 1]; each is compared
    with both F_emp(t-) and F_emp(t) at its grid point.  For a law
    continuous on the range scored, a grid of the spectrum's jump points
    gives the exact supremum.
    """
    vals = _check_spectrum(values)
    pts = np.asarray(grid, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.size == 0:
        raise ValueError("ks_distance needs a nonempty grid")
    if ref.shape != pts.shape:
        raise ValueError(f"reference shape {ref.shape} differs from grid shape {pts.shape}")
    if not np.all((ref >= 0.0) & (ref <= 1.0)):
        raise ValueError("reference CDF values must be finite and in [0, 1]")
    left = np.searchsorted(vals[::-1], pts, side="left") / vals.size
    right = esd_cdf(vals, pts)
    return float(max(np.max(np.abs(left - ref)), np.max(np.abs(right - ref))))


def parse_spectrum_text(text: str) -> PopulationSpectrum:
    """Parse the ``atom VALUE WEIGHT`` text format."""
    atoms: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] != "atom" or len(parts) != 3:
                raise ValueError
            atoms.append((float(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"bad spectrum line {lineno}: {raw!r}") from None
    return make_spectrum(atoms)
