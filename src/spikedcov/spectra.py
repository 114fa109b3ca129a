"""Population and empirical spectral distributions.

:class:`PopulationSpectrum` describes a population bulk law H: finitely many
atoms with weights.  It checks itself however it is built, so the squared
bulk of :func:`square_spectrum` is rejected when its squares overflow or
underflow.  Finite-rank spikes never move a limiting law, so a spike is not
part of a spectrum; spike maps take it as their own argument.

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
    """Discrete bulk law: (value, weight) pairs as floats, checked when built.

    Values are finite, nonnegative and strictly increasing, at least one of
    them positive; weights are finite, positive and sum to one up to
    ``WEIGHT_SLACK``.  Anything else raises ``ValueError``.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((float(t), float(w)) for t, w in self.atoms))
        if not self.atoms:
            raise ValueError("spectrum needs at least one bulk atom")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("bulk atoms and weights must be finite")
        vals, wts = self.values, self.weights
        if np.any(vals < 0.0):
            raise ValueError("bulk atoms must be nonnegative")
        if np.any(np.diff(vals) <= 0.0):
            raise ValueError("bulk atoms must be distinct and increasing")
        if vals[-1] <= 0.0:
            raise ValueError("bulk law needs a positive atom")
        if np.any(wts <= 0.0):
            raise ValueError("bulk weights must be positive")
        total = float(wts.sum())
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise ValueError(f"bulk weights sum to {total!r}, expected 1")

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
    """The spectrum of atoms in any order: sorted, checked, weights renormalized exactly."""
    spec = PopulationSpectrum(atoms=tuple(sorted((float(t), float(w)) for t, w in atoms)))
    wts = spec.weights
    return PopulationSpectrum(atoms=tuple(zip(spec.values.tolist(), (wts / wts.sum()).tolist())))


def square_spectrum(spectrum: PopulationSpectrum) -> PopulationSpectrum:
    """Pushforward of a spectrum under t -> t**2.

    Bulk atoms map to their squares with unchanged weights.  Squaring keeps
    the atoms increasing unless it overflows or underflows, and then the
    squared law is rejected like any other malformed bulk.  So is a positive
    atom whose square is below the smallest normal float: the square has
    lost digits, or has become a zero atom.
    """
    squared = PopulationSpectrum(atoms=tuple((t * t, w) for t, w in spectrum.atoms))
    if any(t > 0.0 and t * t < np.finfo(float).tiny for t, _ in spectrum.atoms):
        raise ValueError("positive bulk atoms must square to at least the smallest normal float")
    return squared


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
    return float(out) if np.ndim(t) == 0 else out


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
