"""Population and empirical spectral distributions.

Value types shared across the toolkit:

- :class:`PopulationSpectrum` describes a population covariance spectrum as a
  discrete bulk law (finitely many atoms with weights) plus finitely many
  spiked eigenvalues sitting strictly above the bulk.
- :class:`ESD` is an empirical spectral distribution, i.e. the sorted
  eigenvalue (or squared-singular-value) list of one p x p matrix.

A small text format serializes population spectra for the command line:
one ``atom VALUE WEIGHT`` line per bulk atom and one ``spike VALUE`` line per
spike, with ``#`` comments and blank lines ignored.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "WEIGHT_SLACK",
    "PopulationSpectrum",
    "ESD",
    "make_spectrum",
    "square_spectrum",
    "esd_cdf",
    "ks_distance",
    "parse_spectrum_text",
    "format_spectrum_text",
]

# Bulk weights may miss 1 by at most this much before the input is rejected;
# anything smaller is silently renormalized to an exact unit total.
WEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class PopulationSpectrum:
    """Discrete bulk law plus spiked eigenvalues.

    Attributes
    ----------
    atoms : tuple of (value, weight) pairs
        The bulk law. Values are nonnegative and strictly increasing,
        weights are positive and sum to one.
    spikes : tuple of float
        Spiked eigenvalues, each strictly above every bulk atom, sorted in
        decreasing order.
    """

    atoms: tuple[tuple[float, float], ...]
    spikes: tuple[float, ...] = ()

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

    @property
    def n_spikes(self) -> int:
        return len(self.spikes)

    def bulk_moment(self, k: int) -> float:
        """k-th moment of the bulk law."""
        return float(np.dot(self.values**k, self.weights))


def make_spectrum(
    atoms: Iterable[tuple[float, float]],
    spikes: Iterable[float] = (),
) -> PopulationSpectrum:
    """Validate and build a :class:`PopulationSpectrum`.

    Atoms may be given in any order; they are sorted by value. Weights must
    be positive and sum to one up to a slack of ``WEIGHT_SLACK``, in which
    case they are renormalized exactly. Spikes must each exceed the largest
    bulk atom; they are returned sorted in decreasing order.
    """
    pairs = [(float(t), float(w)) for t, w in atoms]
    if not pairs:
        raise ValueError("spectrum needs at least one bulk atom")
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
    spk = sorted((float(s) for s in spikes), reverse=True)
    top = vals[-1]
    for s in spk:
        if s <= top:
            raise ValueError(
                f"spike {s!r} does not exceed the bulk upper edge {top!r}"
            )
    return PopulationSpectrum(
        atoms=tuple(zip(vals.tolist(), wts.tolist())),
        spikes=tuple(spk),
    )


def square_spectrum(spectrum: PopulationSpectrum) -> PopulationSpectrum:
    """Pushforward of a spectrum under t -> t**2.

    Bulk atoms map to their squares with unchanged weights; spikes map to
    their squares. Squaring is strictly increasing on the nonnegative axis,
    so atom ordering, distinctness, and the spike/bulk separation survive.
    """
    return PopulationSpectrum(
        atoms=tuple((t * t, w) for t, w in spectrum.atoms),
        spikes=tuple(s * s for s in spectrum.spikes),
    )


@dataclass(frozen=True)
class ESD:
    """Empirical spectral distribution of one p x p matrix.

    Attributes
    ----------
    values : np.ndarray
        Eigenvalues in decreasing order.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("ESD needs a nonempty 1-d eigenvalue array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("ESD eigenvalues must be finite")
        if np.any(np.diff(vals) > 0.0):
            vals = np.sort(vals)[::-1]
        object.__setattr__(self, "values", vals)

    @property
    def dim_p(self) -> int:
        return int(self.values.size)


def esd_cdf(esd: ESD, t: float | np.ndarray) -> float | np.ndarray:
    """Empirical CDF of ``esd`` at ``t``: fraction of eigenvalues <= t.

    Right-continuous step function; accepts scalars or arrays, not NaN.
    """
    pts = np.asarray(t, dtype=float)
    if np.isnan(pts).any():
        raise ValueError("esd_cdf requires t that is not NaN")
    idx = np.searchsorted(esd.values[::-1], pts, side="right")
    out = idx / esd.dim_p
    return float(out) if np.isscalar(t) else out


def ks_distance(
    esd: ESD,
    cdf: Callable[[float], float],
    grid: Sequence[float] | np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance between an ESD and a reference CDF.

    Compares ``cdf(t)`` with both F_emp(t-) and F_emp(t) at every grid point.
    For a law continuous on the range scored, a grid of the ESD's jump points
    gives the exact supremum.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise ValueError("ks_distance needs a nonempty grid")
    left = np.searchsorted(esd.values[::-1], pts, side="left") / esd.dim_p
    right = esd_cdf(esd, pts)
    try:
        # one vectorized call lets segment-cached reference cdfs amortize
        ref = np.asarray(cdf(pts), dtype=float)
        if ref.shape != pts.shape:
            raise TypeError("cdf is not vectorized")
    except TypeError:
        ref = np.array([float(cdf(float(t))) for t in pts])
    return float(max(np.max(np.abs(left - ref)), np.max(np.abs(right - ref))))


def parse_spectrum_text(text: str) -> PopulationSpectrum:
    """Parse the ``atom VALUE WEIGHT`` / ``spike VALUE`` text format."""
    atoms: list[tuple[float, float]] = []
    spikes: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "atom" and len(parts) == 3:
                atoms.append((float(parts[1]), float(parts[2])))
            elif parts[0] == "spike" and len(parts) == 2:
                spikes.append(float(parts[1]))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad spectrum line {lineno}: {raw!r}") from None
    return make_spectrum(atoms, spikes)


def format_spectrum_text(spectrum: PopulationSpectrum) -> str:
    """Serialize a spectrum to the text format (round-trips with the parser)."""
    lines = [f"atom {t:.17g} {w:.17g}" for t, w in spectrum.atoms]
    lines += [f"spike {s:.17g}" for s in spectrum.spikes]
    return "\n".join(lines) + "\n"
