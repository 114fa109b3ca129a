"""Reproducible Monte Carlo harness for the covariance estimators.

Experiments are described by a small key-value config (sample size,
dimension, tail model, population spikes, replicate count) and a master
seed from the caller, and run fully deterministically: replicate i draws
its data from the Philox stream (master_seed, 2i) and its half-split from
(master_seed, 2i + 1), so any replicate can be regenerated in isolation and
results do not depend on execution order.  The master seed lies in
[0, 2**64), and spikes are listed largest first, so that the spike runner's
theory table pairs spike j of the config with the j-th largest sample
eigenvalue of every record.

Three runners cover the standard studies:

* spectrum: empirical spectral distributions of both estimators against
  their limiting laws (KS distances, zero-mass fractions, histogram and
  overlay tables);
* spike: raw and bias-corrected leading eigenvalues against their
  theoretical limits;
* robustness: estimated target ranks and subspace-similarity curves under
  heavy-tailed data.

Reports are written as UTF-8, LF-terminated CSV with ten-digit numbers
(``_NUMBER_FORMAT``), so repeated runs are byte-identical; a report's
aggregates are derived from its records.
"""
from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import rmt
from .estimators import (
    debias_pca,
    debias_ppca,
    estimate_rank,
    fit_values,
    pca_fit,
    ppca_fit,
    similarity_xi,
)
from .numkernel import RngStream, haar_orthogonal
from .spectra import ks_distance, make_spectrum

__all__ = [
    "MODELS",
    "XI_Q_MAX",
    "INFINITE_KURTOSIS_NU",
    "ExperimentConfig",
    "ExperimentReport",
    "parse_config",
    "gen_data",
    "run_spectrum_experiment",
    "run_spike_experiment",
    "run_robustness_experiment",
    "write_csv",
    "load_report",
]

MODELS = ("gaussian", "student_t")

# Largest subspace size the robustness runner scores.
XI_Q_MAX = 8

# Student-t with nu at or below this has infinite fourth moment; runs are
# allowed but flagged, since eigenvalue fluctuations are then outlier-driven.
INFINITE_KURTOSIS_NU = 4.0

# Every number a CSV cell or the simulate summary prints: ten significant digits.
_NUMBER_FORMAT = "%.10g"


@dataclass(frozen=True)
class ExperimentConfig:
    """One deterministic experiment description.

    ``spikes`` are absolute population spike eigenvalues placed above a flat
    bulk at level ``sigma2``, largest first (ties allowed); ``master_seed``,
    in [0, 2**64), keys every random draw.  The aspect ratio is always the
    realized p/n.
    """

    n: int
    p: int
    master_seed: int
    model: str = "gaussian"
    nu: float | None = None
    sigma2: float = 1.0
    spikes: tuple[float, ...] = ()
    replicates: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "spikes", tuple(float(v) for v in self.spikes))
        if self.n < 4:
            raise ValueError(f"need n >= 4 samples, got {self.n}")
        if self.p < 1:
            raise ValueError(f"need p >= 1 features, got {self.p}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "student_t":
            if self.nu is None:
                raise ValueError("student_t model needs a degrees-of-freedom value")
            if not (np.isfinite(self.nu) and self.nu > 2.0):
                raise ValueError(
                    "variance-normalized student_t sampling needs nu > 2, "
                    f"got {self.nu}"
                )
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the student_t model")
        rmt._check_sigma2(self.sigma2)
        if any(not np.isfinite(v) or v <= 0.0 for v in self.spikes):
            raise ValueError("population spikes must be positive and finite")
        # records pair spike j with the j-th largest sample eigenvalue
        if any(a < b for a, b in zip(self.spikes, self.spikes[1:])):
            raise ValueError("population spikes must be listed largest first")
        if len(self.spikes) >= self.p:
            raise ValueError("fewer spikes than dimensions required")
        if self.replicates < 1:
            raise ValueError(f"need at least one replicate, got {self.replicates}")
        RngStream(self.master_seed)  # raises ValueError outside [0, 2**64)

    @property
    def c(self) -> float:
        return self.p / self.n

    @property
    def flags(self) -> tuple[str, ...]:
        if self.model == "student_t" and self.nu is not None and self.nu <= INFINITE_KURTOSIS_NU:
            return ("infinite-kurtosis",)
        return ()


@dataclass(frozen=True)
class ExperimentReport:
    """Runner output: per-replicate records plus derived artifacts.

    ``records``, at least one, have one cell per column (first column is
    the replicate index) and are stored as float tuples; ``tables`` are
    extra named CSV payloads (histograms, overlays, theory values) as
    (name, columns, rows) triples.
    """

    kind: str
    columns: tuple[str, ...]
    records: tuple[tuple[float, ...], ...]
    tables: tuple[tuple[str, tuple[str, ...], tuple[tuple[float, ...], ...]], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        records = tuple(tuple(map(float, row)) for row in self.records)
        if not records or any(len(row) != len(self.columns) for row in records):
            raise ValueError("a report needs at least one record, each with one cell per column")
        object.__setattr__(self, "records", records)

    @property
    def aggregates(self) -> tuple[tuple[str, float, float], ...]:
        """(column, mean, sd) of every column but the replicate index; sd is 0 for one record."""
        data = np.asarray(self.records, dtype=float)
        out = []
        for j, name in enumerate(self.columns):
            if name == "replicate":
                continue
            col = data[:, j]
            sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
            out.append((name, float(np.mean(col)), sd))
        return tuple(out)

    def write(self, prefix: str) -> tuple[str, ...]:
        """Write records, aggregates, and every table under a path prefix."""
        tables = (
            ("records", self.columns, self.records),
            ("aggregates", ("column", "mean", "sd"), self.aggregates),
            *self.tables,
        )
        return tuple(write_csv(f"{prefix}_{name}.csv", cols, rows) for name, cols, rows in tables)


# a text cell, header included, must be nonempty and hold none of these
# characters: csv would quote it, and one %-format line cannot
_CSV_SPECIAL = frozenset(',"\r\n')


def _cell_spec(kind: type) -> str:
    """The %-conversion for a cell of this type: text verbatim, integers as %d, else a number."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return _NUMBER_FORMAT


def _csv_text(columns, rows) -> str:
    """A header and rows as CSV text, every row written by one %-format line.

    LF line endings and _NUMBER_FORMAT numbers.  Raises ``ValueError`` if the rows
    differ in their cell conversions, or if a text cell, header included, is
    empty or would need csv quoting.
    """
    rows = list(rows)
    specs = {tuple(map(_cell_spec, kinds)) for kinds in {tuple(map(type, row)) for row in rows}}
    if len(specs) > 1:
        raise ValueError("table rows differ in their cell conversions")
    spec = specs.pop() if specs else ()
    texts = set(columns)
    for j, conversion in enumerate(spec):
        if conversion == "%s":
            texts.update(row[j] for row in rows)
    if not all(text and _CSV_SPECIAL.isdisjoint(text) for text in texts):
        raise ValueError("table text cells must be nonempty, without commas, quotes or line breaks")
    line = ",".join(spec) + "\n"
    body = (line * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(columns) + "\n" + body


def write_csv(path: str, columns, rows) -> str:
    """Write one CSV table as UTF-8; a table that _csv_text rejects leaves no file."""
    return _write_text(path, _csv_text(columns, rows))


def _write_text(path: str, text: str) -> str:
    """Write ``text`` as UTF-8 to ``path``, making its directory if needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def load_report(prefix: str) -> ExperimentReport:
    """Read back records and check the stored aggregates against them.

    Raises if the stored means/SDs disagree with recomputation from the
    stored records beyond text-roundtrip precision.  The returned report's
    aggregates are those recomputed from the records.
    """
    with open(f"{prefix}_records.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = tuple(next(reader, ()))
        records = tuple(reader)
    with open(f"{prefix}_aggregates.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        stored = tuple((name, float(mean), float(sd)) for name, mean, sd in reader)
    if not records:
        raise ValueError(f"{prefix}_records.csv holds no records")
    report = ExperimentReport(kind="loaded", columns=columns, records=records)
    recomputed = report.aggregates
    if len(stored) != len(recomputed):
        raise ValueError("aggregates row count does not match the record columns")
    for (name_s, mean_s, sd_s), (name_r, mean_r, sd_r) in zip(stored, recomputed):
        if name_s != name_r:
            raise ValueError(f"aggregate column mismatch: {name_s!r} vs {name_r!r}")
        scale = max(1.0, abs(mean_r), abs(sd_r))
        if abs(mean_s - mean_r) > 1e-8 * scale or abs(sd_s - sd_r) > 1e-8 * scale:
            raise ValueError(f"stored aggregates for {name_s!r} do not recompute from records")
    return report


def _parse_spikes(text: str) -> tuple[float, ...] | str:
    """A comma list of spikes, or ``none`` (or nothing) for none; ``design`` stays text."""
    if text == "design":
        return text
    if text in ("", "none"):
        return ()
    return tuple(float(part) for part in text.split(","))


# The conversion of every config key's text; ExperimentConfig holds the defaults.
_CONFIG_KEYS = {
    "n": int,
    "p": int,
    "model": str,
    "nu": float,
    "sigma2": float,
    "spikes": _parse_spikes,
    "replicates": int,
}


def parse_config(text: str, seed: int) -> ExperimentConfig:
    """Parse a key-value experiment config keyed by the master ``seed``.

    One ``key = value`` pair per line, ``#`` comments allowed.  Keys: n, p,
    model, nu, sigma2, spikes, replicates; an absent key takes the
    ``ExperimentConfig`` default.  ``spikes`` is a comma list of positive
    reals listed largest first, ``none``, or ``design`` for the two-spike
    layout (10x and 5x the product-PCA spike threshold at the config's c
    and sigma2).  The aspect ratio is always p/n, and ``seed`` lies in
    [0, 2**64).
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    for required in ("n", "p"):
        if required not in pairs:
            raise ValueError(f"config is missing the required key {required!r}")
    fields = {key: _CONFIG_KEYS[key](value) for key, value in pairs.items()}
    design = fields.get("spikes") == "design"
    if design:
        del fields["spikes"]
    cfg = ExperimentConfig(master_seed=seed, **fields)
    if design:
        star = rmt.ssm_closed_forms(rmt.SsmParams(c=cfg.c, sigma2=cfg.sigma2)).lambda_star
        cfg = replace(cfg, spikes=(10.0 * star, 5.0 * star))
    return cfg


def _gen_data_full(cfg: ExperimentConfig, replicate_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Data matrix plus the population signal directions for one replicate."""
    if replicate_index < 0:
        raise ValueError("replicate index must be nonnegative")
    gen = RngStream(cfg.master_seed, 2 * replicate_index).generator()
    r = len(cfg.spikes)
    signal = haar_orthogonal(cfg.p, gen, columns=r) if r else np.empty((cfg.p, 0))
    if cfg.model == "gaussian":
        z = gen.standard_normal((cfg.n, cfg.p))
        scale = 1.0
    else:
        z = gen.standard_t(cfg.nu, size=(cfg.n, cfg.p))
        scale = (cfg.nu - 2.0) / cfg.nu
    # Rotating diag(root) by the full Haar frame F gives sqrt(sigma2) I plus
    # a rank-r correction along F_r, the signal columns.
    # The correction reads the unscaled draws, so it is formed first.
    bulk = np.sqrt(scale * cfg.sigma2)
    lift = np.sqrt(scale * np.asarray(cfg.spikes)) - bulk
    correction = ((z @ signal) * lift) @ signal.T if r else None
    z *= bulk
    if r:
        z += correction
    return z, signal


def gen_data(cfg: ExperimentConfig, replicate_index: int) -> np.ndarray:
    """Sample one replicate's n x p data matrix.

    Rows are i.i.d. with covariance exactly the configured population: a
    Haar-rotated diagonal of spikes over a flat bulk, with student_t draws
    rescaled by (nu - 2)/nu so the covariance is tail-model independent.
    Only the r signal columns F_r of the Haar frame are formed: the sample
    is sqrt(sigma2) z + (z F_r) diag(sqrt(spikes) - sqrt(sigma2)) F_r^T, with
    both roots rescaled for student_t, O(n p r) work beyond the draws.
    Deterministic per (master_seed, replicate_index).
    """
    return _gen_data_full(cfg, replicate_index)[0]


def _split_stream(cfg: ExperimentConfig, replicate_index: int) -> RngStream:
    return RngStream(cfg.master_seed, 2 * replicate_index + 1)


def _ks_pair(values: np.ndarray, cdf, mass0: float) -> tuple[float, float]:
    """Exact KS against the full law and against its continuous part.

    ``values`` holds its rank-deficiency zeros as exact zeros, so the
    empirical point mass sits at 0 where the law's does.  The law is
    continuous on (0, inf): the supremum is attained at a positive
    eigenvalue or at the jump at 0, scored once as |zeros/p - mass0|.  The
    conditional statistic drops the zeros and compares against the
    zero-conditioned CDF; with no point mass the two coincide.
    """
    positive = values[values > 0.0]
    at_zero = abs((values.size - positive.size) / values.size - mass0)
    if positive.size == 0:
        return at_zero, 0.0
    grid = np.unique(positive)
    # the law is evaluated once on the grid; both statistics read that array
    law = np.asarray(cdf(grid), dtype=float)
    full = max(at_zero, ks_distance(values, law, grid))
    if mass0 <= 0.0:
        return full, full
    conditional = np.maximum(0.0, (law - mass0) / (1.0 - mass0))
    return full, ks_distance(positive, conditional, grid)


def run_spectrum_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical spectra of both estimators against their limiting laws.

    Per replicate: KS distance of the product-PCA singular-value ESD to its
    limit and of the PCA eigenvalue ESD to its limit (full law and
    zero-conditioned), plus the exact zero fractions.  Tables: pooled
    histograms of the positive spectra and a grid of both limiting pdfs and
    cdfs.
    """
    params = rmt.SsmParams(c=cfg.c, sigma2=cfg.sigma2)
    consts = rmt.ssm_closed_forms(params)
    g_cdf = lambda t: rmt.ssm_g_cdf(params, t)
    f_cdf = lambda t: rmt.ssm_f_cdf(params, t)
    columns = (
        "replicate",
        "ks_ppca",
        "ks_pca",
        "cond_ks_ppca",
        "cond_ks_pca",
        "zero_frac_ppca",
        "zero_frac_pca",
    )
    records = []
    pooled = {"ppca": [], "pca": []}
    for i in range(cfg.replicates):
        pfit, cfit = fit_values(gen_data(cfg, i), _split_stream(cfg, i))
        sing, eig = pfit.singular_values, cfit.eigenvalues
        ks_g, cond_g = _ks_pair(sing, g_cdf, consts.mass0_ppca)
        ks_f, cond_f = _ks_pair(eig, f_cdf, consts.mass0_pca)
        records.append(
            (
                i,
                ks_g,
                ks_f,
                cond_g,
                cond_f,
                np.count_nonzero(sing == 0.0) / cfg.p,
                np.count_nonzero(eig == 0.0) / cfg.p,
            )
        )
        pooled["ppca"].append(sing)
        pooled["pca"].append(eig)
    tables = (_histogram_table(pooled, consts), _overlay_table(params, consts))
    return ExperimentReport("spectrum", columns, records, tables, cfg.flags)


def _histogram_table(pooled, consts):
    hi = 1.02 * max(
        consts.b,
        consts.b_prime,
        *(float(np.max(v)) for v in pooled["ppca"]),
        *(float(np.max(v)) for v in pooled["pca"]),
    )
    edges = np.linspace(0.0, hi, 81)
    rows = []
    for method in ("ppca", "pca"):
        values = np.concatenate(pooled[method])
        counts, _ = np.histogram(values[values > 0.0], bins=edges)
        # normalized by the full count so the bars integrate to 1 - mass at 0
        dens = counts / (values.size * (edges[1] - edges[0]))
        for lo, hi_edge, d in zip(edges[:-1], edges[1:], dens):
            rows.append((method, lo, hi_edge, d))
    return ("histogram", ("method", "bin_lo", "bin_hi", "density"), tuple(rows))


def _overlay_table(params, consts):
    hi = 1.02 * max(consts.b, consts.b_prime)
    grid = np.linspace(hi / 400.0, hi, 400)
    table = np.column_stack(
        (
            grid,
            rmt.ssm_g_pdf(params, grid),
            rmt.ssm_f_pdf(params, grid),
            rmt.ssm_g_cdf(params, grid),
            rmt.ssm_f_cdf(params, grid),
        )
    )
    rows = tuple(map(tuple, table.tolist()))
    return (
        "overlay",
        ("t", "ppca_pdf", "pca_pdf", "ppca_cdf", "pca_cdf"),
        rows,
    )


def _spike_theory_table(cfg: ExperimentConfig):
    """Limiting values for every reported spike statistic.

    Computed through the generic bulk engine (point-mass bulk), not the
    closed forms, so the table doubles as an end-to-end engine check.
    """
    bulk = make_spectrum(atoms=[(cfg.sigma2, 1.0)])
    c = cfg.c
    rows = [
        ("ppca_threshold", rmt.ppca_threshold(c, bulk).threshold),
        ("pca_threshold", rmt.pca_threshold(c, bulk).threshold),
    ]
    for j, lam in enumerate(cfg.spikes, start=1):
        rows.append((f"population_spike_{j}", lam))
        rows.append((f"ppca_limit_{j}", rmt.ppca_limit(c, bulk, lam).value))
        rows.append((f"pca_limit_{j}", rmt.pca_limit(c, bulk, lam).value))
    lo, hi = rmt.ppca_support_edges(c, bulk)
    lo_prime, hi_prime = rmt.support_edges(c, bulk)
    rows += [
        ("ppca_edge_lower", lo),
        ("ppca_edge_upper", hi),
        ("pca_edge_lower", lo_prime),
        ("pca_edge_upper", hi_prime),
    ]
    return ("theory", ("quantity", "value"), tuple(rows))


def run_spike_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Raw and bias-corrected spike eigenvalues against their limits.

    Per replicate and method: the leading eigenvalue for each configured
    spike, its bias-corrected value, the first bulk eigenvalue (index
    r + 1), and the smallest eigenvalue.  The theory table pairs every
    statistic with its limiting value.
    """
    if not cfg.spikes:
        raise ValueError("spike experiment needs at least one population spike")
    r = len(cfg.spikes)
    columns = ["replicate"]
    for method in ("ppca", "pca"):
        columns += [f"{method}_lam_{j}" for j in range(1, r + 1)]
        columns += [f"{method}_debiased_{j}" for j in range(1, r + 1)]
        columns += [f"{method}_lam_{r + 1}", f"{method}_lam_min"]
    ratio = cfg.c
    records = []
    for i in range(cfg.replicates):
        pfit, cfit = fit_values(gen_data(cfg, i), _split_stream(cfg, i))
        row = [i]
        for values, debias in (
            (pfit.singular_values, debias_ppca),
            (cfit.eigenvalues, debias_pca),
        ):
            row += [float(values[j]) for j in range(r)]
            row += [debias(values, ratio, j) for j in range(1, r + 1)]
            row += [float(values[r]), float(values[-1])]
        records.append(tuple(row))
    tables = (_spike_theory_table(cfg),)
    return ExperimentReport("spike", tuple(columns), records, tables, cfg.flags)


def run_robustness_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Rank estimates and subspace-similarity curves for both estimators.

    Per replicate: the number of eigenvalues above the clean-bulk upper edge
    (the estimated target rank) and, for q from the signal count up to
    XI_Q_MAX, the similarity of the leading-q estimated basis to the true
    signal directions.  Each fit gives one orthonormal frame per replicate,
    whose leading q columns are scored for every q: PCA's eigenvectors, and
    one QR of product PCA's leading XI_Q_MAX fused vectors (which are only
    nearly orthonormal).  Fits return vectors for their rank block only: a q
    past a fit's rank scores the whole block, and a block narrower than the
    signal raises ``ValueError``.  So does a config with more than XI_Q_MAX
    spikes, which would leave no q to score.
    """
    if not cfg.spikes:
        raise ValueError("robustness experiment needs at least one population spike")
    r = len(cfg.spikes)
    if r > XI_Q_MAX:
        raise ValueError(
            f"robustness experiment scores at most XI_Q_MAX = {XI_Q_MAX} spikes, got {r}"
        )
    q_values = range(max(2, r), XI_Q_MAX + 1)
    consts = rmt.ssm_closed_forms(rmt.SsmParams(c=cfg.c, sigma2=cfg.sigma2))
    columns = ["replicate", "rank_ppca", "rank_pca"]
    columns += [f"xi_{method}_{q}" for method in ("ppca", "pca") for q in q_values]
    records = []
    for i in range(cfg.replicates):
        x, signal = _gen_data_full(cfg, i)
        pfit = ppca_fit(x, _split_stream(cfg, i), vectors=True)
        cfit = pca_fit(x, vectors=True)
        frames = (np.linalg.qr(pfit.fused_vectors[:, :XI_Q_MAX])[0], cfit.eigenvectors)
        row = [
            i,
            estimate_rank(pfit.singular_values, consts.b),
            estimate_rank(cfit.eigenvalues, consts.b_prime),
        ]
        row += [similarity_xi(frame[:, :q], signal) for frame in frames for q in q_values]
        records.append(tuple(row))
    return ExperimentReport("robustness", tuple(columns), records, flags=cfg.flags)
