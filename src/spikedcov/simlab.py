"""Reproducible Monte Carlo harness for the covariance estimators.

Experiments are described by a small key-value config (sample size, aspect
ratio, tail model, population spikes, replicate count, master seed) and run
fully deterministically: replicate i draws its data from the Philox stream
(master_seed, 2i) and its half-split from (master_seed, 2i + 1), so any
replicate can be regenerated in isolation and results do not depend on
execution order.

Three runners cover the standard studies:

* spectrum: empirical spectral distributions of both estimators against
  their limiting laws (KS distances, zero-mass fractions, histogram and
  overlay tables);
* spike: raw and bias-corrected leading eigenvalues against their
  theoretical limits;
* robustness: estimated target ranks and subspace-similarity curves under
  heavy-tailed data.

Reports are written as UTF-8, LF-terminated CSV with %.10g numbers, so
repeated runs are byte-identical.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import rmt
from .estimators import debias_pca, debias_ppca, estimate_rank, pca_fit, ppca_fit, similarity_xi
from .numkernel import RngStream, haar_orthogonal
from .spectra import ESD, ks_distance

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

_CONFIG_KEYS = (
    "n",
    "p",
    "model",
    "nu",
    "c",
    "sigma2",
    "spikes",
    "replicates",
    "seed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One deterministic experiment description.

    ``spikes`` are absolute population spike eigenvalues placed above a flat
    bulk at level ``sigma2``; ``master_seed`` keys every random draw.  The
    aspect ratio is always the realized p/n.
    """

    n: int
    p: int
    model: str = "gaussian"
    nu: float | None = None
    sigma2: float = 1.0
    spikes: tuple[float, ...] = ()
    replicates: int = 1
    master_seed: int = 0

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
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"bulk level sigma2 must be positive, got {self.sigma2}")
        if any(not np.isfinite(v) or v <= 0.0 for v in self.spikes):
            raise ValueError("population spikes must be positive and finite")
        if len(self.spikes) >= self.p:
            raise ValueError("fewer spikes than dimensions required")
        if self.replicates < 1:
            raise ValueError(f"need at least one replicate, got {self.replicates}")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")

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

    ``records`` rows align with ``columns`` (first column is the replicate
    index); ``aggregates`` holds (column, mean, sd) for every other column
    and is always recomputable from the records; ``tables`` are extra named
    CSV payloads (histograms, overlays, theory values) as
    (name, columns, rows) triples.
    """

    kind: str
    columns: tuple[str, ...]
    records: tuple[tuple[float, ...], ...]
    aggregates: tuple[tuple[str, float, float], ...]
    tables: tuple[tuple[str, tuple[str, ...], tuple[tuple[float, ...], ...]], ...] = ()
    flags: tuple[str, ...] = ()

    def write(self, prefix: str) -> tuple[str, ...]:
        """Write records, aggregates, and every table under a path prefix."""
        paths = []
        paths.append(write_csv(f"{prefix}_records.csv", self.columns, self.records))
        paths.append(
            write_csv(
                f"{prefix}_aggregates.csv",
                ("column", "mean", "sd"),
                self.aggregates,
            )
        )
        for name, cols, rows in self.tables:
            paths.append(write_csv(f"{prefix}_{name}.csv", cols, rows))
        return tuple(paths)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % float(value)


def _write_rows(fh, columns, rows) -> None:
    """Write a header and rows to an open text file: LF line endings, %.10g numbers."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])


def write_csv(path: str, columns, rows) -> str:
    """Write one CSV table: UTF-8, LF line endings, %.10g numbers."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, columns, rows)
    return path


def _aggregate(columns, records) -> tuple[tuple[str, float, float], ...]:
    data = np.asarray(records, dtype=float)
    out = []
    for j, name in enumerate(columns):
        if name == "replicate":
            continue
        col = data[:, j]
        sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
        out.append((name, float(np.mean(col)), sd))
    return tuple(out)


def _build_report(kind, columns, records, tables=(), flags=()) -> ExperimentReport:
    report = ExperimentReport(
        kind=kind,
        columns=tuple(columns),
        records=tuple(tuple(float(v) for v in row) for row in records),
        aggregates=_aggregate(columns, records),
        tables=tuple(tables),
        flags=tuple(flags),
    )
    return report


def load_report(prefix: str) -> ExperimentReport:
    """Read back records and aggregates, verifying the aggregates recompute.

    Raises if the stored means/SDs disagree with recomputation from the
    stored records beyond text-roundtrip precision.
    """
    with open(f"{prefix}_records.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        records = tuple(tuple(float(v) for v in row) for row in reader)
    with open(f"{prefix}_aggregates.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        stored = tuple((row[0], float(row[1]), float(row[2])) for row in reader)
    if not records:
        raise ValueError(f"{prefix}_records.csv holds no records")
    recomputed = _aggregate(columns, records)
    if len(stored) != len(recomputed):
        raise ValueError("aggregates row count does not match the record columns")
    for (name_s, mean_s, sd_s), (name_r, mean_r, sd_r) in zip(stored, recomputed):
        if name_s != name_r:
            raise ValueError(f"aggregate column mismatch: {name_s!r} vs {name_r!r}")
        scale = max(1.0, abs(mean_r), abs(sd_r))
        if abs(mean_s - mean_r) > 1e-8 * scale or abs(sd_s - sd_r) > 1e-8 * scale:
            raise ValueError(f"stored aggregates for {name_s!r} do not recompute from records")
    return ExperimentReport(
        kind="loaded", columns=columns, records=records, aggregates=stored
    )


def _parse_spikes(raw: str, n: int, p: int, sigma2: float) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw or raw == "none":
        return ()
    if raw == "design":
        star = rmt.ssm_closed_forms(rmt.SsmParams(c=p / n, sigma2=sigma2)).lambda_star
        return (10.0 * star, 5.0 * star)
    return tuple(float(part) for part in raw.split(","))


def parse_config(text: str, seed: int | None = None) -> ExperimentConfig:
    """Parse a key-value experiment config.

    One ``key = value`` pair per line, ``#`` comments allowed.  Keys: n, p,
    model, nu, c, sigma2, spikes, replicates, seed.  ``spikes`` is a comma
    list of positive reals, ``none``, or ``design`` for the two-spike layout
    (10x and 5x the product-PCA spike threshold).  A ``c`` key is a
    consistency check only: it must equal p/n.  A ``seed`` argument
    overrides the file value.
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
    n = int(pairs["n"])
    p = int(pairs["p"])
    sigma2 = float(pairs.get("sigma2", "1"))
    if "c" in pairs:
        stated = float(pairs["c"])
        if not math.isclose(stated, p / n, rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(f"config states c = {stated} but p/n = {p / n}")
    if seed is None:
        if "seed" not in pairs:
            raise ValueError("no seed: pass one explicitly or add a seed key")
        seed = int(pairs["seed"])
    return ExperimentConfig(
        n=n,
        p=p,
        model=pairs.get("model", "gaussian"),
        nu=float(pairs["nu"]) if "nu" in pairs else None,
        sigma2=sigma2,
        spikes=_parse_spikes(pairs.get("spikes", ""), n, p, sigma2),
        replicates=int(pairs.get("replicates", "1")),
        master_seed=seed,
    )


def _gen_data_full(cfg: ExperimentConfig, replicate_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Data matrix plus the population signal directions for one replicate."""
    if replicate_index < 0:
        raise ValueError("replicate index must be nonnegative")
    gen = RngStream(cfg.master_seed, 2 * replicate_index).generator()
    r = len(cfg.spikes)
    diag = np.full(cfg.p, cfg.sigma2)
    diag[:r] = cfg.spikes
    frame = haar_orthogonal(cfg.p, gen) if r else None
    if cfg.model == "gaussian":
        z = gen.standard_normal((cfg.n, cfg.p))
        scale = 1.0
    else:
        z = gen.standard_t(cfg.nu, size=(cfg.n, cfg.p))
        scale = (cfg.nu - 2.0) / cfg.nu
    root = np.sqrt(scale * diag)
    if frame is None:
        # flat-plus-nothing population: the rotation would cancel exactly
        x = z * root
        signal = np.empty((cfg.p, 0))
    else:
        x = ((z @ frame) * root) @ frame.T
        signal = frame[:, :r].copy()
    return x, signal


def gen_data(cfg: ExperimentConfig, replicate_index: int) -> np.ndarray:
    """Sample one replicate's n x p data matrix.

    Rows are i.i.d. with covariance exactly the configured population: a
    Haar-rotated diagonal of spikes over a flat bulk, with student_t draws
    rescaled by (nu - 2)/nu so the covariance is tail-model independent.
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
    full = max(at_zero, ks_distance(ESD(values=values), cdf, grid))
    if mass0 <= 0.0:
        return full, full

    def conditional(t):
        return np.maximum(0.0, (cdf(t) - mass0) / (1.0 - mass0))

    return full, ks_distance(ESD(values=positive), conditional, grid)


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
        x = gen_data(cfg, i)
        sing = ppca_fit(x, _split_stream(cfg, i)).singular_values
        eig = pca_fit(x).eigenvalues
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
    tables = [
        _histogram_table(pooled, consts),
        _overlay_table(params, consts),
    ]
    return _build_report("spectrum", columns, records, tables, cfg.flags)


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
    columns = (
        rmt.ssm_g_pdf(params, grid),
        rmt.ssm_f_pdf(params, grid),
        rmt.ssm_g_cdf(params, grid),
        rmt.ssm_f_cdf(params, grid),
    )
    rows = tuple(
        (float(t), *(float(col[i]) for col in columns)) for i, t in enumerate(grid)
    )
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
    from .spectra import make_spectrum

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
        x = gen_data(cfg, i)
        row = [i]
        for method in ("ppca", "pca"):
            if method == "ppca":
                values = ppca_fit(x, _split_stream(cfg, i)).singular_values
                debias = debias_ppca
            else:
                values = pca_fit(x).eigenvalues
                debias = debias_pca
            row += [float(values[j]) for j in range(r)]
            row += [debias(values, ratio, j) for j in range(1, r + 1)]
            row += [float(values[r]), float(values[-1])]
        records.append(tuple(row))
    tables = [_spike_theory_table(cfg)]
    return _build_report("spike", columns, records, tables, cfg.flags)


def _orthonormal_leading(matrix: np.ndarray, q: int) -> np.ndarray:
    """Orthonormalized leading q columns (fused vectors are only nearly so)."""
    basis, _ = np.linalg.qr(matrix[:, :q])
    return basis


def run_robustness_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Rank estimates and subspace-similarity curves for both estimators.

    Per replicate: the number of eigenvalues above the clean-bulk upper edge
    (the estimated target rank) and, for q from the signal count up to
    XI_Q_MAX, the similarity of the leading-q estimated basis to the true
    signal directions.  Product-PCA bases use the fused vectors,
    orthonormalized.  Fits return vectors for their rank block only: a q past
    a fit's rank scores the whole block, and a block narrower than the
    signal raises ``ValueError``.
    """
    if not cfg.spikes:
        raise ValueError("robustness experiment needs at least one population spike")
    r = len(cfg.spikes)
    q_values = list(range(max(2, r), XI_Q_MAX + 1))
    consts = rmt.ssm_closed_forms(rmt.SsmParams(c=cfg.c, sigma2=cfg.sigma2))
    columns = ["replicate", "rank_ppca", "rank_pca"]
    columns += [f"xi_ppca_{q}" for q in q_values]
    columns += [f"xi_pca_{q}" for q in q_values]
    records = []
    for i in range(cfg.replicates):
        x, signal = _gen_data_full(cfg, i)
        pfit = ppca_fit(x, _split_stream(cfg, i), vectors=True)
        cfit = pca_fit(x, vectors=True)
        row = [
            i,
            estimate_rank(pfit.singular_values, consts.b),
            estimate_rank(cfit.eigenvalues, consts.b_prime),
        ]
        row += [
            similarity_xi(_orthonormal_leading(pfit.fused_vectors, q), signal)
            for q in q_values
        ]
        row += [
            similarity_xi(cfit.eigenvectors[:, :q], signal) for q in q_values
        ]
        records.append(tuple(row))
    return _build_report("robustness", columns, records, flags=cfg.flags)
