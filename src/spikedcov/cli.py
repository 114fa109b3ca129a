"""Command-line interface.

Subcommands:

* ``density``: limiting density of either estimator's spectrum on a grid.
* ``constants``: all flat-bulk closed-form constants as JSON.
* ``thresholds``: phase-transition thresholds and bulk edges as JSON.
* ``limits``: limiting values of given population spikes as JSON.
* ``debias``: bias-correct leading eigenvalues from a CSV spectrum.
* ``rho``: the bulk-edge ratio curve on a grid.
* ``robust-analytic``: contamination-scenario spectra/predicates as JSON.
* ``fit``: run PCA or product PCA on a data CSV.
* ``simulate {spectrum,spike,robustness}``: Monte Carlo experiment runners.

Numeric and usage failures exit nonzero with a one-line JSON error record on
stderr so callers can script against the tool.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import __version__, estimators, rmt, robustness, simlab, spectra

__all__ = ["main", "build_parser"]

_VERSION_TEXT = json.dumps(
    {
        "name": "spikedcov",
        "version": __version__,
        "solver_tol": rmt.SOLVER_TOL,
        "fp_damping": rmt.FP_DAMPING,
        "fp_max_iter": rmt.FP_MAX_ITER,
        "newton_max_iter": rmt.NEWTON_MAX_ITER,
    }
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are machine-readable JSON."""

    def error(self, message: str) -> None:
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(2)


class _VersionAction(argparse.Action):
    """Print the version/tolerance record verbatim (no help-text wrapping)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_VERSION_TEXT)
        raise SystemExit(0)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    return np.linspace(start, stop, count)


def _load_bulk(args) -> spectra.PopulationSpectrum:
    if getattr(args, "spectrum", None):
        with open(args.spectrum, encoding="utf-8") as fh:
            return spectra.parse_spectrum_text(fh.read())
    return spectra.make_spectrum(atoms=[(args.sigma2, 1.0)])


def _emit_csv(path: str | None, columns, rows) -> None:
    if path and path != "-":
        simlab.write_csv(path, columns, rows)
    else:
        simlab._write_rows(sys.stdout, columns, rows)


def _emit_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2)
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_value_column(path: str) -> np.ndarray:
    """First column of a CSV as floats, skipping a non-numeric header row."""
    values = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                if values:
                    raise
    if not values:
        raise ValueError(f"no numeric values found in {path}")
    return np.asarray(values, dtype=float)


def _read_matrix(path: str) -> np.ndarray:
    """Numeric CSV matrix (rows = samples), skipping a header row if present."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                if rows:
                    raise
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    return np.asarray(rows, dtype=float)


def _cmd_density(args) -> int:
    bulk = _load_bulk(args)
    grid = _parse_grid(args.grid)
    if np.any(grid < 0.0):
        raise ValueError("density grid must be nonnegative")
    grid = np.where(grid == 0.0, 1e-12, grid)
    if args.law == "ppca":
        dens = np.atleast_1d(rmt.ppca_lsd_pdf(args.c, bulk, grid))
    else:
        dens = np.atleast_1d(rmt.mp_density(args.c, bulk, grid))
    _emit_csv(args.out, ("t", "density"), list(zip(grid, dens)))
    return 0


def _cmd_constants(args) -> int:
    consts = rmt.ssm_closed_forms(rmt.SsmParams(c=args.c, sigma2=args.sigma2))
    _emit_json(args.out, dataclasses.asdict(consts))
    return 0


def _cmd_thresholds(args) -> int:
    bulk = _load_bulk(args)
    ppca = rmt.ppca_threshold(args.c, bulk)
    pca = rmt.pca_threshold(args.c, bulk)
    _emit_json(
        args.out,
        {
            "c": args.c,
            "ppca": dataclasses.asdict(ppca),
            "pca": dataclasses.asdict(pca),
        },
    )
    return 0


def _cmd_limits(args) -> int:
    bulk = _load_bulk(args)
    out = []
    for lam in (float(v) for v in args.lam.split(",")):
        out.append(
            {
                "lambda": lam,
                "ppca": dataclasses.asdict(rmt.ppca_limit(args.c, bulk, lam)),
                "pca": dataclasses.asdict(rmt.pca_limit(args.c, bulk, lam)),
            }
        )
    _emit_json(args.out, out)
    return 0


def _cmd_debias(args) -> int:
    values = np.sort(_read_value_column(args.input))[::-1]
    debias = estimators.debias_ppca if args.method == "ppca" else estimators.debias_pca
    rows = []
    for j in (int(v) for v in args.j.split(",")):
        # the estimator validates j before the raw value is read
        debiased = debias(values, args.c, j)
        rows.append((j, values[j - 1], debiased))
    _emit_csv(args.out, ("j", "raw", "debiased"), rows)
    return 0


def _cmd_rho(args) -> int:
    grid = _parse_grid(args.grid)
    vals = np.atleast_1d(rmt.rho(grid))
    _emit_csv(args.out, ("c", "rho"), list(zip(grid, vals)))
    return 0


def _analytic_block(scenario, method: str, spectrum, assignment) -> dict:
    """Perturbed spectrum and outlier predicates of one method."""
    ks = range(1, scenario.k + 1)
    return {
        "spectrum": dataclasses.asdict(spectrum),
        "noise_spiked": [robustness.noise_is_spiked(scenario, k, method, assignment) for k in ks],
        "ordering_breaks": [
            robustness.ordering_breaks(scenario, k, method, assignment) for k in ks
        ],
        "target_rank": robustness.target_rank(scenario, method, assignment),
    }


def _cmd_robust_analytic(args) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        raw = json.load(fh)
    assignment = raw.pop("assignment", None)
    scenario = robustness.PerturbationScenario(
        epsilon=raw["epsilon"],
        etas=tuple(raw["etas"]),
        k1=raw["k1"],
        lambda1=raw["lambda1"],
        c=raw["c"],
    )
    if assignment is None:
        assignment = tuple(range(1, scenario.k1 + 1))
    pca_spec = robustness.pca_perturbed_spectrum(scenario)
    ppca_spec = robustness.ppca_perturbed_spectrum(scenario, assignment)
    # the classical predicates ignore the assignment
    payload = {
        "scenario": {
            "epsilon": scenario.epsilon,
            "etas": list(scenario.etas),
            "k1": scenario.k1,
            "k2": scenario.k2,
            "lambda1": scenario.lambda1,
            "c": scenario.c,
            "assignment": list(assignment),
        },
        "pca": _analytic_block(scenario, "pca", pca_spec, assignment),
        "ppca": _analytic_block(scenario, "ppca", ppca_spec, assignment),
        "comparative": robustness.comparative_conditions(scenario, assignment),
    }
    _emit_json(args.out, payload)
    return 0


def _cmd_fit(args) -> int:
    x = _read_matrix(args.input)
    if args.center:
        x = x - x.mean(axis=0)
    if args.method == "ppca":
        if args.seed is None:
            raise ValueError("product PCA needs --seed for the half split")
        fit = estimators.ppca_fit(x, simlab.RngStream(args.seed, 0), vectors=args.vectors)
        values, vectors = fit.singular_values, fit.fused_vectors
    else:
        fit = estimators.pca_fit(x, vectors=args.vectors)
        values, vectors = fit.eigenvalues, fit.eigenvectors
    if args.vectors:
        columns = ["eigenvalue"] + [f"component_{i + 1}" for i in range(vectors.shape[0])]
        rows = [(values[j], *vectors[:, j]) for j in range(vectors.shape[1])]
    else:
        columns = ["eigenvalue"]
        rows = [(v,) for v in values]
    _emit_csv(args.out, columns, rows)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = simlab.parse_config(fh.read(), seed=args.seed)
    if args.replicates is not None:
        cfg = dataclasses.replace(cfg, replicates=args.replicates)
    runner = {
        "spectrum": simlab.run_spectrum_experiment,
        "spike": simlab.run_spike_experiment,
        "robustness": simlab.run_robustness_experiment,
    }[args.experiment]
    report = runner(cfg)
    files = report.write(args.out_prefix) if args.out_prefix else ()
    # at the precision of the aggregates CSV, so the summary matches the file
    rounded = lambda v: float(simlab._format_cell(v))
    summary = {
        "kind": report.kind,
        "replicates": cfg.replicates,
        "seed": cfg.master_seed,
        "aggregates": {
            name: {"mean": rounded(mean), "sd": rounded(sd)} for name, mean, sd in report.aggregates
        },
        "files": list(files),
        "flags": list(report.flags),
    }
    print(json.dumps(summary, indent=2))
    return 0


def _add_bulk_options(parser, with_spectrum: bool = True) -> None:
    parser.add_argument("--c", type=float, required=True, help="aspect ratio p/n")
    parser.add_argument("--sigma2", type=float, default=1.0, help="flat bulk level")
    if with_spectrum:
        parser.add_argument(
            "--spectrum",
            help="bulk spectrum file (atom VALUE WEIGHT / spike VALUE lines); overrides --sigma2",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spikedcov", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action=_VersionAction, help="print version and solver tolerances"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", parents=[], help="limiting spectral density on a grid")
    p.add_argument("--law", choices=("ppca", "pca"), required=True)
    _add_bulk_options(p)
    p.add_argument("--grid", required=True, help="start:stop:count")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("constants", help="flat-bulk closed-form constants as JSON")
    _add_bulk_options(p, with_spectrum=False)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("thresholds", help="spike phase-transition thresholds as JSON")
    _add_bulk_options(p)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("limits", help="limiting values of population spikes as JSON")
    _add_bulk_options(p)
    p.add_argument("--lam", required=True, help="comma list of population spikes")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("debias", help="bias-correct leading eigenvalues from a CSV")
    p.add_argument("--input", required=True, help="CSV whose first column holds the spectrum")
    p.add_argument("--method", choices=("ppca", "pca"), required=True)
    p.add_argument("--c", type=float, required=True, help="realized aspect ratio p/n")
    p.add_argument("--j", default="1", help="comma list of 1-based spike indices")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("rho", help="bulk-edge ratio curve on a c grid")
    p.add_argument("--grid", required=True, help="start:stop:count")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("robust-analytic", help="contamination scenario analytics as JSON")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_robust_analytic)

    p = sub.add_parser("fit", help="fit PCA or product PCA to a data CSV")
    p.add_argument("--input", required=True, help="data CSV, rows = samples")
    p.add_argument("--method", choices=("ppca", "pca"), required=True)
    p.add_argument("--center", action="store_true", help="subtract column means first")
    p.add_argument("--seed", type=int, help="half-split seed (product PCA)")
    p.add_argument("--vectors", action="store_true", help="include the rank block's eigenvectors")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    p.add_argument("experiment", choices=("spectrum", "spike", "robustness"))
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out-prefix", help="output CSV path prefix")
    p.add_argument("--replicates", type=int, help="override the configured replicate count")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except BrokenPipeError:
        return 1
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
