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

Every input has one source, and nothing the user typed is overridden,
rewritten or ignored: ``--sigma2`` and ``--spectrum`` exclude each other,
``fit --seed`` is given with ``--method ppca`` and only then, a ``density``
grid must be positive, ``debias`` reads a descending first column as it
stands, and the replicate count comes only from the ``simulate`` config.
Each input has one form as well: seeds lie in [0, 2**64), config ``spikes``
are listed largest first, and ``fit`` and ``debias`` inputs have at most
one header row before the numbers.
Numeric and usage failures exit nonzero with a one-line JSON error record on
stderr so callers can script against the tool.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__, estimators, rmt, robustness, simlab, spectra
from .numkernel import RngStream

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
    if args.spectrum is None:
        rmt._check_sigma2(args.sigma2)
        return spectra.make_spectrum(atoms=[(args.sigma2, 1.0)])
    with open(args.spectrum, encoding="utf-8") as fh:
        return spectra.parse_spectrum_text(fh.read())


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout for none or ``-``."""
    if path and path != "-":
        simlab._write_text(path, text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _read_matrix(path: str) -> np.ndarray:
    """Numeric CSV matrix (rows = samples, all of one length) after at most one header row."""
    rows = []
    header = False
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in filter(None, reader):
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                if rows or header:
                    raise
                header = True
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path} line {reader.line_num}: expected {len(rows[0])} values, got {len(row)}"
                )
    if not rows:
        raise ValueError(f"no numeric rows found in {path}")
    return np.asarray(rows, dtype=float)


def _cmd_density(args) -> None:
    bulk = _load_bulk(args)
    grid = _parse_grid(args.grid)
    pdf = rmt.ppca_lsd_pdf if args.law == "ppca" else rmt.mp_density
    _emit(args.out, simlab._csv_text(("t", "density"), list(zip(grid, pdf(args.c, bulk, grid)))))


def _cmd_constants(args) -> None:
    consts = rmt.ssm_closed_forms(rmt.SsmParams(c=args.c, sigma2=args.sigma2))
    _emit(args.out, _json(dataclasses.asdict(consts)))


def _cmd_thresholds(args) -> None:
    bulk = _load_bulk(args)
    ppca = rmt.ppca_threshold(args.c, bulk)
    pca = rmt.pca_threshold(args.c, bulk)
    payload = {"c": args.c, "ppca": dataclasses.asdict(ppca), "pca": dataclasses.asdict(pca)}
    _emit(args.out, _json(payload))


def _cmd_limits(args) -> None:
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
    _emit(args.out, _json(out))


def _cmd_debias(args) -> None:
    values = _read_matrix(args.input)[:, 0]
    debias = estimators.debias_ppca if args.method == "ppca" else estimators.debias_pca
    rows = []
    for j in (int(v) for v in args.j.split(",")):
        # the estimator validates j before the raw value is read
        debiased = debias(values, args.c, j)
        rows.append((j, values[j - 1], debiased))
    _emit(args.out, simlab._csv_text(("j", "raw", "debiased"), rows))


def _cmd_rho(args) -> None:
    grid = _parse_grid(args.grid)
    vals = np.atleast_1d(rmt.rho(grid))
    _emit(args.out, simlab._csv_text(("c", "rho"), list(zip(grid, vals))))


def _analytic_block(scenario, method: str, spectrum, assignment=None) -> dict:
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


def _cmd_robust_analytic(args) -> None:
    with open(args.scenario, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = sorted(set(raw) - {"epsilon", "etas", "k1", "lambda1", "c", "assignment"})
    if unknown:
        raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
    assignment = raw.pop("assignment", None)
    scenario = robustness.PerturbationScenario(**raw)
    if assignment is None:
        assignment = tuple(range(1, scenario.k1 + 1))
    pca_spec = robustness.pca_perturbed_spectrum(scenario)
    ppca_spec = robustness.ppca_perturbed_spectrum(scenario, assignment)
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
        "pca": _analytic_block(scenario, "pca", pca_spec),
        "ppca": _analytic_block(scenario, "ppca", ppca_spec, assignment),
        "comparative": robustness.comparative_conditions(scenario),
    }
    _emit(args.out, _json(payload))


def _cmd_fit(args) -> None:
    if (args.seed is None) == (args.method == "ppca"):
        raise ValueError("--seed is required with --method ppca and not allowed with --method pca")
    x = _read_matrix(args.input)
    if args.center:
        x = x - x.mean(axis=0)
    if args.method == "ppca":
        fit = estimators.ppca_fit(x, RngStream(args.seed, 0), vectors=args.vectors)
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
    _emit(args.out, simlab._csv_text(columns, rows))


def _cmd_simulate(args) -> None:
    with open(args.config, encoding="utf-8") as fh:
        cfg = simlab.parse_config(fh.read(), seed=args.seed)
    runner = {
        "spectrum": simlab.run_spectrum_experiment,
        "spike": simlab.run_spike_experiment,
        "robustness": simlab.run_robustness_experiment,
    }[args.experiment]
    report = runner(cfg)
    files = report.write(args.out_prefix) if args.out_prefix else ()
    # at the precision of the aggregates CSV, so the summary matches the file
    rounded = lambda v: float(simlab._NUMBER_FORMAT % v)
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
    sys.stdout.write(_json(summary))


def _add_bulk_options(parser, with_spectrum: bool = True) -> None:
    parser.add_argument("--c", type=float, required=True, help="aspect ratio p/n")
    bulk = parser.add_mutually_exclusive_group() if with_spectrum else parser
    bulk.add_argument("--sigma2", type=float, default=1.0, help="flat bulk level")
    if with_spectrum:
        bulk.add_argument("--spectrum", help="bulk spectrum file (atom VALUE WEIGHT lines)")


def build_parser() -> argparse.ArgumentParser:
    # raw text: the version record is printed verbatim, never wrapped
    parser = _Parser(
        prog="spikedcov",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=_VERSION_TEXT,
        help="print version and solver tolerances",
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
    p.add_argument("--input", required=True, help="CSV, first column the descending spectrum")
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
    p.add_argument("--seed", type=int, help="half-split seed (product PCA only, required there)")
    p.add_argument("--vectors", action="store_true", help="include the rank block's eigenvectors")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    p.add_argument("experiment", choices=("spectrum", "spike", "robustness"))
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out-prefix", help="output CSV path prefix")
    p.set_defaults(func=_cmd_simulate)

    return parser


# built on the first main() call, not at import, and shared by later calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
        return 0
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
