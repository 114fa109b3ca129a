"""The four benchmark workloads: inputs, one op, and the op's output check.

An op is one unit of work of the single closed-loop client.  ``run(index)``
performs it and returns an Outcome: the output bytes (compared byte for byte
when the same op is run again) and the parsed values its check reads.
``check(outcome)`` returns the list of failed checks, empty when the op is
correct.  Op ``index`` of a run with seed ``s`` is seeded by ``s + index``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

SPECTRUM_TALL = "n = 2000\np = 800\nmodel = gaussian\nspikes = none\nreplicates = 1\n"
# c = 2 as in the wide acceptance case, at a size where a run holds several ops
SPECTRUM_WIDE = "n = 700\np = 1400\nmodel = gaussian\nspikes = none\nreplicates = 1\n"
ROBUSTNESS_HEAVY = (
    "n = 500\np = 200\nmodel = student_t\nnu = 2.5\nspikes = design\nreplicates = 20\n"
)

# Relative size of the seed-derived perturbation of c in law_generic: small
# enough to leave the law unchanged at plotting precision, large enough to
# miss every cache keyed on c, so each op pays a cold table build.
C_JITTER = 1e-7
LAW_GRID = 400


@dataclass
class Outcome:
    payload: bytes
    values: dict = field(default_factory=dict)


class CliWorkload:
    """``spikedcov simulate <experiment>`` run in-process through cli.main."""

    experiment = ""
    config = ""

    def __init__(self, lib, workdir: str, seed: int) -> None:
        self.lib = lib
        self.workdir = workdir
        self.seed = seed
        self.config_path = os.path.join(workdir, "experiment.cfg")
        self.prefix = os.path.join(workdir, "out", "run")

    def setup(self) -> None:
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config)

    def run(self, index: int) -> Outcome:
        argv = [
            "simulate",
            self.experiment,
            "--config",
            self.config_path,
            "--seed",
            str(self.seed + index),
            "--out-prefix",
            self.prefix,
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exit {code}: {stderr.getvalue().strip()}")
        summary = json.loads(stdout.getvalue())
        payload = [stdout.getvalue().encode()]
        tables = {}
        for path in summary["files"]:
            with open(path, "rb") as fh:
                data = fh.read()
            payload.append(data)
            tables[os.path.basename(path)] = data.decode()
        return Outcome(b"\0".join(payload), {"summary": summary, "tables": tables})

    def check(self, outcome: Outcome) -> list[str]:
        problems = []
        try:
            self.lib.simlab.load_report(self.prefix)
        except (OSError, ValueError) as exc:
            problems.append(f"written CSVs do not reload: {exc}")
        return problems + self.check_values(outcome)

    def check_values(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError


def _records(outcome: Outcome) -> list[dict[str, float]]:
    text = outcome.values["tables"]["run_records.csv"]
    rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(rows[0], map(float, row))) for row in rows[1:]]


class SpectrumTall(CliWorkload):
    experiment = "spectrum"
    config = SPECTRUM_TALL

    def check_values(self, outcome: Outcome) -> list[str]:
        (row,) = _records(outcome)
        return [
            f"{key} = {row[key]} above the 0.03 gate"
            for key in ("ks_ppca", "ks_pca")
            if not row[key] <= 0.03
        ]


class SpectrumWide(CliWorkload):
    experiment = "spectrum"
    config = SPECTRUM_WIDE

    def check_values(self, outcome: Outcome) -> list[str]:
        (row,) = _records(outcome)
        problems = [
            f"{key} = {row[key]}, expected exactly {want}"
            for key, want in (("zero_frac_ppca", 0.75), ("zero_frac_pca", 0.5))
            if row[key] != want
        ]
        problems += [
            f"{key} = {row[key]} above the 0.04 gate"
            for key in ("cond_ks_ppca", "cond_ks_pca")
            if not row[key] <= 0.04
        ]
        return problems


class RobustnessHeavy(CliWorkload):
    experiment = "robustness"
    config = ROBUSTNESS_HEAVY

    def check_values(self, outcome: Outcome) -> list[str]:
        means = {k: v["mean"] for k, v in outcome.values["summary"]["aggregates"].items()}
        problems = []
        if not means["rank_ppca"] < means["rank_pca"]:
            problems.append(
                f"mean rank_ppca {means['rank_ppca']} not below rank_pca {means['rank_pca']}"
            )
        for q in range(2, 6):
            if not means[f"xi_ppca_{q}"] >= means[f"xi_pca_{q}"]:
                problems.append(
                    f"xi_ppca_{q} {means[f'xi_ppca_{q}']} below xi_pca_{q} {means[f'xi_pca_{q}']}"
                )
        return problems


class LawGeneric:
    """One cold pass of the generic limiting-law engine over a fixed panel."""

    def __init__(self, lib, workdir: str, seed: int) -> None:
        self.lib = lib
        self.seed = seed
        self.panel = ()

    def setup(self) -> None:
        make = self.lib.spectra.make_spectrum
        self.panel = (
            ("white", 0.4, make([(1.0, 1.0)])),
            ("two_atom", 2.0, make([(0.5, 0.4), (1.5, 0.6)])),
        )

    def run(self, index: int) -> Outcome:
        rmt = self.lib.rmt
        jitter = np.random.default_rng([self.seed, index]).uniform(-1.0, 1.0, len(self.panel))
        payload, values = [], {}
        for (name, c0, bulk), u in zip(self.panel, jitter):
            c = c0 * (1.0 + C_JITTER * u)
            lower, upper = rmt.ppca_support_edges(c, bulk)
            grid = np.linspace(0.0, 1.05 * upper, LAW_GRID + 1)[1:]
            cdf = rmt.ppca_lsd_cdf(c, bulk, grid)
            pdf = rmt.ppca_lsd_pdf(c, bulk, grid)
            mp_top = 1.05 * bulk.bulk_upper * (1.0 + np.sqrt(c)) ** 2
            mp = rmt.mp_density(c, bulk, np.linspace(0.0, mp_top, LAW_GRID + 1)[1:])
            thresholds = (rmt.ppca_threshold(c, bulk), rmt.pca_threshold(c, bulk))
            spike = 3.0 * bulk.bulk_upper
            limits = (rmt.ppca_limit(c, bulk, spike), rmt.pca_limit(c, bulk, spike))
            payload += [grid.tobytes(), cdf.tobytes(), pdf.tobytes(), mp.tobytes()]
            payload.append(repr((c, lower, upper, thresholds, limits)).encode())
            values[name] = {
                "c": c,
                "bulk": bulk,
                "grid": grid,
                "cdf": cdf,
                "arrays": (cdf, pdf, mp),
                "thresholds": thresholds,
                "limits": limits,
            }
        return Outcome(b"\0".join(payload), values)

    def check(self, outcome: Outcome) -> list[str]:
        rmt = self.lib.rmt
        problems = []
        for name, v in outcome.values.items():
            cdf = v["cdf"]
            mass0 = rmt.ppca_mass_at_zero(v["c"], v["bulk"])
            scalars = [x for pair in v["thresholds"] for x in (pair.threshold, pair.bulk_edge)]
            scalars += [lim.value for lim in v["limits"]]
            if not all(np.all(np.isfinite(a)) for a in v["arrays"]) or not np.all(
                np.isfinite(scalars)
            ):
                problems.append(f"{name}: non-finite output")
            if np.any(np.diff(cdf) < 0.0) or cdf[0] < mass0 or cdf[-1] != 1.0:
                problems.append(
                    f"{name}: cdf not nondecreasing from the zero mass {mass0} to 1 "
                    f"(first {cdf[0]}, last {cdf[-1]})"
                )
            if v["thresholds"][0].threshold < v["thresholds"][1].threshold:
                problems.append(f"{name}: product threshold below the classical one")
        white = outcome.values["white"]
        closed = rmt.ssm_g_cdf(rmt.SsmParams(c=white["c"], sigma2=1.0), white["grid"])
        gap = float(np.max(np.abs(white["cdf"] - closed)))
        if not gap <= rmt.CDF_GATE:
            problems.append(f"white: cdf off the closed form by {gap} > {rmt.CDF_GATE}")
        return problems


WORKLOADS = {
    "spectrum_tall": SpectrumTall,
    "spectrum_wide": SpectrumWide,
    "robustness_heavy": RobustnessHeavy,
    "law_generic": LawGeneric,
}
