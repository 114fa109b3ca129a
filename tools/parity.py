"""Parity check: the same `spikedcov` run panel at a revision and here.

Usage, from anywhere inside a git checkout:

    python3 tools/parity.py <rev>

The library source of ``<rev>`` is exported with ``git archive`` into a
temporary directory, so the repository itself is left untouched (no
worktree is registered, even if the run is interrupted).  The fixed panel
below runs once on that copy and once on the working tree, each in a fresh
interpreter with the tree's ``src/`` first on the path.  A run's nonempty
stdout (the ``simulate`` summary) is saved as ``<name>_stdout.json``.  A run
that exits nonzero has its JSON error record saved as ``<name>_error.json``
instead, and the panel goes on, so a run that only one side can do shows as
files written on one side only.  The report is one JSON object on stdout
that marks every CSV and JSON file the panel writes as

* ``identical``: the same bytes;
* ``roundoff`` (CSV only): the same header, shape and text cells, and every
  numeric cell within ROUNDOFF_REL relative or ROUNDOFF_ABS absolute; the
  largest absolute and relative delta of each column that moved is listed;
* ``different``: anything else, including a file written on one side only.
  A JSON file on both sides that is not identical also gets a ``numeric``
  field: whether both sides parse to the same keys, strings and booleans,
  the largest absolute and relative number delta, and whether every number
  is within ROUNDOFF_REL or ROUNDOFF_ABS.  It is a diagnostic only: JSON
  files are classified byte for byte.

The exit code is 1 when any file is ``different``, else 0.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]

# CSV cells are written as %.10g, so a change at roundoff level can flip the
# last printed digit: up to 1e-9 relative.  Values printed near zero (an
# exact 0 against 1e-16) are compared absolutely.
ROUNDOFF_REL = 1e-8
ROUNDOFF_ABS = 1e-12

SEEDS = (0, 1, 2, 3, 4)


# A panel is a tuple of runs (name, argv, config): `spikedcov *argv`, where
# "{config}" stands for a file holding the text config and "{out}" for the
# run's output path prefix, relative to the run directory so that the paths
# a summary lists are the same on both sides.
def simulate(name: str, experiment: str, config: str, seeds=SEEDS) -> tuple:
    """One `simulate` run per seed, writing CSVs under ``{name}_s{seed}``."""
    return tuple(
        (f"{name}_s{seed}",
         ("simulate", experiment, "--config", "{config}", "--seed", str(seed),
          "--out-prefix", "{out}"),
         config)
        for seed in seeds
    )


def density(name: str, law: str, c: float, grid: str, spectrum: str | None = None) -> tuple:
    """One `density` run of ``law`` on ``grid``; a white bulk unless ``spectrum`` is given."""
    bulk = ("--spectrum", "{config}") if spectrum is not None else ()
    argv = ("density", "--law", law, "--c", str(c), "--grid", grid, *bulk, "--out", "{out}.csv")
    return ((name, argv, spectrum),)


def rho(name: str, grid: str) -> tuple:
    """One `rho` run on the c grid ``grid``."""
    return ((name, ("rho", "--grid", grid, "--out", "{out}.csv"), None),)


def fit(name: str, method: str, data: str, seed: int | None = None) -> tuple:
    """One `fit --vectors` run of ``method`` on the data CSV text ``data``."""
    split = ("--seed", str(seed)) if seed is not None else ()
    argv = ("fit", "--input", "{config}", "--method", method, *split, "--vectors",
            "--out", "{out}.csv")
    return ((name, argv, data),)


def debias(name: str, method: str, spectrum: str) -> tuple:
    """One `debias` run of ``method`` at c = 0.4 on the spectrum CSV text ``spectrum``."""
    argv = ("debias", "--input", "{config}", "--method", method, "--c", "0.4", "--j", "1,2",
            "--out", "{out}.csv")
    return ((name, argv, spectrum),)


def bulk_json(name: str, command: str, c: float, spectrum: str, *extra: str) -> tuple:
    """One JSON `thresholds` or `limits` run at ``c`` on the bulk file text ``spectrum``."""
    argv = (command, "--c", str(c), "--spectrum", "{config}", *extra, "--out", "{out}.json")
    return ((name, argv, spectrum),)


def robust_analytic(name: str, scenario: dict) -> tuple:
    """One `robust-analytic` run of the contamination ``scenario``."""
    argv = ("robust-analytic", "--scenario", "{config}", "--out", "{out}.json")
    return ((name, argv, json.dumps(scenario)),)


def data_csv(n: int, p: int, seed: int) -> str:
    """An n x p standard normal sample as CSV text, the same on every run."""
    rng = random.Random(seed)
    return "".join(",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(p)) + "\n"
                   for _ in range(n))


def first_column_twice(data: str) -> str:
    """The data CSV text ``data`` with its first column repeated in front."""
    return "".join(line.split(",", 1)[0] + "," + line for line in data.splitlines(True))


TWO_ATOM = "atom 0.5 0.4\natom 1.5 0.6\n"
# the same bulk with its atom lines in reverse order
TWO_ATOM_REVERSED = "atom 1.5 0.6\natom 0.5 0.4\n"
# the split bulk {0.2, 5} scaled by 2^-40, and a bulk spanning twelve decades
SPLIT_SCALED = f"atom {math.ldexp(0.2, -40)!r} 0.5\natom {math.ldexp(5.0, -40)!r} 0.5\n"
WIDE_RANGE = "atom 1e-12 0.5\natom 1 0.5\n"
SIX_ATOM = "".join(
    f"atom {t} {w}\n"
    for t, w in ((0.1, 0.15), (0.4, 0.2), (1, 0.25), (1.6, 0.15), (4, 0.15), (9, 0.1))
)
# bulks with a zero atom: half of it, 30% of it, and 20% of it below two atoms
HALF_ZERO = "atom 0 0.5\natom 1 0.5\n"
ZERO_ATOM = "atom 0 0.3\natom 1 0.7\n"
ZERO_THREE_ATOM = "atom 0 0.2\natom 0.5 0.3\natom 1.5 0.5\n"

# (name, c, grid, spectrum): the white bulk at three ratios (c = 1/2 is the
# product law's switch point), two atoms, a zero atom and well-separated atoms,
# and two laws at a classical effective ratio c (1 - w0) of one, the white
# bulk at c = 1 and a half-zero bulk at c = 2, read from t = 1e-12, where the
# classical density has its 1/sqrt(t) pole; a six-atom bulk at c = 0.1, where
# both supports have six pieces, and at c = 0.5, where the pieces have dips.
LAWS = (
    ("white_c0.4", 0.4, "0.01:3:150", None),
    ("white_c0.5", 0.5, "0.01:3.2:160", None),
    ("white_c5", 5.0, "0.01:11:200", None),
    ("two_atom_c2", 2.0, "0.01:8:160", TWO_ATOM),
    ("zero_atom_c0.7", 0.7, "0.01:3.2:160", ZERO_ATOM),
    ("split_c0.01", 0.01, "0.01:6:200", "atom 0.2 0.5\natom 5 0.5\n"),
    ("white_c1", 1.0, "1e-12:4:200", None),
    ("half_zero_c2", 2.0, "1e-12:4:200", HALF_ZERO),
    ("six_atom_c0.1", 0.1, "0.01:12:240", SIX_ATOM),
    ("six_atom_c0.5", 0.5, "0.01:15:300", SIX_ATOM),
)

# wide and tall spectra and spikes (odd n gives halves of 150 and 151 rows:
# a non-square wide core), spikes listed in the config rather than by
# `design` (the theory table pairs spike j with record column j), the
# heavy-tailed robustness study that reads eigenvectors, a robustness study
# with XI_Q_MAX = 8 spikes (only xi_8 is scored) and one at n = 9, p = 30
# (a product rank block of 4 vectors, narrower than XI_Q_MAX), both limiting
# densities of every law above, the closed-form rho curve over a short and a
# long c range, the vectors of both fits on a tall sample and on a wide one
# with odd n (halves of 20 and 21 rows), the product-PCA vectors of a tall
# sample with two equal columns (a rank-deficient core, which takes LAPACK's
# SVD) and of a wide sample whose 60-row halves take svd_full's Gram route,
# a robustness study on that wide shape, and both debiasing maps on one
# descending spectrum with a header row; the thresholds of the two-atom bulk
# at two ratios (at c = 0.4 also with its atom lines reversed) and its spike
# limits, stuck and distant, the thresholds of a bulk far below unit scale
# and of one spanning many decades, and the worked (eta = 70) and loud (eta = 200)
# contamination scenarios; a spike config with comments, a blank line,
# sigma2 = 2 and design spikes, whose model and replicate count are the
# defaults; the product density of the white bulk at 256 down to t = 1e-6,
# the white bulk's thresholds at c = 1e-25 (critical points 3e-13 above the
# atom) and its classical density at c = 1 - 1.5e-12 (a lower edge near
# 6e-25), the spike limits of the white bulk at 1e160, a spike whose
# square overflows, and the product densities of the white and two-atom
# bulks at c = 2 from t = 1e-30 to 1e-18, next to the zero edge where they
# hold 1/(2 pi sqrt(3)) and sqrt(4/15)/(2 pi); the product density of the
# half-zero bulk at its switch point 2c (1 - w0) = 1 over the same grid, half
# the white closed form at c = 1/2, and the thresholds (c = 0.7) and spike
# limits (c = 2) of two bulks with a zero atom, which equal those of their
# positive atoms at ratio c (1 - w0)
SCENARIO = {"epsilon": 0.01, "k1": 1, "lambda1": 3.0, "c": 0.4, "assignment": [1]}
DESIGN_CONFIG = (
    "# design spikes over a bulk at level 2\n"
    "n = 300\n"
    "p = 120\n"
    "\n"
    "sigma2 = 2  # absent model and replicates take the defaults\n"
    "spikes = design\n"
)
SPECTRUM_CSV = "eigenvalue\n" + "".join(
    f"{v!r}\n" for v in (6.0, 4.5, *(2.4 - 2.2 * k / 39 for k in range(40)))
)
PANEL = (
    simulate("spectrum_wide", "spectrum", "n=700\np=1400\nmodel=gaussian\nreplicates=2\n")
    + simulate("spectrum_wide_odd", "spectrum", "n=301\np=700\nmodel=gaussian\nreplicates=2\n")
    + simulate("spectrum_tall", "spectrum", "n=2000\np=800\nmodel=gaussian\nreplicates=2\n")
    + simulate("spike_wide", "spike", "n=200\np=400\nmodel=gaussian\nspikes=design\nreplicates=5\n")
    + simulate("spike_tall", "spike", "n=600\np=240\nmodel=gaussian\nspikes=design\nreplicates=5\n")
    + simulate("spike_explicit", "spike", "n=400\np=100\nmodel=gaussian\nspikes=8,4\nreplicates=3\n")
    + simulate("spike_design_sigma2", "spike", DESIGN_CONFIG, (0, 1))
    + simulate(
        "robustness", "robustness",
        "n=500\np=200\nmodel=student_t\nnu=2.5\nspikes=design\nreplicates=20\n",
    )
    + simulate(
        "robustness_8_spikes", "robustness",
        "n=200\np=80\nmodel=gaussian\nspikes=16,14,12,10,9,8,7,6\nreplicates=5\n",
    )
    + simulate(
        "robustness_wide_n9", "robustness", "n=9\np=30\nmodel=gaussian\nspikes=design\nreplicates=5\n"
    )
    + simulate(
        "robustness_wide", "robustness", "n=120\np=300\nmodel=gaussian\nspikes=design\nreplicates=3\n"
    )
    + sum((density(f"{law}_{name}", law, c, grid, spectrum)
           for name, c, grid, spectrum in LAWS for law in ("ppca", "pca")), ())
    + rho("rho_c10", "0:10:101")
    + rho("rho_c1e6", "0:1e6:101")
    + sum((fit(f"fit_{method}_{shape}", method, data_csv(n, p, seed), split)
           for shape, n, p, seed in (("tall", 120, 30, 1), ("wide_odd", 41, 70, 2))
           for method, split in (("ppca", 3), ("pca", None))), ())
    + fit("fit_ppca_tall_dup", "ppca", first_column_twice(data_csv(120, 29, 3)), 3)
    + fit("fit_ppca_wide", "ppca", data_csv(120, 300, 4), 3)
    + debias("debias_ppca", "ppca", SPECTRUM_CSV)
    + debias("debias_pca", "pca", SPECTRUM_CSV)
    + bulk_json("thresholds_two_atom_c0.4", "thresholds", 0.4, TWO_ATOM)
    + bulk_json("thresholds_two_atom_c2", "thresholds", 2.0, TWO_ATOM)
    + bulk_json("thresholds_two_atom_reversed_c0.4", "thresholds", 0.4, TWO_ATOM_REVERSED)
    + bulk_json("limits_two_atom_c2", "limits", 2.0, TWO_ATOM, "--lam", "2,3.2,6")
    + bulk_json("thresholds_split_scaled_c0.01", "thresholds", 0.01, SPLIT_SCALED)
    + bulk_json("thresholds_wide_range_c0.4", "thresholds", 0.4, WIDE_RANGE)
    + density("ppca_white_256_c0.6", "ppca", 0.6, "1e-6:40:5", "atom 256 1\n")
    + bulk_json("thresholds_white_c1e-25", "thresholds", 1e-25, "atom 1 1\n")
    + density("pca_white_c1-1.5e-12", "pca", 1.0 - 1.5e-12, "1e-12:4:200")
    + bulk_json("limits_white_lam1e160", "limits", 0.4, "atom 1 1\n", "--lam", "1e160")
    + density("ppca_white_zero_edge_c2", "ppca", 2.0, "1e-30:1e-18:5")
    + density("ppca_two_atom_zero_edge_c2", "ppca", 2.0, "1e-30:1e-18:5", TWO_ATOM)
    + density("ppca_half_zero_switch_c1", "ppca", 1.0, "1e-30:1e-18:5", HALF_ZERO)
    + sum((bulk_json(f"thresholds_{name}_c0.7", "thresholds", 0.7, spectrum)
           + bulk_json(f"limits_{name}_c2", "limits", 2.0, spectrum, "--lam", "2,6")
           for name, spectrum in (("zero_atom", ZERO_ATOM), ("zero_three_atom", ZERO_THREE_ATOM))),
          ())
    + robust_analytic("robust_worked", dict(SCENARIO, etas=[70.0, 70.0]))
    + robust_analytic("robust_loud", dict(SCENARIO, etas=[200.0, 200.0]))
)

# Runs a list of named `spikedcov` argument lists in one interpreter, saving
# each nonempty stdout as <name>_stdout.json, or the stderr error record of a
# run that exits nonzero as <name>_error.json.
_RUNNER = """
import contextlib, io, json, sys
from spikedcov import cli
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \\
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = cli.main(argv)
    text = stderr.getvalue() if code else stdout.getvalue()
    if text:
        with open(name + ("_error.json" if code else "_stdout.json"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(text)
"""


def export_src(rev: str, dest: pathlib.Path, repo: pathlib.Path = REPO) -> str:
    """Extract ``src/`` of ``rev`` under ``dest``; returns the commit id."""
    sha = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", sha, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_panel(tree: pathlib.Path, out: pathlib.Path, panel=PANEL) -> None:
    """Run every run of ``panel`` on the library under ``tree/src``, in the directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for name, argv, config in panel:
        cfg = out / f"{name}.cfg"
        if config is not None:
            cfg.write_text(config, encoding="utf-8")
        runs.append(
            [name, [arg.replace("{config}", str(cfg)).replace("{out}", name) for arg in argv]]
        )
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(runs)],
        env=env, cwd=out, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"panel failed under {tree}: {proc.stderr.strip()}")


def _cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _delta(va: float, vb: float) -> tuple[float, float, bool]:
    """Absolute and relative gap of two finite numbers, and whether it is roundoff."""
    gap = abs(va - vb)
    rel = gap / max(abs(va), abs(vb)) if gap else 0.0
    return gap, rel, gap <= ROUNDOFF_ABS or rel <= ROUNDOFF_REL


def compare_csv(a: bytes, b: bytes) -> dict:
    """Classify two CSV files as identical, roundoff or different."""
    if a == b:
        return {"status": "identical"}
    rows_a = list(csv.reader(io.StringIO(a.decode("utf-8"))))
    rows_b = list(csv.reader(io.StringIO(b.decode("utf-8"))))
    if not rows_a or rows_a[0] != rows_b[0] or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return {"status": "different", "reason": "header or shape"}
    header = rows_a[0]
    deltas: dict[str, dict[str, float]] = {}
    within = True
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, ta, tb in zip(header, row_a, row_b):
            if ta == tb:
                continue
            va, vb = _cell(ta), _cell(tb)
            if va is None or vb is None or not (math.isfinite(va) and math.isfinite(vb)):
                return {"status": "different", "reason": f"cell {column}: {ta!r} vs {tb!r}"}
            gap, rel, close = _delta(va, vb)
            within &= close
            worst = deltas.setdefault(column, {"max_abs": 0.0, "max_rel": 0.0})
            worst["max_abs"] = max(worst["max_abs"], gap)
            worst["max_rel"] = max(worst["max_rel"], rel)
    return {"status": "roundoff" if within else "different", "columns": deltas}


def _json_numbers(a, b, pairs: list) -> bool:
    """Whether a and b have the same keys, strings, booleans and nulls; their numbers go to pairs."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_numbers(a[k], b[k], pairs) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_numbers(x, y, pairs) for x, y in zip(a, b))
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if all(numbers):
        pairs.append((float(a), float(b)))
        return True
    return not any(numbers) and type(a) is type(b) and a == b


def compare_json(a: bytes, b: bytes) -> dict:
    """Classify two JSON files as identical or different, byte for byte.

    A different pair also gets the ``numeric`` diagnostic, which moves
    neither its status nor the exit code; deltas are None where the two
    sides differ in structure (keys, list lengths, strings, booleans, nulls).
    """
    if a == b:
        return {"status": "identical"}
    pairs: list[tuple[float, float]] = []
    try:
        same = _json_numbers(json.loads(a), json.loads(b), pairs)
    except ValueError:
        same = False
    numeric = {"same_structure": same, "max_abs": None, "max_rel": None, "within_roundoff": False}
    if same:
        within, max_abs, max_rel = True, 0.0, 0.0
        for va, vb in pairs:
            if va == vb:
                continue
            if not (math.isfinite(va) and math.isfinite(vb)):
                within = False
                continue
            gap, rel, close = _delta(va, vb)
            within &= close
            max_abs, max_rel = max(max_abs, gap), max(max_rel, rel)
        numeric.update(max_abs=max_abs, max_rel=max_rel, within_roundoff=within)
    return {"status": "different", "numeric": numeric}


COMPARE = {".csv": compare_csv, ".json": compare_json}


def compare_dirs(base: pathlib.Path, change: pathlib.Path) -> dict:
    """Per-file classification of the CSV and JSON files under two panel output dirs."""
    names = sorted({p.name for d in (base, change) for p in d.iterdir() if p.suffix in COMPARE})
    files = {}
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            files[name] = {"status": "different", "reason": "written on one side only"}
        else:
            files[name] = COMPARE[a.suffix](a.read_bytes(), b.read_bytes())
    return files


def report(rev: str, panel=PANEL, tree: pathlib.Path = REPO) -> dict:
    """Run ``panel`` at ``rev`` and on ``tree``; the comparison as a dict."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = pathlib.Path(tmp)
        sha = export_src(rev, tmp / "rev", tree)
        run_panel(tmp / "rev", tmp / "out_rev", panel)
        run_panel(tree, tmp / "out_tree", panel)
        files = compare_dirs(tmp / "out_rev", tmp / "out_tree")
    summary = {"identical": 0, "roundoff": 0, "different": 0}
    for entry in files.values():
        summary[entry["status"]] += 1
    return {
        "rev": rev,
        "commit": sha,
        "panel": [{"name": name, "argv": list(argv)} for name, argv, _ in panel],
        "summary": summary,
        "files": files,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    result = report(parser.parse_args(argv).rev)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 1 if result["summary"]["different"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
