"""Parity check: the same `spikedcov simulate` panel at a revision and here.

Usage, from anywhere inside a git checkout:

    python3 tools/parity.py <rev>

The library source of ``<rev>`` is exported with ``git archive`` into a
temporary directory, so the repository itself is left untouched (no
worktree is registered, even if the run is interrupted).  The fixed panel
below runs once on that copy and once on the working tree, each in a fresh
interpreter with the tree's ``src/`` first on the path.  The report is one
JSON object on stdout that marks every CSV the panel writes as

* ``identical``: the same bytes;
* ``roundoff``: the same header, shape and text cells, and every numeric
  cell within ROUNDOFF_REL relative or ROUNDOFF_ABS absolute; the largest
  absolute and relative delta of each column that moved is listed;
* ``different``: anything else, including a file written on one side only.

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

# (name, experiment, config, seeds): wide and tall spectra and spikes, and the
# heavy-tailed robustness study that reads eigenvectors.
PANEL = (
    ("spectrum_wide", "spectrum", "n=700\np=1400\nmodel=gaussian\nreplicates=2\n", SEEDS),
    ("spectrum_tall", "spectrum", "n=2000\np=800\nmodel=gaussian\nreplicates=2\n", SEEDS),
    ("spike_wide", "spike", "n=200\np=400\nmodel=gaussian\nspikes=design\nreplicates=5\n", SEEDS),
    ("spike_tall", "spike", "n=600\np=240\nmodel=gaussian\nspikes=design\nreplicates=5\n", SEEDS),
    (
        "robustness",
        "robustness",
        "n=500\np=200\nmodel=student_t\nnu=2.5\nspikes=design\nreplicates=20\n",
        SEEDS,
    ),
)

# Runs a list of `spikedcov` argument lists in one interpreter.
_RUNNER = """
import contextlib, io, json, sys
from spikedcov import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(code)
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
    """Run every (entry, seed) of ``panel`` on the library under ``tree/src``."""
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for name, experiment, config, seeds in panel:
        cfg = out / f"{name}.cfg"
        cfg.write_text(config, encoding="utf-8")
        for seed in seeds:
            runs.append(
                ["simulate", experiment, "--config", str(cfg), "--seed", str(seed),
                 "--out-prefix", str(out / f"{name}_s{seed}")]
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
            gap = abs(va - vb)
            rel = gap / max(abs(va), abs(vb)) if gap else 0.0
            within &= gap <= ROUNDOFF_ABS or rel <= ROUNDOFF_REL
            worst = deltas.setdefault(column, {"max_abs": 0.0, "max_rel": 0.0})
            worst["max_abs"] = max(worst["max_abs"], gap)
            worst["max_rel"] = max(worst["max_rel"], rel)
    return {"status": "roundoff" if within else "different", "columns": deltas}


def compare_dirs(base: pathlib.Path, change: pathlib.Path) -> dict:
    """Per-file classification of the CSVs under two panel output dirs."""
    names = sorted({p.name for p in base.glob("*.csv")} | {p.name for p in change.glob("*.csv")})
    files = {}
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            files[name] = {"status": "different", "reason": "written on one side only"}
        else:
            files[name] = compare_csv(a.read_bytes(), b.read_bytes())
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
        "panel": [{"name": n, "experiment": e, "seeds": list(s)} for n, e, _, s in panel],
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
