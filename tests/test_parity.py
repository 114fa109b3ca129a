"""The parity checker in ``tools/parity.py``: classification and a smoke run."""
import json
import pathlib
import shutil
import subprocess

import pytest

from conftest import load_script

PARITY = pathlib.Path(__file__).resolve().parents[1] / "tools" / "parity.py"

SMOKE_CONFIG = "n=40\np=60\nmodel=gaussian\nspikes=design\nreplicates=1\n"


def _smoke_panel(parity):
    # one wide spectrum and one robustness run (both fit routes, one seed
    # each), a product-law and a classical density of a bulk read from a
    # spectrum file, and the product-PCA vectors of a wide sample with odd n
    two_atom = "atom 0.5 0.4\natom 1.5 0.6\n"
    return (
        parity.simulate("spectrum", "spectrum", SMOKE_CONFIG, (1,))
        + parity.simulate("robustness", "robustness", SMOKE_CONFIG, (1,))
        + parity.density("ppca_two_atom", "ppca", 2.0, "0.01:6:20", two_atom)
        + parity.density("pca_two_atom", "pca", 2.0, "0.01:6:20", two_atom)
        + parity.fit("fit_ppca", "ppca", parity.data_csv(11, 16, 0), 1)
    )


class TestCompareCsv:
    def test_classification(self):
        parity = load_script(PARITY)
        base = b"method,value\nppca,0.5\npca,1e-16\n"
        assert parity.compare_csv(base, base) == {"status": "identical"}
        moved = parity.compare_csv(base, b"method,value\nppca,0.5000000001\npca,0\n")
        assert moved["status"] == "roundoff"
        assert moved["columns"]["value"]["max_abs"] == pytest.approx(1e-10)
        assert moved["columns"]["value"]["max_rel"] == 1.0
        for other in (
            b"method,value\nppca,0.5001\npca,1e-16\n",  # beyond roundoff
            b"method,value\nppca,0.5\n",  # a row lost
            b"method,value\nlda,0.5\npca,1e-16\n",  # a text cell changed
        ):
            assert parity.compare_csv(base, other)["status"] == "different"

    def test_json_byte_for_byte(self, tmp_path):
        # JSON output is compared as bytes: no roundoff class, and a changed
        # indent is a difference
        parity = load_script(PARITY)
        base, change = tmp_path / "base", tmp_path / "change"
        base.mkdir()
        change.mkdir()
        text = '{\n  "c": 0.4,\n  "eta_win": true\n}\n'
        moved = '{\n  "c": 0.4000000001,\n  "eta_win": true\n}\n'
        for name, a, b in (
            ("same.json", text, text),
            ("moved.json", text, moved),
            ("indent.json", text, text.replace("  ", " ")),
            ("one_side.json", text, None),
            ("run.cfg", text, moved),
        ):
            (base / name).write_text(a)
            if b is not None:
                (change / name).write_text(b)
        files = parity.compare_dirs(base, change)
        assert sorted(files) == ["indent.json", "moved.json", "one_side.json", "same.json"]
        assert files["same.json"] == {"status": "identical"}
        for name in ("moved.json", "indent.json", "one_side.json"):
            assert files[name]["status"] == "different"


def test_failing_run_saves_its_error_record(tmp_path):
    # a run that exits nonzero leaves its JSON error record and the panel
    # goes on; against a side where the run succeeds, both its error record
    # and its CSV are files written on one side only
    parity = load_script(PARITY)
    tree = PARITY.parents[1]
    for side, grid in (("fails", "0:1:0"), ("runs", "0:1:3")):
        parity.run_panel(tree, tmp_path / side, parity.rho("r", grid) + parity.rho("next", "0:1:3"))
    record = json.loads((tmp_path / "fails" / "r_error.json").read_text())
    assert record == {"error": "ValueError", "message": "grid count must be positive"}
    files = parity.compare_dirs(tmp_path / "fails", tmp_path / "runs")
    assert files == {
        "next.csv": {"status": "identical"},
        "r.csv": {"status": "different", "reason": "written on one side only"},
        "r_error.json": {"status": "different", "reason": "written on one side only"},
    }


def _head_available() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(PARITY.parent), "rev-parse", "--verify", "HEAD^{commit}"],
        capture_output=True,
    )
    return probe.returncode == 0


@pytest.mark.skipif(not _head_available(), reason="needs a git checkout with a HEAD commit")
def test_working_tree_reproduces_head_bytes():
    # a committed tree must reproduce its own CSVs byte for byte
    parity = load_script(PARITY)
    report = parity.report("HEAD", _smoke_panel(parity))
    assert report["summary"]["different"] == report["summary"]["roundoff"] == 0, report["files"]
    # spectrum: records, aggregates, histogram, overlay and the summary;
    # robustness: two and the summary; densities: two; fit: one
    assert report["summary"]["identical"] == 5 + 3 + 2 + 1
    assert "spectrum_s1_stdout.json" in report["files"]
    assert "ppca_two_atom.csv" in report["files"]
    assert "pca_two_atom.csv" in report["files"]
    assert "fit_ppca.csv" in report["files"]
