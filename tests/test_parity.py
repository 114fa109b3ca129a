"""The parity checker in ``tools/parity.py``: classification and a smoke run."""
import pathlib
import shutil
import subprocess

import pytest

from conftest import load_script

PARITY = pathlib.Path(__file__).resolve().parents[1] / "tools" / "parity.py"

# one wide spectrum and one robustness run: both fit routes, one seed each
SMOKE_CONFIG = "n=40\np=60\nmodel=gaussian\nspikes=design\nreplicates=1\n"
SMOKE_PANEL = (
    ("spectrum", "spectrum", SMOKE_CONFIG, (1,)),
    ("robustness", "robustness", SMOKE_CONFIG, (1,)),
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
    report = load_script(PARITY).report("HEAD", SMOKE_PANEL)
    assert report["summary"]["different"] == report["summary"]["roundoff"] == 0, report["files"]
    # spectrum: records, aggregates, histogram, overlay; robustness: two
    assert report["summary"]["identical"] == 4 + 2
