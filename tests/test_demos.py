"""Every demo runs to completion on small arguments."""
import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
DEMO_ARGS = {
    "bulk_engine_and_bias_gap.py": ["--c", "0.4", "--c-max", "1"],
    "limiting_spectra.py": ["--n", "100"],
    "outlier_robustness.py": ["--replicates", "2"],
    "spiked_limits_and_debiasing.py": ["--n", "200"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("name", sorted(DEMO_ARGS))
def test_demo_runs(name, monkeypatch, capsys, tmp_path):
    path = DEMOS / name
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path), *DEMO_ARGS[name]])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
