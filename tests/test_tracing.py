"""Contract between the library and the benchmark's per-layer tracer.

``perfbench/tracing.py`` replaces named functions on the library's modules
and reads some of their arguments by position (the KS grid, the CDF points,
the SVD input).  A renamed or re-signatured layer would break ``--trace 1``
without failing any library test, so tiny traced ops run here.
"""
import contextlib
import io
import pathlib

import spikedcov
from conftest import load_script
from spikedcov import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_ops_reach_every_counted_layer(tmp_path):
    config = tmp_path / "experiment.cfg"
    config.write_text("n=40\np=60\nmodel=gaussian\nspikes=design\nreplicates=1\n")
    tracer = load_script(TRACING).Tracer(vars(spikedcov))
    codes = []
    tracer.install()
    try:
        for op, experiment in enumerate(("spectrum", "robustness")):
            argv = ["simulate", experiment, "--config", str(config), "--seed", "1"]
            argv += ["--out-prefix", str(tmp_path / experiment)]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(tracer.run_op(op, lambda: cli.main(argv)))
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    metrics = tracer.metrics()
    for name in (
        "spectra.ks_distance.points",
        "rmt.ssm_g_cdf.points",
        "numkernel.svd_full.dim",
        "numkernel.sym_eig.dim",
        "numkernel.haar_orthogonal.s",
        "estimators.similarity_xi.s",
    ):
        assert metrics[name] > 0, name
