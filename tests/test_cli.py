import csv
import io
import json

import numpy as np
import pytest

from spikedcov import cli, estimators, rmt, simlab
from spikedcov.numkernel import RngStream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestVersion:
    def test_prints_solver_constants_json(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        info = json.loads(out)
        assert info["name"] == "spikedcov"
        assert info["solver_tol"] == pytest.approx(1e-10)
        assert info["fp_damping"] == pytest.approx(0.5)


class TestConstants:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--c", "0.4", "--sigma2", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["lambda_star"] == pytest.approx(1.65126, abs=1e-5)
        assert rec["lambda_prime"] == pytest.approx(1.63246, abs=1e-5)
        assert rec["b"] == pytest.approx(2.41633, abs=1e-5)
        assert rec["b_prime"] == pytest.approx(2.66491, abs=1e-5)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "consts.json"
        code, out, _ = run_cli(
            capsys, "constants", "--c", "2", "--out", str(path)
        )
        assert code == 0
        rec = json.loads(path.read_text())
        assert rec["mass0_ppca"] == pytest.approx(0.75)


class TestRho:
    def test_first_row_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--grid", "0:10:101")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["c", "rho"]
        assert len(rows) == 101
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 1.0
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals)


class TestDensity:
    def test_pca_law_at_unit_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--law", "pca", "--c", "0.4", "--grid", "1:1:1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "density"]
        assert float(rows[0][1]) == pytest.approx(0.47746, abs=1e-3)

    def test_ppca_law_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--law", "ppca", "--c", "0.4", "--grid", "0.5:2:4"
        )
        assert code == 0
        _, rows = parse_csv(out)
        params = rmt.SsmParams(c=0.4, sigma2=1.0)
        # the subcommand runs the generic bulk engine, so agreement with the
        # closed form is at the engine gate, not machine precision
        for t_str, pdf_str in rows:
            assert float(pdf_str) == pytest.approx(
                float(rmt.ssm_g_pdf(params, float(t_str))), abs=5e-3
            )

    def test_spectrum_file_bulk(self, capsys, tmp_path):
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text("atom 0.5 0.4\natom 1.5 0.6\n")
        code, out, _ = run_cli(
            capsys,
            "density",
            "--law",
            "pca",
            "--c",
            "0.4",
            "--spectrum",
            str(spec_file),
            "--grid",
            "0.5:2.5:5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        assert all(float(r[1]) >= 0.0 for r in rows)


class TestThresholdsAndLimits:
    def test_thresholds_reference(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--c", "2")
        assert code == 0
        rec = json.loads(out)
        assert rec["ppca"]["threshold"] == pytest.approx(2.54246, abs=1e-5)
        assert rec["ppca"]["bulk_edge"] == pytest.approx(4.40367, abs=1e-5)
        assert rec["pca"]["threshold"] == pytest.approx(2.41421, abs=1e-5)
        assert rec["pca"]["bulk_edge"] == pytest.approx(5.82843, abs=1e-5)

    def test_limits_distant_and_stuck(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--c", "0.4", "--lam", "3,1.2")
        assert code == 0
        recs = json.loads(out)
        assert recs[0]["lambda"] == 3.0
        assert recs[0]["ppca"] == {"tag": "distant", "value": pytest.approx(3.3)}
        assert recs[0]["pca"] == {"tag": "distant", "value": pytest.approx(3.6)}
        assert recs[1]["ppca"]["tag"] == "stuck"
        assert recs[1]["ppca"]["value"] == pytest.approx(2.41633, abs=1e-5)


class TestDebias:
    def test_matches_library_call(self, capsys, tmp_path):
        lam = np.array([3.2, 1.9, 1.2, 0.8, 0.3])
        path = tmp_path / "spectrum.csv"
        path.write_text("eigenvalue\n" + "\n".join(f"{v}" for v in lam) + "\n")
        code, out, _ = run_cli(
            capsys,
            "debias",
            "--input",
            str(path),
            "--method",
            "ppca",
            "--c",
            "0.4",
            "--j",
            "1,2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["j", "raw", "debiased"]
        for row, j in zip(rows, (1, 2)):
            assert int(row[0]) == j
            assert float(row[1]) == pytest.approx(lam[j - 1])
            assert float(row[2]) == pytest.approx(
                estimators.debias_ppca(lam, 0.4, j), rel=1e-9
            )

    def test_nan_spectrum_is_json_value_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eigenvalue\n3.2\nnan\n1.2\n0.8\n")
        code, out, err = run_cli(
            capsys, "debias", "--input", str(path), "--method", "pca", "--c", "0.4", "--j", "1"
        )
        assert code == 1
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert "finite" in rec["message"]

    def test_index_past_spectrum_is_json_value_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eigenvalue\n3.2\n1.9\n1.2\n0.8\n0.3\n")
        code, out, err = run_cli(
            capsys, "debias", "--input", str(path), "--method", "ppca", "--c", "0.4", "--j", "9"
        )
        assert code == 1
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert "1 <= j < 5" in rec["message"]


class TestFit:
    def test_pca_eigenvalues(self, capsys, tmp_path):
        x = RngStream(8, 0).generator().standard_normal((30, 4))
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",")
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(path), "--method", "pca"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eigenvalue"]
        got = np.array([float(r[0]) for r in rows])
        ref = estimators.pca_fit(x).eigenvalues
        assert np.allclose(got, ref, rtol=1e-9)

    def test_ppca_with_vectors_and_seed(self, capsys, tmp_path):
        x = RngStream(9, 0).generator().standard_normal((20, 3))
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",")
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--input",
            str(path),
            "--method",
            "ppca",
            "--seed",
            "4",
            "--vectors",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eigenvalue", "component_1", "component_2", "component_3"]
        fit = estimators.ppca_fit(x, RngStream(4, 0), vectors=True)
        got = np.array([float(r[0]) for r in rows])
        assert np.allclose(got, fit.singular_values, rtol=1e-9)
        vecs = np.array([[float(v) for v in r[1:]] for r in rows]).T
        assert np.allclose(vecs, fit.fused_vectors, atol=1e-9)

    @pytest.mark.parametrize("method, rank", [("ppca", 5), ("pca", 10)])
    def test_wide_vectors_cover_the_rank_block(self, capsys, tmp_path, method, rank):
        n, p = 10, 20
        x = RngStream(11, 0).generator().standard_normal((n, p))
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",")
        argv = ["fit", "--input", str(path), "--method", method, "--seed", "4"]
        code, out, _ = run_cli(capsys, *argv, "--vectors")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eigenvalue"] + [f"component_{i + 1}" for i in range(p)]
        assert len(rows) == rank
        if method == "ppca":
            fit = estimators.ppca_fit(x, RngStream(4, 0), vectors=True)
            values, vectors = fit.singular_values, fit.fused_vectors
        else:
            fit = estimators.pca_fit(x, vectors=True)
            values, vectors = fit.eigenvalues, fit.eigenvectors
        got = np.array([[float(v) for v in r] for r in rows])
        assert np.allclose(got[:, 0], values[:rank], rtol=1e-9)
        assert np.allclose(got[:, 1:].T, vectors, atol=1e-9)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(parse_csv(out)[1]) == p

    def test_center_flag(self, capsys, tmp_path):
        x = RngStream(10, 0).generator().standard_normal((25, 3)) + 50.0
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",")
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(path), "--method", "pca", "--center"
        )
        assert code == 0
        _, rows = parse_csv(out)
        ref = estimators.pca_fit(x - x.mean(axis=0)).eigenvalues
        got = np.array([float(r[0]) for r in rows])
        assert np.allclose(got, ref, rtol=1e-9)


class TestRobustAnalytic:
    def test_worked_scenario(self, capsys, tmp_path):
        scenario = {
            "epsilon": 0.01,
            "etas": [70.0, 70.0],
            "k1": 1,
            "lambda1": 3.0,
            "c": 0.4,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "robust-analytic", "--scenario", str(path))
        assert code == 0
        rec = json.loads(out)
        assert rec["pca"]["target_rank"] == 3
        assert rec["ppca"]["target_rank"] == 1
        assert rec["pca"]["spectrum"]["signal_eigenvalue"] == pytest.approx(2.94)
        assert rec["ppca"]["spectrum"]["signal_eigenvalue"] == pytest.approx(2.94)
        assert rec["comparative"]["eta_win"] is True

    def test_loud_scenario_breaks_pca_ordering(self, capsys, tmp_path):
        scenario = {
            "epsilon": 0.01,
            "etas": [200.0, 200.0],
            "k1": 1,
            "lambda1": 3.0,
            "c": 0.4,
            "assignment": [1],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "robust-analytic", "--scenario", str(path))
        assert code == 0
        rec = json.loads(out)
        assert any(rec["pca"]["ordering_breaks"])
        assert not any(rec["ppca"]["ordering_breaks"])


class TestSimulate:
    CONFIG = "n=40\np=16\nmodel=gaussian\nreplicates=2\n"

    def test_summary_and_files(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        prefix = str(tmp_path / "run")
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "spectrum",
            "--config",
            str(cfg),
            "--seed",
            "5",
            "--out-prefix",
            prefix,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["kind"] == "spectrum"
        assert summary["replicates"] == 2
        assert summary["seed"] == 5
        assert set(summary["aggregates"]) >= {"ks_ppca", "ks_pca"}
        assert prefix + "_records.csv" in summary["files"]

    def test_summary_matches_aggregates_csv(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        prefix = str(tmp_path / "run")
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "spectrum",
            "--config",
            str(cfg),
            "--seed",
            "5",
            "--out-prefix",
            prefix,
        )
        assert code == 0
        with open(prefix + "_aggregates.csv", encoding="utf-8") as fh:
            header, rows = parse_csv(fh.read())
        assert header == ["column", "mean", "sd"]
        stored = {name: {"mean": float(mean), "sd": float(sd)} for name, mean, sd in rows}
        assert json.loads(out)["aggregates"] == stored

    def test_writes_each_csv_once(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        written = []
        write_csv = simlab.write_csv

        def counting(path, columns, rows):
            written.append(path)
            return write_csv(path, columns, rows)

        monkeypatch.setattr(simlab, "write_csv", counting)
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "spectrum",
            "--config",
            str(cfg),
            "--seed",
            "5",
            "--out-prefix",
            str(tmp_path / "run"),
        )
        assert code == 0
        files = json.loads(out)["files"]
        assert len(files) == 4
        assert written == files

    def test_replicates_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "spectrum",
            "--config",
            str(cfg),
            "--seed",
            "5",
            "--replicates",
            "1",
        )
        assert code == 0
        assert json.loads(out)["replicates"] == 1

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (pa, pb):
            code, _, _ = run_cli(
                capsys,
                "simulate",
                "spectrum",
                "--config",
                str(cfg),
                "--seed",
                "7",
                "--out-prefix",
                prefix,
            )
            assert code == 0
        with open(pa + "_records.csv", "rb") as fa, open(pb + "_records.csv", "rb") as fb:
            assert fa.read() == fb.read()


class TestErrorChannel:
    def test_usage_error_is_json_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "nonsense")
        assert code == 2
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "usage"

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "constants")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_runtime_error_is_json_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=40\np=16\nwidth=3\n")
        code, out, err = run_cli(
            capsys, "simulate", "spectrum", "--config", str(cfg), "--seed", "1"
        )
        assert code == 1
        rec = json.loads(err)
        assert "message" in rec
        assert "width" in rec["message"]

    def test_domain_error_from_engine(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--c", "-1")
        assert code == 1
        assert "aspect ratio" in json.loads(err)["message"]
