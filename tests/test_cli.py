import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spikedcov
from spikedcov import cli, estimators, rmt, simlab, spectra
from spikedcov.numkernel import RngStream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_rejected(capsys, tmp_path, *argv, out_flag="--out"):
    """Run argv with ``out_flag`` naming ``tmp_path / "out"``; check stdout is
    empty and no output file was written.

    Returns the exit code and the JSON error record from stderr.
    """
    code, out, err = run_cli(capsys, *argv, out_flag, str(tmp_path / "out"))
    assert out == ""
    assert not list(tmp_path.glob("out*"))
    return code, json.loads(err)


# past Philox's 64-bit key word: 2**64 + 5, whose low 64 bits are the seed 5
WIDE_SEED = "18446744073709551621"


class TestVersion:
    def test_prints_solver_constants_json(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        info = json.loads(out)
        assert info["name"] == "spikedcov"
        assert info["solver_tol"] == pytest.approx(1e-10)
        assert info["fp_damping"] == pytest.approx(0.5)
        assert set(info) == {
            "name", "version", "solver_tol", "fp_damping", "fp_max_iter", "newton_max_iter"
        }
        # the length of the fixed-point warm start before Newton
        assert info["fp_max_iter"] == rmt.FP_MAX_ITER
        assert info["newton_max_iter"] == rmt.NEWTON_MAX_ITER

    @pytest.mark.parametrize("columns", ["20", "200"])
    def test_record_is_one_unwrapped_line(self, capsys, monkeypatch, columns):
        # argparse wraps help text to the terminal width; the record never is
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_cli(capsys, "--version")
        assert (code, err) == (0, "")
        assert out == cli._VERSION_TEXT + "\n"


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

    @pytest.mark.parametrize("c", ["1e12", "1e50", "1e150"])
    def test_large_ratio_is_strict_json(self, capsys, c):
        code, out, _ = run_cli(capsys, "constants", "--c", c)
        assert code == 0

        def reject(name):
            raise AssertionError(f"{name} in the constants JSON")

        rec = json.loads(out, parse_constant=reject)
        assert rec["beta"] == pytest.approx(rec["b"] ** 2, rel=1e-15)

    def test_overflow_is_json_value_error(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--c", "1e200")
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert "overflow" in rec["message"]


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

    def test_huge_ratios_give_no_nan(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--grid", "1e150:1e200:3")
        assert code == 0
        assert "nan" not in out.lower()
        _, rows = parse_csv(out)
        vals = [float(r[1]) for r in rows]
        assert all(np.isfinite(vals)) and vals == sorted(vals)


class TestGrid:
    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0:1", "grid must be start:stop:count, got '0:1'"),
            ("0:1:2:3", "grid must be start:stop:count, got '0:1:2:3'"),
            ("0:1:0", "grid count must be positive"),
        ],
    )
    def test_bad_grid_is_json_value_error(self, capsys, tmp_path, grid, message):
        code, rec = run_rejected(capsys, tmp_path, "rho", "--grid", grid)
        assert code == 1
        assert rec == {"error": "ValueError", "message": message}


class TestDensity:
    @pytest.mark.parametrize("law", ["ppca", "pca"])
    @pytest.mark.parametrize("grid", ["0:1:3", "1:-1:3"])
    def test_grid_point_not_positive_is_json_value_error(self, capsys, tmp_path, law, grid):
        # the t column holds the grid as given: a point at or below 0 is
        # rejected, never moved
        code, rec = run_rejected(
            capsys, tmp_path, "density", "--law", law, "--c", "0.4", "--grid", grid
        )
        assert code == 1
        assert rec["error"] == "ValueError" and "t > 0" in rec["message"]

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

    def test_ppca_law_of_a_bulk_at_256(self, capsys):
        # the law of the bulk 256 is that of the bulk 1 stretched by 256,
        # down to t = 1e-6, where the support reaching zero is steepest
        code, out, _ = run_cli(
            capsys, "density", "--law", "ppca", "--c", "0.6", "--sigma2", "256",
            "--grid", "1e-6:40:5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        t, pdf = np.array(rows, dtype=float).T
        unit = spectra.make_spectrum(atoms=[(1.0, 1.0)])
        assert np.all(pdf > 0.0)
        assert pdf == pytest.approx(rmt.ppca_lsd_pdf(0.6, unit, t / 256.0) / 256.0, rel=1e-9)

    def test_ppca_law_at_its_zero_edge(self, capsys):
        # the white law at c = 2 keeps the density 1/(2 pi sqrt(3)) down to 0+
        code, out, _ = run_cli(
            capsys, "density", "--law", "ppca", "--c", "2", "--grid", "1e-30:1e-20:3"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["0.09188814924"] * 3

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


class TestBulkOptions:
    @pytest.mark.parametrize(
        "command",
        [
            ("thresholds",),
            ("limits", "--lam", "3"),
            ("density", "--law", "pca", "--grid", "1:2:3"),
        ],
        ids=["thresholds", "limits", "density"],
    )
    def test_sigma2_with_spectrum_is_usage_error(self, capsys, tmp_path, command):
        # a spectrum file is the whole bulk, so a --sigma2 beside it would
        # be ignored
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text("atom 2 1\n")
        code, rec = run_rejected(
            capsys, tmp_path, *command, "--c", "0.4", "--sigma2", "5",
            "--spectrum", str(spec_file),
        )
        assert code == 2
        assert rec == {
            "error": "usage",
            "message": "argument --spectrum: not allowed with argument --sigma2",
        }


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

    def test_spike_line_in_spectrum_file_is_json_value_error(self, capsys, tmp_path):
        # spikes are given as --lam, never as part of the bulk
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text("atom 1.0 1.0\nspike 4.0\n")
        code, out, err = run_cli(capsys, "thresholds", "--c", "2", "--spectrum", str(spec_file))
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert rec["message"] == "bad spectrum line 2: 'spike 4.0'"

    @pytest.mark.parametrize("line", ["atom 1 nan", "atom nan 1", "atom inf 1"])
    def test_non_finite_atom_is_json_value_error(self, capsys, tmp_path, line):
        # a NaN weight used to reach the solver and fail as a SolverError
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text(line + "\n")
        code, out, err = run_cli(
            capsys, "limits", "--c", "0.4", "--lam", "3", "--spectrum", str(spec_file)
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "bulk atoms and weights must be finite",
        }


    def test_zero_bulk_is_json_value_error(self, capsys, tmp_path):
        # a bulk with no positive atom used to reach the solver as a SolverError
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text("atom 0 1\n")
        code, rec = run_rejected(
            capsys, tmp_path, "thresholds", "--c", "0.4", "--spectrum", str(spec_file)
        )
        assert code == 1
        assert rec == {"error": "ValueError", "message": "bulk law needs a positive atom"}

    @pytest.mark.parametrize(
        "atoms, message",
        [
            # squares overflow: a SolverError or scipy's NaN message before
            ("atom 1e200 1\n", "bulk atoms and weights must be finite"),
            # squares underflow to two zeros: a SolverError before
            ("atom 1e-170 0.5\natom 1e-165 0.5\n", "bulk atoms must be distinct and increasing"),
            # a subnormal square: scipy's bracket ValueError before
            (
                "atom 1e-160 0.5\natom 1 0.5\n",
                "positive bulk atoms must square to at least the smallest normal float",
            ),
            # a square that underflows to a zero atom: wrong edges before
            (
                "atom 1e-170 0.5\natom 1 0.5\n",
                "positive bulk atoms must square to at least the smallest normal float",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("thresholds", "--c", "0.4"),
            ("limits", "--c", "0.4", "--lam", "1e201"),
            ("density", "--law", "ppca", "--c", "0.4", "--grid", "0.1:1:3"),
        ],
    )
    def test_squared_bulk_out_of_range_is_json_value_error(
        self, capsys, tmp_path, atoms, message, argv
    ):
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text(atoms)
        code, rec = run_rejected(capsys, tmp_path, *argv, "--spectrum", str(spec_file))
        assert code == 1
        assert rec == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("bulk", [None, "atom 1e150 1\n"])
    def test_limits_of_a_spike_whose_square_overflows(self, capsys, tmp_path, bulk):
        # the product map used to print "value": Infinity, which is not
        # strict JSON, with a RuntimeWarning on stderr
        argv = ["limits", "--c", "0.4", "--lam", "1e160"]
        if bulk is not None:
            spec_file = tmp_path / "bulk.txt"
            spec_file.write_text(bulk)
            argv += ["--spectrum", str(spec_file)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        (rec,) = json.loads(out, parse_constant=reject)
        for method in ("ppca", "pca"):
            assert rec[method]["tag"] == "distant"
            assert rec[method]["value"] == pytest.approx(1e160, rel=1e-9)


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

    def test_unsorted_spectrum_is_json_value_error(self, capsys, tmp_path):
        # the spectrum is read as it stands, never sorted
        path = tmp_path / "spectrum.csv"
        path.write_text("eigenvalue\n1.9\n3.2\n1.2\n0.8\n0.3\n")
        code, rec = run_rejected(
            capsys, tmp_path, "debias", "--input", str(path), "--method", "ppca", "--c", "0.4"
        )
        assert code == 1
        assert rec == {"error": "ValueError", "message": "spectrum must be sorted descending"}

    def test_text_column_is_json_value_error(self, capsys, tmp_path):
        # fit's reader: every cell after the header row must be a number
        path = tmp_path / "spectrum.csv"
        path.write_text("eigenvalue,label\n3.2,a\n1.9,b\n1.2,c\n")
        code, rec = run_rejected(
            capsys, tmp_path, "debias", "--input", str(path), "--method", "pca", "--c", "0.4"
        )
        assert code == 1
        assert rec == {"error": "ValueError", "message": "could not convert string to float: 'a'"}

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
        argv = ["fit", "--input", str(path), "--method", method]
        if method == "ppca":
            argv += ["--seed", "4"]
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

    @pytest.mark.parametrize("method", ["ppca", "pca"])
    def test_sample_whose_squares_overflow_is_json_value_error(self, capsys, tmp_path, method):
        # a 5 x 2 sample near 1e200 used to print nan eigenvalues and exit 0
        x = 1e200 * RngStream(12, 0).generator().standard_normal((5, 2))
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",")
        argv = ["fit", "--input", str(path), "--method", method]
        if method == "ppca":
            argv += ["--seed", "4"]
        code, rec = run_rejected(capsys, tmp_path, *argv)
        assert code == 1
        assert rec == {"error": "ValueError", "message": "data must have a finite sum of squares"}

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

    @pytest.mark.parametrize("method, seed", [("pca", ("--seed", "1")), ("ppca", ())])
    def test_seed_only_with_ppca(self, capsys, tmp_path, method, seed):
        # classical PCA draws nothing, so a seed would be ignored; product
        # PCA draws its half split from the seed
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n7,8\n")
        code, rec = run_rejected(
            capsys, tmp_path, "fit", "--input", str(path), "--method", method, *seed
        )
        assert code == 1
        assert rec == {
            "error": "ValueError",
            "message": "--seed is required with --method ppca and not allowed with --method pca",
        }

    @pytest.mark.parametrize("method", ["ppca", "pca"])
    def test_nan_cell_is_json_value_error(self, capsys, tmp_path, method):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,nan\n5,6\n7,8\n")
        seed = ("--seed", "1") if method == "ppca" else ()
        code, out, err = run_cli(
            capsys, "fit", "--input", str(path), "--method", method, *seed
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "data must have finite entries"
        }

    def test_seed_past_64_bits_is_json_value_error(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n7,8\n")
        code, rec = run_rejected(
            capsys, tmp_path, "fit", "--input", str(path), "--method", "ppca", "--seed", WIDE_SEED
        )
        assert code == 1
        assert rec == {
            "error": "ValueError", "message": "seed and stream index must lie in [0, 2**64)"
        }

    def test_ragged_row_is_json_value_error(self, capsys, tmp_path):
        # numpy used to report an "inhomogeneous shape" here
        path = tmp_path / "data.csv"
        path.write_text("x,y,z\n1,2,3\n\n4,5\n6,7,8\n")
        code, rec = run_rejected(capsys, tmp_path, "fit", "--input", str(path), "--method", "pca")
        assert code == 1
        assert rec == {"error": "ValueError", "message": f"{path} line 4: expected 3 values, got 2"}

    def test_three_rows_are_json_value_error(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        code, out, err = run_cli(
            capsys, "fit", "--input", str(path), "--method", "ppca", "--seed", "1"
        )
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError" and "at least 4 samples" in rec["message"]

    @pytest.mark.parametrize("method", ["ppca", "pca"])
    @pytest.mark.parametrize("vectors", [(), ("--vectors",)])
    def test_single_column_writes_one_row(self, capsys, tmp_path, method, vectors):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n3\n4\n5\n")
        seed = ("--seed", "3") if method == "ppca" else ()
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(path), "--method", method, *seed, *vectors
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eigenvalue"] + (["component_1"] if vectors else [])
        assert len(rows) == 1
        assert float(rows[0][0]) > 0.0


class TestInputHeader:
    # fit and debias read one CSV format: at most one header row, then numbers
    RUNS = {
        "fit": ("fit", "--method", "pca"),
        "debias": ("debias", "--method", "pca", "--c", "0.4"),
    }
    DATA = {"fit": ["1,2", "3,4", "5,6", "7,8"], "debias": ["4", "3", "2", "1"]}

    @pytest.mark.parametrize("command", ["fit", "debias"])
    def test_two_header_rows_are_json_value_error(self, capsys, tmp_path, command):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["x,y", "notes,here", *self.DATA[command]]) + "\n")
        code, rec = run_rejected(capsys, tmp_path, *self.RUNS[command], "--input", str(path))
        assert code == 1
        assert rec == {
            "error": "ValueError", "message": "could not convert string to float: 'notes'"
        }

    @pytest.mark.parametrize("command", ["fit", "debias"])
    def test_header_only_is_json_value_error(self, capsys, tmp_path, command):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n\n")
        code, rec = run_rejected(capsys, tmp_path, *self.RUNS[command], "--input", str(path))
        assert code == 1
        assert rec == {"error": "ValueError", "message": f"no numeric rows found in {path}"}

    @pytest.mark.parametrize("command", ["fit", "debias"])
    def test_one_header_row_reads_as_none(self, capsys, tmp_path, command):
        outputs = []
        for header in ([], ["x,y"]):
            path = tmp_path / "data.csv"
            path.write_text("\n".join([*header, *self.DATA[command]]) + "\n")
            code, out, _ = run_cli(capsys, *self.RUNS[command], "--input", str(path))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


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

    def test_unknown_key_is_json_value_error(self, capsys, tmp_path):
        scenario = {
            "epsilon": 0.01,
            "etas": [70.0, 70.0],
            "k1": 1,
            "lambda1": 3.0,
            "c": 0.4,
            "asignment": [2],
            "notes": "typo",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, "robust-analytic", "--scenario", str(path))
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert "asignment" in rec["message"] and "notes" in rec["message"]

    @pytest.mark.parametrize("text", ["[1, 2]", '["c"]', "3.0"])
    def test_non_object_is_json_value_error(self, capsys, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "robust-analytic", "--scenario", str(path))
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "ValueError"
        assert "JSON object" in rec["message"]


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

    def test_replicates_flag_is_usage_error(self, capsys, tmp_path):
        # the replicate count comes only from the config
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        code, out, err = run_cli(
            capsys, "simulate", "spectrum", "--config", str(cfg), "--seed", "5",
            "--out-prefix", str(tmp_path / "run"), "--replicates", "1",
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "usage", "message": "unrecognized arguments: --replicates 1"
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_seed_past_64_bits_is_json_value_error(self, capsys, tmp_path):
        # not wrapped onto seed 5, which has the same low 64 bits
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        code, rec = run_rejected(
            capsys, tmp_path, "simulate", "spectrum", "--config", str(cfg), "--seed", WIDE_SEED,
            out_flag="--out-prefix",
        )
        assert code == 1
        assert rec == {
            "error": "ValueError", "message": "seed and stream index must lie in [0, 2**64)"
        }

    def test_ascending_spikes_are_json_value_error(self, capsys, tmp_path):
        # the records pair spike j with the j-th largest sample eigenvalue
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=40\np=16\nspikes=4,8\nreplicates=1\n")
        code, rec = run_rejected(
            capsys, tmp_path, "simulate", "spike", "--config", str(cfg), "--seed", "1",
            out_flag="--out-prefix",
        )
        assert code == 1
        assert rec == {
            "error": "ValueError", "message": "population spikes must be listed largest first"
        }

    def test_robustness_past_scored_spikes_is_json_value_error(self, capsys, tmp_path):
        # nine spikes leave no xi column; the run used to write rank columns only
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=60\np=30\nspikes=20,19,18,17,16,15,14,13,12\nreplicates=1\n")
        code, rec = run_rejected(
            capsys, tmp_path, "simulate", "robustness", "--config", str(cfg), "--seed", "1",
            out_flag="--out-prefix",
        )
        assert code == 1
        assert rec == {
            "error": "ValueError",
            "message": "robustness experiment scores at most XI_Q_MAX = 8 spikes, got 9",
        }

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

    @pytest.mark.parametrize("line", ["seed=9", "c=0.4"])
    def test_seed_or_ratio_line_is_json_value_error(self, capsys, tmp_path, line):
        # the seed comes only from --seed and the ratio only from p/n
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + line + "\n")
        code, out, err = run_cli(
            capsys, "simulate", "spectrum", "--config", str(cfg), "--seed", "5"
        )
        assert code == 1 and out == ""
        key = line.split("=")[0]
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"config line 5: unknown key {key!r}",
        }


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

    def test_broken_pipe_exits_one_without_a_record(self, capsys, monkeypatch):
        # a reader that closed stdout gets the exit code only, no JSON record
        def closed_stdout(path, text):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit", closed_stdout)
        assert run_cli(capsys, "rho", "--grid", "0:1:3") == (1, "", "")

    def test_domain_error_from_engine(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--c", "-1")
        assert code == 1
        assert "aspect ratio" in json.loads(err)["message"]

    def test_sigma2_rule_message(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--c", "0.4", "--sigma2", "0")
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "bulk level sigma2 must be positive and finite, got 0.0",
        }

    @pytest.mark.parametrize(
        "command",
        [
            ("thresholds",),
            ("limits", "--lam", "3"),
            ("density", "--law", "ppca", "--grid", "0.5:1.5:5"),
            ("density", "--law", "pca", "--grid", "0.5:1.5:5"),
        ],
    )
    @pytest.mark.parametrize("sigma2", ["0", "-1"])
    def test_flat_bulk_takes_the_sigma2_rule(self, capsys, command, sigma2):
        # a --sigma2 flat bulk is judged by the sigma2 rule of `constants`,
        # not by the bulk-law rules of a spectrum file
        code, out, err = run_cli(capsys, *command, "--c", "0.4", f"--sigma2={sigma2}")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"bulk level sigma2 must be positive and finite, got {float(sigma2)}",
        }

    def test_tiny_bulk_density_is_json_solver_error(self, capsys, tmp_path):
        # the classical edges of this bulk are found; the companion solve at
        # its scale is not, and fails typed rather than with scipy's NaN text
        spec_file = tmp_path / "bulk.txt"
        spec_file.write_text("atom 1e-170 0.5\natom 1e-165 0.5\n")
        code, rec = run_rejected(
            capsys, tmp_path, "density", "--law", "pca", "--c", "0.4",
            "--grid", "1e-166:2e-165:3", "--spectrum", str(spec_file),
        )
        assert code == 1
        assert rec["error"] == "SolverError"
        assert rec["message"].startswith("companion solve did not converge")

    def test_unconverged_solve_is_json_solver_error(self, capsys, monkeypatch):
        monkeypatch.setattr(rmt, "NEWTON_MAX_ITER", 0)
        code, out, err = run_cli(
            capsys, "density", "--law", "ppca", "--c", "0.4", "--grid", "0.5:1.5:5"
        )
        assert code == 1 and out == ""
        rec = json.loads(err)
        assert rec["error"] == "SolverError"
        assert rec["message"].startswith("companion solve did not converge")


def test_cli_import_loads_no_scipy():
    # scipy is imported only by svd_full's gesvd retry, so an analytic CLI
    # call does not pay for its import
    src = str(pathlib.Path(spikedcov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, spikedcov.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
