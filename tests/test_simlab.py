import functools
import os

import numpy as np
import pytest
from scipy import stats

from conftest import ks_exact_oracle
from spikedcov import estimators, numkernel, rmt, simlab


BASE = "n=40\np=16\nmodel=gaussian\nreplicates=2\n"


def config(text=BASE, seed=5, **kw):
    return simlab.parse_config(text, seed=seed, **kw)


class TestParseConfig:
    def test_key_values_with_comments(self):
        cfg = simlab.parse_config(
            "# comment\nn = 100\np=40\nmodel=student_t\nnu=30\n"
            "sigma2=1\nreplicates=3\nseed=9\n"
        )
        assert (cfg.n, cfg.p, cfg.model, cfg.nu) == (100, 40, "student_t", 30.0)
        assert cfg.replicates == 3
        assert cfg.master_seed == 9
        assert cfg.c == pytest.approx(0.4)

    def test_seed_argument_overrides_file(self):
        cfg = simlab.parse_config("n=40\np=16\nseed=1\n", seed=2)
        assert cfg.master_seed == 2

    def test_seed_required_somewhere(self):
        with pytest.raises(ValueError, match="seed"):
            simlab.parse_config("n=40\np=16\n")

    def test_rejects_unknown_and_duplicate_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            config("n=40\np=16\nwidth=3\n")
        with pytest.raises(ValueError, match="duplicate"):
            config("n=40\nn=50\np=16\n")

    def test_requires_dimensions(self):
        with pytest.raises(ValueError):
            config("p=16\n")
        with pytest.raises(ValueError):
            config("n=40\n")

    def test_rejects_inconsistent_ratio(self):
        with pytest.raises(ValueError, match="c"):
            config("n=40\np=16\nc=0.5\n")
        cfg = config("n=40\np=16\nc=0.4\n")
        assert cfg.c == pytest.approx(0.4)

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            config("n=40\np=16\nnonsense\n")

    def test_design_spikes(self):
        cfg = config("n=40\np=16\nspikes=design\n")
        star = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0)).lambda_star
        assert cfg.spikes == pytest.approx((10.0 * star, 5.0 * star))

    def test_explicit_and_empty_spikes(self):
        cfg = config("n=40\np=16\nspikes=7.5,3.25\n")
        assert cfg.spikes == (7.5, 3.25)
        assert config("n=40\np=16\nspikes=none\n").spikes == ()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config("n=3\np=16\n")
        with pytest.raises(ValueError):
            config("n=40\np=16\nmodel=student_t\nnu=2.0\n")
        with pytest.raises(ValueError):
            config("n=40\np=16\nmodel=student_t\n")
        with pytest.raises(ValueError):
            config("n=40\np=16\nmodel=cauchy\n")
        with pytest.raises(ValueError):
            config("n=40\np=16\nnu=30\n")
        with pytest.raises(ValueError):
            config("n=40\np=2\nspikes=9.0,8.0\n")

    def test_infinite_kurtosis_flag(self):
        cfg = config("n=40\np=16\nmodel=student_t\nnu=2.5\n")
        assert "infinite-kurtosis" in cfg.flags
        calm = config("n=40\np=16\nmodel=student_t\nnu=30\n")
        assert calm.flags == ()


class TestGenData:
    def test_deterministic_per_key(self):
        cfg = config()
        a = simlab.gen_data(cfg, 3)
        b = simlab.gen_data(cfg, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, simlab.gen_data(cfg, 4))

    def test_shape(self):
        x = simlab.gen_data(config(), 0)
        assert x.shape == (40, 16)

    def test_gaussian_identity_lln(self):
        cfg = config("n=20000\np=4\nmodel=gaussian\nreplicates=1\n", seed=11)
        x = simlab.gen_data(cfg, 0)
        s = x.T @ x / cfg.n
        assert np.max(np.abs(s - np.eye(4))) < 0.05

    def test_student_t_variance_normalized(self):
        cfg = config(
            "n=10000\np=4\nmodel=student_t\nnu=30\nsigma2=2.0\nreplicates=1\n",
            seed=12,
        )
        x = simlab.gen_data(cfg, 0)
        var = np.mean(x**2, axis=0)
        assert np.max(np.abs(var - 2.0) / 2.0) < 0.05

    def test_spiked_covariance_diagonal(self):
        cfg = config("n=60000\np=3\nspikes=9.0\nreplicates=1\n", seed=13)
        x = simlab.gen_data(cfg, 0)
        eigs = np.linalg.eigvalsh(x.T @ x / cfg.n)[::-1]
        assert eigs[0] == pytest.approx(9.0, rel=0.06)
        assert eigs[1:] == pytest.approx(np.ones(2), rel=0.06)


class TestSpectrumRunner:
    def test_exact_zero_fractions_wide_case(self):
        cfg = config("n=40\np=60\nmodel=gaussian\nreplicates=2\n", seed=5)
        rep = simlab.run_spectrum_experiment(cfg)
        cols = dict(zip(rep.columns, zip(*rep.records)))
        assert all(v == pytest.approx(2.0 / 3.0) for v in cols["zero_frac_ppca"])
        assert all(v == pytest.approx(1.0 / 3.0) for v in cols["zero_frac_pca"])

    def test_tall_case_has_no_zero_mass(self):
        rep = simlab.run_spectrum_experiment(config())
        cols = dict(zip(rep.columns, zip(*rep.records)))
        assert all(v == 0.0 for v in cols["zero_frac_ppca"])
        assert all(v == 0.0 for v in cols["zero_frac_pca"])
        for name in ("ks_ppca", "ks_pca"):
            assert all(0.0 <= v <= 1.0 for v in cols[name])

    def test_histogram_table_normalized(self):
        rep = simlab.run_spectrum_experiment(config())
        table = {t[0]: t for t in rep.tables}["histogram"]
        _, cols, rows = table
        i_lo, i_hi, i_d = cols.index("bin_lo"), cols.index("bin_hi"), cols.index("density")
        for method in ("ppca", "pca"):
            mass = sum(
                (r[i_hi] - r[i_lo]) * r[i_d] for r in rows if r[0] == method
            )
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_overlay_matches_closed_forms(self):
        rep = simlab.run_spectrum_experiment(config())
        table = {t[0]: t for t in rep.tables}["overlay"]
        _, cols, rows = table
        params = rmt.SsmParams(c=0.4, sigma2=1.0)
        it = cols.index("t")
        for name, fn in (
            ("ppca_pdf", rmt.ssm_g_pdf),
            ("pca_pdf", rmt.ssm_f_pdf),
            ("ppca_cdf", rmt.ssm_g_cdf),
            ("pca_cdf", rmt.ssm_f_cdf),
        ):
            j = cols.index(name)
            for r in rows[:: len(rows) // 10]:
                assert r[j] == pytest.approx(float(fn(params, r[it])), abs=1e-9)


class TestGesddRegression:
    def test_wide_fit_needs_no_gesvd_retry(self, monkeypatch):
        # gesdd did not converge on the 2000 x 2000 rank-500 product of this
        # replicate; the 500 x 500 core the vectors route decomposes converges
        cfg = config("n=1000\np=2000\nmodel=gaussian\nreplicates=1\n", seed=15)
        x = simlab.gen_data(cfg, 0)
        gesvd = numkernel.scipy.linalg.svd
        retries = []

        def counting(*args, **kwargs):
            retries.append(np.shape(args[0]))
            return gesvd(*args, **kwargs)

        monkeypatch.setattr(numkernel.scipy.linalg, "svd", counting)
        fit = estimators.ppca_fit(x, simlab._split_stream(cfg, 0), vectors=True)
        assert retries == []
        assert np.count_nonzero(fit.singular_values == 0.0) == 1500
        assert np.all(fit.singular_values[:500] > 0.0)


class TestKsPair:
    @pytest.mark.parametrize("n, p", [(60, 24), (30, 60)])
    def test_exact_statistics(self, n, p):
        # c = 0.4 has no point mass at zero; c = 2 has one for both laws
        cfg = config(f"n={n}\np={p}\nmodel=gaussian\nreplicates=1\n", seed=3)
        params = rmt.SsmParams(c=cfg.c, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        x = simlab.gen_data(cfg, 0)
        fits = (
            (
                estimators.ppca_fit(x, simlab._split_stream(cfg, 0)).singular_values,
                rmt.ssm_g_cdf,
                consts.mass0_ppca,
            ),
            (estimators.pca_fit(x).eigenvalues, rmt.ssm_f_cdf, consts.mass0_pca),
        )
        for values, law, mass0 in fits:
            cdf = functools.partial(law, params)
            full, cond = simlab._ks_pair(values, cdf, mass0)
            assert full == pytest.approx(ks_exact_oracle(values, cdf, mass0), abs=1e-15)
            positive = values[values > 0.0]
            assert np.count_nonzero(values == 0.0) / p == pytest.approx(mass0, abs=1e-12)

            def conditional(t):
                return np.maximum(0.0, (cdf(t) - mass0) / (1.0 - mass0))

            want = stats.ks_1samp(positive, conditional).statistic
            assert cond == pytest.approx(want, abs=1e-15)


class TestSpikeRunner:
    def test_requires_spikes(self):
        with pytest.raises(ValueError):
            simlab.run_spike_experiment(config())

    def test_theory_table_and_columns(self):
        cfg = config("n=120\np=48\nspikes=design\nreplicates=2\n", seed=6)
        rep = simlab.run_spike_experiment(cfg)
        theory = dict({t[0]: t for t in rep.tables}["theory"][2])
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0))
        star = consts.lambda_star
        assert theory["ppca_threshold"] == pytest.approx(star, rel=1e-9)
        assert theory["pca_threshold"] == pytest.approx(consts.lambda_prime, rel=1e-9)
        assert theory["population_spike_1"] == pytest.approx(10 * star, rel=1e-9)
        assert theory["population_spike_2"] == pytest.approx(5 * star, rel=1e-9)
        lam1 = 10 * star
        assert theory["ppca_limit_1"] == pytest.approx(
            lam1 * (1 + 0.8 / (lam1**2 - 1)), rel=1e-9
        )
        assert theory["pca_limit_1"] == pytest.approx(
            lam1 * (1 + 0.4 / (lam1 - 1)), rel=1e-9
        )
        assert theory["ppca_edge_upper"] == pytest.approx(consts.b, rel=1e-9)
        assert theory["pca_edge_upper"] == pytest.approx(consts.b_prime, rel=1e-9)
        for m in ("ppca", "pca"):
            for col in (f"{m}_lam_1", f"{m}_debiased_1", f"{m}_lam_3", f"{m}_lam_min"):
                assert col in rep.columns

    def test_estimates_land_near_theory(self):
        cfg = config("n=600\np=240\nspikes=design\nreplicates=3\n", seed=8)
        rep = simlab.run_spike_experiment(cfg)
        agg = {a[0]: a[1] for a in rep.aggregates}
        theory = dict({t[0]: t for t in rep.tables}["theory"][2])
        assert agg["ppca_lam_1"] == pytest.approx(theory["ppca_limit_1"], rel=0.05)
        assert agg["pca_lam_1"] == pytest.approx(theory["pca_limit_1"], rel=0.05)
        assert agg["ppca_debiased_1"] == pytest.approx(
            theory["population_spike_1"], rel=0.05
        )
        assert agg["pca_lam_min"] == pytest.approx(theory["pca_edge_lower"], abs=0.05)


class TestRobustnessRunner:
    def test_requires_spikes(self):
        with pytest.raises(ValueError):
            simlab.run_robustness_experiment(config())

    def test_xi_nondecreasing_and_rank_positive(self):
        cfg = config(
            "n=120\np=48\nmodel=student_t\nnu=2.5\nspikes=design\nreplicates=2\n",
            seed=7,
        )
        rep = simlab.run_robustness_experiment(cfg)
        assert "infinite-kurtosis" in rep.flags
        idx = {c: i for i, c in enumerate(rep.columns)}
        for record in rep.records:
            for m in ("ppca", "pca"):
                xs = [record[idx[f"xi_{m}_{q}"]] for q in range(2, simlab.XI_Q_MAX + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
                assert 0.0 <= xs[0] <= 1.0
            assert record[idx["rank_ppca"]] >= 0
            assert record[idx["rank_pca"]] >= 0

    def test_rejects_product_rank_below_spike_count(self):
        # n // 2 = 2 fused vectors cannot span three signal directions
        cfg = config("n=5\np=12\nspikes=9,8,7\nreplicates=1\n", seed=3)
        with pytest.raises(ValueError, match="columns"):
            simlab.run_robustness_experiment(cfg)

    def test_clean_regime_recovers_rank_two(self):
        cfg = config(
            "n=500\np=200\nmodel=student_t\nnu=30\nspikes=design\nreplicates=2\n",
            seed=9,
        )
        rep = simlab.run_robustness_experiment(cfg)
        agg = {a[0]: a[1] for a in rep.aggregates}
        assert agg["rank_ppca"] == pytest.approx(2.0, abs=0.5)
        assert agg["rank_pca"] == pytest.approx(2.0, abs=0.5)
        assert agg["xi_ppca_2"] >= 0.95
        assert agg["xi_pca_2"] >= 0.95


class TestReportIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        prefix = str(tmp_path / "exp")
        rep = simlab.run_spectrum_experiment(config(seed=5))
        files = rep.write(prefix)
        assert os.path.exists(prefix + "_records.csv")
        assert os.path.exists(prefix + "_aggregates.csv")
        assert set(files) >= {prefix + "_records.csv", prefix + "_aggregates.csv"}
        back = simlab.load_report(prefix)
        assert back.columns == rep.columns
        flat = [v for row in rep.records for v in row]
        flat_back = [v for row in back.records for v in row]
        assert flat == pytest.approx(flat_back, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        simlab.run_spectrum_experiment(config(seed=5)).write(pa)
        simlab.run_spectrum_experiment(config(seed=5)).write(pb)
        for suffix in ("_records.csv", "_aggregates.csv", "_histogram.csv", "_overlay.csv"):
            with open(pa + suffix, "rb") as fa, open(pb + suffix, "rb") as fb:
                assert fa.read() == fb.read()

    def test_different_seed_changes_records(self, tmp_path):
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        simlab.run_spectrum_experiment(config(seed=5)).write(pa)
        simlab.run_spectrum_experiment(config(seed=6)).write(pb)
        with open(pa + "_records.csv", "rb") as fa, open(pb + "_records.csv", "rb") as fb:
            assert fa.read() != fb.read()

    def test_load_rejects_tampered_aggregates(self, tmp_path):
        prefix = str(tmp_path / "exp")
        simlab.run_spectrum_experiment(config(seed=5)).write(prefix)
        path = prefix + "_aggregates.csv"
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        name, mean, sd = lines[1].split(",")
        lines[1] = ",".join([name, str(float(mean) + 0.5), sd])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="aggregate"):
            simlab.load_report(prefix)

    def test_csv_format_contract(self, tmp_path):
        path = str(tmp_path / "t.csv")
        simlab.write_csv(path, ("alpha", "k"), [(0.123456789012345, 2), (1e-12, 3)])
        with open(path, "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "alpha,k"
        assert text.splitlines()[1] == "0.123456789,2"
        assert text.splitlines()[2] == "1e-12,3"
