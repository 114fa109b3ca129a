import csv
import dataclasses
import functools
import io
import os
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from conftest import ks_exact_oracle
from spikedcov import estimators, numkernel, rmt, simlab, spectra


BASE = "n=40\np=16\nmodel=gaussian\nreplicates=2\n"


def config(text=BASE, seed=5, **kw):
    return simlab.parse_config(text, seed=seed, **kw)


class TestParseConfig:
    def test_key_values_with_comments(self):
        cfg = simlab.parse_config(
            "# comment\nn = 100\np=40\nmodel=student_t\nnu=30\nsigma2=1\nreplicates=3\n",
            seed=9,
        )
        assert (cfg.n, cfg.p, cfg.model, cfg.nu) == (100, 40, "student_t", 30.0)
        assert cfg.replicates == 3
        assert cfg.master_seed == 9
        assert cfg.c == pytest.approx(0.4)

    def test_seed_required_somewhere(self):
        # the caller is the seed's only source: a seed line is an unknown key
        with pytest.raises(TypeError):
            simlab.parse_config("n=40\np=16\n")
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            simlab.parse_config("n=40\np=16\nseed=1\n", seed=2)

    def test_config_needs_master_seed(self):
        # like parse_config, the config has no default seed
        with pytest.raises(TypeError):
            simlab.ExperimentConfig(n=40, p=16)
        assert simlab.ExperimentConfig(n=40, p=16, master_seed=3).master_seed == 3

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
        # the ratio is always p/n: a c line is an unknown key, whatever it states
        for stated in ("0.5", "0.4"):
            with pytest.raises(ValueError, match="unknown key 'c'"):
                config(f"n=40\np=16\nc={stated}\n")
        assert config("n=40\np=16\n").c == 0.4

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            config("n=40\np=16\nnonsense\n")

    def test_design_spikes(self):
        cfg = config("n=40\np=16\nspikes=design\n")
        star = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0)).lambda_star
        assert cfg.spikes == pytest.approx((10.0 * star, 5.0 * star))

    def test_config_keys_are_the_config_fields(self):
        # one table converts each key's text and ExperimentConfig holds every
        # default; the seed comes only from the caller
        fields = {field.name for field in dataclasses.fields(simlab.ExperimentConfig)}
        assert set(simlab._CONFIG_KEYS) == fields - {"master_seed"}

    def test_absent_keys_take_the_config_defaults(self):
        cfg = config("# n and p only\nn = 40\n\np = 16\n", seed=5)
        assert cfg == simlab.ExperimentConfig(40, 16, 5)

    @pytest.mark.parametrize(
        "text, sigma2",
        [
            ("spikes=design\n", 1.0),
            ("sigma2=2\nspikes=design\n", 2.0),
            ("spikes=design\nsigma2=2\n", 2.0),
        ],
    )
    def test_design_spikes_read_the_bulk_level(self, text, sigma2):
        # an absent sigma2 is the ExperimentConfig default, and the line order
        # does not matter
        cfg = config("n=40\np=16\n" + text)
        star = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=sigma2)).lambda_star
        assert (cfg.sigma2, cfg.spikes) == (sigma2, (10.0 * star, 5.0 * star))

    def test_design_spikes_need_a_valid_config(self):
        # n = 0 used to divide by zero while placing the design spikes
        with pytest.raises(ValueError, match="n >= 4"):
            config("n=0\np=16\nspikes=design\n")
        with pytest.raises(ValueError, match="fewer spikes"):
            config("n=40\np=2\nspikes=design\n")

    def test_explicit_and_empty_spikes(self):
        cfg = config("n=40\np=16\nspikes=7.5,3.25\n")
        assert cfg.spikes == (7.5, 3.25)
        assert config("n=40\np=16\nspikes=none\n").spikes == ()

    def test_spikes_listed_largest_first(self):
        # records pair spike j with the j-th largest sample eigenvalue, so
        # the config lists spikes in that order
        with pytest.raises(ValueError, match="largest first"):
            config("n=40\np=16\nspikes=4,8\n")
        assert config("n=40\np=16\nspikes=8,4\n").spikes == (8.0, 4.0)
        assert config("n=40\np=16\nspikes=5,5\n").spikes == (5.0, 5.0)

    def test_seed_within_64_bits(self):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            config(seed=2**64 + 5)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            config(seed=-1)
        assert config(seed=2**64 - 1).master_seed == 2**64 - 1

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=40\np=0\n", "^need p >= 1 features, got 0$"),
            ("n=40\np=16\nsigma2=0\n", "^bulk level sigma2 must be positive and finite, got 0.0$"),
            ("n=40\np=16\nsigma2=-1\n", "^bulk level sigma2 must be positive and finite, got -1.0$"),
            ("n=40\np=16\nspikes=4,0\n", "^population spikes must be positive and finite$"),
            ("n=40\np=16\nspikes=4,-1\n", "^population spikes must be positive and finite$"),
            ("n=40\np=16\nreplicates=0\n", "^need at least one replicate, got 0$"),
        ],
    )
    def test_config_value_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            config(text)

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

    def test_rejects_negative_replicate_index(self):
        with pytest.raises(ValueError, match="^replicate index must be nonnegative$"):
            simlab.gen_data(config(), -1)

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


    @pytest.mark.parametrize("model", ["gaussian", "student_t"])
    @pytest.mark.parametrize("spikes", ["9.0", "9.0,4.0"])
    def test_spiked_data_matches_dense_rotation(self, model, spikes):
        # reference: the full Haar frame F rotating diag(root) densely, drawn
        # from the replicate's stream in the same order
        tail = "nu=5\n" if model == "student_t" else ""
        cfg = config(f"n=30\np=12\nmodel={model}\n{tail}sigma2=1.5\nspikes={spikes}\n", seed=17)
        x, signal = simlab._gen_data_full(cfg, 2)
        gen = numkernel.RngStream(17, 4).generator()
        frame = numkernel.haar_orthogonal(12, gen)
        if model == "gaussian":
            z, scale = gen.standard_normal((30, 12)), 1.0
        else:
            z, scale = gen.standard_t(5.0, size=(30, 12)), 3.0 / 5.0
        diag = np.full(12, 1.5)
        diag[: len(cfg.spikes)] = cfg.spikes
        want = ((z @ frame) * np.sqrt(scale * diag)) @ frame.T
        assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
        r = len(cfg.spikes)
        assert signal.shape == (12, r)
        assert np.allclose(signal.T @ signal, np.eye(r), atol=1e-14)
        assert np.max(np.abs(signal - frame[:, :r])) <= 1e-14


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
        gesvd = scipy.linalg.svd
        retries = []

        def counting(*args, **kwargs):
            retries.append(np.shape(args[0]))
            return gesvd(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counting)
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


    def test_spectrum_of_exact_zeros(self):
        # no positive value to score: the full statistic is the jump at 0
        # alone, the conditional one is 0, and the law is never evaluated
        def unused(t):
            raise AssertionError("the law must not be evaluated")

        assert simlab._ks_pair(np.zeros(8), unused, 0.75) == (0.25, 0.0)
        assert simlab._ks_pair(np.zeros(3), unused, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("n, p", [(60, 24), (30, 60)])
    def test_law_evaluated_once_per_pair(self, n, p):
        # both statistics read one CDF evaluation on the grid, and each equals
        # ks_distance against the full or the zero-conditioned law
        cfg = config(f"n={n}\np={p}\nmodel=gaussian\nreplicates=1\n", seed=4)
        params = rmt.SsmParams(c=cfg.c, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        pfit, cfit = estimators.fit_values(simlab.gen_data(cfg, 0), simlab._split_stream(cfg, 0))
        for values, law, mass0 in (
            (pfit.singular_values, rmt.ssm_g_cdf, consts.mass0_ppca),
            (cfit.eigenvalues, rmt.ssm_f_cdf, consts.mass0_pca),
        ):
            calls = []

            def counting(t):
                calls.append(np.size(t))
                return law(params, t)

            full, cond = simlab._ks_pair(values, counting, mass0)
            positive = values[values > 0.0]
            grid = np.unique(positive)
            assert calls == [grid.size]
            cdf = functools.partial(law, params)
            at_zero = abs((values.size - positive.size) / values.size - mass0)
            assert full == max(at_zero, spectra.ks_distance(values, cdf(grid), grid))
            if mass0 > 0.0:
                conditional = np.maximum(0.0, (cdf(grid) - mass0) / (1.0 - mass0))
                assert cond == spectra.ks_distance(positive, conditional, grid)
            else:
                assert cond == full


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

    def test_stuck_spike_limits_sit_on_the_upper_edges(self):
        # at c = 1/2 a spike of 1.2 is below both thresholds, so both limits
        # are the bulk's upper edges, the same floats as the support's
        cfg = config("n=100\np=50\nspikes=1.2\nreplicates=1\n", seed=4)
        theory = dict({t[0]: t for t in simlab.run_spike_experiment(cfg).tables}["theory"][2])
        assert theory["population_spike_1"] < min(theory["pca_threshold"], theory["ppca_threshold"])
        assert theory["ppca_limit_1"] == theory["ppca_edge_upper"]
        assert theory["pca_limit_1"] == theory["pca_edge_upper"]

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

    def test_rejects_more_spikes_than_scored(self):
        # with nine spikes no q in [9, XI_Q_MAX] is left to score
        spikes = ",".join(str(v) for v in range(20, 11, -1))
        cfg = config(f"n=60\np=30\nspikes={spikes}\nreplicates=1\n", seed=3)
        with pytest.raises(ValueError, match="at most XI_Q_MAX = 8 spikes, got 9"):
            simlab.run_robustness_experiment(cfg)

    @pytest.mark.parametrize(
        "text",
        [
            # tall: robustness_heavy's model at a quarter of its size
            "n=125\np=50\nmodel=student_t\nnu=2.5\nspikes=design\nreplicates=3\n",
            # wide: a product rank block of 4 columns, narrower than XI_Q_MAX
            "n=9\np=30\nspikes=design\nreplicates=3\n",
            # odd n: halves of 20 and 21 rows
            "n=41\np=70\nspikes=9,5,3\nreplicates=3\n",
        ],
        ids=["tall", "wide", "odd_n"],
    )
    def test_xi_scores_nested_frames_with_one_qr(self, monkeypatch, text):
        # the leading q columns of one QR span what a QR of those q columns
        # spans, so each xi_q agrees with a fresh per-q QR at roundoff
        cfg = config(text, seed=11)
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        rep = simlab.run_robustness_experiment(cfg)
        monkeypatch.undo()
        # the Haar signal frame and the product-PCA frame
        assert len(calls) == 2 * cfg.replicates
        q_values = range(max(2, len(cfg.spikes)), simlab.XI_Q_MAX + 1)
        idx = {c: i for i, c in enumerate(rep.columns)}
        for i, record in enumerate(rep.records):
            x, signal = simlab._gen_data_full(cfg, i)
            fused = estimators.ppca_fit(x, simlab._split_stream(cfg, i), vectors=True).fused_vectors
            vecs = estimators.pca_fit(x, vectors=True).eigenvectors
            for q in q_values:
                want_ppca = estimators.similarity_xi(np.linalg.qr(fused[:, :q])[0], signal)
                want_pca = estimators.similarity_xi(vecs[:, :q], signal)
                assert abs(record[idx[f"xi_ppca_{q}"]] - want_ppca) <= 1e-14
                assert abs(record[idx[f"xi_pca_{q}"]] - want_pca) <= 1e-14

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


def _recording_split_stream(monkeypatch, read_threads=None):
    """Log (replicate, thread id, BLAS count) at each replicate's split stream.

    Every runner draws one split stream per replicate, inside the replicate.
    """
    log = []
    split = simlab._split_stream

    def recording(cfg, i):
        log.append((i, threading.get_ident(), read_threads() if read_threads else None))
        return split(cfg, i)

    monkeypatch.setattr(simlab, "_split_stream", recording)
    return log


RUNNERS = {
    "spectrum": simlab.run_spectrum_experiment,
    "spike": simlab.run_spike_experiment,
    "robustness": simlab.run_robustness_experiment,
}


class TestConcurrentReplicates:
    @pytest.mark.parametrize(
        "kind, text",
        [
            ("spectrum", "n=60\np=120\nreplicates=3\n"),
            ("spectrum", "n=300\np=120\nreplicates=3\n"),
            ("spike", "n=600\np=240\nspikes=design\nreplicates=5\n"),
            ("spike", "n=200\np=400\nspikes=8,4\nreplicates=3\n"),
            ("robustness", "n=125\np=50\nmodel=student_t\nnu=2.5\nspikes=design\nreplicates=4\n"),
        ],
        ids=["spectrum_wide", "spectrum_tall", "spike_tall", "spike_wide", "robustness"],
    )
    def test_concurrent_and_serial_runs_write_the_same_bytes(
        self, monkeypatch, tmp_path, openblas_two_threads, kind, text
    ):
        cfg = config(text, seed=21)
        log = _recording_split_stream(monkeypatch, openblas_two_threads)
        concurrent = RUNNERS[kind](cfg).write(str(tmp_path / "concurrent"))
        main = threading.get_ident()
        assert sorted(i for i, _, _ in log) == list(range(cfg.replicates))
        # off the calling thread, on at most the budget of 2 threads
        assert main not in {ident for _, ident, _ in log}
        assert len({ident for _, ident, _ in log}) <= 2
        # one BLAS thread per replicate, and the budget back afterwards
        assert {threads for _, _, threads in log} == {1}
        assert openblas_two_threads() == 2

        log.clear()
        monkeypatch.setattr(numkernel, "_blas_threads", lambda: None)
        serial = RUNNERS[kind](cfg).write(str(tmp_path / "serial"))
        assert [(i, ident) for i, ident, _ in log] == [(i, main) for i in range(cfg.replicates)]
        assert len(concurrent) == len(serial)
        for a, b in zip(concurrent, serial):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), os.path.basename(a)

    def test_first_failing_replicate_raises_as_in_a_serial_run(self, monkeypatch, fake_blas):
        # replicate 3 fails at once and replicate 1 late, yet 1 is reported
        split = simlab._split_stream

        def failing(cfg, i):
            if i == 1:
                time.sleep(0.05)
            if i in (1, 3):
                raise ValueError(f"replicate {i} failed")
            return split(cfg, i)

        monkeypatch.setattr(simlab, "_split_stream", failing)
        cfg = config("n=40\np=16\nspikes=4\nreplicates=5\n", seed=2)
        for budget in (4, 1):
            fake = fake_blas(budget)
            for run in RUNNERS.values():
                with pytest.raises(ValueError, match="^replicate 1 failed$"):
                    run(cfg)
            assert fake.threads == budget
            assert fake.sets == ([1, budget] * 3 if budget > 1 else [])

    def test_fit_error_and_blas_count_as_in_a_serial_run(self, monkeypatch, openblas_two_threads):
        # n // 2 = 2 fused vectors cannot span three signal directions
        cfg = config("n=5\np=12\nspikes=9,8,7\nreplicates=3\n", seed=3)
        ok = config("n=125\np=50\nspikes=design\nreplicates=3\n", seed=3)
        simlab.run_robustness_experiment(ok)
        assert openblas_two_threads() == 2
        with pytest.raises(ValueError) as concurrent:
            simlab.run_robustness_experiment(cfg)
        assert openblas_two_threads() == 2
        monkeypatch.setattr(numkernel, "_blas_threads", lambda: None)
        with pytest.raises(ValueError) as serial:
            simlab.run_robustness_experiment(cfg)
        assert type(concurrent.value) is type(serial.value)
        assert str(concurrent.value) == str(serial.value)
        assert "columns" in str(serial.value)

    @pytest.mark.parametrize("kind", sorted(RUNNERS))
    def test_one_replicate_stays_in_the_calling_thread(self, monkeypatch, fake_blas, kind):
        # spectrum_wide's path: one replicate never looks up or sets the BLAS count
        fake = fake_blas(2)
        log = _recording_split_stream(monkeypatch)
        RUNNERS[kind](config("n=70\np=140\nspikes=design\nreplicates=1\n", seed=4))
        assert [(i, ident) for i, ident, _ in log] == [(0, threading.get_ident())]
        assert (fake.lookups, fake.sets) == (0, [])

    def test_budget_of_one_runs_serially_without_setting(self, monkeypatch, fake_blas):
        # OPENBLAS_NUM_THREADS=1: the count is read, never set
        fake = fake_blas(1)
        log = _recording_split_stream(monkeypatch)
        simlab.run_robustness_experiment(config("n=40\np=16\nspikes=4\nreplicates=3\n", seed=4))
        main = threading.get_ident()
        assert [(i, ident) for i, ident, _ in log] == [(i, main) for i in range(3)]
        assert (fake.lookups, fake.sets) == (1, [])


class TestReport:
    def test_aggregates_derive_from_records(self):
        # records are stored as float tuples; aggregates are not a field
        rep = simlab.ExperimentReport(
            "spike", ("replicate", "a", "b"), [(0, 1, 2.0), (np.int64(1), 3, np.float32(2.5))]
        )
        assert rep.records == ((0.0, 1.0, 2.0), (1.0, 3.0, 2.5))
        assert {type(v) for row in rep.records for v in row} == {float}
        assert rep.aggregates == (
            ("a", 2.0, float(np.std([1.0, 3.0], ddof=1))),
            ("b", 2.25, float(np.std([2.0, 2.5], ddof=1))),
        )
        one = simlab.ExperimentReport("spike", ("replicate", "a"), [(0, 4.0)])
        assert one.aggregates == (("a", 4.0, 0.0),)
        fields = [field.name for field in dataclasses.fields(simlab.ExperimentReport)]
        assert fields == ["kind", "columns", "records", "tables", "flags"]

    @pytest.mark.parametrize("records", [(), [(0, 1.0, 5.0)], [(0, 1.0), (1,)]])
    def test_records_fill_the_columns(self, records):
        # the aggregates are derived from the records, so a report needs some,
        # and a cell past the columns would be written but never aggregated
        with pytest.raises(ValueError, match="one cell per column"):
            simlab.ExperimentReport("spike", ("replicate", "a"), records)


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

    def test_load_rejects_renamed_aggregate_column(self, tmp_path):
        prefix = str(tmp_path / "exp")
        simlab.run_spectrum_experiment(config(seed=5)).write(prefix)
        path = prefix + "_aggregates.csv"
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text.replace("\nks_ppca,", "\nks_other,"))
        with pytest.raises(
            ValueError, match="^aggregate column mismatch: 'ks_other' vs 'ks_ppca'$"
        ):
            simlab.load_report(prefix)

    def test_load_returns_aggregates_of_the_records(self, tmp_path):
        # stored aggregates within the 1e-8 rule pass the check, and the
        # loaded report derives its own from the records it read
        prefix = str(tmp_path / "exp")
        simlab.run_spectrum_experiment(config(seed=5)).write(prefix)
        path = prefix + "_aggregates.csv"
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        name, mean, sd = lines[1].split(",")
        lines[1] = ",".join([name, repr(float(mean) + 1e-10), sd])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        back = simlab.load_report(prefix)
        data = np.array(back.records)
        assert back.aggregates[0] == (
            name,
            float(np.mean(data[:, 1])),
            float(np.std(data[:, 1], ddof=1)),
        )

    @pytest.mark.parametrize(
        "records, aggregates",
        [
            ("replicate,a\n0,1,5\n1,2,6\n", "column,mean,sd\na,1.5,0.7071067812\n"),
            ("replicate,a\n0,1\n1,2\n", "column,mean,sd\na,1.5\n"),
            ("", "column,mean,sd\na,1.5,0.7071067812\n"),
            ("replicate,a\n0,1\n1,2\n", ""),
        ],
    )
    def test_load_rejects_malformed_files(self, tmp_path, records, aggregates):
        # a wide record row used to load with its extra cell ignored, and a
        # short aggregates row or an empty file raised IndexError or
        # StopIteration
        prefix = str(tmp_path / "exp")
        for name, text in (("records", records), ("aggregates", aggregates)):
            with open(f"{prefix}_{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(text)
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("t", "v"), [(0.1, 1e-300), (np.float64(2.5), -0.0), (float("inf"), float("nan"))]),
            (("j", "k"), [(1, np.int64(-7)), (True, np.uint8(3))]),
            (("method", "v"), [("ppca", 1.5), ("pca", np.float64(2.0))]),
            (("name", "v"), [("a b", 1.0), ("say hi!", 2.0), ("tab\there", 3.0), ("\u00fcn\u00efcode", 4.0)]),
            (("name",), [("x",), ("yz",)]),
            (("v", "name"), [(1.0, "pca")]),
            (("a", "b"), [(1, 2.0), (np.int64(3), np.float32(4.5)), (False, np.float64(6.0))]),
            (("a", "b"), [(np.float32(0.1), 1.0)]),
            (("a", "b", "c"), [(1.0, 2.0, 3.0), (-1e20, 5e-7, 123456789012.0)]),
            (("a",), []),
        ],
    )
    def test_rows_match_cell_by_cell_csv(self, columns, rows):
        # the one-pass format writes the bytes of csv.writer over each cell
        # formatted on its own: text verbatim, integers as str(int), anything
        # else as %.10g
        def cell(value):
            if isinstance(value, str):
                return value
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return "%.10g" % float(value)

        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(v) for v in row])
        for given in (rows, iter(rows)):
            assert simlab._csv_text(columns, given) == want.getvalue()

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("name", "v"), [("a,b", 1.0), ('say "hi"', 2.0), ("two\nlines", 3.0), ("cr\r", 4.0)]),
            (("name",), [("",), ("x",)]),
            (("name", "v"), [("", 1.0)]),
            (("a", "b"), [(1, 2.0), (1.5, 2)]),
            (("a", "b"), [(1.0, 2.0), (3.0,)]),
        ],
    )
    def test_odd_tables_raise_and_leave_no_file(self, columns, rows, tmp_path):
        # rows that differ in cell conversions, and text cells that are empty
        # or would need csv quoting, have no one-line format
        path = tmp_path / "out" / "t.csv"
        with pytest.raises(ValueError):
            simlab.write_csv(str(path), columns, rows)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError):
            simlab._csv_text(columns, iter(rows))

    @pytest.mark.parametrize("columns", [("a,b", "v"), ("", "v"), ('"q"', "v"), ("a\nb", "v")])
    def test_odd_header_raises(self, columns):
        with pytest.raises(ValueError, match="text cells"):
            simlab._csv_text(columns, [(1.0, 2.0)])
