import numpy as np
import pytest

from spikedcov import robustness as rb
from spikedcov.numkernel import RngStream, psd_sqrt, sym_eig


def scenario(epsilon=0.01, etas=(70.0, 70.0), k1=1, lambda1=3.0, c=0.4):
    return rb.PerturbationScenario(
        epsilon=epsilon, etas=tuple(etas), k1=k1, lambda1=lambda1, c=c
    )


def predicted_values(spec):
    vals = [spec.signal_eigenvalue, spec.bulk_level]
    vals.extend(v for _, v in spec.noise_eigenvalues)
    return vals


class TestScenarioValidation:
    def test_counts(self):
        s = scenario()
        assert s.k == 2
        assert s.k2 == 1

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            scenario(epsilon=0.0)
        with pytest.raises(ValueError):
            scenario(epsilon=1.0)

    def test_total_contamination_bound(self):
        with pytest.raises(ValueError):
            scenario(epsilon=0.30, etas=(5.0,) * 4, k1=2)

    def test_half_contamination_bound(self):
        with pytest.raises(ValueError):
            scenario(epsilon=0.30, etas=(5.0, 5.0), k1=2)

    def test_signal_must_be_distant(self):
        star = np.sqrt(1.0 + 0.4 + np.sqrt(0.4**2 + 4 * 0.4))
        with pytest.raises(ValueError):
            scenario(lambda1=star * 0.99)
        scenario(lambda1=star * 1.01)

    @pytest.mark.parametrize("c", [0.0, -0.4, np.nan, np.inf])
    def test_ratio_rule(self, c):
        # the SsmParams the scenario builds for its threshold holds the rule
        with pytest.raises(ValueError, match="^aspect ratio c must be positive and finite$"):
            scenario(c=c)

    def test_huge_ratio_accepted(self):
        # the distant-signal floor lambda* is about sqrt(2c)
        s = scenario(c=1e103, lambda1=1e52)
        assert s.c == 1e103
        with pytest.raises(ValueError, match="overflow"):
            scenario(c=1e200, lambda1=1e101)

    def test_unit_bulk_only(self):
        # the analytic model is derived at unit noise: there is no sigma2 to set
        with pytest.raises(TypeError):
            rb.PerturbationScenario(
                epsilon=0.01, etas=(70.0,), k1=1, lambda1=3.0, c=0.4, sigma2=2.0
            )

    def test_eta_positive_and_k1_range(self):
        with pytest.raises(ValueError):
            scenario(etas=(70.0, -1.0))
        with pytest.raises(ValueError):
            scenario(etas=(70.0,), k1=2)


class TestAnalyticSpectra:
    def test_pca_worked_example(self):
        spec = rb.pca_perturbed_spectrum(scenario())
        assert spec.signal_eigenvalue == pytest.approx(2.94)
        assert spec.bulk_level == pytest.approx(0.98)
        assert [k for k, _ in spec.noise_eigenvalues] == [1, 2]
        for _, v in spec.noise_eigenvalues:
            assert v == pytest.approx(1.68)

    def test_ppca_worked_example(self):
        spec = rb.ppca_perturbed_spectrum(scenario(), assignment={1})
        assert spec.signal_eigenvalue == pytest.approx(0.98 * 3.0)
        assert spec.bulk_level == pytest.approx(0.98)
        for _, v in spec.noise_eigenvalues:
            assert v == pytest.approx(np.sqrt(0.98 * 2.38))

    def test_pca_noise_signal_tie_boundary(self):
        s = scenario(etas=(0.98 / 0.01 * 2.0, 70.0))
        spec = rb.pca_perturbed_spectrum(s)
        assert spec.noise_eigenvalues[0][1] == pytest.approx(spec.signal_eigenvalue)

    def test_vanishing_contamination_recovers_clean_model(self):
        s = scenario(epsilon=1e-12)
        spec = rb.pca_perturbed_spectrum(s)
        assert spec.signal_eigenvalue == pytest.approx(3.0, abs=1e-8)
        assert spec.bulk_level == pytest.approx(1.0, abs=1e-10)
        pspec = rb.ppca_perturbed_spectrum(s, assignment={1})
        assert pspec.signal_eigenvalue == pytest.approx(3.0, abs=1e-8)
        assert pspec.bulk_level == pytest.approx(1.0, abs=1e-10)

    def test_lopsided_assignment(self):
        s = scenario(etas=(70.0, 40.0), k1=2)
        spec = rb.ppca_perturbed_spectrum(s, assignment={1, 2})
        shrink = np.sqrt((1 - 2 * 0.01 * 2) * 1.0)
        assert spec.bulk_level == pytest.approx(shrink)
        assert spec.signal_eigenvalue == pytest.approx(shrink * 3.0)
        expected = {
            1: np.sqrt(1.0 * (1 - 0.04 + 0.02 * 70.0)),
            2: np.sqrt(1.0 * (1 - 0.04 + 0.02 * 40.0)),
        }
        for k, v in spec.noise_eigenvalues:
            assert v == pytest.approx(expected[k])

    def test_rejects_bad_assignment(self):
        s = scenario()
        with pytest.raises(ValueError):
            rb.ppca_perturbed_spectrum(s, assignment={1, 2})
        with pytest.raises(ValueError):
            rb.ppca_perturbed_spectrum(s, assignment={3})
        with pytest.raises(ValueError):
            rb.ppca_perturbed_spectrum(s, assignment=None)


class TestMatrixOracles:
    def test_full_covariance_matches_analytic_spectrum(self):
        for etas, k1 in (((70.0,), 1), ((70.0, 40.0), 1), ((90.0, 50.0, 20.0), 2)):
            s = scenario(etas=etas, k1=k1)
            sigma = rb.build_perturbed_sigma(s, 10, RngStream(21, 0))
            eigs = sym_eig(sigma)[0]
            pred = sorted(predicted_values(rb.pca_perturbed_spectrum(s)), reverse=True)
            assert np.max(np.abs(eigs[: len(pred)] - pred)) < 1e-10
            assert np.max(np.abs(eigs[len(pred) :] - eigs[-1])) < 1e-10

    def test_half_product_matches_analytic_spectrum(self):
        cases = (
            ((70.0, 40.0), 1, frozenset({1})),
            ((70.0, 40.0), 2, frozenset({1, 2})),
            ((90.0, 50.0, 20.0), 1, frozenset({2})),
        )
        for etas, k1, assign in cases:
            s = scenario(etas=etas, k1=k1)
            s1, s2 = rb.build_perturbed_half_sigmas(s, 10, RngStream(22, 0), assign)
            prod = psd_sqrt(s1) @ psd_sqrt(s2)
            sing = np.linalg.svd(prod, compute_uv=False)
            pred = sorted(
                predicted_values(rb.ppca_perturbed_spectrum(s, assign)), reverse=True
            )
            assert np.max(np.abs(sing[: len(pred)] - pred)) < 1e-8

    def test_tiny_epsilon_leaves_sigma_unchanged(self):
        s = scenario(epsilon=1e-13, etas=(1e-13,), k1=1)
        sigma = rb.build_perturbed_sigma(s, 8, RngStream(23, 0))
        eigs = sym_eig(sigma)[0]
        assert eigs[0] == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(eigs[1:] - 1.0)) < 1e-10

    @pytest.mark.parametrize("p", [10, 200])
    def test_builders_exactly_symmetric(self, p):
        for etas, k1, assign in (((70.0,), 1, {1}), ((90.0, 50.0, 20.0), 2, {1, 3})):
            s = scenario(etas=etas, k1=k1)
            sigma = rb.build_perturbed_sigma(s, p, RngStream(24, p))
            assert np.array_equal(sigma, sigma.T)
            for half in rb.build_perturbed_half_sigmas(s, p, RngStream(25, p), assign):
                assert np.array_equal(half, half.T)

    def test_rejects_small_dimension(self):
        # both builders hold the signal and the K outlier directions in one frame
        with pytest.raises(ValueError, match=r"^need p >= K \+ 1 = 3, got p = 2$"):
            rb.build_perturbed_sigma(scenario(), 2, RngStream(0, 0))
        with pytest.raises(ValueError, match=r"^need p >= K \+ 1 = 3, got p = 2$"):
            rb.build_perturbed_half_sigmas(scenario(), 2, RngStream(0, 0), (1,))

    def test_rejects_repeated_assignment_indices(self):
        for call in (
            lambda a: rb.build_perturbed_half_sigmas(scenario(), 10, RngStream(0, 0), a),
            lambda a: rb.ppca_perturbed_spectrum(scenario(), a),
        ):
            with pytest.raises(ValueError, match="^assignment indices must be distinct$"):
                call((1, 1))


class TestPredicates:
    def test_worked_detection_example(self):
        s = scenario()
        assert rb.noise_is_spiked(s, 1, "pca")
        assert not rb.noise_is_spiked(s, 1, "ppca", assignment={1})

    def test_detection_thresholds_exact(self):
        s = scenario()
        pca_bound = (0.98 / 0.01) * np.sqrt(0.4)
        assert pca_bound == pytest.approx(61.98, abs=0.01)
        below = scenario(etas=(pca_bound * 0.999, 70.0))
        above = scenario(etas=(pca_bound * 1.001, 70.0))
        assert not rb.noise_is_spiked(below, 1, "pca")
        assert rb.noise_is_spiked(above, 1, "pca")
        ppca_bound = (0.98 / 0.01) * (0.4 + np.sqrt(0.4**2 + 1.6)) / 2.0
        assert ppca_bound == pytest.approx(84.6061, rel=1e-4)
        below = scenario(etas=(ppca_bound * 0.999, 70.0))
        above = scenario(etas=(ppca_bound * 1.001, 70.0))
        assert not rb.noise_is_spiked(below, 1, "ppca", assignment={1})
        assert rb.noise_is_spiked(above, 1, "ppca", assignment={1})

    def test_extreme_eta_detected_by_both(self):
        s = scenario(etas=(1e6, 70.0))
        assert rb.noise_is_spiked(s, 1, "pca")
        assert rb.noise_is_spiked(s, 1, "ppca", assignment={1})

    def test_small_epsilon_detected_by_neither(self):
        s = scenario(epsilon=1e-6)
        assert not rb.noise_is_spiked(s, 1, "pca")
        assert not rb.noise_is_spiked(s, 1, "ppca", assignment={1})

    def test_ordering_worked_example(self):
        s = scenario(etas=(200.0, 200.0))
        assert rb.ordering_breaks(s, 1, "pca")
        assert not rb.ordering_breaks(s, 1, "ppca", assignment={1})
        quiet = scenario(etas=(50.0, 50.0))
        assert not rb.ordering_breaks(quiet, 1, "pca")
        assert not rb.ordering_breaks(quiet, 1, "ppca", assignment={1})

    def test_ordering_bounds_exact(self):
        s = scenario(etas=(196.0 * 1.001, 70.0))
        assert rb.ordering_breaks(s, 1, "pca")
        s = scenario(etas=(196.0 * 0.999, 70.0))
        assert not rb.ordering_breaks(s, 1, "pca")
        s = scenario(etas=(392.0 * 1.001, 70.0))
        assert rb.ordering_breaks(s, 1, "ppca", assignment={1})
        s = scenario(etas=(392.0 * 0.999, 70.0))
        assert not rb.ordering_breaks(s, 1, "ppca", assignment={1})

    def test_weak_signal_ordering_fragile_for_pca(self):
        s = scenario(lambda1=1.661, etas=(70.0, 70.0))
        # bound (1-K eps)(lambda1 - 1)/eps = 98 * 0.661 = 64.8 < 70
        assert rb.ordering_breaks(s, 1, "pca")

    def test_monotone_in_eta_and_epsilon(self):
        for method, assign in (("pca", None), ("ppca", {1})):
            flips_eta = [
                rb.noise_is_spiked(scenario(etas=(e, 70.0)), 1, method, assignment=assign)
                for e in np.linspace(10.0, 300.0, 30)
            ]
            assert flips_eta == sorted(flips_eta)
            flips_eps = [
                rb.noise_is_spiked(scenario(epsilon=eps), 1, method, assignment=assign)
                for eps in np.linspace(1e-4, 0.05, 30)
            ]
            assert flips_eps == sorted(flips_eps)
            breaks_eta = [
                rb.ordering_breaks(scenario(etas=(e, 70.0)), 1, method, assignment=assign)
                for e in np.linspace(10.0, 500.0, 40)
            ]
            assert breaks_eta == sorted(breaks_eta)

    def test_match_explicit_eta_bounds_across_parameter_space(self):
        # oracle: the paper's eta bounds, with K_l the outliers in k's half
        rng = np.random.default_rng(1313)
        checked = 0
        for _ in range(3000):
            k = int(rng.integers(1, 5))
            k1 = int(rng.integers(0, k + 1))
            c = float(10.0 ** rng.uniform(-3.0, np.log10(30.0)))
            eps = float(rng.uniform(1e-6, 1.0) / (2.0 * max(k1, k - k1)))
            etas = tuple(float(10.0 ** rng.uniform(-2.0, 5.0)) for _ in range(k))
            star = np.sqrt(1.0 + c + np.sqrt(c * c + 4.0 * c))
            lam = float(star * 10.0 ** rng.uniform(1e-6, 2.0))
            s = rb.PerturbationScenario(epsilon=eps, etas=etas, k1=k1, lambda1=lam, c=c)
            half_one = frozenset(
                rng.choice(np.arange(1, k + 1), size=k1, replace=False).tolist()
            )
            for idx, eta in enumerate(etas, start=1):
                k_l = k1 if idx in half_one else k - k1
                pca_scale = (1 - k * eps) / eps
                ppca_scale = (1 - 2 * k_l * eps) / (2 * eps)
                bounds = {
                    ("pca", rb.noise_is_spiked): pca_scale * np.sqrt(c),
                    ("pca", rb.ordering_breaks): pca_scale * (lam - 1),
                    ("ppca", rb.noise_is_spiked): ppca_scale * (c + np.sqrt(c * c + 4 * c)),
                    ("ppca", rb.ordering_breaks): ppca_scale * (lam * lam - 1),
                }
                for (method, pred), bound in bounds.items():
                    if abs(eta - bound) <= 1e-9 * bound:
                        continue
                    assign = half_one if method == "ppca" else None
                    assert pred(s, idx, method, assign) == (eta > bound), (
                        method, pred.__name__, s, idx, half_one
                    )
                    checked += 1
        assert checked > 20000

    def test_rejects_bad_index_or_method(self):
        s = scenario()
        with pytest.raises(ValueError):
            rb.noise_is_spiked(s, 0, "pca")
        with pytest.raises(ValueError):
            rb.noise_is_spiked(s, 3, "pca")
        with pytest.raises(ValueError):
            rb.noise_is_spiked(s, 1, "robust")

    @pytest.mark.parametrize("assignment", [{1}, frozenset(), ()])
    def test_pca_rejects_assignment(self, assignment):
        # classical PCA splits no sample; an assignment given to it used to
        # be ignored, even one that product PCA would reject
        s = scenario()
        for call in (
            lambda: rb.noise_is_spiked(s, 1, "pca", assignment),
            lambda: rb.ordering_breaks(s, 1, "pca", assignment),
            lambda: rb.target_rank(s, "pca", assignment),
            lambda: rb.target_rank(scenario(etas=(), k1=0), "pca", assignment),
        ):
            with pytest.raises(ValueError, match="takes no assignment"):
                call()


class TestTargetRank:
    def test_worked_examples(self):
        s = scenario()
        assert rb.target_rank(s, "pca") == 3
        assert rb.target_rank(s, "ppca", assignment={1}) == 1
        loud = scenario(etas=(200.0, 200.0))
        assert rb.target_rank(loud, "pca") == 3
        assert rb.target_rank(loud, "ppca", assignment={1}) == 3

    def test_no_outliers(self):
        s = scenario(etas=(), k1=0)
        assert rb.target_rank(s, "pca") == 1
        assert rb.target_rank(s, "ppca", assignment=frozenset()) == 1

    def test_rank_gap_under_eta_win(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            eps = float(rng.uniform(0.001, 0.04))
            k = int(rng.integers(1, 4))
            k1 = int(rng.integers(0, k + 1))
            etas = tuple(float(rng.uniform(5.0, 400.0)) for _ in range(k))
            c = float(rng.uniform(0.1, 3.0))
            star = np.sqrt(1.0 + c + np.sqrt(c * c + 4 * c))
            s = rb.PerturbationScenario(
                epsilon=eps, etas=etas, k1=k1, lambda1=star * 2.0, c=c
            )
            assign = frozenset(range(1, k1 + 1))
            cond = rb.comparative_conditions(s)
            if cond["eta_win"]:
                assert rb.target_rank(s, "ppca", assignment=assign) <= rb.target_rank(
                    s, "pca"
                )


class TestComparativeConditions:
    def test_balanced_split_always_wins(self):
        for eps in (0.001, 0.01, 0.05):
            for c in (0.1, 0.4, 1.0, 3.0):
                s = rb.PerturbationScenario(
                    epsilon=eps,
                    etas=(50.0, 50.0),
                    k1=1,
                    lambda1=3.0 * np.sqrt(1.0 + c + np.sqrt(c * c + 4 * c)),
                    c=c,
                )
                cond = rb.comparative_conditions(s)
                assert cond["eta_win"]
                assert cond["a_win"]

    def test_small_epsilon_all_true(self):
        s = scenario(epsilon=1e-6)
        cond = rb.comparative_conditions(s)
        assert cond == {"eta_win": True, "a_win": True, "worst_case_ok": True}

    def test_worst_case_worked_example(self):
        s = scenario(etas=(70.0, 70.0), k1=2)
        cond = rb.comparative_conditions(s)
        assert cond["worst_case_ok"]

    def test_eta_win_can_fail_when_one_half_takes_all(self):
        # push enough contamination into half 1 that the ppca detection
        # threshold drops below the pca one
        s = rb.PerturbationScenario(
            epsilon=0.155, etas=(50.0, 50.0, 50.0), k1=3, lambda1=9.0, c=0.05
        )
        cond = rb.comparative_conditions(s)
        assert not cond["eta_win"]
