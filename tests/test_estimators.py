import numpy as np
import pytest

from spikedcov import estimators
from spikedcov.numkernel import RngStream, psd_sqrt


def gaussian_data(n, p, seed=0):
    return RngStream(seed, 0).generator().standard_normal((n, p))


class TestSampleCov:
    def test_single_row_rank_one(self):
        x = np.array([[1.0, 2.0, 2.0]])
        s = estimators.sample_cov(x)
        assert np.allclose(s, np.outer(x[0], x[0]))
        assert np.linalg.matrix_rank(s) == 1

    def test_orthogonal_rows_give_diagonal_mix(self):
        p = 4
        x = np.sqrt(p) * np.eye(p)
        s = estimators.sample_cov(x)
        assert np.allclose(s, np.eye(p))

    def test_no_centering(self):
        x = np.ones((50, 3))
        s = estimators.sample_cov(x)
        assert np.allclose(s, np.ones((3, 3)))

    def test_law_of_large_numbers(self):
        x = gaussian_data(100_000, 5, seed=11)
        s = estimators.sample_cov(x)
        assert np.max(np.abs(s - np.eye(5))) < 0.05

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            estimators.sample_cov(np.empty((0, 3)))
        with pytest.raises(ValueError):
            estimators.sample_cov(np.array([[np.nan, 1.0]]))


class TestPcaFit:
    def test_repeated_coordinate_row(self):
        s = 3.0
        x = np.zeros((10, 4))
        x[:, 0] = s
        fit = estimators.pca_fit(x, vectors=True)
        assert fit.eigenvalues[0] == pytest.approx(s * s)
        assert np.allclose(fit.eigenvalues[1:], 0.0, atol=1e-12)
        assert abs(fit.eigenvectors[0, 0]) == pytest.approx(1.0)

    def test_rank_bound_and_order(self):
        x = gaussian_data(6, 10, seed=3)
        fit = estimators.pca_fit(x)
        assert np.all(np.diff(fit.eigenvalues) <= 1e-12)
        assert np.all(fit.eigenvalues >= 0.0)
        assert np.sum(fit.eigenvalues > 1e-10) <= 6

    def test_orthogonal_eigenvectors(self):
        x = gaussian_data(40, 8, seed=4)
        fit = estimators.pca_fit(x, vectors=True)
        assert np.allclose(fit.eigenvectors.T @ fit.eigenvectors, np.eye(8), atol=1e-10)


class TestPpcaFit:
    def test_identical_halves_reproduce_eigen_decomposition(self):
        # duplicated rows force both half covariances to coincide, and the
        # product factorization collapses onto the plain eigendecomposition
        base = gaussian_data(30, 6, seed=5)
        x = np.vstack([base, base])
        part = (np.arange(30), np.arange(30, 60))
        fit = estimators.ppca_fit(x, RngStream(0, 1), partition=part, vectors=True)
        ref = estimators.pca_fit(base, vectors=True)
        assert np.max(np.abs(fit.singular_values - ref.eigenvalues)) < 1e-8
        lead = ref.eigenvalues > 1e-8
        overlap = np.abs(np.sum(fit.fused_vectors * ref.eigenvectors, axis=0))
        assert np.all(overlap[lead] > 1.0 - 1e-6)

    def test_partition_sizes_and_cover(self):
        for n in (9, 10):
            x = gaussian_data(n, 3, seed=6)
            fit = estimators.ppca_fit(x, RngStream(1, 0))
            first, second = fit.partition
            assert sorted(np.concatenate([first, second]).tolist()) == list(range(n))
            assert abs(len(first) - len(second)) <= 1

    def test_split_is_reproducible(self):
        x = gaussian_data(20, 4, seed=7)
        a = estimators.ppca_fit(x, RngStream(3, 9))
        b = estimators.ppca_fit(x, RngStream(3, 9))
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.partition[0], b.partition[0])

    @pytest.mark.parametrize("n", [12, 13])
    def test_zero_singular_count_when_wide(self, n):
        # odd n splits into halves of 6 and 7 rows: a rectangular core
        p = 20
        x = gaussian_data(n, p, seed=8)
        fit = estimators.ppca_fit(x, RngStream(2, 0), vectors=True)
        assert np.count_nonzero(fit.singular_values == 0.0) == p - n // 2
        assert np.all(fit.singular_values[: n // 2] > 0.0)
        assert fit.fused_vectors.shape == (p, n // 2)
        cfit = estimators.pca_fit(x, vectors=True)
        assert np.count_nonzero(cfit.eigenvalues == 0.0) == p - n
        assert np.all(cfit.eigenvalues[:n] > 0.0)
        assert cfit.eigenvectors.shape == (p, n)

    @pytest.mark.parametrize(
        # (13, 6): one half square (6 rows), the other tall (7 rows)
        "n, p",
        [(40, 6), (12, 20), (13, 20), (20, 10), (8, 1), (4, 3), (5, 9), (13, 6)],
    )
    def test_matches_product_of_square_roots(self, n, p):
        # oracle: the full SVD of the explicit p x p product on the same split,
        # for the values of both routes and the vectors of the vectors route
        x = gaussian_data(n, p, seed=14)
        fit = estimators.ppca_fit(x, RngStream(6, 0), vectors=True)
        values_only = estimators.ppca_fit(x, RngStream(6, 0))
        first, second = fit.partition
        product = psd_sqrt(estimators.sample_cov(x[first])) @ psd_sqrt(
            estimators.sample_cov(x[second])
        )
        want = np.linalg.svd(product, compute_uv=False)
        rank = min(first.size, second.size, p)
        for s in (values_only.singular_values, fit.singular_values):
            assert s.shape == (p,)
            assert np.max(np.abs(s[:rank] - want[:rank])) <= 1e-7 * s[0]
            assert np.all(s[:rank] > 0.0) and np.all(s[rank:] == 0.0)
        assert fit.left_vectors.shape == fit.right_vectors.shape == (p, rank)
        lead = np.argmax(np.abs(fit.left_vectors), axis=0)
        assert np.all(fit.left_vectors[lead, np.arange(rank)] > 0.0)
        rebuilt = (fit.left_vectors * s[:rank]) @ fit.right_vectors.T
        assert np.max(np.abs(rebuilt - product)) <= 1e-7 * s[0]
        assert np.allclose(np.linalg.norm(fit.fused_vectors, axis=0), 1.0, atol=1e-12)

    def test_fused_unit_length(self):
        x = gaussian_data(16, 5, seed=9)
        fit = estimators.ppca_fit(x, RngStream(4, 0), vectors=True)
        norms = np.linalg.norm(fit.fused_vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            estimators.ppca_fit(gaussian_data(3, 2), RngStream(0))

    def test_rejects_bad_partition(self):
        x = gaussian_data(10, 3, seed=10)
        with pytest.raises(ValueError):
            estimators.ppca_fit(x, RngStream(0), partition=(np.arange(3), np.arange(3, 10)))
        with pytest.raises(ValueError):
            estimators.ppca_fit(x, RngStream(0), partition=(np.arange(5), np.arange(4, 10)))

    def test_fusion_fallback_on_anti_aligned_columns(self):
        u = np.eye(3)
        v = np.eye(3).copy()
        v[:, 1] = -v[:, 1]
        fused, fallback = estimators._fuse(u, v)
        assert fallback == (1,)
        assert np.allclose(fused[:, 1], u[:, 1])
        assert np.allclose(fused[:, 0], u[:, 0])

    def test_no_fallback_on_ordinary_data(self):
        x = gaussian_data(16, 5, seed=12)
        fit = estimators.ppca_fit(x, RngStream(5, 0), vectors=True)
        assert fit.fallback_columns == ()


# tall, wide, odd n (halves of 6 and 7 rows), p = 1, and the smallest n
ROUTE_SHAPES = [(40, 6), (12, 20), (13, 20), (13, 6), (9, 1), (4, 3), (4, 7)]


class TestFitRoutes:
    @pytest.mark.parametrize("n, p", ROUTE_SHAPES)
    def test_values_only_matches_vectors_route(self, n, p):
        x = gaussian_data(n, p, seed=15)
        pairs = (
            (estimators.pca_fit(x).eigenvalues, estimators.pca_fit(x, vectors=True).eigenvalues),
            (
                estimators.ppca_fit(x, RngStream(7, 0)).singular_values,
                estimators.ppca_fit(x, RngStream(7, 0), vectors=True).singular_values,
            ),
        )
        for values, reference in pairs:
            assert values.shape == reference.shape == (p,)
            assert np.max(np.abs(values - reference)) <= 1e-12 * reference[0]
            assert np.count_nonzero(values == 0.0) == np.count_nonzero(reference == 0.0)

    def test_values_only_returns_no_vectors(self):
        x = gaussian_data(12, 20, seed=16)
        cfit = estimators.pca_fit(x)
        assert cfit.eigenvectors is None
        pfit = estimators.ppca_fit(x, RngStream(8, 0))
        assert pfit.left_vectors is None
        assert pfit.right_vectors is None
        assert pfit.fused_vectors is None
        assert pfit.fallback_columns == ()


class TestDebias:
    def test_zero_ratio_limit_returns_input(self):
        lam = np.array([3.0, 1.4, 1.1, 0.7])
        assert estimators.debias_ppca(lam, 1e-12, 1) == pytest.approx(3.0, rel=1e-9)
        assert estimators.debias_pca(lam, 1e-12, 1) == pytest.approx(3.0, rel=1e-9)

    def test_formulas_by_direct_sum(self):
        lam = np.array([3.2, 1.9, 1.2, 0.8, 0.3])
        c, j = 0.4, 1
        tail = lam[j:]
        z = lam[0] ** 2
        s_hat = float(np.mean(1.0 / (tail**2 - z)))
        s_under = 2.0 * c * s_hat + (2.0 * c - 1.0) / z
        assert estimators.debias_ppca(lam, c, j) == pytest.approx(
            -1.0 / (s_under * lam[0]), rel=1e-12
        )
        m_hat = float(np.mean(1.0 / (tail - lam[0])))
        m_under = c * m_hat + (c - 1.0) / lam[0]
        assert estimators.debias_pca(lam, c, j) == pytest.approx(
            -1.0 / m_under, rel=1e-12
        )

    def test_rejects_empty_tail(self):
        lam = np.array([3.0, 1.0])
        with pytest.raises(ValueError):
            estimators.debias_ppca(lam, 0.4, 2)
        with pytest.raises(ValueError):
            estimators.debias_pca(lam, 0.4, 2)

    def test_rejects_pole(self):
        lam = np.array([3.0, 3.0, 1.0])
        with pytest.raises(ValueError):
            estimators.debias_ppca(lam, 0.4, 1)
        with pytest.raises(ValueError):
            estimators.debias_pca(lam, 0.4, 1)

    def test_rejects_unsorted_and_bad_j(self):
        with pytest.raises(ValueError):
            estimators.debias_pca(np.array([1.0, 3.0]), 0.4, 1)
        with pytest.raises(ValueError):
            estimators.debias_pca(np.array([3.0, 1.0]), 0.4, 0)

    @pytest.mark.parametrize(
        "lam", [[np.nan, 2.0, 1.0], [3.0, np.nan, 1.0], [np.inf, 2.0, 1.0], [3.0, 2.0, -np.inf]]
    )
    def test_rejects_non_finite(self, lam):
        with pytest.raises(ValueError, match="finite"):
            estimators.debias_ppca(np.array(lam), 0.4, 1)
        with pytest.raises(ValueError, match="finite"):
            estimators.debias_pca(np.array(lam), 0.4, 1)

    def test_moves_estimate_toward_population_value(self):
        # spiked gaussian sample: raw top eigenvalue overshoots the spike,
        # the corrected one comes back near it
        n, p, lam1 = 4000, 1600, 3.0
        gen = RngStream(77, 0).generator()
        z = gen.standard_normal((n, p))
        z[:, 0] *= np.sqrt(lam1)
        fit = estimators.pca_fit(z)
        raw = fit.eigenvalues[0]
        fixed = estimators.debias_pca(fit.eigenvalues, p / n, 1)
        assert abs(fixed - lam1) < abs(raw - lam1)
        assert fixed == pytest.approx(lam1, rel=0.1)

    def test_product_correction_improvement_rate(self):
        # at this design the per-replicate improvement probability is close
        # to 0.95 itself (the raw value loses only when it fluctuates ~1.6
        # sigma below its limit, landing nearer the spike than its inverse
        # image), so the seed is pinned to keep the count deterministic
        n, p, lam1 = 2000, 800, 3.0
        scale = np.ones(p)
        scale[0] = np.sqrt(lam1)
        wins = 0
        for rep in range(50):
            z = RngStream(2, rep).generator().standard_normal((n, p)) * scale
            fit = estimators.ppca_fit(z, RngStream(2, 1000 + rep))
            raw = fit.singular_values[0]
            fixed = estimators.debias_ppca(fit.singular_values, p / n, 1)
            wins += abs(fixed - lam1) < abs(raw - lam1)
        assert wins >= 0.95 * 50


class TestEstimateRank:
    def test_reference_case(self):
        assert estimators.estimate_rank(np.array([3.3, 1.2, 0.5]), 2.4163) == 1

    def test_all_below(self):
        assert estimators.estimate_rank(np.array([1.0, 0.5]), 2.0) == 0

    def test_zero_edge_counts_positive(self):
        assert estimators.estimate_rank(np.array([2.0, 1.0, 0.0]), 0.0) == 2

    def test_nonincreasing_in_edge(self):
        eigs = np.array([4.0, 3.0, 2.0, 1.0])
        ranks = [estimators.estimate_rank(eigs, e) for e in (0.5, 1.5, 2.5, 3.5, 4.5)]
        assert ranks == [4, 3, 2, 1, 0]


class TestSimilarityXi:
    def test_same_basis_is_one(self):
        b = np.eye(5)[:, :3]
        assert estimators.similarity_xi(b, b) == pytest.approx(1.0)

    def test_orthogonal_spans_are_zero(self):
        b = np.eye(6)[:, :2]
        g = np.eye(6)[:, 3:5]
        assert estimators.similarity_xi(b, g) == pytest.approx(0.0, abs=1e-12)

    def test_full_basis_is_one(self):
        g = np.eye(7)[:, :2]
        assert estimators.similarity_xi(np.eye(7), g) == pytest.approx(1.0)

    def test_known_angle(self):
        theta = 0.3
        b = np.array([[1.0], [0.0]])
        g = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert estimators.similarity_xi(b, g) == pytest.approx(np.cos(theta))

    def test_nondecreasing_as_columns_append(self):
        rng = np.random.default_rng(13)
        q_full, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        g = np.linalg.qr(rng.standard_normal((10, 2)))[0]
        vals = [
            estimators.similarity_xi(q_full[:, :q], g) for q in range(2, 7)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_narrow_or_skewed_input(self):
        with pytest.raises(ValueError):
            estimators.similarity_xi(np.eye(4)[:, :1], np.eye(4)[:, :2])
        skew = np.eye(4)[:, :2].copy()
        skew[0, 1] = 0.5
        with pytest.raises(ValueError):
            estimators.similarity_xi(skew, np.eye(4)[:, :2])
