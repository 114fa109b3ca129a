import decimal
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from spikedcov import rmt, spectra
from conftest import mp_cdf_oracle, mp_density_oracle, mp_stieltjes_oracle, ssm_g_cdf_oracle

FLAT = spectra.make_spectrum(atoms=[(1.0, 1.0)])

C_GRID = (0.1, 0.4, 1.0, 2.0, 5.0)
Z_REALS = (-1.0, 0.3, 1.0, 2.5, 6.0)
Z_IMAGS = (1e-6, 1e-3, 0.5)
NON_FINITE = (np.nan, np.inf, -np.inf)


def flat_mp_edges(c, sigma2=1.0):
    lo = sigma2 * (1.0 - np.sqrt(c)) ** 2
    hi = sigma2 * (1.0 + np.sqrt(c)) ** 2
    return lo, hi


class TestStieltjes:
    def test_matches_quadratic_oracle(self):
        for c in C_GRID:
            for x in Z_REALS:
                for y in Z_IMAGS:
                    z = complex(x, y)
                    ev = rmt.stieltjes(c, FLAT, z)
                    mu, m = mp_stieltjes_oracle(c, 1.0, z)
                    assert abs(ev.m - m) < 1e-8
                    assert abs(ev.m_under - mu) < 1e-8

    def test_upper_half_plane_and_residual(self, two_atom_bulk):
        for c in C_GRID:
            for x in Z_REALS:
                for y in Z_IMAGS:
                    ev = rmt.stieltjes(c, two_atom_bulk, complex(x, y))
                    assert ev.m.imag > 0.0
                    assert ev.m_under.imag > 0.0
                    assert ev.residual <= rmt.SOLVER_TOL

    def test_companion_identity(self, two_atom_bulk):
        for c in C_GRID:
            for x in Z_REALS:
                for y in Z_IMAGS:
                    z = complex(x, y)
                    ev = rmt.stieltjes(c, two_atom_bulk, z)
                    lhs = ev.m_under
                    rhs = c * ev.m + (c - 1.0) / z
                    scale = max(1.0, abs(lhs), abs((c - 1.0) / z))
                    assert abs(lhs - rhs) <= 1e-12 * scale

    def test_small_ratio_approaches_bulk_resolvent(self, two_atom_bulk):
        # As c -> 0 the sample law collapses onto the population bulk.
        z = complex(2.2, 0.3)
        target = sum(
            w / (t - z) for t, w in two_atom_bulk.atoms
        )
        ev = rmt.stieltjes(1e-7, two_atom_bulk, z)
        assert abs(ev.m - target) < 1e-5

    def test_rejects_real_axis(self):
        with pytest.raises(ValueError):
            rmt.stieltjes(0.4, FLAT, complex(1.0, 0.0))
        with pytest.raises(ValueError):
            rmt.stieltjes(0.4, FLAT, complex(1.0, -0.1))

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite(self, x):
        for z in (complex(x, 0.5), complex(1.0, x)):
            with pytest.raises(ValueError, match="finite"):
                rmt.stieltjes(0.4, FLAT, z)


class TestContinuation:
    def test_edge_stragglers_match_oracle(self, monkeypatch):
        """Points just off both flat-bulk edges at tiny heights.

        Some of them miss SOLVER_TOL in the first fixed-point/Newton pass
        and are walked down in Im z, which shows as more than one Newton
        call per solve.
        """
        newton = rmt._newton
        calls = []

        def counted(*args):
            calls.append(1)
            return newton(*args)

        monkeypatch.setattr(rmt, "_newton", counted)
        continued = 0
        for c in (0.1, 0.4, 2.0, 5.0):
            for edge in flat_mp_edges(c):
                for offset in np.geomspace(1e-6, 1e-2, 5):
                    for x in (edge - offset, edge + offset):
                        z = complex(x, max(1e-9, 1e-6 * x))
                        calls.clear()
                        ev = rmt.stieltjes(c, FLAT, z)
                        continued += len(calls) > 1
                        mu, m = mp_stieltjes_oracle(c, 1.0, z)
                        assert abs(ev.m_under - mu) < 1e-10
                        assert abs(ev.m - m) < 1e-10
        assert continued > 0


class TestStieltjesReal:
    def test_above_support_matches_oracle(self):
        for c in (0.4, 2.0):
            _, hi = flat_mp_edges(c)
            for x in (hi * 1.05, hi * 2.0, 10.0):
                m, m_prime = rmt.stieltjes_real(c, FLAT, x)
                _, m_ref = mp_stieltjes_oracle(c, 1.0, complex(x, 1e-9))
                assert abs(m - m_ref.real) < 1e-6
                eps = 1e-6 * x
                fd = (
                    mp_stieltjes_oracle(c, 1.0, complex(x + eps, 1e-9))[1].real
                    - mp_stieltjes_oracle(c, 1.0, complex(x - eps, 1e-9))[1].real
                ) / (2.0 * eps)
                assert m_prime == pytest.approx(fd, rel=1e-4)

    def test_below_support(self):
        lo, _ = flat_mp_edges(0.4)
        m, m_prime = rmt.stieltjes_real(0.4, FLAT, lo * 0.5, side="below")
        _, m_ref = mp_stieltjes_oracle(0.4, 1.0, complex(lo * 0.5, 1e-9))
        assert abs(m - m_ref.real) < 1e-6
        assert m_prime > 0.0

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite(self, x, side):
        with pytest.raises(ValueError, match="finite"):
            rmt.stieltjes_real(0.4, FLAT, x, side=side)

    def test_rejects_inside_support(self):
        with pytest.raises(ValueError):
            rmt.stieltjes_real(0.4, FLAT, 1.0)
        with pytest.raises(ValueError):
            rmt.stieltjes_real(0.4, FLAT, 1.0, side="below")
        with pytest.raises(ValueError):
            rmt.stieltjes_real(0.4, FLAT, 3.0, side="sideways")


class TestMpDensity:
    def test_flat_bulk_value(self):
        assert rmt.mp_density(0.4, FLAT, 1.0) == pytest.approx(0.47746, abs=1e-5)

    def test_matches_closed_form_inside_support(self):
        for c in C_GRID:
            lo, hi = flat_mp_edges(c)
            grid = np.linspace(max(lo, 1e-3) * 1.02, hi * 0.98, 25)
            dens = rmt.mp_density(c, FLAT, grid)
            ref = np.array([mp_density_oracle(c, 1.0, t) for t in grid])
            assert np.max(np.abs(dens - ref)) < 1e-5

    def test_vanishes_outside_support(self):
        lo, hi = flat_mp_edges(0.4)
        assert rmt.mp_density(0.4, FLAT, hi * 1.2) < 1e-8
        assert rmt.mp_density(0.4, FLAT, lo * 0.5) < 1e-8

    def test_integrates_to_continuous_mass(self):
        for c in (0.4, 2.0):
            lo, hi = flat_mp_edges(c)
            total, _ = integrate.quad(
                lambda t: rmt.mp_density(c, FLAT, t), lo, hi, limit=200
            )
            assert total == pytest.approx(min(1.0, 1.0 / c), abs=1e-6)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            rmt.mp_density(0.4, FLAT, 0.0)


class TestSupportAndMass:
    def test_flat_edges(self):
        for c in (0.1, 0.4, 2.0):
            lo, hi = rmt.support_edges(c, FLAT)
            elo, ehi = flat_mp_edges(c)
            assert lo == pytest.approx(elo, abs=1e-9)
            assert hi == pytest.approx(ehi, abs=1e-9)

    def test_mass_at_zero(self):
        assert rmt.mass_at_zero(0.4, FLAT) == 0.0
        assert rmt.mass_at_zero(2.0, FLAT) == pytest.approx(0.5)
        assert rmt.ppca_mass_at_zero(0.4, FLAT) == 0.0
        assert rmt.ppca_mass_at_zero(2.0, FLAT) == pytest.approx(0.75)
        assert rmt.ppca_mass_at_zero(0.75, FLAT) == pytest.approx(1.0 - 1.0 / 1.5)


class TestPsiMaps:
    def test_flat_closed_forms(self):
        c = 0.4
        for lam in (1.5, 3.0, 7.0):
            assert rmt.psi(c, FLAT, lam) == pytest.approx(
                lam * (1.0 + c / (lam - 1.0)), rel=1e-12
            )
            assert rmt.ppca_psi(c, FLAT, lam) == pytest.approx(
                lam * (1.0 + 2.0 * c / (lam * lam - 1.0)), rel=1e-12
            )

    def test_general_bulk_direct_sums(self, two_atom_bulk):
        t = np.array(two_atom_bulk.values)
        w = np.array(two_atom_bulk.weights)
        c, lam = 0.7, 2.8
        assert rmt.psi(c, two_atom_bulk, lam) == pytest.approx(
            lam * (1.0 + c * float(np.sum(w * t / (lam - t)))), rel=1e-12
        )
        assert rmt.ppca_psi(c, two_atom_bulk, lam) == pytest.approx(
            lam * (1.0 + 2.0 * c * float(np.sum(w * t**2 / (lam**2 - t**2)))),
            rel=1e-12,
        )

    def test_zero_ratio_is_identity(self):
        assert rmt.psi(0.0, FLAT, 2.5) == pytest.approx(2.5)
        assert rmt.ppca_psi(0.0, FLAT, 2.5) == pytest.approx(2.5)

    def test_large_spike_bias_decay(self, two_atom_bulk):
        # product-side map: lam * (psi - lam) -> 2c * E[T^2]
        c = 0.4
        mu2 = two_atom_bulk.bulk_moment(2)
        lam = 1e4
        val = lam * (rmt.ppca_psi(c, two_atom_bulk, lam) - lam)
        assert val == pytest.approx(2.0 * c * mu2, rel=1e-5)

    def test_rejects_lam_in_bulk(self):
        with pytest.raises(ValueError):
            rmt.psi(0.4, FLAT, 1.0)
        with pytest.raises(ValueError):
            rmt.ppca_psi(0.4, FLAT, 0.2)

    @pytest.mark.parametrize("lam", NON_FINITE)
    @pytest.mark.parametrize("name", ["psi", "ppca_psi"])
    def test_rejects_non_finite(self, name, lam):
        with pytest.raises(ValueError, match="finite"):
            getattr(rmt, name)(0.4, FLAT, lam)
        with pytest.raises(ValueError, match="finite"):
            getattr(rmt, name)(0.4, FLAT, np.array([3.0, lam]))


class TestThresholds:
    def test_flat_closed_forms(self):
        for c in (0.4, 2.0):
            tc = rmt.pca_threshold(c, FLAT)
            assert tc.threshold == pytest.approx(1.0 + np.sqrt(c), abs=1e-9)
            assert tc.bulk_edge == pytest.approx((1.0 + np.sqrt(c)) ** 2, abs=1e-9)
            tp = rmt.ppca_threshold(c, FLAT)
            star = np.sqrt(1.0 + c + np.sqrt(c * c + 4.0 * c))
            assert tp.threshold == pytest.approx(star, abs=1e-9)
            assert tp.bulk_edge == pytest.approx(
                star * (1.0 + 2.0 * c / (star * star - 1.0)), abs=1e-9
            )

    def test_detection_needs_more_signal_for_products(self, two_atom_bulk):
        for c in (0.05, 0.4, 1.0, 3.0):
            for h in (FLAT, two_atom_bulk):
                assert (
                    rmt.ppca_threshold(c, h).threshold
                    > rmt.pca_threshold(c, h).threshold
                )


class TestSpikedLimits:
    def test_flat_distant_values(self):
        out = rmt.ppca_limit(0.4, FLAT, 3.0)
        assert out.is_distant
        assert out.value == pytest.approx(3.3, abs=1e-9)
        out = rmt.pca_limit(0.4, FLAT, 3.0)
        assert out.is_distant
        assert out.value == pytest.approx(3.6, abs=1e-9)

    def test_stuck_at_bulk_edge(self):
        tp = rmt.ppca_threshold(0.4, FLAT)
        tc = rmt.pca_threshold(0.4, FLAT)
        out = rmt.ppca_limit(0.4, FLAT, 1.2)
        assert not out.is_distant
        assert out.tag == "stuck"
        assert out.value == pytest.approx(tp.bulk_edge, abs=1e-12)
        out = rmt.pca_limit(0.4, FLAT, 1.2)
        assert out.value == pytest.approx(tc.bulk_edge, abs=1e-12)

    def test_continuous_at_transition(self, two_atom_bulk):
        for c, h in ((0.4, FLAT), (0.8, two_atom_bulk)):
            tp = rmt.ppca_threshold(c, h)
            below = rmt.ppca_limit(c, h, tp.threshold * (1.0 - 1e-8))
            above = rmt.ppca_limit(c, h, tp.threshold * (1.0 + 1e-8))
            assert not below.is_distant
            assert above.is_distant
            assert abs(above.value - below.value) < 1e-6

    def test_rejects_spike_in_bulk(self):
        with pytest.raises(ValueError):
            rmt.pca_limit(0.4, FLAT, 0.9)
        with pytest.raises(ValueError):
            rmt.ppca_limit(0.4, FLAT, 1.0)

    @pytest.mark.parametrize("lam", NON_FINITE)
    @pytest.mark.parametrize("name", ["pca_limit", "ppca_limit"])
    def test_rejects_non_finite(self, name, lam):
        with pytest.raises(ValueError, match="finite"):
            getattr(rmt, name)(0.4, FLAT, lam)

    def test_tag_constructors(self):
        assert rmt.SpikedLimit.distant(3.3).tag == "distant"
        assert rmt.SpikedLimit.stuck(2.4).tag == "stuck"
        assert not rmt.SpikedLimit.stuck(2.4).is_distant


# Two atoms far apart at a small ratio: the product law's support splits.
SPLIT = spectra.make_spectrum(atoms=[(0.2, 0.5), (5.0, 0.5)])


def dense_cdf(c, h, support, n=4000):
    """Product-law CDF at dense nodes of each support piece, by the trapezoid rule.

    Each piece is integrated in theta, with s = lower + (upper - lower)
    sin^2 theta, on n uniform panels, so its square-root edges stay smooth;
    this rule shares no nodes with the package's graded Gauss-Legendre one.
    Returns the nodes s and the zero mass plus the integral of
    ppca_lsd_pdf up to each of them.
    """
    nodes, values = [], []
    total = rmt.ppca_mass_at_zero(c, h)
    for lower, upper in support:
        theta = np.linspace(0.0, 0.5 * np.pi, n + 1)
        s = lower + (upper - lower) * np.sin(theta) ** 2
        dens = np.zeros(s.shape)
        inner = (s > lower) & (s < upper)
        dens[inner] = rmt.ppca_lsd_pdf(c, h, s[inner])
        step = dens * (upper - lower) * np.sin(2.0 * theta)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (step[1:] + step[:-1]) * np.diff(theta))))
        nodes.append(s)
        values.append(total + cum)
        total += cum[-1]
    return np.concatenate(nodes), np.concatenate(values)


class TestProductLawTable:
    def test_cdf_matches_single_atom_closed_form(self):
        for c in (0.4, 2.0):
            params = rmt.SsmParams(c=c, sigma2=1.0)
            consts = rmt.ssm_closed_forms(params)
            grid = np.linspace(max(consts.a, 1e-2) * 1.02, consts.b * 1.1, 40)
            cdf = rmt.ppca_lsd_cdf(c, FLAT, grid)
            ref = rmt.ssm_g_cdf(params, grid)
            assert np.max(np.abs(cdf - ref)) < 1e-3

    def test_pdf_matches_single_atom_closed_form(self):
        # pointwise pdf comparison stays 2% of the span away from each edge,
        # where the limit density has unbounded slope; the cdf test covers the
        # edge region in integrated form
        params = rmt.SsmParams(c=0.4, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        span = consts.b - consts.a
        grid = np.linspace(consts.a + 0.02 * span, consts.b - 0.02 * span, 40)
        pdf = rmt.ppca_lsd_pdf(0.4, FLAT, grid)
        ref = rmt.ssm_g_pdf(params, grid)
        assert np.max(np.abs(pdf - ref)) < 5e-3

    @pytest.mark.parametrize("c", [0.1, 0.4, 0.4999, 0.5, 0.5001, 1.0, 2.0, 5.0, 50.0])
    def test_generic_law_matches_closed_forms(self, c):
        # the c = 1/2 switch point and both sides of it included; the pdf
        # grid keeps acceptance 4's 2%-of-span margin from the edges
        params = rmt.SsmParams(c=c, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        grid = np.linspace(0.0, 1.05 * consts.b, 401)[1:]
        cdf = rmt.ppca_lsd_cdf(c, FLAT, grid)
        assert np.max(np.abs(cdf - rmt.ssm_g_cdf(params, grid))) < 1e-9
        span = consts.b - consts.a
        grid = np.linspace(consts.a + 0.02 * span, consts.b - 0.02 * span, 25)
        grid = grid[grid > 0.0]
        pdf = rmt.ppca_lsd_pdf(c, FLAT, grid)
        assert np.max(np.abs(pdf - rmt.ssm_g_pdf(params, grid))) < 1e-8

    @pytest.mark.parametrize("c", [0.5, 0.7, 2.0])
    def test_zero_atom_reduces_to_white(self, c):
        # a zero atom of weight w0 only removes coordinates: the law is
        # w0 at zero plus (1 - w0) times the white law at ratio c (1 - w0)
        w0 = 0.3
        h = spectra.make_spectrum(atoms=[(0.0, w0), (1.0, 1.0 - w0)])
        params = rmt.SsmParams(c=c * (1.0 - w0), sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        lower, upper = rmt.ppca_support_edges(c, h)
        assert lower == pytest.approx(consts.a, rel=1e-12, abs=0.0)
        assert upper == pytest.approx(consts.b, rel=1e-12)
        grid = np.linspace(0.0, 1.05 * consts.b, 201)[1:]
        want = w0 + (1.0 - w0) * rmt.ssm_g_cdf(params, grid)
        assert np.max(np.abs(rmt.ppca_lsd_cdf(c, h, grid) - want)) < 1e-9
        pdf = rmt.ppca_lsd_pdf(c, h, grid[grid < 0.98 * consts.b])
        want = (1.0 - w0) * rmt.ssm_g_pdf(params, grid[grid < 0.98 * consts.b])
        assert np.max(np.abs(pdf - want)) < 1e-8

    @pytest.mark.parametrize("c", [0.01, 0.05])
    def test_split_support_against_dense_reference(self, c):
        lower, upper = rmt.ppca_support_edges(c, SPLIT)
        support, _ = rmt._ppca_support(c, SPLIT)
        assert len(support) == 2
        assert support[0][0] == lower and support[-1][1] == upper
        nodes, want = dense_cdf(c, SPLIT, support)
        assert want[-1] == pytest.approx(1.0, abs=1e-6)
        nodes, want = nodes[::29], want[::29]
        assert np.max(np.abs(rmt.ppca_lsd_cdf(c, SPLIT, nodes) - want)) < 1e-6
        gap = np.linspace(support[0][1], support[1][0], 7)
        assert np.all(rmt.ppca_lsd_cdf(c, SPLIT, gap) == rmt.ppca_lsd_cdf(c, SPLIT, gap[0]))

    def test_cdf_monotone_with_point_mass(self):
        grid = np.linspace(0.0, 5.0, 80)
        cdf = rmt.ppca_lsd_cdf(2.0, FLAT, grid)
        assert cdf[0] == pytest.approx(0.75, abs=1e-9)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_support_edges_match_constants(self):
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0))
        lo, hi = rmt.ppca_support_edges(0.4, FLAT)
        assert lo == pytest.approx(consts.a, abs=1e-8)
        assert hi == pytest.approx(consts.b, abs=1e-8)


class TestSingleAtomConstants:
    def test_reference_values(self):
        cf = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0))
        assert cf.lambda_star == pytest.approx(1.6512570714889, rel=1e-10)
        assert cf.lambda_prime == pytest.approx(1.0 + np.sqrt(0.4), rel=1e-12)
        assert cf.a == pytest.approx(0.0370160031236, rel=1e-8)
        assert cf.b == pytest.approx(2.4163256849011, rel=1e-10)
        assert cf.a_prime == pytest.approx((1.0 - np.sqrt(0.4)) ** 2, rel=1e-10)
        assert cf.b_prime == pytest.approx((1.0 + np.sqrt(0.4)) ** 2, rel=1e-10)
        assert cf.mass0_ppca == 0.0
        assert cf.mass0_pca == 0.0

    @pytest.mark.parametrize("c", [0.4, 0.4999, 0.49999, 0.499999])
    def test_alpha_near_half_against_exact_arithmetic(self, c):
        # alpha = (A - sqrt(B))/2 cancels as c -> 1/2; 60 decimal digits
        # of the same expression are the reference
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            cd = decimal.Decimal(c)
            alpha = (2 + 10 * cd - cd * cd - (cd * (cd + 4) ** 3).sqrt()) / 2
            a = alpha.sqrt()
        cf = rmt.ssm_closed_forms(rmt.SsmParams(c=c, sigma2=1.0))
        assert cf.alpha == pytest.approx(float(alpha), rel=1e-14, abs=0.0)
        assert cf.a == pytest.approx(float(a), rel=1e-14, abs=0.0)

    def test_internal_identities(self):
        for c in (0.4, 2.0):
            cf = rmt.ssm_closed_forms(rmt.SsmParams(c=c, sigma2=1.0))
            assert cf.beta == pytest.approx(cf.b**2, rel=1e-10)
            if c < 0.5:
                assert cf.alpha == pytest.approx(cf.a**2, rel=1e-8)
            assert cf.b == pytest.approx(
                rmt.ppca_psi(c, FLAT, cf.lambda_star), rel=1e-10
            )
            assert cf.b_prime == pytest.approx(
                rmt.psi(c, FLAT, cf.lambda_prime), rel=1e-10
            )
            assert cf.mass0_ppca == pytest.approx(max(0.0, 1.0 - 0.5 / c))
            assert cf.mass0_pca == pytest.approx(max(0.0, 1.0 - 1.0 / c))

    def test_variance_scaling(self):
        base = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=1.0))
        doubled = rmt.ssm_closed_forms(rmt.SsmParams(c=0.4, sigma2=2.0))
        for field in ("lambda_star", "lambda_prime", "a", "b", "a_prime", "b_prime"):
            assert getattr(doubled, field) == pytest.approx(
                2.0 * getattr(base, field), rel=1e-10
            )
        assert doubled.alpha == pytest.approx(4.0 * base.alpha, rel=1e-8)
        assert doubled.beta == pytest.approx(4.0 * base.beta, rel=1e-10)

    def test_density_normalization(self):
        params = rmt.SsmParams(c=2.0, sigma2=1.0)
        cf = rmt.ssm_closed_forms(params)
        gi, _ = integrate.quad(lambda u: rmt.ssm_g_pdf(params, u), cf.a, cf.b, limit=200)
        fi, _ = integrate.quad(
            lambda u: rmt.ssm_f_pdf(params, u), cf.a_prime, cf.b_prime, limit=200
        )
        assert gi == pytest.approx(0.25, abs=1e-6)
        assert fi == pytest.approx(0.5, abs=1e-6)

    def test_cdf_edge_values(self):
        params = rmt.SsmParams(c=0.4, sigma2=1.0)
        cf = rmt.ssm_closed_forms(params)
        assert rmt.ssm_g_cdf(params, cf.a * 0.5) == pytest.approx(0.0, abs=1e-12)
        assert rmt.ssm_g_cdf(params, cf.b * 1.5) == pytest.approx(1.0, abs=1e-12)
        assert rmt.ssm_f_cdf(params, cf.a_prime * 0.5) == pytest.approx(0.0, abs=1e-12)
        assert rmt.ssm_f_cdf(params, cf.b_prime * 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            rmt.SsmParams(c=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            rmt.SsmParams(c=0.4, sigma2=-1.0)


# law -> (closed-form cdf, independent oracle, lower edge, upper edge, zero
# mass), the last three as SsmConstants field names
CLOSED_FORM_CDFS = {
    "ppca": (rmt.ssm_g_cdf, ssm_g_cdf_oracle, "a", "b", "mass0_ppca"),
    "pca": (rmt.ssm_f_cdf, mp_cdf_oracle, "a_prime", "b_prime", "mass0_pca"),
}
ORACLE_SIGMA2 = (0.5, 1.0, 2.0)


@pytest.mark.parametrize("c", [0.01, 0.1, 0.4, 0.5, 0.7, 1.0, 2.0, 5.0, 50.0])
@pytest.mark.parametrize("law", sorted(CLOSED_FORM_CDFS))
class TestClosedFormCdfs:
    @staticmethod
    def cases(law, c):
        cdf, oracle, lo, hi, mass0 = CLOSED_FORM_CDFS[law]
        for sigma2 in ORACLE_SIGMA2:
            params = rmt.SsmParams(c=c, sigma2=sigma2)
            cf = rmt.ssm_closed_forms(params)
            yield (
                params,
                functools.partial(cdf, params),
                oracle,
                getattr(cf, lo),
                getattr(cf, hi),
                getattr(cf, mass0),
            )

    def test_matches_independent_oracle(self, law, c):
        offsets = np.array([1e-12, 1e-9, 1e-6, 1e-3])
        for params, cdf, oracle, lo, hi, _ in self.cases(law, c):
            grid = np.concatenate(
                [np.linspace(lo, hi, 17), lo + (hi - lo) * offsets, hi - (hi - lo) * offsets]
            )
            want = np.array([oracle(c, params.sigma2, t) for t in grid])
            assert np.max(np.abs(cdf(grid) - want)) <= 1e-12

    def test_nondecreasing_with_exact_end_values(self, law, c):
        for _, cdf, _, lo, hi, mass0 in self.cases(law, c):
            assert np.all(np.diff(cdf(np.linspace(0.0, 1.1 * hi, 4001))) >= 0.0)
            assert np.all(cdf(np.array([0.0, 0.5 * lo, lo])) == mass0)
            assert np.all(cdf(np.array([hi, 1.5 * hi])) == 1.0)

    def test_scalar_input_gives_float(self, law, c):
        for _, cdf, _, lo, hi, _ in self.cases(law, c):
            mid = 0.5 * (lo + hi)
            assert isinstance(cdf(mid), float)
            assert cdf(mid) == cdf(np.array([mid]))[0]


SSM = rmt.SsmParams(c=0.4, sigma2=1.0)
POINT_FUNCTIONS = {
    "ssm_g_cdf": functools.partial(rmt.ssm_g_cdf, SSM),
    "ssm_f_cdf": functools.partial(rmt.ssm_f_cdf, SSM),
    "ssm_g_pdf": functools.partial(rmt.ssm_g_pdf, SSM),
    "ssm_f_pdf": functools.partial(rmt.ssm_f_pdf, SSM),
    "ppca_lsd_cdf": functools.partial(rmt.ppca_lsd_cdf, 0.4, FLAT),
    "ppca_lsd_pdf": functools.partial(rmt.ppca_lsd_pdf, 0.4, FLAT),
    "mp_density": functools.partial(rmt.mp_density, 0.4, FLAT),
}


@pytest.mark.parametrize("name", sorted(POINT_FUNCTIONS))
@pytest.mark.parametrize("t", NON_FINITE)
def test_law_functions_reject_non_finite_points(name, t):
    for arg in (t, np.array([1.0, t])):
        with pytest.raises(ValueError, match=f"{name} requires finite t"):
            POINT_FUNCTIONS[name](arg)


class TestBiasReport:
    def test_flat_reference_case(self):
        br = rmt.bias_report(0.4, FLAT, 3.0)
        assert br.spike == 3.0
        assert br.ppca == pytest.approx(3.3, abs=1e-9)
        assert br.pca == pytest.approx(3.6, abs=1e-9)
        assert br.gap == pytest.approx(0.3, abs=1e-9)
        assert 0.2 < br.gap < 0.4

    def test_ordering_and_gap_band(self, two_atom_bulk):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = float(rng.uniform(0.05, 3.0))
            star = rmt.ppca_threshold(c, two_atom_bulk).threshold
            lam = float(rng.uniform(1.5, 4.0)) * star
            br = rmt.bias_report(c, two_atom_bulk, lam)
            mean = two_atom_bulk.bulk_mean
            assert br.pca > br.ppca > lam
            assert 0.5 * c * mean < br.gap < c * mean

    def test_rejects_non_distant(self):
        with pytest.raises(ValueError):
            rmt.bias_report(0.4, FLAT, 1.6)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_rejects_non_finite(self, lam):
        with pytest.raises(ValueError):
            rmt.bias_report(0.4, FLAT, lam)


class TestRho:
    def test_closed_form(self):
        cs = np.linspace(0.0, 10.0, 101)
        got = rmt.rho(cs)
        root = np.sqrt(cs * cs + 4.0 * cs)
        expect = ((1.0 + np.sqrt(cs)) / np.sqrt(2.0)) * np.sqrt(
            (2.0 + cs + root) / (1.0 + cs + root)
        )
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_unit_at_zero_and_monotone(self):
        cs = np.linspace(0.0, 10.0, 1001)
        vals = rmt.rho(cs)
        assert vals[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(vals >= 1.0 - 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_scalar_in_scalar_out(self):
        out = rmt.rho(0.4)
        assert isinstance(out, float)
        assert out > 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rmt.rho(-0.1)


# Property sweep of the generic engine: random two-atom bulks (a zero atom
# half the time, near-coincident atoms included) and log-uniform c in
# [1e-3, 50], plus the exact switch points c = 1/2, c = 1, c (1 - w0) = 1 and
# 2c (1 - w0) = 1, and c just below 1/2, where the product law's lower edge
# leaves zero.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
LOG_RATIOS = st.floats(np.log(1e-3), np.log(50.0))
RATIOS = LOG_RATIOS.map(lambda v: float(np.clip(np.exp(v), 1e-3, 50.0)))
TWO_ATOM = spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])
HALF_ZERO = spectra.make_spectrum(atoms=[(0.0, 0.5), (1.0, 0.5)])
LAWS = ((rmt.pca_threshold, rmt.pca_limit), (rmt.ppca_threshold, rmt.ppca_limit))


@st.composite
def two_atom_bulks(draw):
    low = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    gap = draw(st.floats(1e-3, 3.0))
    weight = draw(st.floats(0.05, 0.95))
    return spectra.make_spectrum(atoms=[(low, weight), (low + gap, 1.0 - weight)])


def switch_points(test):
    for c, h in ((0.5, TWO_ATOM), (1.0, TWO_ATOM), (2.0, HALF_ZERO), (1.0, HALF_ZERO)):
        test = example(c=c, h=h)(test)
    return test


class TestEngineProperties:
    @PROPERTY
    @given(c=RATIOS, h=two_atom_bulks())
    @switch_points
    def test_product_threshold_dominates_classical(self, c, h):
        assert rmt.ppca_threshold(c, h).threshold >= rmt.pca_threshold(c, h).threshold

    @PROPERTY
    @given(c=RATIOS, h=two_atom_bulks())
    @switch_points
    def test_limits_continuous_at_threshold(self, c, h):
        for threshold, limit in LAWS:
            thr = threshold(c, h)
            at = limit(c, h, thr.threshold)
            assert not at.is_distant and at.value == thr.bulk_edge
            just_above = limit(c, h, thr.threshold * (1.0 + 1e-9))
            assert just_above.is_distant
            assert just_above.value == pytest.approx(thr.bulk_edge, rel=1e-6)

    @PROPERTY
    @given(
        c=RATIOS,
        h=two_atom_bulks(),
        u=st.floats(1e-3, 10.0),
        v=st.floats(1e-3, 1.0),
    )
    def test_distant_limits_increase_with_spike(self, c, h, u, v):
        for threshold, limit in LAWS:
            lam = threshold(c, h).threshold * (1.0 + u)
            lower, upper = limit(c, h, lam), limit(c, h, lam * (1.0 + v))
            assert lower.is_distant and upper.is_distant
            assert lower.value < upper.value

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(c=RATIOS, h=two_atom_bulks())
    @switch_points
    @example(c=0.01, h=SPLIT)
    @example(c=0.4, h=TWO_ATOM)
    @example(c=0.4999, h=HALF_ZERO)
    def test_product_cdf_is_a_distribution(self, c, h):
        # nondecreasing from the zero mass at 0 to 1 at the upper edge, and
        # the pdf integrates to 1 - mass0: the cdf just below the edge is 1
        # (at c = 0.4 the two-atom density bends sharply near t = 0.5)
        _, upper = rmt.ppca_support_edges(c, h)
        grid = np.concatenate((np.linspace(0.0, upper, 30), [upper * (1.0 - 1e-12)]))
        cdf = rmt.ppca_lsd_cdf(c, h, grid)
        assert cdf[0] == rmt.ppca_mass_at_zero(c, h)
        assert np.all(np.diff(cdf[:-1]) >= 0.0)
        assert cdf[-2] == 1.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-10)

    @PROPERTY
    @given(c=RATIOS, sigma2=st.floats(0.2, 5.0))
    @example(c=0.5, sigma2=1.0)
    @example(c=0.4999, sigma2=1.0)
    @example(c=1.0, sigma2=2.0)
    def test_single_atom_matches_closed_forms(self, c, sigma2):
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=c, sigma2=sigma2))
        h = spectra.make_spectrum(atoms=[(sigma2, 1.0)])

        def close(x):
            return pytest.approx(x, rel=1e-9, abs=1e-9)

        assert rmt.ppca_threshold(c, h).threshold == close(consts.lambda_star)
        assert rmt.pca_threshold(c, h).threshold == close(consts.lambda_prime)
        assert rmt.ppca_support_edges(c, h) == (close(consts.a), close(consts.b))
        assert rmt.support_edges(c, h) == (close(consts.a_prime), close(consts.b_prime))
        assert rmt.ppca_mass_at_zero(c, h) == close(consts.mass0_ppca)
        assert rmt.mass_at_zero(c, h) == close(consts.mass0_pca)
