import decimal
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate

import spikedcov
from spikedcov import cli, rmt, simlab, spectra
from conftest import (
    mp_cdf_oracle,
    mp_density_oracle,
    mp_stieltjes_oracle,
    random_bulk,
    ssm_g_cdf_oracle,
)

FLAT = spectra.make_spectrum(atoms=[(1.0, 1.0)])
TWO_ATOM = spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])
HALF_ZERO = spectra.make_spectrum(atoms=[(0.0, 0.5), (1.0, 0.5)])

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

    def test_zero_atom_removes_coordinates(self):
        # m of (c, H) is -w0/z plus (1 - w0) times m of (c (1 - w0), H+), H+
        # the positive atoms; both laws have one companion (n x n Gram) law
        h = spectra.make_spectrum(atoms=[(0.0, 0.3), (0.5, 0.28), (1.5, 0.42)])
        w0 = h.weights[0]
        for c in C_GRID:
            for x in Z_REALS:
                for y in Z_IMAGS:
                    z = complex(x, y)
                    ev = rmt.stieltjes(c, h, z)
                    plus = rmt.stieltjes(c * (1.0 - w0), TWO_ATOM, z)
                    want = -w0 / z + (1.0 - w0) * plus.m
                    assert abs(ev.m - want) <= 1e-10 * max(1.0, abs(want))
                    assert abs(ev.m_under - plus.m_under) <= 1e-10 * max(1.0, abs(plus.m_under))

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

        Some of them miss SOLVER_TOL in the first warm-start/Newton pass
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


class TestSolverSchedule:
    LAWS = ((0.4, FLAT), (2.0, spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])))

    def test_warm_start_length_is_not_an_accuracy_knob(self, monkeypatch):
        # Newton judges convergence, so a shorter warm start gives the same numbers
        grid = np.linspace(0.05, 5.0, 60)
        default = [(rmt.ppca_lsd_pdf(c, h, grid), rmt.mp_density(c, h, grid)) for c, h in self.LAWS]
        monkeypatch.setattr(rmt, "FP_MAX_ITER", 10)
        for (c, h), (pdf, density) in zip(self.LAWS, default):
            assert np.all(np.abs(rmt.ppca_lsd_pdf(c, h, grid) - pdf) <= 1e-10)
            assert np.all(np.abs(rmt.mp_density(c, h, grid) - density) <= 1e-10)

    @pytest.mark.parametrize("fn", [rmt.ppca_lsd_pdf, rmt.mp_density])
    def test_unconverged_newton_raises_solver_error(self, monkeypatch, fn):
        monkeypatch.setattr(rmt, "NEWTON_MAX_ITER", 0)
        with pytest.raises(rmt.SolverError, match="companion solve did not converge") as info:
            fn(0.4, FLAT, np.linspace(0.5, 1.5, 5))
        assert info.value.residual > rmt.SOLVER_TOL

    @pytest.mark.parametrize("fn", [rmt.ppca_lsd_pdf, rmt.mp_density])
    def test_unconverged_polish_raises_solver_error(self, monkeypatch, fn):
        # every point converges in the first Newton call, so the second one
        # is the real-axis polish
        newton = rmt._newton
        calls = []

        def second_call_fails(law, m, z):
            calls.append(1)
            m, resid = newton(law, m, z)
            return m, resid + 1.0 if len(calls) == 2 else resid

        monkeypatch.setattr(rmt, "_newton", second_call_fails)
        with pytest.raises(rmt.SolverError, match="real-axis polish did not converge") as info:
            fn(0.4, FLAT, np.linspace(0.5, 1.5, 5))
        assert info.value.residual > rmt.SOLVER_TOL
        assert len(calls) == 2

    @pytest.mark.parametrize("product", [False, True])
    def test_newton_evaluates_the_map_once_per_iteration(self, monkeypatch, product):
        # one evaluation of every starting iterate, then one of each
        # iteration's candidates, which also give the next step's slope;
        # from 1.2 times the root every point stays active for 4 iterations
        for c, h in self.LAWS:
            law = rmt._law(c, h, product=product).companion
            x = law.point(np.linspace(0.5, 2.0, 7))
            z = x + 0.1j * x
            start = 1.2 * rmt._solve_companion_grid(law, z)[0]
            evaluate, sizes = law.evaluate, []

            def counting(m):
                sizes.append(m.size)
                return evaluate(m)

            monkeypatch.setattr(law, "evaluate", counting)
            for iterations in range(5):
                monkeypatch.setattr(rmt, "NEWTON_MAX_ITER", iterations)
                sizes.clear()
                rmt._newton(law, start, z)
                assert sizes == [z.size] * (iterations + 1)

    @pytest.mark.parametrize("c, h", LAWS)
    def test_density_read_costs_no_map_evaluation(self, monkeypatch, c, h):
        # the product density is read from the root k alone: the inner map
        # runs once inside each product-map evaluation and never on its own
        law = rmt._law(c, h, product=True).companion
        calls = []

        def counting(name, evaluate):
            return lambda m: calls.append(name) or evaluate(m)

        monkeypatch.setattr(law, "evaluate", counting("outer", law.evaluate))
        monkeypatch.setattr(law.inner, "evaluate", counting("inner", law.inner.evaluate))
        support = rmt.ppca_support_edges(c, h)
        pdf = rmt.ppca_lsd_pdf(c, h, np.linspace(*support, 9)[1:-1])
        assert np.all(pdf > 0.0)
        assert calls.count("inner") == calls.count("outer") > 0


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
        assert rmt.mp_density(0.4, FLAT, hi * 1.2) == 0.0
        assert rmt.mp_density(0.4, FLAT, hi * (1.0 + 1e-6)) == 0.0
        assert rmt.mp_density(0.4, FLAT, lo * 0.5) == 0.0

    @pytest.mark.parametrize("c", [0.01, 0.1, 0.4, 0.5, 1.0, 2.0, 5.0])
    def test_hugs_closed_form_at_both_edges(self, c):
        # 1e-8 to 0.5 of the width from each edge, where the density has
        # unbounded slope (and at c = 1 a 1/sqrt(t) pole at the lower edge)
        params = rmt.SsmParams(c=c, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        lo, hi = consts.a_prime, consts.b_prime
        offset = np.geomspace(1e-8, 0.5, 200) * (hi - lo)
        grid = np.concatenate((lo + offset, hi - offset))
        ref = rmt.ssm_f_pdf(params, grid)
        assert np.max(np.abs(rmt.mp_density(c, FLAT, grid) / ref - 1.0)) < 1e-5

    @pytest.mark.parametrize("c", [0.01, 0.05])
    def test_split_support_by_separation(self, c):
        # exact separation: each support interval carries its own atom's
        # weight, and the gap between them carries none
        support = rmt._law(c, SPLIT, product=False).support
        assert len(support) == 2
        assert support[0][0] == rmt.support_edges(c, SPLIT)[0]
        assert support[-1][1] == rmt.support_edges(c, SPLIT)[1]
        n = 4000
        _, cdf = dense_cdf(functools.partial(rmt.mp_density, c, SPLIT), 0.0, support, n)
        pieces = cdf.reshape(len(support), n + 1)
        assert np.all(np.abs(pieces[:, -1] - pieces[:, 0] - 0.5) < 1e-9)
        gap = np.linspace(support[0][1], support[1][0], 9)
        assert np.all(rmt.mp_density(c, SPLIT, gap) == 0.0)

    def test_integrates_to_continuous_mass(self):
        # mp_cdf integrates mp_density: just below the upper edge it holds
        # the zero mass plus the whole integral (at the edge it is 1 by fiat)
        for c in (0.4, 2.0):
            hi = rmt.support_edges(c, FLAT)[1]
            total = rmt.mp_cdf(c, FLAT, np.nextafter(hi, 0.0)) - rmt.mass_at_zero(c, FLAT)
            assert total == pytest.approx(min(1.0, 1.0 / c), abs=1e-12)

    def test_near_zero_at_unit_effective_ratio(self):
        # the density has a 1/sqrt(t) pole at zero; the zero atom halves the
        # white law at c = 1
        t = np.geomspace(1e-12, 4e-9, 40)
        want = rmt.ssm_f_pdf(rmt.SsmParams(c=1.0), t)
        for c, h, share in ((1.0, FLAT, 1.0), (2.0, HALF_ZERO, 0.5)):
            assert np.max(np.abs(rmt.mp_density(c, h, t) / (share * want) - 1.0)) <= 1e-12

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            rmt.mp_density(0.4, FLAT, 0.0)


class TestMpCdf:
    @pytest.mark.parametrize("c", [0.01, 0.1, 0.4, 0.5, 0.99, 1.0, 1.01, 2.0, 5.0])
    def test_flat_bulk_matches_closed_forms(self, c):
        params = rmt.SsmParams(c=c)
        grid = np.linspace(0.0, 1.05 * rmt.ssm_closed_forms(params).b_prime, 401)
        got = rmt.mp_cdf(c, FLAT, grid)
        assert np.max(np.abs(got - rmt.ssm_f_cdf(params, grid))) <= 1e-10
        want = np.array([mp_cdf_oracle(c, 1.0, t) for t in grid])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_atom_at_unit_effective_ratio(self):
        # c (1 - w0) = 1: half the mass at zero, half the white law at c = 1
        params = rmt.SsmParams(c=1.0)
        grid = np.linspace(0.0, 1.05 * rmt.ssm_closed_forms(params).b_prime, 401)
        want = 0.5 + 0.5 * rmt.ssm_f_cdf(params, grid)
        assert np.max(np.abs(rmt.mp_cdf(2.0, HALF_ZERO, grid) - want)) <= 1e-10

    @pytest.mark.parametrize("c", [0.01, 0.05])
    def test_split_support_gap_holds_half(self, c):
        support = rmt._law(c, SPLIT, product=False).support
        gap = np.linspace(support[0][1], support[1][0], 9)
        assert np.max(np.abs(rmt.mp_cdf(c, SPLIT, gap) - 0.5)) <= 1e-10

    @pytest.mark.parametrize("c, h", [(0.4, TWO_ATOM), (2.0, TWO_ATOM), (0.75, HALF_ZERO)])
    def test_is_a_distribution(self, c, h):
        # nondecreasing from the zero mass at 0, and exactly 1 from the upper edge on
        _, upper = rmt.support_edges(c, h)
        grid = np.linspace(0.0, upper, 60)
        cdf = rmt.mp_cdf(c, h, grid)
        assert cdf[0] == rmt.mass_at_zero(c, h)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(rmt.mp_cdf(c, h, np.array([upper, 1.5 * upper])) == 1.0)

    def test_scalar_input_gives_float(self):
        assert isinstance(rmt.mp_cdf(0.4, FLAT, 1.0), float)
        assert rmt.mp_cdf(0.4, FLAT, 1.0) == rmt.mp_cdf(0.4, FLAT, np.array([1.0]))[0]

    @pytest.mark.parametrize("cdf", [rmt.mp_cdf, rmt.ppca_lsd_cdf])
    def test_rejects_negative_t(self, cdf):
        # a NaN t is in test_law_functions_reject_non_finite_points
        for t in (-1e-3, np.array([1.0, -1e-3])):
            with pytest.raises(ValueError, match=f"^{cdf.__name__} requires finite t >= 0$"):
                cdf(0.4, FLAT, t)

    def test_exported_from_package(self):
        assert spikedcov.mp_cdf is rmt.mp_cdf
        assert "mp_cdf" in rmt.__all__ and "mp_cdf" in spikedcov.__all__


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


    def test_atoms_a_trillionth_apart_have_no_gap(self):
        # between neighbours 1e-12 apart the criterion stays far above one,
        # so they bound a dip, not a gap: the laws match the single atom at 1
        # to ~1e-12
        close = spectra.make_spectrum(atoms=[(1.0, 0.5), (1.0 + 1e-12, 0.5)])
        for c in (0.1, 0.4, 2.0):
            lo, hi = rmt.support_edges(c, close)
            elo, ehi = flat_mp_edges(c)
            assert lo == pytest.approx(elo, rel=1e-9)
            assert hi == pytest.approx(ehi, rel=1e-9)
            plo, phi = rmt.ppca_support_edges(c, close)
            flat = rmt.ppca_support_edges(c, FLAT)
            assert (plo, phi) == pytest.approx(flat, rel=1e-9, abs=1e-12)

    def test_atoms_at_neighbouring_floats_bound_no_gap(self):
        # no float lies between the atoms (nor between their squares, 2 ulp
        # apart), so no critical point is sought there: each law has the
        # white bulk's one support interval and CDF
        close = spectra.make_spectrum(atoms=[(1.0, 0.5), (math.nextafter(1.0, 2.0), 0.5)])
        grid = np.linspace(0.0, 4.0, 81)
        for product, cdf in ((False, rmt.mp_cdf), (True, rmt.ppca_lsd_cdf)):
            ((lower, upper),) = rmt._law(0.4, close, product=product).support
            ((want_lower, want_upper),) = rmt._law(0.4, FLAT, product=product).support
            assert abs(lower - want_lower) <= 2.0 * math.ulp(want_lower)
            assert abs(upper - want_upper) <= 2.0 * math.ulp(want_upper)
            assert np.max(np.abs(cdf(0.4, close, grid) - cdf(0.4, FLAT, grid))) <= 1e-15

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize(
        "call",
        [rmt.support_edges, rmt.ppca_support_edges, rmt.mass_at_zero, rmt.pca_threshold],
    )
    def test_law_functions_reject_bad_ratio(self, call, c):
        with pytest.raises(ValueError, match="^aspect ratio c must be positive and finite$"):
            call(c, FLAT)


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

    @pytest.mark.parametrize("lam", [1e160, 1e300, np.finfo(float).max])
    def test_product_map_of_a_spike_whose_square_overflows(self, lam):
        # psi_{2c, H^2}(lam^2)/lam = lam (1 + 2c/(lam^2 - 1)) is lam to within
        # roundoff; lam^2 used to overflow to inf with a RuntimeWarning
        assert rmt.ppca_psi(0.4, FLAT, lam) == pytest.approx(lam, rel=1e-15, abs=0.0)
        assert rmt.ppca_limit(0.4, FLAT, lam).value == pytest.approx(lam, rel=1e-15, abs=0.0)
        big = spectra.make_spectrum(atoms=[(1e150, 1.0)])
        assert rmt.ppca_limit(0.4, big, 1e160).value == pytest.approx(1e160, rel=1e-15, abs=0.0)

    def test_product_map_scales_exactly_with_the_spike_and_bulk(self, two_atom_bulk):
        # the map works in units of the power of two at or below lam, so at
        # k = 500 the square of 1e4 * 2^k does not overflow
        lam = np.array([1.6, 2.8, 3.0, 1e4])
        want = rmt.ppca_psi(0.7, two_atom_bulk, lam)
        for k in (-200, 500):
            big = spectra.PopulationSpectrum(
                atoms=tuple((math.ldexp(t, k), w) for t, w in two_atom_bulk.atoms)
            )
            assert np.array_equal(rmt.ppca_psi(0.7, big, np.ldexp(lam, k)), np.ldexp(want, k))

    def test_large_spike_bias_decay(self, two_atom_bulk):
        # product-side map: lam * (psi - lam) -> 2c * E[T^2]
        c = 0.4
        mu2 = float(np.dot(two_atom_bulk.values**2, two_atom_bulk.weights))
        lam = 1e4
        val = lam * (rmt.ppca_psi(c, two_atom_bulk, lam) - lam)
        assert val == pytest.approx(2.0 * c * mu2, rel=1e-5)

    def test_rejects_lam_in_bulk(self):
        with pytest.raises(ValueError):
            rmt.psi(0.4, FLAT, 1.0)
        with pytest.raises(ValueError):
            rmt.ppca_psi(0.4, FLAT, 0.2)

    @pytest.mark.parametrize("name", ["psi", "ppca_psi", "pca_limit", "ppca_limit"])
    def test_rejects_negative_ratio(self, name):
        # the spike rule: c = 0 is the identity map, c < 0 is rejected
        with pytest.raises(ValueError, match="^aspect ratio c must be nonnegative and finite$"):
            getattr(rmt, name)(-0.1, FLAT, 2.5)

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
        with pytest.raises(ValueError, match="^pca_limit requires finite lam above the bulk"):
            rmt.pca_limit(0.4, FLAT, 0.9)
        with pytest.raises(ValueError, match="^ppca_limit requires finite lam above the bulk"):
            rmt.ppca_limit(0.4, FLAT, 1.0)

    def test_zero_ratio_passes_the_spike_rule_but_not_the_threshold(self):
        with pytest.raises(ValueError, match="^aspect ratio c must be positive and finite$"):
            rmt.pca_limit(0.0, FLAT, 2.0)

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


def dense_cdf(pdf, mass0, support, n=4000):
    """A law's CDF at dense nodes of each support piece, by the trapezoid rule.

    Each piece is integrated in theta, with s = lower + (upper - lower)
    sin^2 theta, on n uniform panels, so its square-root edges stay smooth;
    this rule shares no nodes with the package's graded Gauss-Legendre one.
    Returns the nodes s (n + 1 per piece) and mass0 plus the integral of
    pdf up to each of them.
    """
    nodes, values = [], []
    total = mass0
    for lower, upper in support:
        theta = np.linspace(0.0, 0.5 * np.pi, n + 1)
        s = lower + (upper - lower) * np.sin(theta) ** 2
        dens = np.zeros(s.shape)
        inner = (s > lower) & (s < upper)
        dens[inner] = pdf(s[inner])
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

    @pytest.mark.parametrize("c", [0.5, 0.7, 2.0, 0.5 / 0.7])
    def test_zero_atom_reduces_to_white(self, c):
        # a zero atom of weight w0 only removes coordinates: the law is
        # w0 at zero plus (1 - w0) times the white law at ratio c (1 - w0);
        # at c = 1/(2 (1 - w0)) that is the switch point c (1 - w0) = 1/2,
        # where the density goes like t^(-1/3) down to zero
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
        tiny = np.geomspace(1e-30, 1e-6, 25)
        want = (1.0 - w0) * rmt.ssm_g_pdf(params, tiny)
        assert rmt.ppca_lsd_pdf(c, h, tiny) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("c", [0.01, 0.05])
    def test_split_support_against_dense_reference(self, c):
        lower, upper = rmt.ppca_support_edges(c, SPLIT)
        support = rmt._law(c, SPLIT, product=True).support
        assert len(support) == 2
        assert support[0][0] == lower and support[-1][1] == upper
        pdf = functools.partial(rmt.ppca_lsd_pdf, c, SPLIT)
        nodes, want = dense_cdf(pdf, rmt.ppca_mass_at_zero(c, SPLIT), support)
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


def zero_edge_density(c, h):
    """sqrt(k0)/(c pi), k0 the positive root of 2c sum w t^2 k/(1 + t^2 k) = 1, in mpmath.

    Found by 200 geometric bisection steps at 40 digits.  With r = 2c (1 - w0)
    > 1 and every positive t^2 bounded by the smallest and the largest, the
    root lies between 1/(t_max^2 (r - 1)) and 1/(t_min^2 (r - 1)).
    """
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        squares = [(mpmath.mpf(t) ** 2, mpmath.mpf(w)) for t, w in h.atoms if t > 0.0]
        excess = 2 * c * sum(w for _, w in squares) - 1
        lo, hi = 1 / (squares[-1][0] * excess), 1 / (squares[0][0] * excess)
        for _ in range(200):
            mid = mpmath.sqrt(lo * hi)
            if 2 * c * sum(w * s * mid / (1 + s * mid) for s, w in squares) > 1:
                hi = mid
            else:
                lo = mid
        return float(mpmath.sqrt(lo) / (c * mpmath.pi))


class TestProductZeroEdge:
    """The product density for 2c (1 - w0) > 1 down to its zero edge.

    It is finite at 0+, where the root k of the product map tends to the
    positive root k0 of U(k0) = 0 and the density to sqrt(k0)/(c pi): for the
    white bulk 1/(c pi sigma2 sqrt(2c - 1)).
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 4),
        k=st.integers(-60, 60),
        ratio=st.floats(np.log(1.1), np.log(50.0)),
        zero=st.booleans(),
        w0=st.floats(0.05, 0.5),
    )
    @example(seed=0, atoms=1, k=0, ratio=np.log(1.1), zero=False, w0=0.05)
    @example(seed=1, atoms=4, k=-60, ratio=np.log(50.0), zero=True, w0=0.5)
    @example(seed=2, atoms=2, k=60, ratio=np.log(2.0), zero=True, w0=0.05)
    def test_matches_the_root_of_the_inner_map(self, seed, atoms, k, ratio, zero, w0):
        bulk = random_bulk(np.random.default_rng(seed), atoms)
        if zero:
            bulk = spectra.make_spectrum([(0.0, w0)] + [(t, (1.0 - w0) * w) for t, w in bulk.atoms])
            w0 = bulk.atoms[0][1]
        else:
            w0 = 0.0
        h = scaled(bulk, k)
        c = float(np.exp(ratio)) / (2.0 * (1.0 - w0))
        assume(2.0 * c * (1.0 - w0) >= 1.1)
        got = rmt.ppca_lsd_pdf(c, h, h.values[-1] * np.array([1e-20, 1e-60, 1e-120]))
        assert got == pytest.approx([zero_edge_density(c, h)] * 3, rel=1e-10, abs=0.0)

    def test_two_atom_bulk_holds_its_limit(self):
        # k0 = 4/15 solves 4 (0.4 * 0.25 k/(1 + 0.25 k) + 0.6 * 2.25 k/(1 + 2.25 k)) = 1
        t = np.geomspace(1e-100, 1e-14, 30)
        want = math.sqrt(4.0 / 15.0) / (2.0 * math.pi)
        assert zero_edge_density(2.0, TWO_ATOM) == pytest.approx(want, rel=1e-15)
        assert rmt.ppca_lsd_pdf(2.0, TWO_ATOM, t) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0, 5.0])
    def test_white_bulk_matches_closed_form(self, c):
        t = np.geomspace(1e-120, 1e-3, 60)
        want = rmt.ssm_g_pdf(rmt.SsmParams(c=c), t)
        assert want[0] == pytest.approx(1.0 / (c * math.pi * math.sqrt(2.0 * c - 1.0)), rel=1e-14)
        assert rmt.ppca_lsd_pdf(c, FLAT, t) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_point_whose_square_underflows_is_value_error(self, c):
        # 1e-170 squares to 1e-340, below the smallest float: rejected before
        # any solve, as an atom of the bulk would be, and with no warning
        message = "^product-law points must square to at least the smallest normal float$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (rmt.ppca_lsd_pdf, rmt.ppca_lsd_cdf):
                with pytest.raises(ValueError, match=message):
                    call(c, FLAT, 1e-170)

    def test_cdf_whose_nodes_square_below_the_smallest_normal(self):
        # t^2 is normal, but the Gauss-Legendre nodes under t reach 1.2e-5 t
        # and their squares are not: below 2^-511 they count as zero density,
        # as 2^-511 times the density there (0.092) is far below half an ulp
        # of the zero mass 0.75
        t = [2e-154, 1e-151, 1e-149]
        assert rmt.ppca_lsd_cdf(2.0, FLAT, t).tolist() == [0.75, 0.75, 0.75]
        message = "^product-law points must square to at least the smallest normal float$"
        with pytest.raises(ValueError, match=message):
            rmt.ppca_lsd_cdf(2.0, FLAT, 1e-160)
        # below a positive lower edge no node is placed, and the CDF is its zero mass
        assert rmt.ppca_lsd_cdf(0.4, FLAT, 1e-170) == 0.0
        # against a zero mass of 0 the same sliver is not negligible
        law = rmt._law(2.0, FLAT, product=True)._replace(mass0=0.0)
        message = "^ppca_lsd_cdf cannot neglect its density below t = "
        with pytest.raises(ValueError, match=message):
            rmt._cdf("ppca_lsd_cdf", law, 2e-154)
        # at c = 1/2 there is no zero mass, and the companion solve at 2^-511,
        # where the density goes like t^(-1/3), fails first
        with pytest.raises(rmt.SolverError):
            rmt.ppca_lsd_cdf(0.5, FLAT, 1e-150)

    def test_closed_form_point_whose_square_underflows(self):
        # at c = 1/2 the density diverges like t^(-1/3) and its closed form
        # needs (t/unit)^2 > 0, unit = 4 the power of two above the upper
        # edge; above 1/2 the closed form at (t/unit)^2 = 0 is the 0+ limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = rmt.SsmParams(c=0.5)
            message = r"^ssm_g_pdf at c = 1/2 needs a nonzero square of t/4\.0$"
            assert rmt.ssm_g_pdf(params, 1e-160) == pytest.approx(1.19e53, rel=1e-2)
            for call in (rmt.ssm_g_pdf, rmt.ssm_g_cdf):
                with pytest.raises(ValueError, match=message):
                    call(params, 1e-170)
            params = rmt.SsmParams(c=2.0)
            want = 1.0 / (2.0 * math.pi * math.sqrt(3.0))
            assert rmt.ssm_g_pdf(params, 1e-170) == pytest.approx(want, rel=1e-15)
            assert rmt.ssm_g_cdf(params, 1e-170) == 0.75


class TestSwitchPoints:
    """Both sides of, and points on, the ratio switches of the support code.

    ``_lower_critical`` and ``_law`` branch on the effective ratio against
    one, exactly: the product law's at c = 1/2 for the white bulk, the
    classical law's at c (1 - w0) = 1 with a zero atom.
    """

    @pytest.mark.parametrize(
        "d", [-2e-12, -1.5e-12, -1.1e-12, -1e-12, 1e-12, 1.1e-12, 1.5e-12, 2e-12]
    )
    def test_white_laws_next_to_unit_effective_ratio(self, d):
        # effective ratio 1 + d for both laws: the lower edges, near 1e-25
        # and 1e-18, come from a critical point just above zero (below one)
        # or on the negative axis (above one); psi there loses digits to
        # cancellation, about 1e-16/|d| relative
        for edges, c, want in (
            (rmt.support_edges, 1.0 + d, lambda cf: (cf.a_prime, cf.b_prime)),
            (rmt.ppca_support_edges, (1.0 + d) / 2.0, lambda cf: (cf.a, cf.b)),
        ):
            lower, upper = edges(c, FLAT)
            want_lower, want_upper = want(rmt.ssm_closed_forms(rmt.SsmParams(c=c)))
            assert np.isfinite(lower) and np.isfinite(upper)
            assert lower == pytest.approx(want_lower, rel=1e-3, abs=0.0)
            assert upper == pytest.approx(want_upper, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [0.5 - 1e-4, 0.5 - 1e-9, 0.5 + 1e-9, 0.5 + 1e-4])
    def test_white_product_law_near_half(self, c):
        params = rmt.SsmParams(c=c, sigma2=1.0)
        consts = rmt.ssm_closed_forms(params)
        lower, upper = rmt.ppca_support_edges(c, FLAT)
        assert abs(lower - consts.a) <= 1e-10
        assert abs(upper - consts.b) <= 1e-10 * consts.b
        threshold = rmt.ppca_threshold(c, FLAT).threshold
        assert abs(threshold - consts.lambda_star) <= 1e-10 * consts.lambda_star
        grid = np.linspace(0.0, 1.05 * consts.b, 301)[1:]
        gap = rmt.ppca_lsd_cdf(c, FLAT, grid) - rmt.ssm_g_cdf(params, grid)
        assert np.max(np.abs(gap)) <= 1e-10

    def test_effective_ratio_is_the_criterions_own(self):
        # c (1 - w0) rounds to 1 - 1.1e-16 here, while the criterion next to
        # zero, c (w1 + w2), rounds to 1 + 2.2e-16: a branch taken on the
        # former would bracket a criterion of one sign
        h = spectra.make_spectrum(atoms=[(0.0, 0.06), (1.0, 0.57), (2.0, 0.37)])
        c = 1.0 / (1.0 - h.weights[0])
        assert c * (1.0 - h.weights[0]) < 1.0 < rmt._q_raw(c, h.values, h.weights, math.ulp(0.0))
        lower, upper = rmt.support_edges(c, h)
        assert 0.0 <= lower <= 1e-15 * upper

    @pytest.mark.parametrize("d", [-1e-4, -1e-9, 0.0, 1e-9, 1e-4])
    def test_zero_atom_near_unit_effective_ratio(self, d):
        w0 = 0.3
        h = spectra.make_spectrum(atoms=[(0.0, w0), (1.0, 1.0 - w0)])
        c = (1.0 + d) / (1.0 - w0)
        ratio = c * (1.0 - w0)
        lower, upper = rmt.support_edges(c, h)
        want_lower, want_upper = flat_mp_edges(ratio)
        if d == 0.0:
            assert lower == 0.0
        else:
            assert lower == pytest.approx(want_lower, rel=1e-6, abs=0.0)
        assert upper == pytest.approx(want_upper, rel=1e-6, abs=0.0)
        grid = np.linspace(0.0, 1.05 * rmt.ppca_support_edges(c, h)[1], 300)
        cdf = rmt.ppca_lsd_cdf(c, h, grid)
        assert cdf[0] == rmt.ppca_mass_at_zero(c, h)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == 1.0


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

    def test_match_decimal_oracle_across_ratios(self):
        # the textbook forms in decimal arithmetic, with 60 digits left after
        # the cancellations -c^2 + sqrt(c (c+4)^3) and sqrt(c^2 + 4c) - c,
        # which lose up to 2 log10(c) digits
        for c in np.logspace(-12.0, 150.0, 649):
            cd = decimal.Decimal(c)
            with decimal.localcontext() as ctx:
                ctx.prec = 60 + 2 * max(0, cd.adjusted())
                root = (cd * cd + 4 * cd).sqrt()
                sqrt_b = (cd * (cd + 4) ** 3).sqrt()
                alpha = (2 + 10 * cd - cd * cd - sqrt_b) / 2
                want = {
                    "lambda_star": (1 + cd + root).sqrt(),
                    "alpha": alpha,
                    "beta": (2 + 10 * cd - cd * cd + sqrt_b) / 2,
                    "b": (1 + cd + root).sqrt() * (1 + (root - cd) / 2),
                }
                if c < 0.5:
                    want["a"] = alpha.sqrt()
            cf = rmt.ssm_closed_forms(rmt.SsmParams(c=float(c)))
            for field, value in want.items():
                assert getattr(cf, field) == pytest.approx(float(value), rel=1e-13, abs=0.0), (
                    field,
                    c,
                )
            if c >= 0.5:
                assert cf.a == 0.0

    @pytest.mark.parametrize("c", [2e154, 1e200, np.finfo(float).max])
    def test_overflow_is_value_error(self, c):
        # alpha is about -c^2 at large c
        with pytest.raises(ValueError, match="overflow"):
            rmt.ssm_closed_forms(rmt.SsmParams(c=c))

    @pytest.mark.parametrize("d", [-1e-8, -2e-12, -1e-15, 1e-15, 2e-12, 1e-8])
    def test_classical_lower_edge_near_unit_ratio_against_mpmath(self, d):
        # (1 - sqrt(c))^2 cancels as c -> 1: 23% off at c = 1 - 1e-15
        c = 1.0 + d
        with mpmath.workdps(50):
            want = (1 - mpmath.sqrt(mpmath.mpf(c))) ** 2
        cf = rmt.ssm_closed_forms(rmt.SsmParams(c=c))
        assert cf.a_prime == pytest.approx(float(want), rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_sigma2_rule_has_one_message(self, sigma2):
        # SsmParams and the experiment config state the rule through one function
        message = f"^bulk level sigma2 must be positive and finite, got {sigma2}$"
        with pytest.raises(ValueError, match=message):
            rmt.SsmParams(c=0.4, sigma2=sigma2)
        with pytest.raises(ValueError, match=message):
            simlab.ExperimentConfig(n=40, p=16, master_seed=0, sigma2=sigma2)


def ssm_g_pdf_mpmath(c, sigma2, t):
    """The closed form ssm_g_pdf evaluates, in 60 digits plus 2 log10(c) guard digits.

    alpha and beta are the textbook (A -/+ sqrt(B))/2, whose cancellation
    loses up to 2 log10(c) digits; the squared real cube roots are |v|^(2/3).
    """
    with mpmath.workdps(60 + 2 * max(0, math.ceil(math.log10(c)))):
        c, s2, t = mpmath.mpf(c), mpmath.mpf(sigma2), mpmath.mpf(t)
        sqrt_b = mpmath.sqrt(c * (c + 4) ** 3)
        alpha = (2 + 10 * c - c * c - sqrt_b) / 2 * s2 * s2
        beta = (2 + 10 * c - c * c + sqrt_b) / 2 * s2 * s2
        x = t * t
        prod = (x - alpha) * (beta - x)
        disc = t * mpmath.sqrt(prod)
        shift = (9 * (c + 1) * s2 * x + (2 * c - 1) ** 3 * s2**3) / (3 * mpmath.sqrt(3))
        kappa = (
            abs(disc + shift) ** (mpmath.mpf(2) / 3)
            + abs(disc - shift) ** (mpmath.mpf(2) / 3)
            + (3 * x + (2 * c - 1) ** 2 * s2 * s2) / 3
        )
        return float(mpmath.sqrt(prod) / (kappa * mpmath.pi * c * s2))


class TestProductDensityAtAllRatios:
    @pytest.mark.parametrize("sigma2", [1.0, 0.3, 7.0])
    def test_matches_mpmath_oracle(self, sigma2):
        # the cube (2c - 1)^3 and the product (x - alpha)(beta - x) overflow
        # above c ~ 5e102 unless taken in units of the upper edge
        fractions = np.array([0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
        for c in np.concatenate([np.logspace(-3.0, 150.0, 307), [0.4999, 0.5, 0.5001]]):
            params = rmt.SsmParams(c=float(c), sigma2=sigma2)
            cf = rmt.ssm_closed_forms(params)
            lower = max(cf.alpha, 0.0)
            grid = np.sqrt(lower + fractions * (cf.beta - lower))
            want = [ssm_g_pdf_mpmath(c, sigma2, t) for t in grid]
            assert rmt.ssm_g_pdf(params, grid) == pytest.approx(want, rel=1e-10, abs=0.0), c

    @pytest.mark.parametrize("c", [1e103, 1e150])
    def test_cdf_nondecreasing_to_one_at_large_ratio(self, c):
        params = rmt.SsmParams(c=c)
        cf = rmt.ssm_closed_forms(params)
        grid = np.linspace(0.0, cf.b, 2001)
        cdf = rmt.ssm_g_cdf(params, grid)
        assert cdf[0] == cf.mass0_ppca
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == rmt.ssm_g_cdf(params, 1.5 * cf.b) == 1.0

    def test_unrepresentable_density_is_value_error(self):
        # c sigma2 underflows to 0, and the support collapses to the point b
        params = rmt.SsmParams(c=1e-200, sigma2=1e-150)
        b = rmt.ssm_closed_forms(params).b
        for call in (rmt.ssm_g_pdf, rmt.ssm_g_cdf):
            with pytest.raises(ValueError, match="ssm_g_pdf not representable"):
                call(params, b)


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

    def test_nondecreasing_across_panel_edges(self, law, c):
        # no tolerance at points whose theta is at, next to and 1e-9
        # relative around every inner panel edge
        edges = rmt._GL_EDGES[1:-1]
        theta = [edges * (1.0 + r) for r in (-1e-9, 0.0, 1e-9)]
        theta = np.concatenate(theta + [np.nextafter(edges, 0.0), np.nextafter(edges, np.pi)])
        for _, cdf, _, lo, hi, _ in self.cases(law, c):
            assert np.all(np.diff(cdf(np.sort(lo + (hi - lo) * np.sin(theta) ** 2))) >= 0.0)

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
    "mp_cdf": functools.partial(rmt.mp_cdf, 0.4, FLAT),
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

    def test_matches_decimal_oracle_over_the_float_range(self):
        cs = np.concatenate(([0.0], np.logspace(-12.0, 300.0, 313), [np.finfo(float).max]))
        got = rmt.rho(cs)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for c, value in zip(cs, got):
                cd = decimal.Decimal(c)
                root = (cd * cd + 4 * cd).sqrt()
                ratio = (2 + cd + root) / (1 + cd + root)
                want = (1 + cd.sqrt()) / decimal.Decimal(2).sqrt() * ratio.sqrt()
                assert value == pytest.approx(float(want), rel=1e-13, abs=0.0), c

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
    @given(c=RATIOS, seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 6))
    @example(c=0.5, seed=0, atoms=1)
    def test_bulk_edge_is_the_support_upper_edge(self, c, seed, atoms):
        # the stuck-spike edge and the support's upper edge are one number:
        # the image of the top critical point that gives the threshold
        h = random_bulk(np.random.default_rng(seed), atoms)
        for threshold, edges in (
            (rmt.pca_threshold, rmt.support_edges),
            (rmt.ppca_threshold, rmt.ppca_support_edges),
        ):
            assert threshold(c, h).bulk_edge == edges(c, h)[1]

    @PROPERTY
    @given(c=RATIOS, seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 4))
    def test_limit_one_float_above_threshold_is_not_below_the_edge(self, c, seed, atoms):
        # psi's slope is zero at the threshold, so its value one float above
        # can round below the edge: a stronger spike than a stuck one must
        # not get a smaller limit
        h = random_bulk(np.random.default_rng(seed), atoms)
        for threshold, limit in LAWS:
            thr = threshold(c, h)
            above = limit(c, h, math.nextafter(thr.threshold, math.inf))
            assert above.is_distant and above.value >= thr.bulk_edge

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

    @PROPERTY
    @given(c=RATIOS, seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 5))
    @example(c=0.5, seed=0, atoms=2)
    @example(c=1e-3, seed=1, atoms=5)
    @example(c=50.0, seed=2, atoms=1)
    def test_spike_maps_increase_above_threshold(self, c, seed, atoms):
        # psi and ppca_psi are strictly increasing from just above their
        # thresholds (where their slope vanishes) to 1e3 times them
        h = random_bulk(np.random.default_rng(seed), atoms)
        maps = ((rmt.pca_threshold, rmt.psi), (rmt.ppca_threshold, rmt.ppca_psi))
        for threshold, forward in maps:
            lam = threshold(c, h).threshold * (1.0 + np.geomspace(1e-6, 1e3, 60))
            assert np.all(np.diff(forward(c, h, lam)) > 0.0)

    @PROPERTY
    @given(
        c=RATIOS,
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 5),
        zero=st.booleans(),
        w0=st.floats(0.05, 0.5),
    )
    @example(c=0.25, seed=0, atoms=1, zero=False, w0=0.05)
    @example(c=0.75, seed=1, atoms=3, zero=True, w0=0.5)
    @example(c=3.0, seed=2, atoms=2, zero=True, w0=0.2)
    def test_edges_and_zero_mass_between_switch_points(self, c, seed, atoms, zero, w0):
        # Between the switch points c (1 - w0) = 1/2 and 1 the lower edges and
        # the zero masses follow the effective ratio c (1 - w0): the classical
        # lower edge stays positive, the product one is positive exactly below
        # 1/2.  Both flat-bulk laws match their closed forms at the same c.
        bulk = random_bulk(np.random.default_rng(seed), atoms)
        if zero:
            h = spectra.make_spectrum([(0.0, w0)] + [(t, (1.0 - w0) * w) for t, w in bulk.atoms])
            w0 = h.atoms[0][1]
        else:
            h, w0 = bulk, 0.0
        for ratio in (c * (1.0 - w0), c):
            assume(abs(ratio - 1.0) > 1e-6 and abs(2.0 * ratio - 1.0) > 1e-6)
        assert rmt.support_edges(c, h)[0] > 0.0
        assert (rmt.ppca_support_edges(c, h)[0] > 0.0) == (2.0 * c * (1.0 - w0) < 1.0)
        assert rmt.mass_at_zero(c, h) == max(1.0 - 1.0 / c, w0, 0.0)
        assert rmt.ppca_mass_at_zero(c, h) == max(1.0 - 1.0 / (2.0 * c), w0, 0.0)
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=c))
        for edges, want in (
            (rmt.support_edges(c, FLAT), (consts.a_prime, consts.b_prime)),
            (rmt.ppca_support_edges(c, FLAT), (consts.a, consts.b)),
        ):
            assert np.max(np.abs(np.subtract(edges, want))) <= 1e-12 * want[1]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        c=RATIOS,
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 4),
        w0=st.floats(0.05, 0.6),
    )
    @example(c=1.0, seed=0, atoms=1, w0=0.5)
    @example(c=0.5 / 0.7, seed=1, atoms=3, w0=0.3)
    @example(c=2.5, seed=2, atoms=2, w0=0.6)
    def test_zero_atom_is_the_positive_law_at_the_reduced_ratio(self, c, seed, atoms, w0):
        # a zero atom only removes coordinates: each law of (c, H) is w0 at
        # zero plus (1 - w0) times that of (c (1 - w0), H+), H+ the positive
        # atoms, with the same thresholds, edges and spike limits; the first
        # two examples sit on the product and classical switch points
        plus = random_bulk(np.random.default_rng(seed), atoms)
        h = spectra.make_spectrum([(0.0, w0)] + [(t, (1.0 - w0) * w) for t, w in plus.atoms])
        w0 = h.weights[0]
        ratio = c * (1.0 - w0)
        for edges, pdf, cdf, threshold, limit in (
            (rmt.support_edges, rmt.mp_density, rmt.mp_cdf, rmt.pca_threshold, rmt.pca_limit),
            (
                rmt.ppca_support_edges,
                rmt.ppca_lsd_pdf,
                rmt.ppca_lsd_cdf,
                rmt.ppca_threshold,
                rmt.ppca_limit,
            ),
        ):
            want_edges = edges(ratio, plus)
            assert edges(c, h) == pytest.approx(want_edges, rel=1e-12, abs=1e-15 * want_edges[1])
            got, want = threshold(c, h), threshold(ratio, plus)
            assert got.threshold == pytest.approx(want.threshold, rel=1e-12, abs=0.0)
            assert got.bulk_edge == pytest.approx(want.bulk_edge, rel=1e-12, abs=0.0)
            for lam in (math.nextafter(plus.bulk_upper, math.inf), 1.5 * want.threshold):
                got_limit, want_limit = limit(c, h, lam), limit(ratio, plus, lam)
                assert got_limit.tag == want_limit.tag
                assert got_limit.value == pytest.approx(want_limit.value, rel=1e-12, abs=0.0)
            x = want_edges[1] * np.array([1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.05])
            want_pdf = (1.0 - w0) * pdf(ratio, plus, x)
            assert pdf(c, h, x) == pytest.approx(want_pdf, rel=1e-10, abs=0.0)
            x = np.concatenate(([0.0], x))
            want_cdf = w0 + (1.0 - w0) * cdf(ratio, plus, x)
            assert cdf(c, h, x) == pytest.approx(want_cdf, rel=0.0, abs=1e-12)

    @PROPERTY
    @given(c=RATIOS, h=two_atom_bulks(), u=st.floats(0.0, 1.0), v=st.floats(np.log(1e-9), 0.0))
    def test_stieltjes_solves_in_upper_half_plane(self, c, h, u, v):
        # x from -1 to 1.2 times the classical upper edge, Im z log-uniform in [1e-9, 1]
        z = complex(-1.0 + u * (1.2 * rmt.support_edges(c, h)[1] + 1.0), float(np.exp(v)))
        ev = rmt.stieltjes(c, h, z)
        assert ev.m.imag > 0.0 and ev.m_under.imag > 0.0
        assert ev.residual <= rmt.SOLVER_TOL
        scale = max(1.0, abs(ev.m_under), abs((c - 1.0) / z))
        assert abs(ev.m_under - (c * ev.m + (c - 1.0) / z)) <= 1e-12 * scale

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


class TestRootFinder:
    @pytest.mark.parametrize(
        "f, lo, hi",
        [(lambda x: x**3 - 10.0, 1.0, 10.0), (lambda x: x * x - 10.0, -1e5, -1e-5)],
    )
    def test_ends_at_neighbouring_floats(self, f, lo, hi):
        # the root returned and one of its neighbours were both evaluated,
        # and f has opposite signs there
        seen = []
        got = rmt._root(lambda x: seen.append(x) or f(x), lo, hi)
        neighbours = (math.nextafter(got, -math.inf), math.nextafter(got, math.inf))
        assert got in seen
        assert any(x in seen and (f(x) > 0.0) != (f(got) > 0.0) for x in neighbours)

    def test_rejects_a_bracket_of_one_sign(self):
        with pytest.raises(rmt.SolverError, match="one sign"):
            rmt._root(lambda x: x - 5.0, 1.0, 2.0)

    def test_rejects_a_nan_inside(self):
        with pytest.raises(rmt.SolverError, match="not finite"):
            rmt._root(lambda x: math.nan if 1.5 < x < 2.5 else x - 2.0, 1.0, 3.0)

    def test_widest_bracket_closes_in_seventy_evaluations(self):
        seen = []
        got = rmt._root(lambda x: seen.append(x) or x - 3.0, 2.0**-1000, 2.0**1000)
        assert got == 3.0
        assert len(seen) <= 70


def scaled(h, k):
    """The bulk h with every atom multiplied by 2**k, which is exact."""
    return spectra.PopulationSpectrum(atoms=tuple((math.ldexp(t, k), w) for t, w in h.atoms))


def check_laws_scale(c, h, k):
    """Both laws of 2^k h at 2^k x: the same CDF, and densities divided by 2^k.

    The points run from 1e-9 of the upper edge, where a support reaching
    zero has its steepest density, to beyond the upper edge.
    """
    big = scaled(h, k)
    for edges, pdf, cdf in (
        (rmt.support_edges, rmt.mp_density, rmt.mp_cdf),
        (rmt.ppca_support_edges, rmt.ppca_lsd_pdf, rmt.ppca_lsd_cdf),
    ):
        x = edges(c, h)[1] * np.array([1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.05])
        xs = np.ldexp(x, k)
        assert cdf(c, big, xs) == pytest.approx(cdf(c, h, x), rel=0.0, abs=1e-14)
        assert pdf(c, big, xs) == pytest.approx(np.ldexp(pdf(c, h, x), -k), rel=1e-12, abs=0.0)


# c log-uniform in [0.01, 10]
SCALE_RATIOS = st.floats(np.log(0.01), np.log(10.0)).map(
    lambda v: float(np.clip(np.exp(v), 0.01, 10.0))
)


class TestScaleFreeCriticalPoints:
    @PROPERTY
    @given(
        c=SCALE_RATIOS,
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 4),
        k=st.integers(-150, 150),
        v=st.floats(np.log(1e-3), np.log(10.0)),
    )
    @example(c=0.01, seed=0, atoms=2, k=-40, v=0.0)
    @example(c=2.0, seed=1, atoms=2, k=150, v=0.0)
    def test_results_scale_with_the_bulk(self, c, seed, atoms, k, v):
        # Scaling the bulk by 2^k scales thresholds, edges and spike limits
        # by 2^k.  The classical law takes 2k, in [-300, 300]; the product
        # law works on H^2, whose squares stay in range for k in [-150, 150].
        h = random_bulk(np.random.default_rng(seed), atoms)
        lam = h.bulk_upper * (1.0 + float(np.exp(v)))
        for j, threshold, edges, limit in (
            (2 * k, rmt.pca_threshold, rmt.support_edges, rmt.pca_limit),
            (k, rmt.ppca_threshold, rmt.ppca_support_edges, rmt.ppca_limit),
        ):
            big = scaled(h, j)
            want = (*vars(threshold(c, h)).values(), *edges(c, h), limit(c, h, lam).value)
            got = (
                *vars(threshold(c, big)).values(),
                *edges(c, big),
                limit(c, big, math.ldexp(lam, j)).value,
            )
            assert got == pytest.approx([math.ldexp(x, j) for x in want], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c", [0.4, 2.0])
    @pytest.mark.parametrize("sigma2", [1e-20, 1e-10, 1e-6, 1.0, 1e20, 1e100])
    def test_flat_bulk_matches_closed_forms_at_any_level(self, c, sigma2):
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=c, sigma2=sigma2))
        h = spectra.make_spectrum(atoms=[(sigma2, 1.0)])
        got = (
            *vars(rmt.ppca_threshold(c, h)).values(),
            *vars(rmt.pca_threshold(c, h)).values(),
            *rmt.ppca_support_edges(c, h),
            *rmt.support_edges(c, h),
        )
        want = (
            consts.lambda_star,
            consts.b,
            consts.lambda_prime,
            consts.b_prime,
            consts.a,
            consts.b,
            consts.a_prime,
            consts.b_prime,
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12, 1e-40, 1e-100, 1e-160])
    def test_lower_edge_of_a_bulk_spanning_many_decades(self, eps):
        # the classical lower edge of {(eps, .5), (1, .5)} at c = 0.4 tends
        # to 0.2 eps: 0.19995 eps at eps = 1e-3
        h = spectra.make_spectrum(atoms=[(eps, 0.5), (1.0, 0.5)])
        assert abs(rmt.support_edges(0.4, h)[0] / eps - 0.2) <= 0.1 * eps + 1e-15

    def test_tiny_bulk_has_edges_and_a_typed_density_failure(self):
        # the edges of a bulk near 1e-165 are those of its unit-scale copy;
        # the companion solve does not yet reach this scale, and says so
        h = spectra.make_spectrum(atoms=[(1e-170, 0.5), (1e-165, 0.5)])
        unit = spectra.make_spectrum(atoms=[(1e-170 / 1e-165, 0.5), (1.0, 0.5)])
        lo, hi = rmt.support_edges(0.4, h)
        assert (lo, hi) == pytest.approx(
            [1e-165 * x for x in rmt.support_edges(0.4, unit)], rel=1e-13, abs=0.0
        )
        with pytest.raises(rmt.SolverError):
            rmt.mp_density(0.4, h, 0.5 * (lo + hi))

    @pytest.mark.parametrize("c", [1e-24, 1e-25, 1e-30])
    def test_white_bulk_at_tiny_ratio(self, c):
        # the critical points sit about sqrt(c) from the atom, only a few
        # ulps at c = 1e-30, and every bracket ends at the atom's neighbour
        consts = rmt.ssm_closed_forms(rmt.SsmParams(c=c))
        got = (
            rmt.pca_threshold(c, FLAT).threshold,
            rmt.ppca_threshold(c, FLAT).threshold,
            *rmt.support_edges(c, FLAT),
            *rmt.ppca_support_edges(c, FLAT),
        )
        want = (
            consts.lambda_prime,
            consts.lambda_star,
            consts.a_prime,
            consts.b_prime,
            consts.a,
            consts.b,
        )
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_white_bulk_below_the_reach_of_floats_is_typed(self):
        # c (u/ulp(u))^2 < 1: the criterion is below one already at the
        # atom's upper neighbour
        with pytest.raises(rmt.SolverError, match="one sign"):
            rmt.pca_threshold(1e-32, FLAT)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        c=SCALE_RATIOS,
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 4),
        k=st.integers(-60, 60),
    )
    # the product law's support reaches zero from 2c = 1, the classical
    # law's at c = 1 for a bulk without a zero atom
    @example(c=0.6, seed=0, atoms=1, k=8)
    @example(c=0.6, seed=1, atoms=2, k=60)
    @example(c=1.0, seed=2, atoms=3, k=60)
    @example(c=5.0, seed=3, atoms=2, k=60)
    def test_densities_and_cdfs_scale_with_the_bulk(self, c, seed, atoms, k):
        check_laws_scale(c, random_bulk(np.random.default_rng(seed), atoms), k)

    @pytest.mark.parametrize("k", [30, 60])
    @pytest.mark.parametrize("c", [2.0, 5.0])
    def test_zero_atom_laws_scale_with_the_bulk(self, c, k):
        # classical effective ratio c (1 - w0) of one (c = 2) and above (c = 5)
        check_laws_scale(c, HALF_ZERO, k)

    def test_product_edges_of_a_huge_bulk_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = rmt.ppca_support_edges(2.0, scaled(TWO_ATOM, 200))
        want = [math.ldexp(x, 200) for x in rmt.ppca_support_edges(2.0, TWO_ATOM)]
        assert edges == pytest.approx(want, rel=1e-15, abs=0.0)


def law_moments(law, powers):
    """Moments t^j of law's continuous part, integrated as _cdf integrates its CDF.

    t^j times _density goes through _cdf_from_pdf over the law's pieces.
    In units of the upper edge T the integral stays below one, which
    _cdf_from_pdf does not clip, and read just below T it is whole.
    Every power integrates on the same nodes, so the density is solved once.
    """
    top = law.pieces[-1][1]
    below = math.nextafter(top, 0.0)
    density = functools.lru_cache(lambda nodes: rmt._density(law.companion, np.frombuffer(nodes)))

    def moment(j):
        pdf = lambda t: (t / top) ** j * density(t.tobytes())
        return top**j * rmt._cdf_from_pdf("moment", pdf, law.pieces, 0.0, below)

    return [moment(j) for j in powers]


class TestMomentIdentities:
    """Moments of both laws against those of the bulk, h_j = sum w t^j.

    The classical law has m1 = h1, m2 = h2 + c h1^2 and
    m3 = h3 + 3c h1 h2 + c^2 h1^3 (Yin 1986).  The product law of singular
    values t is F_outer(t^2), whose ratio is 2c and whose bulk is F_{2c, H^2},
    so its moments of t^2 and t^4 are h2 and h4 + 4c h2^2.  The zero mass
    adds nothing to them.
    """

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        c=st.floats(np.log(0.01), np.log(5.0)).map(lambda v: float(np.clip(np.exp(v), 0.01, 5.0))),
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 5),
        k=st.integers(-40, 40),
    )
    @example(c=1.0, seed=0, atoms=2, k=40)
    @example(c=2.0, seed=1, atoms=3, k=40)
    @example(c=0.4, seed=2, atoms=5, k=-40)
    def test_moments_of_a_scaled_bulk(self, c, seed, atoms, k):
        h = scaled(random_bulk(np.random.default_rng(seed), atoms), k)
        h1, h2, h3, h4 = (float(np.dot(h.weights, h.values**j)) for j in (1, 2, 3, 4))
        classical, product = rmt._law(c, h, product=False), rmt._law(c, h, product=True)
        got = law_moments(classical, (1, 2, 3)) + law_moments(product, (2, 4))
        want = [
            h1,
            h2 + c * h1 * h1,
            h3 + 3.0 * c * h1 * h2 + c * c * h1**3,
            h2,
            h4 + 4.0 * c * h2 * h2,
        ]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCdfPieces:
    """A law's CDF pieces tile its support in order, and its CDF never decreases.

    The images of a multi-atom law's density dips need not follow the atoms'
    order, and unsorted cuts make pieces of negative width.
    """

    @pytest.mark.parametrize(
        "product, c, atoms",
        [
            (True, 2.0, [(0.3, 0.3), (1.0, 0.4), (3.0, 0.3)]),
            (False, 0.7, [(0.5, 0.1), (1.5, 0.1), (4.0, 0.8)]),
        ],
    )
    def test_law_with_misordered_dips_against_dense_reference(self, product, c, atoms):
        h = spectra.make_spectrum(atoms=atoms)
        law = rmt._law(c, h, product=product)
        cdf = functools.partial(rmt.ppca_lsd_cdf if product else rmt.mp_cdf, c, h)
        pdf = functools.partial(rmt.ppca_lsd_pdf if product else rmt.mp_density, c, h)
        nodes, want = dense_cdf(pdf, law.mass0, law.support)
        assert want[-1] == pytest.approx(1.0, abs=1e-6)
        nodes, want = nodes[::29], want[::29]
        assert np.max(np.abs(cdf(nodes) - want)) < 1e-6
        assert np.all(np.diff(cdf(np.linspace(0.0, 1.05 * law.support[-1][1], 400))) >= 0.0)
        # one support interval, cut at both dips
        assert len(law.support) == 1 and len(law.pieces) == 3

    @PROPERTY
    @given(
        c=SCALE_RATIOS,
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(3, 6),
        product=st.booleans(),
    )
    def test_pieces_tile_the_support_in_order(self, c, seed, atoms, product):
        # merging the pieces that touch gives back the support intervals
        law = rmt._law(c, random_bulk(np.random.default_rng(seed), atoms), product=product)
        assert all(lower < upper for lower, upper in law.pieces)
        merged = [list(law.pieces[0])]
        for lower, upper in law.pieces[1:]:
            assert lower >= merged[-1][1]
            if lower == merged[-1][1]:
                merged[-1][1] = upper
            else:
                merged.append([lower, upper])
        assert merged == [list(interval) for interval in law.support]


class TestLawCache:
    """One law value per (c, H, estimator), built once and never changed."""

    def test_one_build_per_estimator_whatever_the_spike_count(self, capsys):
        cfg = simlab.parse_config("n=100\np=40\nspikes=6,5,4,3\n", seed=1)
        runs = (
            lambda: simlab._spike_theory_table(cfg),
            lambda: cli.main(["limits", "--c", "0.4", "--lam", "6,5,4,3"]),
        )
        for run in runs:
            rmt._law.cache_clear()
            run()
            assert rmt._law.cache_info().misses == 2
            run()
            assert rmt._law.cache_info().misses == 2
        capsys.readouterr()

    def test_estimator_flag_is_keyword_only(self):
        # the cache would key a positional flag apart from a keyword one
        with pytest.raises(TypeError):
            rmt._law(0.4, FLAT, True)

    def test_failed_build_is_never_cached(self):
        size = rmt._law.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="aspect ratio"):
                rmt._law(math.nan, FLAT, product=False)
            with pytest.raises(rmt.SolverError, match="one sign"):
                rmt._law(1e-32, FLAT, product=False)
        assert rmt._law.cache_info().currsize == size

    @pytest.mark.parametrize("product", [False, True])
    def test_cached_value_cannot_be_changed(self, product):
        law = rmt._law(0.4, SPLIT, product=product)
        assert isinstance(law.support, tuple) and isinstance(law.pieces, tuple)
        assert all(isinstance(piece, tuple) for piece in law.support + law.pieces)
        with pytest.raises(AttributeError):
            law.support = ()
        assert rmt._law(0.4, SPLIT, product=product) is law
