import dataclasses

import numpy as np
import pytest

from spikedcov import estimators, spectra


class TestMakeSpectrum:
    def test_sorts_atoms_and_spikes(self):
        # a spectrum is its bulk law: atoms sorted by value, nothing else
        s = spectra.make_spectrum(atoms=[(2.0, 0.5), (1.0, 0.5)])
        assert s.atoms == ((1.0, 0.5), (2.0, 0.5))
        assert s.bulk_upper == 2.0
        assert [f.name for f in dataclasses.fields(s)] == ["atoms"]

    def test_renormalizes_tiny_weight_slack(self):
        s = spectra.make_spectrum(atoms=[(1.0, 0.5 + 2e-10), (2.0, 0.5)])
        assert abs(float(np.sum(s.weights)) - 1.0) < 1e-15

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            spectra.make_spectrum(atoms=[(1.0, 0.7), (2.0, 0.7)])
        with pytest.raises(ValueError):
            spectra.make_spectrum(atoms=[(1.0, -0.5), (2.0, 1.5)])

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            spectra.make_spectrum(atoms=[(1.0, 0.5), (1.0, 0.5)])

    def test_rejects_negative_atoms_and_empty(self):
        with pytest.raises(ValueError):
            spectra.make_spectrum(atoms=[(-1.0, 1.0)])
        with pytest.raises(ValueError):
            spectra.make_spectrum(atoms=[])

    @pytest.mark.parametrize(
        "atoms",
        [
            [(np.nan, 1.0)],
            [(np.inf, 1.0)],
            [(1.0, np.nan)],
            [(0.5, 0.5), (2.0, 0.5 - 1e-12), (np.inf, 1e-12)],
        ],
    )
    def test_rejects_non_finite(self, atoms):
        # a NaN weight used to pass the weight-sum check, and psi then gave NaN
        with pytest.raises(ValueError, match="^bulk atoms and weights must be finite$"):
            spectra.make_spectrum(atoms=atoms)

    def test_moments(self):
        s = spectra.make_spectrum(atoms=[(1.0, 0.25), (2.0, 0.75)])
        assert s.bulk_mean == pytest.approx(1.75)


def _old_make_spectrum_atoms(atoms):
    """Atoms of the pre-check make_spectrum on an input it accepts: sort, renormalize."""
    pairs = sorted(((float(t), float(w)) for t, w in atoms), key=lambda p: p[0])
    vals = np.array([t for t, _ in pairs])
    wts = np.array([w for _, w in pairs])
    wts = wts / float(wts.sum())
    return tuple(zip(vals.tolist(), wts.tolist()))


class TestPopulationSpectrum:
    # a bulk checks itself however it is built, not only through make_spectrum
    @pytest.mark.parametrize(
        "atoms, message",
        [
            (((2.0, 0.5), (1.0, 0.5)), "^bulk atoms must be distinct and increasing$"),
            (((1.0, 0.5), (1.0, 0.5)), "^bulk atoms must be distinct and increasing$"),
            (((-1.0, 0.5), (1.0, 0.5)), "^bulk atoms must be nonnegative$"),
            (((1.0, 0.5), (np.inf, 0.5)), "^bulk atoms and weights must be finite$"),
            (((np.nan, 1.0),), "^bulk atoms and weights must be finite$"),
            (((1.0, 1.0), (2.0, 0.0)), "^bulk weights must be positive$"),
            (((1.0, 1.5), (2.0, -0.5)), "^bulk weights must be positive$"),
            (((1.0, 0.5), (2.0, 0.5 + 2e-9)), "^bulk weights sum to"),
            (((0.0, 1.0),), "^bulk law needs a positive atom$"),
            ((), "^spectrum needs at least one bulk atom$"),
        ],
    )
    def test_direct_construction_is_checked(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            spectra.PopulationSpectrum(atoms=atoms)

    def test_unsorted_bulk_reports_no_wrong_edge(self):
        # built directly, this bulk used to report bulk_upper == 1.0
        with pytest.raises(ValueError):
            spectra.PopulationSpectrum(atoms=((2.0, 0.5), (1.0, 0.7)))

    def test_holds_float_pairs(self):
        s = spectra.PopulationSpectrum(atoms=[[0, 0.5], [np.float64(2.0), 0.5]])
        assert s.atoms == ((0.0, 0.5), (2.0, 0.5))
        assert all(type(v) is float for atom in s.atoms for v in atom)

    def test_make_spectrum_atoms_unchanged(self):
        # sort, check, renormalize: bit for bit the atoms of the old builder
        rng = np.random.default_rng(3)
        inputs = [
            [(1.0, 0.5 + 2e-10), (2.0, 0.5)],
            [(2.0, 0.5), (1.0, 0.5 - 9e-10)],
            [(0.0, 0.3), (1.0, 0.7)],
            [(0.2, 0.5), (5.0, 0.5)],
        ]
        for k in range(1, 6):
            for _ in range(20):
                w = rng.uniform(0.1, 1.0, k)
                w = w / w.sum() * (1.0 + rng.uniform(-9e-10, 9e-10))
                vals = rng.permutation(rng.choice(np.arange(0.25, 50.0, 0.25), k, replace=False))
                inputs.append(list(zip(vals.tolist(), w.tolist())))
        for atoms in inputs:
            assert spectra.make_spectrum(atoms).atoms == _old_make_spectrum_atoms(atoms)


class TestSquareSpectrum:
    def test_squares_atoms_and_spikes(self):
        s = spectra.make_spectrum(atoms=[(0.5, 0.5), (2.0, 0.5)])
        sq = spectra.square_spectrum(s)
        assert sq == spectra.make_spectrum(atoms=[(0.25, 0.5), (4.0, 0.5)])

    @pytest.mark.parametrize(
        "atoms, message",
        [
            # squares overflow to inf
            ([(1e200, 1.0)], "^bulk atoms and weights must be finite$"),
            # squares underflow to two zeros, then to one
            ([(1e-170, 0.5), (1e-165, 0.5)], "^bulk atoms must be distinct and increasing$"),
            ([(1e-170, 1.0)], "^bulk law needs a positive atom$"),
            # a square of 1e-320 is subnormal: it has lost digits; a square of
            # 1e-340 is a zero atom, which moved the product law's lower edge
            # from near 1e-171 to 0.235 at c = 0.4
            (
                [(1e-160, 0.5), (1.0, 0.5)],
                "^positive bulk atoms must square to at least the smallest normal float$",
            ),
            (
                [(1e-170, 0.5), (1.0, 0.5)],
                "^positive bulk atoms must square to at least the smallest normal float$",
            ),
        ],
    )
    def test_rejects_squares_out_of_range(self, atoms, message):
        s = spectra.make_spectrum(atoms=atoms)
        with pytest.raises(ValueError, match=message):
            spectra.square_spectrum(s)


class TestESD:
    # the empirical distribution of a sample spectrum, passed as its array
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            spectra.esd_cdf(np.array([]), 1.0)
        with pytest.raises(ValueError):
            spectra.esd_cdf(np.array([1.0, np.nan]), 1.0)

    def test_cdf_step_values(self):
        e = np.array([3.0, 2.0, 1.0, 0.0])
        assert spectra.esd_cdf(e, -0.5) == 0.0
        assert spectra.esd_cdf(e, 0.0) == 0.25
        assert spectra.esd_cdf(e, 2.0) == 0.75
        assert spectra.esd_cdf(e, 3.0) == 1.0
        assert spectra.esd_cdf(e, 10.0) == 1.0

    def test_cdf_rejects_nan(self):
        e = np.array([2.0, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            spectra.esd_cdf(e, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            spectra.esd_cdf(e, np.array([1.5, np.nan]))

    def test_cdf_scalar_is_float(self):
        # a 0-d array is a scalar point, as in every law function of rmt
        e = np.array([2.0, 1.0])
        for t in (1.5, np.float64(1.5), np.array(1.5)):
            out = spectra.esd_cdf(e, t)
            assert type(out) is float and out == 0.5
        assert isinstance(spectra.esd_cdf(e, np.array([1.5])), np.ndarray)

    def test_cdf_vectorized(self):
        out = spectra.esd_cdf(np.array([2.0, 1.0]), np.array([0.5, 1.5, 2.5]))
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestKsDistance:
    def test_zero_iff_equal_on_grid(self):
        e = np.array([2.0, 1.0])
        grid = np.array([0.5, 1.5, 2.5])
        exact = spectra.esd_cdf(e, grid)
        assert spectra.ks_distance(e, exact, grid) == 0.0
        shifted = np.clip(exact + 0.1, 0.0, 1.0)
        assert spectra.ks_distance(e, shifted, grid) > 0.0

    def test_known_value(self):
        assert spectra.ks_distance(np.array([1.0]), [0.5], [2.0]) == pytest.approx(0.5)

    def test_scores_left_limit_at_jump(self):
        # just below the jump at 3 the ESD is 0 and the law 3/4
        grid = np.array([3.0])
        assert spectra.ks_distance(np.array([3.0]), grid / 4.0, grid) == pytest.approx(0.75)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            spectra.ks_distance(np.array([1.0]), [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 1.7])
    def test_rejects_reference_outside_unit_interval(self, bad):
        # a NaN reference used to give a NaN distance, and 1.7 a distance of 1.7
        with pytest.raises(ValueError, match=r"^reference CDF values must be finite and in \["):
            spectra.ks_distance([2.0, 1.0], [bad, 0.5], [1.0, 2.0])
        assert spectra.ks_distance([2.0, 1.0], [0.0, 1.0], [1.0, 2.0]) == 0.5

    def test_rejects_shape_mismatch(self):
        e = np.array([2.0, 1.0])
        for reference in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5):
            with pytest.raises(ValueError, match="shape"):
                spectra.ks_distance(e, reference, [1.5, 2.5])


class TestSpectrumRule:
    # every function that takes a sample spectrum reads it by one rule:
    # nonempty, finite, non-increasing, never re-sorted
    CALLS = {
        "esd_cdf": lambda v: spectra.esd_cdf(v, 1.5),
        "ks_distance": lambda v: spectra.ks_distance(v, [0.5], [1.5]),
        "debias_ppca": lambda v: estimators.debias_ppca(v, 0.4, 1),
        "debias_pca": lambda v: estimators.debias_pca(v, 0.4, 1),
        "estimate_rank": lambda v: estimators.estimate_rank(v, 2.0),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_rising(self, name):
        with pytest.raises(ValueError, match="^spectrum must be sorted descending$"):
            self.CALLS[name](np.array([3.0, 1.0, 2.0]))

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, name, bad):
        # estimate_rank used to check the shape only: [nan, 3, 1] over the
        # edge 2 counted one eigenvalue
        with pytest.raises(ValueError, match="^spectrum must be finite$"):
            self.CALLS[name](np.array([bad, 3.0, 1.0]))

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_empty_and_2d(self, name):
        for bad in (np.array([]), np.array([[3.0, 2.0, 1.0]])):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                self.CALLS[name](bad)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_accepts_ties_and_lists(self, name):
        call = self.CALLS[name]
        assert call([3.0, 2.0, 2.0, 1.0]) == call(np.array([3.0, 2.0, 2.0, 1.0]))


class TestTextFormat:
    def test_comments_and_blank_lines(self):
        text = "# population\n\natom 1.0 0.5  # two atoms\n  \natom 2.0 0.5\n"
        s = spectra.parse_spectrum_text(text)
        assert s.atoms == ((1.0, 0.5), (2.0, 0.5))

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            spectra.parse_spectrum_text("atom 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            spectra.parse_spectrum_text("atom 1.0 1.0\nwedge 2.0\n")

    def test_rejects_spike_line(self):
        # a spike never moves the bulk law, so a spectrum holds atoms only
        with pytest.raises(ValueError, match="bad spectrum line 2"):
            spectra.parse_spectrum_text("atom 1.0 1.0\nspike 3.0\n")
