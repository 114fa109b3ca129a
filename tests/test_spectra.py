import dataclasses

import numpy as np
import pytest

from spikedcov import spectra


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

    def test_moments(self):
        s = spectra.make_spectrum(atoms=[(1.0, 0.25), (2.0, 0.75)])
        assert s.bulk_mean == pytest.approx(1.75)


class TestSquareSpectrum:
    def test_squares_atoms_and_spikes(self):
        s = spectra.make_spectrum(atoms=[(0.5, 0.5), (2.0, 0.5)])
        sq = spectra.square_spectrum(s)
        assert sq == spectra.make_spectrum(atoms=[(0.25, 0.5), (4.0, 0.5)])


class TestESD:
    def test_sorts_descending(self):
        e = spectra.ESD(values=np.array([1.0, 3.0, 2.0]))
        assert list(e.values) == [3.0, 2.0, 1.0]
        assert e.dim_p == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            spectra.ESD(values=np.array([]))
        with pytest.raises(ValueError):
            spectra.ESD(values=np.array([1.0, np.nan]))

    def test_cdf_step_values(self):
        e = spectra.ESD(values=np.array([3.0, 2.0, 1.0, 0.0]))
        assert spectra.esd_cdf(e, -0.5) == 0.0
        assert spectra.esd_cdf(e, 0.0) == 0.25
        assert spectra.esd_cdf(e, 2.0) == 0.75
        assert spectra.esd_cdf(e, 3.0) == 1.0
        assert spectra.esd_cdf(e, 10.0) == 1.0

    def test_cdf_rejects_nan(self):
        e = spectra.ESD(values=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="NaN"):
            spectra.esd_cdf(e, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            spectra.esd_cdf(e, np.array([1.5, np.nan]))

    def test_cdf_vectorized(self):
        e = spectra.ESD(values=np.array([2.0, 1.0]))
        out = spectra.esd_cdf(e, np.array([0.5, 1.5, 2.5]))
        assert np.allclose(out, [0.0, 0.5, 1.0])


class TestKsDistance:
    def test_zero_iff_equal_on_grid(self):
        e = spectra.ESD(values=np.array([2.0, 1.0]))
        grid = np.array([0.5, 1.5, 2.5])
        exact = spectra.esd_cdf(e, grid)
        assert spectra.ks_distance(e, exact, grid) == 0.0
        shifted = np.clip(exact + 0.1, 0.0, 1.0)
        assert spectra.ks_distance(e, shifted, grid) > 0.0

    def test_known_value(self):
        e = spectra.ESD(values=np.array([1.0]))
        assert spectra.ks_distance(e, [0.5], [2.0]) == pytest.approx(0.5)

    def test_scores_left_limit_at_jump(self):
        # just below the jump at 3 the ESD is 0 and the law 3/4
        e = spectra.ESD(values=np.array([3.0]))
        grid = np.array([3.0])
        assert spectra.ks_distance(e, grid / 4.0, grid) == pytest.approx(0.75)

    def test_rejects_empty_grid(self):
        e = spectra.ESD(values=np.array([1.0]))
        with pytest.raises(ValueError):
            spectra.ks_distance(e, [], [])

    def test_rejects_shape_mismatch(self):
        e = spectra.ESD(values=np.array([2.0, 1.0]))
        for reference in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5):
            with pytest.raises(ValueError, match="shape"):
                spectra.ks_distance(e, reference, [1.5, 2.5])


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
