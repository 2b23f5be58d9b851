"""Tests for the MassSpectrum data structure."""

import numpy as np
import pytest

from repro.errors import SpectrumError
from repro.spectrum import MassSpectrum
from repro.units import PROTON_MASS


def make(mz, intensity, charge=2, precursor=500.0):
    return MassSpectrum("s", precursor, charge, np.array(mz), np.array(intensity))


class TestConstruction:
    def test_basic_properties(self, simple_spectrum):
        assert simple_spectrum.peak_count == 5
        assert simple_spectrum.base_peak_intensity == 100.0
        assert simple_spectrum.total_ion_current == pytest.approx(190.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpectrumError, match="lengths differ"):
            make([1.0, 2.0], [1.0])

    def test_non_positive_precursor_rejected(self):
        with pytest.raises(SpectrumError, match="positive"):
            make([100.0], [1.0], precursor=0.0)

    @pytest.mark.parametrize("precursor", [float("nan"), float("inf"), -1.0])
    def test_non_finite_precursor_rejected(self, precursor):
        with pytest.raises(SpectrumError, match="positive and finite"):
            make([100.0], [1.0], precursor=precursor)

    def test_zero_charge_rejected(self):
        with pytest.raises(SpectrumError, match="charge"):
            make([100.0], [1.0], charge=0)

    def test_2d_arrays_rejected(self):
        with pytest.raises(SpectrumError, match="1-D"):
            MassSpectrum(
                "s", 500.0, 2, np.ones((2, 2)), np.ones((2, 2))
            )

    def test_unsorted_peaks_are_sorted(self):
        spectrum = make([300.0, 100.0, 200.0], [3.0, 1.0, 2.0])
        assert list(spectrum.mz) == [100.0, 200.0, 300.0]
        assert list(spectrum.intensity) == [1.0, 2.0, 3.0]

    def test_empty_spectrum_allowed(self):
        spectrum = make([], [])
        assert spectrum.peak_count == 0
        assert spectrum.base_peak_intensity == 0.0


class TestDerivedQuantities:
    def test_neutral_mass(self):
        spectrum = make([100.0], [1.0], charge=2, precursor=500.0)
        expected = 500.0 * 2 - 2 * PROTON_MASS
        assert spectrum.neutral_mass == pytest.approx(expected)

    def test_peaks_iterator_order(self, simple_spectrum):
        peaks = list(simple_spectrum.peaks())
        assert peaks[0] == (150.0, 10.0)
        assert len(peaks) == 5

    def test_len_matches_peak_count(self, simple_spectrum):
        assert len(simple_spectrum) == simple_spectrum.peak_count


class TestCopyAndTransform:
    def test_copy_is_deep(self, simple_spectrum):
        duplicate = simple_spectrum.copy()
        duplicate.mz[0] = 999.0
        duplicate.metadata["x"] = "y"
        assert simple_spectrum.mz[0] == 150.0
        assert "x" not in simple_spectrum.metadata

    def test_with_peaks_replaces_arrays(self, simple_spectrum):
        replaced = simple_spectrum.with_peaks(
            np.array([111.0]), np.array([1.0])
        )
        assert replaced.peak_count == 1
        assert replaced.precursor_mz == simple_spectrum.precursor_mz

    def test_restrict_mz_range(self, simple_spectrum):
        windowed = simple_spectrum.restrict_mz_range(200.0, 500.0)
        assert windowed.peak_count == 3
        assert windowed.mz.min() >= 200.0
        assert windowed.mz.max() <= 500.0

    def test_restrict_invalid_window(self, simple_spectrum):
        with pytest.raises(SpectrumError):
            simple_spectrum.restrict_mz_range(500.0, 200.0)

    def test_estimated_raw_bytes_scales_with_peaks(self):
        small = make([100.0], [1.0])
        large = make(list(np.linspace(100, 900, 100)), [1.0] * 100)
        assert large.estimated_raw_bytes() > small.estimated_raw_bytes()
        assert large.estimated_raw_bytes() == 64 + 16 * 100
