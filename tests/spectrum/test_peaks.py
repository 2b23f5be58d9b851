"""Tests for the columnar :class:`PeakBatch`."""

import numpy as np
import pytest

from repro.errors import SpectrumError
from repro.spectrum import MassSpectrum, PeakBatch


def _spectra():
    return [
        MassSpectrum("a", 500.0, 2, [100.0, 200.0], [1.0, 2.0], 12.5, {"k": "v"}),
        MassSpectrum("empty", 300.0, 1, [], []),
        MassSpectrum("b", 700.0, 3, [150.0, 160.0, 170.0], [3.0, 2.0, 1.0]),
    ]


def _batch(**overrides):
    fields = dict(
        mz=[300.0, 100.0, 200.0, 50.0],
        intensity=[3.0, 1.0, 2.0, 5.0],
        counts=[3, 1],
        precursor_mz=[500.0, 600.0],
        charge=[2, 1],
        identifiers=["x", "y"],
        retention_times=[None, None],
        metadata=[{}, {}],
    )
    fields.update(overrides)
    return PeakBatch(**fields)


class TestPeakBatch:
    def test_round_trip_through_spectra(self):
        spectra = _spectra()
        batch = PeakBatch.from_spectra(spectra)
        assert len(batch) == 3
        assert batch.counts.tolist() == [2, 0, 3]
        assert batch.offsets.tolist() == [0, 2, 2, 5]
        assert batch.peak_rows().tolist() == [0, 0, 2, 2, 2]
        for original, restored in zip(spectra, batch.to_spectra()):
            assert restored.identifier == original.identifier
            assert restored.precursor_mz == original.precursor_mz
            assert restored.precursor_charge == original.precursor_charge
            assert restored.retention_time == original.retention_time
            assert restored.metadata == original.metadata
            assert restored.mz.tobytes() == original.mz.tobytes()
            assert restored.intensity.tobytes() == original.intensity.tobytes()

    def test_empty_batch(self):
        batch = PeakBatch.from_spectra([])
        assert len(batch) == 0
        assert batch.to_spectra() == []

    def test_materialised_spectra_own_their_peaks(self):
        batch = PeakBatch.from_spectra(_spectra())
        spectrum = batch.to_spectra()[0]
        spectrum.mz[0] = -1.0
        spectrum.metadata["k"] = "changed"
        assert batch.mz[0] == 100.0
        assert batch.metadata[0] == {"k": "v"}

    def test_unsorted_rows_sorted_like_a_spectrum(self):
        batch = _batch()
        # Row 0 is re-sorted; the drop from 300 (row 0) to 50 (row 1)
        # crosses a row boundary and is left alone.
        assert batch.mz.tolist() == [100.0, 200.0, 300.0, 50.0]
        assert batch.intensity.tolist() == [1.0, 2.0, 3.0, 5.0]

    def test_sorting_does_not_touch_caller_arrays(self):
        mz = np.array([300.0, 100.0, 200.0, 50.0])
        _batch(mz=mz)
        assert mz.tolist() == [300.0, 100.0, 200.0, 50.0]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"charge": [2, 0]}, "charge must be >= 1"),
            ({"precursor_mz": [500.0, np.nan]}, "positive and finite"),
            ({"precursor_mz": [np.inf, 1.0]}, "positive and finite"),
            ({"precursor_mz": [0.0, 1.0]}, "positive and finite"),
            ({"counts": [3, 2]}, "do not add up"),
            ({"counts": [5, -1]}, "do not add up"),
            ({"identifiers": ["x"]}, "one entry per row"),
            ({"intensity": [1.0]}, "equal length"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(SpectrumError, match=message):
            _batch(**overrides)

    def test_invalid_row_named_in_error(self):
        with pytest.raises(SpectrumError, match="'y'"):
            _batch(charge=[2, 0])
