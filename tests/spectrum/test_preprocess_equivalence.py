"""``preprocess_peaks`` against the per-spectrum oracle, byte for byte.

The batch implementation runs the filter, top-k and scale/normalise
stages across every row at once; the oracle in ``tests/spectrum/oracles.py``
runs them one spectrum at a time.  Generated batches aim at the places
where a vectorised rewrite could drift: unsorted and NaN m/z, peaks on
the precursor tolerance edge at every reduced charge, exact intensity
ties at the top-k cut and at the base-peak threshold, rows that land on
exactly ``min_peaks`` or ``top_k`` peaks, and every scaling mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectrum import (
    MassSpectrum,
    PeakBatch,
    PreprocessingConfig,
    preprocess_peaks,
    preprocess_spectrum,
)
from repro.units import PROTON_MASS

from spectrum.oracles import preprocess_spectrum_oracle

#: Intensity levels with many exact ties, plus the 1% threshold of 100.
TIED_INTENSITIES = [100.0, 50.0, 50.0, 7.0, 1.0, 0.01 * 100.0, 0.5, 0.0]


@st.composite
def configs(draw):
    min_mz = draw(st.sampled_from([0.0, 101.0, 300.0]))
    return PreprocessingConfig(
        min_intensity_fraction=draw(st.sampled_from([0.0, 0.01, 0.2, 0.5])),
        precursor_tolerance_da=draw(st.sampled_from([0.0, 0.5, 1.5, 4.0])),
        top_k=draw(st.integers(1, 40)),
        min_peaks=draw(st.integers(1, 8)),
        min_mz=min_mz,
        max_mz=draw(st.sampled_from([min_mz + 400.0, 1500.0, 1e6])),
        scaling=draw(st.sampled_from(["sqrt", "rank", "none"])),
    )


@st.composite
def peak_lists(draw, precursor_mz, charge, config):
    """Peaks mixing random, precursor-adjacent, tied and clean values."""
    neutral = precursor_mz * charge - charge * PROTON_MASS
    tolerance = config.precursor_tolerance_da
    mz = []
    intensity = []
    count = draw(st.integers(0, 60))
    for _ in range(count):
        kind = draw(st.integers(0, 9))
        if kind <= 3:
            value = draw(st.floats(50.0, 1700.0))
        elif kind <= 6:
            reduced = draw(st.integers(1, charge))
            centre = (neutral + reduced * PROTON_MASS) / reduced
            value = centre + draw(
                st.sampled_from([-tolerance, tolerance, 0.0, 0.25, -2.0])
            )
        elif kind == 7:
            value = draw(st.sampled_from([config.min_mz, config.max_mz]))
        elif kind == 8:
            value = float(draw(st.integers(120, 1400)))  # duplicate m/z
        else:
            value = draw(st.sampled_from([np.nan, np.inf, -1.0]))
        mz.append(value)
        if draw(st.booleans()):
            intensity.append(draw(st.sampled_from(TIED_INTENSITIES)))
        else:
            intensity.append(
                draw(
                    st.one_of(
                        st.floats(0.0, 1e6),
                        st.sampled_from([np.nan, np.inf]),
                    )
                )
            )
    return np.array(mz, dtype=np.float64), np.array(intensity, dtype=np.float64)


@st.composite
def clean_row(draw, config):
    """Peaks that all pass the filter, counted onto a QC or top-k edge."""
    count = draw(
        st.sampled_from(
            [
                max(0, config.min_peaks - 1),
                config.min_peaks,
                config.top_k,
                config.top_k + 1,
            ]
        )
    )
    low = max(config.min_mz, 60.0)
    high = min(config.max_mz, low + 300.0)
    mz = np.linspace(low + 0.01, high - 0.01, count)
    if draw(st.booleans()):
        mz = mz[::-1].copy()  # descending: the row must be re-sorted
    intensity = np.array(
        [draw(st.sampled_from([10.0, 10.0, 20.0])) for _ in range(count)]
    )
    # Precursor far above the window: no peak sits near any reduced charge.
    return MassSpectrum("clean", 1e7, 1, mz, intensity)


@st.composite
def batches(draw):
    config = draw(configs())
    spectra = []
    for row in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            spectra.append(draw(clean_row(config)))
            continue
        charge = draw(st.integers(1, 6))
        precursor_mz = draw(st.floats(150.0, 1400.0))
        mz, intensity = draw(peak_lists(precursor_mz, charge, config))
        spectra.append(
            MassSpectrum(f"s{row}", precursor_mz, charge, mz, intensity)
        )
    return spectra, config


def _assert_matches_oracle(spectra, config):
    expected = [preprocess_spectrum_oracle(s, config) for s in spectra]
    processed, kept = preprocess_peaks(PeakBatch.from_spectra(spectra), config)
    assert kept.tolist() == [
        row for row, result in enumerate(expected) if result is not None
    ]
    actual = processed.to_spectra()
    assert len(actual) == kept.size
    for row, spectrum in zip(kept.tolist(), actual):
        oracle = expected[row]
        assert spectrum.mz.tobytes() == oracle.mz.tobytes()
        assert spectrum.intensity.tobytes() == oracle.intensity.tobytes()
        assert spectrum.identifier == oracle.identifier
        assert spectrum.precursor_mz == oracle.precursor_mz
        assert spectrum.precursor_charge == oracle.precursor_charge


class TestPreprocessPeaksEqualsOracle:
    @given(case=batches())
    @settings(max_examples=300, deadline=None)
    def test_generated_batches(self, case):
        spectra, config = case
        _assert_matches_oracle(spectra, config)

    @pytest.mark.parametrize("scaling", ["sqrt", "rank", "none"])
    def test_synthetic_dataset(self, labelled_dataset, scaling):
        config = PreprocessingConfig(scaling=scaling, top_k=20)
        _assert_matches_oracle(labelled_dataset.spectra, config)

    def test_top_k_tie_at_the_cut(self):
        # Five equal peaks competing for the last two of four slots.
        spectrum = MassSpectrum(
            "tie",
            900.0,
            2,
            np.linspace(150.0, 600.0, 7),
            np.array([9.0, 5.0, 5.0, 9.0, 5.0, 5.0, 5.0]),
        )
        _assert_matches_oracle([spectrum], PreprocessingConfig(top_k=4))

    def test_nan_hides_a_descent(self):
        # NaN compares false both ways, so 180 > 150 passes the sortedness
        # check; once the filter drops the NaN, the row must be re-sorted
        # before the top-k cut picks between the two tied 3.0 peaks.
        spectrum = MassSpectrum(
            "nan",
            900.0,
            2,
            np.array([170.0, 180.0, np.nan, 150.0]),
            np.array([3.0, 5.0, 5.0, 3.0]),
        )
        assert spectrum.mz[0] == 170.0
        _assert_matches_oracle(
            [spectrum], PreprocessingConfig(min_peaks=1, top_k=2)
        )

    def test_preprocess_spectrum_is_one_row(self, labelled_dataset):
        for spectrum in labelled_dataset.spectra[:20]:
            oracle = preprocess_spectrum_oracle(spectrum, PreprocessingConfig())
            single = preprocess_spectrum(spectrum)
            assert (oracle is None) == (single is None)
            if oracle is not None:
                assert single.intensity.tobytes() == oracle.intensity.tobytes()
