"""Per-spectrum oracle for the vectorised preprocessing stages.

:func:`repro.spectrum.preprocess_peaks` runs the filter, top-k and
scale/normalise stages across a whole batch at once.  These are the same
three stages written one spectrum at a time, each stage building a new
:class:`MassSpectrum` — the straightforward reading of §III-A that the
batch implementation must match byte for byte.  None of it runs outside
the tests.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.spectrum import MassSpectrum, PreprocessingConfig
from repro.units import PROTON_MASS


def filter_peaks(
    spectrum: MassSpectrum, config: PreprocessingConfig
) -> MassSpectrum:
    """Stage 1 — the Spectra Filter.

    Removes peaks (a) outside the configured m/z window, (b) within
    ``precursor_tolerance_da`` of any precursor-ion m/z (all charge
    reductions of the precursor are considered), and (c) below
    ``min_intensity_fraction`` of the base peak.
    """
    mz = spectrum.mz
    intensity = spectrum.intensity
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)

    # Remove the precursor ion signal at every reduced charge state: a
    # precursor of charge c appears at m/z values corresponding to charges
    # 1..c after charge reduction in the collision cell.
    neutral = spectrum.neutral_mass
    for charge in range(1, spectrum.precursor_charge + 1):
        precursor_mz_at_charge = (neutral + charge * PROTON_MASS) / charge
        keep &= np.abs(mz - precursor_mz_at_charge) > config.precursor_tolerance_da

    if intensity.size:
        threshold = config.min_intensity_fraction * spectrum.base_peak_intensity
        keep &= intensity >= threshold

    return spectrum.with_peaks(mz[keep], intensity[keep])


def select_top_k(spectrum: MassSpectrum, k: int) -> MassSpectrum:
    """Stage 2 — the Top-k Selector.

    Keeps the ``k`` most intense peaks, preserving m/z order.  This is the
    software-equivalent of the FPGA's bitonic-sort based selector: the
    hardware sorts by intensity and truncates; re-sorting the survivors by
    m/z is free because downstream stages consume m/z-major streams.
    """
    if k < 1:
        raise ConfigurationError(f"top_k must be >= 1, got {k}")
    if spectrum.peak_count <= k:
        return spectrum.copy()
    # argpartition is the O(n) analogue of the truncated bitonic sort.
    top_indices = np.argpartition(spectrum.intensity, -k)[-k:]
    top_indices.sort()
    return spectrum.with_peaks(
        spectrum.mz[top_indices], spectrum.intensity[top_indices]
    )


def scale_and_normalize(
    spectrum: MassSpectrum, scaling: str = "sqrt"
) -> MassSpectrum:
    """Stage 3 — Scale and Normalization.

    ``sqrt`` compresses the dynamic range of ion counts, ``rank`` replaces
    intensities with their ranks (robust to detector saturation), ``none``
    leaves intensities untouched.  All modes finish with L2 normalisation so
    that the dot product of two processed spectra is their cosine score.
    """
    intensity = spectrum.intensity.astype(np.float64)
    if scaling == "sqrt":
        scaled = np.sqrt(intensity)
    elif scaling == "rank":
        order = np.argsort(np.argsort(intensity, kind="stable"), kind="stable")
        scaled = (order + 1).astype(np.float64)
    elif scaling == "none":
        scaled = intensity.copy()
    else:
        raise ConfigurationError(f"unknown scaling {scaling!r}")
    norm = np.linalg.norm(scaled)
    if norm > 0:
        scaled = scaled / norm
    return spectrum.with_peaks(spectrum.mz, scaled)


def preprocess_spectrum_oracle(
    spectrum: MassSpectrum,
    config: PreprocessingConfig = PreprocessingConfig(),
) -> MassSpectrum | None:
    """Run the full three-stage pipeline on one spectrum.

    Returns ``None`` when the spectrum does not survive quality control
    (fewer than ``config.min_peaks`` peaks after filtering), matching the
    behaviour of production MS pipelines which drop unusable spectra early.
    """
    filtered = filter_peaks(spectrum, config)
    if filtered.peak_count < config.min_peaks:
        return None
    selected = select_top_k(filtered, config.top_k)
    return scale_and_normalize(selected, config.scaling)


def preprocess_batch(
    spectra: Iterable[MassSpectrum],
    config: PreprocessingConfig = PreprocessingConfig(),
) -> List[MassSpectrum]:
    """Preprocess a batch, dropping spectra that fail quality control."""
    processed: List[MassSpectrum] = []
    for spectrum in spectra:
        result = preprocess_spectrum_oracle(spectrum, config)
        if result is not None:
            processed.append(result)
    return processed
