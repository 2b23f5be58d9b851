"""Spectrum preprocessing: the software model of SpecHD's MSAS stages.

The paper's near-storage preprocessing module is a fixed three-stage
pipeline (§III-A):

1. **Spectra Filter** — remove peaks near the precursor ion and peaks whose
   intensity is below 1 % of the base peak.
2. **Top-k Selector** — keep only the ``k`` most intense peaks (realised on
   the FPGA with a bitonic sorting network; see :mod:`repro.fpga.bitonic`).
3. **Scale and Normalization** — intensity scaling (square-root by default,
   which is the standard variance-stabilising transform for ion counts)
   followed by L2 normalisation.

This module implements the same stages in NumPy, vectorised over a
:class:`~repro.spectrum.peaks.PeakBatch` the way the hardware streams a
batch, so that the algorithmic behaviour can be tested and reused by both
the software pipeline and the hardware model (which consumes the
*operation counts* these functions report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import PROTON_MASS
from .peaks import PeakBatch, row_offsets, sort_rows
from .spectrum import MassSpectrum

#: Paper default: drop peaks below 1 % of the base-peak intensity.
DEFAULT_MIN_INTENSITY_FRACTION = 0.01

#: Window (Da) around the precursor m/z within which peaks are removed.
DEFAULT_PRECURSOR_TOLERANCE_DA = 1.5

#: Paper-scale default for the Top-k selector.
DEFAULT_TOP_K = 50

#: Minimum number of surviving peaks for a spectrum to be considered usable.
DEFAULT_MIN_PEAKS = 5

#: Default m/z acceptance window.
DEFAULT_MZ_MIN = 101.0
DEFAULT_MZ_MAX = 1500.0


@dataclass(frozen=True)
class PreprocessingConfig:
    """Configuration for the preprocessing pipeline.

    The defaults correspond to the settings the paper inherits from
    HyperSpec/falcon-style preprocessing.
    """

    min_intensity_fraction: float = DEFAULT_MIN_INTENSITY_FRACTION
    precursor_tolerance_da: float = DEFAULT_PRECURSOR_TOLERANCE_DA
    top_k: int = DEFAULT_TOP_K
    min_peaks: int = DEFAULT_MIN_PEAKS
    min_mz: float = DEFAULT_MZ_MIN
    max_mz: float = DEFAULT_MZ_MAX
    scaling: str = "sqrt"  # one of: "sqrt", "rank", "none"

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_intensity_fraction < 1.0:
            raise ConfigurationError(
                "min_intensity_fraction must be in [0, 1), got "
                f"{self.min_intensity_fraction}"
            )
        if self.precursor_tolerance_da < 0:
            raise ConfigurationError("precursor_tolerance_da must be >= 0")
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_peaks < 1:
            raise ConfigurationError("min_peaks must be >= 1")
        if self.min_mz >= self.max_mz:
            raise ConfigurationError(
                f"min_mz ({self.min_mz}) must be < max_mz ({self.max_mz})"
            )
        if self.scaling not in ("sqrt", "rank", "none"):
            raise ConfigurationError(
                f"unknown scaling {self.scaling!r}; "
                "expected 'sqrt', 'rank', or 'none'"
            )


def preprocess_peaks(
    batch: PeakBatch,
    config: PreprocessingConfig = PreprocessingConfig(),
) -> Tuple[PeakBatch, np.ndarray]:
    """Run the three MSAS stages over every row of a batch at once.

    Returns ``(processed, kept)``: the rows that survive quality control
    (at least ``config.min_peaks`` peaks after the filter), preprocessed,
    and their row indices in ``batch``.  Every kept row is byte-identical
    to running the stages on that spectrum alone — each stage evaluates
    the per-spectrum float expressions elementwise:

    1. **Spectra Filter** — drops peaks outside ``[min_mz, max_mz]``,
       within ``precursor_tolerance_da`` of the precursor at any reduced
       charge ``1..charge``, or below ``min_intensity_fraction`` of the
       row's base peak (found with ``np.maximum.reduceat``).
    2. **Top-k Selector** — a row with more than ``top_k`` peaks keeps
       its ``np.argpartition(intensity, -k)[-k:]`` in m/z order; the
       partition runs per row so ties at the cut resolve as they always
       have (the FPGA realises this stage with a bitonic sorting network,
       see :mod:`repro.fpga.bitonic`).
    3. **Scale and Normalization** — ``sqrt``/``rank``/``none`` intensity
       scaling, then division by the row's L2 norm.  The norm is taken
       per row with ``np.linalg.norm``: a segmented sum would round
       differently in the last place.
    """
    mz, intensity = batch.mz, batch.intensity
    rows = batch.peak_rows()

    # Stage 1: the Spectra Filter.
    keep = (mz >= config.min_mz) & (mz <= config.max_mz)
    # A precursor of charge c also appears at every reduced charge 1..c
    # after charge reduction in the collision cell.
    neutral = batch.precursor_mz * batch.charge - batch.charge * PROTON_MASS
    peak_charge = batch.charge[rows]
    active = np.arange(mz.size)
    charge = 1
    while active.size:
        at_charge = (neutral[rows[active]] + charge * PROTON_MASS) / charge
        keep[active] &= (
            np.abs(mz[active] - at_charge) > config.precursor_tolerance_da
        )
        charge += 1
        active = active[peak_charge[active] >= charge]
    nonempty = batch.counts > 0
    base_peak = np.zeros(len(batch), dtype=np.float64)
    if nonempty.any():
        base_peak[nonempty] = np.maximum.reduceat(
            intensity, batch.offsets[:-1][nonempty]
        )
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as in Python
        threshold = config.min_intensity_fraction * base_peak
    keep &= intensity >= threshold[rows]

    counts = np.bincount(rows[keep], minlength=len(batch))
    kept = np.flatnonzero(counts >= config.min_peaks)
    keep &= (counts >= config.min_peaks)[rows]
    counts = counts[kept]
    offsets = row_offsets(counts)
    # The filter can only break m/z order where a NaN peak hid a descent
    # from the sortedness check; re-sort exactly as a spectrum would.
    mz, intensity = sort_rows(mz[keep], intensity[keep], offsets)

    # Stage 2: the Top-k Selector.
    k = config.top_k
    over = np.flatnonzero(counts > k)
    if over.size:
        selected = np.ones(mz.size, dtype=bool)
        for row in over.tolist():
            start, stop = int(offsets[row]), int(offsets[row + 1])
            top = np.argpartition(intensity[start:stop], -k)[-k:]
            selected[start:stop] = False
            selected[start + top] = True
        mz, intensity = mz[selected], intensity[selected]
        counts = np.minimum(counts, k)
        offsets = row_offsets(counts)
    out_rows = np.repeat(np.arange(kept.size), counts)

    # Stage 3: Scale and Normalization.
    if config.scaling == "sqrt":
        scaled = np.sqrt(intensity)
    elif config.scaling == "rank":
        order = np.lexsort((intensity, out_rows))
        scaled = np.empty(intensity.size, dtype=np.float64)
        scaled[order] = np.arange(intensity.size) - offsets[out_rows[order]] + 1
    else:
        scaled = intensity.copy()
    bounds = offsets.tolist()
    norms = np.array(
        [
            np.linalg.norm(scaled[bounds[row] : bounds[row + 1]])
            for row in range(kept.size)
        ],
        dtype=np.float64,
    )
    positive = (norms > 0)[out_rows]
    np.divide(scaled, norms[out_rows], out=scaled, where=positive)

    kept_rows = kept.tolist()
    processed = PeakBatch(
        mz=mz,
        intensity=scaled,
        counts=counts,
        precursor_mz=batch.precursor_mz[kept],
        charge=batch.charge[kept],
        identifiers=[batch.identifiers[row] for row in kept_rows],
        retention_times=[batch.retention_times[row] for row in kept_rows],
        metadata=[batch.metadata[row] for row in kept_rows],
    )
    return processed, kept


def preprocess_spectrum(
    spectrum: MassSpectrum,
    config: PreprocessingConfig = PreprocessingConfig(),
) -> MassSpectrum | None:
    """Run the full three-stage pipeline on one spectrum.

    Returns ``None`` when the spectrum does not survive quality control
    (fewer than ``config.min_peaks`` peaks after filtering), matching the
    behaviour of production MS pipelines which drop unusable spectra early.
    A one-row :func:`preprocess_peaks`; batch callers should call that.
    """
    processed, kept = preprocess_peaks(PeakBatch.from_spectra([spectrum]), config)
    return processed.to_spectra()[0] if kept.size else None


def preprocessing_survival_rate(
    spectra: Sequence[MassSpectrum],
    config: PreprocessingConfig = PreprocessingConfig(),
) -> float:
    """Fraction of spectra that survive preprocessing (QC pass rate)."""
    if not spectra:
        return 0.0
    _, kept = preprocess_peaks(PeakBatch.from_spectra(spectra), config)
    return kept.size / len(spectra)
