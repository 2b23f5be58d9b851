"""Columnar peak lists: a batch of spectra as flat arrays.

The paper's near-storage preprocessing (§III-A) streams whole batches of
peaks through fixed-function stages instead of handling one spectrum
object at a time.  :class:`PeakBatch` is that stream in software: the
peaks of every spectrum concatenated into two flat float64 arrays, plus
one ``counts`` entry and one set of precursor fields per spectrum.  The
MGF batch reader produces it, :func:`repro.spectrum.preprocess_peaks`
runs the three preprocessing stages over all of its rows at once, and
:meth:`repro.hdc.IDLevelEncoder.encode_batch` encodes it without ever
building per-spectrum objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SpectrumError
from .spectrum import MassSpectrum


@dataclass
class PeakBatch:
    """Peaks of ``len(batch)`` spectra in flat, row-major arrays.

    Row ``i`` owns ``mz[offsets[i]:offsets[i + 1]]`` and the matching
    slice of ``intensity``.  The per-row fields hold the same invariants
    as :class:`MassSpectrum`: charge ``>= 1``, a positive finite
    precursor m/z, and peaks in ascending m/z order (a row whose m/z
    values descend anywhere is stably re-sorted on construction, as a
    spectrum is).
    """

    mz: np.ndarray
    intensity: np.ndarray
    counts: np.ndarray
    precursor_mz: np.ndarray
    charge: np.ndarray
    identifiers: List[str]
    retention_times: List[Optional[float]]
    metadata: List[Dict[str, str]]

    def __post_init__(self) -> None:
        self.mz = np.asarray(self.mz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.precursor_mz = np.asarray(self.precursor_mz, dtype=np.float64)
        self.charge = np.asarray(self.charge, dtype=np.int64)
        rows = self.counts.shape[0] if self.counts.ndim == 1 else -1
        if self.mz.ndim != 1 or self.intensity.shape != self.mz.shape:
            raise SpectrumError("peak arrays must be 1-D and of equal length")
        if rows < 0 or any(
            len(column) != rows
            for column in (
                self.precursor_mz,
                self.charge,
                self.identifiers,
                self.retention_times,
                self.metadata,
            )
        ):
            raise SpectrumError("per-spectrum columns must have one entry per row")
        if np.any(self.counts < 0) or int(self.counts.sum()) != self.mz.size:
            raise SpectrumError("peak counts do not add up to the peak arrays")
        bad_charge = np.flatnonzero(self.charge < 1)
        if bad_charge.size:
            row = int(bad_charge[0])
            raise SpectrumError(
                f"spectrum {self.identifiers[row]!r}: precursor charge must "
                f"be >= 1, got {int(self.charge[row])}"
            )
        bad_precursor = np.flatnonzero(
            ~(np.isfinite(self.precursor_mz) & (self.precursor_mz > 0))
        )
        if bad_precursor.size:
            raise SpectrumError(
                f"spectrum {self.identifiers[int(bad_precursor[0])]!r}: "
                "precursor m/z must be positive and finite"
            )
        self.mz, self.intensity = sort_rows(
            self.mz, self.intensity, self.offsets
        )

    @property
    def offsets(self) -> np.ndarray:
        """Row boundaries: ``len(self) + 1`` peak offsets starting at 0."""
        return row_offsets(self.counts)

    def peak_rows(self) -> np.ndarray:
        """The row index of every peak."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    @classmethod
    def from_spectra(cls, spectra: Sequence[MassSpectrum]) -> "PeakBatch":
        """Flatten spectrum objects into one batch (peaks are copied)."""
        spectra = list(spectra)
        return cls(
            mz=_concatenate([spectrum.mz for spectrum in spectra]),
            intensity=_concatenate([spectrum.intensity for spectrum in spectra]),
            counts=[spectrum.mz.size for spectrum in spectra],
            precursor_mz=[spectrum.precursor_mz for spectrum in spectra],
            charge=[spectrum.precursor_charge for spectrum in spectra],
            identifiers=[spectrum.identifier for spectrum in spectra],
            retention_times=[spectrum.retention_time for spectrum in spectra],
            metadata=[spectrum.metadata for spectrum in spectra],
        )

    def to_spectra(self) -> List[MassSpectrum]:
        """Materialise every row as a :class:`MassSpectrum` (peaks copied)."""
        offsets = self.offsets.tolist()
        precursor_mz = self.precursor_mz.tolist()
        charge = self.charge.tolist()
        return [
            MassSpectrum(
                identifier=self.identifiers[row],
                precursor_mz=precursor_mz[row],
                precursor_charge=charge[row],
                mz=self.mz[offsets[row] : offsets[row + 1]].copy(),
                intensity=self.intensity[offsets[row] : offsets[row + 1]].copy(),
                retention_time=self.retention_times[row],
                metadata=dict(self.metadata[row]),
            )
            for row in range(len(self))
        ]


def row_offsets(counts: np.ndarray) -> np.ndarray:
    """``len(counts) + 1`` row boundaries of a flat peak array."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _concatenate(arrays: List[np.ndarray]) -> np.ndarray:
    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(arrays).astype(np.float64, copy=False)


def sort_rows(
    mz: np.ndarray, intensity: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort, by m/z, every row whose m/z values descend somewhere.

    Applies :class:`MassSpectrum`'s per-spectrum ``mz[1:] < mz[:-1]``
    check to each row of a flat batch: a drop between the last peak of
    one row and the first of the next does not count.  Returns the input
    arrays unchanged when every row passes, otherwise sorted copies.
    """
    if mz.size < 2:
        return mz, intensity
    drops = np.flatnonzero(mz[1:] < mz[:-1]) + 1
    if not drops.size:
        return mz, intensity
    rows = np.searchsorted(offsets, drops, side="right") - 1
    rows = np.unique(rows[offsets[rows] != drops])
    if not rows.size:
        return mz, intensity
    mz = mz.copy()
    intensity = intensity.copy()
    for row in rows.tolist():
        start, stop = int(offsets[row]), int(offsets[row + 1])
        order = np.argsort(mz[start:stop], kind="stable")
        mz[start:stop] = mz[start:stop][order]
        intensity[start:stop] = intensity[start:stop][order]
    return mz, intensity
