"""The :class:`MassSpectrum` data structure.

A tandem mass spectrum is a list of (m/z, intensity) peaks plus precursor
metadata (precursor m/z and charge state).  This module keeps the structure
deliberately small and array-backed: every preprocessing and encoding stage in
the SpecHD pipeline consumes the two NumPy arrays directly, mirroring how the
FPGA kernels stream ``peak_count`` pairs of fixed-point words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..errors import SpectrumError


@dataclass
class MassSpectrum:
    """An MS/MS spectrum: peak arrays plus precursor metadata.

    Parameters
    ----------
    identifier:
        Stable identifier, e.g. the MGF ``TITLE`` or scan number.
    precursor_mz:
        Measured mass-to-charge ratio of the precursor ion.
    precursor_charge:
        Charge state of the precursor ion (``>= 1``).
    mz:
        Peak m/z values, ascending.
    intensity:
        Peak intensities, same length as ``mz``.
    retention_time:
        Optional retention time in seconds.
    metadata:
        Free-form key/value annotations (source file, peptide label, ...).
    """

    identifier: str
    precursor_mz: float
    precursor_charge: int
    mz: np.ndarray
    intensity: np.ndarray
    retention_time: Optional[float] = None
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.mz = np.asarray(self.mz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.mz.ndim != 1 or self.intensity.ndim != 1:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: peak arrays must be 1-D"
            )
        if self.mz.shape != self.intensity.shape:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: mz and intensity lengths differ "
                f"({self.mz.size} vs {self.intensity.size})"
            )
        if self.precursor_charge < 1:
            raise SpectrumError(
                f"spectrum {self.identifier!r}: precursor charge must be >= 1, "
                f"got {self.precursor_charge}"
            )
        if not (math.isfinite(self.precursor_mz) and self.precursor_mz > 0):
            raise SpectrumError(
                f"spectrum {self.identifier!r}: precursor m/z must be "
                "positive and finite"
            )
        if self.mz.size > 1 and (self.mz[1:] < self.mz[:-1]).any():
            order = np.argsort(self.mz, kind="stable")
            self.mz = self.mz[order]
            self.intensity = self.intensity[order]

    @property
    def peak_count(self) -> int:
        """Number of peaks in the spectrum."""
        return int(self.mz.size)

    @property
    def base_peak_intensity(self) -> float:
        """Intensity of the most intense peak (0.0 for empty spectra)."""
        if self.intensity.size == 0:
            return 0.0
        return float(self.intensity.max())

    @property
    def total_ion_current(self) -> float:
        """Sum of all peak intensities."""
        return float(self.intensity.sum())

    @property
    def neutral_mass(self) -> float:
        """Neutral (uncharged) precursor mass implied by m/z and charge."""
        from ..units import PROTON_MASS

        return self.precursor_mz * self.precursor_charge - (
            self.precursor_charge * PROTON_MASS
        )

    def peaks(self) -> Iterator[Tuple[float, float]]:
        """Iterate over ``(mz, intensity)`` pairs in m/z order."""
        for mz_value, intensity_value in zip(self.mz, self.intensity):
            yield float(mz_value), float(intensity_value)

    def copy(self) -> "MassSpectrum":
        """Deep copy (peak arrays and metadata are duplicated)."""
        return MassSpectrum(
            identifier=self.identifier,
            precursor_mz=self.precursor_mz,
            precursor_charge=self.precursor_charge,
            mz=self.mz.copy(),
            intensity=self.intensity.copy(),
            retention_time=self.retention_time,
            metadata=dict(self.metadata),
        )

    def with_peaks(
        self, mz: np.ndarray, intensity: np.ndarray
    ) -> "MassSpectrum":
        """Return a copy of this spectrum with replaced peak arrays."""
        return MassSpectrum(
            identifier=self.identifier,
            precursor_mz=self.precursor_mz,
            precursor_charge=self.precursor_charge,
            mz=np.asarray(mz, dtype=np.float64),
            intensity=np.asarray(intensity, dtype=np.float64),
            retention_time=self.retention_time,
            metadata=dict(self.metadata),
        )

    def restrict_mz_range(
        self, min_mz: float, max_mz: float
    ) -> "MassSpectrum":
        """Return a copy keeping only peaks with ``min_mz <= mz <= max_mz``."""
        if min_mz > max_mz:
            raise SpectrumError(
                f"invalid m/z window [{min_mz}, {max_mz}]"
            )
        mask = (self.mz >= min_mz) & (self.mz <= max_mz)
        return self.with_peaks(self.mz[mask], self.intensity[mask])

    def estimated_raw_bytes(self) -> int:
        """Approximate on-disk footprint of the raw peak list.

        Profile-free MS files store each peak as two floating-point values
        plus textual overhead; we count two 8-byte doubles per peak plus a
        small fixed header, which matches the compression accounting used in
        Fig. 6b.
        """
        header_bytes = 64
        return header_bytes + 16 * self.peak_count

    def __len__(self) -> int:
        return self.peak_count

    def __repr__(self) -> str:
        return (
            f"MassSpectrum(id={self.identifier!r}, "
            f"precursor_mz={self.precursor_mz:.4f}, "
            f"charge={self.precursor_charge}, peaks={self.peak_count})"
        )
