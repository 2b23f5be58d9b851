"""Mascot Generic Format (MGF) reader and writer.

MGF is the simplest of the MS text formats: each spectrum is a
``BEGIN IONS`` / ``END IONS`` block with ``KEY=VALUE`` headers followed by
whitespace-separated ``mz intensity`` peak lines.  This implementation is
self-contained (no pyteomics) and tolerant of the common real-world quirks:
charge suffixes (``2+``), multiple values in ``PEPMASS``, blank lines, and
``#`` comments.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

import numpy as np

from ..errors import ConfigurationError, ParseError
from ..spectrum import MassSpectrum, PeakBatch
from .compression import open_spectrum_text, safe_lines

PathOrFile = Union[str, Path, IO[str]]

#: Spectra :func:`read_mgf` parses ahead of the spectrum it yields.
READ_BATCH_SIZE = 256


def _parse_charge(raw: str) -> int:
    """Parse an MGF CHARGE value such as ``2+``, ``+2``, ``2`` or ``2+ and 3+``."""
    token = raw.strip().split()[0].split(",")[0]
    token = token.strip()
    negative = token.endswith("-") or token.startswith("-")
    token = token.strip("+-")
    if not token.isdigit():
        raise ValueError(f"unparseable charge {raw!r}")
    value = int(token)
    return -value if negative else value


def _open_maybe(path_or_file: PathOrFile, mode: str) -> tuple[IO[str], bool]:
    """Return ``(file_object, should_close)`` for a path or open file.

    A ``.gz`` suffix transparently reads (or writes) through gzip via
    the shared :mod:`repro.io.compression` choke point.
    """
    if isinstance(path_or_file, (str, Path)):
        return open_spectrum_text(path_or_file, mode), True
    return path_or_file, False


def read_mgf(path_or_file: PathOrFile) -> Iterator[MassSpectrum]:
    """Iterate over the spectra in an MGF file.

    Yields :class:`~repro.spectrum.MassSpectrum` objects; header keys other
    than TITLE/PEPMASS/CHARGE/RTINSECONDS are preserved in ``metadata``.
    Spectra are materialised from :func:`read_mgf_batches`, so the file
    is parsed ``READ_BATCH_SIZE`` spectra ahead of the caller.

    Raises
    ------
    ParseError
        On malformed blocks (peak line outside a block, missing PEPMASS,
        unterminated block, unparseable numbers, a precursor m/z that is
        not positive and finite, a zero charge).
    """
    for batch in read_mgf_batches(path_or_file, READ_BATCH_SIZE):
        yield from batch.to_spectra()


def read_mgf_batches(
    path_or_file: PathOrFile, batch_size: int
) -> Iterator[PeakBatch]:
    """Parse an MGF file into columnar batches of at most ``batch_size`` spectra.

    Lines are classified one at a time, so every :class:`ParseError`
    names the offending line, but a peak line only keeps its first two
    field strings: each batch converts all of them with one
    ``np.array(tokens, dtype=np.float64)`` call, which accepts exactly
    the strings ``float()`` accepts and yields the same values.  An error
    on a later line is only raised once the peaks before it have been
    converted, so the first bad line of the file is always the one
    reported.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    handle, should_close = _open_maybe(path_or_file, "r")
    path_name = getattr(handle, "name", "<stream>")
    try:
        yield from _parse_batches(
            safe_lines(handle, path_name), path_name, batch_size
        )
    finally:
        if should_close:
            handle.close()


def _parse_batches(
    lines: Iterator[str], path_name: str, batch_size: int
) -> Iterator[PeakBatch]:
    mz_tokens: List[str] = []
    intensity_tokens: List[str] = []
    # Source line and line number of every peak, for the error message
    # of a token that fails conversion.
    peak_lines: List[str] = []
    peak_numbers: List[int] = []
    columns: List[tuple] = []
    block_start = 0
    in_block = False
    headers: dict[str, str] = {}
    ordinal = 0

    def convert() -> tuple[np.ndarray, np.ndarray]:
        try:
            return (
                np.array(mz_tokens, dtype=np.float64),
                np.array(intensity_tokens, dtype=np.float64),
            )
        except ValueError:
            # Name the first peak line whose tokens float() rejects.
            for index, pair in enumerate(zip(mz_tokens, intensity_tokens)):
                try:
                    float(pair[0])
                    float(pair[1])
                except ValueError as exc:
                    raise ParseError(
                        f"non-numeric peak line {peak_lines[index]!r}",
                        path_name,
                        peak_numbers[index],
                    ) from exc
            raise

    def flush() -> PeakBatch:
        mz, intensity = convert()
        fields = list(zip(*columns))
        batch = PeakBatch(
            mz=mz,
            intensity=intensity,
            counts=fields[0],
            precursor_mz=fields[1],
            charge=fields[2],
            identifiers=list(fields[3]),
            retention_times=list(fields[4]),
            metadata=list(fields[5]),
        )
        for pending in (
            mz_tokens, intensity_tokens, peak_lines, peak_numbers, columns
        ):
            pending.clear()
        return batch

    try:
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.strip()
            if in_block and line[:1].isdigit():
                # Fast path for the bulk of the file: inside a block, a
                # line starting with a digit is a peak line.
                parts = line.split()
            else:
                if not line or line.startswith("#"):
                    continue
                if line == "BEGIN IONS":
                    if in_block:
                        raise ParseError(
                            "nested BEGIN IONS", path_name, line_number
                        )
                    in_block = True
                    headers = {}
                    block_start = len(mz_tokens)
                    continue
                if line == "END IONS":
                    if not in_block:
                        raise ParseError(
                            "END IONS without BEGIN IONS", path_name, line_number
                        )
                    columns.append(
                        (len(mz_tokens) - block_start,)
                        + _block_fields(headers, ordinal, path_name, line_number)
                    )
                    ordinal += 1
                    in_block = False
                    if len(columns) >= batch_size:
                        yield flush()
                    continue
                if not in_block:
                    # Permit global headers (e.g. COM=, ITOL=) outside blocks.
                    if "=" in line:
                        continue
                    raise ParseError(
                        f"unexpected content outside block: {line!r}",
                        path_name,
                        line_number,
                    )
                if "=" in line:
                    key, _, value = line.partition("=")
                    headers[key.strip().upper()] = value.strip()
                    continue
                parts = line.split()
            if len(parts) < 2:
                raise ParseError(
                    f"malformed peak line {line!r}", path_name, line_number
                )
            mz_tokens.append(parts[0])
            intensity_tokens.append(parts[1])
            peak_lines.append(line)
            peak_numbers.append(line_number)
        if in_block:
            raise ParseError("unterminated BEGIN IONS block", path_name, 0)
    except ParseError:
        # Peaks before the failing line convert lazily; a bad token
        # among them is the earlier error.
        convert()
        raise
    if columns:
        yield flush()


def _block_fields(
    headers: dict[str, str],
    ordinal: int,
    path_name: str,
    line_number: int,
) -> tuple:
    """``(precursor_mz, charge, identifier, retention_time, metadata)``."""
    if "PEPMASS" not in headers:
        raise ParseError("block missing PEPMASS", path_name, line_number)
    try:
        precursor_mz = float(headers["PEPMASS"].split()[0])
    except ValueError as exc:
        raise ParseError(
            f"unparseable PEPMASS {headers['PEPMASS']!r}",
            path_name,
            line_number,
        ) from exc
    if not (math.isfinite(precursor_mz) and precursor_mz > 0):
        raise ParseError(
            f"PEPMASS {headers['PEPMASS']!r} is not a positive finite m/z",
            path_name,
            line_number,
        )
    charge = 2
    if "CHARGE" in headers:
        try:
            charge = _parse_charge(headers["CHARGE"])
        except ValueError as exc:
            raise ParseError(str(exc), path_name, line_number) from exc
        if charge == 0:
            raise ParseError(
                f"CHARGE {headers['CHARGE']!r} is zero", path_name, line_number
            )
    retention_time = None
    if "RTINSECONDS" in headers:
        try:
            retention_time = float(headers["RTINSECONDS"])
        except ValueError as exc:
            raise ParseError(
                f"unparseable RTINSECONDS {headers['RTINSECONDS']!r}",
                path_name,
                line_number,
            ) from exc
    identifier = headers.get("TITLE", f"spectrum_{ordinal}")
    metadata = {
        key.lower(): value
        for key, value in headers.items()
        if key not in ("TITLE", "PEPMASS", "CHARGE", "RTINSECONDS")
    }
    return precursor_mz, abs(charge), identifier, retention_time, metadata


def write_mgf(
    spectra: Iterable[MassSpectrum], path_or_file: PathOrFile
) -> int:
    """Write spectra to an MGF file; returns the number written."""
    handle, should_close = _open_maybe(path_or_file, "w")
    count = 0
    try:
        for spectrum in spectra:
            handle.write("BEGIN IONS\n")
            handle.write(f"TITLE={spectrum.identifier}\n")
            handle.write(f"PEPMASS={spectrum.precursor_mz:.6f}\n")
            handle.write(f"CHARGE={spectrum.precursor_charge}+\n")
            if spectrum.retention_time is not None:
                handle.write(f"RTINSECONDS={spectrum.retention_time:.3f}\n")
            for key, value in sorted(spectrum.metadata.items()):
                handle.write(f"{key.upper()}={value}\n")
            for mz_value, intensity_value in spectrum.peaks():
                handle.write(f"{mz_value:.5f} {intensity_value:.6g}\n")
            handle.write("END IONS\n")
            count += 1
    finally:
        if should_close:
            handle.close()
    return count


def mgf_to_string(spectra: Iterable[MassSpectrum]) -> str:
    """Serialise spectra to an MGF string (round-trip convenience)."""
    buffer = io.StringIO()
    write_mgf(spectra, buffer)
    return buffer.getvalue()
