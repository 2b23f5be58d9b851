"""Line-by-line oracle for the columnar MGF reader.

:func:`repro.io.mgf.read_mgf_batches` classifies lines one at a time but
defers the float conversion of peak tokens to one call per batch.  This
is the reader it replaced: every peak line converted with ``float()`` on
the spot and every block turned into a :class:`MassSpectrum` at
``END IONS``.  The batch reader must yield the same spectra and raise the
same :class:`ParseError` (message and line number) on every input.  It
carries the same precursor checks as the production reader: a PEPMASS
that is not a positive finite number and a zero CHARGE are parse errors.
None of it runs outside the tests.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, List

import numpy as np

from repro.errors import ParseError
from repro.io.compression import open_spectrum_text, safe_lines
from repro.spectrum import MassSpectrum


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


def read_mgf_oracle(path_or_file) -> Iterator[MassSpectrum]:
    """Iterate over the spectra in an MGF file.

    Yields :class:`~repro.spectrum.MassSpectrum` objects; header keys other
    than TITLE/PEPMASS/CHARGE/RTINSECONDS are preserved in ``metadata``.

    Raises
    ------
    ParseError
        On malformed blocks (peak line outside a block, missing PEPMASS,
        unterminated block, unparseable numbers).
    """
    if isinstance(path_or_file, (str, Path)):
        handle, should_close = open_spectrum_text(path_or_file, "r"), True
    else:
        handle, should_close = path_or_file, False
    path_name = getattr(handle, "name", "<stream>")
    try:
        in_block = False
        headers: dict[str, str] = {}
        mz_values: List[float] = []
        intensity_values: List[float] = []
        spectrum_ordinal = 0

        for line_number, raw_line in enumerate(
            safe_lines(handle, path_name), start=1
        ):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "BEGIN IONS":
                if in_block:
                    raise ParseError(
                        "nested BEGIN IONS", path_name, line_number
                    )
                in_block = True
                headers = {}
                mz_values = []
                intensity_values = []
                continue
            if line == "END IONS":
                if not in_block:
                    raise ParseError(
                        "END IONS without BEGIN IONS", path_name, line_number
                    )
                yield _block_to_spectrum(
                    headers,
                    mz_values,
                    intensity_values,
                    spectrum_ordinal,
                    path_name,
                    line_number,
                )
                spectrum_ordinal += 1
                in_block = False
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
            if "=" in line and not line[0].isdigit():
                key, _, value = line.partition("=")
                headers[key.strip().upper()] = value.strip()
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(
                    f"malformed peak line {line!r}", path_name, line_number
                )
            try:
                mz_values.append(float(parts[0]))
                intensity_values.append(float(parts[1]))
            except ValueError as exc:
                raise ParseError(
                    f"non-numeric peak line {line!r}", path_name, line_number
                ) from exc

        if in_block:
            raise ParseError("unterminated BEGIN IONS block", path_name, 0)
    finally:
        if should_close:
            handle.close()


def _block_to_spectrum(
    headers: dict[str, str],
    mz_values: List[float],
    intensity_values: List[float],
    ordinal: int,
    path_name: str,
    line_number: int,
) -> MassSpectrum:
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
    return MassSpectrum(
        identifier=identifier,
        precursor_mz=precursor_mz,
        precursor_charge=abs(charge),
        mz=np.array(mz_values, dtype=np.float64),
        intensity=np.array(intensity_values, dtype=np.float64),
        retention_time=retention_time,
        metadata=metadata,
    )
