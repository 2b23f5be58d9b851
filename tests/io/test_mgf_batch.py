"""The columnar MGF reader pinned to the line-by-line oracle.

``read_mgf_batches`` (and ``read_mgf``, which yields from it) must give
the spectra the line-by-line reader in ``tests/io/oracles.py`` gives,
whatever the batch size, and fail with the same :class:`ParseError`
message and line number on every malformed input.
"""

import gzip
import importlib.util
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ParseError
from repro.io import read_mgf
from repro.io.mgf import read_mgf_batches
from repro.io.source import SpectrumFile


def _load_oracle():
    # ``io`` cannot be imported as a package name, so load by path.
    spec = importlib.util.spec_from_file_location(
        "mgf_oracles", Path(__file__).with_name("oracles.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.read_mgf_oracle


read_mgf_oracle = _load_oracle()

BATCH_SIZES = (1, 7, 4096)
SPECIAL_TOKENS = ["1_0", "nan", "-Infinity", "1e400", "NaN", "+7.5", "2e-3"]


@st.composite
def number_tokens(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(SPECIAL_TOKENS))
    value = draw(st.floats(0.0, 2000.0, allow_nan=False))
    return draw(st.sampled_from(["{:.5f}", "{:.6g}", "{!r}", "{:.0f}"])).format(
        value
    )


@st.composite
def noise_lines(draw):
    return draw(
        st.lists(
            st.sampled_from(["", "   ", "# a comment", "#BEGIN IONS"]),
            max_size=2,
        )
    )


@st.composite
def blocks(draw, index):
    lines = ["BEGIN IONS"]
    headers = [
        f"TITLE=spec {index}",
        "PEPMASS="
        + draw(st.sampled_from(["500.25", "612.5 1234.0", "1_000.5", "88"])),
    ]
    if draw(st.booleans()):
        headers.append(
            "CHARGE=" + draw(st.sampled_from(["2+", "3", "+2", "1-", "2+ and 3+"]))
        )
    if draw(st.booleans()):
        headers.append("RTINSECONDS=" + draw(st.sampled_from(["12.5", "0", "3e2"])))
    if draw(st.booleans()):
        headers.append("scans = 17")
    for header in draw(st.permutations(headers)):
        lines.append(header)
        lines.extend(draw(noise_lines()))
    for _ in range(draw(st.integers(0, 12))):
        separator = draw(st.sampled_from([" ", "\t", "   ", " \t"]))
        fields = [draw(number_tokens()), draw(number_tokens())]
        if draw(st.integers(0, 4)) == 0:
            fields.append(draw(st.sampled_from(["1", "b", "x y"])))
        lines.append(
            draw(st.sampled_from(["", " "])) + separator.join(fields)
        )
        if draw(st.integers(0, 5)) == 0:
            lines.extend(draw(noise_lines()))
    lines.append("END IONS")
    return lines


@st.composite
def mgf_lines(draw):
    lines = []
    if draw(st.booleans()):
        lines.extend(["COM=generated", "ITOL=0.5"])
    lines.extend(draw(noise_lines()))
    for index in range(draw(st.integers(0, 9))):
        lines.extend(draw(blocks(index)))
        lines.extend(draw(noise_lines()))
    return lines


#: Replacements that turn a valid line into a malformed one.
CORRUPTIONS = [
    "abc 12.0",
    "12.0 abc",
    "123.4",
    "1.0 2.0 3.0\n4.0",
    "BEGIN IONS",
    "END IONS",
    "PEPMASS=0",
    "PEPMASS=inf",
    "PEPMASS=nan",
    "PEPMASS=-3",
    "PEPMASS=abc",
    "CHARGE=0",
    "CHARGE=x",
    "RTINSECONDS=soon",
    "stray",
    "",
]


def _join(lines, newline):
    return newline.join(lines) + (newline if lines else "")


def _outcome(read):
    """The spectra a reader yields, or the error it raises, comparably."""
    try:
        spectra = read()
    except ParseError as error:
        return ("error", str(error), error.line)
    return (
        "ok",
        [
            (
                s.identifier,
                s.precursor_mz,
                s.precursor_charge,
                s.retention_time,
                s.metadata,
                s.mz.tobytes(),
                s.intensity.tobytes(),
            )
            for s in spectra
        ],
    )


def _batched(text, batch_size):
    spectra = []
    for batch in read_mgf_batches(io.StringIO(text), batch_size):
        assert 0 < len(batch) <= batch_size
        spectra.extend(batch.to_spectra())
    return spectra


def _assert_pinned(text):
    expected = _outcome(lambda: list(read_mgf_oracle(io.StringIO(text))))
    assert _outcome(lambda: list(read_mgf(io.StringIO(text)))) == expected
    for batch_size in BATCH_SIZES:
        assert _outcome(lambda: _batched(text, batch_size)) == expected
    return expected


class TestBatchReaderEqualsOracle:
    @given(lines=mgf_lines(), newline=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=150, deadline=None)
    def test_generated_files(self, lines, newline):
        _assert_pinned(_join(lines, newline))

    @given(
        lines=mgf_lines(),
        data=st.data(),
        corruption=st.sampled_from(CORRUPTIONS),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_files(self, lines, data, corruption):
        position = data.draw(st.integers(0, len(lines)))
        if data.draw(st.booleans()) and position < len(lines):
            lines[position] = corruption
        else:
            lines.insert(position, corruption)
        _assert_pinned(_join(lines, "\n"))

    def test_three_fields_then_one_field(self):
        # Four tokens over two lines: a total-token check would pair them.
        text = "BEGIN IONS\nPEPMASS=500\n100.0 2.0 3.0\n4.0\nEND IONS\n"
        outcome = _assert_pinned(text)
        assert outcome == ("error", "malformed peak line '4.0' (<stream>:4)", 4)

    def test_numeric_error_precedes_later_structural_error(self):
        text = (
            "BEGIN IONS\nPEPMASS=500\n100.0 x\nEND IONS\n"
            "BEGIN IONS\nBEGIN IONS\n"
        )
        outcome = _assert_pinned(text)
        assert outcome[0] == "error" and outcome[2] == 3

    def test_special_tokens_match_float(self):
        text = (
            "BEGIN IONS\nPEPMASS=500\n"
            + "".join(f"{token} {token}\n" for token in SPECIAL_TOKENS)
            + "END IONS\n"
        )
        outcome = _assert_pinned(text)
        assert outcome[0] == "ok"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_gzip_input(self, tmp_path, labelled_dataset, batch_size):
        from repro.io import write_mgf

        path = tmp_path / "input.mgf.gz"
        write_mgf(labelled_dataset.spectra[:40], path)
        with gzip.open(path, "rt") as handle:
            text = handle.read()
        expected = _outcome(lambda: list(read_mgf_oracle(path)))
        assert expected == _assert_pinned(text)
        entry = SpectrumFile(path=path, format="mgf")
        assert _outcome(
            lambda: [
                spectrum
                for batch in entry.read_batches(batch_size)
                for spectrum in batch.to_spectra()
            ]
        ) == expected

    def test_rejects_zero_batch_size(self):
        with pytest.raises(ConfigurationError):
            next(read_mgf_batches(io.StringIO(""), 0))


class TestInvalidPrecursor:
    """Precursor values no spectrum can carry are parse errors with a line."""

    @pytest.mark.parametrize(
        "header, message",
        [
            ("PEPMASS=0", "PEPMASS '0' is not a positive finite m/z"),
            ("PEPMASS=-12.5", "PEPMASS '-12.5' is not a positive finite m/z"),
            ("PEPMASS=inf", "PEPMASS 'inf' is not a positive finite m/z"),
            ("PEPMASS=nan", "PEPMASS 'nan' is not a positive finite m/z"),
            ("PEPMASS=1e400", "PEPMASS '1e400' is not a positive finite m/z"),
            ("CHARGE=0", "CHARGE '0' is zero"),
        ],
    )
    def test_read_mgf_raises_parse_error(self, header, message):
        text = "BEGIN IONS\nPEPMASS=500\n" + header + "\n100.0 1.0\nEND IONS\n"
        with pytest.raises(ParseError) as caught:
            list(read_mgf(io.StringIO(text)))
        assert caught.value.line == 5
        assert str(caught.value) == f"{message} (<stream>:5)"

    def test_gzip_path_names_the_file(self, tmp_path):
        path = tmp_path / "bad.mgf.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("BEGIN IONS\nPEPMASS=inf\n100.0 1.0\nEND IONS\n")
        with pytest.raises(ParseError) as caught:
            list(read_mgf(path))
        assert caught.value.path.endswith("bad.mgf.gz")
        assert caught.value.line == 4


def test_batches_cover_the_file_in_order(labelled_dataset):
    from repro.io import mgf_to_string

    text = mgf_to_string(labelled_dataset.spectra[:30])
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.mgf"
        path.write_text(text)
        sizes = [len(batch) for batch in read_mgf_batches(path, 7)]
    assert sizes == [7, 7, 7, 7, 2]
    batch = next(read_mgf_batches(io.StringIO(text), 30))
    assert batch.identifiers == [s.identifier for s in labelled_dataset.spectra[:30]]
    assert np.array_equal(
        batch.counts, [s.peak_count for s in read_mgf_oracle(io.StringIO(text))]
    )
