"""Hot path vectorisation: columnar front end, batch encoder, Hamming kernels.

Measures the vectorised hot path against reference implementations on
the synthetic workload:

* the columnar front end — MGF parse into peak batches plus the three
  preprocessing stages run across each batch — against the line-by-line
  reader and per-spectrum stages kept as test oracles
  (``tests/io/oracles.py``, ``tests/spectrum/oracles.py``);
* batch encoding of 2,000 synthetic spectra at the paper dimensionality
  (``D_hv = 2048``) — the acceptance bar is a >= 5x speedup with
  bit-identical output;
* blocked XOR+popcount pairwise Hamming distances over bucket-sized
  matrices against the per-row reference loop.

Every comparison verifies byte equality before reporting any timing, so
the speedups are measured on provably equivalent outputs.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_hotpath_vectorized.py
-q -o python_files='bench_*.py' -o python_functions='bench_*'``.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np

from repro.datasets import SyntheticConfig, generate_dataset
from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    condensed_pairwise_hamming,
    condensed_pairwise_hamming_blocked,
    pairwise_hamming,
    pairwise_hamming_blocked,
    random_hypervectors,
)
from repro.io import write_mgf
from repro.io.mgf import read_mgf_batches
from repro.reporting import banner, format_table
from repro.spectrum import PeakBatch, PreprocessingConfig, preprocess_peaks

NUM_SPECTRA = 2_000
ENCODE_SPEEDUP_FLOOR = 5.0
#: Spectra per parsed batch in the front-end row (the stage graph's
#: default ``StreamConfig.batch_size``).
FRONTEND_BATCH = 1024
TESTS_DIR = Path(__file__).resolve().parents[1] / "tests"


def _oracle(relative_path, name):
    """A reference function from the test oracles, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        f"oracle_{Path(relative_path).parent.name}", TESTS_DIR / relative_path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def _best_of(function, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _synthetic_spectra():
    data = generate_dataset(
        SyntheticConfig(num_peptides=125, replicates_per_peptide=16, seed=3)
    )
    processed, _ = preprocess_peaks(
        PeakBatch.from_spectra(data.spectra), PreprocessingConfig()
    )
    kept = processed.to_spectra()
    assert len(kept) >= NUM_SPECTRA
    return kept[:NUM_SPECTRA]


def bench_hotpath_frontend(emit_report, tmp_path):
    read_mgf_oracle = _oracle("io/oracles.py", "read_mgf_oracle")
    preprocess_oracle = _oracle(
        "spectrum/oracles.py", "preprocess_spectrum_oracle"
    )
    config = PreprocessingConfig()
    data = generate_dataset(
        SyntheticConfig(
            num_peptides=15,
            replicates_per_peptide=60,
            extra_singleton_peptides=1100,
            seed=7,
        )
    )
    path = tmp_path / "frontend.mgf"
    write_mgf(data.spectra, path)

    def oracle_parse():
        return list(read_mgf_oracle(path))

    def columnar_parse():
        return list(read_mgf_batches(path, FRONTEND_BATCH))

    raw_spectra = oracle_parse()
    raw_batches = columnar_parse()

    def oracle_preprocess():
        return [preprocess_oracle(spectrum, config) for spectrum in raw_spectra]

    def columnar_preprocess():
        return [preprocess_peaks(batch, config) for batch in raw_batches]

    # Byte equality first: parsed peaks, then the kept set and the
    # preprocessed peaks of every survivor.
    parsed = [s for batch in raw_batches for s in batch.to_spectra()]
    assert len(parsed) == len(raw_spectra)
    for ours, reference in zip(parsed, raw_spectra):
        assert ours.mz.tobytes() == reference.mz.tobytes()
        assert ours.intensity.tobytes() == reference.intensity.tobytes()
        assert ours.precursor_mz == reference.precursor_mz
    expected = oracle_preprocess()
    kept_rows = []
    survivors = []
    base = 0
    for batch, (processed, kept) in zip(raw_batches, columnar_preprocess()):
        kept_rows.extend(int(base + row) for row in kept)
        survivors.extend(processed.to_spectra())
        base += len(batch)
    assert kept_rows == [i for i, s in enumerate(expected) if s is not None]
    for ours, row in zip(survivors, kept_rows):
        assert ours.mz.tobytes() == expected[row].mz.tobytes()
        assert ours.intensity.tobytes() == expected[row].intensity.tobytes()

    rows = []
    totals = [0.0, 0.0]
    for stage, reference, columnar in (
        ("MGF parse", oracle_parse, columnar_parse),
        ("preprocess", oracle_preprocess, columnar_preprocess),
    ):
        reference_seconds, _ = _best_of(reference)
        columnar_seconds, _ = _best_of(columnar)
        totals[0] += reference_seconds
        totals[1] += columnar_seconds
        rows.append(
            [
                stage,
                f"{reference_seconds * 1e3:.1f}",
                f"{columnar_seconds * 1e3:.1f}",
                f"{reference_seconds / columnar_seconds:.1f}x",
                "yes",
            ]
        )
    rows.append(
        [
            "parse + preprocess",
            f"{totals[0] * 1e3:.1f}",
            f"{totals[1] * 1e3:.1f}",
            f"{totals[0] / totals[1]:.1f}x",
            "yes",
        ]
    )
    text = "\n".join(
        [
            banner(
                f"Hot path: columnar front end vs per-spectrum oracle "
                f"({len(raw_spectra)} spectra, {len(survivors)} kept)"
            ),
            format_table(
                ["stage", "oracle ms", "columnar ms", "speedup", "byte-identical"],
                rows,
            ),
            "",
            "The columnar reader keeps each peak line's first two fields and",
            f"converts them once per {FRONTEND_BATCH}-spectrum batch; the three",
            "preprocessing stages then run across the whole batch at once.",
        ]
    )
    emit_report("hotpath_frontend", text)


def bench_hotpath_encoding(emit_report):
    spectra = _synthetic_spectra()
    rows = []
    paper_speedup = None
    for dim in (256, 2048):
        encoder = IDLevelEncoder(EncoderConfig(dim=dim))
        # Warm both paths (item-memory caches, scratch buffers, allocator).
        encoder.encode_batch_reference(spectra[:64])
        encoder.encode_batch(spectra[:64])
        reference_seconds, reference = _best_of(
            lambda: encoder.encode_batch_reference(spectra)
        )
        fast_seconds, fast = _best_of(lambda: encoder.encode_batch(spectra))
        assert fast.tobytes() == reference.tobytes(), (
            "fast batch encoder output diverged from the reference"
        )
        speedup = reference_seconds / fast_seconds
        if dim == 2048:
            paper_speedup = speedup
        rows.append(
            [
                dim,
                len(spectra),
                f"{reference_seconds * 1e3:.1f}",
                f"{fast_seconds * 1e3:.1f}",
                f"{speedup:.1f}x",
                "yes",
            ]
        )
    text = "\n".join(
        [
            banner("Hot path: vectorised batch encoding vs seed reference"),
            format_table(
                [
                    "D_hv",
                    "spectra",
                    "reference ms",
                    "fast ms",
                    "speedup",
                    "bit-identical",
                ],
                rows,
            ),
            "",
            "The fast path binds all peaks with one gather+XOR, counts the",
            "majority in the packed domain with carry-save adders, and",
            "thresholds the bit-planes directly - no per-spectrum unpack.",
        ]
    )
    emit_report("hotpath_encoding", text)
    assert paper_speedup is not None and paper_speedup >= (
        ENCODE_SPEEDUP_FLOOR
    ), (
        f"encoding speedup {paper_speedup:.1f}x at D_hv=2048 is below the "
        f"{ENCODE_SPEEDUP_FLOOR:.0f}x acceptance floor"
    )


def bench_hotpath_hamming(emit_report):
    rng = np.random.default_rng(42)
    rows = []
    for n in (256, 512, 1024, 2048):
        vectors = random_hypervectors(n, 2048, rng)
        reference_seconds, reference = _best_of(
            lambda: pairwise_hamming(vectors)
        )
        blocked_seconds, blocked = _best_of(
            lambda: pairwise_hamming_blocked(vectors)
        )
        assert np.array_equal(reference, blocked)
        condensed_seconds, condensed = _best_of(
            lambda: condensed_pairwise_hamming(vectors)
        )
        condensed_blocked_seconds, condensed_blocked = _best_of(
            lambda: condensed_pairwise_hamming_blocked(vectors)
        )
        assert condensed.tobytes() == condensed_blocked.tobytes()
        rows.append(
            [
                n,
                f"{reference_seconds * 1e3:.1f}",
                f"{blocked_seconds * 1e3:.1f}",
                f"{reference_seconds / blocked_seconds:.1f}x",
                f"{condensed_seconds * 1e3:.1f}",
                f"{condensed_blocked_seconds * 1e3:.1f}",
                f"{condensed_seconds / condensed_blocked_seconds:.1f}x",
            ]
        )
    text = "\n".join(
        [
            banner("Hot path: blocked Hamming kernels (D_hv = 2048)"),
            format_table(
                [
                    "bucket n",
                    "dense ref ms",
                    "dense blocked ms",
                    "speedup",
                    "cond ref ms",
                    "cond blocked ms",
                    "speedup",
                ],
                rows,
            ),
            "",
            "Blocked kernels broadcast whole row blocks through one",
            "XOR+popcount pass instead of one Python-level pass per row.",
        ]
    )
    emit_report("hotpath_hamming", text)
