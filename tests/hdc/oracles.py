"""Independent bit-counting oracles for the packed-bit kernels.

The production kernels count bits with ``np.bitwise_count``.  These
reference implementations count the same bits by other means — a 16-bit
lookup table, SWAR arithmetic, a positional bit-expansion table — so the
equivalence suites compare two independent implementations instead of one
against itself.  None of them runs outside the tests.
"""

from __future__ import annotations

import numpy as np

# 16-bit popcount lookup table: indexing a uint64 array viewed as uint16
# counts four 16-bit chunks per word.
_POPCOUNT16 = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)

# 16-bit *positional* table: row ``v`` holds the 16 individual bits of
# ``v`` in little-endian order (64 Ki rows x 16 lanes = 1 MiB).
_BIT_EXPAND16 = np.unpackbits(
    np.arange(1 << 16, dtype=np.uint16)[:, None].view(np.uint8),
    axis=1,
    bitorder="little",
)

# SWAR popcount masks (Hacker's Delight §5-1).
_SWAR_M1 = np.uint64(0x5555_5555_5555_5555)
_SWAR_M2 = np.uint64(0x3333_3333_3333_3333)
_SWAR_M4 = np.uint64(0x0F0F_0F0F_0F0F_0F0F)
_SWAR_H01 = np.uint64(0x0101_0101_0101_0101)


def popcount_table(words: np.ndarray) -> np.ndarray:
    """Per-element popcount via the 16-bit lookup table (uint64 out)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    counts = _POPCOUNT16[words.view(np.uint16)].astype(np.uint64)
    return counts.reshape(words.shape + (4,)).sum(axis=-1)


def popcount_swar(words: np.ndarray) -> np.ndarray:
    """Per-element popcount via branch-free SWAR arithmetic (uint64 out)."""
    x = np.array(words, dtype=np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & _SWAR_M1
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    return (x * _SWAR_H01) >> np.uint64(56)


def xor_popcount_swar(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Hamming distance along the last axis, counted with SWAR (int64)."""
    xor = np.bitwise_xor(
        np.asarray(first, dtype=np.uint64), np.asarray(second, dtype=np.uint64)
    )
    return popcount_swar(xor).sum(axis=-1, dtype=np.int64)


def expand_bits(packed: np.ndarray, dim: int) -> np.ndarray:
    """Table-driven equivalent of ``unpack_bits`` for 2-D packed input.

    Expands each uint64 word through the positional table (four uint16
    chunks per word) instead of calling ``np.unpackbits``.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    bits = _BIT_EXPAND16[packed.view(np.uint16)].reshape(packed.shape[0], -1)
    return bits[:, :dim]


def accumulate_bit_counts(
    packed: np.ndarray, group_starts: np.ndarray, dim: int
) -> np.ndarray:
    """Per-dimension one-counts of ``packed`` rows, summed within groups.

    ``group_starts`` holds the first row of each non-empty group
    (``reduceat`` layout).  Returns an int64 ``(groups, dim)`` matrix: the
    oracle for ``csa_accumulate`` + ``counts_from_planes``.
    """
    bits = expand_bits(packed, dim)
    starts = np.asarray(group_starts, dtype=np.intp)
    return np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
