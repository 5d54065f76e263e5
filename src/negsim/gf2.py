"""GF(2) linear algebra on bit-packed rows.

Rows are Python ints used as bitsets (bit i = column i), which keeps
elimination a single XOR per row operation regardless of width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Gf2Matrix",
    "gf2_rank",
    "rank_int_rows",
    "solve_int_rows",
    "in_rowspan",
    "bits_to_int_rows",
    "parity_matmul",
]


@dataclass(frozen=True)
class Gf2Matrix:
    """Bit-packed row-major binary matrix."""

    rows: tuple
    cols: int

    @classmethod
    def from_int_rows(cls, rows: Iterable[int], cols: int) -> "Gf2Matrix":
        rows = tuple(int(r) for r in rows)
        if any(r < 0 or r >> cols for r in rows):
            raise ValueError("row has bits beyond the declared column count")
        return cls(rows, cols)

    @classmethod
    def from_dense(cls, array) -> "Gf2Matrix":
        """Build from a 2-D 0/1 array (row-major, column j -> bit j)."""
        arr = np.asarray(array, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(tuple(bits_to_int_rows(arr)), arr.shape[1])

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def rank_int_rows(rows: Sequence[int]) -> int:
    """Rank of int-packed rows via pivot elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
            rank += 1
    return rank


def gf2_rank(m: Gf2Matrix) -> int:
    return rank_int_rows(m.rows)


def _reduce(row: int, pivots: dict) -> int:
    while row:
        pivot = pivots.get(row.bit_length() - 1)
        if pivot is None:
            return row
        row ^= pivot
    return 0


def solve_int_rows(rows: Sequence[int], target: int) -> Optional[int]:
    """Combination bitmask c with XOR of {rows[i] : bit i of c} == target, or None.

    Tags ride along in the high bits of each working row so one XOR updates
    value and combination together.
    """
    if not rows:
        return 0 if target == 0 else None
    width = max(r.bit_length() for r in rows)
    width = max(width, target.bit_length())
    pivots: dict = {}
    for i, row in enumerate(rows):
        tagged = row | (1 << (width + i))
        tagged = _reduce_tagged(tagged, pivots, width)
        if tagged & ((1 << width) - 1):
            value = tagged & ((1 << width) - 1)
            pivots[value.bit_length() - 1] = tagged
    t = _reduce_tagged(target, pivots, width)
    if t & ((1 << width) - 1):
        return None
    return t >> width


def _reduce_tagged(row: int, pivots: dict, width: int) -> int:
    mask = (1 << width) - 1
    while row & mask:
        pivot = pivots.get((row & mask).bit_length() - 1)
        if pivot is None:
            return row
        row ^= pivot
    return row


def in_rowspan(rows: Sequence[int], target: int) -> bool:
    """Membership test without combination tracking (faster than solve)."""
    pivots: dict = {}
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    return _reduce(target, pivots) == 0


def bits_to_int_rows(bits) -> List[int]:
    """Convert a (k, n) uint8 0/1 matrix to k ints with bit j = column j."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] == 0:
        return [0] * arr.shape[0]
    packed = np.packbits(arr & 1, axis=1, bitorder="little")
    raw, n = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i : i + n], "little") for i in range(0, len(raw), n)]


def parity_matmul(a, b) -> np.ndarray:
    """(a @ b) mod 2 for 0/1 uint8 matrices, exact via float32 BLAS.

    Inner dimension must stay below 2**24 so float32 accumulation is exact;
    every caller here has inner dimension <= 2*L <= 1024.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    counts = np.rint(a @ b).astype(np.int64)
    return (counts & 1).astype(np.uint8)
