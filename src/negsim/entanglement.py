"""Entanglement observables on mixed stabilizer states.

All quantities reduce to GF(2) ranks of the generator matrix: entropy from
the rank restricted to a region's complement (the stabilizer rows of the
complement's tableau columns), logarithmic negativity from
half the rank of the binary anticommutation form of the generators of
rho_AB restricted to A. S_AB of the whole chain is L - k and needs no rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .gf2 import bits_to_int_rows, parity_matmul, rank_int_rows
from .stabilizer import StabilizerState, _int_rows_to_bits, _row_interval, canonicalize

__all__ = [
    "Bipartition",
    "entropy",
    "negativity",
    "mutual_information",
    "purity_log2",
    "ObservableRecord",
    "record_observables",
    "length_distribution",
    "window_mass",
]


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint site sets; the standard split is contiguous halves."""

    region_a: Tuple[int, ...]
    region_b: Tuple[int, ...]

    def __init__(self, region_a: Iterable[int], region_b: Iterable[int]):
        a = tuple(sorted(set(region_a)))
        b = tuple(sorted(set(region_b)))
        if not a or not b:
            raise ValueError("both regions must be non-empty")
        if set(a) & set(b):
            raise ValueError("regions overlap")
        object.__setattr__(self, "region_a", a)
        object.__setattr__(self, "region_b", b)

    @classmethod
    def contiguous_halves(cls, L: int) -> "Bipartition":
        return cls(range(L // 2), range(L // 2, L))

    def joint(self) -> Tuple[int, ...]:
        return tuple(sorted(self.region_a + self.region_b))


def _region_columns(L: int, region: Sequence[int]) -> np.ndarray:
    cols = np.asarray(sorted(region), dtype=np.int64)
    if cols.size and (cols[0] < 0 or cols[-1] >= L):
        raise ValueError("region site out of range")
    return cols


def _complement(L: int, cols: np.ndarray) -> np.ndarray:
    keep = np.ones(L, dtype=bool)
    keep[cols] = False
    return np.flatnonzero(keep)


def entropy(state: StabilizerState, region: Iterable[int]) -> int:
    """S_R = |R| - |G_R| with G_R the subgroup supported inside R.

    |G_R| = k - rank(generators restricted to the complement of R), so only
    one elimination is needed.
    """
    L = state.num_qubits
    cols = _region_columns(L, set(region))
    comp = _complement(L, cols)
    if comp.size == 0:
        return int(L - state.num_generators)
    restricted = state._stabilizer_bits(np.concatenate([comp, comp + L]))
    rank = rank_int_rows(bits_to_int_rows(restricted))
    inside = state.num_generators - rank
    return int(cols.size - inside)


def _subgroup_rows(rows: Sequence[int], outside: int) -> Sequence[int]:
    """Generators of the subgroup with no support on the bits in `outside`.

    Eliminates over those bits; the rows that reduce to zero there are
    independent and span the subgroup.
    """
    pivots: dict = {}
    inside = []
    for row in rows:
        while row & outside:
            top = (row & outside).bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
        else:
            inside.append(row)
    return inside


def negativity(state: StabilizerState, bp: Bipartition) -> float:
    """E = rank(J)/2, J the anticommutation form of rho_AB's generators on A.

    rho_AB's group is the subgroup supported on A u B (Sang et al.,
    arXiv:2012.00031); when A u B is the whole chain that is every generator.
    """
    L = state.num_qubits
    a = _region_columns(L, bp.region_a)
    columns = np.concatenate([a, a + L])
    rest = _complement(L, _region_columns(L, bp.joint()))
    if rest.size == 0:
        bits = state._stabilizer_bits(columns)
    else:
        outside = 0
        for site in rest.tolist():
            outside |= (1 << site) | (1 << (L + site))
        rows = _subgroup_rows(state.symplectic_int_rows(), outside)
        bits = _int_rows_to_bits(rows, 2 * L)[:, columns]
    xa, za = bits[:, : a.size], bits[:, a.size :]
    j = parity_matmul(xa, za.T) ^ parity_matmul(za, xa.T)
    return rank_int_rows(bits_to_int_rows(j)) / 2.0


def mutual_information(state: StabilizerState, bp: Bipartition) -> int:
    return (
        entropy(state, bp.region_a)
        + entropy(state, bp.region_b)
        - entropy(state, bp.joint())
    )


def purity_log2(state: StabilizerState) -> int:
    """log2 tr rho^2 = k - L; 0 for pure states, negative otherwise."""
    return state.num_generators - state.num_qubits


@dataclass(frozen=True)
class ObservableRecord:
    time: int
    S_A: int
    S_B: int
    S_AB: int
    E: float
    I: int
    purity_log2: int

    FIELDS = ("S_A", "S_B", "S_AB", "E", "I", "purity_log2")

    def values(self) -> Tuple[float, ...]:
        return (self.S_A, self.S_B, self.S_AB, self.E, self.I, self.purity_log2)


def record_observables(
    state: StabilizerState, bp: Bipartition, time: int
) -> ObservableRecord:
    s_a = entropy(state, bp.region_a)
    s_b = entropy(state, bp.region_b)
    s_ab = entropy(state, bp.joint())
    e = negativity(state, bp)
    mi = s_a + s_b - s_ab
    if 2 * e > mi + 1e-9:
        # 2E <= I holds for stabilizer states; a violation signals an engine
        # bug, but observables are still worth recording for the post-mortem.
        warnings.warn(f"2E = {2 * e} exceeds I = {mi} at t = {time}", RuntimeWarning)
    return ObservableRecord(
        time=time,
        S_A=s_a,
        S_B=s_b,
        S_AB=s_ab,
        E=e,
        I=mi,
        purity_log2=purity_log2(state),
    )


def length_distribution(state: StabilizerState) -> np.ndarray:
    """Counts of clipped-generator lengths; index = length, size L + 1.

    Identity rows (possible in mixed states) do not contribute.
    """
    L = state.num_qubits
    counts = np.zeros(L + 1, dtype=np.int64)
    for row in canonicalize(state).symplectic_int_rows():
        interval = _row_interval(row, L)
        if interval is not None:
            counts[interval[1] - interval[0] + 1] += 1
    return counts


def window_mass(counts: np.ndarray, lo_frac: float, hi_frac: float) -> float:
    """Fraction of total count with length in [lo_frac * L, hi_frac * L]."""
    L = counts.size - 1
    total = counts.sum()
    if total == 0:
        return 0.0
    lo = int(np.ceil(lo_frac * L))
    hi = int(np.floor(hi_frac * L))
    return float(counts[lo : hi + 1].sum() / total)
