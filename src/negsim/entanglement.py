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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from . import rowkernel
from .channels import _apply_layer
from .gf2 import bits_to_int_rows, parity_matmul, rank_int_rows
from .stabilizer import StabilizerState, _row_interval, canonicalize

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


class _Sites(NamedTuple):
    """Sorted distinct sites as the ranks read them."""

    sites: Tuple[int, ...]
    raw: bytes  # their int64 bytes, for the row kernel
    columns: np.ndarray  # their X then Z tableau columns, for the numpy path


class _Split(NamedTuple):
    region: _Sites
    rest: _Sites  # the complement in the chain


def _sites(L: int, sites: np.ndarray) -> _Sites:
    columns = np.concatenate([sites, sites + L])
    columns.flags.writeable = False  # one array serves every caller of the cache
    return _Sites(tuple(sites.tolist()), sites.tobytes(), columns)


@lru_cache(maxsize=256)
def _split(L: int, region: Tuple[int, ...]) -> _Split:
    """The region's sites and their complement. A site out of range raises
    ValueError, and lru_cache keeps no exception, so it raises every call."""
    cols = np.asarray(sorted(set(region)), dtype=np.int64)
    if cols.size and (cols[0] < 0 or cols[-1] >= L):
        raise ValueError("region site out of range")
    keep = np.ones(L, dtype=bool)
    keep[cols] = False
    return _Split(_sites(L, cols), _sites(L, np.flatnonzero(keep)))


@lru_cache(maxsize=64)
def _bipartition_split(L: int, bp: Bipartition) -> Tuple[_Sites, Tuple[int, ...]]:
    """A's sites and the sites outside A u B, which negativity traces out."""
    return _split(L, bp.region_a).region, _split(L, bp.joint()).rest.sites


def entropy(state: StabilizerState, region: Iterable[int]) -> int:
    """S_R = |R| - |G_R| with G_R the subgroup supported inside R.

    |G_R| = k - rank(generators restricted to the complement of R), so only
    one elimination is needed. The split of R is cached per (L, R).
    """
    L = state.num_qubits
    split = _split(L, region if type(region) is tuple else tuple(region))
    if not split.rest.sites:
        return L - state.num_generators
    if rowkernel.LIB is not None:
        rank = rowkernel.region_rank(state, split.rest.raw)
    else:
        restricted = state._stabilizer_bits(split.rest.columns)
        rank = rank_int_rows(bits_to_int_rows(restricted))
    inside = state.num_generators - rank
    return len(split.region.sites) - inside


def negativity(state: StabilizerState, bp: Bipartition) -> float:
    """E = rank(J)/2, J the anticommutation form of rho_AB's generators on A.

    rho_AB's group is the subgroup supported on A u B (Sang et al.,
    arXiv:2012.00031): what is left after dephasing every other site in both
    Z and X, in one `_apply_layer` call on a copy. When A u B is the whole
    chain that is every generator. The split of bp is cached per (L, bp).
    """
    L = state.num_qubits
    a, traced = _bipartition_split(L, bp)
    if traced:
        state = state.copy()
        state._neg = None  # _apply_layer takes unsigned states; dephasing reads no sign
        _apply_layer(state, [c for site in traced for c in (site, L + site)], None, ())
    if rowkernel.LIB is not None:
        return rowkernel.negativity_rank(state, a.raw) / 2.0
    bits = state._stabilizer_bits(a.columns)
    xa, za = np.hsplit(bits, 2)
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


@lru_cache(maxsize=64)
def _covering_split(L: int, bp: Bipartition) -> Optional[Tuple[_Sites, _Sites]]:
    """A's and B's sites when A u B is the whole chain, else None."""
    a, traced = _bipartition_split(L, bp)
    return None if traced else (a, _split(L, bp.region_a).rest)


def record_observables(
    state: StabilizerState, bp: Bipartition, time: int
) -> ObservableRecord:
    """The observables of one record. When A and B cover the chain the row
    kernel returns all three ranks in one call, and S_AB is L - k."""
    halves = _covering_split(state.num_qubits, bp) if rowkernel.LIB is not None else None
    if halves is not None:
        a, b = halves
        k = state.num_generators
        rank_b, rank_a, rank_e = rowkernel.record_ranks(state, a.raw, b.raw)
        s_a = len(a.sites) - (k - rank_b)
        s_b = len(b.sites) - (k - rank_a)
        s_ab = state.num_qubits - k
        e = rank_e / 2.0
    else:
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
