"""Entanglement observables on mixed stabilizer states.

Every quantity is a GF(2) rank of the stabilizer rows, and one function,
`_ranks`, computes them for two disjoint site sets A and B whose union
covers the chain: the rank on B's tableau columns, the rank on A's, and the
rank of the binary anticommutation form of the rows restricted to A.
`_observables` makes the one call every query reads. A bipartition that
leaves sites out is first reduced to rho_AB by dephasing the other sites in
Z and X. Then, with k' the traced state's generator count,
S_A = |A| - (k' - rank_B), S_B = |B| - (k' - rank_A), S_AB = |A u B| - k'
and E = rank_J / 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import rowkernel
from .channels import _apply_layer, _check_integers
from .gf2 import bits_to_int_rows, parity_matmul, rank_int_rows
from .stabilizer import StabilizerState, _generator_intervals, canonicalize

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


def _sorted_sites(region: Iterable[int]) -> List[int]:
    """The distinct sites of region as sorted Python ints. A site that
    `channels._check_integers` does not take (0.5, 2.0, '0', None, True)
    raises ValueError rather than being cut to one that it does."""
    sites = set()
    for site in region:
        _check_integers(site=site)
        sites.add(int(site))
    return sorted(sites)


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint site sets; the standard split is contiguous halves."""

    region_a: Tuple[int, ...]
    region_b: Tuple[int, ...]

    def __init__(self, region_a: Iterable[int], region_b: Iterable[int]):
        a = tuple(_sorted_sites(region_a))
        b = tuple(_sorted_sites(region_b))
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


def _sites(L: int, sites: np.ndarray) -> _Sites:
    columns = np.concatenate([sites, sites + L])
    columns.flags.writeable = False  # one array serves every caller of the cache
    return _Sites(tuple(sites.tolist()), sites.tobytes(), columns)


def _site_array(L: int, sites: Tuple[int, ...]) -> np.ndarray:
    if sites and (sites[0] < 0 or sites[-1] >= L):
        raise ValueError("region site out of range")
    return np.asarray(sites, dtype=np.int64)


@lru_cache(maxsize=256)
def _regions(
    L: int, region_a: Tuple[int, ...], region_b: Optional[Tuple[int, ...]]
) -> Tuple[_Sites, _Sites, Tuple[int, ...]]:
    """A's and B's sites, B being the rest of the chain when region_b is
    None, and the Z and X tableau columns of the sites outside A u B, which
    a trace-out dephases. Each region arrives as the sorted distinct ints of
    `_sorted_sites`, which checks its sites before they become a key: (1.0,)
    and (True,) hash and compare equal to (1,). A site out of range raises
    ValueError, and lru_cache keeps no exception, so it raises every call."""
    a = _site_array(L, region_a)
    outside = np.ones(L, dtype=bool)
    outside[a] = False
    b = np.flatnonzero(outside) if region_b is None else _site_array(L, region_b)
    outside[b] = False
    columns = tuple(c for site in np.flatnonzero(outside).tolist() for c in (site, L + site))
    return _sites(L, a), _sites(L, b), columns


def _observables(
    state: StabilizerState, region_a: Tuple[int, ...], region_b: Optional[Tuple[int, ...]]
) -> Tuple[int, int, int, float]:
    """(S_A, S_B, S_AB, E) of rho_AB, from one `_ranks` call. rho_AB's group
    is the subgroup supported on A u B (Sang et al., arXiv:2012.00031): what
    is left after dephasing every other site in both Z and X, in one
    `_apply_layer` call on a copy. When A u B is the whole chain, as when
    region_b is None, that is every generator, and no copy is made."""
    a, b, columns = _regions(state.num_qubits, region_a, region_b)
    if columns:
        state = state.copy()
        state._neg = None  # _apply_layer takes unsigned states; dephasing reads no sign
        _apply_layer(state, columns, None, ())
    rank_b, rank_a, rank_j = _ranks(state, a, b)
    k = state.num_generators
    n_a, n_b = len(a.sites), len(b.sites)
    return n_a - (k - rank_b), n_b - (k - rank_a), n_a + n_b - k, rank_j / 2.0


def _ranks(state: StabilizerState, a: _Sites, b: _Sites) -> Tuple[int, int, int]:
    """Over the stabilizer rows, for disjoint A and B that cover the chain
    or whose outside is traced out: (rank on B's columns, rank on A's
    columns, rank of J = X_A Z_A^T + Z_A X_A^T). The row kernel makes the
    three in one elimination: its pass over B's columns leaves the
    generators local to A, its pass over A's columns the cross generators,
    and J's rank is taken over those alone, since local generators add
    nothing to it. The numpy code, three separate ranks over all k rows,
    is the reference."""
    if rowkernel.LIB is not None:
        return rowkernel.record_ranks(state, a.raw, b.raw)
    bits = state._stabilizer_bits(a.columns)
    xa, za = np.hsplit(bits, 2)
    j = parity_matmul(xa, za.T) ^ parity_matmul(za, xa.T)
    rank_b = rank_int_rows(bits_to_int_rows(state._stabilizer_bits(b.columns)))
    return rank_b, rank_int_rows(bits_to_int_rows(bits)), rank_int_rows(bits_to_int_rows(j))


def entropy(state: StabilizerState, region: Iterable[int]) -> int:
    """S_R = |R| - |G_R| with G_R the subgroup supported inside R.

    |G_R| = k - rank(generators restricted to the complement of R). The
    sites of R are checked and sorted, then cached per (L, R).
    """
    return _observables(state, tuple(_sorted_sites(region)), None)[0]


def negativity(state: StabilizerState, bp: Bipartition) -> float:
    """E = rank(J)/2, J the anticommutation form of rho_AB's generators on
    A. The sites of bp are cached per (L, A, B)."""
    return _observables(state, bp.region_a, bp.region_b)[3]


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


def _check_bound(counts: np.ndarray, times) -> None:
    """Warn (RuntimeWarning) for each row (S_A, S_B, S_AB, 2E) of the
    integer array counts whose 2E exceeds I = S_A + S_B - S_AB, naming its
    time. 2E <= I holds for stabilizer states; a violation signals an engine
    bug, but the records are still kept for the post-mortem. Every record
    of the runner's and of `record_observables` goes through here."""
    mi = counts[:, 0] + counts[:, 1] - counts[:, 2]
    for row in np.flatnonzero(counts[:, 3] > mi).tolist():
        warnings.warn(
            f"2E = {float(counts[row, 3])} exceeds I = {int(mi[row])} at t = {times[row]}",
            RuntimeWarning,
        )


def record_observables(
    state: StabilizerState, bp: Bipartition, time: int
) -> ObservableRecord:
    """The observables of one record, from one `_observables` call."""
    s_a, s_b, s_ab, e = _observables(state, bp.region_a, bp.region_b)
    _check_bound(np.array([[s_a, s_b, s_ab, int(2 * e)]]), (time,))
    return ObservableRecord(
        time=time,
        S_A=s_a,
        S_B=s_b,
        S_AB=s_ab,
        E=e,
        I=s_a + s_b - s_ab,
        purity_log2=purity_log2(state),
    )


def length_distribution(state: StabilizerState) -> np.ndarray:
    """Counts of clipped-generator lengths; index = length, size L + 1.

    The generators of `canonicalize(state)` (the row kernel's on unsigned
    states) are read as intervals from the tableau's columns in one numpy
    pass. Identity rows (possible in mixed states) do not contribute.
    """
    left, right = _generator_intervals(canonicalize(state))
    return np.bincount(right - left + 1, minlength=state.num_qubits + 1)


def window_mass(counts: np.ndarray, lo_frac: float, hi_frac: float) -> float:
    """Fraction of total count with length in [lo_frac * L, hi_frac * L]."""
    L = counts.size - 1
    total = counts.sum()
    if total == 0:
        return 0.0
    lo = int(np.ceil(lo_frac * L))
    hi = int(np.floor(hi_frac * L))
    return float(counts[lo : hi + 1].sum() / total)
