"""Mixed stabilizer states as a column-packed tableau with a full symplectic basis.

A state on L sites holds 2L tableau rows, each a Pauli string mod phase.
Rows j and L + j form pair j. For a stabilizer pair they are (S_j, D_j), a
generator and its destabilizer; otherwise they are an anticommuting logical
pair of the mixed part. Every row anticommutes with its partner and commutes
with every other row (Aaronson-Gottesman bookkeeping carried over to mixed
states). The k stabilizer generators fix the density operator as the uniform
mixture over the generated group, so purity is 2**(k-L). Constructors start
from the maximally mixed state, where every pair is a logical pair, and
measure the given generators into it with the same tableau update the
measurement channel uses.

Storage is transposed and bit-packed (Gidney's layout, arXiv:2103.02202): a
(W, 2L) uint64 array with W = ceil(2L/64). Column c < L is the X bit of site
c as a bitmask over the 2L rows, column L + c is its Z bit. A row multiply
is one masked XOR over the columns, and the rows that anticommute with Z_c
are column c itself. A Python int marks the stabilizer pairs; k is its
popcount.

A signed state keeps one sign bit per stabilizer row and answers every
query. An unsigned state (the trajectory runner's) keeps none: it refuses
`generators`, `to_json` and outcome-returning measurements with ValueError,
while every entropy, negativity and length query works unchanged.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import rowkernel
from .gf2 import bits_to_int_rows, parity_matmul
from .pauli import PauliString, phase_product

__all__ = [
    "StabilizerState",
    "product_state",
    "purity",
    "canonicalize",
    "clipped_endpoint_counts",
    "validate",
]

_WORD = np.dtype("<u8")
_ONE = np.uint64(1)
# per bit position within a word: the shift, the bit, and the mask clearing it
_SHIFT = tuple(np.uint64(b) for b in range(64))
_BIT = tuple(_ONE << s for s in _SHIFT)
_CLEAR = tuple(~bit for bit in _BIT)


# -- bit-packing helpers ---------------------------------------------------------


def _int_to_words(value: int, words: int) -> np.ndarray:
    return np.frombuffer(value.to_bytes(8 * words, "little"), dtype=_WORD)


def _unpack_rows(cols: np.ndarray) -> np.ndarray:
    """(W, n) packed columns -> (64W, n) 0/1 uint8 matrix, one row per bit."""
    w, n = cols.shape
    raw = np.ascontiguousarray(cols, dtype=_WORD).view(np.uint8).reshape(w, n, 8)
    raw = np.ascontiguousarray(raw.transpose(1, 0, 2)).reshape(n, 8 * w)
    return np.unpackbits(raw, axis=1, bitorder="little").T  # unpacking along rows is slower


def _pack_rows(bits: np.ndarray, words: int) -> np.ndarray:
    """(r, n) 0/1 matrix with r <= 64*words -> (words, n) packed columns."""
    r, n = bits.shape
    padded = np.zeros((64 * words, n), dtype=np.uint8)
    padded[:r] = bits
    raw = np.packbits(padded, axis=0, bitorder="little").reshape(words, 8, n)
    return np.ascontiguousarray(raw.transpose(0, 2, 1)).view(_WORD).reshape(words, n)


def _int_rows_to_bits(rows: Sequence[int], width: int) -> np.ndarray:
    """Ints with bit c = column c -> (len(rows), width) 0/1 uint8 matrix."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width]


def _bit_indices(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- in-place row primitives on packed columns -----------------------------------


def _xor_row(cols: np.ndarray, source: int, targets: int) -> None:
    """row_t ^= row_source for each row t set in the int mask `targets`."""
    src = (cols[source >> 6] >> _SHIFT[source & 63]) & _ONE  # 0/1 per column
    cols ^= _int_to_words(targets, cols.shape[0])[:, None] * src


def _clear_row(cols: np.ndarray, row: int) -> None:
    cols[row >> 6] &= _CLEAR[row & 63]


def _fold_rows(cols: np.ndarray, sources: int, target: int) -> None:
    """row_target ^= XOR of the rows set in the int mask `sources`."""
    hit = cols & _int_to_words(sources, cols.shape[0])[:, None]
    parity = (np.bitwise_count(hit).sum(axis=0) & 1).astype(np.uint64)  # numpy >= 2.0
    cols[target >> 6] ^= parity << _SHIFT[target & 63]


def _write_row(cols: np.ndarray, row: int, value: int) -> None:
    """Overwrite one row with the 2L-bit int value (bit c = column c)."""
    _clear_row(cols, row)
    if not value:
        return
    if value & (value - 1) == 0:  # a single-site X or Z: one column to set
        cols[row >> 6, value.bit_length() - 1] |= _BIT[row & 63]
    else:
        bits = _int_rows_to_bits([value], cols.shape[1])[0].astype(np.uint64)
        cols[row >> 6] |= bits << _SHIFT[row & 63]


def _anticommuting_rows(cols: np.ndarray, h: int, L: int) -> int:
    """Int mask of the rows anticommuting with the 2L-bit row h: the XOR of
    the X columns of its Z sites and the Z columns of its X sites."""
    swapped = (h >> L) | ((h & ((1 << L) - 1)) << L)
    anti = np.bitwise_xor.reduce(cols[:, _bit_indices(swapped)], axis=1)
    return int.from_bytes(anti.tobytes(), "little")


class StabilizerState:
    """Column-packed 2L-row symplectic basis; see the module docstring."""

    __slots__ = ("num_qubits", "_cols", "_stab", "_neg")

    def __init__(self, num_qubits: int, generators: Sequence[PauliString] = ()):
        if num_qubits < 1:
            raise ValueError("need at least one site")
        for g in generators:
            if g.num_qubits != num_qubits:
                raise ValueError("generator size does not match the state")
        rows = [g.x_mask | (g.z_mask << num_qubits) for g in generators]
        signs = [1 if g.sign < 0 else 0 for g in generators]
        other = StabilizerState._from_rows(num_qubits, rows, signs)
        self.num_qubits = num_qubits
        self._cols, self._stab, self._neg = other._cols, other._stab, other._neg

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_basis(
        cls, L: int, rows: Sequence[int], stab: int, neg: Optional[np.ndarray]
    ) -> "StabilizerState":
        """Pack 2L basis rows (ints, x | z << L) with the stabilizer pair mask."""
        state = cls.__new__(cls)
        state.num_qubits = L
        state._cols = _pack_rows(_int_rows_to_bits(rows, 2 * L), -(-2 * L // 64))
        state._stab = stab
        state._neg = neg
        return state

    @classmethod
    def _from_rows(cls, L: int, gens: Sequence[int], signs: Sequence[int]) -> "StabilizerState":
        """Signed stabilizers in pairs 0..k-1, measured into the maximally mixed state.

        Each generator must take case (c) of _collapse_rows and lands in some
        free pair; one row permutation then puts generator i in pair i.
        Raises ValueError naming the first violation in input order: too
        many generators, one that anticommutes with an earlier one (case b),
        or one already in the group up to sign (case a).
        """
        k = len(gens)
        if k > L:
            raise ValueError(f"too many generators ({k} > {L})")
        state = product_state(L, signed=False)
        state._stab = 0  # every pair (Z_j, X_j) is a logical pair
        pair_of: List[int] = []
        for j, row in enumerate(gens):
            anti = _anticommuting_rows(state._cols, row, L)
            hit = anti & state._stab
            if hit:
                i = min(pair_of.index(p) for p in _bit_indices(hit))
                raise ValueError(f"non-commuting generator pair ({i}, {j})")
            p = _collapse_rows(state, anti, row)
            if p < 0:
                raise ValueError("dependent generator rows")
            pair_of.append(p)
        taken = set(pair_of)
        order = pair_of + [j for j in range(L) if j not in taken]
        bits = _unpack_rows(state._cols)[order + [L + j for j in order]]
        state._cols = _pack_rows(bits, state._cols.shape[0])
        state._stab = (1 << k) - 1
        state._neg = np.zeros(L, dtype=np.uint8)
        state._neg[:k] = signs
        return state

    def copy(self) -> "StabilizerState":
        state = StabilizerState.__new__(StabilizerState)
        state.num_qubits = self.num_qubits
        state._cols = self._cols.copy()
        state._stab = self._stab
        state._neg = None if self._neg is None else self._neg.copy()
        return state

    # -- views ---------------------------------------------------------------

    @property
    def signed(self) -> bool:
        return self._neg is not None

    @property
    def num_generators(self) -> int:
        return self._stab.bit_count()

    def _stabilizer_pairs(self) -> List[int]:
        return _bit_indices(self._stab)

    def _rows_int(self) -> List[int]:
        """All 2L tableau rows as 2L-bit ints x | z << L."""
        return bits_to_int_rows(_unpack_rows(self._cols)[: 2 * self.num_qubits])

    def symplectic_int_rows(self) -> List[int]:
        """Each generator as the 2L-bit int x_mask | z_mask << L."""
        rows = self._rows_int()
        return [rows[j] for j in self._stabilizer_pairs()]

    def _stabilizer_bits(self, columns) -> np.ndarray:
        """(k, len(columns)) 0/1 matrix: the stabilizer rows at those columns."""
        L = self.num_qubits
        words = -(-L // 64)  # stabilizer rows all sit below L
        bits = _unpack_rows(self._cols[:words, columns])
        raw = np.frombuffer(self._stab.to_bytes(8 * words, "little"), dtype=np.uint8)
        return bits[np.unpackbits(raw, bitorder="little").view(bool)]

    @property
    def _x(self) -> np.ndarray:
        """Read-only (k, L) 0/1 X bits of the stabilizer rows."""
        view = self._stabilizer_bits(np.arange(self.num_qubits))
        view.flags.writeable = False
        return view

    def _require_signs(self, what: str) -> None:
        if self._neg is None:
            raise ValueError(f"{what} needs a signed state; this one tracks no signs")

    @property
    def generators(self) -> Tuple[PauliString, ...]:
        self._require_signs("generators")
        L = self.num_qubits
        return tuple(
            PauliString(L, row & ((1 << L) - 1), row >> L, -1 if neg else 1)
            for row, neg in self._signed_rows()
        )

    def _signed_rows(self) -> List[Tuple[int, int]]:
        """(row, sign bit) per generator; the sign bit is 0 on unsigned states."""
        pairs = self._stabilizer_pairs()
        signs = [0] * len(pairs) if self._neg is None else [int(self._neg[j]) for j in pairs]
        return list(zip(self.symplectic_int_rows(), signs))

    def __eq__(self, other) -> bool:
        """Same sites, signedness and generator list (rows and signs, in order)."""
        if not isinstance(other, StabilizerState):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.signed == other.signed
            and self._signed_rows() == other._signed_rows()
        )

    def __repr__(self) -> str:
        L = self.num_qubits
        labels = []
        for row, neg in self._signed_rows():
            label = PauliString(L, row & ((1 << L) - 1), row >> L).to_label()[1:]
            if self.signed:
                label = ("-" if neg else "+") + label
            labels.append(label)
        return f"StabilizerState(L={L}, [{', '.join(labels)}])"

    # -- in-place row operations (used by the channels module) --------------

    def _multiply_rows(self, source: int, targets) -> None:
        """row_t <- row_source * row_t for each tableau row index in targets.

        The source must commute with every target. Signs of stabilizer
        targets follow pauli.phase_product; other rows carry no sign.
        """
        if len(targets) == 0:
            return
        mask = 0
        for t in targets:
            mask |= 1 << int(t)
        neg = self._neg
        if neg is not None:
            rows, L = self._rows_int(), self.num_qubits
            for t in _bit_indices(mask & self._stab):
                neg[t] = _product_sign(L, rows[source], neg[source], rows[t], neg[t])
        _xor_row(self._cols, source, mask)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"L": self.num_qubits, "generators": [g.to_label() for g in self.generators]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StabilizerState":
        gens = [PauliString.from_label(label) for label in data["generators"]]
        return cls(int(data["L"]), gens)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "StabilizerState":
        return cls.from_json_dict(json.loads(text))


# -- the measurement update on the tableau (shared with the channels module) ----


def _multiply(state: StabilizerState, source: int, targets: int) -> None:
    """Rows in the int mask targets <- row source times themselves; signed
    states go through _multiply_rows when a stabilizer row, whose sign the
    product changes, is among the targets."""
    if state._neg is not None and targets & state._stab:
        state._multiply_rows(source, _bit_indices(targets))
    else:
        _xor_row(state._cols, source, targets)


def _collapse_rows(state: StabilizerState, anti: int, h: int) -> int:
    """Tableau part of measuring the 2L-bit row h; anti marks the rows
    anticommuting with it. Returns the pair whose stabilizer is now h, or -1.

    The source row src is the lowest anticommuting stabilizer S_p (case b),
    else the lowest anticommuting logical row (case c); pair = src % L. src
    is multiplied into the other anticommuting rows outside its pair (and
    into row L + pair, cleared first, when src is row pair), so it ends up
    as the pair's destabilizer, and h becomes the pair's stabilizer.
    (a) nothing but destabilizers anticommutes: h is +-prod of the S_i whose
        D_i anticommutes with h, and the tableau is unchanged.
    Signs of the other stabilizers follow the row products; the caller
    writes the sign of the new stabilizer.
    """
    L = state.num_qubits
    cols, stab = state._cols, state._stab
    hit = anti & stab  # case (b)
    if not hit:
        free = ((1 << L) - 1) & ~stab
        hit = anti & (free | (free << L))  # case (c)
        if not hit:
            return -1
    src = (hit & -hit).bit_length() - 1
    pair = src % L
    targets = anti & ~(1 << src | 1 << pair)
    if src == pair:
        _clear_row(cols, L + pair)
        targets |= 1 << (L + pair)
    _multiply(state, src, targets)
    _write_row(cols, pair, h)
    state._stab = stab | (1 << pair)
    return pair


def product_state(L: int, signed: bool = True) -> StabilizerState:
    """|0>^L: S_j = +Z_j, D_j = X_j, purity 1. signed=False drops the signs."""
    if L < 1:
        raise ValueError("need at least one site")
    state = StabilizerState.__new__(StabilizerState)
    state.num_qubits = L
    cols = np.zeros((-(-2 * L // 64), 2 * L), dtype=_WORD)
    j = np.arange(L)
    cols[j >> 6, L + j] = _ONE << (j & 63).astype(np.uint64)
    cols[(L + j) >> 6, j] = _ONE << ((L + j) & 63).astype(np.uint64)
    state._cols = cols
    state._stab = (1 << L) - 1
    state._neg = np.zeros(L, dtype=np.uint8) if signed else None
    return state


def purity(state: StabilizerState) -> float:
    """tr rho^2 = 2**(k - L)."""
    return 2.0 ** (state.num_generators - state.num_qubits)


def validate(state: StabilizerState) -> Optional[str]:
    """None if all invariants hold, else a message naming the first violation.

    The 2L rows must form a symplectic basis: each row anticommutes with its
    partner and commutes with every other row. That makes the generators
    commuting and independent, so -identity is not in the group.
    """
    L = state.num_qubits
    k = state.num_generators
    if state._stab >> L:
        return f"too many generators ({k} > {L})"
    if state._cols.shape != (-(-2 * L // 64), 2 * L):
        return "tableau shape does not match L"
    if state._neg is not None and (state._neg.shape != (L,) or state._neg.max(initial=0) > 1):
        return "sign entries outside {0,1}"
    bits = _unpack_rows(state._cols)[: 2 * L]
    x, z = bits[:, :L], bits[:, L:]
    gram = parity_matmul(x, z.T) ^ parity_matmul(z, x.T)
    want = np.zeros((2 * L, 2 * L), dtype=np.uint8)
    j = np.arange(L)
    want[j, L + j] = want[L + j, j] = 1
    bad = np.argwhere(np.triu(gram ^ want))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        stab = state._stab
        if i < L and j < L and (stab >> i) & 1 and (stab >> j) & 1:
            return f"non-commuting generator pair ({i}, {j})"
        kind = "do not anticommute" if j == i + L else "anticommute"
        return f"basis rows ({i}, {j}) {kind}"
    return None


def _product_sign(L: int, a: int, a_neg: int, b: int, b_neg: int) -> int:
    """Sign bit of the product of two commuting signed rows."""
    full = (1 << L) - 1
    pa = PauliString(L, a & full, a >> L, -1 if a_neg else 1)
    pb = PauliString(L, b & full, b >> L, -1 if b_neg else 1)
    _, k = phase_product(pa, pb)
    if k % 2:
        raise AssertionError("product of generators came out anti-Hermitian")
    return k >> 1


def _row_interval(row: int, L: int) -> Optional[Tuple[int, int]]:
    """(leftmost, rightmost) sites of a 2L-bit row, None for the identity."""
    support = (row | (row >> L)) & ((1 << L) - 1)
    if not support:
        return None
    return ((support & -support).bit_length() - 1, support.bit_length() - 1)


def _left_key(row: int, L: int) -> Tuple[int, int]:
    interval = _row_interval(row, L)
    if interval is None:
        return (L, 1)
    return (interval[0], 0 if (row >> interval[0]) & 1 else 1)


def canonicalize(state: StabilizerState) -> StabilizerState:
    """Clipped gauge via a left-to-right then right-to-left elimination sweep.

    After the sweeps each site hosts at most two generator left-endpoints and
    at most two right-endpoints; the generated (signed) group is unchanged and
    the map is a fixed point on its own output. Works on unsigned states.
    Each generator product S_t <- S_p S_t is paired with D_p <- D_p D_t, which
    keeps the destabilizers dual to the new generators. The input is left
    as it is. With the row kernel built, unsigned states are canonicalized
    there, with the same row operations in the same order; this row-int code
    runs for signed states and is the reference. A tableau whose shape or
    stabilizer mask does not fit L raises ValueError.
    """
    L = state.num_qubits
    if state._stab >> L or state._cols.shape != (-(-2 * L // 64), 2 * L):
        raise ValueError("the tableau's shape or stabilizer mask does not fit L")
    if rowkernel.LIB is not None and state._neg is None:
        return rowkernel.canonicalize(state)
    rows = state._rows_int()
    slots = state._stabilizer_pairs()
    k = len(slots)
    S = [rows[j] for j in slots]
    D = [rows[L + j] for j in slots]
    neg = None if state._neg is None else [int(state._neg[j]) for j in slots]

    def multiply_into(p: int, t: int) -> None:
        if neg is not None:
            neg[t] = _product_sign(L, S[p], neg[p], S[t], neg[t])
        S[t] ^= S[p]
        D[p] ^= D[t]

    def swap(a: int, b: int) -> None:
        S[a], S[b] = S[b], S[a]
        D[a], D[b] = D[b], D[a]
        if neg is not None:
            neg[a], neg[b] = neg[b], neg[a]

    # Left sweep: echelon over columns (site, X-ish) then (site, Z-only),
    # eliminating below each pivot; sorts rows by left endpoint.
    r = 0
    for site in range(L):
        for c in (site, L + site):
            pivot = next((j for j in range(r, k) if (S[j] >> c) & 1), None)
            if pivot is None:
                continue
            swap(r, pivot)
            for j in range(r + 1, k):
                if (S[j] >> c) & 1:
                    multiply_into(r, j)
            r += 1

    # Right sweep: walking sites right-to-left, pick per bit-kind the not yet
    # finished row with the largest left endpoint (so multiplications cannot
    # disturb any left endpoint) and clear that bit from the other unfinished
    # rows; the chosen row's right endpoint is then pinned at this site.
    finished = [False] * k
    for site in range(L - 1, -1, -1):
        for c in (site, L + site):
            candidates = [j for j in range(k) if not finished[j] and (S[j] >> c) & 1]
            if not candidates:
                continue
            pivot = max(candidates, key=lambda j: _left_key(S[j], L))
            for j in candidates:
                if j != pivot:
                    multiply_into(pivot, j)
            finished[pivot] = True

    out_neg = None if neg is None else state._neg.copy()
    for slot, j in enumerate(slots):
        rows[j], rows[L + j] = S[slot], D[slot]
        if out_neg is not None:
            out_neg[j] = neg[slot]
    return StabilizerState._from_basis(L, rows, state._stab, out_neg)


def _generator_intervals(state: StabilizerState) -> Tuple[np.ndarray, np.ndarray]:
    """(leftmost, rightmost) site arrays of the non-identity generators, in
    pair order: the `_row_interval`s, read from the tableau's columns in one
    numpy pass."""
    L = state.num_qubits
    bits = state._stabilizer_bits(slice(None))
    support = bits[:, :L] | bits[:, L:]
    support = support[support.any(axis=1)]
    return support.argmax(axis=1), L - 1 - support[:, ::-1].argmax(axis=1)


def clipped_endpoint_counts(state: StabilizerState) -> Tuple[np.ndarray, np.ndarray]:
    """(left_counts, right_counts) per site, from the generators' intervals
    read off the tableau's columns; identity rows are skipped."""
    left, right = _generator_intervals(state)
    L = state.num_qubits
    return np.bincount(left, minlength=L), np.bincount(right, minlength=L)
