"""Mixed stabilizer states as a column-packed tableau with a full symplectic basis.

A state on L sites holds 2L tableau rows, each a Pauli string mod phase.
Rows j and L + j form pair j. For a stabilizer pair they are (S_j, D_j), a
generator and its destabilizer; otherwise they are an anticommuting logical
pair of the mixed part. Every row anticommutes with its partner and commutes
with every other row (Aaronson-Gottesman bookkeeping carried over to mixed
states). The k stabilizer generators fix the density operator as the uniform
mixture over the generated group, so purity is 2**(k-L).

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


def _symp(a: int, b: int, L: int) -> int:
    """Symplectic product of two 2L-bit rows (x | z << L): 1 iff they anticommute."""
    full = (1 << L) - 1
    return (((a & full) & (b >> L)).bit_count() + ((a >> L) & (b & full)).bit_count()) & 1


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
        """Signed stabilizers in pairs 0..k-1, completed to a full symplectic basis.

        Raises ValueError naming the first violation: too many, non-commuting
        or dependent generators.
        """
        k = len(gens)
        if k > L:
            raise ValueError(f"too many generators ({k} > {L})")
        for i in range(k):
            for j in range(i + 1, k):
                if _symp(gens[i], gens[j], L):
                    raise ValueError(f"non-commuting generator pair ({i}, {j})")
        destabs = _destabilizers(list(gens), L)
        logicals = _logical_pairs(list(gens), destabs, L)
        rows = [0] * (2 * L)
        for j, (s, d) in enumerate(zip(gens, destabs)):
            rows[j], rows[L + j] = s, d
        for j, (a, b) in enumerate(logicals, start=k):
            rows[j], rows[L + j] = a, b
        neg = np.zeros(L, dtype=np.uint8)
        neg[:k] = signs
        return cls._from_basis(L, rows, (1 << k) - 1, neg)

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


# -- basis completion (construction paths only) -----------------------------------


def _destabilizers(gens: List[int], L: int) -> List[int]:
    """D_j with <S_i, D_j> = delta_ij that commute with each other.

    Reduced echelon form of the rows swap(S_i) (so the dot product with a
    vector is the symplectic product with S_i), with tags recording which
    S_i make up each reduced row: the unit vector at reduced row r's pivot
    pairs with S_j for every j in r's tag.
    """
    k, width = len(gens), 2 * L
    full = (1 << L) - 1
    value_mask = (1 << width) - 1
    reduced: List[int] = []  # value | tag << width
    pivots: List[int] = []
    for i, s in enumerate(gens):
        row = ((s >> L) | ((s & full) << L)) | (1 << (width + i))
        for r, c in zip(reduced, pivots):
            if (row >> c) & 1:
                row ^= r
        value = row & value_mask
        if not value:
            raise ValueError("dependent generator rows")
        c = (value & -value).bit_length() - 1
        for idx, r in enumerate(reduced):
            if (r >> c) & 1:
                reduced[idx] = r ^ row
        reduced.append(row)
        pivots.append(c)
    destabs = [0] * k
    for r, c in zip(reduced, pivots):
        for j in _bit_indices(r >> width):
            destabs[j] |= 1 << c
    for j in range(k):
        for i in range(j):
            if _symp(destabs[i], destabs[j], L):
                destabs[j] ^= gens[i]
    return destabs


def _logical_pairs(gens: List[int], destabs: List[int], L: int) -> List[Tuple[int, int]]:
    """Symplectic Gram-Schmidt on the unit vectors projected off span(S, D)."""
    pool = []
    for c in range(2 * L):
        v = 1 << c
        for s, d in zip(gens, destabs):
            if _symp(v, d, L):
                v ^= s
            if _symp(v, s, L):
                v ^= d
        if v:
            pool.append(v)
    pairs = []
    while len(pairs) < L - len(gens):
        a = pool.pop(0)
        if not a:
            continue
        b_idx = next(i for i, u in enumerate(pool) if _symp(a, u, L))
        b = pool.pop(b_idx)
        pairs.append((a, b))
        pool = [u ^ (b if _symp(u, a, L) else 0) ^ (a if _symp(u, b, L) else 0) for u in pool]
    return pairs


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
    keeps the destabilizers dual to the new generators.
    """
    L = state.num_qubits
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


def clipped_endpoint_counts(state: StabilizerState) -> Tuple[np.ndarray, np.ndarray]:
    """(left_counts, right_counts) per site; identity rows are skipped."""
    L = state.num_qubits
    left = np.zeros(L, dtype=np.int64)
    right = np.zeros(L, dtype=np.int64)
    for row in state.symplectic_int_rows():
        interval = _row_interval(row, L)
        if interval is not None:
            left[interval[0]] += 1
            right[interval[1]] += 1
    return left, right
