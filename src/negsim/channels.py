"""State-update primitives: random two-qubit Cliffords, Pauli measurement,
and the single-site dephasing channel.

Clifford sampling follows the transvection construction for uniform Sp(2n,2)
elements (Koenig and Smolin, J. Math. Phys. 55, 122202 (2014)): an index ->
matrix bijection, run here on int bitmasks. Uniformity over the 11,520
two-qubit Cliffords mod phase thus reduces to a uniform index in [0, 720)
plus four uniform sign bits. Conjugation acts on the column-packed tableau
as a 4x4 GF(2) map per gate on the four columns (x_i, z_i, x_j, z_j),
vectorized over a whole brickwork layer; signed states also fold in the
sign flips of the gate's 16-entry conjugation table.

Measurement and dephasing read the rows that anticommute with Z_site from
one tableau column, so each is a few masked XORs and no linear solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import rowkernel

# solve_int_rows is not used here any more; bench/workloads.py still wraps
# negsim.channels.solve_int_rows by name, so the name stays importable.
from .gf2 import solve_int_rows  # noqa: F401
from .pauli import PauliString, commutes, phase_product
from .stabilizer import (
    StabilizerState,
    _anticommuting_rows,
    _bit_indices,
    _collapse_rows,
    _fold_rows,
    _multiply,
    _product_sign,
)

__all__ = [
    "CliffordGate",
    "Rng",
    "make_rng",
    "trajectory_rng",
    "sample_two_qubit_clifford",
    "apply_clifford",
    "measure_pauli",
    "dephase",
    "symplectic_matrix",
    "symplectic_group_order",
]

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def trajectory_rng(seed: int, trajectory_index: int) -> Rng:
    """Splittable per-trajectory stream: hash(seed, index) via SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trajectory_index,))
    return np.random.Generator(np.random.PCG64(ss))


# -- uniform symplectic sampling ------------------------------------------


def _index(value) -> int:
    """operator.index(value), a Python int that cannot overflow; a bool
    raises TypeError, as a float does."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an integer here, got {value!r}")
    return operator.index(value)


def symplectic_group_order(n: int) -> int:
    """|Sp(2n, 2)| = 2^(n^2) prod_j (4^j - 1); n >= 1."""
    n = _index(n)
    if n < 1:
        raise ValueError(f"need n >= 1 qubits, got {n}")
    order = 1 << (n * n)
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
    return order


# Vectors are ints: bit j is coordinate j in the order (x1, z1, x2, z2, ...).


def _symp_inner(v: int, w: int) -> int:
    # pairing on adjacent bits (x1,z1),(x2,z2),...: the even bits of
    # v & (w >> 1) and (v >> 1) & w hold x_i z_i' and z_i x_i'
    width = (v | w).bit_length() + 1
    even = ((1 << (width & ~1)) - 1) // 3  # 0b...0101
    return (((v & (w >> 1)) ^ ((v >> 1) & w)) & even).bit_count() & 1


def _transvection(k: int, v: int) -> int:
    return v ^ k if _symp_inner(k, v) else v


def _find_transvection(x: int, y: int, n: int) -> Tuple[int, int]:
    """Two vectors h0, h1 with T_h0 T_h1 x = y (either may be zero)."""
    if x == y:
        return 0, 0
    if _symp_inner(x, y):
        return x ^ y, 0
    pairs = [((x >> (2 * i)) & 3, (y >> (2 * i)) & 3) for i in range(n)]
    for i, (xp, yp) in enumerate(pairs):  # pair where both have content
        if xp and yp:
            zp = xp ^ yp
            if zp == 0:
                zp = 3 if xp in (1, 2) else 2
            z = zp << (2 * i)
            return x ^ z, y ^ z
    z = 0
    for i, (xp, yp) in enumerate(pairs):  # pair where only x has content
        if xp and not yp:
            z |= (2 if xp & 1 else 1) << (2 * i)
            break
    for i, (xp, yp) in enumerate(pairs):  # pair where only y has content
        if yp and not xp:
            z |= (2 if yp & 1 else 1) << (2 * i)
            break
    return x ^ z, y ^ z


def _symplectic_rows(index: int, n: int) -> List[int]:
    """Rows of symplectic_matrix(index, n) as ints, for a valid index.

    Index digits are read from n qubits down; the rows are built from one
    qubit up, each level embedding the last one on its lower-right block.
    """
    levels = []
    for m in range(n, 0, -1):
        nn = 2 * m
        s = (1 << nn) - 1
        f1 = (index % s) + 1
        index //= s
        t0, t1 = _find_transvection(1, f1, m)
        bits = index % (1 << (nn - 1))
        index //= 1 << (nn - 1)
        eprime = 1 | (bits >> 1) << 2
        h0 = _transvection(t0, _transvection(t1, eprime))
        if bits & 1:
            f1 = 0  # the final T_f1 degenerates to the identity
        levels.append((t1, t0, h0, f1))
    rows: List[int] = []
    for transvections in reversed(levels):
        rows = [1, 2] + [row << 2 for row in rows]
        for k in transvections:
            rows = [_transvection(k, row) for row in rows]
    return rows


def symplectic_matrix(index: int, n: int) -> np.ndarray:
    """index -> element of Sp(2n,2); bijective for index in [0, group order).

    Row j is the image of basis vector j in column order (x1,z1,x2,z2,...).
    """
    index, n = _index(index), _index(n)
    order = symplectic_group_order(n)
    if not 0 <= index < order:
        raise ValueError(f"index {index} outside [0, {order}) for n={n}")
    rows = _symplectic_rows(index, n)
    return np.array([[(row >> j) & 1 for j in range(2 * n)] for row in rows], dtype=np.uint8)


# -- gates ------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordGate:
    """Two-qubit Clifford given by the images of X1, Z1, X2, Z2."""

    images: Tuple[PauliString, PauliString, PauliString, PauliString]

    def __post_init__(self):
        if len(self.images) != 4 or any(g.num_qubits != 2 for g in self.images):
            raise ValueError("expected four images on 2 qubits")
        if any(g.is_identity for g in self.images):
            raise ValueError("image cannot be the identity")
        for a in range(4):
            for b in range(a + 1, 4):
                want_anti = (a, b) in ((0, 1), (2, 3))
                if commutes(self.images[a], self.images[b]) == want_anti:
                    raise ValueError("images violate the symplectic condition")

    @classmethod
    def from_labels(cls, x1: str, z1: str, x2: str, z2: str) -> "CliffordGate":
        return cls(tuple(PauliString.from_label(s) for s in (x1, z1, x2, z2)))


def cnot_gate() -> CliffordGate:
    """CNOT with control on the first touched site."""
    return CliffordGate.from_labels("+XX", "+ZI", "+IX", "+ZZ")


def swap_gate() -> CliffordGate:
    return CliffordGate.from_labels("+IX", "+IZ", "+XI", "+ZI")


def hadamard_on_first() -> CliffordGate:
    return CliffordGate.from_labels("+ZI", "+XI", "+IX", "+IZ")


@lru_cache(maxsize=16384)
def _conjugation_flips(gate: CliffordGate) -> np.ndarray:
    """Sign-flip bit per local pattern idx = x_i + 2 z_i + 4 x_j + 8 z_j.

    Built by multiplying the images factor by factor; the image patterns
    themselves come from _gate_maps.
    """
    base = [PauliString.identity(2)] * 16
    exponent = [0] * 16
    for idx in range(1, 16):
        low = idx & -idx
        factor = gate.images[low.bit_length() - 1]
        prod, dk = phase_product(factor, base[idx ^ low])
        base[idx] = prod
        exponent[idx] = (exponent[idx ^ low] + dk) % 4
    flip = np.zeros(16, dtype=np.uint8)
    for idx in range(16):
        xi, zi, xj, zj = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1, (idx >> 3) & 1
        k = (exponent[idx] + (xi & zi) + (xj & zj)) % 4
        if k % 2:
            raise AssertionError("conjugated Pauli came out anti-Hermitian")
        flip[idx] = k >> 1
    return flip


@lru_cache(maxsize=1)
def _symplectic_images_table() -> np.ndarray:
    """(720, 4, 2) masks: for each class, (x_mask, z_mask) of each image.
    Read-only, since every caller gets this one array."""
    rows = np.array([_symplectic_rows(idx, 2) for idx in range(720)], dtype=np.uint8)
    x_mask = rows & 1 | (rows >> 1) & 2
    z_mask = (rows >> 1) & 1 | (rows >> 2) & 2
    table = np.stack([x_mask, z_mask], axis=-1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=20000)
def _gate_from_class(sym_index: int, sign_bits: int) -> CliffordGate:
    masks = _symplectic_images_table()[sym_index]
    images = tuple(
        PauliString(2, int(masks[row, 0]), int(masks[row, 1]), -1 if (sign_bits >> row) & 1 else 1)
        for row in range(4)
    )
    return CliffordGate(images)


def _gate_maps(masks: np.ndarray) -> np.ndarray:
    """(m, 4, 2) image masks (x_mask, z_mask) -> (m, 4, 4) uint64 GF(2) maps.

    Entry [g, a, b] is all ones when the image of local basis pattern 1 << a
    (x_i, z_i, x_j, z_j) has bit b, else zero. That image is images[a], and
    its pattern bits are (x & 1, z & 1, x >> 1, z >> 1).
    """
    x, z = masks[..., 0], masks[..., 1]
    bits = np.stack([x & 1, z & 1, x >> 1, z >> 1], axis=-1)
    return np.uint64(0) - bits.astype(np.uint64)


@lru_cache(maxsize=1)
def _class_tables() -> np.ndarray:
    """The sign-free gate maps of all 720 classes, shape (720, 4, 4).
    Read-only, since every caller gets this one array."""
    tables = _gate_maps(_symplectic_images_table())
    tables.setflags(write=False)
    return tables


def sample_two_qubit_clifford(rng: Rng) -> CliffordGate:
    """Uniform over the two-qubit Clifford group modulo global phase."""
    sym_index = int(rng.integers(720))
    sign_bits = int(rng.integers(16))
    return _gate_from_class(sym_index, sign_bits)


# -- channel applications ----------------------------------------------------


def _check_integers(**values) -> None:
    """Raise ValueError naming the first value that is not an int or numpy
    integer; a bool is none, though Python counts it as an int, nor is 2.0.
    The package's one integer check for input from outside the program."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_probability(**values) -> None:
    """Raise ValueError naming the first value that is not an int, float or
    numpy number in [0, 1]; a bool is none, though it compares as 0 or 1,
    and NaN lies in no interval. The package's one probability check."""
    for name, value in values.items():
        real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        if not real or not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def _check_site(state: StabilizerState, site: int):
    _check_integers(site=site)
    if not 0 <= site < state.num_qubits:
        raise ValueError(f"site {site} out of range for L={state.num_qubits}")


def apply_clifford(state: StabilizerState, gate: CliffordGate, i: int, j: int) -> StabilizerState:
    """Conjugate every generator by the gate acting on sites (i, j)."""
    _check_site(state, i)
    _check_site(state, j)
    if i == j:
        raise ValueError("gate sites must differ")
    out = state.copy()
    masks = np.array([[(g.x_mask, g.z_mask) for g in gate.images]], dtype=np.uint8)
    flips = _conjugation_flips(gate)[None, :] if out.signed else None
    _apply_tables_inplace(out, _gate_maps(masks), [i], [j], flips)
    return out


def _apply_tables_inplace(state, maps, cols_i, cols_j, flips=None):
    """Apply one gate per site pair (cols_i[m], cols_j[m]).

    maps are the (m, 4, 4) masks of _gate_maps. flips, the (m, 16) sign
    tables, are required for a signed state and ignored otherwise. The pairs
    must be disjoint, as in a brickwork layer.
    """
    L = state.num_qubits
    cols_i = np.asarray(cols_i, dtype=np.int64)
    cols_j = np.asarray(cols_j, dtype=np.int64)
    idx = np.stack([cols_i, cols_i + L, cols_j, cols_j + L])  # (4, m)
    old = state._cols[:, idx]  # (W, 4, m)
    if state._neg is not None:
        if flips is None:
            raise ValueError("a signed state needs the gates' sign tables")
        _fold_gate_signs(state, old, flips)
    new = np.bitwise_xor.reduce(old[:, :, None, :] & maps.transpose(1, 2, 0)[None], axis=1)
    state._cols[:, idx] = new


def _apply_layer(state, columns, gates, sites, rng: Optional[Rng] = None) -> int:
    """The one tableau update call: dephase each tableau column of columns
    (`_dephase_inplace`), apply gates, a ("gates", (cols, sym, signs))
    payload of circuit._layer_ops or None, on the pairs (cols, cols + 1),
    then measure Z on sites in order (`_measure_z_inplace` with no
    generator). Returns the number of random outcomes n; with a generator
    rng it draws their bits from it afterwards (`_draw_outcomes(rng, n)`).
    The state must be unsigned: the gates' sign bits are not applied and the
    outcome bits are dropped. The runner makes one call between two results
    it needs, and `entanglement._observables` one to trace sites out.

    A column, gate site, gate class or measured site that is out of range
    or not an integer raises ValueError before anything changes or is
    drawn, on either path.
    """
    tables = _class_tables()
    cols, sym = (gates[0], gates[1]) if gates is not None else ((), ())
    if rowkernel.LIB is not None and state._neg is None:
        return rowkernel.apply_layer(state, tables, columns, cols, sym, sites, rng)
    L = state.num_qubits
    if len(sym) != len(cols):
        raise ValueError("need one gate class per gate")
    checks = (("column", columns, 2 * L), ("gate_site", cols, L - 1),
              ("gate_class", sym, len(tables)), ("site", sites, L))
    for name, values, limit in checks:
        for v in values:
            _check_integers(**{name: v})
            if not 0 <= v < limit:
                raise ValueError("site, column or gate class out of range for the state")
    for column in columns:
        _dephase_inplace(state, column)
    if gates is not None:
        _apply_tables_inplace(state, tables[sym], cols, cols + 1)
    n = sum(_measure_z_inplace(state, site) for site in sites)
    if rng is not None:
        _draw_outcomes(rng, n)
    return n


def _draw_outcomes(rng: Rng, n: int) -> None:
    """Draw and drop n outcome bits with one rng.integers(2, size=n), which
    leaves the stream where n scalar rng.integers(2) calls do."""
    rng.integers(2, size=n)


def _fold_gate_signs(state, old: np.ndarray, flips: np.ndarray) -> None:
    """Flip each stabilizer sign by the parity of its gates' table flips."""
    rows = np.asarray(state._stabilizer_pairs(), dtype=np.int64)
    if rows.size == 0:
        return
    bits = (old[rows >> 6] >> (rows & 63).astype(np.uint64)[:, None, None]) & np.uint64(1)
    pattern = (bits * np.array([1, 2, 4, 8], dtype=np.uint64)[None, :, None]).sum(axis=1)
    gate = np.arange(flips.shape[0])[None, :]
    parity = flips[gate, pattern.astype(np.int64)].sum(axis=1) & 1
    state._neg[rows] ^= parity.astype(np.uint8)


def measure_pauli(
    state: StabilizerState, h: PauliString, rng: Rng
) -> Tuple[int, StabilizerState]:
    """Projective measurement of a Hermitian Pauli; returns (outcome, state).

    Cases: (a) +-h in the group -> deterministic outcome, state unchanged;
    (b) h anticommutes with some generator -> uniform outcome, row update;
    (c) h commutes but is outside the group -> uniform outcome, appended.
    Needs a signed state.
    """
    if h.num_qubits != state.num_qubits:
        raise ValueError("operator size does not match the state")
    if h.is_identity:
        raise ValueError("cannot measure the identity string")
    out = state.copy()
    outcome = _measure_inplace(out, h, rng)
    return outcome, out


def _uniform_outcome(rng: Rng) -> int:
    return 1 if int(rng.integers(2)) == 0 else -1


def _column_int(state: StabilizerState, column: int) -> int:
    return int.from_bytes(state._cols[:, column].tobytes(), "little")


def _measure_inplace(state: StabilizerState, h: PauliString, rng: Optional[Rng]) -> int:
    """Measure any Pauli h."""
    L = state.num_qubits
    row = h.x_mask | (h.z_mask << L)
    return _collapse(state, _anticommuting_rows(state._cols, row, L), row, h.sign, rng)


def _measure_z_inplace(state: StabilizerState, site: int, rng: Optional[Rng] = None) -> int:
    """Measure h = Z_site: the anticommuting rows are column X_site. The
    runner's measurements run in the row kernel's apply_layer when it is
    built (`_apply_layer`), so this is their numpy path."""
    _check_site(state, site)
    return _collapse(state, _column_int(state, site), 1 << (state.num_qubits + site), 1, rng)


def _collapse(state: StabilizerState, anti: int, h: int, h_sign: int, rng: Optional[Rng]) -> int:
    """The one measurement update: stabilizer._collapse_rows, then the outcome.

    With rng None the state must be unsigned: nothing is drawn, and the
    return value is whether the outcome was random (the caller draws its
    bit). With a generator the state must be signed, and the outcome is
    returned: cases (b) and (c) draw one rng.integers(2) and give the new
    stabilizer the outcome's sign; case (a) draws nothing and reads the
    outcome as the sign of h in the group.
    """
    if rng is None:
        if state._neg is not None:
            raise ValueError("a signed state's measurement needs rng to draw its outcome")
        return _collapse_rows(state, anti, h) >= 0
    state._require_signs("an outcome-returning measurement")
    p = _collapse_rows(state, anti, h)
    if p < 0:
        return _group_element_sign(state, (anti >> state.num_qubits) & state._stab, h) * h_sign
    outcome = _uniform_outcome(rng)
    state._neg[p] = (outcome < 0) ^ (h_sign < 0)
    return outcome


def _group_element_sign(state: StabilizerState, pairs: int, h: int) -> int:
    """Sign of the product of the stabilizers S_j for j set in `pairs`; the
    product's Pauli content must be h."""
    L = state.num_qubits
    rows = state._rows_int()
    acc, neg = 0, 0
    for j in _bit_indices(pairs):
        neg = _product_sign(L, acc, neg, rows[j], int(state._neg[j]))
        acc ^= rows[j]
    if acc != h:
        raise AssertionError("measured operator is not in the stabilizer group")
    return -1 if neg else 1


def dephase(state: StabilizerState, site: int) -> StabilizerState:
    """Computational-basis dephasing channel on one site.

    Row-reduces so at most one generator anticommutes with Z_site and turns
    its pair into a logical pair (purity halves); a state with no
    anticommuting generator is unaffected.
    """
    _check_site(state, site)
    out = state.copy()
    _dephase_inplace(out, site)
    return out


def _dephase_inplace(state: StabilizerState, site: int):
    """Dephase at tableau column `site`: a column c < L dephases Z_c (the
    channel above), the column L + c dephases X_c.

    Multiply the pivot S_p into the other stabilizers that anticommute with
    that Pauli, fold their destabilizers into D_p, then clear pair p's
    stabilizer bit.
    """
    if not 0 <= site < 2 * state.num_qubits:
        raise ValueError(f"column {site} out of range for L={state.num_qubits}")
    hit = _column_int(state, site) & state._stab
    if not hit:
        return
    L = state.num_qubits
    p = (hit & -hit).bit_length() - 1
    others = hit & ~(1 << p)
    if others:
        _multiply(state, p, others)
        _fold_rows(state._cols, others << L, L + p)
    state._stab &= ~(1 << p)
