"""State-update primitives: random two-qubit Cliffords, Pauli measurement,
and the single-site dephasing channel.

Clifford sampling follows the transvection construction for uniform Sp(2n,2)
elements (index -> matrix bijection), so uniformity over the 11,520 two-qubit
Cliffords mod phase reduces to a uniform index in [0, 720) plus four uniform
sign bits. Conjugation acts on the column-packed tableau as a 4x4 GF(2) map
per gate on the four columns (x_i, z_i, x_j, z_j), vectorized over a whole
brickwork layer; signed states also fold in the sign flips of the gate's
16-entry conjugation table.

Measurement and dephasing read the rows that anticommute with Z_site from
one tableau column, so each is a few masked XORs and no linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

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


def symplectic_group_order(n: int) -> int:
    order = 1 << (n * n)
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
    return order


def _int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def _symp_inner(v: np.ndarray, w: np.ndarray) -> int:
    # pairing on adjacent columns (x1,z1),(x2,z2),...
    return int(np.sum(v[0::2] & w[1::2]) + np.sum(v[1::2] & w[0::2])) & 1


def _transvection(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    if _symp_inner(k, v):
        return (v + k) % 2
    return v.copy()


def _find_transvection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two vectors h0, h1 with T_h0 T_h1 x = y (either may be zero)."""
    out = np.zeros((2, len(x)), dtype=np.uint8)
    if np.array_equal(x, y):
        return out
    if _symp_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    n = len(x) // 2
    z = np.zeros(len(x), dtype=np.uint8)
    for i in range(n):  # pair where both have content
        a, b = 2 * i, 2 * i + 1
        if (x[a] or x[b]) and (y[a] or y[b]):
            z[a] = (x[a] + y[a]) % 2
            z[b] = (x[b] + y[b]) % 2
            if z[a] == 0 and z[b] == 0:
                z[b] = 1
                if x[a] != x[b]:
                    z[a] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(n):  # pair where only x has content
        a, b = 2 * i, 2 * i + 1
        if (x[a] or x[b]) and not (y[a] or y[b]):
            if x[a] == x[b]:
                z[b] = 1
            else:
                z[b] = x[a]
                z[a] = x[b]
            break
    for i in range(n):  # pair where only y has content
        a, b = 2 * i, 2 * i + 1
        if (y[a] or y[b]) and not (x[a] or x[b]):
            if y[a] == y[b]:
                z[b] = 1
            else:
                z[b] = y[a]
                z[a] = y[b]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def symplectic_matrix(index: int, n: int) -> np.ndarray:
    """index -> element of Sp(2n,2); bijective for index in [0, group order).

    Row j is the image of basis vector j in column order (x1,z1,x2,z2,...).
    """
    nn = 2 * n
    s = (1 << nn) - 1
    f1 = _int_to_bits((index % s) + 1, nn)
    index //= s
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    t = _find_transvection(e1, f1)
    bits = _int_to_bits(index % (1 << (nn - 1)), nn - 1)
    index //= 1 << (nn - 1)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvection(t[1], eprime)
    h0 = _transvection(t[0], h0)
    if bits[0] == 1:
        f1 = f1 * 0  # the final T_f1 degenerates to the identity
    if n == 1:
        g = np.eye(2, dtype=np.uint8)
    else:
        g = np.zeros((nn, nn), dtype=np.uint8)
        g[0, 0] = g[1, 1] = 1
        g[2:, 2:] = symplectic_matrix(index, n - 1)
    for j in range(nn):
        row = _transvection(t[1], g[j])
        row = _transvection(t[0], row)
        row = _transvection(h0, row)
        row = _transvection(f1, row)
        g[j] = row
    return g


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
    """(720, 4, 2) masks: for each class, (x_mask, z_mask) of each image."""
    table = np.zeros((720, 4, 2), dtype=np.uint8)
    for idx in range(720):
        m = symplectic_matrix(idx, 2)
        for row in range(4):
            x_mask = m[row, 0] | (m[row, 2] << 1)
            z_mask = m[row, 1] | (m[row, 3] << 1)
            table[idx, row] = (x_mask, z_mask)
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
    """The sign-free gate maps of all 720 classes, shape (720, 4, 4)."""
    return _gate_maps(_symplectic_images_table())


def sample_two_qubit_clifford(rng: Rng) -> CliffordGate:
    """Uniform over the two-qubit Clifford group modulo global phase."""
    sym_index = int(rng.integers(720))
    sign_bits = int(rng.integers(16))
    return _gate_from_class(sym_index, sign_bits)


# -- channel applications ----------------------------------------------------


def _check_site(state: StabilizerState, site: int):
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
    if rowkernel.LIB is not None and state._neg is None:
        return rowkernel.apply_gates(state, maps, cols_i, cols_j)
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


def _apply_layer(state, columns, gates, sites) -> int:
    """The runner's one update call between two results it needs: dephase
    each tableau column of columns (`_dephase_inplace`), apply gates, a
    ("gates", (cols, sym, signs)) payload of circuit._layer_ops or None, on
    the pairs (cols, cols + 1), then measure Z on sites in order
    (`_measure_z_inplace` with no generator). Returns the number of random
    outcomes, whose bits the caller draws. The state must be unsigned: the
    gates' sign bits are not applied and no outcome is drawn.
    """
    tables = _class_tables()
    cols, sym = (gates[0], gates[1]) if gates is not None else ((), ())
    if rowkernel.LIB is not None and state._neg is None:
        return rowkernel.apply_layer(state, tables, columns, cols, sym, sites)
    for column in columns:
        _dephase_inplace(state, column)
    if gates is not None:
        _apply_tables_inplace(state, tables[sym], cols, cols + 1)
    return sum(bool(_measure_z_inplace(state, site, None, need_outcome=False)) for site in sites)


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
    outcome = _measure_inplace(out, h, rng, need_outcome=True)
    return outcome, out


def _uniform_outcome(rng: Rng) -> int:
    return 1 if int(rng.integers(2)) == 0 else -1


def _column_int(state: StabilizerState, column: int) -> int:
    return int.from_bytes(state._cols[:, column].tobytes(), "little")


def _measure_inplace(
    state: StabilizerState, h: PauliString, rng: Rng, need_outcome: bool
) -> Optional[int]:
    """Measure any Pauli h."""
    L = state.num_qubits
    row = h.x_mask | (h.z_mask << L)
    anti = _anticommuting_rows(state._cols, row, L)
    return _collapse(state, anti, row, h.sign, rng, need_outcome)


def _measure_z_inplace(
    state: StabilizerState, site: int, rng: Optional[Rng], need_outcome: bool
) -> Optional[int]:
    """Measure h = Z_site: the anticommuting rows are column X_site.

    With rng None (an unsigned state only) nothing is drawn: the return value
    says whether the outcome was random, and the caller draws its bit. The
    runner's measurements run in the row kernel's apply_layer when it is
    built (`_apply_layer`), so this is their numpy path.
    """
    _check_site(state, site)
    return _collapse(
        state, _column_int(state, site), 1 << (state.num_qubits + site), 1, rng, need_outcome
    )


def _collapse(
    state: StabilizerState,
    anti: int,
    h: int,
    h_sign: int,
    rng: Optional[Rng],
    need_outcome: bool,
) -> Optional[int]:
    """The one measurement update: stabilizer._collapse_rows, then the outcome.

    Cases (b) and (c) draw one rng.integers(2) and give the new stabilizer
    the outcome's sign; case (a) draws nothing and reads the outcome as the
    sign of h in the group. With rng None the state must be unsigned; then
    nothing is drawn and the return value is whether the outcome was random.
    """
    if need_outcome:
        state._require_signs("an outcome-returning measurement")
    if rng is None and state._neg is not None:
        raise ValueError("a signed state's measurement needs rng to draw its outcome")
    p = _collapse_rows(state, anti, h)
    if rng is None:
        return p >= 0
    if p >= 0:
        outcome = _uniform_outcome(rng)
        if state._neg is not None:
            state._neg[p] = (outcome < 0) ^ (h_sign < 0)
        return outcome
    if not need_outcome:  # case (a)
        return None
    return _group_element_sign(state, (anti >> state.num_qubits) & state._stab, h) * h_sign


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
    if rowkernel.LIB is not None and state._neg is None:
        return rowkernel.dephase(state, site)
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
