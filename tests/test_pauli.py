"""Pauli algebra validated against explicit matrix arithmetic.

The dense reference here is built inline from the canonical per-site form
sign * prod_i i^{x_i z_i} X^{x_i} Z^{z_i}, independent of the package's own
dense oracle module.
"""

import numpy as np
import pytest

from negsim.pauli import (
    PauliString,
    commutes,
    multiply,
    phase_product,
    restrict,
    support_interval,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliString) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for site in range(p.num_qubits):
        x = (p.x_mask >> site) & 1
        z = (p.z_mask >> site) & 1
        local = np.eye(2, dtype=complex)
        if x:
            local = local @ X
        if z:
            local = local @ Z
        if x and z:
            local = 1j * local
        m = np.kron(local, m)
    return p.sign * m


def all_strings(num_qubits):
    for x in range(1 << num_qubits):
        for z in range(1 << num_qubits):
            for sign in (1, -1):
                yield PauliString(num_qubits, x, z, sign)


def test_single_site_matrices_are_standard():
    Y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(dense(PauliString.from_label("+X")), X)
    assert np.allclose(dense(PauliString.from_label("+Z")), Z)
    assert np.allclose(dense(PauliString.from_label("+Y")), Y)
    assert np.allclose(dense(PauliString.from_label("-Y")), -Y)


def test_canonical_form_is_hermitian():
    for p in all_strings(2):
        m = dense(p)
        assert np.allclose(m, m.conj().T)


def test_phase_product_exhaustive_two_sites():
    strings = list(all_strings(2))
    for a in strings:
        for b in strings:
            base, k = phase_product(a, b)
            assert base.sign == 1
            got = (1j**k) * dense(base)
            assert np.allclose(dense(a) @ dense(b), got), (a, b, k)


def test_multiply_matches_dense_and_rejects_anticommuting():
    for a in all_strings(2):
        for b in all_strings(2):
            if commutes(a, b):
                prod = multiply(a, b)
                assert np.allclose(dense(a) @ dense(b), dense(prod))
            else:
                with pytest.raises(ValueError):
                    multiply(a, b)


def test_phase_product_random_three_sites():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = PauliString(
            3, int(rng.integers(8)), int(rng.integers(8)), int(rng.choice([1, -1]))
        )
        b = PauliString(
            3, int(rng.integers(8)), int(rng.integers(8)), int(rng.choice([1, -1]))
        )
        base, k = phase_product(a, b)
        assert np.allclose(dense(a) @ dense(b), (1j**k) * dense(base))


def test_commutes_matches_dense_commutator():
    for a in all_strings(2):
        for b in all_strings(2):
            da, db = dense(a), dense(b)
            assert commutes(a, b) == np.allclose(da @ db, db @ da)


def test_label_round_trip_and_parsing():
    for label in ("+XIZY", "-IIII", "+ZZXX", "-YXZI"):
        p = PauliString.from_label(label)
        assert p.to_label() == label
    assert PauliString.from_label("XZ") == PauliString.from_label("+XZ")
    with pytest.raises(ValueError):
        PauliString.from_label("+XQ")
    with pytest.raises(ValueError):
        PauliString.from_label("")


def test_from_ops_weight_identity():
    p = PauliString.from_ops(4, {0: "X", 2: "Y", 3: "Z"})
    assert p.weight() == 3
    assert not p.is_identity
    assert PauliString.identity(4).is_identity
    with pytest.raises(ValueError):
        PauliString.from_ops(2, {5: "X"})


def test_restrict_clears_outside_and_resets_sign():
    p = PauliString.from_label("-XYZX")
    r = restrict(p, [1, 2])
    assert r.to_label() == "+IYZI"
    assert restrict(p, []).is_identity


def test_support_interval():
    assert support_interval(PauliString.from_label("+IIII")) is None
    assert support_interval(PauliString.from_label("+IXZI")) == (1, 2)
    assert support_interval(PauliString.from_label("+XIIY")) == (0, 3)
    assert support_interval(PauliString.from_label("-ZIII")) == (0, 0)


def test_validation_rejects_bad_masks():
    with pytest.raises(ValueError):
        PauliString(2, 1 << 2, 0, 1)  # bit beyond L
    with pytest.raises(ValueError):
        PauliString(2, 0, 0, 2)  # sign not +-1
    with pytest.raises(ValueError):
        PauliString(0, 0, 0, 1)
