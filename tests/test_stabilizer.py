"""Stabilizer-state representation, validation, and the clipped gauge."""

import numpy as np
import pytest

from negsim.channels import apply_clifford, dephase, make_rng, sample_two_qubit_clifford
from negsim.pauli import PauliString, phase_product, support_interval
from negsim.stabilizer import (
    StabilizerState,
    canonicalize,
    clipped_endpoint_counts,
    product_state,
    purity,
    validate,
)


def signed_group(state: StabilizerState):
    """All 2^k signed elements as (x, z, sign) triples."""
    gens = state.generators
    L = state.num_qubits
    out = set()
    for combo in range(1 << len(gens)):
        acc = PauliString.identity(L)
        k_total = 0
        for i, g in enumerate(gens):
            if (combo >> i) & 1:
                acc, dk = phase_product(acc, g)
                k_total = (k_total + dk) % 4
        assert k_total % 2 == 0
        sign = 1 if k_total == 0 else -1
        out.add((acc.x_mask, acc.z_mask, sign))
    return out


def random_state(L, seed, depth=None, measure_rate=0.2, dephase_rate=0.3):
    """Random mixed stabilizer state via a short monitored circuit."""
    from negsim.channels import measure_pauli

    rng = make_rng(seed)
    state = product_state(L)
    for _ in range(depth or 3 * L):
        i = int(rng.integers(L - 1))
        state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
        if rng.random() < measure_rate:
            site = int(rng.integers(L))
            _, state = measure_pauli(state, PauliString.from_ops(L, {site: "Z"}), rng)
        if rng.random() < dephase_rate:
            state = dephase(state, int(rng.integers(L)))
    return state


def test_product_state_basics():
    s = product_state(3)
    assert [str(g) for g in s.generators] == ["+ZII", "+IZI", "+IIZ"]
    assert purity(s) == 1.0
    assert validate(s) is None


def test_constructor_round_trip():
    gens = [PauliString.from_label("+XX"), PauliString.from_label("-ZZ")]
    s = StabilizerState(2, gens)
    assert list(s.generators) == gens
    assert validate(s) is None
    with pytest.raises(ValueError):
        StabilizerState(2, [PauliString.from_label("+XXX")])
    with pytest.raises(ValueError):
        StabilizerState(0)


def test_validate_detects_violations():
    # A state holds a full symplectic basis, so the constructors refuse
    # generator lists that cannot be completed, with the message validate
    # gives for the same violation.
    with pytest.raises(ValueError, match="too many"):
        StabilizerState(2, [PauliString.from_label(s) for s in ("+ZI", "+IZ", "+II")])

    with pytest.raises(ValueError, match="non-commuting"):
        StabilizerState(2, [PauliString.from_label("+XI"), PauliString.from_label("+ZI")])

    with pytest.raises(ValueError, match="dependent"):
        StabilizerState(
            3,
            [
                PauliString.from_label("+XXI"),
                PauliString.from_label("+ZZI"),
                PauliString.from_label("-YYI"),  # XXI * ZZI
            ],
        )

    # Packed bits are 0 or 1 by construction; a sign entry can still be corrupted.
    bad_entries = product_state(2)
    bad_entries._neg[0] = 2
    assert "entries" in validate(bad_entries)

    # validate checks the whole basis of a state object: S_j pairs only with D_j.
    anti = product_state(2)
    anti._cols[0, 1] ^= np.uint64(1)  # S_0 = Z0 -> Z0 X1, which anticommutes with S_1 = Z1
    assert "non-commuting" in validate(anti)

    broken = product_state(2)
    broken._cols[0, 3] ^= np.uint64(1 << 2)  # D_0 = X0 -> X0 Z1, which anticommutes with D_1
    assert "basis rows" in validate(broken)

    too_many = product_state(2)
    too_many._stab |= 1 << 2
    assert "too many" in validate(too_many)


def test_purity_tracks_generator_count():
    s = product_state(4)
    assert purity(s) == 1.0
    s = dephase(apply_clifford(s, sample_two_qubit_clifford(make_rng(3)), 0, 1), 0)
    assert purity(s) == 2.0 ** (s.num_generators - 4)


def test_json_round_trip():
    for seed in range(5):
        s = random_state(6, seed)
        back = StabilizerState.from_json(s.to_json())
        assert back == s


def test_equality_and_copy_independence():
    s = random_state(5, 11, dephase_rate=0.0)  # stays full rank, k = 5
    assert s.num_generators == 5
    c = s.copy()
    assert c == s
    c._neg[0] ^= 1
    assert c != s


def test_canonicalize_preserves_signed_group():
    for seed in range(25):
        L = int(make_rng(seed).integers(2, 9))
        s = random_state(L, seed + 100)
        canon = canonicalize(s)
        assert validate(canon) is None
        assert canon.num_generators == s.num_generators
        assert signed_group(canon) == signed_group(s)


def test_canonicalize_is_idempotent():
    for seed in range(25):
        s = random_state(6, seed + 300)
        once = canonicalize(s)
        twice = canonicalize(once)
        assert once == twice


def test_clipped_endpoint_bounds():
    for seed in range(25):
        s = random_state(8, seed + 500)
        canon = canonicalize(s)
        left, right = clipped_endpoint_counts(canon)
        assert left.max(initial=0) <= 2
        assert right.max(initial=0) <= 2
        k_nonid = sum(1 for g in canon.generators if support_interval(g) is not None)
        assert left.sum() == k_nonid
        assert right.sum() == k_nonid


def test_clipped_gauge_pure_state_density():
    # for pure states every site hosts exactly two endpoints in total
    rng = make_rng(9)
    for seed in range(10):
        L = 8
        state = product_state(L)
        for _ in range(4 * L):
            i = int(rng.integers(L - 1))
            state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
        canon = canonicalize(state)
        left, right = clipped_endpoint_counts(canon)
        assert np.array_equal(left + right, np.full(L, 2))


def test_symplectic_int_rows_layout():
    s = StabilizerState(3, [PauliString.from_label("+XZY")])
    row = s.symplectic_int_rows()[0]
    x, z = row & 0b111, row >> 3
    assert x == 0b101 and z == 0b110


def test_unsigned_state_refuses_sign_queries():
    from negsim.channels import _measure_z_inplace, measure_pauli
    from negsim.entanglement import entropy, length_distribution

    signed = random_state(6, 21)
    state = product_state(6, signed=False)
    state._cols[:] = signed._cols
    state._stab = signed._stab
    with pytest.raises(ValueError, match="signed"):
        state.generators
    with pytest.raises(ValueError, match="signed"):
        state.to_json()
    with pytest.raises(ValueError, match="signed"):
        measure_pauli(state, PauliString.from_ops(6, {0: "Z"}), make_rng(0))
    with pytest.raises(ValueError, match="signed"):
        _measure_z_inplace(state.copy(), 0, make_rng(0), need_outcome=True)
    # everything that reads no sign works and agrees with the signed state
    assert validate(state) is None
    assert state != signed
    assert state.symplectic_int_rows() == signed.symplectic_int_rows()
    assert entropy(state, [0, 1, 2]) == entropy(signed, [0, 1, 2])
    assert canonicalize(state).symplectic_int_rows() == canonicalize(signed).symplectic_int_rows()
    assert length_distribution(state).tolist() == length_distribution(signed).tolist()
