"""Property tests: random operation sequences on the stabilizer engine, checked
against the dense oracle at L <= 5 after every operation.

Hypothesis draws the sequences (gates by class and sign bits, measurements
of arbitrary signed Pauli strings, dephasing) with a fixed derandomized seed
and no example database, so a run is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from negsim.channels import (
    _apply_tables_inplace,
    _class_tables,
    _dephase_inplace,
    _draw_outcomes,
    _gate_from_class,
    _measure_z_inplace,
    apply_clifford,
    dephase,
    make_rng,
    measure_pauli,
)
from negsim.entanglement import Bipartition, entropy, negativity
from negsim.oracle import DenseState, dense_split_negativity, log_negativity, pauli_matrix
from negsim.pauli import PauliString
from negsim.stabilizer import product_state, purity, validate

GATE = st.tuples(st.just("gate"), st.integers(0, 719), st.integers(0, 15), st.integers(0, 3))
MEASURE = st.tuples(
    st.just("measure"), st.integers(1, 4**5 - 1), st.sampled_from([1, -1]), st.integers(0, 2**31)
)
DEPHASE = st.tuples(st.just("dephase"), st.integers(0, 4))
OPS = st.lists(st.one_of(GATE, MEASURE, DEPHASE), min_size=1, max_size=14)
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def pauli_from_code(L, code, sign):
    """Base-4 digit per site: 0 I, 1 X, 2 Z, 3 Y; code 0 is mapped away from I."""
    code = code % (4**L - 1) + 1
    x = z = 0
    for site in range(L):
        digit = (code >> (2 * site)) & 3
        x |= (digit & 1) << site
        z |= (digit >> 1) << site
    return PauliString(L, x, z, sign)


def check_against_dense(state, dense, labels):
    L = state.num_qubits
    assert validate(state) is None
    assert abs(purity(state) - dense.purity()) < 1e-9
    a = [s for s in range(L) if labels[s] == 0]
    b = [s for s in range(L) if labels[s] == 1]
    for region in (a, b, a + b, list(range(L // 2)), list(range(L))):
        if region:
            assert abs(entropy(state, region) - dense.entropy(region)) < 1e-9
    halves = Bipartition.contiguous_halves(L) if L % 2 == 0 else Bipartition([0], range(1, L))
    assert abs(negativity(state, halves) - log_negativity(dense, halves.region_b)) < 1e-9
    if a and b:
        e_split = negativity(state, Bipartition(a, b))
        assert abs(e_split - dense_split_negativity(dense, a, b)) < 1e-9


@SETTINGS
@given(L=st.integers(2, 5), ops=OPS, labels=st.lists(st.integers(0, 2), min_size=5, max_size=5))
def test_operation_sequences_match_dense_oracle(L, ops, labels):
    state = product_state(L)
    dense = DenseState.product_state(L)
    eye = np.eye(1 << L)
    for op in ops:
        if op[0] == "gate":
            i = op[3] % (L - 1)
            gate = _gate_from_class(op[1], op[2])
            state = apply_clifford(state, gate, i, i + 1)
            dense = dense.apply_gate(gate, i, i + 1)
        elif op[0] == "measure":
            h = pauli_from_code(L, op[1], op[2])
            outcome, post = measure_pauli(state, h, make_rng(op[3]))
            projector = (eye + outcome * pauli_matrix(h)) / 2.0
            prob = float(np.real(np.trace(projector @ dense.rho)))
            if abs(prob - 1.0) < 1e-9:
                assert post == state  # deterministic outcome, nothing changes
            else:
                assert abs(prob - 0.5) < 1e-9, prob
            dense = DenseState(L, projector @ dense.rho @ projector / prob)
            state = post
        else:
            site = op[1] % L
            state = dephase(state, site)
            dense = dense.dephase_site(site)
        check_against_dense(state, dense, labels)
    assert np.abs(DenseState.from_stabilizer(state).rho - dense.rho).max() < 1e-9


@SETTINGS
@given(L=st.integers(2, 5), ops=OPS)
def test_unsigned_runner_path_tracks_signed_path(L, ops):
    # the runner's sign-free primitives move the same tableau bits as the
    # signed public functions, and draw the same random numbers
    signed = product_state(L)
    unsigned = product_state(L, signed=False)
    maps = _class_tables()
    for op in ops:
        if op[0] == "gate":
            i = op[3] % (L - 1)
            signed = apply_clifford(signed, _gate_from_class(op[1], op[2]), i, i + 1)
            _apply_tables_inplace(unsigned, maps[[op[1]]], [i], [i + 1])
        elif op[0] == "measure":
            site = op[1] % L
            rng_a, rng_b = make_rng(op[3]), make_rng(op[3])
            _, signed = measure_pauli(signed, PauliString.from_ops(L, {site: "Z"}), rng_a)
            _draw_outcomes(rng_b, int(_measure_z_inplace(unsigned, site)))
            assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
        else:
            site = op[1] % L
            signed = dephase(signed, site)
            _dephase_inplace(unsigned, site)
        assert validate(unsigned) is None
        assert unsigned._stab == signed._stab
        assert unsigned._rows_int() == signed._rows_int()


# Both tests again with the compiled row kernel off: the unsigned numpy path
# against the signed one and the dense oracle.


def test_operation_sequences_on_numpy_path(numpy_path):
    test_operation_sequences_match_dense_oracle()


def test_unsigned_runner_path_on_numpy_path(numpy_path):
    test_unsigned_runner_path_tracks_signed_path()
