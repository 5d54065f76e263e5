"""Gates, sampling uniformity, measurement cases, and dephasing."""

import numpy as np
import pytest

from negsim.channels import (
    CliffordGate,
    _apply_layer,
    _conjugation_flips,
    _dephase_inplace,
    _gate_from_class,
    _gate_maps,
    _measure_inplace,
    _measure_z_inplace,
    _symp_inner,
    _symplectic_images_table,
    apply_clifford,
    cnot_gate,
    dephase,
    hadamard_on_first,
    make_rng,
    measure_pauli,
    sample_two_qubit_clifford,
    swap_gate,
    symplectic_group_order,
    symplectic_matrix,
    trajectory_rng,
)
from negsim.oracle import DenseState, pauli_matrix
from negsim.pauli import PauliString
from negsim.stabilizer import StabilizerState, product_state, purity, validate


def bell_state():
    s = product_state(2)
    s = apply_clifford(s, hadamard_on_first(), 0, 1)
    return apply_clifford(s, cnot_gate(), 0, 1)


def random_mixed_state(L, seed, ops=40):
    rng = make_rng(seed)
    state = product_state(L)
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.6:
            i = int(rng.integers(L - 1))
            state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
        elif roll < 0.85:
            h = PauliString.from_ops(L, {int(rng.integers(L)): "Z"})
            _, state = measure_pauli(state, h, rng)
        else:
            state = dephase(state, int(rng.integers(L)))
    return state


# -- symplectic machinery -----------------------------------------------------


def test_group_orders():
    assert symplectic_group_order(1) == 6
    assert symplectic_group_order(2) == 720


def test_symplectic_matrices_preserve_form_and_are_distinct():
    for n in (1, 2):
        order = symplectic_group_order(n)
        seen = set()
        basis = np.eye(2 * n, dtype=np.uint8)
        for idx in range(order):
            m = symplectic_matrix(idx, n)
            seen.add(m.tobytes())
            for a in range(2 * n):
                for b in range(a + 1, 2 * n):
                    want = _symp_inner(basis[a], basis[b])
                    assert _symp_inner(m[a], m[b]) == want
        assert len(seen) == order


def test_every_class_yields_a_valid_gate():
    # CliffordGate.__post_init__ enforces the commutation pattern
    table = _symplectic_images_table()
    assert table.shape == (720, 4, 2)
    for idx in range(720):
        _gate_from_class(idx, 0)
    assert len({table[idx].tobytes() for idx in range(720)}) == 720


def test_sampling_is_uniform_over_classes_and_signs():
    table = _symplectic_images_table()
    index_of = {table[idx].tobytes(): idx for idx in range(720)}
    rng = make_rng(20240817)
    n = 144_000
    class_counts = np.zeros(720, dtype=np.int64)
    sign_counts = np.zeros(16, dtype=np.int64)
    for _ in range(n):
        gate = sample_two_qubit_clifford(rng)
        key = np.array(
            [[g.x_mask, g.z_mask] for g in gate.images], dtype=np.uint8
        ).tobytes()
        class_counts[index_of[key]] += 1
        bits = sum((g.sign < 0) << row for row, g in enumerate(gate.images))
        sign_counts[bits] += 1
    for counts, cells in ((class_counts, 720), (sign_counts, 16)):
        mean = n / cells
        bound = 5.0 * np.sqrt(mean * (1.0 - 1.0 / cells))
        assert counts.min() > mean - bound
        assert counts.max() < mean + bound


# -- gate application ---------------------------------------------------------


def test_named_gate_images():
    assert [str(g) for g in cnot_gate().images] == ["+XX", "+ZI", "+IX", "+ZZ"]
    assert [str(g) for g in swap_gate().images] == ["+IX", "+IZ", "+XI", "+ZI"]


def test_gate_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        CliffordGate.from_labels("+XI", "+XI", "+IX", "+IZ")  # X1 commutes with itself
    with pytest.raises(ValueError):
        CliffordGate.from_labels("+XI", "+ZI", "+IX", "+XI")  # images collide
    with pytest.raises(ValueError):
        CliffordGate.from_labels("+II", "+ZI", "+IX", "+IZ")


def test_identity_gate_table_is_trivial():
    ident = CliffordGate.from_labels("+XI", "+ZI", "+IX", "+IZ")
    assert not _conjugation_flips(ident).any()
    masks = np.array([[(g.x_mask, g.z_mask) for g in ident.images]], dtype=np.uint8)
    assert np.array_equal(_gate_maps(masks)[0], np.uint64(0) - np.eye(4, dtype=np.uint64))


def test_bell_circuit_stabilizers():
    bell = bell_state()
    got = {str(g) for g in bell.generators}
    assert got == {"+XX", "+ZZ"}


def test_apply_clifford_site_checks():
    s = product_state(3)
    gate = cnot_gate()
    with pytest.raises(ValueError):
        apply_clifford(s, gate, 0, 3)
    with pytest.raises(ValueError):
        apply_clifford(s, gate, 1, 1)


def test_apply_clifford_matches_dense_conjugation():
    # push a random mixed state through random gates and compare densities
    rng = make_rng(5)
    state = random_mixed_state(4, seed=77)
    dense = DenseState.from_stabilizer(state)
    for _ in range(25):
        i = int(rng.integers(3))
        gate = sample_two_qubit_clifford(rng)
        state = apply_clifford(state, gate, i, i + 1)
        dense = dense.apply_gate(gate, i, i + 1)
        assert validate(state) is None
        diff = np.abs(DenseState.from_stabilizer(state).rho - dense.rho).max()
        assert diff < 1e-12


# -- measurement --------------------------------------------------------------


def test_measure_deterministic_cases():
    bell = bell_state()
    for label, want in (("+XX", 1), ("+ZZ", 1), ("-ZZ", -1), ("+YY", -1)):
        outcome, post = measure_pauli(bell, PauliString.from_label(label), make_rng(0))
        assert outcome == want
        assert post == bell  # case (a) leaves the state untouched


def test_measure_anticommuting_case():
    counts = {1: 0, -1: 0}
    for seed in range(400):
        bell = bell_state()
        outcome, post = measure_pauli(bell, PauliString.from_label("+ZI"), make_rng(seed))
        counts[outcome] += 1
        assert purity(post) == 1.0
        # the record is consistent: repeating the measurement is deterministic
        again, _ = measure_pauli(post, PauliString.from_label("+ZI"), make_rng(0))
        assert again == outcome
        corr, _ = measure_pauli(post, PauliString.from_label("+ZZ"), make_rng(0))
        assert corr == 1  # ZZ survives the collapse
    assert min(counts.values()) > 140  # ~5 sigma around 200


def test_measure_commuting_outside_group_case():
    base = StabilizerState(2, [PauliString.from_label("+ZZ")])
    assert purity(base) == 0.5
    outcome, post = measure_pauli(base, PauliString.from_label("+ZI"), make_rng(3))
    assert purity(post) == 1.0  # appended row doubles the purity
    assert validate(post) is None
    other, _ = measure_pauli(post, PauliString.from_label("+IZ"), make_rng(0))
    assert other == outcome  # IZ = (ZI)(ZZ) inside the collapsed group


def test_measure_rejects_bad_operators():
    s = product_state(2)
    with pytest.raises(ValueError):
        measure_pauli(s, PauliString.identity(2), make_rng(0))
    with pytest.raises(ValueError):
        measure_pauli(s, PauliString.from_label("+ZZZ"), make_rng(0))


def test_measurement_born_statistics():
    # |+> on the measured site: exact half/half statistics
    plus = apply_clifford(product_state(2), hadamard_on_first(), 0, 1)
    hits = 0
    trials = 10_000
    rng = make_rng(11)
    for _ in range(trials):
        outcome, _ = measure_pauli(plus, PauliString.from_label("+ZI"), rng)
        hits += outcome == 1
    assert abs(hits / trials - 0.5) < 5.0 * np.sqrt(0.25 / trials)


def test_measurement_consistent_with_dense_probabilities():
    for seed in range(8):
        state = random_mixed_state(3, seed=seed + 50)
        dense = DenseState.from_stabilizer(state)
        for site in range(3):
            proj = dense.z_projector(site, 1)
            prob_up = float(np.trace(proj @ dense.rho).real)
            h = PauliString.from_ops(3, {site: "Z"})
            if abs(prob_up - 0.5) < 1e-9:
                seen = {measure_pauli(state, h, make_rng(t))[0] for t in range(40)}
                assert seen == {1, -1}
            else:
                assert abs(prob_up - round(prob_up)) < 1e-9
                want = 1 if prob_up > 0.5 else -1
                outcome, post = measure_pauli(state, h, make_rng(0))
                assert outcome == want
                assert post == state


def test_fast_z_path_matches_general_measurement():
    for seed in range(30):
        state = random_mixed_state(5, seed=seed + 200)
        site = seed % 5
        h = PauliString.from_ops(5, {site: "Z"})

        s_general = state.copy()
        out_general = _measure_inplace(s_general, h, make_rng(seed), need_outcome=True)
        s_fast = state.copy()
        out_fast = _measure_z_inplace(s_fast, site, make_rng(seed), need_outcome=True)
        assert out_general == out_fast
        assert s_general == s_fast

        s_blind = state.copy()
        _measure_z_inplace(s_blind, site, make_rng(seed), need_outcome=False)
        assert s_blind == s_fast  # same collapse, same rng stream


@pytest.mark.parametrize(
    "update",
    [
        lambda s: _measure_z_inplace(s, -1, None, need_outcome=False),
        lambda s: _measure_z_inplace(s, 4, None, need_outcome=False),
        lambda s: _dephase_inplace(s, -1),
        lambda s: _dephase_inplace(s, 8),
        lambda s: _apply_layer(s, [-1], None, []),
        lambda s: _apply_layer(s, [], None, [4]),
    ],
)
def test_runner_updates_reject_sites_out_of_range(both_paths, update):
    # a negative index or one past L would otherwise pick another column
    state = product_state(4, signed=False)
    with pytest.raises(ValueError, match="out of range"):
        update(state)
    assert state == product_state(4, signed=False)


@pytest.mark.parametrize("site", range(5))
def test_z_measurement_without_rng_reports_a_random_outcome(both_paths, site):
    # the runner measures a layer with rng None and draws the random outcomes' bits after it
    for seed in range(12):
        signed = random_mixed_state(5, seed=seed + 300)
        unsigned = signed.copy()
        unsigned._neg = None
        drawn, stream = unsigned.copy(), make_rng(seed)
        random = _measure_z_inplace(unsigned, site, None, need_outcome=False)
        outcome = _measure_z_inplace(drawn, site, stream, need_outcome=False)
        assert random is (outcome is not None)
        assert unsigned._stab == drawn._stab and np.array_equal(unsigned._cols, drawn._cols)
        before = signed.copy()
        with pytest.raises(ValueError, match="needs rng"):
            _measure_z_inplace(signed, site, None, need_outcome=False)
        assert signed == before and np.array_equal(signed._cols, before._cols)


# -- dephasing ----------------------------------------------------------------


def test_dephase_bell_matches_kraus():
    bell = bell_state()
    post = dephase(bell, 0)
    assert [str(g) for g in post.generators] == ["+ZZ"]
    assert purity(post) == 0.5

    rho = DenseState.from_stabilizer(bell).rho
    z0 = pauli_matrix(PauliString.from_ops(2, {0: "Z"}))
    kraus = 0.5 * (rho + z0 @ rho @ z0)
    assert np.abs(DenseState.from_stabilizer(post).rho - kraus).max() < 1e-12


def test_dephase_is_idempotent_and_checks_sites():
    state = random_mixed_state(4, seed=9)
    once = dephase(state, 2)
    assert dephase(once, 2) == once
    diagonal = product_state(3)
    assert dephase(diagonal, 1) == diagonal  # already diagonal on that site
    with pytest.raises(ValueError):
        dephase(state, 4)


def test_dephase_matches_dense_kraus_on_random_states():
    for seed in range(6):
        state = random_mixed_state(3, seed=seed + 400)
        site = seed % 3
        post = dephase(state, site)
        rho = DenseState.from_stabilizer(state).rho
        z = pauli_matrix(PauliString.from_ops(3, {site: "Z"}))
        kraus = 0.5 * (rho + z @ rho @ z)
        assert np.abs(DenseState.from_stabilizer(post).rho - kraus).max() < 1e-12


# -- bookkeeping under long random sequences ----------------------------------


def test_operation_fuzz_keeps_states_valid():
    rng = make_rng(31337)
    for L in (2, 5, 16):
        state = product_state(L)
        for _ in range(600):
            k_before = state.num_generators
            roll = rng.random()
            if roll < 0.55:
                i = int(rng.integers(L - 1))
                state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
                assert state.num_generators == k_before
            elif roll < 0.8:
                site = int(rng.integers(L))
                _, state = measure_pauli(
                    state, PauliString.from_ops(L, {site: "Z"}), rng
                )
                assert k_before <= state.num_generators <= k_before + 1
            else:
                state = dephase(state, int(rng.integers(L)))
                assert k_before - 1 <= state.num_generators <= k_before
            msg = validate(state)
            assert msg is None, msg
            assert purity(state) == 2.0 ** (state.num_generators - L)


def test_trajectory_rng_streams():
    a0 = trajectory_rng(42, 0).integers(1 << 30, size=4)
    a1 = trajectory_rng(42, 1).integers(1 << 30, size=4)
    b0 = trajectory_rng(42, 0).integers(1 << 30, size=4)
    assert np.array_equal(a0, b0)
    assert not np.array_equal(a0, a1)
