"""Gates, sampling uniformity, measurement cases, and dephasing."""

import hashlib
import sys

import numpy as np
import pytest

from negsim.channels import (
    CliffordGate,
    _apply_layer,
    _apply_tables_inplace,
    _class_tables,
    _conjugation_flips,
    _dephase_inplace,
    _gate_from_class,
    _gate_maps,
    _measure_inplace,
    _measure_z_inplace,
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
from negsim.analysis import SweepSpec
from negsim.circuit import CircuitConfig
from negsim.entanglement import Bipartition, entropy
from negsim.oracle import DenseState, pauli_matrix
from negsim.pauli import PauliString
from negsim.polymer import PathQuery, PolymerLattice, kpz_scan
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
    assert symplectic_group_order(3) == 1451520


def symplectic_form(v, w):
    """Form on uint8 rows in column order (x1,z1,x2,z2,...)."""
    return int(np.sum(v[0::2] & w[1::2]) + np.sum(v[1::2] & w[0::2])) & 1


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
                    want = symplectic_form(basis[a], basis[b])
                    assert symplectic_form(m[a], m[b]) == want
        assert len(seen) == order


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_class_tables_bytes_are_pinned():
    # The tables fix every gate a seeded run draws, so the goldens hang on
    # these bytes.
    assert sha256(_class_tables().tobytes()) == (
        "0f330bb238a664d252eb1a0dc05924f59f507c3548fa67f6f4af98976bb8a889"
    )
    assert sha256(_symplectic_images_table().tobytes()) == (
        "fcec2e608d40be2691b3385c97c441c839f79ab524d6375cda2777d5c3d136d7"
    )


def test_class_tables_are_read_only(both_paths):
    # every caller gets the one cached array, so a stray write would change
    # every gate that a later seeded run draws
    for table in (_class_tables(), _symplectic_images_table()):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] ^= 1
    # the layer update still takes them, on either path
    cols, sym = np.array([0, 2]), np.array([5, 611])
    state = product_state(4, signed=False)
    twin = state.copy()
    _apply_layer(state, [], (cols, sym, None), [])
    _apply_tables_inplace(twin, _class_tables()[sym], cols, cols + 1)
    assert np.array_equal(state._cols, twin._cols)
    assert state != product_state(4, signed=False)


def test_symplectic_matrix_bytes_are_pinned():
    one = b"".join(symplectic_matrix(i, 1).tobytes() for i in range(6))
    assert sha256(one) == "22c92de046d7328dca127db9fc8909fc74f0abdf925109eeefc6f7941b5798bc"
    three = b"".join(symplectic_matrix(i, 3).tobytes() for i in range(0, 1451520, 97))
    assert sha256(three) == "2978e09b88ad656695702f150b32533d9d4a7918cdd100173b6025bbb5ba9674"


@pytest.mark.parametrize("n", [0, -1])
def test_symplectic_functions_reject_bad_qubit_counts(n):
    with pytest.raises(ValueError, match="n >= 1"):
        symplectic_group_order(n)
    with pytest.raises(ValueError, match="n >= 1"):
        symplectic_matrix(0, n)


@pytest.mark.parametrize("index, n", [(6, 1), (-1, 2), (720, 2), (-1, 1), (1451520, 3)])
def test_symplectic_matrix_rejects_index_outside_group(index, n):
    with pytest.raises(ValueError, match="outside"):
        symplectic_matrix(index, n)


def test_symplectic_matrix_accepts_both_ends_of_range_and_numpy_ints():
    for n in (1, 2, 3):
        last = symplectic_group_order(n) - 1
        for idx in (0, last):
            m = symplectic_matrix(idx, n)
            assert m.shape == (2 * n, 2 * n) and m.dtype == np.uint8
            assert np.array_equal(symplectic_matrix(np.int64(idx), np.int64(n)), m)
    assert symplectic_group_order(np.int64(8)) == symplectic_group_order(8)
    with pytest.raises(TypeError):
        symplectic_matrix(1.0, 1)
    # operator.index takes True as 1: the order of Sp(2, 2) and index 1's matrix
    for flag in (True, np.bool_(True)):
        with pytest.raises(TypeError):
            symplectic_group_order(flag)
        with pytest.raises(TypeError):
            symplectic_matrix(flag, 1)
        with pytest.raises(TypeError):
            symplectic_matrix(0, flag)


def test_symplectic_matrix_takes_no_stack_frame_per_qubit():
    # a frame per qubit overflows the stack near n = 1000; a tight limit shows it at n = 60
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        m = symplectic_matrix(0, 60).astype(np.int64)
    finally:
        sys.setrecursionlimit(limit)
    form = np.kron(np.eye(60, dtype=np.int64), [[0, 1], [1, 0]])
    assert np.array_equal(m @ form @ m.T % 2, form)


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
    # (0.5, 1) acted on sites (0, 1) and (True, 2) on (1, 2)
    for i, j in [(0.5, 1), (True, 2), (0, 1.0), (2, np.bool_(True))]:
        with pytest.raises(ValueError, match="must be an integer"):
            apply_clifford(s, gate, i, j)
    s = apply_clifford(s, hadamard_on_first(), 0, 1)
    assert apply_clifford(s, gate, np.int64(0), np.int32(1)) == apply_clifford(s, gate, 0, 1)


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
        out_general = _measure_inplace(s_general, h, make_rng(seed))
        s_fast = state.copy()
        out_fast = _measure_z_inplace(s_fast, site, make_rng(seed))
        assert out_general == out_fast
        assert s_general == s_fast


@pytest.mark.parametrize(
    "update",
    [
        lambda s: _measure_z_inplace(s, -1),
        lambda s: _measure_z_inplace(s, 4),
        lambda s: _dephase_inplace(s, -1),
        lambda s: _dephase_inplace(s, 8),
        lambda s: _apply_layer(s, [-1], None, []),
        lambda s: _apply_layer(s, [], None, [4]),
        lambda s: _apply_layer(s, [], (np.array([-1]), np.array([7]), None), []),
        lambda s: _apply_layer(s, [], (np.array([3]), np.array([7]), None), []),
        lambda s: _apply_layer(s, [], (np.array([0]), np.array([-1]), None), []),
        lambda s: _apply_layer(s, [], (np.array([0]), np.array([720]), None), []),
        lambda s: _apply_layer(s, [5, 8], None, []),
        lambda s: _apply_layer(s, [5], (np.array([0, 2]), np.array([7, 9]), None), [0, 4]),
    ],
)
def test_runner_updates_reject_sites_out_of_range(both_paths, update):
    # a negative index or one past L would otherwise pick another column,
    # gate pair or gate class; the valid ops before a bad one must not run
    # (dephasing column 5, X_1, changes both states)
    mixed = product_state(4, signed=False)
    _dephase_inplace(mixed, 4)  # dephase X_0: k = 3
    for state in (product_state(4, signed=False), mixed):
        before = state.copy()
        with pytest.raises(ValueError, match="out of range"):
            update(state)
        assert state._stab == before._stab and np.array_equal(state._cols, before._cols)


def test_layer_call_needs_one_class_per_gate(both_paths):
    state = product_state(4, signed=False)
    with pytest.raises(ValueError, match="one gate class per gate"):
        _apply_layer(state, [], (np.array([0, 2]), np.array([7]), None), [])
    assert state == product_state(4, signed=False)


def test_layer_call_rejects_non_integer_sites_and_columns(both_paths):
    # the kernel path's int64 cast read sites [0.5, 1.0] as [0, 1], a float
    # in a column list raised struct.error, and the numpy path's range check
    # let column 0.5 through to an IndexError; struct packed a bool in a
    # list as column or site 1
    state = product_state(4, signed=False)
    _apply_layer(state, [4], (np.array([0, 2]), np.array([7, 500]), None), [1])
    rng = make_rng(5)
    before, stream = state.copy(), rng.bit_generator.state
    for columns, sites in [((), np.array([0.5, 1.0])), (np.array([0.5]), ()),
                           (np.array([True]), ()), ([0.5], ()), ([True], ()), ((), [1, True])]:
        with pytest.raises(ValueError, match="integer"):
            _apply_layer(state, columns, None, sites, rng)
        assert state._stab == before._stab and np.array_equal(state._cols, before._cols)
        assert rng.bit_generator.state == stream


@pytest.mark.parametrize("site", range(5))
def test_z_measurement_without_rng_reports_a_random_outcome(both_paths, site):
    # the runner measures a layer with rng None and draws the random outcomes' bits after it;
    # an unsigned measurement reports a random outcome exactly when a signed one draws,
    # and its layer call (the row kernel's measure when built) must count and collapse alike
    for seed in range(12):
        signed = random_mixed_state(5, seed=seed + 300)
        unsigned = signed.copy()
        unsigned._neg = None
        drawn, stream, layer = signed.copy(), make_rng(seed), unsigned.copy()
        random = _measure_z_inplace(unsigned, site)
        _measure_z_inplace(drawn, site, stream)
        assert random is (stream.bit_generator.state != make_rng(seed).bit_generator.state)
        assert unsigned._stab == drawn._stab and np.array_equal(unsigned._cols, drawn._cols)
        assert _apply_layer(layer, (), None, [site]) == random
        assert layer._stab == unsigned._stab and np.array_equal(layer._cols, unsigned._cols)
        for state, rng, match in ((signed, None, "needs rng"), (unsigned, stream, "signed")):
            before = state.copy()
            with pytest.raises(ValueError, match=match):
                _measure_z_inplace(state, site, rng)
            assert state._stab == before._stab and np.array_equal(state._cols, before._cols)


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
    # True read every column and dephased site 0's generator; 0.0 raised
    # IndexError
    for site in (True, np.bool_(False), 0.0, 1.5):
        with pytest.raises(ValueError, match="must be an integer"):
            dephase(state, site)
    assert dephase(state, np.int64(1)) == dephase(state, 1)


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


# -- the shared input checks ---------------------------------------------------

# (entry point, whether None is its default); each takes the value under test
INTEGER_ENTRY_POINTS = {
    "entropy region": (lambda v: entropy(product_state(4), [1, v]), False),
    "Bipartition": (lambda v: Bipartition([v], [3]), False),
    "apply_clifford": (lambda v: apply_clifford(product_state(4), cnot_gate(), v, 3), False),
    "dephase": (lambda v: dephase(product_state(4), v), False),
    "PathQuery": (lambda v: PathQuery(v, 5), False),
    "PolymerLattice.sample width": (lambda v: PolymerLattice.sample(v, 0.5, 0), False),
    "PolymerLattice.sample height": (lambda v: PolymerLattice.sample(8, 0.5, 0, height=v), True),
    "kpz_scan widths": (lambda v: kpz_scan([v, 16, 32], 0.3, 2, 2), False),
    "kpz_scan samples": (lambda v: kpz_scan([2, 16, 32], 0.3, v, 2), False),
    "CircuitConfig.L": (lambda v: CircuitConfig(L=v, p=0.1), False),
    "CircuitConfig.T": (lambda v: CircuitConfig(L=4, p=0.1, T=v), True),
    "CircuitConfig.seed": (lambda v: CircuitConfig(L=4, p=0.1, seed=v), False),
    "CircuitConfig.samples": (lambda v: CircuitConfig(L=4, p=0.1, samples=v), False),
    "CircuitConfig.observables_every": (
        lambda v: CircuitConfig(L=4, p=0.1, observables_every=v), False),
    "SweepSpec.seed": (lambda v: SweepSpec([4], [0.1], seed=v, samples=1, T=2), False),
    "SweepSpec.L_values": (lambda v: SweepSpec([v], [0.1], samples=1, T=2), False),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_every_entry_point_takes_integers_by_one_policy(entry):
    # entropy took 2.0 as site 2 while dephase rejected it; 2 is valid everywhere
    call, none_is_default = INTEGER_ENTRY_POINTS[entry]
    for value in (0.5, 2.0, True, np.bool_(True), "1") + (() if none_is_default else (None,)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)
    for value in (np.int32(2), np.int64(2)):
        call(value)


PROBABILITY_ENTRY_POINTS = {
    "PolymerLattice": lambda p: PolymerLattice(2, 0, np.zeros((2, 1, 2), dtype=bool), p),
    "PolymerLattice.sample": lambda p: PolymerLattice.sample(8, p, 0),
    "CircuitConfig.p": lambda p: CircuitConfig(L=4, p=p),
    "SweepSpec.p_values": lambda p: SweepSpec([4], [0.1, p], samples=1, T=2),
}


@pytest.mark.parametrize("entry", sorted(PROBABILITY_ENTRY_POINTS))
def test_every_entry_point_takes_probabilities_by_one_policy(entry):
    # "0.5" raised TypeError from a comparison in the polymer check, and
    # SweepSpec's :.9g format of it "Unknown format code 'g'"
    call = PROBABILITY_ENTRY_POINTS[entry]
    for p in ("0.5", None, True, np.bool_(False), -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="must be a number in \\[0, 1\\]"):
            call(p)
    for p in (0, 1, 0.25, np.float32(0.5), np.int64(1)):
        call(p)
