"""Entropy, negativity, mutual information, and clipped-length statistics."""

import numpy as np
import pytest

from negsim.channels import (
    apply_clifford,
    cnot_gate,
    dephase,
    hadamard_on_first,
    make_rng,
    measure_pauli,
    sample_two_qubit_clifford,
)
from negsim.entanglement import (
    Bipartition,
    ObservableRecord,
    entropy,
    length_distribution,
    mutual_information,
    negativity,
    purity_log2,
    record_observables,
    window_mass,
)
from negsim.oracle import DenseState, log_negativity
from negsim.pauli import PauliString
from negsim.stabilizer import StabilizerState, product_state


def bell_state():
    s = apply_clifford(product_state(2), hadamard_on_first(), 0, 1)
    return apply_clifford(s, cnot_gate(), 0, 1)


def ghz_state(L):
    s = apply_clifford(product_state(L), hadamard_on_first(), 0, 1)
    for i in range(L - 1):
        s = apply_clifford(s, cnot_gate(), i, i + 1)
    return s


def random_monitored_state(L, seed, layers):
    rng = make_rng(seed)
    state = product_state(L)
    for t in range(layers):
        for i in range(t % 2, L - 1, 2):
            state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
        for site in range(L):
            if rng.random() < 0.15:
                _, state = measure_pauli(
                    state, PauliString.from_ops(L, {site: "Z"}), rng
                )
        if rng.random() < 0.4:
            state = dephase(state, int(rng.integers(L)))
    return state


def test_bipartition_normalization_and_validation():
    bp = Bipartition([3, 1], [0, 2])
    assert bp.region_a == (1, 3)
    assert bp.region_b == (0, 2)
    assert bp.joint() == (0, 1, 2, 3)
    halves = Bipartition.contiguous_halves(6)
    assert halves.region_a == (0, 1, 2)
    assert halves.region_b == (3, 4, 5)
    with pytest.raises(ValueError):
        Bipartition([], [1])
    with pytest.raises(ValueError):
        Bipartition([0, 1], [1, 2])


def test_bell_and_ghz_examples():
    bell = bell_state()
    bp = Bipartition([0], [1])
    assert entropy(bell, [0]) == 1
    assert entropy(bell, [0, 1]) == 0
    assert negativity(bell, bp) == 1.0
    assert mutual_information(bell, bp) == 2

    ghz = ghz_state(6)
    bp = Bipartition.contiguous_halves(6)
    assert entropy(ghz, [0, 1, 2]) == 1
    assert negativity(ghz, bp) == 1.0
    assert mutual_information(ghz, bp) == 2


def test_classically_correlated_state():
    # rho stabilized by {ZZ} alone: I = 2 bits of correlation but E = 0
    s = StabilizerState(2, [PauliString.from_label("+ZZ")])
    bp = Bipartition([0], [1])
    assert entropy(s, [0]) == 1
    assert entropy(s, [0, 1]) == 1
    assert negativity(s, bp) == 0.0
    assert mutual_information(s, bp) == 1
    assert purity_log2(s) == -1


def test_entropy_region_checks():
    s = product_state(3)
    with pytest.raises(ValueError):
        entropy(s, [3])
    with pytest.raises(ValueError):
        entropy(s, [-1])


def test_against_dense_oracle_on_monitored_circuits():
    for seed in range(12):
        L = 4
        state = random_monitored_state(L, seed=seed, layers=5)
        dense = DenseState.from_stabilizer(state)
        bp = Bipartition.contiguous_halves(L)
        assert abs(entropy(state, bp.region_a) - dense.entropy(bp.region_a)) < 1e-9
        assert abs(entropy(state, bp.region_b) - dense.entropy(bp.region_b)) < 1e-9
        assert abs(entropy(state, bp.joint()) - dense.entropy(bp.joint())) < 1e-9
        assert abs(negativity(state, bp) - log_negativity(dense, bp.region_b)) < 1e-9


def test_negativity_ghz_non_covering_split_is_zero():
    # tracing out site 2 of (+XXX, +ZZI, +IZZ) leaves a separable state; J must
    # come from rho_AB's generators (ZZI), not from every generator on A
    ghz = StabilizerState(3, [PauliString.from_label(s) for s in ("+XXX", "+ZZI", "+IZZ")])
    bp = Bipartition([0], [1])
    assert negativity(ghz, bp) == 0.0
    assert mutual_information(ghz, bp) == 1
    reduced = DenseState(2, DenseState.from_stabilizer(ghz).partial_trace([0, 1]))
    assert log_negativity(reduced, [1]) < 1e-12


def test_negativity_symmetric_under_region_swap():
    for seed in range(8):
        state = random_monitored_state(5, seed=seed + 40, layers=4)
        ab = Bipartition([0, 1], [2, 3, 4])
        ba = Bipartition([2, 3, 4], [0, 1])
        assert negativity(state, ab) == negativity(state, ba)


def test_record_observables_and_bound():
    state = random_monitored_state(6, seed=3, layers=6)
    bp = Bipartition.contiguous_halves(6)
    rec = record_observables(state, bp, time=17)
    assert rec.time == 17
    assert rec.I == rec.S_A + rec.S_B - rec.S_AB
    assert 2 * rec.E <= rec.I + 1e-9
    assert rec.values() == (rec.S_A, rec.S_B, rec.S_AB, rec.E, rec.I, rec.purity_log2)
    assert ObservableRecord.FIELDS == ("S_A", "S_B", "S_AB", "E", "I", "purity_log2")


def test_two_e_bounded_by_mi_across_ensembles():
    for seed in range(20):
        L = 8
        state = random_monitored_state(L, seed=seed + 100, layers=6)
        bp = Bipartition.contiguous_halves(L)
        assert 2 * negativity(state, bp) <= mutual_information(state, bp) + 1e-9


def test_length_distribution_examples():
    prod = product_state(4)
    counts = length_distribution(prod)
    assert counts.tolist() == [0, 4, 0, 0, 0]

    ghz = ghz_state(4)
    counts = length_distribution(ghz)
    assert counts.sum() == 4
    assert counts[4] == 1  # one generator must span the whole chain

    mixed = StabilizerState(3, [PauliString.from_label("+ZIZ")])
    assert length_distribution(mixed).tolist() == [0, 0, 0, 1]


def test_window_mass():
    counts = np.zeros(11, dtype=np.int64)  # L = 10
    counts[5] = 3
    counts[2] = 1
    assert window_mass(counts, 0.45, 0.55) == 0.75
    assert window_mass(counts, 0.0, 1.0) == 1.0
    assert window_mass(np.zeros(11, dtype=np.int64), 0.4, 0.6) == 0.0
