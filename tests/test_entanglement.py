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
from negsim.circuit import CircuitConfig, run_trajectory
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
from negsim.gf2 import bits_to_int_rows, rank_int_rows
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
    before = ghz.copy()
    assert negativity(ghz, bp) == 0.0
    assert ghz == before and ghz.signed
    assert np.array_equal(ghz._cols, before._cols)
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


# -- region forms and the cached region splits ----------------------------------

REGION_FORMS = {
    "list": list,
    "list_with_repeats": lambda r: list(r) + list(r)[::-1],
    "tuple": tuple,
    "reversed_tuple": lambda r: tuple(reversed(r)),
    "set": set,
    "range": lambda r: r,
    "generator": lambda r: (site for site in r),
    "int64_ndarray": lambda r: np.array(list(r), dtype=np.int64),
}
REGIONS_L6 = [range(0), range(3), range(3, 6), range(0, 6, 2), range(1, 6, 3), range(5, 6), range(6)]


def uncached_entropy(state, region):
    """|R| - (k - rank of the stabilizer rows on the complement of R), with
    every index array built on the spot."""
    L = state.num_qubits
    sites = sorted({int(site) for site in region})
    comp = [c for c in range(L) if c not in sites]
    if not comp:
        return L - state.num_generators
    bits = state._stabilizer_bits(np.array(comp + [c + L for c in comp], dtype=np.int64))
    return len(sites) - (state.num_generators - rank_int_rows(bits_to_int_rows(bits)))


@pytest.mark.parametrize("form", sorted(REGION_FORMS))
def test_entropy_accepts_every_region_form(both_paths, form):
    for seed in range(4):
        state = random_monitored_state(6, seed=seed + 60, layers=5)
        dense = DenseState.from_stabilizer(state)
        for region in REGIONS_L6:
            got = entropy(state, REGION_FORMS[form](region))
            assert type(got) is int
            assert abs(got - dense.entropy(list(region))) < 1e-9, (form, region)
    cfg = CircuitConfig(L=40, p=0.15, T=60, seed=9, dephasing_schedule="random_sites(2)")
    state = run_trajectory(cfg, keep_final_state=True).final_state
    for region in (range(20), range(7, 33), range(0, 40, 3), range(40), range(39, 40)):
        assert entropy(state, REGION_FORMS[form](region)) == uncached_entropy(state, region)


def test_negativity_on_non_covering_splits_matches_dense(both_paths):
    rng = make_rng(31)
    for seed in range(6):
        state = random_monitored_state(6, seed=seed + 80, layers=5)
        dense = DenseState.from_stabilizer(state)
        for _ in range(4):
            order = rng.permutation(6).tolist()
            size_a = int(rng.integers(1, 5))
            size_b = int(rng.integers(1, 6 - size_a))
            a, b = order[:size_a], order[size_a : size_a + size_b]
            bp = Bipartition(a, b)
            joint = bp.joint()
            reduced = DenseState(len(joint), dense.partial_trace(joint))
            want = log_negativity(reduced, [joint.index(site) for site in bp.region_b])
            assert abs(negativity(state, bp) - want) < 1e-9, (a, b)
            assert negativity(state, bp) == negativity(state, Bipartition(set(a), tuple(b)))
            rec = record_observables(state, bp, 0)  # the record traces out the same sites
            s_a, s_b = dense.entropy(bp.region_a), dense.entropy(bp.region_b)
            s_ab = dense.entropy(joint)
            assert abs(rec.S_A - s_a) < 1e-9 and abs(rec.S_B - s_b) < 1e-9, (a, b)
            assert abs(rec.S_AB - s_ab) < 1e-9 and abs(rec.E - want) < 1e-9, (a, b)
            assert abs(rec.I - (s_a + s_b - s_ab)) < 1e-9, (a, b)
            assert rec.purity_log2 == round(np.log2(dense.purity())), (a, b)
            assert mutual_information(state, bp) == rec.I, (a, b)
            assert entropy(state, bp.region_a) == rec.S_A, (a, b)


def test_out_of_range_region_raises_on_every_call(both_paths):
    state = product_state(4)
    for region in ([0, 4], (0, 4), (-1,), range(3, 5)):
        for _ in range(2):  # a cached split must not turn the second call into a hit
            with pytest.raises(ValueError, match="out of range"):
                entropy(state, region)
    for bp in (Bipartition([0], [4]), Bipartition([-1, 0], [1])):
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                negativity(state, bp)
            with pytest.raises(ValueError, match="out of range"):
                record_observables(state, bp, 0)
    # an int64 cast would cut these to real sites: [0.5] read as [0]
    for region in ([0.5], [1.7], ["0"], [None], (0, 2.5)):
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an integer"):
                entropy(state, region)
            with pytest.raises(ValueError, match="must be an integer"):
                Bipartition(region, [3])
            with pytest.raises(ValueError, match="must be an integer"):
                Bipartition([3], region)
    assert entropy(state, (0, 3)) == 0 and negativity(state, Bipartition([0], [3])) == 0.0
    assert entropy(state, [np.int64(1), np.int32(2)]) == 0
    assert Bipartition([np.int64(1)], [np.int32(2)]).joint() == (1, 2)
    for region in ([np.int64(1), 2.0], [1.0]):  # a float is no site, whatever its value
        with pytest.raises(ValueError, match="must be an integer"):
            entropy(state, region)
        with pytest.raises(ValueError, match="must be an integer"):
            Bipartition(region, [3])


def test_bool_sites_are_not_integers(both_paths):
    # True == 1: an int cast read [True, 2] as the sites 1 and 2, and a
    # cached (1, 2) would answer for (True, 2)
    state = product_state(4)
    assert entropy(state, (1, 2)) == 0
    for region in ([True], [True, 2], (np.bool_(True), 2), np.array([False, True])):
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an integer"):
                entropy(state, region)
            with pytest.raises(ValueError, match="must be an integer"):
                Bipartition(region, [3])
            with pytest.raises(ValueError, match="must be an integer"):
                Bipartition([3], region)
