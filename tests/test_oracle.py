"""Dense reference implementation: negativity, replicas, Page averages."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negsim.circuit as circuit
from negsim import oracle, rowkernel
from negsim.channels import (
    cnot_gate,
    hadamard_on_first,
    make_rng,
    sample_two_qubit_clifford,
    swap_gate,
)
from negsim.oracle import (
    DenseState,
    clifford_unitary,
    haar_unitary,
    log_negativity,
    negativity_sum,
    oracle_check_suite,
    page_negativity_check,
    partial_transpose,
    pauli_matrix,
    renyi_negativity,
    replay_trajectory,
    replica_trace_identity_check,
)
from negsim.circuit import CircuitConfig
from negsim.pauli import PauliString
from negsim.stabilizer import product_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_dense():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DenseState.from_state_vector(psi)


def random_mixed_dense(L, seed, rank=2):
    """Random rank-deficient mixed state via Haar vectors."""
    rng = make_rng(seed)
    dim = 1 << L
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = haar_unitary(dim, rng)[:, 0]
        rho += w * np.outer(psi, psi.conj())
    return DenseState(L, rho)


def test_pauli_matrix_site_ordering():
    # index bit i carries site i, so later sites sit on the left of the kron
    p = PauliString.from_label("+XZ")
    assert np.allclose(pauli_matrix(p), np.kron(Z, X))
    q = PauliString.from_label("-YI")
    assert np.allclose(pauli_matrix(q), -np.kron(np.eye(2), Y))


def test_clifford_unitary_conjugation():
    rng = make_rng(4)
    gates = [cnot_gate(), swap_gate(), hadamard_on_first()]
    gates += [sample_two_qubit_clifford(rng) for _ in range(20)]
    sources = [PauliString.from_label(s) for s in ("+XI", "+ZI", "+IX", "+IZ")]
    for gate in gates:
        u = clifford_unitary(gate)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        for src, img in zip(sources, gate.images):
            got = u @ pauli_matrix(src) @ u.conj().T
            assert np.abs(got - pauli_matrix(img)).max() < 1e-12


def test_partial_transpose_involution_and_trace():
    state = random_mixed_dense(3, seed=1)
    pt = partial_transpose(state, [0, 2])
    assert abs(np.trace(pt) - 1.0) < 1e-12
    back = partial_transpose(DenseState(3, pt), [0, 2])
    assert np.abs(back - state.rho).max() < 1e-14


def test_bell_partial_transpose_spectrum():
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(bell_dense(), [1])))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(log_negativity(bell_dense(), [1]) - 1.0) < 1e-12
    assert abs(negativity_sum(bell_dense(), [1]) - 0.5) < 1e-12


def test_negativity_zero_for_product_states():
    rng = make_rng(8)
    for _ in range(5):
        a = haar_unitary(2, rng)[:, 0]
        b = haar_unitary(2, rng)[:, 0]
        state = DenseState.from_state_vector(np.kron(b, a))
        assert abs(log_negativity(state, [1])) < 1e-10


def test_log_negativity_matches_negativity_sum():
    for seed in range(6):
        state = random_mixed_dense(3, seed=seed + 30, rank=2)
        for region in ([0], [1, 2], [0, 2]):
            e = log_negativity(state, region)
            n = negativity_sum(state, region)
            assert abs(e - np.log2(1.0 + 2.0 * n)) < 1e-9


def test_renyi_negativity_bell_values():
    bell = bell_dense()
    for n in (3, 4):
        result = renyi_negativity(bell, [1], n)
        assert result.normalized
        assert abs(result.value - 1.0) < 1e-12
    flat = renyi_negativity(bell, [1], 2)
    assert not flat.normalized
    assert abs(flat.value) < 1e-12  # PT preserves the Frobenius norm
    with pytest.raises(ValueError):
        renyi_negativity(bell, [1], 1)


def test_replica_trace_identity():
    for seed in range(4):
        state = random_mixed_dense(2, seed=seed + 60, rank=3)
        for n in (2, 3, 4):
            assert replica_trace_identity_check(state, [1], n)
    three = random_mixed_dense(3, seed=99, rank=2)
    assert replica_trace_identity_check(three, [1, 2], 3)
    with pytest.raises(ValueError):
        replica_trace_identity_check(three, [1], 5)


def test_haar_unitary_is_unitary():
    rng = make_rng(2)
    for dim in (2, 4, 8):
        u = haar_unitary(dim, rng)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12


def test_page_negativity_pure_bipartite_matches_renyi_half_entropy():
    # with no traced-out sites, E equals the Renyi-1/2 entropy of either half
    rng = make_rng(13)
    for _ in range(10):
        psi = haar_unitary(4, rng)[:, 0]
        state = DenseState.from_state_vector(psi)
        e = log_negativity(state, [1])
        lam = np.linalg.eigvalsh(state.partial_trace([0]))
        s_half = 2.0 * np.log2(np.sqrt(np.clip(lam, 0.0, None)).sum())
        assert abs(e - s_half) < 1e-9


def test_page_check_runs_and_size_guard():
    rng = make_rng(5)
    value = page_negativity_check(1, 1, 2, trials=20, rng=rng)
    assert value >= 0.0
    with pytest.raises(ValueError):
        page_negativity_check(4, 4, 1, trials=1, rng=rng)


def test_dense_state_validation():
    with pytest.raises(ValueError):
        DenseState(9, np.eye(512, dtype=complex))
    with pytest.raises(ValueError):
        DenseState(2, np.eye(2, dtype=complex))
    state = random_mixed_dense(2, seed=3)
    assert state.check() is None
    broken = DenseState(1, np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex))
    assert broken.check() is not None



def test_from_stabilizer_rejects_an_anti_hermitian_group_element(monkeypatch):
    real = oracle.phase_product
    monkeypatch.setattr(oracle, "phase_product", lambda a, b: (real(a, b)[0], 1))
    with pytest.raises(AssertionError, match="must be Hermitian"):
        DenseState.from_stabilizer(product_state(2))
    # an explicit raise, which python -O keeps and a bare assert would not
    child = (
        "from negsim import oracle\n"
        "from negsim.stabilizer import product_state\n"
        "real = oracle.phase_product\n"
        "oracle.phase_product = lambda a, b: (real(a, b)[0], 1)\n"
        "try:\n"
        "    oracle.DenseState.from_stabilizer(product_state(2))\n"
        "except AssertionError as error:\n"
        "    print(error)\n"
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "group element must be Hermitian", proc.stderr

def test_partial_trace_and_entropy():
    bell = bell_dense()
    reduced = bell.partial_trace([0])
    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12
    assert abs(bell.entropy([0]) - 1.0) < 1e-12
    assert abs(bell.entropy([0, 1])) < 1e-12  # pure
    assert abs(bell.mutual_information([0], [1]) - 2.0) < 1e-12


def test_dense_measurement_and_dephasing():
    plus = DenseState.from_state_vector(np.array([1, 1], dtype=complex))
    prob, post = plus.project_z(0, 1)
    assert abs(prob - 0.5) < 1e-12
    assert np.abs(post.rho - np.array([[1, 0], [0, 0]])).max() < 1e-12

    bell = bell_dense()
    diag = bell.dephase_site(0).dephase_site(1)
    off = diag.rho - np.diag(np.diag(diag.rho))
    assert np.abs(off).max() < 1e-12
    assert abs(log_negativity(diag, [1])) < 1e-12

    counts = {1: 0, -1: 0}
    rng = make_rng(21)
    for _ in range(2000):
        outcome, collapsed = plus.measure_z(0, rng)
        counts[outcome] += 1
        assert abs(collapsed.purity() - 1.0) < 1e-12
    assert min(counts.values()) > 880  # ~5 sigma around 1000


def test_oracle_check_suite_smoke():
    report = oracle_check_suite(seed=3, circuits=8, L=3, depth=6)
    assert report.ok, report.failures
    assert report.circuits == 8
    assert report.max_negativity_dev < 1e-9


SCHEDULES = ["boundary_even_steps", "boundary_every_step", "random_sites(2)"]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_replay_trajectory_matches_runner(schedule):
    # the runner's own gate, measurement and dephasing path against dense
    # matrices, every recorded field at every stride plus the final k
    cases = 0
    for seed in range(4):
        for L, p in ((4, 0.3), (6, 0.15)):
            cfg = CircuitConfig(
                L=L, p=p, T=3 * L, seed=seed, dephasing_schedule=schedule, observables_every=2
            )
            report = replay_trajectory(cfg, trajectory_index=seed)
            assert report.ok, report.failures[:3]
            assert report.comparisons == len(range(2, 3 * L + 1, 2))
            cases += 1
    assert cases == 8


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_replay_trajectory_on_numpy_path(schedule, numpy_path):
    test_replay_trajectory_matches_runner(schedule)


def _shifted_counts(original):
    """rowkernel.run_trajectory with S_A one too high in every record."""

    def run(*args):
        counts = original(*args)
        counts[:, 0] += 1
        return counts

    return run


def _off_by_one_record(original):
    def record(state, bp, time):
        rec = original(state, bp, time)
        return type(rec)(rec.time, rec.S_A + 1, rec.S_B, rec.S_AB, rec.E, rec.I, rec.purity_log2)

    return record


def _skip_measurements(original):
    return lambda state, columns, gates, sites, rng=None: original(state, columns, gates, (), rng)


def _skip_dephasing(original):
    return lambda state, columns, gates, sites, rng=None: original(state, (), gates, sites, rng)


def _returning_at_once(head, value):
    """A kernel source edit: the C function that opens with head returns
    value (or nothing) before its first statement."""

    def edit(source):
        assert source.count(head + "\n{\n") == 1
        return source.replace(head + "\n{\n", f"{head}\n{{\n    return{value};\n")

    return edit


# the kernel path: a record corrupted on its way out of the one-call loop, or
# a kernel built with a no-op measurement or dephasing
KERNEL_MUTANTS = {
    "no_op_measure": _returning_at_once("static int measure(u64 *t, int L, u64 *stab, int site)", " 0"),
    "no_op_dephase": _returning_at_once(
        "WIDE static void dephase_column(u64 *t, int L, u64 *stab, int col)", ""
    ),
}
# the numpy path: the _layer_ops loop makes every update through one
# _apply_layer call per flush and every record through record_observables,
# both looked up in negsim.circuit's globals
NUMPY_MUTANTS = {
    "wrong_record": ("record_observables", _off_by_one_record),
    "no_op_measure": ("_apply_layer", _skip_measurements),
    "no_op_dephase": ("_apply_layer", _skip_dephasing),
}

CORRUPTIONS = pytest.mark.parametrize(
    "case, first_failure",
    [
        ("wrong_record", "t=1 (record t=1): runner vs dense {'S_A': ("),
        ("no_op_measure", "t=2 (record t=2): runner vs dense {'"),
        ("no_op_dephase", "t=2 (record t=2): runner vs dense {'"),
    ],
    ids=["wrong_record", "no_op_measure", "no_op_dephase"],
)


def assert_replay_fails(first_failure):
    report = replay_trajectory(CircuitConfig(L=4, p=0.2, T=8, seed=1))
    assert not report.ok
    assert report.failures[0].startswith(first_failure), report.failures[0]


@pytest.mark.skipif(rowkernel.LIB is None, reason="no compiled row kernel")
@CORRUPTIONS
def test_replay_trajectory_detects_a_wrong_record(monkeypatch, use_build, case, first_failure):
    # with the kernel built the runner is one rowkernel.run_trajectory call
    if case == "wrong_record":
        monkeypatch.setattr(rowkernel, "run_trajectory", _shifted_counts(rowkernel.run_trajectory))
    else:
        use_build(edit=KERNEL_MUTANTS[case])
    assert_replay_fails(first_failure)


@CORRUPTIONS
def test_replay_trajectory_detects_a_wrong_record_on_numpy_path(
    monkeypatch, numpy_path, case, first_failure
):
    name, corrupt = NUMPY_MUTANTS[case]
    monkeypatch.setattr(circuit, name, corrupt(getattr(circuit, name)))
    assert_replay_fails(first_failure)


def test_replay_trajectory_rejects_large_chains():
    with pytest.raises(ValueError):
        replay_trajectory(CircuitConfig(L=10, p=0.1, T=2))
