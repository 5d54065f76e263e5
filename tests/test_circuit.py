"""Trajectory runner, Monte Carlo harness, and CSV output."""

import json

import numpy as np
import pytest

from negsim.channels import (
    _apply_tables_inplace,
    _class_maps,
    _gate_from_class,
    apply_clifford,
    make_rng,
)
from negsim.circuit import (
    CircuitConfig,
    MonteCarloResult,
    monte_carlo,
    run_trajectory,
    write_summary_csv,
    write_trajectory_csv,
)
from negsim.stabilizer import product_state, validate


def test_config_validation():
    with pytest.raises(ValueError):
        CircuitConfig(L=7, p=0.1)
    with pytest.raises(ValueError):
        CircuitConfig(L=0, p=0.1)
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=1.5)
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=0.1, T=0)
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=0.1, samples=0)
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=0.1, observables_every=0)
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=0.1, dephasing_schedule="what")
    with pytest.raises(ValueError):
        CircuitConfig(L=8, p=0.1, dephasing_schedule="random_sites(9)")


def test_schedule_parsing():
    assert CircuitConfig(L=8, p=0.1).schedule() == ("boundary", 2)
    cfg = CircuitConfig(L=8, p=0.1, dephasing_schedule="boundary_every_step")
    assert cfg.schedule() == ("boundary", 1)
    # both spellings admit a site count
    for spelling in ("random_sites(3)", "random_sites:3"):
        cfg = CircuitConfig(L=8, p=0.1, dephasing_schedule=spelling)
        assert cfg.schedule() == ("random", 3)
    cfg = CircuitConfig(L=8, p=0.1, dephasing_schedule="random_sites(0)")
    assert cfg.schedule() == ("random", 0)


def test_config_dict_round_trip_and_hash():
    cfg = CircuitConfig(L=16, p=0.1, seed=3)
    d = cfg.to_dict()
    assert d["T"] == 64  # default resolves to 4L
    assert CircuitConfig.from_dict(d) == CircuitConfig(L=16, p=0.1, T=64, seed=3)
    with pytest.raises(ValueError):
        CircuitConfig.from_dict({"L": 8, "p": 0.1, "banana": 2})
    assert cfg.config_hash() == CircuitConfig(L=16, p=0.1, T=64, seed=3).config_hash()
    assert cfg.config_hash() != CircuitConfig(L=16, p=0.2, seed=3).config_hash()
    assert len(cfg.config_hash()) == 12


def test_steps_default():
    assert CircuitConfig(L=10, p=0.1).steps == 40
    assert CircuitConfig(L=10, p=0.1, T=7).steps == 7


@pytest.mark.parametrize("T,stride", [(10, 3), (8, 4), (5, 1), (7, 10)])
def test_record_count_matches_stride(T, stride):
    cfg = CircuitConfig(L=4, p=0.2, T=T, seed=1, observables_every=stride)
    res = run_trajectory(cfg)
    assert len(res.records) == -(-T // stride)  # ceil division
    assert res.times[-1] == T
    assert all(t % stride == 0 or t == T for t in res.times)


def test_vectorized_layer_matches_sequential_gates():
    # the runner applies a whole brickwork row of class maps to an unsigned
    # tableau at once; check every tableau row (stabilizers, destabilizers)
    # against one-gate-at-a-time signed application of the sampled gates
    rng = make_rng(97)
    maps = _class_maps()
    for trial in range(50):
        L = 8
        state = product_state(L, signed=False)
        expected = product_state(L)
        # scramble a little first
        for t in range(3):
            start = t % 2
            cols = np.arange(start, L - 1, 2)
            sym = rng.integers(720, size=cols.size)
            signs = rng.integers(16, size=cols.size)
            for m, c in enumerate(cols):
                gate = _gate_from_class(int(sym[m]), int(signs[m]))
                expected = apply_clifford(expected, gate, int(c), int(c) + 1)
            _apply_tables_inplace(state, maps[sym], cols, cols + 1)
            assert state._rows_int() == expected._rows_int()
            assert validate(state) is None


def test_no_measurement_no_bath_stays_pure():
    cfg = CircuitConfig(
        L=8, p=0.0, T=24, seed=5, dephasing_schedule="random_sites(0)"
    )
    res = run_trajectory(cfg)
    assert all(r.purity_log2 == 0 for r in res.records)
    assert all(r.S_AB == 0 for r in res.records)


def test_pure_dynamics_reaches_maximal_half_chain_entropy():
    # fixed seed: the late-time value is 4 for this realization (the ensemble
    # spreads over 2..4, peaked at the maximum)
    cfg = CircuitConfig(
        L=8, p=0.0, T=32, seed=1, dephasing_schedule="random_sites(0)",
        observables_every=32,
    )
    rec = run_trajectory(cfg).records[-1]
    assert rec.S_A == 4
    assert rec.E == 4.0  # pure state: E = S_A when A is half of AB


def test_boundary_baths_without_measurement_kill_negativity():
    for seed in range(6):
        cfg = CircuitConfig(L=8, p=0.0, seed=seed)  # T = 4L default
        rec = run_trajectory(cfg).records[-1]
        assert rec.E == 0.0
        assert rec.purity_log2 < 0  # baths leave the state mixed


def test_full_measurement_rate_gives_product_states():
    cfg = CircuitConfig(L=6, p=1.0, T=12, seed=2)
    res = run_trajectory(cfg)
    for rec in res.records:
        assert rec.E == 0.0
        assert rec.S_A == rec.S_B == rec.S_AB == 0
        assert rec.purity_log2 == 0


def test_schedules_differ():
    even = run_trajectory(CircuitConfig(L=8, p=0.0, T=9, seed=4))
    every = run_trajectory(
        CircuitConfig(L=8, p=0.0, T=9, seed=4, dephasing_schedule="boundary_every_step")
    )
    assert not np.array_equal(even.table(), every.table())


def test_keep_final_state():
    cfg = CircuitConfig(L=6, p=0.2, T=8, seed=7)
    res = run_trajectory(cfg, keep_final_state=True)
    assert res.final_state is not None
    assert res.final_state.num_qubits == 6
    assert validate(res.final_state) is None
    assert run_trajectory(cfg).final_state is None


def test_trajectories_are_reproducible_and_independent():
    cfg = CircuitConfig(L=8, p=0.15, T=16, seed=11)
    a = run_trajectory(cfg, trajectory_index=3)
    b = run_trajectory(cfg, trajectory_index=3)
    c = run_trajectory(cfg, trajectory_index=4)
    assert np.array_equal(a.table(), b.table())
    assert not np.array_equal(a.table(), c.table())


def test_monte_carlo_single_sample_matches_trajectory():
    cfg = CircuitConfig(L=8, p=0.2, T=16, seed=9, samples=1)
    mc = monte_carlo(cfg)
    assert isinstance(mc, MonteCarloResult)
    single = run_trajectory(cfg, 0)
    assert np.array_equal(mc.mean, single.table())
    assert not mc.stderr.any()


def test_monte_carlo_thread_count_invariance():
    cfg = CircuitConfig(L=8, p=0.2, T=16, seed=13, samples=8)
    serial = monte_carlo(cfg, threads=1)
    parallel = monte_carlo(cfg, threads=4)
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.stderr, parallel.stderr)
    assert serial.late_mean == parallel.late_mean


def test_stationarity_gate():
    cfg = CircuitConfig(L=8, p=0.3, seed=17, samples=24)  # T = 4L
    mc = monte_carlo(cfg)
    assert mc.stationarity.passed
    assert mc.stationarity.tolerance >= 0.0

    short = monte_carlo(CircuitConfig(L=8, p=0.3, T=8, seed=17, samples=4))
    assert not short.stationarity.passed  # no previous window to compare


def test_series_accessor():
    cfg = CircuitConfig(L=6, p=0.2, T=12, seed=21, samples=4)
    mc = monte_carlo(cfg)
    mean_e, stderr_e = mc.series("E")
    assert mean_e.shape == mc.times.shape
    assert (stderr_e >= 0).all()
    with pytest.raises(ValueError):
        mc.series("nope")


def test_summary_csv_format(tmp_path):
    cfg = CircuitConfig(L=6, p=0.25, T=8, seed=23, samples=3, observables_every=4)
    mc = monte_carlo(cfg)
    path = tmp_path / "summary.csv"
    write_summary_csv(mc, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith(f"# config_hash={cfg.config_hash()} config=")
    header_cfg = json.loads(lines[0].split("config=", 1)[1])
    assert CircuitConfig.from_dict(header_cfg) == CircuitConfig.from_dict(cfg.to_dict())
    assert lines[1] == "L,p,t,observable,mean,stderr,samples"
    body = lines[2:]
    assert len(body) == len(mc.times) * 6
    first = body[0].split(",")
    assert first[0] == "6" and first[3] == "S_A"
    float(first[4]), float(first[5])


def test_trajectory_csv_format(tmp_path):
    cfg = CircuitConfig(L=6, p=0.25, T=8, seed=29, observables_every=4)
    results = [run_trajectory(cfg, i) for i in range(2)]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(results, cfg, path)
    lines = path.read_text().strip().split("\n")
    assert lines[1] == "trajectory_id,time,S_A,S_B,S_AB,E,I,purity_log2"
    assert len(lines) == 2 + 2 * len(results[0].records)
    assert lines[2].split(",")[0] == "0"
    assert lines[2 + len(results[0].records)].split(",")[0] == "1"
