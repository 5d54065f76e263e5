"""Trajectory runner, Monte Carlo harness, and CSV output."""

import json

import numpy as np
import pytest

from negsim import entanglement, rowkernel
from negsim.channels import (
    _apply_tables_inplace,
    _class_tables,
    _draw_outcomes,
    _gate_from_class,
    apply_clifford,
    make_rng,
    trajectory_rng,
)
from negsim.circuit import (
    CircuitConfig,
    MonteCarloResult,
    _layer_ops,
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
    # every record is stored as int16
    assert CircuitConfig(L=32766, p=0.1).L == 32766
    with pytest.raises(ValueError, match="L must be <= 32766"):
        CircuitConfig(L=32768, p=0.1)


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
    # only those two: an unbalanced or padded spelling would get a config
    # hash of its own for the same schedule
    for spelling in ("random_sites(3", "random_sites:3)", "random_sites(3))", "random_sites( 3 )",
                     "random_sites:3\n", "random_sites()", "random_sites:", "random_sites3"):
        with pytest.raises(ValueError, match="unknown dephasing schedule"):
            CircuitConfig(L=8, p=0.1, dephasing_schedule=spelling)


def test_trajectories_share_one_read_only_times_array():
    cfg = CircuitConfig(L=8, p=0.2, T=13, seed=4, observables_every=3)
    first, second = run_trajectory(cfg, 0), run_trajectory(cfg, 1)
    assert first.times is second.times
    assert not first.times.flags.writeable
    assert first.times.dtype == np.int64 and first.times.tolist() == [3, 6, 9, 12, 13]
    other = run_trajectory(CircuitConfig(L=8, p=0.2, T=13, seed=4, observables_every=4), 0)
    assert other.times.tolist() == [4, 8, 12, 13]


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


@pytest.mark.parametrize("key,value", [
    ("L", "16"), ("L", 16.0), ("p", True), ("T", "64"), ("dephasing_schedule", 2),
])
def test_config_from_dict_rejects_wrong_types(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        CircuitConfig.from_dict({"L": 16, "p": 0.1, key: value})
    # JSON numbers: an int is a valid float, numpy scalars are accepted
    cfg = CircuitConfig.from_dict({"L": np.int64(16), "p": 0, "T": None})
    assert cfg == CircuitConfig(L=16, p=0.0)


@pytest.mark.parametrize("key,value", [
    ("observables_every", 2.5), ("L", 8.0), ("T", 4.0), ("seed", 1.5), ("samples", 2.0),
    ("p", True), ("dephasing_schedule", None),
])
def test_config_rejects_wrong_types_at_construction(key, value):
    # a float stride would record at t = 5, 10, ...; a float L, T or seed
    # would fail only inside run_trajectory
    with pytest.raises(ValueError, match=f"^{key} must be"):
        CircuitConfig(**{"L": 8, "p": 0.1, key: value})
    with pytest.raises(ValueError, match="seed must be >= 0"):
        CircuitConfig(L=8, p=0.1, seed=-1)
    assert CircuitConfig(L=np.int64(8), p=np.float32(0.5), T=np.int32(3)).steps == 3


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


def test_trajectory_result_stores_one_observable_array():
    # one int16 (n, 4) array is stored; the float64 table is built from it
    cfg = CircuitConfig(L=6, p=0.2, T=9, seed=4, observables_every=2)
    res = run_trajectory(cfg)
    assert res.counts.shape == (5, 4) and res.counts.dtype == np.int16
    assert not hasattr(res, "__dict__")
    assert res.observables.shape == (5, 6) and res.observables.dtype == np.float64
    assert np.array_equal(res.table(), res.observables)
    assert [r.time for r in res.records] == res.times.tolist() == [2, 4, 6, 8, 9]
    for rec, row in zip(res.records, res.observables):
        assert rec.values() == tuple(row)
        assert all(type(getattr(rec, name)) is int for name in rec.FIELDS if name != "E")
        assert type(rec.E) is float


def test_a_record_with_2e_above_i_warns_from_entanglement(both_paths, monkeypatch):
    # 2E <= I holds for stabilizer states; one check in entanglement.py warns
    # for either runner's records, and the record is kept for the post-mortem
    if both_paths == "kernel":
        if rowkernel.LIB is None:
            pytest.skip("no compiled row kernel")
        loop = rowkernel.run_trajectory

        def run(*args):
            counts = loop(*args)
            counts[1, 3] = counts[1, 0] + counts[1, 1] - counts[1, 2] + 2
            return counts

        monkeypatch.setattr(rowkernel, "run_trajectory", run)
    else:
        observables, seen = entanglement._observables, []

        def second_too_high(state, region_a, region_b):
            s_a, s_b, s_ab, e = observables(state, region_a, region_b)
            seen.append(None)
            return s_a, s_b, s_ab, (s_a + s_b - s_ab + 2) / 2 if len(seen) == 2 else e

        monkeypatch.setattr(entanglement, "_observables", second_too_high)
    with pytest.warns(RuntimeWarning) as caught:
        res = run_trajectory(CircuitConfig(L=8, p=0.2, T=6, seed=3, observables_every=2))
    s_a, s_b, s_ab, two_e = res.counts[1].tolist()
    assert two_e == s_a + s_b - s_ab + 2
    assert [str(w.message) for w in caught] == [f"2E = {float(two_e)} exceeds I = {two_e - 2} at t = 4"]
    assert caught[0].filename.endswith("entanglement.py")


def test_vectorized_layer_matches_sequential_gates():
    # the runner applies a whole brickwork row of class maps to an unsigned
    # tableau at once; check every tableau row (stabilizers, destabilizers)
    # against one-gate-at-a-time signed application of the sampled gates,
    # with the layers drawn by the runner's own generator
    rng = make_rng(97)
    maps = _class_tables()
    cfg = CircuitConfig(L=8, p=0.0, T=3, dephasing_schedule="random_sites(0)")
    for trial in range(50):
        state = product_state(cfg.L, signed=False)
        expected = product_state(cfg.L)
        layers = [arg for _, kind, arg in _layer_ops(cfg, rng) if kind == "gates"]
        assert len(layers) == cfg.steps
        for cols, sym, signs in layers:
            for c, s, b in zip(cols.tolist(), sym.tolist(), signs.tolist()):
                expected = apply_clifford(expected, _gate_from_class(s, b), c, c + 1)
            _apply_tables_inplace(state, maps[sym], cols, cols + 1)
            assert state._rows_int() == expected._rows_int()
            assert validate(state) is None


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize("n", range(41))
def test_batched_outcome_draw_leaves_the_stream_where_scalar_draws_do(n, lead):
    # PCG64 hands out 32-bit halves, so one lead draw starts the bits mid-word
    streams = [make_rng(1000 + n) for _ in range(3)]
    for rng in streams:
        for _ in range(lead):
            rng.integers(2)
    scalar, batched, runner = streams
    bits = [int(scalar.integers(2)) for _ in range(n)]
    assert batched.integers(2, size=n).tolist() == bits
    _draw_outcomes(runner, n)
    for rng in (batched, runner):
        assert rng.bit_generator.state == scalar.bit_generator.state
    after = [(rng.random(), rng.integers(720, size=3).tolist()) for rng in streams]
    assert after[1] == after[0] and after[2] == after[0]


def reference_ops(cfg, rng):
    """The ops of _layer_ops from the numpy calls its docstring names,
    written out here so that both draw paths are held to them."""
    L, T = cfg.L, cfg.steps
    bath, param = cfg.schedule()
    for t in range(1, T + 1):
        cols = np.arange(1 - t % 2, L - 1, 2)
        if cols.size:
            yield t, "gates", (cols, rng.integers(720, size=cols.size), rng.integers(16, size=cols.size))
        if cfg.p > 0:
            sites = np.flatnonzero(rng.random(L) < cfg.p).tolist()
            if sites:
                yield t, "measure", sites
        if bath == "boundary":
            if t % param == 0:
                yield t, "dephase", 0
                yield t, "dephase", L - 1
        elif param:
            for site in sorted(rng.choice(L, size=param, replace=False).tolist()):
                yield t, "dephase", site
        if t % cfg.observables_every == 0 or t == T:
            yield t, "record", None


def assert_same_draws(cfg):
    got_rng, want_rng = trajectory_rng(cfg.seed, 0), trajectory_rng(cfg.seed, 0)
    got, want = list(_layer_ops(cfg, got_rng)), list(reference_ops(cfg, want_rng))
    assert [op[:2] for op in got] == [op[:2] for op in want]
    for (t, kind, arg), (_, _, expected) in zip(got, want):
        if kind == "gates":
            assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(arg, expected)), t
        else:
            assert arg == expected and type(arg) is type(expected), t
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "schedule",
    ["boundary_even_steps", "boundary_every_step", "random_sites(0)", "random_sites(1)",
     "random_sites(3)", "random_sites(L)"],
)
@pytest.mark.parametrize("L", [2, 4, 32, 34, 64, 66, 160])
def test_layer_ops_make_numpys_draws(both_paths, L, schedule):
    # the kernel draws through the generator's bitgen_t; every payload and
    # the stream afterwards must be numpy's own
    schedule = schedule.replace("(L)", f"({L})").replace("(3)", f"({min(3, L)})")
    for p in (0.0, 0.1, 0.3, 1.0):
        assert_same_draws(CircuitConfig(L=L, p=p, T=9, seed=L, dephasing_schedule=schedule,
                                        observables_every=2))


@pytest.mark.parametrize("L, m", [(10002, 200), (10002, 201), (20000, 400), (20000, 401)])
def test_layer_ops_follow_numpys_choice_past_ten_thousand_sites(both_paths, L, m):
    # numpy's choice draws Floyd's set up to m = L // 50 and shuffles a tail
    # of range(L) past it when L > 10000
    assert_same_draws(CircuitConfig(L=L, p=0.0, T=2, seed=m, dephasing_schedule=f"random_sites({m})"))


def test_measurements_come_as_one_op_per_layer():
    cfg = CircuitConfig(L=12, p=0.4, T=9, seed=2)
    ops = list(_layer_ops(cfg, make_rng(0)))
    layers = [t for t, kind, _ in ops if kind == "measure"]
    assert layers and len(layers) == len(set(layers))
    for _, kind, sites in ops:
        if kind == "measure":
            assert sites and sites == sorted(set(sites)) and all(type(s) is int for s in sites)


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
