"""The compiled row kernel against the numpy code it stands in for.

Each update must leave the same tableau bits and stabilizer mask as the
numpy path after every operation, and count the same random outcomes; each
rank must equal the int-row elimination's; a one-call trajectory must
give the _layer_ops loop's records, final tableau and generator state;
canonicalize must leave the same bits as the row-int code; each polymer
energy must equal the numpy DP's, or fail with the same ValueError; the
PCG64 bond draw must give rng.random()'s bonds and leave the generator in
its state. The numpy side runs with rowkernel.LIB set to None.
"""

import copy
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negsim.circuit as circuit
from negsim import polymer, rowkernel
from negsim.channels import (
    _apply_layer,
    _apply_tables_inplace,
    _class_tables,
    _dephase_inplace,
    _draw_outcomes,
    _gate_maps,
    _measure_z_inplace,
    cnot_gate,
    make_rng,
    trajectory_rng,
)
from negsim.circuit import CircuitConfig, run_trajectory
from negsim.entanglement import (
    Bipartition,
    entropy,
    length_distribution,
    negativity,
    record_observables,
)
from negsim.gf2 import bits_to_int_rows, rank_int_rows
from negsim.polymer import PathQuery, PolymerLattice
from negsim.stabilizer import (
    StabilizerState,
    _left_key,
    _row_interval,
    canonicalize,
    clipped_endpoint_counts,
    product_state,
    validate,
)

HAS_CC = shutil.which("cc") is not None
needs_kernel = pytest.mark.skipif(rowkernel.LIB is None, reason="no compiled row kernel")


def random_op(rng, L):
    """One operation as a function of the state, each a layer call: gates of
    random classes on a random subset of one brickwork parity's pairs
    (c, c + 1), a Z measurement (returning 1 when its outcome is random) or
    a dephasing of column c or L + c."""
    kind = int(rng.integers(3))
    if kind == 0:
        pairs = np.arange(int(rng.integers(2)), L - 1, 2)
        cols = pairs[rng.random(pairs.size) < 0.5]
        gates = (cols, rng.integers(720, size=cols.size), None)
        return lambda state: _apply_layer(state, (), gates, ())
    if kind == 1:
        site = int(rng.integers(L))
        return lambda state: _apply_layer(state, (), None, [site])
    column = int(rng.integers(2 * L))
    return lambda state: _apply_layer(state, [column], None, ())


def without_kernel(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(rowkernel, "LIB", None)
        return fn(*args)


def random_state(L, ops, seed, signed=False):
    """An unsigned state after random operations; a signed one is rebuilt
    from the generator rows with plus signs."""
    rng = make_rng(seed)
    state = product_state(L, signed=False)
    for _ in range(ops):
        random_op(rng, L)(state)
    if signed:
        state = StabilizerState._from_rows(L, state.symplectic_int_rows(), [0] * state.num_generators)
    return state


def test_kernel_is_active_whenever_cc_is_on_path():
    # a build that silently fell back to numpy would pass every other test
    assert (rowkernel.LIB is not None) == HAS_CC


@needs_kernel
@pytest.mark.parametrize(
    "L, ops",
    [(2, 150), (5, 150), (31, 150), (32, 150), (33, 150), (64, 120), (65, 120), (160, 80),
     (1100, 25)],
)
def test_updates_match_numpy_path_bit_for_bit(monkeypatch, L, ops):
    # L = 1100 has 35 words per column: the kernel keeps no fixed-size buffer
    rng = make_rng(1000 + L)
    fast = product_state(L, signed=False)
    slow = fast.copy()
    for step in range(ops):
        op = random_op(rng, L)
        assert op(fast) == without_kernel(monkeypatch, op, slow), step
        assert fast._stab == slow._stab, step
        assert np.array_equal(fast._cols, slow._cols), step
    assert validate(fast) is None


@needs_kernel
@pytest.mark.parametrize("L, signed", [(2, False), (7, True), (33, False), (64, True), (97, False)])
def test_ranks_match_int_row_elimination(monkeypatch, L, signed):
    rng = make_rng(L)
    for trial in range(4):
        state = random_state(L, 3 * L, seed=10 * L + trial, signed=signed)
        for _ in range(6):
            region = rng.choice(L, size=int(rng.integers(1, L + 1)), replace=False)
            columns = np.concatenate([region, region + L])
            want = rank_int_rows(bits_to_int_rows(state._stabilizer_bits(columns)))
            assert rowkernel.record_ranks(state, [], region)[0] == want
            assert entropy(state, region) == without_kernel(monkeypatch, entropy, state, region)
            order = rng.permutation(L)  # A and B need not cover the chain
            size_a = int(rng.integers(1, L))
            size_b = int(rng.integers(1, L - size_a + 1))
            bp = Bipartition(order[:size_a].tolist(), order[size_a : size_a + size_b].tolist())
            before = state.copy()
            got = negativity(state, bp)
            assert got == without_kernel(monkeypatch, negativity, state, bp)
            rec = record_observables(state, bp, trial)  # traced out, then one record_ranks call
            assert rec == without_kernel(monkeypatch, record_observables, state, bp, trial)
            assert state == before  # the traced-out copy leaves the input alone
            cover = Bipartition(order[:size_a].tolist(), order[size_a:].tolist())
            rec = record_observables(state, cover, trial)  # one record_ranks call
            assert rec == without_kernel(monkeypatch, record_observables, state, cover, trial)


def layer_calls(L, p, schedule, T, rng):
    """The arguments of the runner's _apply_layer calls for T layers of a
    brickwork chain of any length L: the previous layer's dephasing columns,
    this layer's gates and its measured sites (none on every 7th layer, and
    at L = 2 no gates on even layers)."""
    columns = []
    for t in range(1, T + 1):
        cols = np.arange(1 - t % 2, L - 1, 2)
        gates = (cols, rng.integers(720, size=cols.size), None) if cols.size else None
        sites = np.flatnonzero(rng.random(L) < p).tolist() if t % 7 else []
        yield columns, gates, sites
        if schedule == "boundary":
            columns = [0, L - 1]
        else:  # random_sites(3), now and then in X as negativity traces out
            picked = sorted(rng.choice(L, size=min(3, L), replace=False).tolist())
            columns = [c + L * int(rng.random() < 0.2) for c in picked]


def per_op_numpy(state, columns, gates, sites):
    """The numpy calls one layer call stands in for, one by one."""
    for column in columns:
        _dephase_inplace(state, column)
    if gates is not None:
        cols, sym, _ = gates
        _apply_tables_inplace(state, _class_tables()[sym], cols, cols + 1)
    return sum(_measure_z_inplace(state, site) for site in sites)


@needs_kernel
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("schedule", ["boundary", "random_sites"])
@pytest.mark.parametrize("L", [2, 32, 33, 64, 65, 97, 130, 160, 280])
def test_layer_call_matches_per_op_numpy_sequence(monkeypatch, L, schedule, p):
    rng = make_rng(7 * L + int(10 * p))
    fast = product_state(L, signed=False)
    slow = fast.copy()
    for t, call in enumerate(layer_calls(L, p, schedule, 60, rng)):
        assert _apply_layer(fast, *call) == without_kernel(monkeypatch, per_op_numpy, slow, *call), t
        assert fast._stab == slow._stab, t
        assert np.array_equal(fast._cols, slow._cols), t
    assert validate(fast) is None


def cnot_scrambled(L, seed):
    """The maximally mixed state (k = 0) after L layers of CNOTs on random
    neighbour pairs in random directions: each pair's first row stays
    Z-type and its second X-type, both spread over many sites."""
    rng = make_rng(seed)
    state = product_state(L, signed=False)
    for column in range(L, 2 * L):
        _dephase_inplace(state, column)
    cnot = np.array([[(g.x_mask, g.z_mask) for g in cnot_gate().images]], dtype=np.uint8)
    for t in range(L):
        cols = np.arange(t % 2, L - 1, 2)
        cols = cols[rng.random(cols.size) < 0.5]
        flip = rng.random(cols.size) < 0.5
        maps = np.repeat(_gate_maps(cnot), cols.size, axis=0)
        _apply_tables_inplace(state, maps, np.where(flip, cols + 1, cols), np.where(flip, cols, cols + 1))
    return state


@needs_kernel
@pytest.mark.parametrize("L", [65, 97, 130])
@pytest.mark.parametrize("first", [False, True], ids=["q=L+pair", "q=pair"])
def test_appended_measurements_across_words_match_numpy(monkeypatch, L, first):
    # case (c) with rows pair and L + pair in different 64-bit words. Z_site
    # anticommutes only with X-type rows: after CNOTs those are second rows
    # (q = L + pair); a Hadamard on every site makes them first rows
    # (q = pair), so row L + pair is cleared and takes row q
    state = cnot_scrambled(L, seed=L)
    if first:
        state._cols = np.roll(state._cols, L, axis=1)
    twin = state.copy()
    seen = 0  # case (c) measurements with two or more other target rows
    for site in make_rng(L).permutation(L).tolist():
        anti = int.from_bytes(state._cols[:, site].tobytes(), "little")
        free = ((1 << L) - 1) & ~state._stab
        hit = anti & (free | free << L)
        assert not anti & state._stab  # never case (b)
        if hit:
            q = (hit & -hit).bit_length() - 1
            assert (q < L) == first and (q % L) >> 6 != (L + q % L) >> 6
            seen += (anti & ~(1 << q | 1 << (q % L))).bit_count() > 1
        assert _apply_layer(state, (), None, [site]) == without_kernel(
            monkeypatch, _apply_layer, twin, (), None, [site]
        )
        assert state._stab == twin._stab and np.array_equal(state._cols, twin._cols), site
    assert seen >= L // 4 and validate(state) is None


@pytest.mark.parametrize("L", [2, 33, 64, 160])
def test_layer_call_draws_the_outcome_bits_it_counts(both_paths, L):
    state = product_state(L, signed=False)
    twin = state.copy()
    drawn, dropped = make_rng(100 + L), make_rng(100 + L)
    total = 0
    for t, call in enumerate(layer_calls(L, 0.3, "random_sites", 40, make_rng(L))):
        n = _apply_layer(state, *call, drawn)
        assert _apply_layer(twin, *call) == n, t
        _draw_outcomes(dropped, n)
        assert drawn.bit_generator.state == dropped.bit_generator.state, t
        total += n
    assert total and np.array_equal(state._cols, twin._cols)
    with pytest.raises(ValueError):  # a bad site draws nothing
        _apply_layer(state, (), None, [0, L], drawn)
    assert drawn.bit_generator.state == dropped.bit_generator.state


@needs_kernel
def test_kernel_choice_draws_match_through_lemire_rejections():
    # with seed 1674 one of numpy's bounded draws in this choice rejects a
    # 32-bit word and draws again, so the stream moves past 2m - 1 words
    L, m = 20000, 400
    got, want, words = make_rng(1674), make_rng(1674), make_rng(1674)
    assert rowkernel.draw_sites(got, L, m) == sorted(want.choice(L, size=m, replace=False).tolist())
    assert got.bit_generator.state == want.bit_generator.state
    words.integers(2**32, size=2 * m - 1, dtype=np.uint32)  # one word each
    assert words.bit_generator.state != want.bit_generator.state
    with pytest.raises(ValueError):  # more sites than the chain has: no draw
        rowkernel.draw_sites(got, 4, 5)
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("L", [2, 31, 32, 33, 64, 65, 160])
def test_x_block_matches_stabilizer_bits(both_paths, L):
    states = [StabilizerState(L), product_state(L, signed=False)]  # k = 0 and k = L
    states += [random_state(L, ops, seed=L + ops) for ops in (L, 3 * L)]
    states.append(random_state(L, 2 * L, seed=L, signed=True))
    for state in states:
        x = state._x
        want = state._stabilizer_bits(np.arange(L))
        assert x.dtype == want.dtype == np.uint8 and x.shape == (state.num_generators, L)
        assert np.array_equal(x, want)
        assert not x.flags.writeable


@needs_kernel
def test_kernel_rejects_sites_out_of_range_and_changes_nothing():
    state = random_state(5, 15, seed=2)
    before = state.copy()
    tables = _class_tables()
    calls = [
        lambda: rowkernel.record_ranks(state, [0, 5], [1]),
        lambda: rowkernel.record_ranks(state, [0], [-1]),
        lambda: rowkernel.record_ranks(state, [0, 1], [2, 5]),
        # each layer call has valid ops before the bad one, which must not run
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 2], [3, 7], [1, 5]),
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 2], [3, 7], [1, -1]),
        lambda: rowkernel.apply_layer(state, tables, [0, 10], [0, 2], [3, 7], [1]),
        lambda: rowkernel.apply_layer(state, tables, [0, -1], [0, 2], [3, 7], [1]),
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 2], [3, 720], [1]),
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 2], [3, -1], [1]),
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 4], [3, 7], [1]),
        lambda: rowkernel.apply_layer(state, tables, [0, 9], [0, 2], [3], [1]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
        assert state._stab == before._stab and np.array_equal(state._cols, before._cols)


def runs_of(monkeypatch, cfg, lib):
    """run_trajectory(cfg) with rowkernel.LIB = lib, its final state kept,
    the number of rowkernel.run_trajectory calls it made, and the state of
    its generator afterwards."""
    gens, calls = [], []
    loop = rowkernel.run_trajectory

    def counted(*args):
        calls.append(args)
        return loop(*args)

    with monkeypatch.context() as m:
        m.setattr(rowkernel, "LIB", lib)
        m.setattr(rowkernel, "run_trajectory", counted)
        m.setattr(circuit, "trajectory_rng", lambda seed, i: gens.append(trajectory_rng(seed, i)) or gens[0])
        result = run_trajectory(cfg, 1, keep_final_state=True)
    return result, len(calls), gens[0].bit_generator.state


def assert_loop_matches_reference(monkeypatch, cfg):
    """The kernel's one-call trajectory against the _layer_ops loop on the
    numpy path: the same records, final tableau, mask and stream."""
    fast, calls, fast_stream = runs_of(monkeypatch, cfg, rowkernel.LIB)
    slow, slow_calls, slow_stream = runs_of(monkeypatch, cfg, None)
    assert (calls, slow_calls) == (1, 0)
    assert fast.counts.dtype == slow.counts.dtype == np.int16
    assert fast.times is slow.times and np.array_equal(fast.counts, slow.counts)
    assert np.array_equal(fast.table(), slow.table())
    assert np.array_equal(fast.final_state._cols, slow.final_state._cols)
    assert fast.final_state._stab == slow.final_state._stab
    assert fast_stream == slow_stream


LOOP_SCHEDULES = ["boundary_even_steps", "boundary_every_step", "random_sites(0)",
                  "random_sites(1)", "random_sites(L)"]


def loop_configs(L, schedule):
    """p in {0, 0.1, 1}; T not a multiple of the stride, and a stride past T.
    L = 34 spans two tableau words (an odd L is not a circuit)."""
    schedule = schedule.replace("(L)", f"({L})")
    for p in (0.0, 0.1, 1.0):
        for T, stride in ((L + 3, 4), (5, 7)):
            yield CircuitConfig(L=L, p=p, T=T, seed=L + T, dephasing_schedule=schedule,
                                observables_every=stride)


@needs_kernel
@pytest.mark.parametrize("schedule", LOOP_SCHEDULES)
@pytest.mark.parametrize("L", [2, 34, 64, 160])
def test_trajectory_loop_matches_layer_ops_runner(monkeypatch, L, schedule):
    for cfg in loop_configs(L, schedule):
        assert_loop_matches_reference(monkeypatch, cfg)


@needs_kernel
@pytest.mark.parametrize("m, path", [(200, "kernel"), (201, "reference")])
def test_trajectory_loop_leaves_numpys_shuffled_choice_to_the_reference(monkeypatch, m, path):
    # past L = 10000 numpy's choice draws Floyd's set only up to m = L // 50
    taken = []

    def stub(name):
        return lambda *args: taken.append(name) or np.zeros((1, 4), np.int16)

    monkeypatch.setattr(rowkernel, "run_trajectory", stub("kernel"))
    monkeypatch.setattr(circuit, "_run_ops", stub("reference"))
    run_trajectory(CircuitConfig(L=10002, p=0.0, T=1, dephasing_schedule=f"random_sites({m})"))
    assert taken == [path]


@needs_kernel
def test_trajectory_loop_rejects_bad_arguments_and_changes_nothing():
    state, rng = product_state(4, signed=False), make_rng(3)
    before, stream = state.copy(), rng.bit_generator.state
    tables = _class_tables()
    for args in ((0, 0.1, 2, 0, 1), (8, 1.5, 2, 0, 1), (8, 0.1, -1, 0, 1), (8, 0.1, 0, 5, 1),
                 (8, 0.1, 0, -1, 1), (8, 0.1, 2, 0, 0)):
        with pytest.raises(ValueError):
            rowkernel.run_trajectory(state, tables, rng, *args)
        assert state == before and rng.bit_generator.state == stream


CANON_SIZES = [2, 4, 34, 64, 66, 120, 130]


def runner_states(L):
    """Unsigned states on L sites: k = 0, k = L, and the runner's final
    states under four schedules at two measurement rates."""
    mixed = product_state(L, signed=False)
    mixed._stab = 0  # every pair (Z_j, X_j) a logical pair
    states = [mixed, product_state(L, signed=False)]
    for schedule in ("boundary_even_steps", "random_sites(0)", "random_sites(2)", f"random_sites({L})"):
        for p in (0.1, 0.3):
            cfg = CircuitConfig(L=L, p=p, T=2 * L, seed=L, dephasing_schedule=schedule,
                                observables_every=2 * L)
            states.append(run_trajectory(cfg, keep_final_state=True).final_state)
    return states


def same_tableau(a, b):
    return a._stab == b._stab and np.array_equal(a._cols, b._cols)


@needs_kernel
@pytest.mark.parametrize("L", CANON_SIZES)
def test_canonicalize_matches_row_int_code_bit_for_bit(monkeypatch, L):
    ks = set()
    for state in runner_states(L):
        got = canonicalize(state)
        assert same_tableau(got, without_kernel(monkeypatch, canonicalize, state))
        ks.add(state.num_generators)
    assert {0, L} < ks  # mixed states too


@pytest.mark.parametrize("L", CANON_SIZES)
def test_canonicalize_is_idempotent_and_leaves_its_input(both_paths, L):
    for state in runner_states(L):
        before = state.copy()
        once = canonicalize(state)
        assert same_tableau(state, before)
        assert same_tableau(canonicalize(once), once)
        assert validate(once) is None
        # the generators leave the sweeps in strictly increasing left key,
        # so the right sweep's pivot is its only candidate with the largest
        keys = [_left_key(row, L) for row in once.symplectic_int_rows()]
        assert keys == sorted(set(keys))


def interval_counts(state):
    """Length, left-endpoint and right-endpoint counts from `_row_interval`
    on each generator row: the per-row reference."""
    L = state.num_qubits
    lengths, left, right = np.zeros(L + 1, int), np.zeros(L, int), np.zeros(L, int)
    for row in state.symplectic_int_rows():
        interval = _row_interval(row, L)
        if interval is not None:
            lengths[interval[1] - interval[0] + 1] += 1
            left[interval[0]] += 1
            right[interval[1]] += 1
    return lengths, left, right


@pytest.mark.parametrize("L", CANON_SIZES)
def test_intervals_from_the_columns_match_row_intervals(both_paths, L):
    for state in runner_states(L):
        canon = canonicalize(state)
        lengths, left, right = interval_counts(canon)
        got = length_distribution(state)
        assert got.dtype == np.int64 and got.tolist() == lengths.tolist()
        for raw in (canon, state):  # the counts need no clipped gauge
            lengths, left, right = interval_counts(raw)
            got_left, got_right = clipped_endpoint_counts(raw)
            assert got_left.tolist() == left.tolist() and got_right.tolist() == right.tolist()


def test_canonicalize_rejects_a_malformed_tableau(both_paths):
    state = random_state(70, 140, seed=3)
    stray = state.copy()
    stray._stab |= 1 << 70  # a stabilizer pair past the chain
    short = state.copy()
    short._cols = state._cols[:, :-1].copy()
    for bad in (stray, short):
        with pytest.raises(ValueError, match="does not fit L"):
            canonicalize(bad)
        with pytest.raises(ValueError, match="does not fit L"):
            length_distribution(bad)


@needs_kernel
def test_kernel_canonicalize_checks_layout_and_mask():
    state = random_state(70, 140, seed=3)
    before = state.copy()
    bad = state.copy()
    bad._cols = state._cols.view(np.int64)
    with pytest.raises(ValueError, match="uint64"):
        canonicalize(bad)
    # the C side refuses a mask with a pair at or past L before it writes
    mask = (state._stab | 1 << 70).to_bytes(16, "little")
    assert rowkernel.LIB.canonicalize(rowkernel._address(state), 70, mask) == -2
    assert same_tableau(state, before)


def polymer_dp(lat, q):
    """_min_energy's energy, or the message of the ValueError it raises."""
    try:
        return polymer._min_energy(lat, q)
    except ValueError as err:
        return str(err)


@needs_kernel
@pytest.mark.parametrize("width", [1, 2, 3, 8, 13, 24])
def test_polymer_dp_matches_numpy_path(monkeypatch, width):
    # every height from 0 (no path) to the width, every sub-span (odd ones
    # and spans too deep for the height fail alike)
    rng = make_rng(width)
    for height in range(width + 1):
        p = float(rng.choice([0.0, 1.0, rng.random()]))
        lat = PolymerLattice.sample(width, p, rng, height=height)
        for a in range(width):
            for b in range(a + 1, width + 1):
                q = PathQuery(a, b)
                assert polymer_dp(lat, q) == without_kernel(monkeypatch, polymer_dp, lat, q)


@needs_kernel
@pytest.mark.parametrize("height", [0, 1, 2, 37, 100, 150])
def test_polymer_dp_matches_numpy_path_wide(monkeypatch, height):
    rng = make_rng(200 + height)
    lat = PolymerLattice.sample(200, 0.2, rng, height=height)
    for a, b in [(0, 200), (0, 2), (1, 199), (60, 180), (198, 200)]:
        q = PathQuery(a, b)
        assert polymer_dp(lat, q) == without_kernel(monkeypatch, polymer_dp, lat, q)


@needs_kernel
def test_polymer_kernel_checks_lattice_and_query():
    lat = PolymerLattice.sample(8, 0.4, 3)
    for q in (PathQuery(0, 10), PathQuery(-2, 4), PathQuery(6, 10)):
        with pytest.raises(ValueError, match="out of range"):
            rowkernel.polymer_energy(lat, q)
    assert rowkernel.polymer_energy(lat, PathQuery(0, 3)) == -1  # odd: no path back to y = 0
    # the C side refuses these before it reads the lattice: here a null pointer
    for args in ((8, 4, 0, 10), (8, 4, -2, 4), (8, 4, 4, 4), (8, -1, 0, 2)):
        assert rowkernel.LIB.polymer_energy(None, *args) == -2
    # fields set after construction, which __post_init__ does not see
    for field, value in [("measured", lat.measured.astype(np.uint8)),
                         ("measured", np.asfortranarray(lat.measured)),
                         ("measured", lat.measured[:, :4]), ("height", 5)]:
        wrong = copy.copy(lat)
        setattr(wrong, field, value)
        with pytest.raises(ValueError, match="C-contiguous"):
            rowkernel.polymer_energy(wrong, PathQuery(0, 8))


# Bond counts 1 .. 8 and 1001 .. 1004: the shortest lattices, whose state
# written back follows a few draws, and longer ones with every remainder
# mod 4, the tails an unrolled draw loop in rowkernel.c would leave; and
# counts on either side of one and two steps of its 16-lane loop, where the
# plain loop draws the tail from the jumped-ahead state.
BOND_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 31, 32, 33, 1001, 1002, 1003, 1004)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's default 128-bit multiplier


def twin_generators(seed, warm=False, first=None):
    """Two PCG64 Generators in one state. A warm pair holds a buffered
    32-bit half (has_uint32 = 1) from rng.integers(2). With first, the
    state is one LCG step before a state whose XSL-RR output, rotated by 0,
    has first as its top 53 bits: the next rng.random() is first / 2^53."""
    pair = make_rng(seed), make_rng(seed)
    for rng in pair:
        if warm:
            rng.integers(2)
        if first is not None:
            state = rng.bit_generator.state
            high = 0x0123456789ABCDEF  # its top 6 bits, the rotation, are 0
            nxt = high << 64 | (high ^ first << 11)
            inverse = pow(PCG64_MULT, -1, 1 << 128)
            state["state"]["state"] = (nxt - state["state"]["inc"]) * inverse % (1 << 128)
            rng.bit_generator.state = state
    return pair


def kernel_bonds_match_numpy(rng, ref, n, p):
    """rowkernel.draw_bonds from rng against ref.random(n) < p: the same
    bonds and the same bit generator state (has_uint32 and uinteger too)."""
    out = np.empty(n, dtype=bool)
    rowkernel.draw_bonds(rng, p, out)
    return np.array_equal(out, ref.random(n) < p) and rng.bit_generator.state == ref.bit_generator.state


@needs_kernel
@pytest.mark.parametrize(
    "p", [0.0, 1.0, 0.1, np.float32(0.1), np.nextafter(0.1, 0), np.nextafter(0.1, 1)], ids=repr
)
def test_kernel_bonds_match_numpy_draw(monkeypatch, p):
    for n in BOND_COUNTS:
        for warm in (False, True):
            assert kernel_bonds_match_numpy(*twin_generators(n, warm), n, p), (n, warm)
    # a first draw on either side of p * 2^53: the threshold is its ceiling
    edge = int(float(p) * 2**53)
    for first in [v for v in (edge - 1, edge, edge + 1) if 0 <= v < 2**53]:
        assert twin_generators(1, first=first)[0].random() == first / 2**53
        assert kernel_bonds_match_numpy(*twin_generators(1, first=first), 6, p), first
    # sample sends PCG64 to the kernel and every other bit generator to the
    # numpy path, which must match the same draw
    calls = []
    draw = rowkernel.draw_bonds
    monkeypatch.setattr(rowkernel, "draw_bonds", lambda *args: calls.append(1) or draw(*args))
    for bits in (np.random.PCG64, np.random.MT19937, np.random.PCG64DXSM, np.random.Philox,
                 np.random.SFC64):
        rng, ref = np.random.Generator(bits(7)), np.random.Generator(bits(7))
        lat = PolymerLattice.sample(30, p, rng, height=11)
        assert np.array_equal(lat.measured, ref.random((30, 12, 2)) < p), bits.__name__
        same = rng.bit_generator.random_raw(4) == ref.bit_generator.random_raw(4)
        assert same.all(), bits.__name__  # MT19937's state holds an array
        assert len(calls) == (bits is np.random.PCG64), bits.__name__
        calls.clear()
    with pytest.raises(ValueError, match="PCG64"):
        rowkernel.draw_bonds(np.random.Generator(np.random.PCG64DXSM(7)), p, np.empty(4, dtype=bool))


# rowkernel.c's draw_bonds splits n bonds into min(THREADS, MAX_THREADS,
# n // SEGMENT) contiguous segments, the last one taking the remainder.
SEGMENT = 1 << 19
MAX_THREADS = 8


def test_split_constants_match_kernel_source():
    source = rowkernel.SOURCE.read_text()
    assert f"#define MIN_SEGMENT ((int64_t)1 << {SEGMENT.bit_length() - 1})" in source
    assert f"#define MAX_THREADS {MAX_THREADS}" in source


def split_sizes(threads):
    """Bond counts just below the first split, and at k segments - 1, k and
    k + 1 for k = 2 and the most segments the thread count allows; with k
    segments of SEGMENT + 2 bonds, every segment boundary falls off a power
    of two, and the last segment's length is odd, so each jump-ahead start
    and the last segment's tail are tried away from round counts."""
    parts = min(threads, MAX_THREADS)
    sizes = {2 * SEGMENT - 1}
    for k in {2, parts}:
        sizes |= {k * SEGMENT - 1, k * SEGMENT, k * SEGMENT + 1, k * SEGMENT + 2 * k + 1}
    return sorted(sizes)


@needs_kernel
@pytest.mark.parametrize("threads", [1, 2, 3, 64])  # 64 starts at most MAX_THREADS
def test_split_bonds_match_numpy_draw(monkeypatch, threads):
    monkeypatch.setattr(rowkernel, "THREADS", threads)
    for n in split_sizes(threads):
        for warm in (False, True):
            assert kernel_bonds_match_numpy(*twin_generators(n, warm), n, 0.3), (n, warm)
    n = min(threads, MAX_THREADS, 2) * SEGMENT + 1
    for p in (0.0, 1.0, 0.1, np.float32(0.1), np.nextafter(0.1, 0), np.nextafter(0.1, 1)):
        for warm in (False, True):
            assert kernel_bonds_match_numpy(*twin_generators(7, warm), n, p), (p, warm)


@needs_kernel
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task")
def test_no_draw_thread_outlives_the_call(monkeypatch):
    # a process forked after the call, such as a pool worker, inherits none
    monkeypatch.setattr(rowkernel, "THREADS", 64)
    before = len(os.listdir("/proc/self/task"))
    for _ in range(3):
        rowkernel.draw_bonds(make_rng(2), 0.5, np.empty(MAX_THREADS * SEGMENT, dtype=bool))
        assert len(os.listdir("/proc/self/task")) == before


# A build that the compiler takes for clang's leaves out the code GCC on
# x86-64 alone gets: the AVX2 clones and draw_bonds' AVX-512 lane loop.
PLAIN_LOOP = ("-D__clang__",)


@needs_kernel
def test_kernel_source_compiles_without_warnings(tmp_path):
    # the second build has no unsigned __int128 macro: draw_bonds multiplies
    # in 32-bit halves there; the third draws every bond in the plain loop
    for extra in ((), ("-U__SIZEOF_INT128__",), PLAIN_LOOP):
        proc = subprocess.run(
            ["cc", *rowkernel.FLAGS, *extra, "-Wall", "-Wextra", "-o", str(tmp_path / "k.so"),
             str(rowkernel.SOURCE)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == "", (extra, proc.stderr)


@needs_kernel
def test_build_without_int128_draws_the_same_bonds(monkeypatch, use_build):
    use_build(("-U__SIZEOF_INT128__",))
    for n in BOND_COUNTS:
        for p in (0.0, 1.0, 0.3):
            assert kernel_bonds_match_numpy(*twin_generators(n, warm=n % 2), n, p), (n, p)
    rng, ref = make_rng(5), make_rng(5)
    lat = PolymerLattice.sample(64, 0.2, rng)
    assert np.array_equal(lat.measured, ref.random((64, 33, 2)) < 0.2)
    assert rng.bit_generator.state == ref.bit_generator.state
    # two segments: each segment's start state comes from the portable jump-ahead
    monkeypatch.setattr(rowkernel, "THREADS", 2)
    for n in (2 * SEGMENT - 1, 2 * SEGMENT + 5):
        assert kernel_bonds_match_numpy(*twin_generators(n, warm=True), n, 0.3), n


@needs_kernel
@pytest.mark.parametrize("threads", [1, 2])
def test_build_without_lanes_draws_the_same_bonds(monkeypatch, use_build, threads):
    # on a CPU with AVX-512 the default build draws all but each segment's
    # last n % 16 bonds in its lane loop; this build draws them all in the
    # plain loop, here across and past the first split at 2^20 bonds
    use_build(PLAIN_LOOP)
    monkeypatch.setattr(rowkernel, "THREADS", threads)
    for n in BOND_COUNTS + (2 * SEGMENT - 1, 2 * SEGMENT + 5):
        for warm in (False, True):
            assert kernel_bonds_match_numpy(*twin_generators(n, warm), n, 0.3), (n, warm)
    for p in (0.0, 1.0, np.nextafter(0.1, 0)):
        assert kernel_bonds_match_numpy(*twin_generators(7), 2 * SEGMENT + 1, p), p


@needs_kernel
@pytest.mark.parametrize("extra", [("-U__SIZEOF_INT128__",), PLAIN_LOOP], ids=["no_int128", "no_lanes"])
def test_variant_builds_run_the_same_trajectories(monkeypatch, use_build, extra):
    # the plain-loop build has no AVX2 clones of the row loops either
    use_build(extra)
    for L in (2, 34, 64):
        for schedule in LOOP_SCHEDULES:
            for cfg in loop_configs(L, schedule):
                assert_loop_matches_reference(monkeypatch, cfg)


def exported_functions(c_source: str):
    """Names of the functions a C source defines without `static`, one
    definition per line start."""
    return set(re.findall(r"^(?![^(\n]*\bstatic\b)[A-Za-z_][\w \t*]*?\b(\w+)\(", c_source, re.M))


def test_kernel_exports_exactly_what_the_wrapper_calls():
    # -Wall catches a static helper nothing calls; this catches an exported one
    exported = exported_functions(rowkernel.SOURCE.read_text())
    called = set(re.findall(r"\bLIB\.(\w+)", Path(rowkernel.__file__).read_text()))
    assert called and exported == called
    sample = "static int a(int x)\nWIDE static void b(void)\n#define C(r) r\nint d;\nint *e(u64 *t,\n"
    assert exported_functions(sample) == {"e"}


@needs_kernel
def test_build_renames_into_cache_and_warm_load_skips_the_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(rowkernel, "CACHE_DIRS", (tmp_path,))
    assert rowkernel.load() is not None
    name = rowkernel.library_name(rowkernel.SOURCE.read_bytes())
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no temporary file left

    def no_compiler(path):
        raise AssertionError("the compiler ran on a warm cache")

    monkeypatch.setattr(rowkernel, "_compile", no_compiler)
    assert rowkernel.load() is not None
    monkeypatch.undo()

    # a build in the first folder removes its older builds and nothing else
    first, second = tmp_path / "first", tmp_path / "second"
    for folder in (first, second):
        folder.mkdir()
        (folder / "rowkernel-0000000000000000.so").write_bytes(b"stale")
    (first / "notes.txt").write_text("kept")
    monkeypatch.setattr(rowkernel, "CACHE_DIRS", (first, second))
    assert rowkernel.load() is not None
    assert sorted(p.name for p in first.iterdir()) == sorted([name, "notes.txt"])
    # the shared cache keeps other checkouts' builds; chmod does not stop
    # root, so a regular file in the first folder's path sends the build on
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setattr(rowkernel, "CACHE_DIRS", (blocked / "sub", second))
    assert rowkernel.load() is not None
    assert sorted(p.name for p in second.iterdir()) == sorted([name, "rowkernel-0000000000000000.so"])


@needs_kernel
def test_warm_import_needs_no_compiler_on_path():
    # the package's own cache is warm since this process imported it
    src = str(Path(rowkernel.__file__).resolve().parents[1])
    env = dict(os.environ, PATH="", PYTHONPATH=src)
    code = "import negsim.rowkernel as k; print(k.LIB is not None)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout.strip() == "True", proc.stderr


def test_no_compiler_means_numpy_path(tmp_path, monkeypatch):
    monkeypatch.setattr(rowkernel, "CACHE_DIRS", (tmp_path,))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert rowkernel.load() is None
    assert list(tmp_path.iterdir()) == []
