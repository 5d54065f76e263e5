"""The compiled row kernel against the numpy code it stands in for.

Each update must leave the same tableau bits and stabilizer mask as the
numpy path after every operation, and count the same random outcomes; each
rank must equal the int-row elimination's; each polymer energy must equal
the numpy DP's, or fail with the same ValueError. The numpy side runs with
rowkernel.LIB set to None.
"""

import copy
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from negsim import polymer, rowkernel
from negsim.channels import (
    _apply_layer,
    _apply_tables_inplace,
    _class_tables,
    _dephase_inplace,
    _measure_z_inplace,
    make_rng,
)
from negsim.entanglement import Bipartition, entropy, negativity, record_observables
from negsim.gf2 import bits_to_int_rows, rank_int_rows
from negsim.polymer import PathQuery, PolymerLattice
from negsim.stabilizer import StabilizerState, product_state, validate

HAS_CC = shutil.which("cc") is not None
needs_kernel = pytest.mark.skipif(rowkernel.LIB is None, reason="no compiled row kernel")


def random_op(rng, L):
    """One operation as a function of the state: a gate layer on random
    disjoint site pairs, a Z measurement through the runner's layer call
    (returning 1 when its outcome is random) or a dephasing of column c or
    L + c."""
    kind = int(rng.integers(3))
    if kind == 0:
        sites = rng.permutation(L)
        m = int(rng.integers(1, L // 2 + 1))
        maps = _class_tables()[rng.integers(720, size=m)]
        return lambda state: _apply_tables_inplace(state, maps, sites[:m], sites[m : 2 * m])
    if kind == 1:
        site = int(rng.integers(L))
        return lambda state: _apply_layer(state, (), None, [site])
    column = int(rng.integers(2 * L))
    return lambda state: _dephase_inplace(state, column)


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
            assert rowkernel.region_rank(state, region) == want
            assert entropy(state, region) == without_kernel(monkeypatch, entropy, state, region)
            order = rng.permutation(L)  # A and B need not cover the chain
            size_a = int(rng.integers(1, L))
            size_b = int(rng.integers(1, L - size_a + 1))
            bp = Bipartition(order[:size_a].tolist(), order[size_a : size_a + size_b].tolist())
            before = state.copy()
            got = negativity(state, bp)
            assert got == without_kernel(monkeypatch, negativity, state, bp)
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
    return sum(bool(_measure_z_inplace(state, site, None, need_outcome=False)) for site in sites)


@needs_kernel
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("schedule", ["boundary", "random_sites"])
@pytest.mark.parametrize("L", [2, 32, 33, 64, 65, 160])
def test_layer_call_matches_per_op_numpy_sequence(monkeypatch, L, schedule, p):
    rng = make_rng(7 * L + int(10 * p))
    fast = product_state(L, signed=False)
    slow = fast.copy()
    for t, call in enumerate(layer_calls(L, p, schedule, 60, rng)):
        assert _apply_layer(fast, *call) == without_kernel(monkeypatch, per_op_numpy, slow, *call), t
        assert fast._stab == slow._stab, t
        assert np.array_equal(fast._cols, slow._cols), t
    assert validate(fast) is None


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
    maps = tables[[0]]
    calls = [
        lambda: rowkernel.dephase(state, 10),
        lambda: rowkernel.apply_gates(state, maps, [4], [5]),
        lambda: rowkernel.apply_gates(state, maps[[0, 0]], [0, 2], [1, -3]),
        lambda: rowkernel.region_rank(state, [0, 5]),
        lambda: rowkernel.negativity_rank(state, [-1]),
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
    with pytest.raises(ValueError):
        rowkernel.apply_gates(state, maps, [0, 2], [1, 3])  # one map for two gates


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


@needs_kernel
def test_kernel_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["cc", *rowkernel.FLAGS, "-Wall", "-Wextra", "-o", str(tmp_path / "k.so"),
         str(rowkernel.SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


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
