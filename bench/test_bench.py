"""The benchmark's own tests, at tiny sizes: python3 -m pytest bench -q"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import negsim  # noqa: E402
from negsim.channels import apply_clifford, dephase, sample_two_qubit_clifford  # noqa: E402
from negsim.gf2 import in_rowspan  # noqa: E402
from negsim.pauli import PauliString, commutes  # noqa: E402
from negsim.polymer import PathQuery, PolymerLattice, enumerate_path_energies  # noqa: E402

import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BulkHistogram,
    EdgeTrajectory,
    PolymerScan,
    SweepCollapse,
    _patch_measure,
    measure,
    reachable_bonds,
)

TINY = {
    "edge_L160": lambda: EdgeTrajectory(L=8, T=24),
    "bulk_L120": lambda: BulkHistogram(L=8),
    "sweep_desk": lambda: SweepCollapse(L_values=(4, 6, 8), samples=2),
    "polymer_w4096": lambda: PolymerScan(widths=(8, 16, 32), samples=3),
}


def _recount(state, site):
    """Case of a Z_site measurement by commutation and row-span membership."""
    L = state.num_qubits
    z = PauliString(L, 0, 1 << site)
    if any(not commutes(g, z) for g in state.generators):
        return "b"
    return "a" if in_rowspan(state.symplectic_int_rows(), 1 << (L + site)) else "c"


def test_measure_case_matches_recount():
    rng = np.random.default_rng(7)
    seen = set()
    with Tracer() as tracer:
        _patch_measure(tracer)
        for L in (2, 4, 6, 8):
            state = negsim.product_state(L)
            for _ in range(300):
                op = rng.integers(3)
                site = int(rng.integers(L))
                if op == 0:
                    i = int(rng.integers(L - 1))
                    state = apply_clifford(state, sample_two_qubit_clifford(rng), i, i + 1)
                elif op == 1:
                    state = dephase(state, site)
                else:
                    expected = _recount(state, site)
                    negsim.circuit._measure_z_inplace(state, site, rng, need_outcome=False)
                    got = tracer.names[tracer.name[-1]]
                    assert got == f"channels.measure.{expected}"
                    seen.add(expected)
    assert seen == {"a", "b", "c"}
    assert negsim.circuit._measure_z_inplace.__module__ == "negsim.channels"


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_outputs_unchanged(name):
    workload = TINY[name]()
    plain = measure(workload, seed=5, reps=range(2))
    traced = measure(workload, seed=5, reps=range(2), full=True)
    assert plain.tracer.num_units == traced.tracer.num_units > 0
    assert not plain.out.failures and not traced.out.failures
    assert workload.digest(plain.out) == workload.digest(traced.out)
    assert len(traced.tracer.names) > len(plain.tracer.names)


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_nonnegative_and_sum_to_unit_time(name):
    tracer = measure(TINY[name](), seed=3, reps=range(2), full=True).tracer
    a = tracer.arrays()
    self_ns = tracer.self_ns()
    assert (self_ns >= 0).all()
    in_unit = a["unit"] >= 0
    per_unit = np.bincount(a["unit"][in_unit], weights=self_ns[in_unit], minlength=tracer.num_units)
    assert np.allclose(per_unit * 1e-9, tracer.unit_seconds(), rtol=0, atol=1e-12)
    assert (tracer.unit_seconds() > 0).all()


def test_host_kernel_runs_outside_units_and_wall():
    workload = TINY["bulk_L120"]()
    host = HostSpeed()
    timed = measure(workload, seed=5, reps=range(2), host=host)
    plain = measure(workload, seed=5, reps=range(2))
    assert 1 <= len(host.durations) <= timed.tracer.num_units
    assert host.mean_s > 0
    starts = timed.tracer.unit_start_seconds()
    assert host.ends[0] <= starts[0] and (np.diff(starts) > 0).all()
    local = host.local_s(starts)
    assert local.shape == starts.shape
    assert min(host.durations) <= local.min() and local.max() <= max(host.durations)
    assert workload.digest(timed.out) == workload.digest(plain.out)
    assert 0 < timed.tracer.unit_seconds().sum() <= timed.wall_s


def test_every_per_layer_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    setup = {"import_s": 1.0, "class_tables_s": 1.0}
    produced = set()
    for make in TINY.values():
        workload = make()
        plain = measure(workload, seed=1, reps=range(1))
        traced = measure(workload, seed=1, reps=range(1), full=True)
        values = run.layer_values(traced, plain, setup)
        produced |= {k for k, v in values.items() if v}
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert wanted <= produced


def test_reachable_bonds_matches_path_enumeration():
    for width in (2, 4, 6, 8, 10):
        height = width // 2
        used = np.zeros((width, height + 1, 2), dtype=bool)

        def walk(x, d):
            if x == width:
                return d == 0
            ok = False
            for step, nd in ((0, d + 1), (1, d - 1)):
                if 0 <= nd <= height and walk(x + 1, nd):
                    used[x, d, step] = ok = True
            return ok

        walk(0, 0)
        assert reachable_bonds(width, height) == used.sum()
        free_elsewhere = PolymerLattice(width, height, ~used, 0.5)
        assert min(enumerate_path_energies(free_elsewhere, PathQuery(0, width))) == width


def test_tail_is_highest_percentile_with_ten_beyond():
    summary = run.latency_summary(np.arange(1.0, 201.0))
    assert summary["tail_percentile"] == 95.0 and summary["units_beyond_tail"] == 10
    assert summary["p50_s"] == 100.5
    short = run.latency_summary(np.arange(1.0, 21.0))
    assert short["tail_percentile"] == 90.0 and short["tail_s"] == 18.1
    assert short["units_beyond_tail"] == 2
