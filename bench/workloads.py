"""The four benchmark workloads, their output checks and output digests.

Every workload drives negsim's public entry points through module attribute
lookups (``negsim.circuit.run_trajectory`` and so on), so the wrappers that
``instrument`` installs are the functions that run. Inputs come only from the
workload seed: the program receives the generated configs and generators.

A *plan* is one call the benchmark makes (a trajectory, a sweep, a scan); a
*unit* is what the throughput counts (a trajectory, a lattice sample). A run
executes plans until its time is up, then checks every unit's output.
"""

from __future__ import annotations

import hashlib
import itertools
import time
import traceback
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import negsim
import negsim.analysis
import negsim.channels
import negsim.circuit
import negsim.entanglement
import negsim.polymer
import negsim.stabilizer

from hostspeed import HostSpeed
from tracing import Tracer

TOL = 1e-9


def derived_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, rep]).generate_state(1, np.uint64)[0] >> 1)


def measure_case(anticommuting_before: bool, k_before: int, k_after: int) -> str:
    """Z-measurement case from the state around the call: (b) some generator
    anticommutes, (c) the outcome row was appended, (a) deterministic."""
    if anticommuting_before:
        return "b"
    return "c" if k_after > k_before else "a"


@lru_cache(maxsize=None)
def reachable_bonds(width: int, height: int) -> int:
    """Bonds of a (width, height) polymer lattice that some pinned path uses.

    A path at column x sits at depth d <= min(x, width - x) with d = x mod 2;
    its down bond needs d + 1 <= min(height, width - x - 1), its up bond d >= 1.
    """
    x = np.arange(width)[:, None]
    d = np.arange(height + 1)[None, :]
    on_path = (d <= np.minimum(x, width - x)) & ((d - x) % 2 == 0)
    down = on_path & (d + 1 <= np.minimum(height, width - x - 1))
    up = on_path & (d >= 1)
    return int(down.sum() + up.sum())


@dataclass
class Outputs:
    """What one run produced, filled by plan code and wrapper hooks."""

    caught: list = field(default_factory=list)  # warnings.catch_warnings record
    trajectories: Dict[int, Tuple[int, object]] = field(default_factory=dict)
    lengths: Dict[int, np.ndarray] = field(default_factory=dict)
    energies: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    rng_states: Dict[int, Tuple[int, float, dict]] = field(default_factory=dict)
    plans: List[Tuple[int, int, int, object]] = field(default_factory=list)
    failures: Dict[int, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    refusals: int = 0

    def fail(self, units, reason: str) -> None:
        for u in units:
            self.failures.setdefault(u, reason)


def _engine_warnings(caught, start: int) -> List[str]:
    return [
        str(w.message)
        for w in caught[start:]
        if issubclass(w.category, RuntimeWarning) and w.filename.endswith("entanglement.py")
    ]


def _table_lines(table: np.ndarray) -> List[str]:
    return [",".join(f"{v:.9g}" for v in row) for row in table]


def check_table(table: np.ndarray, L: int) -> Optional[str]:
    """None, or the first violated bound on a (n_times, 6) observable table."""
    s_a, s_b, s_ab, e, i, plog = table.T
    k = L + plog
    if np.any(e < 0) or np.any(2 * e > i + TOL):
        return "0 <= 2E <= I violated"
    half = L // 2
    if np.any(s_a < 0) or np.any(s_a > half) or np.any(s_b < 0) or np.any(s_b > half):
        return "0 <= S <= L/2 violated"
    if np.any(s_ab != -plog):
        return "S_AB differs from L - k"
    if np.any(plog > 0) or np.any(k < 0) or np.any(k > L):
        return "purity_log2 <= 0 or 0 <= k <= L violated"
    return None


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    opens: Tuple[str, ...] = ("circuit.run_trajectory",)
    joins: Tuple[str, ...] = ()
    golden_plans = 1

    def run_plan(self, seed: int, rep: int, out: Outputs) -> None:
        raise NotImplementedError

    def check(self, out: Outputs) -> None:
        for unit, (L, res) in out.trajectories.items():
            problem = check_table(res.table(), L)
            if problem:
                out.fail([unit], problem)

    def digest(self, out: Outputs) -> str:
        h = hashlib.sha256()
        for line in self.digest_lines(out):
            h.update(line.encode() + b"\n")
        return h.hexdigest()

    def digest_lines(self, out: Outputs):
        for unit in sorted(out.trajectories):
            yield from _table_lines(out.trajectories[unit][1].table())

    # -- instrumentation -----------------------------------------------------

    def instrument(self, tracer: Tracer, out: Outputs, full: bool) -> None:
        """Units-only wrappers always; every layer's wrapper when full."""

        def before_traj(args):
            return len(out.caught)

        def after_traj(args, result, start):
            unit = tracer.num_units - 1
            out.trajectories[unit] = (args[0].L, result)
            problems = _engine_warnings(out.caught, start)
            if problems:
                out.fail([unit], "RuntimeWarning: " + problems[0])

        tracer.patch(
            negsim.circuit, "run_trajectory", "circuit.run_trajectory",
            before=before_traj, after=after_traj,
        )
        if full:
            instrument_layers(tracer)


def instrument_layers(tracer: Tracer) -> None:
    """Wrap every engine layer under the name the per-layer metrics use."""
    circuit, ent, ss = negsim.circuit, negsim.entanglement, negsim.stabilizer
    tracer.patch(circuit, "_apply_tables_inplace", "channels.gates")
    _patch_measure(tracer)

    def dephase_after(args, result, k0):
        if args[0].num_generators < k0:
            tracer.counters["channels.dephase.deletions"] += 1

    tracer.patch(
        circuit, "_dephase_inplace", "channels.dephase",
        before=lambda args: args[0].num_generators, after=dephase_after,
    )

    def count_rows(args):
        tracer.counters["stabilizer.multiply_rows.rows"] += len(args[2])

    tracer.patch(ss.StabilizerState, "_multiply_rows", "stabilizer.multiply_rows", before=count_rows)
    tracer.patch(ss.StabilizerState, "symplectic_int_rows", "stabilizer.symplectic_int_rows")
    tracer.patch(negsim.channels, "solve_int_rows", "gf2.solve")
    tracer.patch(ent, "rank_int_rows", "gf2.rank")
    tracer.patch(ent, "bits_to_int_rows", "gf2.pack")
    tracer.patch(ss, "bits_to_int_rows", "gf2.pack")
    tracer.patch(ent, "parity_matmul", "gf2.matmul")
    tracer.patch(ent, "canonicalize", "stabilizer.canonicalize")
    tracer.patch(ent, "entropy", "entanglement.entropy")
    tracer.patch(ent, "negativity", "entanglement.negativity")
    tracer.patch(negsim.analysis, "monte_carlo", "circuit.monte_carlo")
    tracer.patch(negsim.analysis, "run_sweep", "analysis.run_sweep")
    tracer.patch(negsim.analysis, "optimize_collapse", "analysis.optimize_collapse")
    tracer.patch(negsim.polymer, "kpz_scan", "polymer.kpz_scan")


def _patch_measure(tracer: Tracer) -> None:
    """_measure_z_inplace under channels.measure.{a,b,c}; the case is read
    from the state before and after, outside the span."""
    circuit = negsim.circuit
    original = circuit._measure_z_inplace
    ids = {c: tracer.name_id(f"channels.measure.{c}") for c in "abc"}
    open_, close, names = tracer.open, tracer.close, tracer.name

    def traced(state, site, *args, **kwargs):
        anti = bool(state._x[:, site].any())
        k0 = state._x.shape[0]
        i = open_(ids["a"])
        try:
            return original(state, site, *args, **kwargs)
        finally:
            close(i)
            names[i] = ids[measure_case(anti, k0, state._x.shape[0])]

    tracer.replace(circuit, "_measure_z_inplace", traced)


class EdgeTrajectory(Workload):
    name = "edge_L160"

    def __init__(self, L: int = 160, p: float = 0.1, T: Optional[int] = None):
        self.L, self.p, self.T = L, p, T

    def config(self, seed: int):
        return negsim.CircuitConfig(
            L=self.L, p=self.p, T=self.T, seed=seed,
            dephasing_schedule="boundary_even_steps", observables_every=4,
        )

    def run_plan(self, seed, rep, out):
        negsim.circuit.run_trajectory(self.config(seed), rep)


class BulkHistogram(Workload):
    name = "bulk_L120"
    joins = ("entanglement.length_distribution",)

    def __init__(self, L: int = 120, p: float = 0.1):
        self.L, self.p = L, p

    def config(self, seed: int):
        return negsim.CircuitConfig(
            L=self.L, p=self.p, seed=seed,
            dephasing_schedule="random_sites(2)", observables_every=4 * self.L,
        )

    def instrument(self, tracer, out, full):
        super().instrument(tracer, out, full)
        tracer.patch(
            negsim.entanglement, "length_distribution", "entanglement.length_distribution",
            after=lambda args, counts, ctx: out.lengths.__setitem__(tracer.num_units - 1, counts),
        )

    def run_plan(self, seed, rep, out):
        res = negsim.circuit.run_trajectory(self.config(seed), rep, keep_final_state=True)
        negsim.entanglement.length_distribution(res.final_state)
        res.final_state = None  # the kept result only needs its observable table

    def check(self, out):
        super().check(out)
        for unit, counts in out.lengths.items():
            L, res = out.trajectories[unit]
            k = L + int(res.table()[-1, 5])
            if counts.shape != (L + 1,) or counts[0] != 0 or counts.min() < 0 or counts.sum() > k:
                out.fail([unit], "length histogram inconsistent with k")
        for unit in set(out.trajectories) - set(out.lengths):
            out.fail([unit], "no length histogram")

    def digest_lines(self, out):
        yield from super().digest_lines(out)
        for unit in sorted(out.lengths):
            yield ",".join(str(int(c)) for c in out.lengths[unit])


DESK_P = tuple(float(p) for p in np.round(np.linspace(0.10, 0.245, 7), 9))


class SweepCollapse(Workload):
    name = "sweep_desk"

    def __init__(self, L_values=(16, 24, 32), p_values=DESK_P, samples: int = 4):
        self.L_values, self.p_values, self.samples = tuple(L_values), tuple(p_values), samples

    def spec(self, seed: int, rep: int):
        return negsim.SweepSpec(
            L_values=list(self.L_values), p_values=list(self.p_values),
            seed=derived_seed(seed, rep), samples=self.samples,
        )

    def run_plan(self, seed, rep, out):
        result = negsim.analysis.run_sweep(self.spec(seed, rep))
        try:
            fit = negsim.analysis.optimize_collapse(result.curves("I"))
        except ValueError as exc:
            # The documented refusal when noisy few-sample curves pin the
            # optimum to the edge of the p range (about 1 sweep in 20 at 4
            # samples): a correct answer for that input, counted separately.
            if "pinned to the swept edge" not in str(exc):
                raise
            fit = None
            out.refusals += 1
        out.plans[-1] = out.plans[-1][:3] + ((result, fit),)

    def check(self, out):
        super().check(out)
        for _, first, end, value in out.plans:
            if value is None:
                continue
            result, fit = value
            lo, hi = min(self.p_values), max(self.p_values)
            if fit is not None and not (lo <= fit.p_c <= hi and 0.5 <= fit.nu <= 2.0
                    and np.isfinite(fit.objective) and fit.objective >= 0):
                out.fail(range(first, end), "collapse fit out of range")
            for cell in result.cells:
                m = cell.late_mean
                if m["E"] < 0 or 2 * m["E"] > m["I"] + TOL or not 0 <= m["S_A"] <= cell.L / 2:
                    out.fail(range(first, end), "sweep cell mean out of bounds")

    def digest_lines(self, out):
        yield from super().digest_lines(out)
        for _, _, _, value in out.plans:
            if value is None:
                yield "failed"
                continue
            result, fit = value
            for c in result.cells:
                for name in sorted(c.late_mean):
                    yield (f"{c.L},{c.p:.9g},{name},{c.late_mean[name]:.9g},"
                           f"{c.late_stderr[name]:.9g},{c.samples},{int(c.stationary)}")
            yield f"{fit.p_c:.9g},{fit.nu:.9g},{fit.objective:.9g}" if fit else "collapse refused"


class PolymerScan(Workload):
    name = "polymer_w4096"
    opens = ("polymer.sample",)
    joins = ("polymer.dp",)
    golden_plans = 0  # its RNG stream is allowed to change; energies are cross-checked
    cross_check_every = 32

    def __init__(self, widths=(1024, 2048, 4096), samples: int = 8, p: float = 0.1):
        self.widths, self.samples, self.p = tuple(widths), samples, p

    def instrument(self, tracer, out, full):
        def keep_state(args):
            unit = tracer.num_units
            if unit % self.cross_check_every == 0:
                _, width, p, rng = args[:4]
                out.rng_states[unit] = (width, p, rng.bit_generator.state)

        def count_bonds(args, lat, ctx):
            tracer.counters["polymer.bonds.drawn"] += lat.measured.size
            tracer.counters["polymer.bonds.reachable"] += reachable_bonds(lat.width, lat.height)

        def keep_energy(args, energy, ctx):
            out.energies[tracer.num_units - 1] = (args[0].width, int(energy))

        for w in self.widths:
            reachable_bonds(w, w // 2)
        if full:
            instrument_layers(tracer)
        tracer.patch(
            negsim.polymer.PolymerLattice, "sample", "polymer.sample",
            before=keep_state, after=count_bonds if full else None,
        )
        tracer.patch(negsim.polymer, "_min_energy", "polymer.dp", after=keep_energy)

    def run_plan(self, seed, rep, out):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, rep])))
        scan = negsim.polymer.kpz_scan(self.widths, self.p, self.samples, rng)
        out.plans[-1] = out.plans[-1][:3] + (scan,)

    def check(self, out):
        for unit, (w, e) in out.energies.items():
            if not 0 <= e <= w:
                out.fail([unit], f"energy {e} outside [0, {w}]")
        for _, first, end, scan in out.plans:
            if scan is None:
                continue
            got = np.array([out.energies[u][1] for u in range(first, end)], dtype=np.float64)
            got = got.reshape(len(self.widths), self.samples)
            if not (np.array_equal(got.mean(axis=1), scan.mean_energy)
                    and np.array_equal(got.var(axis=1, ddof=1), scan.var_energy)):
                out.fail(range(first, end), "scan moments differ from the sampled energies")
        for unit, (w, p, state) in out.rng_states.items():
            if unit not in out.energies:
                continue
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            lat = negsim.polymer.PolymerLattice.sample(w, p, rng)
            energy, _ = negsim.polymer.min_path_energy(lat, negsim.polymer.PathQuery(0, w))
            if energy != out.energies[unit][1]:
                out.fail([unit], "forward DP disagrees with the suffix DP")

    def digest_lines(self, out):
        for unit in sorted(out.energies):
            yield "%d,%d" % out.energies[unit]


WORKLOADS = {w.name: w for w in (EdgeTrajectory, BulkHistogram, SweepCollapse, PolymerScan)}


# -- running -------------------------------------------------------------------------


@dataclass
class Measurement:
    tracer: Tracer
    out: Outputs
    wall_s: float  # time in plans; the host-speed kernel's runs are not in it
    reps: List[int]
    host: Optional[HostSpeed] = None


def measure(
    workload: Workload,
    seed: int,
    seconds: float = 0.0,
    reps: Optional[Sequence[int]] = None,
    full: bool = False,
    host: Optional[HostSpeed] = None,
) -> Measurement:
    """Run plans until `seconds` have passed (or exactly `reps`), instrumented
    for units only or, with full=True, for every layer. With `host`, its
    kernel runs before units start, outside their spans and the wall time."""
    tracer = Tracer(opens=workload.opens, joins=workload.joins)
    if host is not None:
        tracer.on_unit = host.tick
    out = Outputs()
    done: List[int] = []
    with warnings.catch_warnings(record=True) as caught, tracer:
        warnings.simplefilter("always")
        out.caught = caught
        workload.instrument(tracer, out, full)
        start = time.perf_counter()
        for rep in (reps if reps is not None else itertools.count()):
            if reps is None and time.perf_counter() - start >= seconds:
                break
            first = tracer.num_units
            out.plans.append((rep, first, first, None))
            try:
                workload.run_plan(seed, rep, out)
            except Exception:  # a failed plan fails its units; the run goes on
                out.errors.append(traceback.format_exc(limit=3))
                out.fail(range(first, max(tracer.num_units, first + 1)), "plan raised")
            out.plans[-1] = (rep, first, tracer.num_units) + out.plans[-1][3:]
            done.append(rep)
        wall = time.perf_counter() - start - (host.total_s if host is not None else 0.0)
    workload.check(out)
    return Measurement(tracer, out, wall, done, host)


def golden_digest(workload: Workload, seed: int) -> str:
    """Digest of the first plans at the recorded seed (see golden.json)."""
    m = measure(workload, seed, reps=range(workload.golden_plans))
    return workload.digest(m.out)
