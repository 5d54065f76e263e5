"""negsim benchmark: one workload, timed from outside the package.

    python3 bench/run.py --workload edge_L160 --seed 1 --seconds 20 --trace 0

Runs the workload's plans for --seconds with only unit boundaries
instrumented and prints the end-to-end metrics named in BENCHMARK.json.
Unit times are reported in multiples of a fixed reference kernel's time,
timed between units in the same run (see hostspeed.py), so that they follow
the program rather than the shared host's speed; the seconds are in the
report line.
With --trace 1 it spends half the time on that untraced pass and then
re-runs the same plans with every layer wrapped, prints the per-layer
metrics, and writes the spans to .bench_out/. Outputs are checked after
timing; the last stdout line is the result object, the line before it the
full report (provenance, tail percentile, failures, layer shares).

Exits 2 without a result when the checkout has no src/negsim to measure.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread; set before numpy loads

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # fresh interpreters, besides this process's own set-up


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probes() -> list:
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail("set-up probe failed:\n" + proc.stderr)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def median_setup(runs: list) -> dict:
    med = {k: statistics.median(r[k] for r in runs) for k in ("import_s", "class_tables_s")}
    med["total_s"] = statistics.median(r["import_s"] + r["class_tables_s"] for r in runs)
    return med


def percentile(sorted_x: list, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_x) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_x) - 1)
    return sorted_x[lo] + (sorted_x[hi] - sorted_x[lo]) * (pos - lo)


def latency_summary(seconds) -> dict:
    """Median, and the highest percentile with at least ten units beyond it.

    Below 100 units that percentile would fall under p90 and jump with the
    unit count, so p90 is used, with fewer units beyond it.
    """
    x = sorted(float(v) for v in seconds)
    n = len(x)
    pct = 100.0 * (n - 10) / n if n >= 100 else 90.0
    tail = percentile(x, pct)
    return {"p50_s": statistics.median(x), "tail_s": tail, "tail_percentile": pct,
            "units_beyond_tail": sum(v > tail for v in x), "units": n}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int, np) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = _read(index / "size").strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref:"):
        head = _read(ROOT / ".git" / head.split(None, 1)[1]).strip() or head
    src = hashlib.sha256()
    for path in sorted((SRC / "negsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": head or None,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def layer_values(traced, untraced, setup) -> dict:
    """Per-layer metrics, each per unit of the traced pass."""
    t = traced.tracer
    units = max(t.num_units, 1)
    self_s, calls, counters = t.self_seconds_by_name(), t.calls_by_name(), t.counters
    values = {}
    for name in set(self_s):
        values[f"{name}.self_s"] = self_s[name] / units
        values[f"{name}.calls"] = calls[name] / units
    dephase_calls = calls.get("channels.dephase", 0)
    deletions = counters.get("channels.dephase.deletions", 0.0)
    drawn = counters.get("polymer.bonds.drawn", 0.0)
    values.update({
        "channels.dephase.useful_frac": deletions / dephase_calls if dephase_calls else 0.0,
        "stabilizer.multiply_rows.rows": counters.get("stabilizer.multiply_rows.rows", 0.0) / units,
        "polymer.bonds.drawn": drawn / units,
        "polymer.bonds.reachable_frac": counters.get("polymer.bonds.reachable", 0.0) / drawn if drawn else 0.0,
        "setup.import_s": setup["import_s"],
        "setup.class_tables_s": setup["class_tables_s"],
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "negsim" / "__init__.py").is_file():
        fail(f"no negsim sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    probes = setup_probes()
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import numpy as np
    import negsim

    t1 = time.perf_counter()
    negsim.channels._class_tables()  # lazy set-up is timed by setup_s, not by units
    probes.append({"import_s": t1 - t0, "class_tables_s": time.perf_counter() - t1})
    setup = median_setup(probes)
    if Path(negsim.__file__).resolve().parent != (SRC / "negsim").resolve():
        fail(f"imported negsim from {negsim.__file__}, not from {SRC}")
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, golden_digest, measure

    workload = WORKLOADS[args.workload]()
    first_pass = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, args.seed, first_pass, host=HostSpeed())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [untraced]
    if args.trace:
        runs.append(measure(workload, args.seed, reps=untraced.reps, full=True))

    failures = {}
    for m in runs:
        for unit, reason in m.out.failures.items():
            failures.setdefault(unit, reason)
    digests = [workload.digest(m.out) for m in runs]
    golden = json.loads((HERE / "golden.json").read_text()).get(workload.name)
    golden_ok = True
    if golden is not None:
        got = golden_digest(workload, golden["seed"])
        golden_ok = got == golden["sha256"]
        golden = dict(golden, got=got, ok=golden_ok)

    attempted = max(untraced.tracer.num_units, 1)
    unit_s = untraced.tracer.unit_seconds()
    latency = latency_summary(unit_s)
    # The median divides each unit by the kernel times just before it, since
    # fast and slow spells split a run's units into two groups and the median
    # flips between them. The tail divides by the run's mean kernel time: a
    # single short kernel time is noisy, and the tail would pick out the units
    # that got one.
    local_units = unit_s / untraced.host.local_s(untraced.tracer.unit_start_seconds())
    units_per_s = untraced.tracer.num_units / untraced.wall_s
    ref_s = untraced.host.mean_s
    values = {
        "units_per_ref": units_per_s * ref_s,
        "unit_p50_ref": float(np.median(local_units)),
        "unit_tail_ref": latency["tail_s"] / ref_s,
        "setup_s": setup["total_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    host = {
        "ref_s": ref_s, "kernel_runs": len(untraced.host.durations),
        "kernel_s": untraced.host.total_s, "units_per_s": units_per_s,
    }
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed, np),
        "plans": len(untraced.reps), "wall_s": untraced.wall_s,
        "latency": latency, "host_speed": host, "setup": setup, "end_to_end": values,
        "failed_frac": len(failures) / attempted,
        "failures": dict(list(failures.items())[:5]),
        "errors": [e for m in runs for e in m.out.errors][:3],
        "refusals": untraced.out.refusals,
        "digest": digests[0], "golden": golden,
    }
    if args.trace:
        traced = runs[1]
        values = layer_values(traced, untraced, setup)
        self_s = traced.tracer.self_seconds_by_name()
        total = sum(self_s.values()) or 1.0
        inclusive = traced.tracer.inclusive_seconds_by_name()
        report["layer_self_shares"] = {k: v / total for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
        report["layer_inclusive_shares"] = {k: inclusive[k] / total for k in report["layer_self_shares"]}
        report["traced_digest_matches"] = digests[0] == digests[1]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload.name}-seed{args.seed}.npz"
        traced.tracer.save(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    correct = not failures and golden_ok and len(set(digests)) == 1
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
