"""Command-line entry points.

Exit codes: 0 success, 2 validation failure (bad flags/config), 3 failed
acceptance-style check (oracle mismatch, missing permutation witness).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from typing import List, Optional


def _config_from_args(cls, args):
    """cls (CircuitConfig or SweepSpec) from the --config JSON file, if any,
    overridden by the flags named after cls's fields; explicit flags win."""
    from .circuit import _config_from_dict

    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError("config file must hold a JSON object")
    for f in dataclasses.fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    return _config_from_dict(cls, merged)


def _emit(lines: List[str], out: Optional[str]) -> int:
    """Print the table and, with --out, write it there too."""
    from .circuit import _write_lines

    print("\n".join(lines))
    if out:
        _write_lines(out, lines)
    return 0


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negsim",
        description="Monitored-circuit negativity simulations and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte Carlo over one circuit configuration")
    run.add_argument("--config", help="JSON file with CircuitConfig keys")
    run.add_argument("--L", type=int)
    run.add_argument("--p", type=float)
    run.add_argument("--T", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--schedule", dest="dephasing_schedule")
    run.add_argument("--samples", type=int)
    run.add_argument("--observables-every", dest="observables_every", type=int)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="grid of (L, p) Monte Carlo cells")
    sweep.add_argument("--config", help="JSON file with SweepSpec keys")
    sweep.add_argument("--L", dest="L_values", type=_int_list)
    sweep.add_argument("--p", dest="p_values", type=_float_list)
    sweep.add_argument("--T", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--schedule", dest="dephasing_schedule")
    sweep.add_argument("--samples", type=int)
    sweep.add_argument("--observables-every", dest="observables_every", type=int)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--verbose", action="store_true")
    sweep.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="system-size fit from a sweep CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--observable", default="E")
    fit.add_argument("--p", type=float, required=True)
    fit.add_argument("--out")

    collapse = sub.add_parser("collapse", help="finite-size-scaling collapse from a sweep CSV")
    collapse.add_argument("--in", dest="infile", required=True)
    collapse.add_argument("--observable", default="I")
    collapse.add_argument("--out")

    polymer = sub.add_parser("polymer", help="directed-polymer KPZ scan")
    polymer.add_argument("--widths", type=_int_list, required=True)
    polymer.add_argument("--p", type=float, required=True)
    polymer.add_argument("--samples", type=int, default=200)
    polymer.add_argument("--seed", type=int, default=0)
    polymer.add_argument("--out")

    permcheck = sub.add_parser("permcheck", help="permutation distance identities and D witness")
    permcheck.add_argument("--n", type=int, required=True)
    permcheck.add_argument("--k", type=int, required=True)

    oracle = sub.add_parser("oracle-check", help="stabilizer engine vs dense oracle")
    oracle.add_argument("--circuits", type=int, default=500)
    oracle.add_argument("--L", type=int, default=4)
    oracle.add_argument("--depth", type=int, default=8)
    oracle.add_argument("--seed", type=int, default=7)

    repro = sub.add_parser("reproduce", help="regenerate figure data")
    repro.add_argument("--figure", required=True)
    repro.add_argument("--scale", default="desk", choices=["desk", "full"])
    repro.add_argument("--seed", type=int, default=2024)
    repro.add_argument("--threads", type=int, default=1)
    repro.add_argument("--out-dir", dest="out_dir", default=".")

    return parser


def _cmd_run(args) -> int:
    from .circuit import CircuitConfig, monte_carlo, write_summary_csv

    cfg = _config_from_args(CircuitConfig, args)
    result = monte_carlo(cfg, threads=args.threads)
    write_summary_csv(result, args.out)
    print(f"wrote {args.out} (stationary={result.stationarity.passed})")
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import SweepSpec, run_sweep, write_sweep_csv

    spec = _config_from_args(SweepSpec, args)
    if args.verbose:  # one line per cell on stderr
        logging.basicConfig(format="%(message)s")
        logging.getLogger("negsim").setLevel(logging.INFO)
    result = run_sweep(spec, threads=args.threads)
    write_sweep_csv(result, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args) -> int:
    from .analysis import power_law_fit, read_sweep_csv, scaling_model_comparison

    rows = read_sweep_csv(args.infile)
    points = [
        (r["L"], r["late_mean"], r["late_stderr"])
        for r in rows
        if r["observable"] == args.observable and abs(r["p"] - args.p) < 1e-9
    ]
    if len(points) < 3:
        raise ValueError(f"found {len(points)} rows for {args.observable} at p={args.p}")
    c1, c2, r2 = power_law_fit(points)
    comparison = scaling_model_comparison(points)
    lines = [
        "c1,c2,r_squared,preferred_model",
        f"{c1:.9g},{c2:.9g},{r2:.9g},{comparison.preferred}",
    ]
    return _emit(lines, args.out)


def _cmd_collapse(args) -> int:
    from .analysis import optimize_collapse, read_sweep_csv, sweep_rows_to_curves

    curves = sweep_rows_to_curves(read_sweep_csv(args.infile), args.observable)
    fit = optimize_collapse(curves)
    lines = ["p_c,nu,objective", f"{fit.p_c:.9g},{fit.nu:.9g},{fit.objective:.9g}"]
    return _emit(lines, args.out)


def _cmd_polymer(args) -> int:
    from .polymer import kpz_scan

    scan = kpz_scan(args.widths, args.p, args.samples, args.seed)
    lines = ["L,mean_energy,var_energy,samples"]
    for i, w in enumerate(scan.widths):
        lines.append(
            f"{w},{scan.mean_energy[i]:.9g},{scan.var_energy[i]:.9g},{scan.samples}"
        )
    if scan.degenerate:
        lines.append(f"# degenerate: {scan.degenerate}")
    else:
        lines.append(
            f"# fit: s0={scan.s0:.9g} s1={scan.s1:.9g} two_beta={scan.two_beta:.9g}"
            f" r2_mean={scan.r2_mean:.9g} r2_var={scan.r2_var:.9g}"
        )
    return _emit(lines, args.out)


def _cmd_permcheck(args) -> int:
    from .polymer import block_cyclic, cayley_distance, find_intermediate_D, Permutation

    n, k = args.n, args.k
    r = n * k + 1
    ident = Permutation.identity(r)
    c = block_cyclic(n, k)
    cbar = block_cyclic(n, k, inverse=True)
    print(f"r = {r}")
    print(f"|C| = {cayley_distance(ident, c)} (expect k(n-1) = {k * (n - 1)})")
    print(
        f"|C^-1 Cbar| = {cayley_distance(c, cbar)} (expect k(n-2) = {k * (n - 2)})"
    )
    witness = find_intermediate_D(n, k)
    if witness is None:
        print("no D witness found")
        return 3
    print(f"D witness (one-line, 0-based): {witness.mapping}")
    print(f"|D| = {cayley_distance(ident, witness)} (expect kn/2 = {k * n // 2})")
    print(
        f"|C^-1 D| = {cayley_distance(c, witness)}, |Cbar^-1 D| = "
        f"{cayley_distance(cbar, witness)} (expect k(n/2-1) = {k * (n // 2 - 1)})"
    )
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracle import oracle_check_suite

    report = oracle_check_suite(
        seed=args.seed, circuits=args.circuits, L=args.L, depth=args.depth
    )
    print(
        f"{report.circuits} circuits, {report.comparisons} layer comparisons; "
        f"max dev entropy={report.max_entropy_dev:.3g} negativity={report.max_negativity_dev:.3g} "
        f"purity={report.max_mupurity_dev:.3g}"
    )
    if not report.ok:
        for line in report.failures[:20]:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 3
    print("oracle check passed")
    return 0


def _cmd_reproduce(args) -> int:
    from .analysis import reproduce_figure

    paths = reproduce_figure(
        args.figure, scale=args.scale, out_dir=args.out_dir, seed=args.seed, threads=args.threads
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
    "collapse": _cmd_collapse,
    "polymer": _cmd_polymer,
    "permcheck": _cmd_permcheck,
    "oracle-check": _cmd_oracle_check,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
