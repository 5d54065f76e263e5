"""Statistics over circuit sweeps: power-law fits, finite-size collapse,
and reproducible figure-data pipelines.

A sweep CSV leads with the generating configuration and its hash
(circuit._config_line); a figure file leads with a `# figure=... params=...`
note. Floats carry 9 significant digits.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import _check_integers, _check_probability
from .circuit import (
    CircuitConfig,
    _config_line,
    _write_lines,
    monte_carlo,
    run_trajectory,
)
from .entanglement import length_distribution

log = logging.getLogger(__name__)

__all__ = [
    "power_law_fit",
    "ModelComparison",
    "scaling_model_comparison",
    "Curve",
    "collapse_objective",
    "CollapseFit",
    "optimize_collapse",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "write_sweep_csv",
    "read_sweep_csv",
    "reproduce_figure",
]


# -- fits ------------------------------------------------------------------------


def _weighted_lstsq(design: np.ndarray, y: np.ndarray, stderr: np.ndarray):
    if np.any(stderr > 0):
        w = np.where(stderr > 0, 1.0 / np.maximum(stderr, 1e-300), 0.0)
        w[stderr <= 0] = w[w > 0].max() if np.any(w > 0) else 1.0
    else:
        w = np.ones_like(y)
    coef, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    fitted = design @ coef
    resid = y - fitted
    wrss = float((w**2 * resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return coef, r2, wrss


def power_law_fit(
    points: Sequence[Tuple[float, float, float]],
) -> Tuple[float, float, float]:
    """Weighted LSQ of y on (L^(1/3), 1); returns (c1, c2, r_squared)."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    arr = np.asarray(points, dtype=np.float64)
    L, y, err = arr[:, 0], arr[:, 1], arr[:, 2]
    design = np.column_stack([np.cbrt(L), np.ones_like(L)])
    coef, r2, _ = _weighted_lstsq(design, y, err)
    return float(coef[0]), float(coef[1]), r2


@dataclass(frozen=True)
class ModelComparison:
    """Weighted residuals of the three candidate scaling forms."""

    wrss_cuberoot: float
    wrss_linear: float
    wrss_log: float
    r2_cuberoot: float
    r2_linear: float
    r2_log: float

    @property
    def preferred(self) -> str:
        best = min(
            ("cuberoot", self.wrss_cuberoot),
            ("linear", self.wrss_linear),
            ("log", self.wrss_log),
            key=lambda kv: kv[1],
        )
        return best[0]


def scaling_model_comparison(
    points: Sequence[Tuple[float, float, float]],
) -> ModelComparison:
    """Compare y ~ a*L^(1/3)+b against pure-linear and pure-log alternatives."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    arr = np.asarray(points, dtype=np.float64)
    L, y, err = arr[:, 0], arr[:, 1], arr[:, 2]
    ones = np.ones_like(L)
    out = {}
    for name, column in (("cuberoot", np.cbrt(L)), ("linear", L), ("log", np.log(L))):
        _, r2, wrss = _weighted_lstsq(np.column_stack([column, ones]), y, err)
        out[name] = (wrss, r2)
    return ModelComparison(
        wrss_cuberoot=out["cuberoot"][0],
        wrss_linear=out["linear"][0],
        wrss_log=out["log"][0],
        r2_cuberoot=out["cuberoot"][1],
        r2_linear=out["linear"][1],
        r2_log=out["log"][1],
    )


# -- finite-size-scaling collapse --------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """One system size's observable versus measurement rate."""

    L: int
    p: np.ndarray
    y: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        order = np.argsort(self.p)
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float)[order])
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float)[order])
        object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float)[order])
        if self.p.size < 2:
            raise ValueError("curves need at least 2 points")
        if np.unique(self.p).size != self.p.size:
            raise ValueError("duplicate p values on one curve")


def collapse_objective(curves: Sequence[Curve], p_c: float, nu: float) -> float:
    """Master-curve residual of the scaled data.

    Each curve is shifted by its own interpolated value at p_c and the
    abscissa rescaled to (p - p_c) L^(1/nu). Every point is then compared
    with the piecewise-linear interpolant through the points of the *other*
    curves that bracket it; the cost is the variance-weighted mean square
    deviation. A single curve therefore collapses to cost 0 by construction.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    scaled = []
    for c in curves:
        if not (c.p[0] <= p_c <= c.p[-1]):
            raise ValueError(f"p_c = {p_c} outside the data range of L = {c.L}")
        shift = float(np.interp(p_c, c.p, c.y))
        x = (c.p - p_c) * c.L ** (1.0 / nu)
        scaled.append((x, c.y - shift, c.stderr))

    total = 0.0
    count = 0
    for idx, (x, y, err) in enumerate(scaled):
        others = [scaled[j] for j in range(len(scaled)) if j != idx]
        if not others:
            continue
        other_x = np.concatenate([o[0] for o in others])
        if other_x.size < 2:
            continue
        other_y = np.concatenate([o[1] for o in others])
        other_e = np.concatenate([o[2] for o in others])
        order = np.argsort(other_x)
        ox, oy, oe = other_x[order], other_y[order], other_e[order]
        for xi, yi, ei in zip(x, y, err):
            hi = np.searchsorted(ox, xi)
            if hi == 0 or hi == ox.size:
                continue  # outside the others' span: no master estimate
            lo = hi - 1
            t = (xi - ox[lo]) / (ox[hi] - ox[lo]) if ox[hi] > ox[lo] else 0.5
            y_bar = (1 - t) * oy[lo] + t * oy[hi]
            var_bar = (1 - t) ** 2 * oe[lo] ** 2 + t**2 * oe[hi] ** 2
            denom = ei**2 + var_bar
            total += (yi - y_bar) ** 2 / denom if denom > 0 else (yi - y_bar) ** 2
            count += 1
    return total / count if count else 0.0


@dataclass
class CollapseFit:
    p_c: float
    nu: float
    objective: float
    trace: List[Tuple[float, float, float]] = field(default_factory=list)


def _nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int) -> Tuple[np.ndarray, float]:
    """Minimise func from x0 by the Nelder-Mead simplex; returns (x, f(x)).

    A transcription of scipy.optimize's `_minimize_neldermead` (scipy 1.17)
    for the options `optimize_collapse` uses (no bounds, the standard
    coefficients, no limit on calls), so it takes the same steps and returns
    the same point as `minimize(func, x0, method="Nelder-Mead", options=...)`.
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers;
    BSD 3-Clause License.
    """
    x0 = np.atleast_1d(x0).flatten()
    dtype = x0.dtype if np.issubdtype(x0.dtype, np.inexact) else np.float64
    x0 = np.asarray(x0, dtype=dtype)
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    def f(x):
        return func(np.copy(x))  # func gets a copy of each vertex, as in scipy

    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        doshrink = 0
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:  # contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def optimize_collapse(
    curves: Sequence[Curve],
    nu_range: Tuple[float, float] = (0.5, 2.0),
    grid: Tuple[int, int] = (25, 16),
) -> CollapseFit:
    """Grid search over (p_c, nu) followed by simplex refinement.

    p_c is scanned over the interior of the p-range common to all curves.
    Raises if fewer than 3 sizes are supplied or if the optimum pins to the
    edge of the swept range (data not straddling the transition).
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 system sizes")
    if len({c.L for c in curves}) != len(curves):
        raise ValueError("duplicate system sizes")
    p_lo = max(float(c.p[0]) for c in curves)
    p_hi = min(float(c.p[-1]) for c in curves)
    if not p_lo < p_hi:
        raise ValueError("curves share no common p range")

    trace: List[Tuple[float, float, float]] = []
    margin = 0.02 * (p_hi - p_lo)
    p_grid = np.linspace(p_lo + margin, p_hi - margin, grid[0])
    nu_grid = np.linspace(nu_range[0], nu_range[1], grid[1])
    best = (float("inf"), p_grid[0], nu_grid[0])
    for pc in p_grid:
        for nu in nu_grid:
            cost = collapse_objective(curves, pc, nu)
            trace.append((float(pc), float(nu), cost))
            if cost < best[0]:
                best = (cost, float(pc), float(nu))

    def clamped(v: np.ndarray) -> float:
        pc, nu = float(v[0]), float(v[1])
        if not (p_lo + margin <= pc <= p_hi - margin) or not (
            nu_range[0] <= nu <= nu_range[1]
        ):
            return float("inf")
        return collapse_objective(curves, pc, nu)

    x, fun = _nelder_mead(clamped, np.array([best[1], best[2]]), xatol=1e-5, fatol=1e-10, maxiter=400)
    p_c, nu = float(x[0]), float(x[1])
    cost = float(fun)
    if cost > best[0]:  # simplex wandered off; keep the grid optimum
        p_c, nu, cost = best[1], best[2], best[0]
    trace.append((p_c, nu, cost))
    span = p_hi - p_lo
    if min(p_c - p_lo, p_hi - p_c) < 0.03 * span:
        raise ValueError("optimum pinned to the swept edge: p range does not straddle the transition")
    return CollapseFit(p_c=p_c, nu=nu, objective=cost, trace=trace)


# -- sweeps ------------------------------------------------------------------------


def _cell_seed(base_seed: int, L: int, p: float) -> int:
    blob = f"{base_seed}:{L}:{p:.9g}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little") >> 1


@dataclass
class SweepSpec:
    L_values: Sequence[int]
    p_values: Sequence[float]
    seed: int = 0
    samples: int = 100
    T: Optional[int] = None  # None: 4L per system size
    dephasing_schedule: str = "boundary_even_steps"
    observables_every: int = 1

    def __post_init__(self):
        # L, p and seed are checked before _cell_seed formats them; each
        # cell's CircuitConfig checks the other fields
        for name, values in (("L_values", self.L_values), ("p_values", self.p_values)):
            if not isinstance(values, (list, tuple, np.ndarray)):
                raise ValueError(f"{name} must be a list, tuple or array, got {values!r}")
        _check_integers(seed=self.seed, **{f"L_values[{i}]": L for i, L in enumerate(self.L_values)})
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_probability(**{f"p_values[{i}]": p for i, p in enumerate(self.p_values)})
        if len(self.L_values) == 0 or len(self.p_values) == 0:
            raise ValueError("L_values and p_values must be non-empty")
        # a repeated cell would run twice under one seed and be written twice;
        # p values are keyed (seed and CSV) by their 9-digit form
        if len(set(self.L_values)) < len(self.L_values):
            raise ValueError(f"L_values must not repeat a value, got {list(self.L_values)}")
        if len({f"{p:.9g}" for p in self.p_values}) < len(self.p_values):
            raise ValueError(
                f"p_values must differ to 9 significant digits, got {list(self.p_values)}"
            )
        self.configs()  # validate every cell eagerly

    def configs(self) -> List[CircuitConfig]:
        return [
            CircuitConfig(
                L=L,
                p=p,
                T=self.T,
                seed=_cell_seed(self.seed, L, p),
                dephasing_schedule=self.dephasing_schedule,
                samples=self.samples,
                observables_every=self.observables_every,
            )
            for L in self.L_values
            for p in self.p_values
        ]


@dataclass
class SweepCell:
    L: int
    p: float
    samples: int
    stationary: bool
    late_mean: Dict[str, float]
    late_stderr: Dict[str, float]


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: List[SweepCell]

    def cell(self, L: int, p: float) -> SweepCell:
        for c in self.cells:
            if c.L == L and abs(c.p - p) < 1e-12:
                return c
        raise KeyError((L, p))

    def fit_points(self, observable: str, p: float) -> List[Tuple[float, float, float]]:
        return [
            (c.L, c.late_mean[observable], c.late_stderr[observable])
            for c in self.cells
            if abs(c.p - p) < 1e-12
        ]

    def curves(self, observable: str) -> List[Curve]:
        return _curves(
            (c.L, c.p, c.late_mean[observable], c.late_stderr[observable])
            for c in self.cells
        )


def _curves(points: Iterable[Tuple[int, float, float, float]]) -> List[Curve]:
    """One Curve per L, in increasing L, from (L, p, y, stderr) points."""
    by_L: Dict[int, List[Tuple[float, float, float]]] = {}
    for L, p, y, err in points:
        by_L.setdefault(L, []).append((p, y, err))
    curves = []
    for L in sorted(by_L):
        p, y, err = (np.array(col) for col in zip(*by_L[L]))
        curves.append(Curve(L=L, p=p, y=y, stderr=err))
    return curves


def _pool(threads: int):
    """One process pool for a whole sweep or figure, or none for threads <= 1."""
    if threads <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=threads)


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Monte Carlo over every (L, p) cell on one shared process pool; logs
    one INFO line per cell with the elapsed time and an ETA. The ETA runs
    the remaining cells at the finished cells' rate per unit of work,
    samples x L x steps."""
    configs = spec.configs()
    work = [cfg.samples * cfg.L * cfg.steps for cfg in configs]
    cells = []
    sweep_start = time.perf_counter()
    with _pool(threads) as pool:
        for n, cfg in enumerate(configs, 1):
            start = time.perf_counter()
            mc = monte_carlo(cfg, threads=threads, executor=pool)
            cells.append(
                SweepCell(
                    L=cfg.L,
                    p=cfg.p,
                    samples=cfg.samples,
                    stationary=mc.stationarity.passed,
                    late_mean=mc.late_mean,
                    late_stderr=mc.late_stderr,
                )
            )
            now = time.perf_counter()
            elapsed = now - sweep_start
            eta = elapsed * sum(work[n:]) / sum(work[:n])
            log.info(
                "cell %d/%d L=%d p=%.4g: E=%.4g I=%.4g stationary=%s (%.1f s; "
                "elapsed %.1f s, eta %.1f s)",
                n, len(configs), cfg.L, cfg.p, mc.late_mean["E"], mc.late_mean["I"],
                mc.stationarity.passed, now - start, elapsed, eta,
            )
    return SweepResult(spec, cells)


_SWEEP_COLUMNS = "L,p,observable,late_mean,late_stderr,samples,stationary"


def write_sweep_csv(result: SweepResult, path) -> None:
    spec = asdict(result.spec)
    for key in ("L_values", "p_values"):  # json encodes neither an ndarray nor np.int64
        spec[key] = [v.item() if isinstance(v, np.generic) else v for v in spec[key]]
    lines = [_config_line(spec), _SWEEP_COLUMNS]
    for c in result.cells:
        for name in sorted(c.late_mean):
            lines.append(
                f"{c.L},{c.p:.9g},{name},{c.late_mean[name]:.9g},"
                f"{c.late_stderr[name]:.9g},{c.samples},{int(c.stationary)}"
            )
    _write_lines(path, lines)


_SWEEP_TYPES = {
    "L": int, "p": float, "late_mean": float, "late_stderr": float, "samples": int,
    "stationary": lambda v: bool(int(v)),
}


def read_sweep_csv(path) -> List[Dict]:
    """Rows as dicts with typed fields; comment lines are skipped.

    A header without a sweep column, a row whose width differs from the
    header's, or a field that does not parse raises ValueError naming the
    file and line.
    """
    rows = []
    header: Optional[List[str]] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                if header is None:
                    missing = [c for c in _SWEEP_COLUMNS.split(",") if c not in parts]
                    if missing:
                        raise ValueError(f"header lacks columns {missing}")
                    header = parts
                    continue
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} fields, header has {len(header)}")
                row = dict(zip(header, parts))
                for key, parse in _SWEEP_TYPES.items():
                    row[key] = parse(row[key])
                rows.append(row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def sweep_rows_to_curves(rows: List[Dict], observable: str) -> List[Curve]:
    return _curves(
        (r["L"], r["p"], r["late_mean"], r["late_stderr"])
        for r in rows
        if r["observable"] == observable
    )


# -- figure reproduction --------------------------------------------------------------


_FIG_SCALES = {
    "fig1b": {
        "full": dict(L=[40, 80, 120, 160, 200, 240, 280], p=[0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25], samples=200),
        "desk": dict(L=[16, 24, 32], p=[0.06, 0.1, 0.14, 0.18, 0.22], samples=40),
    },
    "fig1b_inset": {
        "full": dict(L=[40, 80, 120, 160, 200, 240, 280], p=[0.1], samples=200),
        "desk": dict(L=[16, 24, 32, 40], p=[0.1], samples=60),
    },
    "supp_mi": {
        "full": dict(L=[40, 80, 120, 160, 200, 240, 280], p=[0.1], samples=200),
        "desk": dict(L=[16, 24, 32, 40], p=[0.1], samples=60),
    },
    "supp_collapse": {
        "full": dict(L=[40, 80, 120, 160], p=list(np.round(np.linspace(0.10, 0.245, 7), 9)), samples=300),
        "desk": dict(L=[16, 24, 32], p=list(np.round(np.linspace(0.10, 0.245, 7), 9)), samples=40),
    },
    "fig3": {
        "full": dict(L=120, samples=100),
        "desk": dict(L=48, samples=16),
    },
}


def reproduce_figure(
    name: str,
    scale: str = "desk",
    out_dir: str = ".",
    seed: int = 2024,
    threads: int = 1,
) -> List[str]:
    """Regenerate the data behind a named figure; returns written paths.

    desk scale runs reduced sizes/samples (documented in the CSV header) so
    the pipeline finishes on a laptop; full scale matches the source plots.
    """
    if name not in _FIG_SCALES:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(_FIG_SCALES)}")
    if scale not in ("full", "desk"):
        raise ValueError("scale must be 'full' or 'desk'")
    os.makedirs(out_dir, exist_ok=True)
    params = _FIG_SCALES[name][scale]
    written: List[str] = []

    def emit(filename: str, lines: List[str]) -> None:
        path = os.path.join(out_dir, f"{name}_{scale}_{filename}")
        _write_lines(path, [note] + lines)
        written.append(path)

    note = f"# figure={name} scale={scale} seed={seed} params={json.dumps(params, sort_keys=True)}"

    if name == "fig3":
        emit("histogram.csv", _fig3_histogram(params["L"], params["samples"], seed, threads))
        return written

    spec = SweepSpec(
        L_values=params["L"], p_values=params["p"], seed=seed, samples=params["samples"]
    )
    result = run_sweep(spec, threads=threads)

    observable = "E" if name in ("fig1b", "fig1b_inset") else "I"
    lines = [f"L,p,mean_{observable},stderr_{observable}"]
    for c in result.cells:
        lines.append(
            f"{c.L},{c.p:.9g},{c.late_mean[observable]:.9g},{c.late_stderr[observable]:.9g}"
        )
    emit("curves.csv", lines)
    if name in ("fig1b_inset", "supp_mi"):
        points = result.fit_points(observable, params["p"][0])
        c1, c2, r2 = power_law_fit(points)
        emit("fit.csv", ["c1,c2,r_squared", f"{c1:.9g},{c2:.9g},{r2:.9g}"])
    if name == "supp_collapse":
        fit = optimize_collapse(result.curves("I"))
        emit(
            "collapse.csv",
            ["p_c,nu,objective", f"{fit.p_c:.9g},{fit.nu:.9g},{fit.objective:.9g}"],
        )
    return written


def _final_lengths(args) -> np.ndarray:
    """Length histogram of one trajectory's final state (a pool job)."""
    cfg, index = args
    return length_distribution(run_trajectory(cfg, index, keep_final_state=True).final_state)


def _fig3_histogram(L: int, samples: int, seed: int, threads: int) -> List[str]:
    """Mean count of stabilizer lengths 1..L with and without bulk baths.

    Trajectories run on one pool of `threads` processes; the counts are
    summed in trajectory order, so the file does not depend on threads.
    """
    lines = ["series,length,mean_count"]
    with _pool(threads) as pool:
        mapper = map if pool is None else pool.map
        for offset, (series, schedule) in enumerate(
            (("with_baths", "random_sites(2)"), ("without_baths", "random_sites(0)"))
        ):
            cfg = CircuitConfig(
                L=L,
                p=0.1,
                seed=_cell_seed(seed + offset, L, 0.1),
                dephasing_schedule=schedule,
                samples=samples,
                observables_every=4 * L,
            )
            counts = np.zeros(L + 1, dtype=np.float64)
            for dist in mapper(_final_lengths, [(cfg, i) for i in range(samples)]):
                counts += dist
            counts /= samples
            for length in range(1, L + 1):
                if counts[length] > 0:
                    lines.append(f"{series},{length},{counts[length]:.9g}")
    return lines
