"""Open monitored brickwork circuit: trajectories plus the Monte Carlo harness.

A layer applies a brickwork row of uniform two-site Cliffords, then projective
Z measurements (each site independently with probability p), then dephasing
per the configured schedule. Observables are recorded at the half-chain
bipartition on a layer stride.

Seeding contract: trajectory i draws from SeedSequence(seed, spawn_key=(i,)),
and aggregation is done in trajectory order, so results are bit-identical
for any worker count. The draw order is part of the contract; `_layer_ops`
owns it, and `oracle.replay_trajectory` and the runner's reference loop
walk it. A layer's Z measurements are one op: the runner measures its
sites, then draws the bits of the random outcomes among them in one batch,
and the dense replay draws each bit as it measures; both leave the stream
in the same state. With the row kernel built, `run_trajectory` is one
`rowkernel.run_trajectory` call, which makes the same draws, with numpy's
algorithms, and the same tableau updates in C. Without it, the reference
loop applies the ops of `_layer_ops` through one `channels._apply_layer`
call per flush: at each measure op, at each record and at the end.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

# The runner calls only _apply_layer; bench/workloads.py still wraps
# _apply_tables_inplace, _measure_z_inplace and _dephase_inplace here by
# name, so the names stay importable.
from . import rowkernel
from .channels import (  # noqa: F401
    _apply_layer,
    _apply_tables_inplace,
    _check_integers,
    _check_probability,
    _class_tables,
    _dephase_inplace,
    _measure_z_inplace,
    trajectory_rng,
)
from .entanglement import Bipartition, ObservableRecord, _check_bound, record_observables
from .stabilizer import StabilizerState, product_state

if TYPE_CHECKING:  # a pool is imported where one starts
    from concurrent.futures import Executor

__all__ = [
    "CircuitConfig",
    "TrajectoryResult",
    "MonteCarloResult",
    "StationarityGate",
    "run_trajectory",
    "monte_carlo",
    "write_summary_csv",
    "write_trajectory_csv",
]

MAX_L = 32766  # the largest even L whose records (each at most L) fit int16
_SCHEDULE_RE = re.compile(r"random_sites(?:\(([0-9]+)\)|:([0-9]+))")


@dataclass(frozen=True)
class CircuitConfig:
    """Circuit parameters; T defaults to 4L when left unset."""

    L: int
    p: float
    T: Optional[int] = None
    seed: int = 0
    dephasing_schedule: str = "boundary_even_steps"
    samples: int = 1
    observables_every: int = 1

    def __post_init__(self):
        # checked here, so the CLI reports a bad value with exit code 2
        _check_integers(L=self.L, seed=self.seed, samples=self.samples,
                        observables_every=self.observables_every)
        if self.T is not None:
            _check_integers(T=self.T)
        _check_probability(p=self.p)
        if not isinstance(self.dephasing_schedule, str):
            raise ValueError(f"dephasing_schedule must be a str, got {self.dephasing_schedule!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.L < 2 or self.L % 2:
            raise ValueError("L must be even and >= 2")
        if self.L > MAX_L:
            raise ValueError(f"L must be <= {MAX_L}, so that every record fits int16")
        if self.T is not None and self.T < 1:
            raise ValueError("T must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.observables_every < 1:
            raise ValueError("observables_every must be >= 1")
        self.schedule()  # validate eagerly

    @property
    def steps(self) -> int:
        return self.T if self.T is not None else 4 * self.L

    def schedule(self) -> Tuple[str, int]:
        """("boundary", 2|1) = dephase both edges every 2nd/1st layer,
        or ("random", m) = m distinct uniform sites every layer, spelled
        exactly random_sites(m) or random_sites:m."""
        s = self.dephasing_schedule
        if s == "boundary_even_steps":
            return ("boundary", 2)
        if s == "boundary_every_step":
            return ("boundary", 1)
        match = _SCHEDULE_RE.fullmatch(s)
        if match:
            m = int(match.group(1) or match.group(2))
            if m > self.L:
                raise ValueError("random_sites count exceeds L")
            return ("random", m)
        raise ValueError(f"unknown dephasing schedule {s!r}")

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["T"] = self.steps
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "CircuitConfig":
        return _config_from_dict(cls, d)

    def config_hash(self) -> str:
        return _digest(json.dumps(self.to_dict(), sort_keys=True))


def _observable_table(counts: np.ndarray) -> np.ndarray:
    """The float64 (..., 6) table, in ObservableRecord.FIELDS order, of
    int16 (..., 4) half-cut records (S_A, S_B, S_AB, 2E): E = 2E / 2,
    I = S_A + S_B - S_AB and purity_log2 = k - L = -S_AB, since the halves
    cover the chain."""
    c = counts.astype(np.float64)
    s_a, s_b, s_ab, two_e = np.moveaxis(c, -1, 0)
    return np.stack([s_a, s_b, s_ab, two_e / 2.0, s_a + s_b - s_ab, 0.0 - s_ab], axis=-1)  # not -0.0


@dataclass(slots=True)
class TrajectoryResult:
    """One trajectory's records as two arrays: `times` (n,) int64 and
    `counts` (n, 4) int16, the half cut's (S_A, S_B, S_AB, 2E). The float64
    (n, 6) table in ObservableRecord.FIELDS order is built from them on
    each read of `observables` or `table()`, so a kept result holds a sixth
    of its bytes. `run_trajectory` returns a read-only `times` that every
    trajectory with the same T and stride shares."""

    trajectory_id: int
    times: np.ndarray
    counts: np.ndarray
    final_state: Optional[StabilizerState] = None

    @property
    def observables(self) -> np.ndarray:
        """A fresh (n, 6) float64 table of the records."""
        return _observable_table(self.counts)

    @property
    def records(self) -> List[ObservableRecord]:
        """One ObservableRecord per time; every field but E is an int."""
        return [
            ObservableRecord(t, int(sa), int(sb), int(sab), e, int(i), int(plog))
            for t, (sa, sb, sab, e, i, plog) in zip(self.times.tolist(), self.observables.tolist())
        ]

    def table(self) -> np.ndarray:
        """The (n_times, 6) observables table, built on each call."""
        return self.observables

    def series(self, name: str) -> np.ndarray:
        idx = ObservableRecord.FIELDS.index(name)
        return self.table()[:, idx]


def _numpy_layer_draws(rng: np.random.Generator, n: int, L: int, p: float):
    """A layer's draws before its measurements, by numpy's own calls: the
    reference that rowkernel.draw_layer matches value for value."""
    sym, signs = rng.integers(720, size=n), rng.integers(16, size=n)
    return sym, signs, np.nonzero(rng.random(L) < p)[0].tolist() if p > 0 else []


def _numpy_site_draws(rng: np.random.Generator, L: int, m: int) -> List[int]:
    """random_sites(m)'s sites by numpy's own call, the reference for
    rowkernel.draw_sites."""
    return sorted(rng.choice(L, size=m, replace=False).tolist())


def _floyd_choice(L: int, m: int) -> bool:
    """Whether numpy draws choice(L, m, replace=False) by Floyd's algorithm,
    which rowkernel.draw_sites makes: all but L > 10000 with m > L // 50,
    where numpy shuffles a tail of range(L) instead."""
    return not (L > 10000 and m > L // 50)


def _layer_ops(cfg: CircuitConfig, rng: np.random.Generator):
    """Yield one trajectory's operations as (t, kind, arg), in RNG draw order.

    Per layer t = 1..T:
    - ("gates", (cols, sym, signs)) after rng.integers(720, size=n) gate
      classes and rng.integers(16, size=n) sign bits for the n gates on sites
      (cols, cols + 1), from site 0 on odd t and site 1 on even t (cols is
      one read-only array per parity, made once per trajectory; sym and signs
      are fresh arrays every layer);
    - ("measure", sites) once, with the sites of rng.random(L) < p in site
      order (drawn only when p > 0, and yielded only when some site is hit).
      Before resuming, the consumer measures them in order and then draws one
      outcome bit per random outcome (anticommuting or appended), in site
      order: n scalar rng.integers(2) calls or one rng.integers(2, size=n),
      which leave the stream in the same state (`channels._draw_outcomes`);
    - ("dephase", site) for sites 0 and L - 1 on the boundary stride, or the
      sorted sites of rng.choice(L, size=m, replace=False) for random_sites(m);
    - ("record", None) every observables_every layers and at T.
    The runner's state carries no signs, yet every one of these draws is made.
    With the row kernel built, the first three draws of a layer are one
    `rowkernel.draw_layer` call and the dephasing sites one `draw_sites`
    call, which make numpy's draws in C; `_numpy_layer_draws` and
    `_numpy_site_draws` are the numpy calls they stand in for.
    """
    L, T, stride, p = cfg.L, cfg.steps, cfg.observables_every, cfg.p
    bath, param = cfg.schedule()
    bricks = (np.arange(1, L - 1, 2), np.arange(0, L - 1, 2))  # even t, odd t
    for cols in bricks:
        cols.flags.writeable = False  # every layer of its parity yields this array
    draw_layer, draw_sites = (
        (rowkernel.draw_layer, rowkernel.draw_sites)
        if rowkernel.LIB is not None
        else (_numpy_layer_draws, _numpy_site_draws)
    )
    if not _floyd_choice(L, param):
        draw_sites = _numpy_site_draws
    for t in range(1, T + 1):
        cols = bricks[t % 2]
        sym, signs, sites = draw_layer(rng, cols.size, L, p)
        if cols.size:
            yield t, "gates", (cols, sym, signs)
        if sites:
            yield t, "measure", sites
        if bath == "boundary":
            if t % param == 0:
                yield t, "dephase", 0
                yield t, "dephase", L - 1
        elif param:
            for site in draw_sites(rng, L, param):
                yield t, "dephase", site
        if t % stride == 0 or t == T:
            yield t, "record", None


@lru_cache(maxsize=64)
def _shared_times(T: int, stride: int) -> np.ndarray:
    """One read-only int64 array of record times per (T, stride): every
    stride layers and at T."""
    out = np.array([t for t in range(1, T + 1) if t % stride == 0 or t == T], dtype=np.int64)
    out.flags.writeable = False
    return out


def run_trajectory(
    cfg: CircuitConfig, trajectory_index: int = 0, keep_final_state: bool = False
) -> TrajectoryResult:
    """One trajectory of cfg. With the row kernel built this is one
    `rowkernel.run_trajectory` call, and `entanglement._check_bound` then
    warns for any record with 2E > I. The reference loop `_run_ops` serves
    builds without a compiler, and random_sites(m) with L > 10000 and
    m > L // 50, where numpy's choice is not Floyd's algorithm."""
    rng = trajectory_rng(cfg.seed, trajectory_index)
    state = product_state(cfg.L, signed=False)  # no recorded observable reads a sign
    times = _shared_times(cfg.steps, cfg.observables_every)
    bath, param = cfg.schedule()
    if rowkernel.LIB is not None and _floyd_choice(cfg.L, param):  # a boundary param is 1 or 2
        every, m = (param, 0) if bath == "boundary" else (0, param)
        counts = rowkernel.run_trajectory(
            state, _class_tables(), rng, cfg.steps, cfg.p, every, m, cfg.observables_every
        )
        _check_bound(counts, times)
    else:
        counts = _run_ops(cfg, rng, state)
    return TrajectoryResult(
        trajectory_id=trajectory_index,
        times=times,
        counts=counts,
        final_state=state if keep_final_state else None,
    )


def _run_ops(cfg: CircuitConfig, rng: np.random.Generator, state: StabilizerState) -> np.ndarray:
    """The reference runner: the ops of `_layer_ops` on state, buffered and
    applied by one `_apply_layer` call wherever a result is needed: at a
    layer's measure op (its random outcomes decide the bits to draw), at a
    record, and at the end. A call makes pending dephasing, then gates, then
    measurements, so gates still pending when the next gates or dephase op
    comes (their layer measured no site) are flushed first. Returns the
    int16 (n, 4) records (S_A, S_B, S_AB, 2E), each from
    `record_observables`."""
    bp = Bipartition.contiguous_halves(cfg.L)
    rows: List[Tuple[int, int, int, int]] = []
    columns: List[int] = []  # dephasing columns not yet applied
    gates = None  # a gates payload not yet applied
    for t, kind, arg in _layer_ops(cfg, rng):
        if kind == "measure":
            _apply_layer(state, columns, gates, arg, rng)
            columns, gates = [], None
            continue
        if gates is not None or kind == "record" and columns:
            _apply_layer(state, columns, gates, ())
            columns, gates = [], None
        if kind == "gates":
            gates = arg
        elif kind == "dephase":
            columns.append(arg)
        else:
            rec = record_observables(state, bp, t)
            rows.append((rec.S_A, rec.S_B, rec.S_AB, int(2 * rec.E)))
    if columns or gates is not None:
        _apply_layer(state, columns, gates, ())
    return np.array(rows, dtype=np.int16).reshape(len(rows), 4)


@dataclass(frozen=True)
class StationarityGate:
    """Late-window vs previous-window comparison of mean negativity."""

    passed: bool
    difference: float
    tolerance: float


@dataclass
class MonteCarloResult:
    config: CircuitConfig
    times: np.ndarray
    observables: Tuple[str, ...]
    mean: np.ndarray
    stderr: np.ndarray
    samples: int
    stationarity: StationarityGate
    late_mean: Dict[str, float]
    late_stderr: Dict[str, float]

    def series(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        idx = self.observables.index(name)
        return self.mean[:, idx], self.stderr[:, idx]


def _trajectory_table(args) -> Tuple[int, np.ndarray, np.ndarray]:
    """(index, times, int16 counts) of one trajectory: what a pool sends back."""
    cfg, index = args
    result = run_trajectory(cfg, index)
    return index, result.times, result.counts


def monte_carlo(
    cfg: CircuitConfig, threads: int = 1, executor: Optional[Executor] = None
) -> MonteCarloResult:
    """Average observables over cfg.samples independently seeded trajectories.

    With threads > 1 the trajectories run on `executor` if one is given (a
    sweep passes one pool to all its cells), else on a pool of `threads`
    processes started for this call.
    """
    jobs = [(cfg, i) for i in range(cfg.samples)]
    if threads > 1 and cfg.samples > 1:
        chunk = max(1, cfg.samples // (4 * threads))
        if executor is not None:
            raw = list(executor.map(_trajectory_table, jobs, chunksize=chunk))
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=threads) as pool:
                raw = list(pool.map(_trajectory_table, jobs, chunksize=chunk))
        raw.sort(key=lambda item: item[0])
    else:
        raw = [_trajectory_table(job) for job in jobs]

    times = raw[0][1]
    stack = _observable_table(np.stack([counts for _, _, counts in raw]))  # (samples, n_times, 6)
    n = cfg.samples
    mean = stack.mean(axis=0)
    if n > 1:
        stderr = stack.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros_like(mean)

    T, L = cfg.steps, cfg.L
    last = (times > T - L) & (times <= T)
    prev = (times > T - 2 * L) & (times <= T - L)
    e_col = ObservableRecord.FIELDS.index("E")
    if last.any() and prev.any():
        w_last = stack[:, last, e_col].mean(axis=1)
        w_prev = stack[:, prev, e_col].mean(axis=1)
        diff = abs(float(w_last.mean() - w_prev.mean()))
        if n > 1:
            se = np.sqrt(w_last.var(ddof=1) / n + w_prev.var(ddof=1) / n)
        else:
            se = 0.0
        tol = 2.0 * float(se)
        gate = StationarityGate(diff < tol or diff == 0.0, diff, tol)
    else:
        gate = StationarityGate(False, float("nan"), 0.0)

    late_mean: Dict[str, float] = {}
    late_stderr: Dict[str, float] = {}
    for col, name in enumerate(ObservableRecord.FIELDS):
        window = stack[:, last, col].mean(axis=1) if last.any() else stack[:, -1, col]
        late_mean[name] = float(window.mean())
        late_stderr[name] = float(window.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    return MonteCarloResult(
        config=cfg,
        times=times,
        observables=ObservableRecord.FIELDS,
        mean=mean,
        stderr=stderr,
        samples=n,
        stationarity=gate,
        late_mean=late_mean,
        late_stderr=late_stderr,
    )


# -- config and CSV files --------------------------------------------------------


def _config_from_dict(cls, d: Dict):
    """Build the config dataclass cls (CircuitConfig, SweepSpec) from a dict.
    Unknown keys raise ValueError here, and values of the wrong type in
    cls's own check; the CLI reports either with exit code 2."""
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**d)


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _config_line(config: Dict) -> str:
    """The `# config_hash=... config=...` first line of run and sweep CSVs."""
    blob = json.dumps(config, sort_keys=True)
    return f"# config_hash={_digest(blob)} config={blob}"


def _write_lines(path, lines: Sequence[str]) -> None:
    """Every file negsim writes goes through here: each entry of lines
    becomes one newline-terminated line."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_csv(result: MonteCarloResult, path) -> None:
    """Long-format table: L,p,t,observable,mean,stderr,samples."""
    cfg = result.config
    lines = [_config_line(cfg.to_dict()), "L,p,t,observable,mean,stderr,samples"]
    for row, t in enumerate(result.times):
        for col, name in enumerate(result.observables):
            lines.append(
                f"{cfg.L},{cfg.p:.9g},{t},{name},"
                f"{result.mean[row, col]:.9g},{result.stderr[row, col]:.9g},{result.samples}"
            )
    _write_lines(path, lines)


def write_trajectory_csv(results: List[TrajectoryResult], cfg: CircuitConfig, path) -> None:
    """Per-trajectory rows: trajectory_id,time,S_A,S_B,S_AB,E,I,purity_log2."""
    columns = "trajectory_id,time," + ",".join(ObservableRecord.FIELDS)
    lines = [_config_line(cfg.to_dict()), columns]
    for res in results:
        for t, row in zip(res.times.tolist(), res.observables.tolist()):
            vals = ",".join(f"{v:.9g}" for v in row)
            lines.append(f"{res.trajectory_id},{t},{vals}")
    _write_lines(path, lines)
