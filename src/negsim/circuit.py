"""Open monitored brickwork circuit: trajectories plus the Monte Carlo harness.

A layer applies a brickwork row of uniform two-site Cliffords, then projective
Z measurements (each site independently with probability p), then dephasing
per the configured schedule. Observables are recorded at the half-chain
bipartition on a layer stride.

Seeding contract: trajectory i draws from SeedSequence(seed, spawn_key=(i,)),
and aggregation is done in trajectory order, so results are bit-identical
for any worker count. The draw order is part of the contract; `_layer_ops`
owns it, and both `run_trajectory` and `oracle.replay_trajectory` walk it.
A layer's Z measurements are one op: the runner measures its sites, then
draws the bits of the random outcomes among them (batched when there are
four or more), and the dense replay draws each bit as it measures; both
leave the stream in the same state. The runner applies the ops it has
buffered in one `channels._apply_layer` call per flush: at each measure op,
at each record and at the end.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import typing
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# The runner calls only _apply_layer; bench/workloads.py still wraps
# _apply_tables_inplace, _measure_z_inplace and _dephase_inplace here by
# name, so the names stay importable.
from .channels import (  # noqa: F401
    _apply_layer,
    _apply_tables_inplace,
    _dephase_inplace,
    _measure_z_inplace,
    trajectory_rng,
)
from .entanglement import Bipartition, ObservableRecord, record_observables
from .stabilizer import StabilizerState, product_state

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

_SCHEDULE_RE = re.compile(r"^random_sites[(:]\s*(\d+)\s*\)?$")


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
        if self.L < 2 or self.L % 2:
            raise ValueError("L must be even and >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
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
        or ("random", m) = m distinct uniform sites every layer."""
        s = self.dephasing_schedule
        if s == "boundary_even_steps":
            return ("boundary", 2)
        if s == "boundary_every_step":
            return ("boundary", 1)
        match = _SCHEDULE_RE.match(s)
        if match:
            m = int(match.group(1))
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


@dataclass
class TrajectoryResult:
    """One trajectory's records as two arrays: `times` (n,) int64 and
    `observables` (n, 6) float64 in ObservableRecord.FIELDS order."""

    trajectory_id: int
    times: np.ndarray
    observables: np.ndarray
    final_state: Optional[StabilizerState] = None

    @property
    def records(self) -> List[ObservableRecord]:
        """One ObservableRecord per time; every field but E is an int."""
        return [
            ObservableRecord(t, int(sa), int(sb), int(sab), e, int(i), int(plog))
            for t, (sa, sb, sab, e, i, plog) in zip(self.times.tolist(), self.observables.tolist())
        ]

    def table(self) -> np.ndarray:
        """The (n_times, 6) observables array itself, not a copy."""
        return self.observables

    def series(self, name: str) -> np.ndarray:
        idx = ObservableRecord.FIELDS.index(name)
        return self.table()[:, idx]


def _layer_ops(cfg: CircuitConfig, rng: np.random.Generator):
    """Yield one trajectory's operations as (t, kind, arg), in RNG draw order.

    Per layer t = 1..T:
    - ("gates", (cols, sym, signs)) after rng.integers(720, size=n) gate
      classes and rng.integers(16, size=n) sign bits for the n gates on sites
      (cols, cols + 1), from site 0 on odd t and site 1 on even t (cols is
      one read-only array per parity, made once per trajectory);
    - ("measure", sites) once, with the sites of rng.random(L) < p in site
      order (drawn only when p > 0, and yielded only when some site is hit).
      Before resuming, the consumer measures them in order and then draws one
      outcome bit per random outcome (anticommuting or appended), in site
      order: n scalar rng.integers(2) calls or one rng.integers(2, size=n),
      which leave the stream in the same state (`_draw_outcomes`);
    - ("dephase", site) for sites 0 and L - 1 on the boundary stride, or the
      sorted sites of rng.choice(L, size=m, replace=False) for random_sites(m);
    - ("record", None) every observables_every layers and at T.
    The runner's state carries no signs, yet every one of these draws is made.
    """
    L, T, stride = cfg.L, cfg.steps, cfg.observables_every
    bath, param = cfg.schedule()
    bricks = (np.arange(1, L - 1, 2), np.arange(0, L - 1, 2))  # even t, odd t
    for cols in bricks:
        cols.flags.writeable = False  # every layer of its parity yields this array
    for t in range(1, T + 1):
        cols = bricks[t % 2]
        if cols.size:
            sym = rng.integers(720, size=cols.size)
            yield t, "gates", (cols, sym, rng.integers(16, size=cols.size))
        if cfg.p > 0:
            sites = np.nonzero(rng.random(L) < cfg.p)[0].tolist()
            if sites:
                yield t, "measure", sites
        if bath == "boundary":
            if t % param == 0:
                yield t, "dephase", 0
                yield t, "dephase", L - 1
        elif param:
            for site in sorted(rng.choice(L, size=param, replace=False).tolist()):
                yield t, "dephase", site
        if t % stride == 0 or t == T:
            yield t, "record", None


def _draw_outcomes(rng: np.random.Generator, n: int) -> None:
    """Draw and drop n outcome bits: n scalar rng.integers(2) calls, or for
    n >= 4 one rng.integers(2, size=n), which leaves PCG64 in the same state
    and costs about as much as three scalar calls."""
    if n >= 4:
        rng.integers(2, size=n)
    else:
        for _ in range(n):
            rng.integers(2)


def run_trajectory(
    cfg: CircuitConfig, trajectory_index: int = 0, keep_final_state: bool = False
) -> TrajectoryResult:
    """One trajectory of cfg. The ops of `_layer_ops` are buffered and
    applied by one `_apply_layer` call wherever a result is needed: at a
    layer's measure op (its random outcomes decide the bits to draw), at a
    record, and at the end. A call makes pending dephasing, then gates, then
    measurements, so gates still pending when the next gates or dephase op
    comes (their layer measured no site) are flushed first."""
    rng = trajectory_rng(cfg.seed, trajectory_index)
    state = product_state(cfg.L, signed=False)  # no recorded observable reads a sign
    bp = Bipartition.contiguous_halves(cfg.L)

    times: List[int] = []
    rows: List[Tuple[float, ...]] = []
    columns: List[int] = []  # dephasing columns not yet applied
    gates = None  # a gates payload not yet applied
    for t, kind, arg in _layer_ops(cfg, rng):
        if kind == "measure":
            _draw_outcomes(rng, _apply_layer(state, columns, gates, arg))
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
            times.append(rec.time)
            rows.append(rec.values())
    if columns or gates is not None:
        _apply_layer(state, columns, gates, ())
    return TrajectoryResult(
        trajectory_id=trajectory_index,
        times=np.asarray(times, dtype=np.int64),
        observables=np.asarray(rows, dtype=np.float64).reshape(len(rows), len(ObservableRecord.FIELDS)),
        final_state=state if keep_final_state else None,
    )


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
    cfg, index = args
    result = run_trajectory(cfg, index)
    return index, result.times, result.table()


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
        pool = executor or ProcessPoolExecutor(max_workers=threads)
        try:
            raw = list(pool.map(_trajectory_table, jobs, chunksize=chunk))
        finally:
            if executor is None:
                pool.shutdown()
        raw.sort(key=lambda item: item[0])
    else:
        raw = [_trajectory_table(job) for job in jobs]

    times = raw[0][1]
    stack = np.stack([table for _, _, table in raw])  # (samples, n_times, 6)
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

# the Python types each field annotation accepts; a bool is never a number
_ACCEPTS = {
    int: (int, np.integer),
    float: (int, float, np.integer, np.floating),
    str: (str,),
    type(None): (type(None),),
}


def _has_type(value, hint) -> bool:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[...]
        return any(_has_type(value, arg) for arg in args)
    if origin is not None:  # Sequence[...]
        seq = isinstance(value, (list, tuple, np.ndarray))
        return seq and all(_has_type(v, args[0]) for v in value)
    return isinstance(value, _ACCEPTS[hint]) and not isinstance(value, bool)


def _config_from_dict(cls, d: Dict):
    """Build the config dataclass cls (CircuitConfig, SweepSpec) from a dict.

    Unknown keys and values of the wrong type for cls's field annotations
    raise ValueError, which the CLI reports with exit code 2.
    """
    hints = typing.get_type_hints(cls)
    unknown = set(d) - set(hints)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in d.items():
        if not _has_type(value, hints[key]):
            want = inspect.formatannotation(hints[key])
            raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
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
