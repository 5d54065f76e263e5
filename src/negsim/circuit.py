"""Open monitored brickwork circuit: trajectories plus the Monte Carlo harness.

A layer applies a brickwork row of uniform two-site Cliffords, then projective
Z measurements (each site independently with probability p), then dephasing
per the configured schedule. Observables are recorded at the half-chain
bipartition on a layer stride.

Seeding contract: trajectory i draws from SeedSequence(seed, spawn_key=(i,)),
and aggregation is done in trajectory order, so results are bit-identical
for any worker count. The draw order is part of the contract; per layer:
rng.integers(720, size=n) gate classes and rng.integers(16, size=n) gate sign
bits for the n gates, rng.random(L) for the measurement sites when p > 0,
one rng.integers(2) per random-outcome (anticommuting or appended) Z
measurement in site order, and rng.choice(L, size=m, replace=False) for a
random_sites(m) schedule. The runner's state carries no signs, yet every
one of these draws is made.
"""

from __future__ import annotations

import hashlib
import json
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .channels import (
    _apply_tables_inplace,
    _class_maps,
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
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class TrajectoryResult:
    trajectory_id: int
    times: np.ndarray
    records: List[ObservableRecord]
    final_state: Optional[StabilizerState] = None

    def table(self) -> np.ndarray:
        """(n_times, 6) float array in ObservableRecord.FIELDS order."""
        return np.array([r.values() for r in self.records], dtype=np.float64)

    def series(self, name: str) -> np.ndarray:
        idx = ObservableRecord.FIELDS.index(name)
        return self.table()[:, idx]


def run_trajectory(
    cfg: CircuitConfig, trajectory_index: int = 0, keep_final_state: bool = False
) -> TrajectoryResult:
    rng = trajectory_rng(cfg.seed, trajectory_index)
    L, T, stride = cfg.L, cfg.steps, cfg.observables_every
    state = product_state(L, signed=False)  # no recorded observable reads a sign
    bp = Bipartition.contiguous_halves(L)
    kind, param = cfg.schedule()
    maps = _class_maps()

    times: List[int] = []
    records: List[ObservableRecord] = []
    for t in range(1, T + 1):
        start = 0 if t % 2 else 1
        n_pairs = (L - start) // 2
        if n_pairs:
            sym = rng.integers(720, size=n_pairs)
            rng.integers(16, size=n_pairs)  # the gates' sign bits: drawn, unused unsigned
            cols = np.arange(start, start + 2 * n_pairs, 2)
            _apply_tables_inplace(state, maps[sym], cols, cols + 1)
        if cfg.p > 0:
            for site in np.nonzero(rng.random(L) < cfg.p)[0]:
                _measure_z_inplace(state, int(site), rng, need_outcome=False)
        if kind == "boundary":
            if t % param == 0:
                _dephase_inplace(state, 0)
                _dephase_inplace(state, L - 1)
        elif param:
            sites = rng.choice(L, size=param, replace=False)
            for site in sorted(int(s) for s in sites):
                _dephase_inplace(state, site)
        if t % stride == 0 or t == T:
            times.append(t)
            records.append(record_observables(state, bp, t))
    return TrajectoryResult(
        trajectory_id=trajectory_index,
        times=np.asarray(times, dtype=np.int64),
        records=records,
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


def monte_carlo(cfg: CircuitConfig, threads: int = 1) -> MonteCarloResult:
    """Average observables over cfg.samples independently seeded trajectories."""
    jobs = [(cfg, i) for i in range(cfg.samples)]
    if threads > 1 and cfg.samples > 1:
        chunk = max(1, cfg.samples // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_trajectory_table, jobs, chunksize=chunk))
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


# -- CSV output ----------------------------------------------------------------


def _config_header(cfg: CircuitConfig) -> str:
    return f"# config_hash={cfg.config_hash()} config={json.dumps(cfg.to_dict(), sort_keys=True)}"


def write_summary_csv(result: MonteCarloResult, path) -> None:
    """Long-format table: L,p,t,observable,mean,stderr,samples."""
    cfg = result.config
    lines = [_config_header(cfg), "L,p,t,observable,mean,stderr,samples"]
    for row, t in enumerate(result.times):
        for col, name in enumerate(result.observables):
            lines.append(
                f"{cfg.L},{cfg.p:.9g},{t},{name},"
                f"{result.mean[row, col]:.9g},{result.stderr[row, col]:.9g},{result.samples}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(results: List[TrajectoryResult], cfg: CircuitConfig, path) -> None:
    """Per-trajectory rows: trajectory_id,time,S_A,S_B,S_AB,E,I,purity_log2."""
    lines = [_config_header(cfg), "trajectory_id,time," + ",".join(ObservableRecord.FIELDS)]
    for res in results:
        for rec in res.records:
            vals = ",".join(f"{v:.9g}" for v in rec.values())
            lines.append(f"{res.trajectory_id},{rec.time},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
