"""A fixed reference kernel, timed between units, that tracks the host's speed.

The shared host this benchmark runs on changes speed by up to 2x over tens of
seconds: the same trajectory took 0.40 s in one minute and 0.80 s in the
next. Averaged over a run, the reference kernel's time moves with the
workload's (their 15-40 s window means correlated at 0.75-0.98), so a time
divided by the kernel's time changes when the program does and less when the
host does.

The kernel is benchmark code and never changes: a Python loop of small
boolean row operations, like the stabilizer engine's, then a shorter
streaming pass over a 10 MB array, like the polymer sampler's. Short circuit
trajectories speed up and slow down with the host more than streaming does,
so the row loop takes most of the kernel's time.
"""

from __future__ import annotations

import time

import numpy as np

_now = time.perf_counter


class HostSpeed:
    """Runs the kernel when `tick` is called at least INTERVAL_S after the
    last run ended, and keeps each run's duration."""

    INTERVAL_S = 0.5  # about 50 runs in 25 s, 2% of the time
    LOCAL_RUNS = 3  # a median, so one outlying kernel time does not move a unit

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 2, (120, 120)).astype(bool)
        self._stream = rng.random(1_250_000)
        self.durations: list = []
        self.ends: list = []
        self.kernel()  # warm-up, not recorded
        self._last = -float("inf")

    def kernel(self) -> float:
        x = self._rows.copy()
        for i in range(3000):
            r = i % 120
            if x[r].any():
                x[(r + 1) % 120] ^= x[r]
        return float((self._stream * 1.5 + 2.0).sum()) + float(x.sum())

    def tick(self) -> None:
        now = _now()
        if now - self._last < self.INTERVAL_S:
            return
        self.kernel()
        self._last = _now()
        self.durations.append(self._last - now)
        self.ends.append(self._last)

    def local_s(self, at_s: np.ndarray) -> np.ndarray:
        """For each time in `at_s` (perf_counter seconds): the median of the
        last LOCAL_RUNS kernel times that ended by then. Fast and slow spells
        of the host last seconds, so this follows them within a run where the
        run's mean cannot."""
        durations = np.asarray(self.durations)
        done = np.maximum(np.searchsorted(np.asarray(self.ends), at_s, side="right"), 1)
        return np.array([np.median(durations[max(0, n - self.LOCAL_RUNS):n]) for n in done])

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    @property
    def mean_s(self) -> float:
        return sum(self.durations) / len(self.durations)
