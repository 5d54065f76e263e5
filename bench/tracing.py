"""Span recording around the names negsim's callers import.

Wrappers replace module attributes (for example
``negsim.circuit._measure_z_inplace``) from outside the package, so the
program itself is unchanged. Each wrapper records one span: name, start,
end, parent span and unit id. Spans are kept in flat arrays in memory and
written once, at exit, by ``Tracer.save``.

Units are the pieces of work a workload counts (a trajectory, a lattice
sample). A span whose name is in ``opens`` starts a new unit; a span whose
name is in ``joins`` belongs to the most recent unit (the polymer DP follows
its lattice sample); any other span inherits its parent's unit, or -1 when
it runs outside every unit (sweep bookkeeping, the collapse fit).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, opens: Iterable[str] = (), joins: Iterable[str] = ()):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._opens = {self.name_id(n) for n in opens}
        self._joins = {self.name_id(n) for n in joins}
        self._last_unit = -1
        self.num_units = 0
        self._patches: List[tuple] = []
        self.on_unit: Optional[Callable[[], None]] = None  # runs before a unit's span opens

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------

    def open(self, nid: int) -> int:
        parent = self._stack[-1]
        if nid in self._opens:
            if self.on_unit is not None:
                self.on_unit()
            unit = self._last_unit = self.num_units
            self.num_units += 1
        elif nid in self._joins:
            unit = self._last_unit
        else:
            unit = self.unit[parent] if parent >= 0 else -1
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.unit.append(unit)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """fn inside a span; before(args) and after(args, result, before_value)
        run outside it, so bookkeeping is not charged to the layer."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        if before is None and after is None:  # the hottest wrappers skip the hook checks

            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)

        else:

            def traced(*args, **kwargs):
                ctx = before(args) if before is not None else None
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if after is not None:
                    after(args, result, ctx)
                return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace owner.attr with its traced version until unpatch()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            traced = self.wrap(name, original, **hooks)
        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, new) -> None:
        """Set owner.attr = new until unpatch() restores the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- derived quantities ------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def unit_roots(self) -> np.ndarray:
        """Mask of spans that are the outermost span of their unit."""
        a = self.arrays()
        unit, parent = a["unit"], a["parent"]
        parent_unit = np.where(parent >= 0, unit[np.maximum(parent, 0)], -1)
        return (unit >= 0) & ((parent < 0) | (parent_unit != unit))

    def unit_seconds(self) -> np.ndarray:
        """Traced time of each unit: the summed durations of its root spans."""
        a = self.arrays()
        roots = self.unit_roots()
        dur = (a["end"] - a["start"])[roots]
        return np.bincount(a["unit"][roots], weights=dur, minlength=self.num_units) * 1e-9

    def unit_start_seconds(self) -> np.ndarray:
        """perf_counter time at which each unit's first root span opened."""
        a = self.arrays()
        roots = self.unit_roots()
        starts = np.full(self.num_units, np.iinfo(np.int64).max)
        np.minimum.at(starts, a["unit"][roots], a["start"][roots])
        return starts * 1e-9

    def self_seconds_by_name(self) -> Dict[str, float]:
        a = self.arrays()
        total = np.bincount(a["name"], weights=self.self_ns(), minlength=len(self.names))
        return {n: float(total[i]) * 1e-9 for i, n in enumerate(self.names)}

    def inclusive_seconds_by_name(self) -> Dict[str, float]:
        """Summed span durations per name, children included."""
        a = self.arrays()
        total = np.bincount(a["name"], weights=a["end"] - a["start"], minlength=len(self.names))
        return {n: float(total[i]) * 1e-9 for i, n in enumerate(self.names)}

    def calls_by_name(self) -> Dict[str, int]:
        counts = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
