"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: the tracer replaces module
attributes that the package and the benchmark resolve at call time (for
example ``covertmdp.sim.plan``, which ``RecedingHorizonController.decide``
looks up on every call) with timing wrappers, and puts the originals back on
exit. The package's own code is not changed.

A span is (name, start, end, parent). Spans nest strictly because they come
from one thread's call stack, so a span's self time (its duration minus the
durations of its direct children) is never negative and the self times of
all spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("models", "mdp", "belief", "rho", "augmented", "sim")


class Tracer:
    """Records spans while active; use as a context manager around patching."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._name)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, kwargs, result)``
        runs after the span closes, outside the timed interval."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self._name)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._start.append(0.0)
            self._end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._start[i] = t0
                self._end[i] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, observe))

    @contextmanager
    def suspended(self):
        """Run the enclosed code with the original attributes back in place."""
        wrapped = [(m, attr, getattr(m, attr)) for m, attr, _ in self._patches]
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        try:
            yield
        finally:
            for module, attr, wrapper in wrapped:
                setattr(module, attr, wrapper)

    def spans(self) -> "SpanTable":
        return SpanTable(
            list(self.names),
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
        )


class SpanTable:
    """Closed spans as parallel arrays, with per-span self time."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=self.duration[child], minlength=name_id.size
        )
        self.self_time = self.duration - covered

    def select(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Indices of spans called ``name`` among spans ``lo`` to ``hi``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        hit = np.flatnonzero(self.name_id[lo:hi] == self.names.index(name))
        return hit + lo

    def root_time(self) -> float:
        return float(self.duration[self.parent < 0].sum())

    def module_self_time(self, module: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == module]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def dump(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
        )
