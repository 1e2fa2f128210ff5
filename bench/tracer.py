"""Span recording around utal's public functions, installed from outside.

`src/utal` carries no instrumentation, so the benchmark wraps functions and
methods in place.  A module that does ``from utal.data import pool_k_parts``
looks the name up in its own globals, so a function wrapper replaces every
binding of the function object in every loaded ``utal`` module, not only the
one in the defining module.  Methods are wrapped on their class.

Spans (name, start, end, parent) are kept in parallel lists in memory and
written out once, at the end of a run.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Patches:
    """Replaces functions and methods in place and puts them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make_wrapper) -> None:
        """Wrap module.attr wherever a utal module binds the same object."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "utal" or name.startswith("utal.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class CallClock:
    """Start and end of every call of one function, then an optional hook.

    `resumes` holds the time the hook returned, so the gap between two calls
    can be measured without the hook's own time.
    """

    def __init__(self, after=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.after = after

    def wrap(self, fn):
        starts, ends, resumes, clock, after = (
            self.starts, self.ends, self.resumes, time.perf_counter, self.after,
        )

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(clock())
                if after is not None:
                    after()
                resumes.append(clock())

        return timed

    def busy(self, t0: float, t1: float) -> float:
        """Seconds inside the calls that started in [t0, t1) (calls must not nest)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return float(np.sum(np.asarray(self.ends[lo:hi]) - np.asarray(self.starts[lo:hi])))


class Tracer:
    """In-memory span tree plus named counters, recorded only while enabled."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own (used for the benchmark's phases)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def spanned(self, name, measure=None):
        """Wrapper factory: a span per call, then measure(counts, args, result).

        `name` is a string or a function of the call's arguments (for layer
        methods whose span is named after the instance).
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                index = self.open(name if isinstance(name, str) else name(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if measure is not None:
                    measure(self.counts, args, result)
                return result

            return wrapper

        return make

    def counted(self, name: str):
        """Wrapper factory that only counts calls, for functions too small to span."""
        key = name + ".calls"

        def make(fn):
            counts = self.counts

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.enabled:
                    counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def by_name(self, first: int = 0, last: int | None = None) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over the spans with index in [first, last)."""
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        out: dict[str, list] = {}
        for i in range(first, len(self.names) if last is None else last):
            row = out.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += own[i]
        return {name: (row[0], row[1], row[2]) for name, row in out.items()}

    def write(self, path: Path) -> None:
        """One span per line: index, parent, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
