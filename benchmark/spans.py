"""Spans recorded from outside the program.

A ``Tracer`` replaces a public name with a wrapper at the place where the
program looks it up (``overlay.step`` and ``walk_engine.step`` are two such
places for one function) and records one span per call: name, start, end
and the enclosing span. Spans stay in memory as flat arrays until the run
ends; self time is a span's duration minus that of its direct children.
Calls too frequent for a span are only counted.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name: str, on_result=None, name_of=None):
        """Wrap fn so each call records a span; name_of(args) may refine the name."""
        fixed = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, name_id = self._stack, time.perf_counter, self.name_id

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if name_of is None else name_id(name_of(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        """Wrap fn so each call only increments counts[name]."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, name: str, count_only: bool = False, **kwargs) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapped = (self.counter(original, name) if count_only
                   else self.span(original, name, **kwargs))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple[int, Counter]:
        """Position to split spans and counts into phases (set-up, rounds)."""
        return len(self.start), Counter(self.counts)

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans lo..hi."""
        hi = len(self.start) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name[lo:hi], minlength=k)
        total = np.bincount(name[lo:hi], weights=dur[lo:hi], minlength=k)
        selfs = np.bincount(name[lo:hi], weights=own[lo:hi], minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))


def wrapper_cost(calls: int = 200_000) -> tuple[float, float]:
    """Seconds a span wrapper and a counting wrapper add to one call."""
    def noop(a, b, c):
        return None

    tracer = Tracer()
    timings = []
    for fn in (noop, tracer.span(noop, "x"), tracer.counter(noop, "y")):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(None, 1, 2)
        timings.append((time.perf_counter() - t0) / calls)
    return timings[1] - timings[0], timings[2] - timings[0]
