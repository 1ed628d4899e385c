"""Machine speed, measured by a fixed reference loop between timed operations.

On a shared virtual machine the same code runs up to about 1.8x slower for
minutes at a time when neighbours load the host (see README). The
reference loop is a self-contained guided walk in plain Python, close to
the program's hot path (set membership, list scans, a numpy generator
call per step) but frozen here, so a change to the program never changes
it. Its bursts are spread over the timed work, and the mean burst time
against ``NOMINAL_BURST_S`` gives the speed factor that end-to-end times
are scaled by. Bursts run outside the timed intervals.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# Mean burst time that defines factor 1, about this VM's quiet-spell speed.
# Results scale with it, so it stays fixed for as long as figures are compared.
NOMINAL_BURST_S = 0.0015
BURST_STEPS = 40
EVERY_S = 0.05  # timed work between two bursts


class SpeedProbe:
    def __init__(self):
        rnd = random.Random(0)
        self._adjacency = [sorted(rnd.sample(range(600), 20)) for _ in range(600)]
        self.bursts: list[float] = []
        self.burst_at: list[float] = []
        self._due = 0.0

    def burst(self) -> float:
        """Run one fixed burst; return and record its duration."""
        adjacency = self._adjacency
        t0 = time.perf_counter()
        gen = np.random.default_rng(0)
        head, members, marked = 0, {0}, set()
        for _ in range(BURST_STEPS):
            candidates = [v for v in adjacency[head] if v not in members]
            costs = [sum(1 for u in adjacency[c] if u in marked) for c in candidates]
            low = min(costs)
            best = [c for c, cost in zip(candidates, costs) if cost == low]
            head = best[int(gen.integers(len(best)))]
            members.add(head)
            marked.update(adjacency[head])
        took = time.perf_counter() - t0
        self.bursts.append(took)
        return took

    def tick(self, busy_s: float) -> float:
        """Burst when ``EVERY_S`` of timed work passed since the last; return its time."""
        if busy_s < self._due:
            return 0.0
        self._due = busy_s + EVERY_S
        self.burst_at.append(busy_s)
        return self.burst()

    def factor(self) -> float:
        """Reference speed over nominal: below 1 when the machine ran slow."""
        return NOMINAL_BURST_S / statistics.fmean(self.bursts)

    def local_factors(self, at, window_s: float = 0.5) -> np.ndarray:
        """The factor around each timed-work position in ``at``, from the bursts
        within ``window_s`` of it (the nearest one if none is). Every burst of
        this probe must have come from ``tick``."""
        pos, took = np.asarray(self.burst_at), np.asarray(self.bursts)
        total = np.concatenate(([0.0], np.cumsum(took)))
        at = np.asarray(at)
        lo = np.minimum(np.searchsorted(pos, at - window_s / 2), len(pos) - 1)
        hi = np.maximum(np.searchsorted(pos, at + window_s / 2), lo + 1)
        return NOMINAL_BURST_S * (hi - lo) / (total[hi] - total[lo])
