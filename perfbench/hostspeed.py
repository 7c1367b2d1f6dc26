"""The host's speed over a run, from a fixed reference loop.

On a shared machine the speed of a core drifts by a third or more over
minutes, with the neighbours' load; CPU time does not remove that, since
a busy neighbour slows the instructions themselves.  So the untimed gaps
between a workload's operations run a small fixed loop that never touches
the library -- interpreter work, small numpy calls, gather and scatter over
a pagerank-sized edge list, small BLAS -- once for every ``INTERVAL_S``
that has passed since the last time (at most ``MAX_LOOPS`` times in a row),
so the samples cover the run evenly in time.  Its median CPU time over the
run, against ``NOMINAL_S``, is the factor by which this run's host was
slower than nominal; ``run.py`` divides the measured set-up and solve times
by it.  A change to the library moves those times and not the loop, so it
shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the loop's median CPU time on a lightly loaded two-core Xeon host:
# the speed that setup_s and solve_s are reported at.
NOMINAL_S = 0.01
INTERVAL_S = 0.25
MAX_LOOPS = 8
EDGES, NODES = 160_000, 20_000


class HostSpeed:
    """Samples the reference loop between operations; see the module doc."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, NODES, EDGES)
        self._weights = rng.standard_normal(EDGES)
        self._square = rng.standard_normal((60, 60))
        self._tall = rng.standard_normal((6400, 6))
        self.samples: list[float] = []
        self._last: float | None = None

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        owed = 1 if self._last is None \
            else int((now - self._last) / INTERVAL_S)
        if owed:
            self.samples += [self._loop() for _ in range(min(owed, MAX_LOOPS))]
            self._last = time.perf_counter()

    def _loop(self) -> float:
        start = time.process_time()
        rng = np.random.default_rng(1)
        rows = [tuple(int(x) for x in rng.integers(0, 1000, size=8))
                for _ in range(200)]
        totals: dict[int, float] = {}
        for i in range(6000):
            totals[i % 97] = totals.get(i % 97, 0.0) + len(rows[i % 200])
        for _ in range(4):
            np.bincount(self._index, self._weights[self._index],
                        minlength=NODES)
        for _ in range(10):
            self._square @ self._square
        for _ in range(2):
            np.linalg.qr(self._tall)
        return time.process_time() - start

    def slowdown(self) -> float:
        """Median loop time over nominal: above 1 on a slower host."""
        return statistics.median(self.samples) / NOMINAL_S
