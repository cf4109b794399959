"""Machine-speed samples taken while the program runs, to scale op times.

The benchmark runs on a few cores of a shared host whose speed for this kind
of code moves by 20-50% over seconds to minutes, with the load of its
neighbours. A fixed probe, pure-Python breadth-first searches over sets and
dicts like the program's own graph code, is timed every ``INTERVAL_S`` of
wall time from a SIGALRM handler, also in the middle of an op. Each op's time
is then scaled by ``REFERENCE_S`` over the median probe time around it:
the time the op would have taken had the machine run the probe at its
reference speed. The probe is the benchmark's own code and never changes with
the program, so a faster program still shows as a shorter scaled time.

The probe's own time is subtracted from the op it interrupted, and the
garbage collector is off while it runs.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

INTERVAL_S = 0.1
# the probe's median time on the reference machine (Python 3.11.7, 2 vCPUs);
# a scaled time is in milliseconds of that machine at that speed
REFERENCE_S = 0.0024
# an op shorter than NEAREST intervals is scaled by its NEAREST closest samples
NEAREST = 5
_SOURCES = 12


def _graph() -> dict[int, set[int]]:
    rng = random.Random(7)
    adj: dict[int, set[int]] = {i: set() for i in range(300)}
    for _ in range(900):
        a, b = rng.randrange(300), rng.randrange(300)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


_ADJ = _graph()


def probe() -> int:
    """A fixed amount of set/dict/list work: BFS from ``_SOURCES`` vertices."""
    reached = 0
    for s in range(_SOURCES):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reached += len(seen)
    return reached


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` while entered. ``spent`` is the
    total probe time, to be subtracted from whatever the probe interrupted."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        # a collection of the program's heap must not land inside the probe
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(((start + end) / 2.0, end - start))
        self.spent += end - start

    def __enter__(self) -> "Sampler":
        for _ in range(NEAREST):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(NEAREST):
            self._sample()

    def clock(self) -> float:
        """Wall time less the probe time so far; a difference of two
        readings times the code between them without the probes in it."""
        return time.perf_counter() - self.spent

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time during [start, end], or
        over the NEAREST samples closest to it when fewer fell inside."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2.0
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:NEAREST]
            inside = [s for _, s in nearest]
        return REFERENCE_S / statistics.median(inside)
