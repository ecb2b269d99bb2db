"""The host's speed, gauged by a fixed reference kernel timed between steps.

On a shared host the same code runs at different speeds from one second
to the next: a fixed pure-Python loop flips between two speeds about
1.45x apart, and stays in either for anything from a fraction of a second
to minutes. A time measured there says as much about the neighbours as
about the program. `Gauge` times a fixed kernel (dict/set traversal and
bitmask composition, the operations dynspan's layers spend their time
on, but none of dynspan's code) every `INTERVAL_NS` of loop time, and
`Gauge.scale(t)` gives the factor that converts a time measured at `t`
into reference time: the time it would have taken on a host that runs
the kernel in exactly `REFERENCE_NS`. A change to the program moves its
reference time just as it moves its wall time; a change in the host's
speed moves only the wall time.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

REFERENCE_NS = 1_000_000  # one kernel run takes this long on the reference host
INTERVAL_NS = 50_000_000  # loop time between two gauge samples

_rng = random.Random(20221)
_N = 256
_ADJ: list[set[int]] = [set() for _ in range(_N)]
while sum(map(len, _ADJ)) < 2 * 1500:
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_MASKS = [sum(1 << v for v in adj) for adj in _ADJ]
_SOURCES = [_rng.randrange(_N) for _ in range(4)]
_EDGES = {(u, v): i for i, (u, v) in enumerate((u, v) for u in range(_N) for v in sorted(_ADJ[u]) if u < v)}


def kernel() -> int:
    """A fixed amount of work, about 1 ms on the reference host."""
    acc = 0
    for s in _SOURCES:  # two-hop BFS over adjacency sets into a dict
        dist = {s: 0}
        frontier = [s]
        for d in (1, 2):
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        acc += len(dist)
    for u in range(0, _N, 2):  # two-hop reach by bitmask composition
        m = _MASKS[u]
        reach = m
        while m:
            low = m & -m
            reach |= _MASKS[low.bit_length() - 1]
            m ^= low
        acc += reach.bit_count()
    for (u, v), i in _EDGES.items():  # tuple-keyed dict probes
        if (v, u) in _EDGES:
            acc += i
    return acc


class Gauge:
    """Timed kernel runs of one episode: when each ran and how long it took."""

    def __init__(self) -> None:
        self.at: list[int] = []
        self.ns: list[int] = []
        self.due = 0

    def sample(self) -> None:
        """Time the kernel twice and keep the faster run, so that one
        preemption does not read as a slow host."""
        gc.disable()
        try:
            best = None
            for _ in range(2):
                t0 = time.perf_counter_ns()
                kernel()
                ns = time.perf_counter_ns() - t0
                best = ns if best is None else min(best, ns)
        finally:
            gc.enable()
        self.at.append(t0)
        self.ns.append(best)
        self.due = time.perf_counter_ns() + INTERVAL_NS

    def sample_if_due(self, now: int) -> None:
        if now >= self.due:
            self.sample()

    def scale(self, t: int) -> float:
        """Reference time per measured time at `t`: REFERENCE_NS over the
        mean of the samples just before and just after `t`."""
        i = bisect.bisect_right(self.at, t)
        near = self.ns[max(0, i - 1) : i + 1]
        return REFERENCE_NS * len(near) / sum(near)
