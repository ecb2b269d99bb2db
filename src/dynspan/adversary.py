"""Update-stream generators: oblivious, adaptive, and file replay.

Adaptive strategies see the current output (the spanner's adjacency
bitmasks, the most loaded witness machine) but never the algorithm's
random state or future randomness.  Every strategy is deterministic given
its seed and the views it observed, so adaptive runs replay exactly.

The pure strategies of the adaptive family are deletion rules; a
`p_insert` mixing knob lets the same strategies drive mixed update
streams (an insertion is a uniformly random absent pair).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable

from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, edge_at, edge_key
from dynspan.graph import edge_prefix, nth_bit


class AdversaryError(Exception):
    pass


class Exhausted(AdversaryError):
    pass


class StreamParse(Exception):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class AdversaryView:
    """Read-only window onto the structure under attack."""

    graph: DynamicGraph
    # the structure's `spanner_masks`: per-vertex adjacency bitmasks of its output
    spanner_masks: Callable[[], list[int]] | None = None
    heaviest_machine: Callable[[], Hashable | None] | None = None


def _uniform_present_edge(g: DynamicGraph, rng: random.Random) -> tuple[int, int]:
    """Degree-weighted vertex then uniform neighbor: uniform over edges."""
    r = rng.randrange(2 * g.m)
    for u in range(g.n):
        d = len(g.adj[u])
        if r < d:
            return edge_key(u, nth_bit(g.adj_mask[u], r))
        r -= d
    raise AssertionError("degree walk fell off the end")


def _uniform_absent_pair(g: DynamicGraph, rng: random.Random) -> tuple[int, int]:
    total = g.n * (g.n - 1) // 2
    if g.m >= total:
        raise Exhausted("graph is complete")
    while True:  # rejection sampling; absent pairs are the common case
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u != v and not g.has_edge(u, v):
            return edge_key(u, v)


class _Budgeted:
    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.seq = 0

    def _next_seq(self) -> int | None:
        if self.seq >= self.budget:
            return None
        self.seq += 1
        return self.seq


class _EdgeAdversary(_Budgeted):
    """Seeded edge-update strategy with insertion mixing.

    Each event draws once from the RNG: with probability `p_insert` (and
    always on an empty graph when `p_insert` > 0) it inserts a uniformly
    random absent pair, unless the graph is complete; otherwise it deletes
    the edge `victim(view)` picks.
    """

    def __init__(self, seed: int, budget: int, p_insert: float = 0.0) -> None:
        super().__init__(budget)
        self.rng = random.Random(seed)
        self.p_insert = p_insert

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        raise NotImplementedError

    def next_event(self, view: AdversaryView) -> UpdateEvent | None:
        seq = self._next_seq()
        if seq is None:
            return None
        g = view.graph
        want_insert = self.rng.random() < self.p_insert or (g.m == 0 and self.p_insert > 0)
        if want_insert and g.m < g.n * (g.n - 1) // 2:
            return UpdateEvent(seq, INSERT, _uniform_absent_pair(g, self.rng))
        if g.m == 0:
            raise Exhausted("nothing to delete")
        return UpdateEvent(seq, DELETE, self.victim(view))


class RandomOblivious(_EdgeAdversary):
    """Seeded random legal update; ignores the view's output entirely."""

    def __init__(self, seed: int, budget: int, p_insert: float = 0.5) -> None:
        super().__init__(seed, budget, p_insert)

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        return _uniform_present_edge(view.graph, self.rng)


class SpannerTargeting(_EdgeAdversary):
    """Deletes a uniformly random edge of the current spanner (falls back to
    any edge when the spanner is empty); optional insertion mixing.

    The draw r picks the spanner edge of rank r in lexicographic order, read
    off the masks by rank-select, so it is `sorted(spanner)[r]` without
    listing the spanner."""

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        if view.spanner_masks is not None:
            masks = view.spanner_masks()
            prefix = edge_prefix(masks)
            if prefix and prefix[-1]:
                return edge_at(masks, prefix, self.rng.randrange(prefix[-1]))
        return _uniform_present_edge(view.graph, self.rng)


class WitnessHammer(_EdgeAdversary):
    """Deletes the edge carrying the most chosen witness routines: the
    engine's heaviest machine (max load, ties by smallest edge key), or the
    smallest edge when there are no machines."""

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        top = view.heaviest_machine() if view.heaviest_machine is not None else None
        if top is not None:
            return top
        return min(view.graph.edges())


@dataclass(frozen=True)
class MachineDelete:
    seq: int
    machine: Hashable


class MaxLoadMachine(_Budgeted):
    """For engine runs: deletes the machine with the largest assigned load."""

    def __init__(self, budget: int) -> None:
        super().__init__(budget)

    def next_event(self, engine) -> MachineDelete | None:
        seq = self._next_seq()
        if seq is None:
            return None
        x = engine.heaviest_machine()
        if x is None:
            raise Exhausted("no machines left")
        return MachineDelete(seq, x)


class Replay(_Budgeted):
    """Feeds a stream file: header `N <n>`, then `+ <u> <v>` / `- <u> <v>`."""

    def __init__(self, text: str, budget: int | None = None) -> None:
        self.n, self.events = parse_stream(text)
        super().__init__(budget if budget is not None else len(self.events))
        self._pos = 0

    def next_event(self, view: AdversaryView | None = None) -> UpdateEvent | None:
        seq = self._next_seq()
        if seq is None or self._pos >= len(self.events):
            return None
        ev = self.events[self._pos]
        self._pos += 1
        return ev


def parse_stream(text: str) -> tuple[int, list[UpdateEvent]]:
    n: int | None = None
    events: list[UpdateEvent] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "N":
            if n is not None:
                raise StreamParse(lineno, "duplicate header")
            if len(parts) != 2 or not parts[1].isdigit():
                raise StreamParse(lineno, "malformed header")
            n = int(parts[1])
            continue
        if n is None:
            raise StreamParse(lineno, "missing `N <n>` header")
        if len(parts) != 3 or parts[0] not in (INSERT, DELETE):
            raise StreamParse(lineno, f"malformed update {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise StreamParse(lineno, f"non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise StreamParse(lineno, f"illegal endpoints in {line!r}")
        events.append(UpdateEvent(len(events) + 1, parts[0], edge_key(u, v)))
    if n is None:
        raise StreamParse(1, "empty stream")
    return n, events


def write_stream(path: str, n: int, events: list[UpdateEvent]) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"N {n}\n")
        for ev in events:
            f.write(f"{ev.kind} {ev.edge[0]} {ev.edge[1]}\n")

