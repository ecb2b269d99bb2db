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
from typing import Callable, Hashable, NamedTuple

from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, edge_key, nth_bit, rank_below
from dynspan.instrumentation import EdgeRanks, InvariantBroken


class AdversaryError(Exception):
    pass


class Exhausted(AdversaryError):
    pass


class StreamParse(Exception):
    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class AdversaryView(NamedTuple):
    """Read-only window onto the structure under attack: the host graph and
    one output query.  A strategy that wants the output's adjacency masks
    reads them as `spanner_ranks().rows`."""

    graph: DynamicGraph
    # the structure's `spanner_ranks`: the maintained `EdgeRanks` of its output
    spanner_ranks: Callable[[], EdgeRanks] | None = None
    heaviest_machine: Callable[[], Hashable | None] | None = None


def _uniform_present_edge(g: DynamicGraph, rng: random.Random) -> tuple[int, int]:
    """Degree-weighted vertex then uniform neighbor: uniform over edges."""
    r = rank_below(rng.getrandbits, 2 * g.m)
    for u, row in enumerate(g.adj_mask):
        d = row.bit_count()
        if r < d:
            return edge_key(u, nth_bit(row, r))
        r -= d
    raise InvariantBroken("degree walk fell off the end")


def _uniform_absent_pair(g: DynamicGraph, rng: random.Random) -> tuple[int, int]:
    total = g.n * (g.n - 1) // 2
    if g.m >= total:
        raise Exhausted("graph is complete")
    bits = rng.getrandbits
    while True:  # rejection sampling; absent pairs are the common case
        u = rank_below(bits, g.n)
        v = rank_below(bits, g.n)
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

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        return _uniform_present_edge(view.graph, self.rng)


class SpannerTargeting(_EdgeAdversary):
    """Deletes a uniformly random edge of the current spanner (falls back to
    any edge when the spanner is empty or the view has no spanner);
    optional insertion mixing.

    The draw r picks the spanner edge of rank r in lexicographic order, so
    it is `sorted(spanner)[r]` without listing the spanner: the view's
    `spanner_ranks` select it in O(log n)."""

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        if view.spanner_ranks is not None and (ranks := view.spanner_ranks()).total:
            return ranks.edge_at(rank_below(self.rng.getrandbits, ranks.total))
        return _uniform_present_edge(view.graph, self.rng)


class WitnessHammer(_EdgeAdversary):
    """Deletes the edge carrying the most chosen witness routines: the
    engine's heaviest machine (max load, ties by smallest edge key), or the
    smallest edge when there are no machines."""

    def victim(self, view: AdversaryView) -> tuple[int, int]:
        top = view.heaviest_machine() if view.heaviest_machine is not None else None
        if top is not None:
            return top
        return next(view.graph.edges())  # lexicographic: the smallest edge


class MachineDelete(NamedTuple):
    seq: int
    machine: Hashable


class MaxLoadMachine(_Budgeted):
    """For engine runs: deletes the machine with the largest assigned load."""

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

    def __init__(self, text: str) -> None:
        self.n, self.events = parse_stream(text)
        super().__init__(len(self.events))

    def next_event(self, view: AdversaryView | None = None) -> UpdateEvent | None:
        seq = self._next_seq()
        return None if seq is None else self.events[seq - 1]


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

