"""Decremental greedy (2k-1)-spanner with one-way recourse.

Spanner edges are only ever removed when the adversary deletes them.  On
the deletion of spanner edge (a, b) the candidate non-spanner edges are
re-inspected in ascending key order, each joining iff its endpoints sit at
spanner distance >= 2k.  The candidates are the edges (x, y) with
d(x, a) + d(b, y) <= 2k-2 in the spanner without (a, b), found by two
bitmask BFS balls around a and b.  This is exact: the endpoints of every
non-spanner edge sit within 2k-1 in the spanner and the spanner only
grows during a rescan, so an edge can join only if all its short paths
used (a, b); a rescan of every non-spanner edge would reject the others.
The maintained edge sequence doubles as a greedy inspection prefix: the
structure always equals the order-driven greedy run that inspects the
surviving spanner sequence first and the rest ascending.
"""

from __future__ import annotations

from dynspan.graph import DELETE, DynamicGraph, EdgeMissing, UpdateEvent, edge_key, iter_bits
from dynspan.graph import UnsupportedUpdate, mask_balls, mask_dist
from dynspan.instrumentation import OpCounter, Step


class GreedyState:
    def __init__(self, graph: DynamicGraph, k: int, counter: OpCounter | None = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.graph = graph
        self.k = k
        self.cap = 2 * k - 1  # inspection asks dist >= 2k, i.e. not reachable within 2k-1
        self.counter = counter or OpCounter()
        self.spanner_seq: list[tuple[int, int]] = []
        self.in_spanner: set[tuple[int, int]] = set()
        self.non_spanner: set[tuple[int, int]] = set()
        self.span_mask = [0] * graph.n
        self.admitted = 0  # edges ever admitted, the build included
        self._build()

    def _build(self) -> None:
        for e in self.graph.edges():
            if not self._inspect(e):
                self.non_spanner.add(e)

    def _inspect(self, e: tuple[int, int]) -> bool:
        """Admit e into the spanner iff its endpoints sit at spanner distance >= 2k."""
        u, v = e
        if mask_dist(self.span_mask, u, v, self.cap) is not None:
            return False
        self.spanner_seq.append(e)
        self.in_spanner.add(e)
        self.admitted += 1
        self.span_mask[u] |= 1 << v
        self.span_mask[v] |= 1 << u
        return True

    def spanner_edges(self) -> set[tuple[int, int]]:
        return set(self.in_spanner)

    def spanner_size(self) -> int:
        return len(self.in_spanner)

    def spanner_masks(self) -> list[int]:
        return self.span_mask

    def total_recourse(self) -> int:
        return self.admitted

    def handle_delete(self, u: int, v: int) -> list[tuple[int, int]]:
        """Remove edge (u, v); returns the edges promoted into the spanner."""
        e = edge_key(u, v)
        self.graph.delete_edge(*e)
        self.counter.charge(2, "greedy")
        if e in self.non_spanner:
            self.non_spanner.discard(e)
            return []
        if e not in self.in_spanner:
            raise EdgeMissing(f"edge {e} tracked nowhere")  # unreachable if graph agreed
        self.spanner_seq.remove(e)
        self.in_spanner.discard(e)
        self.span_mask[e[0]] &= ~(1 << e[1])
        self.span_mask[e[1]] &= ~(1 << e[0])
        added = [cand for cand in self._candidates(*e) if self._inspect(cand)]
        for cand in added:
            self.non_spanner.discard(cand)
        return added

    def _candidates(self, a: int, b: int) -> list[tuple[int, int]]:
        """Non-spanner edges (x, y) with d(x, a) + d(b, y) <= 2k-2 in the spanner, ascending.

        Each edge is met from both endpoints, so one pass from a's side finds
        either orientation."""
        reach = self.cap - 1
        adj, span = self.graph.adj_mask, self.span_mask
        near, far = mask_balls(span, a, reach), mask_balls(span, b, reach)
        found: set[tuple[int, int]] = set()
        inner = 0
        for dx, ball in enumerate(near):
            for x in iter_bits(ball & ~inner):
                for y in iter_bits(adj[x] & ~span[x] & far[reach - dx]):
                    found.add(edge_key(x, y))
            inner = ball
        return sorted(found)

    def update(self, ev: UpdateEvent) -> Step:
        """Apply one deletion and close its op step."""
        if ev.kind != DELETE:
            raise UnsupportedUpdate("the decremental greedy spanner accepts deletions only")
        dels = int(edge_key(*ev.edge) in self.in_spanner)
        adds = len(self.handle_delete(*ev.edge))
        return Step(self.counter.end_step(), 0, adds, dels, self.spanner_size())

    def check_invariants(self) -> None:
        assert self.in_spanner | self.non_spanner == set(self.graph.edges())
        assert not (self.in_spanner & self.non_spanner)
        assert self.in_spanner == set(self.spanner_seq)
        for u in range(self.graph.n):
            assert self.span_mask[u] == sum(
                1 << v for v in self.graph.adj[u] if edge_key(u, v) in self.in_spanner
            )
        # the local rescan in handle_delete relies on this
        for u, v in self.non_spanner:
            assert mask_dist(self.span_mask, u, v, self.cap) is not None
