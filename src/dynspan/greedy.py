"""Decremental greedy (2k-1)-spanner with one-way recourse.

Spanner edges are only ever removed when the adversary deletes them.  On
such a deletion every current non-spanner edge is re-inspected in
ascending key order and joins iff its endpoints sit at spanner distance
>= 2k.  The maintained edge sequence doubles as a greedy inspection
prefix: the structure always equals the order-driven greedy run that
inspects the surviving spanner sequence first and the rest ascending.
"""

from __future__ import annotations

from dynspan.graph import DELETE, DynamicGraph, EdgeMissing, UpdateEvent, edge_key, mask_dist
from dynspan.graph import UnsupportedUpdate
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
        added = [cand for cand in sorted(self.non_spanner) if self._inspect(cand)]
        for cand in added:
            self.non_spanner.discard(cand)
        return added

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
