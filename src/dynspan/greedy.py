"""Decremental greedy (2k-1)-spanner with one-way recourse.

Spanner edges are only ever removed when the adversary deletes them.  On
the deletion of spanner edge (a, b) the candidate non-spanner edges are
re-inspected in ascending key order, each joining iff its endpoints sit at
spanner distance >= 2k.  The candidates are the edges (x, y) with
d(x, a) + d(b, y) <= 2k-2 in the spanner without (a, b), found by two
bitmask BFS balls around a and b: for each pair of balls the walk covers
the side with fewer vertices and tests the other as a mask.  This is
exact: the endpoints of every non-spanner edge sit within 2k-1 in the
spanner and the spanner only grows during a rescan, so an edge can join
only if all its short paths used (a, b); a rescan of every non-spanner
edge would reject the others.  For the same reason a candidate through a
or b that the spanner without (a, b) already covers is dropped before
any inspection: the radius-(2k-2) ball around a (or b) settles it with
one AND against the other endpoint's spanner row.
The spanner is a `RoleSet` of one role per edge, so `in_spanner` (its
counts) keeps admission order and `span_mask` is its masks.  That sequence
doubles as a greedy inspection prefix: the structure always equals the
order-driven greedy run that inspects the surviving spanner sequence first
and the rest ascending.  The rest is not stored: the non-spanner edges are
the bits of `adj_mask & ~span_mask`.
"""

from __future__ import annotations

from dynspan.graph import DELETE, DynamicGraph, UpdateEvent, edge_key
from dynspan.graph import UnsupportedUpdate, mask_balls, mask_dist, row_edges
from dynspan.instrumentation import OpCounter, RoleOutput, RoleSet, Step


class GreedyState(RoleOutput):
    def __init__(self, graph: DynamicGraph, k: int, counter: OpCounter | None = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.graph = graph
        self.k = k
        self.cap = 2 * k - 1  # inspection asks dist >= 2k, i.e. not reachable within 2k-1
        self.reach = min(2 * k - 2, 2 * graph.n - 2)  # the radius of a rescan's balls
        self.counter = counter or OpCounter()
        self.roles = RoleSet(graph.n)
        self.in_spanner = self.roles.count
        self.span_mask = self.roles.masks
        self.admitted = 0  # edges ever admitted, the build included
        self._build()

    def _build(self) -> None:
        for e in self.graph.edges():
            self._inspect(e)
        self.roles.flush()

    def _inspect(self, e: tuple[int, int]) -> bool:
        """Admit e into the spanner iff its endpoints sit at spanner distance >= 2k."""
        u, v = e
        if mask_dist(self.span_mask, u, v, self.cap) is not None:
            return False
        self.roles.add(e)
        self.admitted += 1
        return True

    @property
    def non_spanner(self) -> set[tuple[int, int]]:
        """The host edges outside the spanner, read off the rows."""
        return set(row_edges([a & ~s for a, s in zip(self.graph.adj_mask, self.span_mask)]))

    def total_recourse(self) -> int:
        return self.admitted

    def handle_delete(self, u: int, v: int) -> list[tuple[int, int]]:
        """Remove edge (u, v); returns the edges promoted into the spanner."""
        e = edge_key(u, v)
        self.graph.delete_edge(*e)
        self.counter.charge(2, "greedy")  # one per row bit of the deleted edge
        if e not in self.in_spanner:
            return []
        self.roles.remove(e)
        return [cand for cand in self._candidates(*e) if self._inspect(cand)]

    def _candidates(self, a: int, b: int) -> list[tuple[int, int]]:
        """Non-spanner edges (x, y) with d(x, a) + d(b, y) <= 2k-2 in the spanner, ascending.

        For each ring dx around a, the edges between it and b's ball of radius
        2k-2-dx: the walk covers the side with fewer vertices and tests the
        other as a mask.  One pass over a's rings finds either orientation.
        A candidate (a, z) is then dropped when z or a spanner neighbor of z
        lies in a's ball of radius 2k-2, i.e. when the spanner already joins
        it within 2k-1; likewise (z, b) against b's ball.  The spanner only
        grows during the rescan, so `_inspect` would reject these anyway;
        every other candidate is inspected as before.  The balls stop at
        radius 2n-2 (`reach`): a sum of two distances is at most 2n-2
        exactly when both are finite, so a larger k finds the same
        candidates."""
        reach = self.reach
        adj, span = self.graph.adj_mask, self.span_mask
        near, far = mask_balls(span, a, reach), mask_balls(span, b, reach)
        found: set[tuple[int, int]] = set()
        inner = 0
        for dx, ball in enumerate(near):
            walk, test = ball & ~inner, far[reach - dx]
            if test.bit_count() < walk.bit_count():
                walk, test = test, walk
            while walk:
                x = (walk & -walk).bit_length() - 1
                walk &= walk - 1
                row = adj[x] & ~span[x] & test
                while row:
                    y = (row & -row).bit_length() - 1
                    row &= row - 1
                    found.add((x, y) if x < y else (y, x))
            inner = ball
        # the candidates through c = a or b are c's non-spanner neighbors in the other ball
        for c, own, other in ((a, near[reach], far[reach]), (b, far[reach], near[reach])):
            row = adj[c] & ~span[c] & other
            while row:
                z = (row & -row).bit_length() - 1
                row &= row - 1
                if own & (span[z] | 1 << z):
                    found.discard((c, z) if c < z else (z, c))
        return sorted(found)

    def update(self, ev: UpdateEvent) -> Step:
        """Apply one deletion and close its op step."""
        if ev.kind != DELETE:
            raise UnsupportedUpdate("the decremental greedy spanner accepts deletions only")
        self.handle_delete(*ev.edge)
        return Step.of(self.roles.flush(), self.counter.end_step(), 0, self.spanner_size())

    def check_invariants(self) -> None:
        assert self.in_spanner.keys() <= set(self.graph.edges())
        self.roles.check_masks()
        # the local rescan in handle_delete relies on this
        for u, v in self.non_spanner:
            assert mask_dist(self.span_mask, u, v, self.cap) is not None
