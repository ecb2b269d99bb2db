"""Fully-dynamic (2k-1)-spanner via a binary-counter level partition.

Edges live in levels E_0, E_1, ...; level 0 is passed through to the
output whole, each higher level runs its own decremental greedy spanner.
A counter of insertions decides placement: when its highest flipped bit g
is at most ell0 the new edge joins E_0, otherwise levels 0..g-ell0-1 merge
into level g-ell0 and that level's spanner is rebuilt from scratch.
Deletions are delegated to the owning level.
"""

from __future__ import annotations

from dataclasses import dataclass

from dynspan.graph import INSERT, DynamicGraph, UpdateEvent
from dynspan.greedy import GreedyState
from dynspan.instrumentation import OpCounter, RoleOutput, RoleSet, Step


def level_params(n: int, k: int) -> tuple[int, int]:
    """(ell0, j): 2**ell0 <= n^(1+1/k) < 2**(ell0+1), j = ceil(log2 n^(1-1/k)).

    Exact integer arithmetic: 2**ell <= n^(1+1/k) iff 2**(ell*k) <= n^(k+1).
    """
    if n < 2:
        return 0, 0
    ell0 = 0
    while 2 ** ((ell0 + 1) * k) <= n ** (k + 1):
        ell0 += 1
    j = 0
    while 2 ** (j * k) < n ** (k - 1):
        j += 1
    return ell0, j


@dataclass(frozen=True)
class RebuildInfo:
    level: int
    size: int  # edges in the rebuilt level


class FullyDynamicSpanner(RoleOutput):
    """Owns its host graph `g`: an update applies to it first, so a bad
    vertex, a present insert or a missing delete raises before anything
    changes."""

    def __init__(self, graph: DynamicGraph, k: int, counter: OpCounter | None = None) -> None:
        self.g = graph
        self.n = graph.n
        self.k = k
        self.ell0, self.num_levels = level_params(self.n, k)
        self.counter = counter or OpCounter()
        self.insert_count = 0
        self.e0: set[tuple[int, int]] = set()
        self.levels: dict[int, GreedyState] = {}
        self.owner: dict[tuple[int, int], int] = {}
        # roles: one per E_0 edge and one per spanner edge of a level; every
        # edge has one owner, so no edge ever holds two
        self.roles = RoleSet(self.n)
        if graph.m:
            # a non-empty start graph occupies the top level whole
            top = max(self.num_levels, 1)
            state = GreedyState(graph.copy(), k, self.counter)
            self.levels[top] = state
            for e in graph.edges():
                self.owner[e] = top
            for e in state.in_spanner:
                self.roles.add(e)
            self.roles.flush()

    def insert(self, u: int, v: int) -> RebuildInfo | None:
        e = self.g.insert_edge(u, v)
        self.insert_count += 1
        g = (self.insert_count & -self.insert_count).bit_length() - 1  # highest flipped bit
        if g <= self.ell0:
            self.e0.add(e)
            self.owner[e] = 0
            self.roles.add(e)
            return None
        h = g - self.ell0  # may exceed num_levels once the counter outgrows n(n-1)/2
        return self._rebuild_level(h, e)

    def _rebuild_level(self, h: int, new_edge: tuple[int, int]) -> RebuildInfo:
        merged = set(self.e0)
        old_output = list(self.e0)
        self.e0.clear()
        for i in sorted(self.levels):
            if i <= h:
                state = self.levels.pop(i)
                merged |= set(state.graph.edges())
                old_output += state.in_spanner
        merged.add(new_edge)
        graph = DynamicGraph(self.n, sorted(merged))
        state = GreedyState(graph, self.k, self.counter)
        self.levels[h] = state
        for e in merged:
            self.owner[e] = h
        for e in old_output:
            self.roles.remove(e)
        for e in state.in_spanner:
            self.roles.add(e)
        return RebuildInfo(h, len(merged))

    def delete(self, u: int, v: int) -> list[tuple[int, int]]:
        e = self.g.delete_edge(u, v)
        level = self.owner.pop(e)
        if level == 0:
            self.e0.discard(e)
            self.roles.remove(e)
            return []
        state = self.levels[level]
        if e in state.in_spanner:
            self.roles.remove(e)
        added = state.handle_delete(*e)
        for a in added:
            self.roles.add(a)
        return added

    def update(self, ev: UpdateEvent) -> Step:
        """Apply one insertion or deletion and close its op step."""
        (self.insert if ev.kind == INSERT else self.delete)(*ev.edge)
        return Step.of(self.roles.flush(), self.counter.end_step(), 0, self.spanner_size())

    def check_invariants(self) -> None:
        assert set(self.owner) == set(self.g.edges())
        seen: set[tuple[int, int]] = set()
        for e, lvl in self.owner.items():
            assert e not in seen
            seen.add(e)
            if lvl == 0:
                assert e in self.e0
            else:
                assert self.levels[lvl].graph.has_edge(*e)
        assert len(self.e0) + sum(s.graph.m for s in self.levels.values()) == len(self.owner)
        output = set(self.e0)
        for state in self.levels.values():
            output.update(state.in_spanner)
        assert self.roles.count == dict.fromkeys(output, 1)
        self.roles.check_masks()
        # capacity: level i holds at most 2**(ell0+i+1) edges (the counter can
        # feed a level for 2**(ell0+i+1)-1 insertions between its flushes)
        assert len(self.e0) < 2 ** (self.ell0 + 1)
        for i, state in self.levels.items():
            state.check_invariants()
            if i <= self.num_levels:
                assert state.graph.m <= 2 ** (self.ell0 + i + 1)
