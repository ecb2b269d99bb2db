"""Stateful property test: mixed update streams into every fully-dynamic
3-spanner at small n.

After each update every structure must report exactly how its output
changed, keep its own invariants, and give stretch at most 3 by a
networkx BFS oracle that shares no code with the bitmask `verify_stretch`.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import Phase, settings, strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule  # noqa: E402

from dynspan.det3 import Det3State  # noqa: E402
from dynspan.fully_dynamic import FullyDynamicSpanner  # noqa: E402
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent  # noqa: E402
from dynspan.resample3 import Resample3, WrappedRunner  # noqa: E402

N = 10
PAIRS = list(itertools.combinations(range(N), 2))


def bfs_stretch_ok(host: set, spanner: set, t: int) -> bool:
    h = nx.Graph()
    h.add_nodes_from(range(N))
    h.add_edges_from(spanner)
    return all(
        v in nx.single_source_shortest_path_length(h, u, cutoff=t) for u, v in sorted(host)
    )


class Structure:
    """One structure under test, its host graph and its own invariant check."""

    def __init__(self, name, state, graph, check) -> None:
        self.name = name
        self.state = state
        self.graph = graph  # None: the structure owns the graph it changes
        self.check = check

    def update(self, ev: UpdateEvent):
        if self.graph is not None:
            self.graph.apply(ev)
        return self.state.update(ev)


def build(edges: list) -> list[Structure]:
    fd = FullyDynamicSpanner(N, 2, edges=tuple(edges))
    det3 = Det3State(DynamicGraph(N, edges))
    r3 = Resample3(DynamicGraph(N, edges), seed=5, phase_len=4)
    wrapped = WrappedRunner(DynamicGraph(N, edges), seed=7, rotation_len=6)
    return [
        Structure("fd-greedy", fd, DynamicGraph(N, edges), fd.check_invariants),
        Structure("det3", det3, None, det3.check_against_rebuild),
        Structure("resample3", r3, None, lambda: r3.phase.check_invariants()),
        Structure("wrapped", wrapped, None, wrapped.check_invariants),
    ]


class SpannerStreams(RuleBasedStateMachine):
    @initialize(edges=st.sets(st.sampled_from(PAIRS), max_size=25))
    def start(self, edges):
        self.present = set(edges)
        self.seq = 0
        self.structures = build(sorted(edges))

    def apply(self, kind: str, edge: tuple[int, int]) -> None:
        self.seq += 1
        ev = UpdateEvent(self.seq, kind, edge)
        (self.present.add if kind == INSERT else self.present.discard)(edge)
        for s in self.structures:
            before = s.state.spanner_edges()
            step = s.update(ev)
            after = s.state.spanner_edges()
            assert (step.adds, step.dels, step.output_size) == (
                len(after - before),
                len(before - after),
                len(after),
            ), (s.name, ev)
            s.check()
            assert after <= self.present, s.name
            assert bfs_stretch_ok(self.present, after, 3), (s.name, ev)

    @precondition(lambda self: len(self.present) < len(PAIRS))
    @rule(i=st.integers(min_value=0, max_value=len(PAIRS) - 1))
    def insert(self, i):
        absent = [p for p in PAIRS if p not in self.present]
        self.apply(INSERT, absent[i % len(absent)])

    @precondition(lambda self: self.present)
    @rule(i=st.integers(min_value=0, max_value=len(PAIRS) - 1))
    def delete(self, i):
        present = sorted(self.present)
        self.apply(DELETE, present[i % len(present)])


# no shrinking: a failing example needing a level rebuild would shrink for minutes
SpannerStreams.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=80,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
TestSpannerStreams = SpannerStreams.TestCase
