"""Binary-counter reduction from fully-dynamic to decremental spanners."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from dynspan.fully_dynamic import FullyDynamicSpanner, level_params
from dynspan.graph import DELETE, INSERT, DynamicGraph, EdgeExists, EdgeMissing, UpdateEvent
from dynspan.greedy import GreedyState
from dynspan.oracle import verify_stretch


def test_level_params_examples():
    # n=16, k=2: 16^1.5 = 64 = 2^6
    assert level_params(16, 2) == (6, 2)  # j: 2^(2j) >= 16 -> j=2
    ell0, j = level_params(32, 2)
    assert 2**ell0 <= 32**1.5 < 2 ** (ell0 + 1)
    assert 2 ** (j * 2) >= 32 and 2 ** ((j - 1) * 2) < 32


def integer_level_params(n: int, k: int) -> tuple[int, int]:
    """`level_params` by its definition, counting up with exact powers."""
    if n < 2:
        return 0, 0
    ell0 = 0
    while 2 ** ((ell0 + 1) * k) <= n ** (k + 1):
        ell0 += 1
    j = 0
    while 2 ** (j * k) < n ** (k - 1):
        j += 1
    return ell0, j


def test_level_params_match_their_integer_definition():
    for n in range(0, 301):
        for k in range(1, 13):
            assert level_params(n, k) == integer_level_params(n, k), (n, k)


def test_level_params_at_a_huge_k_build_no_huge_power():
    # n^(k+1) has ~10^7 bits here; the definition's loops would take ~20 s
    assert level_params(1000, 10**6) == (9, 10)
    assert level_params(1023, 10**6) == (9, 10)
    assert level_params(1024, 10**6) == (10, 10)


def test_empty_history_empty_spanner():
    assert FullyDynamicSpanner(DynamicGraph(16), 2).spanner_edges() == set()


def test_first_insert_goes_to_level_zero():
    fd = FullyDynamicSpanner(DynamicGraph(16), 2)
    assert fd.insert(0, 1) is None  # counter 0->1 flips bit 0 <= ell0=6
    assert fd.owner[(0, 1)] == 0
    assert fd.spanner_edges() == {(0, 1)}


def test_insert_number_2_pow_ell0_plus_1_rebuilds_level_one():
    fd = FullyDynamicSpanner(DynamicGraph(16), 2)
    pairs = list(itertools.combinations(range(16), 2))  # 120 pairs
    # churn through insert/delete on one edge so the counter outruns the
    # number of distinct slots; every edge but the probe stays put
    inserted = 0
    info = None
    idx = 0
    present: list[tuple[int, int]] = []
    while inserted < 2**7:
        if idx < len(pairs) - 1:
            e = pairs[idx]
            idx += 1
            info = fd.insert(*e)
            present.append(e)
        else:
            info = fd.insert(*pairs[-1])
            if inserted + 1 < 2**7:
                fd.delete(*pairs[-1])
        inserted += 1
    assert info is not None and info.level == 1
    fd.check_invariants()


def test_duplicate_insert_rejected():
    fd = FullyDynamicSpanner(DynamicGraph(8), 2)
    fd.insert(0, 1)
    with pytest.raises(EdgeExists):
        fd.insert(1, 0)


def test_delete_level_zero_edge_shrinks_output_by_it():
    fd = FullyDynamicSpanner(DynamicGraph(16), 2)
    fd.insert(0, 1)
    fd.insert(2, 3)
    out_before = fd.spanner_edges()
    assert fd.delete(0, 1) == []
    assert fd.spanner_edges() == out_before - {(0, 1)}
    with pytest.raises(EdgeMissing):
        fd.delete(0, 1)


def test_level_delete_matches_standalone_greedy():
    # n=12, k=2: ell0=5, so insertion #64 flips bit 6 and rebuilds level 1
    rng = random.Random(3)
    fd = FullyDynamicSpanner(DynamicGraph(12), 2)
    pairs = list(itertools.combinations(range(12), 2))
    rng.shuffle(pairs)
    for e in pairs:
        fd.insert(*e)
    lvl = max(fd.levels)
    state = fd.levels[lvl]
    shadow_graph = state.graph.copy()
    shadow = GreedyState(shadow_graph, 2)
    assert list(shadow.in_spanner) == list(state.in_spanner)
    victims = [e for e in state.graph.edges()][:10]
    for e in victims:
        got = fd.delete(*e)
        want = shadow.handle_delete(*e)
        assert got == want
        assert state.in_spanner == shadow.in_spanner
        fd.check_invariants()


def test_delete_then_reinsert_moves_levels_but_keeps_stretch():
    rng = random.Random(5)
    fd = FullyDynamicSpanner(DynamicGraph(16), 2)
    graph = DynamicGraph(16)
    pairs = list(itertools.combinations(range(16), 2))
    for step in range(300):
        if graph.m and rng.random() < 0.45:
            e = rng.choice(sorted(graph.edges()))
            fd.delete(*e)
            graph.delete_edge(*e)
        else:
            absent = [p for p in pairs if not graph.has_edge(*p)]
            if not absent:
                continue
            e = rng.choice(absent)
            fd.insert(*e)
            graph.insert_edge(*e)
        fd.check_invariants()
        assert verify_stretch(graph, fd.spanner_edges(), 3).ok


def test_mixed_run_size_and_recourse_bounds():
    rng = random.Random(7)
    n, k, updates = 32, 2, 2000
    fd = FullyDynamicSpanner(DynamicGraph(n), k)
    graph = DynamicGraph(n)
    pairs = list(itertools.combinations(range(n), 2))
    recourse = 0
    for step in range(updates):
        if graph.m and rng.random() < 0.5:
            ev = UpdateEvent(step, DELETE, rng.choice(sorted(graph.edges())))
        else:
            absent = [p for p in pairs if not graph.has_edge(*p)]
            if not absent:
                continue
            ev = UpdateEvent(step, INSERT, rng.choice(absent))
        graph.apply(ev)
        recourse += fd.update(ev).adds
        if step % 100 == 0:
            assert verify_stretch(graph, fd.spanner_edges(), 2 * k - 1).ok
            fd.check_invariants()
    assert fd.spanner_size() <= 4 * n**1.5 * (math.log2(n) + 2)
    assert recourse <= 8 * updates * math.log2(updates)


def test_initial_edges_occupy_top_level():
    edges = [(0, 1), (1, 2), (2, 3)]
    fd = FullyDynamicSpanner(DynamicGraph(8, edges), 2)
    assert all(fd.owner[e] == max(fd.num_levels, 1) for e in edges)
    assert fd.spanner_edges() == set(edges)  # tree: everything is spanner
