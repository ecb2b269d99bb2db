"""Graph core: construction, updates, bounded BFS, serialization."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from dynspan.graph import (
    DELETE,
    INSERT,
    DuplicateEdge,
    DynamicGraph,
    EdgeExists,
    EdgeMissing,
    GraphError,
    SelfLoop,
    UpdateEvent,
    VertexOutOfRange,
    check_range,
    edge_key,
    mask_balls,
    mask_dist,
)
from dynspan.instrumentation import OpCounter
from helpers import bfs_dist, max_degree


def adjacency_sets(n: int, edges) -> list[set[int]]:
    # neighbour sets built from the edge list a graph was built from, not
    # read back from the graph's bitmask rows
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def plain_bfs(adj: list[set[int]], src: int) -> dict[int, int]:
    # independent reference: queue-based BFS over adjacency sets
    dist = {src: 0}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def levelwise_mask_dist(adj_mask: list[int], src: int, dst: int, cap: int | None = None) -> int | None:
    # `graph.mask_dist` as it was before it searched from both ends, kept
    # verbatim as a reference: a level-wise bitmask BFS from src alone.
    # The slow twins of greedy and the oracle use it too, so that they do
    # not depend on the kernel they check.
    if src == dst:
        return 0
    target = 1 << dst
    visited = 1 << src
    frontier = visited
    d = 0
    while frontier and (cap is None or d < cap):
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj_mask[low.bit_length() - 1]
            m ^= low
        nxt &= ~visited
        d += 1
        if nxt & target:
            return d
        visited |= nxt
        frontier = nxt
    return None


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return rng.sample(list(itertools.combinations(range(n), 2)), m)


def random_graph(rng: random.Random, n: int, m: int) -> DynamicGraph:
    return DynamicGraph(n, random_edges(rng, n, m))


def test_empty_graph():
    g = DynamicGraph(3, [])
    assert g.m == 0
    assert list(g.edges()) == []


def test_path_graph_degrees():
    g = DynamicGraph(3, [(0, 1), (1, 2)])
    assert [row.bit_count() for row in g.adj_mask] == [1, 2, 1]
    assert g.m == 2


def test_complete_graph_k4():
    g = DynamicGraph(4, list(itertools.combinations(range(4), 2)))
    assert g.m == 6


def test_constructor_rejections():
    with pytest.raises(DuplicateEdge):
        DynamicGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(SelfLoop):
        DynamicGraph(3, [(2, 2)])
    with pytest.raises(VertexOutOfRange):
        DynamicGraph(3, [(0, 3)])


def per_edge_build(n: int, edges) -> DynamicGraph:
    """What `DynamicGraph(n, edges)` must do, one edge at a time: check its
    range, key it, reject a duplicate of the key, insert it."""
    g = DynamicGraph(n, counter=OpCounter())
    for u, v in edges:
        check_range(n, u, v)
        e = edge_key(u, v)
        if g.has_edge(*e):
            raise DuplicateEdge(f"duplicate edge {e}")
        g.insert_edge(*e)
    return g


def build_outcome(build):
    """The exception class and message a build raises, or the graph it holds."""
    try:
        g = build()
    except GraphError as exc:
        return type(exc), str(exc)
    return g.adj_mask, g.m, g.counter.by_module


@pytest.mark.parametrize(
    "edges,error,message",
    [
        ([(0, 1), (2, 5), (3, 3)], VertexOutOfRange, "vertex 5 not in [0, 4)"),
        ([(0, 1), (-1, 9)], VertexOutOfRange, "vertex -1 not in [0, 4)"),
        ([(0, 1), (2, 2), (1, 0)], SelfLoop, "self-loop at vertex 2"),
        ([(1, 3), (0, 2), (3, 1), (2, 2)], DuplicateEdge, "duplicate edge (1, 3)"),
    ],
)
def test_constructor_raises_for_the_first_bad_edge(edges, error, message):
    with pytest.raises(error) as exc:
        DynamicGraph(4, edges)
    assert str(exc.value) == message
    assert build_outcome(lambda: per_edge_build(4, edges)) == (error, message)


def test_constructor_matches_the_per_edge_build():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(2, 12)
        pairs = list(itertools.combinations(range(n), 2))
        sample = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in sample]
        for _ in range(rng.randrange(3)):  # bad edges: out of range, a loop, a reversed duplicate
            u = rng.randrange(n)
            bad = [(u, rng.choice([-1, n, n + 3])), (u, u)] + [e[::-1] for e in edges[:1]]
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(bad))
        counter = OpCounter()
        got = build_outcome(lambda: DynamicGraph(n, edges, counter=counter))
        assert got == build_outcome(lambda: per_edge_build(n, edges))
        if isinstance(got[0], list):  # a build charges two ops per edge, and only to graph
            assert counter.total == counter.by_module["graph"] == 2 * len(edges)


def test_edge_key_normalizes():
    assert edge_key(5, 2) == (2, 5)
    with pytest.raises(SelfLoop):
        edge_key(1, 1)


def test_insert_and_double_insert():
    g = DynamicGraph(2)
    g.insert_edge(0, 1)
    assert g.m == 1
    with pytest.raises(EdgeExists):
        g.insert_edge(1, 0)


def test_insert_delete_insert_round_trip():
    g = DynamicGraph(2)
    g.insert_edge(0, 1)
    g.delete_edge(0, 1)
    g.insert_edge(0, 1)
    assert g.m == 1


def test_delete_from_path():
    g = DynamicGraph(3, [(0, 1), (1, 2)])
    g.delete_edge(0, 1)
    assert g.m == 1
    with pytest.raises(EdgeMissing):
        g.delete_edge(0, 1)


def test_delete_all_of_k4_any_order():
    rng = random.Random(7)
    edges = list(itertools.combinations(range(4), 2))
    for _ in range(5):
        g = DynamicGraph(4, edges)
        order = edges[:]
        rng.shuffle(order)
        for e in order:
            g.delete_edge(*e)
            g.check_invariants()
        assert g.m == 0


def test_bfs_dist_examples():
    path = DynamicGraph(3, [(0, 1), (1, 2)])
    assert bfs_dist(path, 0, 2, 5) == 2
    two_comp = DynamicGraph(4, [(0, 1), (2, 3)])
    assert bfs_dist(two_comp, 0, 3, 10) is None
    p4 = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_dist(p4, 0, 3, 2) is None  # cap binds
    assert bfs_dist(p4, 0, 3, 3) == 3
    assert bfs_dist(p4, 2, 2, 0) == 0


def test_bfs_against_all_pairs_reference():
    rng = random.Random(11)
    for n, m in [(10, 15), (30, 60), (50, 120), (50, 400)]:
        edges = random_edges(rng, n, m)
        g = DynamicGraph(n, edges)
        adj = adjacency_sets(n, edges)
        for src in range(n):
            ref = plain_bfs(adj, src)
            for dst in range(n):
                assert bfs_dist(g, src, dst) == ref.get(dst)
                capped = bfs_dist(g, src, dst, 3)
                want = ref.get(dst)
                assert capped == (want if want is not None and want <= 3 else None)


def split_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Two random components on the first 9/10 of the vertices; the rest isolated."""
    live = list(range(n - n // 10))
    rng.shuffle(live)
    halves = live[: len(live) // 2], live[len(live) // 2 :]
    pairs = (e for half in halves for e in itertools.combinations(sorted(half), 2))
    return [e for e in pairs if rng.random() < density]


@pytest.mark.parametrize("n", [1, 2, 12, 64, 130])
def test_mask_dist_matches_levelwise_and_plain_bfs(n):
    rng = random.Random(900 + n)
    for density in (2.5 / n, 6.0 / n, 0.3):
        edges = split_edges(rng, n, density)
        g = DynamicGraph(n, edges)
        adj = adjacency_sets(n, edges)
        far = 0
        components = set()
        for src in range(n):
            ref = plain_bfs(adj, src)
            components.add(min(ref))
            for d, ball in enumerate(mask_balls(g.adj_mask, src, 7)):
                assert ball == sum(1 << v for v, dv in ref.items() if dv <= d), (src, d)
            for dst in range(n):
                want = ref.get(dst)
                far += want is not None and want > 7
                for cap in (None, *range(8)):
                    got = mask_dist(g.adj_mask, src, dst, cap)
                    assert got == levelwise_mask_dist(g.adj_mask, src, dst, cap), (src, dst, cap)
                    assert got == (want if want is not None and (cap is None or want <= cap) else None)
        assert len(components) >= min(n, 2)
        if n >= 12:
            assert not all(adj)  # some vertex is isolated
        if n >= 64 and density < 0.1:
            assert far  # the caps bind inside a component, not only across


class ReadLog(list):
    """Adjacency masks that log which rows a search expands."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read: list[int] = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_mask_dist_grows_the_smaller_frontier():
    # a star at 0 with leaves 1..10, and a path 0-11-12-13-14-15: after
    # one hop from 0 its frontier holds 11 bits, so the search switches to
    # 15's side and walks the path from there without expanding a leaf
    edges = [(0, leaf) for leaf in range(1, 11)] + [(0, 11), (11, 12), (12, 13), (13, 14), (14, 15)]
    g = DynamicGraph(16, edges)
    masks = ReadLog(g.adj_mask)
    assert mask_dist(masks, 0, 15) == 5
    assert masks.read == [0, 15, 14, 13, 12]
    for cap in range(5):
        assert mask_dist(g.adj_mask, 0, 15, cap) is None
    assert mask_dist(g.adj_mask, 0, 15, 5) == 5
    assert mask_dist(g.adj_mask, 15, 0, 5) == 5
    assert mask_dist(g.adj_mask, 1, 15) == 6


def test_invariants_hold_under_random_update_streams():
    rng = random.Random(3)
    pairs = list(itertools.combinations(range(12), 2))
    g = DynamicGraph(12)
    present: set[tuple[int, int]] = set()
    for _ in range(400):
        if present and rng.random() < 0.5:
            e = rng.choice(sorted(present))
            g.delete_edge(*e)
            present.discard(e)
        else:
            absent = [p for p in pairs if p not in present]
            if not absent:
                continue
            e = rng.choice(absent)
            g.insert_edge(*e)
            present.add(e)
        g.check_invariants()
    assert set(g.edges()) == present


def test_replay_returns_to_identical_serialization():
    rng = random.Random(5)
    g = random_graph(rng, 9, 12)
    before = (g.m, list(g.adj_mask))
    extra = [p for p in itertools.combinations(range(9), 2) if not g.has_edge(*p)][:6]
    for e in extra:
        g.insert_edge(*e)
    for e in reversed(extra):
        g.delete_edge(*e)
    assert (g.m, g.adj_mask) == before


def test_apply_events():
    g = DynamicGraph(3)
    g.apply(UpdateEvent(1, INSERT, (0, 1)))
    g.apply(UpdateEvent(2, INSERT, (1, 2)))
    g.apply(UpdateEvent(3, DELETE, (0, 1)))
    assert list(g.edges()) == [(1, 2)]


@pytest.mark.parametrize("n", [0, 1, 64, 65, 130])
def test_rows_agree_with_the_input_edges(n):
    # rows of 64, 65 and 130 bits: the bit walks cross machine-word boundaries
    rng = random.Random(40 + n)
    pairs = list(itertools.combinations(range(n), 2))
    edges = rng.sample(pairs, len(pairs) // 3)
    edges += [p for p in pairs if n - 1 in p and p not in edges]  # the top bit of every row
    rng.shuffle(edges)
    g = DynamicGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
    g.check_invariants()
    adj = adjacency_sets(n, edges)
    assert list(g.edges()) == sorted(edges)
    assert [row.bit_count() for row in g.adj_mask] == [len(a) for a in adj]
    assert max_degree(g) == max(map(len, adj), default=0)
    assert all(g.has_edge(u, v) == (v in adj[u]) for u, v in pairs)
    h = g.copy()
    for e in edges[: len(edges) // 2]:
        h.delete_edge(*e)
    assert list(h.edges()) == sorted(edges[len(edges) // 2 :])
    assert list(g.edges()) == sorted(edges)


def test_copy_is_independent():
    g = DynamicGraph(4, [(0, 1)])
    h = g.copy()
    h.insert_edge(2, 3)
    assert not g.has_edge(2, 3)
    assert h.has_edge(0, 1)
