"""Verification oracles: stretch, size, girth, reference greedy."""

from __future__ import annotations

import itertools
import random
import re
from collections import deque

import pytest

from dynspan import cli
from dynspan.graph import DynamicGraph, VertexOutOfRange
from dynspan.instrumentation import OpCounter
from dynspan.oracle import (
    OrderNotPermutation,
    SpannerNotSubgraph,
    StretchReport,
    girth_at_least,
    reference_greedy,
    verify_stretch,
)
from helpers import verify_size
from test_graph import levelwise_mask_dist


def sub_dist(n: int, edges: list[tuple[int, int]], u: int, v: int) -> float:
    # queue BFS over an explicit edge list, independent of the bitmask path
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {u: 0}
    q = deque([u])
    while q:
        x = q.popleft()
        if x == v:
            return dist[x]
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return float("inf")


def brute_girth(n: int, edges: list[tuple[int, int]]) -> float:
    # shortest cycle through each edge: delete it, find endpoint distance
    best = float("inf")
    for i, e in enumerate(edges):
        rest = edges[:i] + edges[i + 1 :]
        d = sub_dist(n, rest, e[0], e[1])
        best = min(best, d + 1)
    return best


def test_stretch_k3_missing_edge():
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    rep = verify_stretch(g, [(0, 1), (1, 2)], 3)
    assert rep.ok
    assert rep.worst_dist == 2  # the missing edge detours through vertex 1


def test_stretch_identity_spanner():
    g = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
    rep = verify_stretch(g, list(g.edges()), 1)
    assert rep.ok and rep.worst_dist == 1


def test_stretch_c5_minus_edge_fails():
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = DynamicGraph(5, c5)
    rep = verify_stretch(g, c5[:-1], 3)
    assert not rep.ok
    assert rep.worst_edge == (0, 4)
    assert rep.worst_dist == 4  # path 0-1-2-3-4 is all that is left


def test_a_stretch_report_is_true_iff_ok():
    # a report is a tuple, which is true whenever it is not empty; it answers `ok`
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = DynamicGraph(5, c5)
    passing, failing = verify_stretch(g, c5, 3), verify_stretch(g, c5[:-1], 3)
    assert (passing.ok, failing.ok) == (True, False)
    assert (bool(passing), bool(failing)) == (True, False)


def test_stretch_rejects_non_subgraph():
    g = DynamicGraph(3, [(0, 1)])
    with pytest.raises(SpannerNotSubgraph):
        verify_stretch(g, [(1, 2)], 3)


def test_stretch_t0_fails_every_host_edge():
    g = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
    rep = verify_stretch(g, list(g.edges()), 0)
    assert rep == StretchReport(False, (0, 1), 1)
    assert type(rep.worst_dist) is int
    rep = verify_stretch(g, [(0, 1), (2, 3)], 0)
    assert rep == StretchReport(False, (1, 2), float("inf"))


def test_stretch_edgeless_host_passes_with_no_witness():
    for n in (0, 1, 5):
        rep = verify_stretch(DynamicGraph(n), [], 3)
        assert rep == StretchReport(True, None, 0.0)
        assert type(rep.worst_dist) is float


def test_stretch_all_spanner_host_reads_distance_1():
    g = DynamicGraph(5, [(3, 4), (1, 2), (0, 4), (2, 3)])
    for t in (1, 2, 3, 5):
        rep = verify_stretch(g, [(4, 3), (2, 1), (4, 0), (2, 3)], t)
        assert rep == StretchReport(True, (0, 4), 1)  # the first edge in key order
        assert type(rep.worst_dist) is int


def test_stretch_rejects_spanner_vertex_out_of_range():
    g = DynamicGraph(5, [(0, 1), (1, 2)])
    for bad, msg in [((0, 5), "vertex 5 not in [0, 5)"), ((-1, 2), "vertex -1 not in [0, 5)")]:
        with pytest.raises(VertexOutOfRange, match=re.escape(msg)):
            verify_stretch(g, [(0, 1), bad], 3)
    # the first bad edge in the order of h is the one named
    with pytest.raises(SpannerNotSubgraph, match=re.escape("(3, 2)")):
        verify_stretch(g, [(0, 1), (2, 1), (3, 2), (0, 5)], 3)
    with pytest.raises(SpannerNotSubgraph, match=re.escape("(1, 1)")):
        verify_stretch(g, [(1, 1)], 3)


def test_verify_size():
    assert verify_size([], 0)
    assert not verify_size([(0, 1)] * 7, 6)


def test_girth_tree_and_triangle():
    tree = [(0, 1), (0, 2), (2, 3)]
    assert girth_at_least(4, tree, 10)
    k3 = [(0, 1), (1, 2), (0, 2)]
    assert girth_at_least(3, k3, 3)
    assert not girth_at_least(3, k3, 4)


def test_girth_matches_brute_force_on_random_graphs():
    rng = random.Random(9)
    for trial in range(40):
        n = rng.randrange(4, 12)
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randrange(0, len(pairs) + 1)
        edges = rng.sample(pairs, m)
        actual = brute_girth(n, edges)
        for g_min in range(3, 10):
            assert girth_at_least(n, edges, g_min) == (actual >= g_min), (
                trial,
                edges,
                g_min,
                actual,
            )


def test_reference_greedy_k1_keeps_everything():
    k3 = [(0, 1), (1, 2), (0, 2)]
    g = DynamicGraph(3, k3)
    assert reference_greedy(g, 1, k3) == k3


def test_reference_greedy_k2_on_k3():
    g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    out = reference_greedy(g, 2, [(0, 1), (1, 2), (0, 2)])
    assert out == [(0, 1), (1, 2)]  # (0,2) closes a path of length 2 < 4


def test_reference_greedy_k2_on_c5_keeps_cycle():
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = DynamicGraph(5, c5)
    out = reference_greedy(g, 2, c5)
    # brute-check: when (0,4) is inspected the alternative route has length 4
    assert sub_dist(5, c5[:-1], 0, 4) == 4
    assert out == c5


def test_reference_greedy_checks_permutation():
    g = DynamicGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(OrderNotPermutation):
        reference_greedy(g, 2, [(0, 1)])
    with pytest.raises(OrderNotPermutation):
        reference_greedy(g, 2, [(0, 1), (0, 1)])


def test_reference_greedy_deterministic_and_valid():
    rng = random.Random(13)
    for n, m, k in [(12, 30, 2), (16, 40, 3), (20, 80, 2)]:
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, m))
        order = list(g.edges())
        rng.shuffle(order)
        out1 = reference_greedy(g, k, order)
        out2 = reference_greedy(g, k, order)
        assert out1 == out2
        assert verify_stretch(g, out1, 2 * k - 1).ok
        assert girth_at_least(n, out1, 2 * k + 1)


def test_reference_greedy_k2_on_k6_has_girth_5():
    edges = list(itertools.combinations(range(6), 2))
    g = DynamicGraph(6, edges)
    out = reference_greedy(g, 2, edges)
    assert brute_girth(6, out) >= 5
    assert girth_at_least(6, out, 5)


def test_edge_sufficiency_of_stretch_checks():
    # checking host edges only is equivalent to checking all pairs
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(5, 14)
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, rng.randrange(4, len(pairs) + 1)))
        order = list(g.edges())
        rng.shuffle(order)
        h = reference_greedy(g, 2, order)
        t = 3
        edge_ok = verify_stretch(g, h, t).ok
        all_pairs_ok = True
        for u in range(n):
            for v in range(u + 1, n):
                dg = sub_dist(n, list(g.edges()), u, v)
                if dg == float("inf"):
                    continue
                if sub_dist(n, h, u, v) > t * dg:
                    all_pairs_ok = False
        assert edge_ok == all_pairs_ok


# -- differential test against the composed-levels oracle --------------------
#
# `reference_verify_stretch` is the stretch oracle as it was before it
# learned to skip spanner edges and to meet in the middle: t full
# reach levels over every vertex, then one lookup per checked host edge.
# It is kept here verbatim, with its own helpers and the level-wise BFS
# that `graph.mask_dist` used to be, as the ground truth that every
# report of `verify_stretch` must match.


def _reference_adjacency_masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _reference_reach_levels(masks, t):
    n = len(masks)
    levels = [list(masks)]
    prev = levels[0]
    for _ in range(t - 1):
        cur = []
        for u in range(n):
            acc = masks[u]
            m = masks[u]
            while m:
                low = m & -m
                acc |= prev[low.bit_length() - 1]
                m ^= low
            cur.append(acc)
        levels.append(cur)
        prev = cur
    return levels


def reference_verify_stretch(g, h_edges, t):
    h = list(h_edges)
    for u, v in h:
        if not g.has_edge(u, v):
            raise SpannerNotSubgraph(f"spanner edge {(u, v)} not in host graph")

    masks = _reference_adjacency_masks(g.n, h)
    levels = _reference_reach_levels(masks, t) if t >= 1 else []
    top = levels[-1] if levels else [0] * g.n

    ok = True
    worst_edge = None
    worst = 0.0
    for u, v in g.edges():
        if (top[u] >> v) & 1:
            d = 1
            while not (levels[d - 1][u] >> v) & 1:
                d += 1
            dist = d
        else:
            exact = levelwise_mask_dist(masks, u, v)
            dist = float("inf") if exact is None else exact
            ok = False
        if dist > worst:
            worst = dist
            worst_edge = (u, v)
    if ok:
        return StretchReport(True, worst_edge, worst)
    return StretchReport(False, worst_edge, worst)


def outcome(oracle, *args, **kwargs):
    """The whole observable result: the report with the type of its
    distance, or the exception's type and message."""
    try:
        rep = oracle(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("report", rep.ok, rep.worst_edge, rep.worst_dist, type(rep.worst_dist))


def assert_same(g, h, t):
    want = outcome(reference_verify_stretch, g, h, t)
    got = outcome(verify_stretch, g, h, t)
    assert got == want, (g.n, sorted(g.edges()), h, t)


def test_stretch_matches_reference_on_random_graphs():
    rng = random.Random(77)
    for case in range(2100):
        n = rng.randrange(0, 13)
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        keep = rng.random()
        h = [e if rng.random() < 0.5 else e[::-1] for e in g.edges() if rng.random() < keep]
        rng.shuffle(h)
        if n and rng.random() < 0.1:  # a non-host pair or an out-of-range vertex
            absent = [p for p in pairs if not g.has_edge(*p)]
            bads = [(n, rng.randrange(n)), (rng.randrange(n), -1), (0, 0)]
            bads += [rng.choice(absent)] if absent else []
            bad = rng.choice(bads)
            h.insert(rng.randrange(len(h) + 1), bad)
        for t in range(7):
            assert_same(g, h, t)


FD = "--algo fd-greedy --n 14 --init-m 40 --steps 120 --seed 4 --adversary spanner-target"
STREAMS = {
    "det3": "--algo det3 --n 30 --init-m 150 --steps 100 --seed 5"
    " --adversary spanner-target --p-insert 0.3",
    # ell0 = 5 at n=14 for k = 2 and 3: level 1 is rebuilt inside the run
    "fd-greedy-k1": FD + " --k 1 --p-insert 0.6",
    "fd-greedy-k2": FD + " --k 2 --p-insert 0.6",
    "fd-greedy-k3": FD + " --k 3 --p-insert 0.6",
    # two phase rollovers inside the run
    "resample3": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 70 --seed 6"
    " --adversary witness-hammer --p-insert 0.3",
}


@pytest.mark.parametrize("spec", STREAMS.values(), ids=STREAMS.keys())
def test_stretch_matches_reference_on_every_step_of_a_stream(spec):
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    steps = 0
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        steps += 1
        h = adapter.spanner()
        for t in (1, 2, 3, 4, 5, 7):
            assert_same(adapter.graph, h, t)
    assert steps == args.steps
