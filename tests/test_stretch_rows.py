"""The exact stretch check's row paths: distance 2 first, then the rings,
then, for odd t, the last radius.

`verify_stretch` finds each row's distance-2 edges either with one AND per
edge or, for a row with more non-spanner edges above it than spanner
neighbors, with one AND against the row's 2-ball.  For odd t, every edge
still open after the rings walks the neighbors of its endpoint with the
smaller spanner degree to the first witness, and no ball is composed
around u.  Every path must give the reports of
`reference_verify_stretch`, and a check that passes must decide every
edge from reach sets alone: a ball composed too small does not change a
report, since the edge then falls through to the unbounded search, so
only a count of those searches shows it.  Likewise the walk answers the
same from either endpoint, and only a count of the rows it reads shows
that it walks the smaller side.  A mask-form spanner is checked
against the host before any row is walked, and only the rows of the
edges beyond distance 2 are walked at all.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from dynspan import cli, oracle
from dynspan.graph import DynamicGraph, iter_bits
from dynspan.instrumentation import OpCounter
from dynspan.oracle import (
    SpannerMasks,
    SpannerNotSubgraph,
    StretchMemo,
    adjacency_masks,
    reference_greedy,
    verify_stretch,
)
from test_oracle import STREAMS, assert_same, outcome


def stream_snapshots(spec: str):
    """(host graph, spanner edges) after every step of a `dynspan run` stream."""
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        yield adapter.graph, adapter.spanner()


@pytest.mark.parametrize("spec", STREAMS.values(), ids=STREAMS.keys())
def test_a_passing_exact_check_runs_no_search(spec, monkeypatch):
    searches = []
    search = oracle.mask_dist
    monkeypatch.setattr(oracle, "mask_dist", lambda *a: searches.append(a) or search(*a))
    passed = 0
    for g, h in stream_snapshots(spec):
        for t in (3, 5, 7):
            searches.clear()
            if verify_stretch(g, h, t).ok:
                assert not searches, (t, searches[0][1:])
                passed += 1
    assert passed


def hops(masks: list[int], u: int) -> dict[int, int]:
    """Spanner distance from u to every vertex it reaches, by a level BFS."""
    dist, frontier, seen, d = {}, 1 << u, 1 << u, 0
    while frontier:
        nxt = 0
        for x in iter_bits(frontier):
            dist[x] = d
            nxt |= masks[x]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def row_sides(g: DynamicGraph, h: list[tuple[int, int]], t: int = 3) -> Counter:
    """How many rows or edges take each path of the exact check at stretch t.

    "dense" and "per-edge" count the rows with a non-spanner edge above
    them that find distance 2 against the 2-ball, or edge by edge (when
    t <= 3).  For odd t >= 3, "walk-u" and "walk-v" count the edges past
    the rings, at distance t or more, that the walk settles from u's or
    from v's side, and "walk-fails" those beyond t, so that `mask_dist`
    runs.  Every edge past the rings walks."""
    masks = adjacency_masks(g.n, h)
    sides: Counter = Counter()
    for u, row in enumerate(g.adj_mask):
        mu = masks[u]
        rest = row >> (u + 1) << (u + 1) & ~mu
        if not rest:
            continue
        dense = rest.bit_count() > mu.bit_count()
        sides["dense" if dense else "per-edge"] += 1
        if t < 3 or t % 2 == 0:
            continue
        dist = hops(masks, u)
        for v in iter_bits(rest):
            if dist.get(v, math.inf) >= t:
                sides["walk-v" if masks[v].bit_count() < mu.bit_count() else "walk-u"] += 1
                sides["walk-fails"] += dist.get(v, math.inf) > t
    return sides


def cycles() -> tuple[DynamicGraph, list[tuple[int, int]]]:
    """Disjoint cycles of length 4..9, each with its spanner the path left
    by removing its edge (c0, c_last), which is then at distance len - 1.
    A copy of each has two pendant spanner edges at c0, so that c_last has
    the smaller spanner degree; in the plain copy the degrees tie."""
    edges, spanner, n = [], [], 0
    for length in range(4, 10):
        for extra in (0, 2):
            cyc = list(range(n, n + length))
            path = list(zip(cyc, cyc[1:]))
            pendant = [(cyc[0], n + length + i) for i in range(extra)]
            edges += path + pendant + [(cyc[0], cyc[-1])]
            spanner += path + pendant
            n += length + extra
    return DynamicGraph(n, edges), spanner


def spanners(rng: random.Random, g: DynamicGraph) -> dict[str, list[tuple[int, int]]]:
    """Spanners of g drawn sparse, dense, with a keep rate per vertex, and
    as greedy 3- and 5-spanners with and without random extra edges."""
    edges = list(g.edges())
    rate = [rng.random() for _ in range(g.n)]
    out = {
        "sparse": [e for e in edges if rng.random() < 0.15],
        "dense": [e for e in edges if rng.random() < 0.85],
        "per-vertex": [e for e in edges if rng.random() < rate[e[0]]],
    }
    for k in (2, 3):
        order = rng.sample(edges, len(edges))
        greedy = reference_greedy(g, k, order)
        out[f"greedy-{k}"] = greedy
        kept = set(greedy)
        out[f"greedy-{k}-plus"] = greedy + [e for e in edges if e not in kept and rng.random() < 0.3]
    return out


def check_both_forms(g: DynamicGraph, h: list[tuple[int, int]], seen: dict[int, Counter]) -> None:
    for t, sides in seen.items():
        sides += row_sides(g, h, t)
    masks = SpannerMasks(adjacency_masks(g.n, h))
    for t in range(8):
        assert_same(g, h, t)
        assert verify_stretch(g, masks, t) == verify_stretch(g, h, t), (g.n, t)


@pytest.mark.parametrize("n", [48, 96])
def test_both_row_paths_match_the_reference(n):
    rng = random.Random(n)
    seen = {t: Counter() for t in (3, 5, 7)}
    for p in (0.1, 0.3, 0.6):
        pairs = itertools.combinations(range(n), 2)
        g = DynamicGraph(n, [e for e in pairs if rng.random() < p])
        for name, h in spanners(rng, g).items():
            if name == "per-vertex":
                sides = row_sides(g, h)
                assert sides["dense"] and sides["per-edge"], (p, sides)
            check_both_forms(g, h, seen)
    check_both_forms(*cycles(), seen)
    for t, sides in seen.items():
        for path in ("dense", "per-edge", "walk-u", "walk-v", "walk-fails"):
            assert sides[path], (t, path, sides)
    # a spanner edge outside the host graph: the same exception and message
    absent = next(e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e))
    for t in (1, 3):
        assert_same(g, h[:5] + [absent] + h[5:], t)


def test_a_stretch_beyond_n_reports_the_worst_edge_of_stretch_n():
    """No finite distance exceeds n - 1, so for t > n the check gives the
    worst edge and distance of t = n, with ok judged against t."""
    rng = random.Random(29)
    for n in (1, 2, 5, 9, 16):
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        for h in spanners(rng, g).values():
            base = verify_stretch(g, h, n)
            assert_same(g, h, n + 1)
            for t in (n + 1, n + 2, 1000, 1001):
                for form in (h, SpannerMasks(adjacency_masks(n, h))):
                    rep = verify_stretch(g, form, t)
                    assert rep[1:] == base[1:], (n, h, t)
                    assert rep.ok == (rep.worst_edge is None or rep.worst_dist <= t), (n, h, t)


def test_a_row_with_one_far_edge_composes_no_ball(monkeypatch):
    g, h = cycles()
    sides = row_sides(g, h, 3)
    # no dense row, and every per-edge row walks its one edge beyond distance 2
    assert not sides["dense"] and sides["walk-u"] + sides["walk-v"] == sides["per-edge"], sides
    assert sides["walk-v"] and sides["walk-fails"], sides
    grown = []
    real = oracle.grow
    monkeypatch.setattr(oracle, "grow", lambda *a: grown.append(a[2]) or real(*a))
    for form in (h, SpannerMasks(adjacency_masks(g.n, h))):
        rep = verify_stretch(g, form, 3)
        assert (rep.ok, rep.worst_dist) == (False, 8) and not grown, (rep, grown)
    # a per-edge row with two edges at distance 3 walks each of them
    two = DynamicGraph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (0, 5), (0, 6), (0, 7)])
    kept = [e for e in two.edges() if e not in ((0, 3), (0, 5))]
    assert row_sides(two, kept, 3) == Counter({"per-edge": 1, "walk-v": 2})
    rep = verify_stretch(two, kept, 3)
    assert rep == verify_stretch(two, SpannerMasks(adjacency_masks(8, kept)), 3)
    assert (rep.ok, rep.worst_edge, rep.worst_dist) == (True, (0, 3), 3) and not grown, grown


class RowReads(list):
    """Rows, of a reach level or a spanner's masks, that count their reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def count_level_reads(monkeypatch) -> list[RowReads]:
    """Make `verify_stretch` compose reach levels that count their row
    reads; the returned list collects the levels of every call."""
    made: list[RowReads] = []
    real = oracle.reach_levels

    def counted(masks, r):
        levels = [RowReads(level) for level in real(masks, r)]
        made.extend(levels)
        return levels

    monkeypatch.setattr(oracle, "reach_levels", counted)
    return made


def test_the_walk_reads_the_smaller_side(monkeypatch):
    # host edge (0, 1) closes the spanner path 0 - x - y - 1; one endpoint
    # has `big` more pendant spanner neighbors, all below the path's vertex,
    # so a walk of the larger side would read every one of them first
    big = 40
    made = count_level_reads(monkeypatch)
    path_end = 3 + big  # the path's vertex at the large side
    pendants = range(3, 3 + big)
    for large, small, path in ((0, 1, (path_end, 2)), (1, 0, (2, path_end))):
        x, y = path  # 0 - x - y - 1
        h = [(0, x), (x, y), (y, 1)] + [(large, p) for p in pendants]
        g = DynamicGraph(4 + big, h + [(0, 1)])
        assert row_sides(g, h, 3) == Counter({"per-edge": 1, "walk-v" if small else "walk-u": 1})
        masks = adjacency_masks(g.n, h)
        assert (masks[small].bit_count(), masks[large].bit_count()) == (1, big + 1)
        for form in (h, SpannerMasks(masks)):
            made.clear()
            rep = verify_stretch(g, form, 3)
            assert (rep.ok, rep.worst_edge, rep.worst_dist) == (True, (0, 1), 3)
            # the walked rows, the other endpoint's ball and the final test of v
            reads = sum(level.reads for level in made)
            assert len(made) == 1 and reads <= masks[small].bit_count() + 2, (large, reads)


def test_only_rows_with_a_non_spanner_edge_are_walked(monkeypatch):
    # a 144-vertex path with a chord at distance 2 and one at distance 3:
    # the walk visits only the far chord's rows, 1 (the witness) and 3,
    # not every row, and the edges within distance 2 read no reach level
    n = 144
    path = [(u, u + 1) for u in range(n - 1)]
    g = DynamicGraph(n, path + [(0, 3), (10, 12)])
    made = count_level_reads(monkeypatch)
    for t, ok in ((2, False), (3, True)):
        made.clear()
        rep = verify_stretch(g, SpannerMasks(adjacency_masks(n, path)), t)
        assert (rep.ok, rep.worst_edge, rep.worst_dist) == (ok, (0, 3), 3)
        reads = sum(level.reads for level in made)
        assert reads <= 2 * (t == 3), (t, reads)


def test_a_memo_call_after_one_change_reads_only_the_rows_it_changed():
    # a 144-vertex path with a chord at distance 2 from every third vertex:
    # a fresh call settles every chord, reading the row of its far end, and
    # a call with a memo only the rows of the one edge changed since the
    # memo's call
    n = 144
    path = [(u, u + 1) for u in range(n - 1)]
    g = DynamicGraph(n, path + [(u, u + 2) for u in range(0, n - 2, 3)])
    rows = RowReads(adjacency_masks(n, path))
    memo = StretchMemo()
    verify_stretch(g, SpannerMasks(rows), 3, memo=memo)

    def chord_into_spanner():
        list.__setitem__(rows, 3, rows[3] | 1 << 5)
        list.__setitem__(rows, 5, rows[5] | 1 << 3)

    changes = [
        lambda: g.delete_edge(0, 2),  # a host chord goes
        chord_into_spanner,  # a chord joins the spanner
        lambda: g.insert_edge(10, 12),  # a host chord comes, at distance 2
    ]
    for change in changes:
        change()
        rows.reads = 0
        rep = verify_stretch(g, SpannerMasks(rows), 3, memo=memo)
        memo_reads = rows.reads
        rows.reads = 0
        assert rep == verify_stretch(g, SpannerMasks(rows), 3) and rep.ok
        chords = g.m - sum(map(int.bit_count, rows)) // 2
        assert memo_reads <= 8 and rows.reads >= chords >= 46, (memo_reads, rows.reads, chords)


def test_mask_rows_are_checked_before_any_row_is_walked():
    """Mask rows are checked against the host before any row is walked, so
    a bad row, even one with a vertex out of range that the walk or the
    search would index, raises the error of checking every row: the lowest
    bad bit of the lowest bad row, at every t."""
    # row 0 walks its one edge beyond distance 2, (0, 3), from row 3's side,
    # and finds no witness before bit 40
    g = DynamicGraph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (2, 3)])
    rows = adjacency_masks(6, [(0, 1), (0, 4), (0, 5), (2, 3)])
    rows[3] |= 1 << 40
    want = ("raised", SpannerNotSubgraph, "spanner edge (3, 40) not in host graph")
    assert outcome(verify_stretch, g, SpannerMasks(rows), 3) == want
    rng = random.Random(19)
    raised = 0
    for case in range(600):
        n = rng.randrange(1, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        keep = rng.random()
        h = [e for e in g.edges() if rng.random() < keep]
        rows = adjacency_masks(n, h)
        for _ in range(rng.randrange(3)):  # a non-host pair, a loop or an out-of-range vertex
            u, v = rng.randrange(n), rng.choice([rng.randrange(n), n + rng.randrange(40)])
            if g.adj_mask[u] >> v & 1:
                continue
            rows[u] |= 1 << v
            if v < n and rng.random() < 0.5:
                rows[v] |= 1 << u
        bad = [(u, r & ~a) for u, (r, a) in enumerate(zip(rows, g.adj_mask)) if r & ~a]
        for t in range(8):
            if bad:
                u, b = bad[0]
                msg = f"spanner edge {(u, (b & -b).bit_length() - 1)} not in host graph"
                want = ("raised", SpannerNotSubgraph, msg)
            else:
                want = outcome(verify_stretch, g, h, t)
            got = outcome(verify_stretch, g, SpannerMasks(rows), t)
            assert got == want, (n, sorted(g.edges()), rows, t)
            raised += bool(bad)
    assert raised
