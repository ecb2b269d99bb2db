"""The exact stretch check's row paths: distance 2 first, then the rings.

`verify_stretch` finds each row's distance-2 edges either with one AND per
edge or, for a row with more non-spanner edges above it than spanner
neighbors, with one AND against the row's 2-ball.  Both paths must give
the reports of `reference_verify_stretch`, and a check that passes must
decide every edge from reach sets alone: a ball composed too small does
not change a report, since the edge then falls through to the unbounded
search, so only a count of those searches shows it.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan import cli, oracle
from dynspan.graph import DynamicGraph
from dynspan.instrumentation import OpCounter
from dynspan.oracle import SpannerMasks, adjacency_masks, reference_greedy, verify_stretch
from test_oracle import STREAMS, assert_same


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


def row_sides(g: DynamicGraph, h: list[tuple[int, int]]) -> tuple[int, int]:
    """How many rows take the 2-ball path and how many the per-edge path
    (when t <= 3): rows with more non-spanner edges above them than
    spanner neighbors, and the other rows with any such edge."""
    masks = adjacency_masks(g.n, h)
    dense = sparse = 0
    for u, row in enumerate(g.adj_mask):
        rest = row >> (u + 1) << (u + 1) & ~masks[u]
        if rest:
            if rest.bit_count() > masks[u].bit_count():
                dense += 1
            else:
                sparse += 1
    return dense, sparse


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


@pytest.mark.parametrize("n", [48, 96])
def test_both_row_paths_match_the_reference(n):
    rng = random.Random(n)
    dense = sparse = 0
    for p in (0.1, 0.3, 0.6):
        pairs = itertools.combinations(range(n), 2)
        g = DynamicGraph(n, [e for e in pairs if rng.random() < p])
        for name, h in spanners(rng, g).items():
            sides = row_sides(g, h)
            dense, sparse = dense + sides[0], sparse + sides[1]
            if name == "per-vertex":
                assert all(sides), (p, sides)
            masks = SpannerMasks(adjacency_masks(n, h))
            for t in range(8):
                assert_same(g, h, t)
                assert verify_stretch(g, masks, t) == verify_stretch(g, h, t), (p, name, t)
    assert dense and sparse, (dense, sparse)
    # a spanner edge outside the host graph: the same exception and message
    absent = next(e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e))
    for t in (1, 3):
        assert_same(g, h[:5] + [absent] + h[5:], t)
