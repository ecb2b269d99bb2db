"""Spanner adjacency masks kept by the structures, and the rank-select reads of them.

Every structure answers `spanner_masks()` from the masks its output tracker
keeps; the CLI's per-step check and `spanner-target` read those instead
of the edge set.  On seeded streams, after every step, the masks must
equal the adjacency of `spanner_edges()`, and the oracle's report on the
masks must equal its report on the edges, the ground truth.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan import cli
from dynspan.adversary import AdversaryView, SpannerTargeting
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, edge_at, edge_prefix, nth_bit
from dynspan.instrumentation import OpCounter
from dynspan.oracle import SpannerMasks, SpannerNotSubgraph, adjacency_masks, verify_stretch
from dynspan.resample3 import WrappedRunner

STREAMS = {
    "greedy": "--algo greedy --k 2 --n 24 --init-m 120 --steps 60 --seed 3"
    " --adversary spanner-target",
    # ell0 = 5 at n=14: the 64th insertion rebuilds level 1
    "fd-greedy": "--algo fd-greedy --k 2 --n 14 --init-m 40 --steps 120 --seed 4"
    " --adversary spanner-target --p-insert 0.6",
    "det3": "--algo det3 --n 30 --init-m 150 --steps 100 --seed 5"
    " --adversary spanner-target --p-insert 0.3",
    # two phase rollovers inside the run
    "resample3": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 70 --seed 6"
    " --adversary witness-hammer --p-insert 0.3",
}


def report(g, h, t, **kwargs):
    rep = verify_stretch(g, h, t, **kwargs)
    return rep.ok, rep.worst_edge, rep.worst_dist


def assert_masks_agree(g, state, step: int) -> None:
    masks = state.spanner_masks()
    edges = state.spanner_edges()
    assert masks == adjacency_masks(g.n, edges), step
    for t in (1, 3, 5):
        for kwargs in ({}, {"mode": "sampled", "sample": 16, "seed": step}):
            want = report(g, edges, t, **kwargs)
            assert report(g, SpannerMasks(masks), t, **kwargs) == want, (step, t, kwargs)


@pytest.mark.parametrize("spec", STREAMS.values(), ids=STREAMS.keys())
def test_masks_match_the_edges_on_every_step(spec):
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    steps = 0
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        steps += 1
        assert_masks_agree(adapter.graph, adapter.state, steps)
    assert steps == args.steps
    if args.algo == "fd-greedy":
        assert adapter.state.insert_count >= 2 ** (adapter.state.ell0 + 1)
    if args.algo == "resample3":
        assert adapter.state.phase_index == 3


def test_wrapped_runner_masks_match_the_edges_across_rotations():
    rng = random.Random(29)
    n, L = 14, 12
    pairs = list(itertools.combinations(range(n), 2))
    runner = WrappedRunner(DynamicGraph(n, rng.sample(pairs, 40)), seed=37, rotation_len=L)
    for seq in range(1, 3 * L + 2):
        g = runner.graph
        if g.m and rng.random() < 0.5:
            ev = UpdateEvent(seq, DELETE, rng.choice(sorted(g.edges())))
        else:
            ev = UpdateEvent(seq, INSERT, rng.choice([p for p in pairs if not g.has_edge(*p)]))
        runner.update(ev)
        assert_masks_agree(runner.graph, runner, seq)
        runner.check_invariants()
    assert runner.window == 4


def test_mask_form_names_the_lowest_bad_edge_and_checks_its_length():
    g = DynamicGraph(5, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(SpannerNotSubgraph, match=r"\(1, 3\)"):
        verify_stretch(g, SpannerMasks(adjacency_masks(5, [(0, 1), (3, 4), (1, 3)])), 3)
    with pytest.raises(ValueError):
        verify_stretch(g, SpannerMasks([0] * 4), 3)


def random_graph(rng: random.Random, n: int) -> DynamicGraph:
    pairs = list(itertools.combinations(range(n), 2))
    return DynamicGraph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))


def test_rank_select_matches_sorted():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randrange(0, 14)
        g = random_graph(rng, n)
        for u in range(n):  # rows of every density, the empty ones included
            nbrs = sorted(g.adj[u])
            for r in range(len(nbrs)):
                assert nth_bit(g.adj_mask[u], r) == nbrs[r]
        edges = list(g.edges())
        prefix = edge_prefix(g.adj_mask)
        assert (prefix[-1] if prefix else 0) == g.m
        for r, e in enumerate(edges):  # r = 0 and r = m-1 among them
            assert edge_at(g.adj_mask, prefix, r) == e


def test_spanner_target_draws_the_edge_that_sorting_would():
    rng = random.Random(9)
    for seed in range(200):
        g = random_graph(rng, rng.randrange(2, 14))
        if not g.m:
            continue
        spanner = [e for e in g.edges() if rng.random() < 0.5] or [min(g.edges())]
        adv = SpannerTargeting(seed, budget=1)
        twin = random.Random()
        twin.setstate(adv.rng.getstate())
        view = AdversaryView(g, spanner_masks=lambda: adjacency_masks(g.n, spanner))
        ev = adv.next_event(view)
        twin.random()  # the insertion-mixing draw
        assert ev.edge == sorted(spanner)[twin.randrange(len(spanner))]
