"""Spanner adjacency masks kept by the structures, and the rank-select reads of them.

Every edge structure keeps its output in a `RoleSet` and answers
`spanner_masks()` and `spanner_ranks()` from the masks and the `EdgeRanks`
it keeps; the CLI's per-step check and `spanner-target` read those instead
of the edge set.  On seeded streams, after every step, the masks must equal
the adjacency of `spanner_edges()`, the maintained ranks a fresh build and
the sorted edges, and the oracle's report on the masks must equal its
report on the edges, the ground truth.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan import cli
from dynspan.adversary import AdversaryView, SpannerTargeting
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, nth_bit
from dynspan.instrumentation import EdgeRanks, OpCounter, RoleOutput, RoleSet
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


def report(g, h, t):
    rep = verify_stretch(g, h, t)
    return rep.ok, rep.worst_edge, rep.worst_dist


def assert_ranks_fresh(ranks: EdgeRanks, rows: list[int], step=None) -> None:
    fresh = EdgeRanks(rows)
    assert ranks.rows is rows, step
    assert (ranks.tree, ranks.total) == (fresh.tree, fresh.total), step


def assert_masks_agree(g, state, step: int) -> None:
    masks = state.spanner_masks()
    edges = state.spanner_edges()
    assert masks == adjacency_masks(g.n, edges), step
    ranks = state.spanner_ranks()
    assert_ranks_fresh(ranks, masks, step)
    assert [ranks.edge_at(r) for r in range(ranks.total)] == sorted(edges), step
    for t in (1, 3, 5):
        assert report(g, SpannerMasks(masks), t) == report(g, edges, t), (step, t)


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


def assert_one_tracker(state) -> None:
    """A greedy's spanner rows and admission-order dict are its role set's own."""
    assert isinstance(state, RoleOutput)
    assert state.span_mask is state.roles.masks
    assert state.in_spanner is state.roles.count


def test_every_edge_structure_keeps_its_output_in_one_role_set():
    edge_algos = [a for a in cli.ALGO_FACTORIES if a != "jm"]  # jm's engine holds jobs
    assert edge_algos == list(STREAMS)
    for algo in edge_algos:
        args = cli.build_parser().parse_args(["run", *STREAMS[algo].split()])
        adapter = cli.ALGO_FACTORIES[algo](args, OpCounter())
        assert isinstance(adapter.state, RoleOutput), algo
        if algo == "greedy":
            assert_one_tracker(adapter.state)
    assert isinstance(WrappedRunner(DynamicGraph(6, [(0, 1)]), seed=1, rotation_len=3), RoleOutput)
    # the fd-greedy levels, the ones a rebuild makes included
    args = cli.build_parser().parse_args(["run", *STREAMS["fd-greedy"].split()])
    adapter = cli.ALGO_FACTORIES["fd-greedy"](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        assert adapter.state.levels
        for level in adapter.state.levels.values():
            assert_one_tracker(level)
    assert adapter.state.insert_count >= 2 ** (adapter.state.ell0 + 1)


def test_role_set_builds_masks_and_ranks_separately():
    rng = random.Random(31)
    n = 9
    pairs = list(itertools.combinations(range(n), 2))
    roles = RoleSet(n)
    for e in rng.sample(pairs, 12):
        roles.add(e)
    masks = roles.masks  # the masks alone: the ranks stay unbuilt
    assert roles._ranks is None
    for _ in range(200):
        e = rng.choice(pairs)
        if e in roles.count and rng.random() < 0.5:
            roles.remove(e)  # 1 -> 0, or 2 -> 1 when it holds two roles
        else:
            roles.add(e)  # 0 -> 1, or a second role
        assert roles.masks is masks
        assert masks == adjacency_masks(n, roles.count)
        roles.check_masks()
    assert roles._ranks is None
    ranks = roles.ranks
    assert ranks.rows is masks
    assert_ranks_fresh(ranks, masks)
    # a stale bit in masks built alone is caught
    stale = RoleSet(n)
    stale.add((0, 1))
    stale.masks[2] |= 1 << 3
    stale.masks[3] |= 1 << 2
    with pytest.raises(AssertionError):
        stale.check_masks()


def test_mask_form_names_the_lowest_bad_edge_and_checks_its_length():
    g = DynamicGraph(5, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(SpannerNotSubgraph, match=r"\(1, 3\)"):
        verify_stretch(g, SpannerMasks(adjacency_masks(5, [(0, 1), (3, 4), (1, 3)])), 3)
    with pytest.raises(ValueError):
        verify_stretch(g, SpannerMasks([0] * 4), 3)


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(n), 2))
    return rng.sample(pairs, rng.randrange(len(pairs) + 1))


def random_graph(rng: random.Random, n: int) -> DynamicGraph:
    return DynamicGraph(n, random_edges(rng, n))


def test_rank_select_matches_sorted():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randrange(0, 14)
        edges = random_edges(rng, n)
        g = DynamicGraph(n, edges)
        for u in range(n):  # rows of every density, the empty ones included
            nbrs = sorted(v for e in edges if u in e for v in e if v != u)
            for r in range(len(nbrs)):
                assert nth_bit(g.adj_mask[u], r) == nbrs[r]
        ranks = EdgeRanks(g.adj_mask)
        assert ranks.total == g.m
        # every rank, r = 0 and r = m-1 among them
        assert [ranks.edge_at(r) for r in range(g.m)] == sorted(edges)
        if n < 2:
            continue
        # maintained through random edge flips, the tree equals a fresh build
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(rng.randrange(40)):
            u, v = rng.choice(pairs)
            if g.has_edge(u, v):
                g.delete_edge(u, v)
                ranks.add(u, -1)
            else:
                g.insert_edge(u, v)
                ranks.add(u, 1)
            assert_ranks_fresh(ranks, g.adj_mask)
        assert [ranks.edge_at(r) for r in range(g.m)] == [p for p in pairs if g.has_edge(*p)]


def test_spanner_target_draws_the_edge_that_sorting_would():
    rng = random.Random(9)
    for seed in range(200):
        g = random_graph(rng, rng.randrange(2, 14))
        if not g.m:
            continue
        spanner = [e for e in g.edges() if rng.random() < 0.5] or [min(g.edges())]
        masks = adjacency_masks(g.n, spanner)
        twin = random.Random(seed)
        twin.random()  # the insertion-mixing draw
        want = sorted(spanner)[twin.randrange(len(spanner))]
        view = AdversaryView(g, spanner_ranks=lambda: EdgeRanks(masks))
        assert SpannerTargeting(seed, budget=1).next_event(view).edge == want
