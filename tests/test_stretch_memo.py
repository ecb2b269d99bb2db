"""The exact stretch check carried from one call to the next by a memo.

`verify_stretch(..., memo=memo)` re-settles distance 2 only on the rows
whose host or spanner row changed since the memo's last call, and runs
the search beyond distance 2 on every call.  Its report must be the one a
fresh call (no memo) gives, in both spanner forms, on every step of every
structure's stream, and on seeded host and spanner toggles for t = 1..5
that pass through failing states.  A call that raises SpannerNotSubgraph
must leave the memo as it was, so the next call still agrees.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan import cli
from dynspan.graph import DynamicGraph
from dynspan.instrumentation import OpCounter
from dynspan.oracle import SpannerMasks, StretchMemo, adjacency_masks, verify_stretch
from dynspan.resample3 import WrappedRunner
from test_oracle import STREAMS, outcome
from test_wrapped import random_events

MEMO_STREAMS = {
    "det3": STREAMS["det3"],
    "resample3": STREAMS["resample3"],
    "fd-greedy-k2": STREAMS["fd-greedy-k2"],
    "fd-greedy-k3": STREAMS["fd-greedy-k3"],
    "greedy-k3": "--algo greedy --k 3 --n 24 --init-m 120 --steps 60 --seed 3"
    " --adversary spanner-target",
}


class Checker:
    """One memo per stretch and spanner form, each compared on every call
    against a fresh call on the same input."""

    def __init__(self, ts) -> None:
        self.memos = {(t, form): StretchMemo() for t in ts for form in ("edges", "masks")}
        self.reports: set[tuple[int, bool]] = set()
        self.raised = 0

    def check(self, g: DynamicGraph, edges, rows: list[int], where) -> None:
        for (t, form), memo in self.memos.items():
            h = sorted(edges) if form == "edges" else SpannerMasks(rows)
            want = outcome(verify_stretch, g, h, t)
            assert outcome(verify_stretch, g, h, t, memo=memo) == want, (where, t, form)
            assert memo.key == (g.n, t), (where, t, form)
            self.reports.add((t, want[1]))

    def check_bad(self, g: DynamicGraph, edges, rows: list[int], where) -> None:
        """The same with a non-host pair added to the spanner: every call
        raises, and the memos must come out as they went in."""
        pairs = itertools.combinations(range(g.n), 2)
        absent = next((e for e in pairs if not g.has_edge(*e)), None)
        if absent is None:
            return
        u, v = absent
        bad_rows = list(rows)
        bad_rows[u] |= 1 << v
        bad_rows[v] |= 1 << u
        for (t, form), memo in self.memos.items():
            saved = {k: list(x) if isinstance(x, list) else x for k, x in vars(memo).items()}
            h = sorted(edges) + [absent] if form == "edges" else SpannerMasks(bad_rows)
            want = outcome(verify_stretch, g, h, t)
            assert want[0] == "raised", (where, want)
            assert outcome(verify_stretch, g, h, t, memo=memo) == want, (where, t, form)
            assert vars(memo) == saved, (where, t, form)
            self.raised += 1


def run_stream(spec: str, checker: Checker) -> int:
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    steps = 0
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        steps += 1
        # the live rows, as the CLI passes them: the memo must copy what it keeps
        rows = adapter.state.spanner_masks()
        if steps % 17 == 5:
            checker.check_bad(adapter.graph, adapter.spanner(), rows, steps)
        checker.check(adapter.graph, adapter.spanner(), rows, steps)
    return steps


@pytest.mark.parametrize("spec", MEMO_STREAMS.values(), ids=MEMO_STREAMS.keys())
def test_a_memo_call_reports_what_a_fresh_call_reports_on_every_step(spec):
    checker = Checker((1, 2, 3, 5))
    assert run_stream(spec, checker) > 40
    assert checker.raised
    # the structure's own stretch passes, and t = 1 fails on some step
    assert {(1, False)} <= checker.reports and any(ok for _, ok in checker.reports)


def test_a_memo_call_agrees_across_the_wrapped_runners_rotations():
    rng = random.Random(11)
    n, m, L = 25, 120, 30
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, m))
    events = random_events(random.Random(13), g, pairs, 3 * L + 5)
    runner = WrappedRunner(g, seed=21, rotation_len=L)
    checker = Checker((2, 3))
    for step, ev in enumerate(events, 1):
        runner.update(ev)
        if step % 17 == 5:
            checker.check_bad(runner.graph, runner.spanner_edges(), runner.spanner_masks(), step)
        checker.check(runner.graph, runner.spanner_edges(), runner.spanner_masks(), step)
    assert runner.window == 4 and checker.raised
    assert (3, True) in checker.reports


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_memo_call_agrees_on_random_toggles(seed):
    """Host and spanner edges toggled at random, one to four per call, so
    that a call finds one or several dirty rows, rows whose only change is
    in the host or only in the spanner, and states that fail."""
    rng = random.Random(seed)
    n = 22
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, 70))
    spanner = {e for e in g.edges() if rng.random() < 0.8}
    checker = Checker((1, 2, 3, 4, 5))
    for step in range(120):
        for _ in range(rng.choice((1, 1, 1, 2, 4))):
            e = rng.choice(pairs)
            if rng.random() < 0.4:  # the host edge, which half the time joins the spanner too
                if g.has_edge(*e):
                    g.delete_edge(*e)
                    spanner.discard(e)
                else:
                    g.insert_edge(*e)
                    if rng.random() < 0.5:
                        spanner.add(e)
            elif g.has_edge(*e):  # the spanner edge
                spanner ^= {e}
        if step % 17 == 5:
            checker.check_bad(g, spanner, adjacency_masks(n, spanner), step)
        checker.check(g, spanner, adjacency_masks(n, spanner), step)
    assert checker.raised
    reports = checker.reports
    assert {(1, False), (2, False), (3, False), (4, True), (5, True)} <= reports, reports
    # some t both passes and fails, so a memo is carried across the verdict's change
    assert any({(t, True), (t, False)} <= reports for t in range(1, 6)), reports
    # a memo taken on another vertex count or stretch starts over, with the same report
    memo = checker.memos[3, "masks"]
    other = DynamicGraph(n + 1, [(0, n), (n - 1, n), (0, n - 1)])
    rows = SpannerMasks(adjacency_masks(n + 1, [(0, n), (n - 1, n)]))
    for h, t in ((rows, 3), ([], 3), ([], 5)):
        assert verify_stretch(other, h, t, memo=memo) == verify_stretch(other, h, t)
        assert memo.key == (n + 1, t)
