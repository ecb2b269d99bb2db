"""The exact stretch check carried from one call to the next by a memo.

`verify_stretch(..., memo=memo)` checks a mask-form spanner against the
host and re-settles distance 2 only on the rows whose host or spanner
row changed since the memo's last call, and runs the search beyond
distance 2 on every call.  Its report must be the one a fresh call (no
memo) gives, in both spanner forms, on every step of every structure's
stream, and on seeded host and spanner toggles for t = 1..5 that pass
through failing states.  A call that raises, SpannerNotSubgraph with the
error a fresh call gives or ValueError for a mask list of the wrong
length, must leave the memo as it was, so the next call still agrees.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dynspan import cli, oracle
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
        """The same with a spanner that is not a subgraph of the host, just
        after `check` on the same input: a non-host pair added to the
        spanner, a host edge deleted under a spanner edge (the host rows
        change, the spanner rows do not), and a non-host pair added above
        a row that changed cleanly (a spanner edge taken out), and for
        masks a row with a vertex out of range.  Every call raises, so does
        a mask list of the wrong length, and the memos must come out as
        they went in."""
        edges = sorted(edges)
        absent = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
        faults = []  # (host, spanner edges, spanner rows)
        if absent:
            h = edges + [absent[0]]
            faults.append((g, h, adjacency_masks(g.n, h)))
        if edges:
            host = DynamicGraph(g.n, g.edges())
            host.delete_edge(*edges[-1])
            faults.append((host, edges, rows))
            low = edges[0][0]
            above = next((e for e in absent if e[0] > low), None)
            if above is not None:
                h = edges[1:] + [above]
                faults.append((g, h, adjacency_masks(g.n, h)))
        for (t, form), memo in self.memos.items():
            saved = {k: list(x) if isinstance(x, list) else x for k, x in vars(memo).items()}
            calls = [(host, h if form == "edges" else SpannerMasks(r)) for host, h, r in faults]
            if form == "masks":  # a vertex out of range, then a row short and one over
                out = rows[:-1] + [rows[-1] | 1 << g.n]
                calls += [(g, SpannerMasks(r)) for r in (out, rows[:-1], rows + [0])]
            for host, h in calls:
                want = outcome(verify_stretch, host, h, t)
                assert want[0] == "raised", (where, want)
                assert outcome(verify_stretch, host, h, t, memo=memo) == want, (where, t, form)
                assert vars(memo) == saved, (where, t, form, want)
                self.raised += 1


def stream_steps(spec: str):
    """(host graph, spanner edges, live spanner rows) after every step of a
    `dynspan run` stream: the live rows, as the CLI passes them, so the
    memo must copy what it keeps."""
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    adversary = cli.make_adversary(args, adapter)
    while (ev := adversary.next_event(adapter.view())) is not None:
        adapter.apply(ev)
        yield adapter.graph, adapter.spanner(), adapter.state.spanner_masks()


def run_stream(spec: str, checker: Checker) -> int:
    steps = 0
    for g, edges, rows in stream_steps(spec):
        steps += 1
        checker.check(g, edges, rows, steps)
        if steps % 17 == 5:
            checker.check_bad(g, edges, rows, steps)
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
        checker.check(runner.graph, runner.spanner_edges(), runner.spanner_masks(), step)
        if step % 17 == 5:
            checker.check_bad(runner.graph, runner.spanner_edges(), runner.spanner_masks(), step)
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
        checker.check(g, spanner, adjacency_masks(n, spanner), step)
        if step % 17 == 5:
            checker.check_bad(g, spanner, adjacency_masks(n, spanner), step)
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


def test_a_keyed_memo_checks_only_the_changed_mask_rows_against_the_host(monkeypatch):
    """Once the memo is keyed on (n, t), a mask-form call checks only the
    rows changed since its last call against the host; the whole-spanner
    pass of `subgraph_masks` runs for fresh calls, a memo of another t and
    the edge form."""
    passes = []
    whole = oracle.subgraph_masks
    monkeypatch.setattr(oracle, "subgraph_masks", lambda g, h: passes.append(h) or whole(g, h))
    memo = StretchMemo()
    for step, (g, edges, rows) in enumerate(stream_steps(MEMO_STREAMS["det3"])):
        passes.clear()
        rep = verify_stretch(g, SpannerMasks(rows), 3, memo=memo)
        assert len(passes) == (step == 0), step
        assert rep == verify_stretch(g, SpannerMasks(rows), 3), step
    for h, t in ((sorted(edges), 3), (SpannerMasks(rows), 5)):
        passes.clear()
        assert verify_stretch(g, h, t, memo=memo) == verify_stretch(g, h, t)
        assert len(passes) == 2, (h, t)
