"""The exact stretch check carried from one call to the next by a memo.

`verify_stretch(..., memo=memo)` checks against the host and re-settles
distance 2 only on the rows whose host or spanner row changed since the
memo's last call; at t = 3 it walks only the edges beyond distance 2
whose certificate read a changed row, or that have none.  A call
without a memo keyed on its n and t runs the same code with every row
changed.  Its report must be the one a fresh call (no memo) gives, in
both spanner forms, on every step of every structure's stream, on
seeded host and spanner toggles for t = 1..5 that pass through failing
states, and on toggles that change only a witness row.  A call that
raises, SpannerNotSubgraph with the error a fresh call gives or
ValueError for a mask list of the wrong length, must leave the memo as
it was, keyed or not, so the next call still agrees.
"""

from __future__ import annotations

import copy
import itertools
import random

import pytest

from dynspan import cli
from dynspan.graph import DynamicGraph, VertexOutOfRange, iter_bits
from dynspan.instrumentation import OpCounter
from dynspan.oracle import (
    SpannerMasks,
    SpannerNotSubgraph,
    StretchMemo,
    adjacency_masks,
    reference_greedy,
    verify_stretch,
)
from dynspan.resample3 import WrappedRunner
from test_oracle import STREAMS, outcome
from test_stretch_rows import count_level_reads
from test_wrapped import random_events

MEMO_STREAMS = {
    "det3": STREAMS["det3"],
    "resample3": STREAMS["resample3"],
    "fd-greedy-k2": STREAMS["fd-greedy-k2"],
    "fd-greedy-k3": STREAMS["fd-greedy-k3"],
    "greedy-k2": "--algo greedy --k 2 --n 24 --init-m 120 --steps 60 --seed 3"
    " --adversary spanner-target",
    "greedy-k3": "--algo greedy --k 3 --n 24 --init-m 120 --steps 60 --seed 3"
    " --adversary spanner-target",
    # ~260-390 edges beyond distance 2 on every step
    "fd-greedy-k2-dense": "--algo fd-greedy --k 2 --n 64 --init-m 700 --steps 60 --seed 4"
    " --adversary spanner-target --p-insert 0.3",
}


class Checker:
    """One memo per stretch and spanner form, each compared on every call
    against a fresh call on the same input, and its row pairs against the
    input's host and spanner rows."""

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
            assert memo.seen == list(zip(g.adj_mask, rows)), (where, t, form)
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
            saved = copy.deepcopy(vars(memo))
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


def test_a_memo_call_drops_the_certificates_of_a_changed_witness_row():
    """t = 3, on a greedy 3-spanner: every path u - x - w - v of a far edge
    (u, v) loses its middle spanner edge (x, w), so rows x and w change
    and rows u and v stay as they were.  (u, v) is then beyond distance
    3, and a keyed call must see it as a fresh call does, though neither
    of its rows changed.  The next step puts the cut edges back."""
    rng = random.Random(7)
    n = 26
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, 110))
    spanner = set(reference_greedy(g, 2, rng.sample(sorted(g.edges()), g.m)))
    checker = Checker((3,))
    cut: set[tuple[int, int]] = set()
    cuts = 0
    for step in range(80):
        rows = adjacency_masks(n, spanner)
        checker.check(g, spanner, rows, step)
        if cut:
            spanner |= cut
            cut = set()
            continue
        far = [(u, v) for u, v in g.edges() if (u, v) not in spanner and not rows[u] & rows[v]]
        u, v = rng.choice(far)
        for x in iter_bits(rows[u]):
            cut |= {(min(x, w), max(x, w)) for w in iter_bits(rows[x] & rows[v])}
        spanner -= cut
        assert not verify_stretch(g, SpannerMasks(adjacency_masks(n, spanner)), 3), step
        cuts += 1
    assert cuts == 40 and {(3, True), (3, False)} <= checker.reports, checker.reports


def test_an_open_edge_that_comes_within_distance_2_is_walked_no_more():
    """t = 3: (0, 5) is open, at distance 5 on the spanner path 0 - ... - 5,
    until the spanner edge (1, 5) puts it at distance 2 through a change
    of rows 1 and 5 alone.  Then no edge is beyond distance 2, and the
    report is the first distance-2 edge, (0, 2), with or without the memo."""
    path = [(u, u + 1) for u in range(5)]
    g = DynamicGraph(6, path + [(0, 2), (0, 5), (1, 5)])
    memo = StretchMemo()
    for h, want in ((path, (False, (0, 5), 5)), (path + [(1, 5)], (True, (0, 2), 2))):
        for form in (h, SpannerMasks(adjacency_masks(6, h))):
            rep = verify_stretch(g, form, 3, memo=memo)
            assert rep == verify_stretch(g, form, 3) and tuple(rep) == want, (h, rep)


DET3_144 = (
    "--algo det3 --n 144 --init-m 1500 --steps 150 --seed 601"
    " --adversary spanner-target --p-insert 0.5"
)


def test_a_keyed_call_walks_a_fifth_of_what_a_call_without_a_memo_walks(monkeypatch):
    """On det3 at n = 144 a step changes ~2 rows and leaves ~15 edges
    beyond distance 2; a keyed t = 3 call walks only those whose
    certificate read a changed row.  Counted in reach-level row reads,
    over the stream its calls (the first one cold) read at most a fifth
    of what calls without a memo read on the same snapshots."""
    made = count_level_reads(monkeypatch)
    memo = StretchMemo()
    reads = {True: 0, False: 0}  # keyed or not
    for g, _, rows in stream_steps(DET3_144):
        for keyed in (True, False):
            made.clear()
            verify_stretch(g, SpannerMasks(rows), 3, memo=memo if keyed else None)
            reads[keyed] += sum(level.reads for level in made)
    assert reads[False] > 3000 and 5 * reads[True] <= reads[False], reads


def test_a_memo_keeps_its_key_row_pairs_and_far_edges_only():
    assert sorted(vars(StretchMemo())) == ["key", "lefts", "opens", "seen", "vouches"]


def test_a_keyed_memo_checks_only_the_changed_mask_rows_against_the_host():
    """Once the memo is keyed on (n, t), a call checks only the rows changed
    since its last call against the host, and trusts the others: a bad
    spanner edge planted both in the live rows and in the spanner half of
    the memo's (host row, spanner row) pairs goes unseen by a keyed call,
    while a call without a keyed memo, in either form, raises on it."""
    memo = StretchMemo()
    for g, edges, rows in stream_steps(MEMO_STREAMS["det3"]):
        verify_stretch(g, SpannerMasks(rows), 3, memo=memo)
    u, w = next(e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e))
    bad = list(rows)
    for x, y in ((u, w), (w, u)):
        bad[x] |= 1 << y
        a, mu = memo.seen[x]
        memo.seen[x] = a, mu | 1 << y
    verify_stretch(g, SpannerMasks(bad), 3, memo=memo)  # raises nothing
    assert memo.key == (g.n, 3)
    want = ("raised", SpannerNotSubgraph, f"spanner edge {(u, w)} not in host graph")
    for h, t in ((SpannerMasks(bad), 3), (SpannerMasks(bad), 5), (sorted(edges) + [(u, w)], 3)):
        assert outcome(verify_stretch, g, h, t) == want, t
        assert outcome(verify_stretch, g, h, t, memo=StretchMemo()) == want, t


def test_a_memo_not_keyed_on_the_call_is_left_as_it_was_by_a_bad_spanner():
    """A memo that is empty, or keyed on another n or t, runs the call with
    every row changed; a spanner outside the host raises the error of a
    call without the memo, and the memo must come out as it went in."""
    n = 9
    g = DynamicGraph(n, [(u, u + 1) for u in range(n - 1)] + [(0, 2), (3, 6)])
    edges = [(u, u + 1) for u in range(n - 1)]
    rows = adjacency_masks(n, edges)
    memos = [StretchMemo()]
    for host, t in ((DynamicGraph(n + 1, [(0, n)]), 3), (g, 5)):  # another n, another t
        memos.append(StretchMemo())
        verify_stretch(host, [], t, memo=memos[-1])
    out = rows[:-1] + [rows[-1] | 1 << n]
    bad = [
        edges + [(1, 5)],  # a non-host pair
        [(0, 1), (0, 9)],  # a vertex out of range
        SpannerMasks(adjacency_masks(n, edges + [(1, 5)])),
        SpannerMasks(out),
        SpannerMasks(rows[:-1]),  # a row short
        SpannerMasks(rows + [0]),  # a row over
    ]
    for memo in memos:
        saved = copy.deepcopy(vars(memo))
        for h in bad:
            want = outcome(verify_stretch, g, h, 3)
            assert want[1] in (SpannerNotSubgraph, VertexOutOfRange, ValueError), want
            assert outcome(verify_stretch, g, h, 3, memo=memo) == want, h
            assert vars(memo) == saved, h
