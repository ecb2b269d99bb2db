"""De-amortized driver: rotation, bounded chunks, stretch across rollovers."""

from __future__ import annotations

import itertools
import random

from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from dynspan.instrumentation import InvariantBroken
from dynspan.oracle import verify_stretch
from dynspan.resample3 import PhaseState, WrappedRunner


def random_events(rng, graph_view, pairs, count, p_insert=0.5):
    """Legal seeded event stream against a shadow graph."""
    shadow = graph_view.copy()
    events = []
    for seq in range(1, count + 1):
        if shadow.m and (rng.random() >= p_insert or shadow.m == len(pairs)):
            e = rng.choice(sorted(shadow.edges()))
            events.append(UpdateEvent(seq, DELETE, e))
            shadow.delete_edge(*e)
        else:
            absent = [p for p in pairs if not shadow.has_edge(*p)]
            e = rng.choice(absent)
            events.append(UpdateEvent(seq, INSERT, e))
            shadow.insert_edge(*e)
    return events


def test_single_window_matches_unwrapped_run():
    rng = random.Random(3)
    n, m, L = 16, 40, 30
    pairs = list(itertools.combinations(range(n), 2))
    init = rng.sample(pairs, m)
    events = random_events(random.Random(5), DynamicGraph(n, init), pairs, L - 1)

    g1 = DynamicGraph(n, init)
    wrapped = WrappedRunner(g1, seed=9, rotation_len=L)
    first_seed = random.Random(9).randrange(2**62)  # the seed drawn for D_1
    g2 = DynamicGraph(n, init)
    plain = PhaseState(g2, seed=first_seed, phase_len=2 * L)
    for ev in events:
        wrapped.update(ev)
        if ev.kind == INSERT:
            plain.insert(*ev.edge)
        else:
            plain.delete(*ev.edge)
        # within the first window the wrapped output is the live instance
        # plus not-yet-relevant bookkeeping; the live instance matches
        assert wrapped.D_cur.spanner == plain.spanner


def test_rotation_keeps_stretch_and_respects_budget():
    rng = random.Random(11)
    n, m, L = 25, 120, 30
    pairs = list(itertools.combinations(range(n), 2))
    init = rng.sample(pairs, m)
    g = DynamicGraph(n, init)
    events = random_events(random.Random(13), g, pairs, 3 * L + 5)
    runner = WrappedRunner(g, seed=21, rotation_len=L)
    worst = 0
    built = 0
    for ev in events:
        step = runner.update(ev)
        assert step.op_count <= step.budget, (step, runner.window)
        worst = max(worst, step.op_count)
        assert verify_stretch(runner.graph, runner.spanner_edges(), 3).ok
        if runner.D_next is not None:
            runner.D_next.check_invariants()  # a finished successor build, replayed so far
            built += 1
    assert runner.window == 4  # three full rotations plus the active one
    assert worst > 0 and built > 0


def test_output_contains_live_spanner_and_only_graph_edges():
    rng = random.Random(17)
    n, L = 16, 12
    pairs = list(itertools.combinations(range(n), 2))
    init = rng.sample(pairs, 40)
    g = DynamicGraph(n, init)
    events = random_events(random.Random(19), g, pairs, 4 * L)
    runner = WrappedRunner(g, seed=23, rotation_len=L)
    for ev in events:
        runner.update(ev)
        out = runner.spanner_edges()
        assert set(runner.D_cur.spanner) <= out
        for e in out:
            assert runner.graph.has_edge(*e)


def test_wrapped_run_is_deterministic():
    def run():
        rng = random.Random(29)
        n, L = 12, 12
        pairs = list(itertools.combinations(range(n), 2))
        init = rng.sample(pairs, 30)
        g = DynamicGraph(n, init)
        events = random_events(random.Random(31), g, pairs, 3 * L)
        runner = WrappedRunner(g, seed=37, rotation_len=L)
        return [runner.update(ev) for ev in events]

    assert run() == run()


def broken_runner_steps(runner_cls, L=12):
    """Drive `runner_cls` until it raises; returns (steps applied, exception)."""
    rng = random.Random(41)
    n = 16
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, 40))
    events = random_events(random.Random(43), g, pairs, 2 * L + 1)
    runner = runner_cls(g, seed=47, rotation_len=L)
    for i, ev in enumerate(events):
        try:
            runner.update(ev)
        except InvariantBroken as exc:
            return i, exc
    return len(events), None


def test_rebuild_over_its_allowance_raises_at_the_end_of_the_first_third():
    class Starved(WrappedRunner):
        C_TASK = 0  # no build allowance: the successor's rebuild never advances

    applied, exc = broken_runner_steps(Starved)
    assert applied == 12 // 3 - 1
    assert "did not fit its third" in str(exc)


def test_successor_left_behind_raises_at_the_rotation():
    class NoReplay(WrappedRunner):
        def _replay(self, ev):
            return 0

    applied, exc = broken_runner_steps(NoReplay)
    assert applied == 12  # the first update of the second window
    assert "not caught up" in str(exc)
