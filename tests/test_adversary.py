"""Adversary strategies: legality, determinism, targeting rules, replay."""

from __future__ import annotations

import random

import pytest

from dynspan.adversary import (
    AdversaryView,
    Exhausted,
    MaxLoadMachine,
    RandomOblivious,
    Replay,
    SpannerTargeting,
    StreamParse,
    WitnessHammer,
    parse_stream,
    write_stream,
)
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from dynspan.job_machine import HyperInstance, ResamplingEngine
from dynspan.oracle import adjacency_masks
from dynspan.resample3 import PhaseState


def test_replay_parses_events():
    n, events = parse_stream("N 4\n+ 0 1\n- 1 0\n")
    assert n == 4
    assert events == [UpdateEvent(1, "+", (0, 1)), UpdateEvent(2, "-", (0, 1))]
    adv = Replay("N 3\n- 0 1\n")
    ev = adv.next_event()
    assert ev.kind == DELETE and ev.edge == (0, 1)
    assert adv.next_event() is None


def test_stream_parse_errors_carry_line_numbers():
    with pytest.raises(StreamParse) as exc:
        parse_stream("N 3\n+ 0\n")
    assert exc.value.lineno == 2
    with pytest.raises(StreamParse):
        parse_stream("+ 0 1\n")
    with pytest.raises(StreamParse):
        parse_stream("N 3\n+ 0 3\n")
    with pytest.raises(StreamParse):
        parse_stream("")


def test_stream_round_trip(tmp_path):
    events = [UpdateEvent(1, INSERT, (0, 2)), UpdateEvent(2, DELETE, (0, 2))]
    path = tmp_path / "s.txt"
    write_stream(str(path), 5, events)
    n, back = parse_stream(path.read_text())
    assert n == 5 and back == events


def test_random_oblivious_emits_legal_updates():
    g = DynamicGraph(10)
    adv = RandomOblivious(seed=1, budget=300, p_insert=0.5)
    view = AdversaryView(g)
    for _ in range(300):
        ev = adv.next_event(view)
        if ev is None:
            break
        g.apply(ev)  # raises if illegal
        g.check_invariants()
    assert adv.next_event(view) is None  # budget spent


def test_spanner_targeting_prefers_spanner_and_falls_back():
    g = DynamicGraph(6, [(0, 1), (1, 2), (2, 3)])
    spanner = {(1, 2)}
    adv = SpannerTargeting(seed=2, budget=5)
    ev = adv.next_event(AdversaryView(g, spanner_masks=lambda: adjacency_masks(6, spanner)))
    assert ev.kind == DELETE and ev.edge == (1, 2)
    # empty spanner, nonempty graph: falls back to some graph edge
    ev = adv.next_event(AdversaryView(g, spanner_masks=lambda: [0] * 6))
    assert ev.kind == DELETE and g.has_edge(*ev.edge)


def test_spanner_targeting_exhausts_on_empty_graph():
    adv = SpannerTargeting(seed=3, budget=5)
    with pytest.raises(Exhausted):
        adv.next_event(AdversaryView(DynamicGraph(4), spanner_masks=lambda: [0] * 4))


def test_witness_hammer_picks_heaviest_edge():
    # hub 4 witnesses every bucket-0 pair, so its edges carry all the load
    g = DynamicGraph(8, [(0, 4), (1, 4), (2, 4), (3, 4)])
    ps = PhaseState(g, seed=3, bucket_of=[0, 0, 0, 0, 1, 1, 1, 1])
    adv = WitnessHammer(seed=4, budget=3)
    view = AdversaryView(
        g, spanner_masks=ps.spanner_masks, heaviest_machine=ps.engine.heaviest_machine
    )
    ev = adv.next_event(view)
    assert ev.kind == DELETE
    loads = ps.engine.loads
    top = max(loads.values())
    assert loads[ev.edge] == top
    assert ev.edge == min(e for e, c in loads.items() if c == top)


def test_witness_hammer_without_machines_deletes_the_smallest_edge():
    g = DynamicGraph(5, [(2, 3), (1, 4), (0, 3)])
    for view in (AdversaryView(g), AdversaryView(g, heaviest_machine=lambda: None)):
        ev = WitnessHammer(seed=1, budget=1).next_event(view)
        assert (ev.kind, ev.edge) == (DELETE, (0, 3))
    # vertex 0 is isolated, so the smallest edge sits in row 1; each
    # deletion exposes the next smallest
    g = DynamicGraph(6, [(4, 5), (2, 3), (1, 5), (3, 4)])
    adv = WitnessHammer(seed=1, budget=10)
    deleted = []
    while g.m:
        ev = adv.next_event(AdversaryView(g))
        deleted.append((ev.kind, ev.edge))
        g.apply(ev)
    assert deleted == [(DELETE, e) for e in [(1, 5), (2, 3), (3, 4), (4, 5)]]


def test_max_load_machine_deletes_heaviest():
    routines = [(0, (0,)), (1, (0,)), (2, (1,))]
    inst = HyperInstance(range(3), range(3), routines)
    eng = ResamplingEngine(inst, 0, horizon=5)
    adv = MaxLoadMachine(budget=2)
    ev = adv.next_event(eng)
    assert ev.machine == 0  # load 2 beats load 1


def test_strategies_are_deterministic():
    def trace(seed):
        g = DynamicGraph(8, [(i, i + 1) for i in range(7)])
        adv = SpannerTargeting(seed=seed, budget=6, p_insert=0.3)
        out = []
        for _ in range(6):
            ev = adv.next_event(AdversaryView(g, spanner_masks=lambda: list(g.adj_mask)))
            out.append((ev.kind, ev.edge))
            g.apply(ev)
        return out

    assert trace(9) == trace(9)
