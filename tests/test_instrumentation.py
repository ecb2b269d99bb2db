"""Accounting structures and the metrics CSV format."""

from __future__ import annotations

import itertools
import math
import random

from dynspan.adversary import AdversaryView, WitnessHammer
from dynspan.graph import DynamicGraph
from dynspan.instrumentation import (
    CSV_HEADER,
    MetricsRow,
    OpCounter,
    RoleSet,
    Step,
    write_metrics_csv,
)
from helpers import OverheadSample, measure_overhead


def test_op_counter_steps_and_attribution():
    c = OpCounter()
    c.charge(2, "a")
    c.charge(1, "b")
    assert c.end_step() == 3
    c.charge(5, "a")
    assert c.end_step() == 5
    assert c.total == 8
    assert c.by_module == {"a": 7, "b": 1}
    assert c.last_step == 5


def test_flush_reports_net_changes_in_first_transition_order():
    rs = RoleSet(8)
    for e in [(3, 4), (0, 1), (2, 5)]:
        rs.add(e)
    rs.flush()
    _ = rs.ranks  # built masks and ranks follow every transition below
    rs.add((6, 7))  # joins
    rs.remove((3, 4))  # leaves
    rs.add((0, 2))  # joins, then leaves: absent
    rs.remove((0, 2))
    rs.remove((2, 5))  # leaves, then rejoins: absent
    rs.add((2, 5))
    rs.add((0, 1))  # a second role: no transition
    rs.add((1, 5))  # joins
    rs.remove((0, 1))  # back to one role: no transition
    # unsorted: each sign follows the edge's membership before the step
    assert rs.flush() == [((6, 7), "+"), ((3, 4), "-"), ((1, 5), "+")]
    assert rs.flush() == []
    assert set(rs.count) == {(0, 1), (1, 5), (2, 5), (6, 7)}
    rs.check_masks()


def test_flush_sign_is_the_old_membership_of_a_twice_moved_edge():
    rs = RoleSet(4)
    rs.add((0, 1))
    rs.remove((0, 1))
    rs.add((0, 1))  # in, out, in: it joined
    rs.add((2, 3))
    assert rs.flush() == [((0, 1), "+"), ((2, 3), "+")]
    rs.remove((2, 3))
    rs.add((2, 3))
    rs.remove((2, 3))  # out, in, out: it left
    assert rs.flush() == [((2, 3), "-")]
    _ = rs.masks
    rs.check_masks()


def test_step_counts_what_flush_lists():
    # twin role sets under the same seeded adds and removes, several steps
    # each: `step` is the Step counted from the twin's `flush`, and it
    # closes the output step as `flush` does
    rng = random.Random(23)
    edges = list(itertools.combinations(range(6), 2))
    for _ in range(200):
        rs, twin = RoleSet(6), RoleSet(6)
        for _ in range(rng.randrange(1, 5)):
            for _ in range(rng.randrange(12)):
                e = rng.choice(edges)
                drop = e in rs.count and rng.random() < 0.5
                for s in (rs, twin):
                    (s.remove if drop else s.add)(e)
            op, resamples = rng.randrange(100), rng.randrange(5)
            changes = twin.flush()
            adds = sum(sign == "+" for _, sign in changes)
            want = Step(op, resamples, adds, len(changes) - adds, len(twin.count))
            assert rs.step(op, resamples) == want
            assert rs.flush() == []


def test_overhead_all_zero_loads():
    samples = [OverheadSample(t, 0, 0, 0.0) for t in range(10)]
    rep = measure_overhead(samples, 3.0, 4.0)
    assert rep.fraction == 0.0


def test_overhead_zero_thresholds_counts_loaded_share():
    samples = [
        OverheadSample(0, 0, 1, 0.5),
        OverheadSample(0, 1, 0, 0.5),
        OverheadSample(0, 2, 2, 0.0),
        OverheadSample(0, 3, 0, 0.0),
    ]
    rep = measure_overhead(samples, 0.0, 0.0)
    assert rep.violations == 2 and rep.total == 4
    assert rep.fraction == 0.5
    assert rep.worst_sample.machine == 2


def test_overhead_on_witness_hammer_runs_within_frozen_thresholds():
    # loads of witness edges stay near target under hammering; thresholds
    # frozen from calibration (zero violations observed well below these)
    from dynspan.resample3 import PhaseState

    n, deletions, m0 = 36, 120, 250
    pairs = list(itertools.combinations(range(n), 2))
    machines = m0
    for seed in range(10):
        g = DynamicGraph(n, random.Random(40 + seed).sample(pairs, m0))
        ps = PhaseState(g, seed=seed, phase_len=deletions)
        adv = WitnessHammer(seed, deletions)
        view = AdversaryView(
            g, spanner_ranks=ps.spanner_ranks, heaviest_machine=ps.engine.heaviest_machine
        )
        samples = []
        for step in range(deletions):
            ev = adv.next_event(view)
            if ev is None:
                break
            ps.delete(*ev.edge)
            if step % 10 == 9:
                eng = ps.engine
                rng = random.Random(step * 7 + seed)
                for x in rng.sample(sorted(eng.loads), 20):
                    samples.append(
                        OverheadSample(eng.T, x, eng.load(x), float(eng.target(x)))
                    )
        alpha = 8 * math.log2(deletions)
        beta = 40 * math.log2(machines)
        assert measure_overhead(samples, alpha, beta).fraction <= 0.01


def test_csv_format(tmp_path):
    rows = [
        MetricsRow(1, "+ 0 1", 1, 0, 1, 4, 0, "1"),
        MetricsRow(2, "- 0 1", 0, 1, 0, 2, 0, ""),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(str(path), rows)
    text = path.read_text()
    assert text == CSV_HEADER + "\n" + "1,+ 0 1,1,0,1,4,0,1\n" + "2,- 0 1,0,1,0,2,0,\n"
