"""Randomized phase-based 3-spanner: witnesses, schedules, phases."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from dynspan.graph import DynamicGraph, EdgeMissing, check_rows
from dynspan.instrumentation import OpCounter
from dynspan.oracle import verify_stretch
from dynspan.resample3 import PhaseExhausted, PhaseState, Resample3, default_phase_len


def sqrt_ceil(n):
    return math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)


def k4_phase(seed):
    g = DynamicGraph(4, list(itertools.combinations(range(4), 2)))
    return PhaseState(g, seed, bucket_of=[0, 0, 1, 1])


def test_core_rows_track_common_neighbors():
    counter = OpCounter()
    ps = PhaseState(DynamicGraph(5), seed=1, bucket_of=[0, 0, 1, 1, 1], counter=counter)
    for e in [(0, 2), (1, 2)]:
        ps._init_edge(ps.g.insert_edge(*e))
    assert ps.core[0] & ps.core[1] == 1 << 2
    for e in [(0, 3), (1, 3)]:
        ps._init_edge(ps.g.insert_edge(*e))
    assert ps.core[0] & ps.core[1] == 1 << 2 | 1 << 3
    ps.delete(1, 2)
    assert ps.core[0] & ps.core[1] == 1 << 3
    check_rows(ps.core)
    # one per row bit: five core updates, two bits each
    assert counter.by_module["partnership"] == 5 * 2


@pytest.mark.parametrize("seed", range(3))
def test_a_phase_build_charges_two_partnership_ops_per_edge(seed):
    rng = random.Random(seed)
    n, m = 30, 150
    edges = rng.sample(list(itertools.combinations(range(n), 2)), m)
    counter = OpCounter()
    PhaseState(DynamicGraph(n, edges), seed, counter=counter)
    assert counter.by_module["partnership"] == 2 * m


def test_a_partner_hand_off_charges_only_the_row_bits():
    counter = OpCounter()
    g = DynamicGraph(5, [(0, 2), (0, 3)])
    ps = PhaseState(g, seed=1, bucket_of=[0, 0, 1, 1, 1], counter=counter)
    before = Counter(counter.by_module)
    ps.delete(0, 2)  # 3 takes over from 2 as 0's partner in bucket 1
    ps.check_invariants()
    assert (counter.by_module - before)["partnership"] == 2
    assert "resample3" not in counter.by_module


def test_phase_check_catches_a_one_sided_neighbor():
    ps = PhaseState(DynamicGraph(5, [(0, 2)]), seed=1, bucket_of=[0, 0, 1, 1, 1])
    ps.check_invariants()
    ps.core[2] &= ~(1 << 0)  # 0 still lists 2, but 2 no longer lists 0
    with pytest.raises(AssertionError):
        ps.check_invariants()


@pytest.mark.parametrize(
    "bucket_of",
    [[0, 0, 1], [0, 0, 1, 1, 1], [0, -1, 1, 1], [0, 0, 1.0, 1], [0, 0, "1", 1], [0, 0, 4, 1]],
)
def test_bad_bucket_maps_are_rejected(bucket_of):
    for edges in [(), [(0, 2), (1, 2)]]:
        with pytest.raises(ValueError):
            PhaseState(DynamicGraph(4, edges), seed=1, bucket_of=bucket_of)


@pytest.mark.parametrize("seed", range(4))
def test_phase_build_order_does_not_matter(seed):
    # the wrapped runner builds a successor from its edge list plus the
    # journal, out of key order, so a later edge can take an earlier one's
    # partner role; the result must be the key-order build's
    rng = random.Random(seed)
    n = 30
    edges = rng.sample(list(itertools.combinations(range(n), 2)), 150)
    by_key = PhaseState(DynamicGraph(n, edges), seed, counter=OpCounter())
    shuffled = PhaseState(DynamicGraph(n), seed, counter=OpCounter())
    rng.shuffle(edges)
    for e in edges:
        shuffled._init_edge(shuffled.g.insert_edge(*e))
    for p in shuffled._pair_keys():
        shuffled._init_pair(p)
    shuffled.roles.flush()
    shuffled.check_invariants()
    assert shuffled.roles.count == by_key.roles.count
    assert shuffled.witnesses() == by_key.witnesses()
    for module in ("partnership", "job_machine"):
        assert shuffled.counter.by_module[module] == by_key.counter.by_module[module]


def test_phase_check_catches_a_stale_core_bit():
    g = DynamicGraph(5, [(0, 2), (1, 2), (0, 3), (1, 3)])
    ps = PhaseState(g, seed=1, bucket_of=[0, 0, 1, 1, 1])
    ps.delete(1, 2)
    ps.check_invariants()
    ps.core[1] |= 1 << 2  # one side of the deleted edge comes back
    with pytest.raises(AssertionError):
        ps.check_invariants()
    ps.core[2] |= 1 << 1  # and the other: the rows agree, the host does not
    with pytest.raises(AssertionError, match="core rows"):
        ps.check_invariants()


def test_phase_check_catches_a_common_neighbor_without_a_routine():
    g = DynamicGraph(5, [(0, 2), (1, 2), (0, 3)])
    ps = PhaseState(g, seed=1, bucket_of=[0, 0, 1, 1, 1])
    ps.check_invariants()
    # (1, 3) joins the host and the core behind the engine's back, so 3
    # becomes a common neighbor of (0, 1) that no routine names
    ps.g.insert_edge(1, 3)
    ps.core[1] |= 1 << 3
    ps.core[3] |= 1 << 1
    with pytest.raises(AssertionError, match="witnesses of"):
        ps.check_invariants()


def test_empty_graph_has_no_witnesses():
    ps = PhaseState(DynamicGraph(6), seed=1)
    assert ps.witnesses() == {}
    assert ps.spanner_edges() == set()


def test_k4_witness_uniform_over_seeds():
    counts: Counter[int] = Counter()
    for seed in range(600):
        ps = k4_phase(seed)
        counts[ps.witnesses()[(0, 1)]] += 1
    assert set(counts) == {2, 3}
    sigma = math.sqrt(600 * 0.25)
    assert abs(counts[2] - 300) <= 4 * sigma


def test_stretch_holds_after_phase_start():
    rng = random.Random(5)
    for n, m in [(16, 40), (25, 100), (30, 200)]:
        pairs = list(itertools.combinations(range(n), 2))
        g = DynamicGraph(n, rng.sample(pairs, m))
        ps = PhaseState(g, seed=n)
        assert verify_stretch(g, ps.spanner_edges(), 3).ok
        ps.check_invariants()


def test_delete_uninvolved_edge_minimal_changes():
    # a buffered edge participates in nothing; deleting it only removes itself
    g = DynamicGraph(6, [(0, 1), (2, 3)])
    ps = PhaseState(g, seed=9)
    ps.insert(4, 5)
    step = ps.delete(4, 5)
    assert step.changes == (((4, 5), "-"),)
    assert step.resamples == 0 and step.touched == 0


def test_hub_deletion_touches_every_pair_through_it():
    # hub 4 is the sole common neighbor of every pair in bucket 0
    g = DynamicGraph(8, [(0, 4), (1, 4), (2, 4), (3, 4)])
    ps = PhaseState(g, seed=3, bucket_of=[0, 0, 0, 0, 1, 1, 1, 1])
    assert ps.witnesses() == {p: 4 for p in itertools.combinations(range(4), 2)}
    step = ps.delete(0, 4)
    assert step.touched == 3  # pairs (0,1), (0,2), (0,3)
    assert step.resamples == 3  # immediate repair arrives via the T+1 entry
    entries = {1, 2, 4, 8, 16}
    horizon_entries = {t for t in entries if t <= ps.L}
    assert step.schedule_added == 3 * len(horizon_entries)
    ps.check_invariants()
    assert verify_stretch(ps.g, ps.spanner_edges(), 3).ok


def test_insert_shows_up_verbatim_then_delete_removes_it():
    g = DynamicGraph(9, [(0, 1)])
    ps = PhaseState(g, seed=2)
    ps.insert(3, 7)
    assert (3, 7) in ps.spanner_edges()
    ps.delete(3, 7)
    assert (3, 7) not in ps.spanner_edges()
    assert verify_stretch(g, ps.spanner_edges(), 3).ok
    with pytest.raises(EdgeMissing):
        ps.delete(3, 7)


def test_phase_budget_and_rollover():
    g = DynamicGraph(10)
    ps = PhaseState(g, seed=4, phase_len=5)
    pairs = list(itertools.combinations(range(10), 2))
    for e in pairs[:5]:
        ps.insert(*e)
    with pytest.raises(PhaseExhausted):
        ps.insert(*pairs[5])
    # the rolling driver rebuilds instead
    g2 = DynamicGraph(10)
    drv = Resample3(g2, seed=4, phase_len=5)
    for e in pairs[:5]:
        drv.insert(*e)
    assert drv.phase_index == 1
    drv.insert(*pairs[5])
    assert drv.phase_index == 2
    # buffered edges from phase 1 are now core edges of phase 2
    assert drv.phase.buffer == {pairs[5]}
    assert all(drv.phase.core[u] >> v & 1 for u, v in pairs[:5])


def test_default_phase_len():
    assert default_phase_len(100) == 1000
    assert default_phase_len(1) == 1


def test_random_run_invariants_and_resample_bound():
    rng = random.Random(31)
    n, m = 30, 150
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, m))
    ps = PhaseState(g, seed=77, phase_len=120)
    bound = 2 * sqrt_ceil(n) * (math.floor(math.log2(ps.L)) + 1)
    size_bound = 2 * n * sqrt_ceil(n)  # output minus buffered inserts
    for step in range(120):
        if g.m == 0:
            break
        loads = ps.engine.loads
        victim = max(sorted(loads), key=lambda e: loads[e])  # hammer the witnesses
        rep = ps.delete(*victim)
        assert rep.resamples <= bound
        assert ps.spanner_size() <= size_bound + len(ps.buffer)
        assert verify_stretch(g, ps.spanner_edges(), 3).ok
        if step % 40 == 0:
            ps.check_invariants()
    ps.check_invariants()


def test_mixed_run_with_rolling_driver():
    rng = random.Random(41)
    n = 24
    g = DynamicGraph(n)
    drv = Resample3(g, seed=13, phase_len=60)
    pairs = list(itertools.combinations(range(n), 2))
    for step in range(300):
        if g.m and rng.random() < 0.5:
            e = rng.choice(sorted(g.edges()))
            drv.delete(*e)
        else:
            absent = [p for p in pairs if not g.has_edge(*p)]
            e = rng.choice(absent)
            drv.insert(*e)
        assert verify_stretch(g, drv.spanner_edges(), 3).ok
    drv.phase.check_invariants()


def test_same_seed_same_trace():
    def run(seed):
        rng = random.Random(1)
        g = DynamicGraph(16, [(i, j) for i in range(4) for j in range(8, 12)])
        ps = PhaseState(g, seed=seed, phase_len=30)
        trace = [tuple(sorted(ps.witnesses().items()))]
        for _ in range(10):
            edges = sorted(g.edges())
            ps.delete(*edges[rng.randrange(len(edges))])
            trace.append(tuple(sorted(ps.witnesses().items())))
        return trace

    assert run(5) == run(5)
    assert run(5) != run(6) or True  # different seeds may differ


def test_phase_build_op_totals_are_pinned():
    # no CSV row carries a build's charges, so the totals after the first build
    # and after the first rollover are pinned here
    rng = random.Random(3)
    n = 40
    pairs = list(itertools.combinations(range(n), 2))
    counter = OpCounter()
    g = DynamicGraph(n, rng.sample(pairs, 300), counter=counter)
    drv = Resample3(g, seed=3, phase_len=20, counter=counter)
    assert (dict(counter.by_module), counter.total) == (
        {"graph": 600, "partnership": 600, "job_machine": 1528},
        2728,
    )
    for _ in range(21):
        if rng.random() < 0.7:
            drv.delete(*rng.choice(sorted(g.edges())))
        else:
            drv.insert(*rng.choice([p for p in pairs if not g.has_edge(*p)]))
    assert drv.phase_index == 2
    # partnership: 2 for each core edge either build adds and each core deletion
    assert (dict(counter.by_module), counter.total) == (
        {"graph": 642, "partnership": 1210, "job_machine": 3130},
        4982,
    )
