"""Resampling engine: feasibility, schedules, relevance replay, loads."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest

from dynspan.adversary import AdversaryView, WitnessHammer
from dynspan.graph import INSERT, DynamicGraph
from dynspan.instrumentation import InvariantBroken
from dynspan.job_machine import (
    DisjointnessViolated,
    HyperInstance,
    MachineMissing,
    ResamplingEngine,
    Routine,
    UnknownJob,
    UnknownRoutine,
    random_instance,
)
from dynspan.resample3 import PhaseState


def engine_with(routines, jobs, machines, seed=0, horizon=100):
    inst = HyperInstance(range(jobs), range(machines), routines)
    return ResamplingEngine(inst, seed, horizon)


def test_init_no_jobs():
    eng = engine_with([], 0, 3)
    assert eng.assigned == {}
    assert eng.resample_events == {}


def test_init_single_routine_deterministic():
    r = Routine(0, (1,))
    eng = engine_with([r], 1, 2)
    assert eng.assigned[0] == r
    assert eng.resample_events == {0: [0]}  # one draw, at step 0


def test_init_uniform_over_routines():
    routines = [Routine(0, (0,)), Routine(0, (1,)), Routine(0, (2,))]
    counts = {r: 0 for r in routines}
    trials = 10_000
    for seed in range(trials):
        eng = engine_with(routines, 1, 3, seed=seed)
        counts[eng.assigned[0]] += 1
    # binomial(10^4, 1/3): sigma = sqrt(n p (1-p)) ~ 47
    expect = trials / 3
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - expect) <= 3 * sigma


def test_resample_with_no_live_routines_is_unassigned():
    eng = engine_with([Routine(0, (0,))], 1, 1)
    eng.delete_machine(0)
    assert eng.assigned[0] is None
    assert eng.resample(0) is None
    assert eng.assigned[0] is None and eng.assigned_count == 0  # no recourse for unassigned


def test_resample_unknown_job():
    eng = engine_with([], 0, 1)
    with pytest.raises(UnknownJob):
        eng.resample(9)


def test_disjointness_enforced():
    with pytest.raises(DisjointnessViolated):
        HyperInstance(range(1), range(3), [Routine(0, (0, 1)), Routine(0, (1, 2))])


def test_delete_zero_load_machine_still_drains_schedule():
    # machine 3 has no routines; a pending scheduled resample still fires
    routines = [Routine(0, (0,)), Routine(0, (1,))]
    eng = engine_with(routines, 1, 4, seed=5)
    victim = eng.assigned[0].machines[0]
    eng.delete_machine(victim)  # touch at T=0: schedule {1,2,4,...}
    assert eng.assigned[0] is not None
    rep = eng.delete_machine(3)  # zero-load deletion at T=1
    assert rep.touched == ()
    assert rep.resampled == (0,)  # the T=2 entry from the touch


def test_touch_at_t3_schedule_entries():
    # three no-op deletions, then kill the assigned machine at clock T=3
    routines = [Routine(0, (0,))]
    eng = engine_with(routines, 1, 4, horizon=20)
    for x in (1, 2, 3):
        eng.delete_machine(x)
    rep = eng.delete_machine(0)
    assert rep.touched == (0,)
    assert eng.touch_times[0] == [3]
    # entries {4, 5, 7, 11, 19}: the clock reached 4 and drained its entry
    assert rep.schedule_added == 5 and rep.resampled == (0,)
    assert sorted(a for a, due in eng.list_at.items() if 0 in due) == [5, 7, 11, 19]


def test_same_timestep_from_two_touches_resamples_once():
    routines = [Routine(0, (0,)), Routine(0, (1,)), Routine(0, (2,)), Routine(0, (3,))]
    eng = engine_with(routines, 1, 6, seed=1, horizon=50)
    eng.delete_machine(eng.assigned[0].machines[0])  # touch at T=0 -> {1,2,4,8,...}
    eng.delete_machine(4)  # spare, clock reaches 2
    eng.delete_machine(eng.assigned[0].machines[0])  # touch at T=2 -> {3,4,6,...}
    assert 0 in eng.list_at[4]  # scheduled by both touches, stored once
    eng.delete_machine(5)  # clock reaches 4 and drains it
    assert eng.resample_events[0].count(4) == 1


def test_load_and_target_values():
    routines = [
        Routine(0, (0,)),
        Routine(0, (1,)),
        Routine(0, (2,)),
        Routine(0, (3,)),
        Routine(1, (0,)),
    ]
    eng = engine_with(routines, 2, 5, seed=0)
    assert eng.target(4) == 0 and eng.load(4) == 0
    assert eng.target(1) == Fraction(1, 4)
    assert eng.target(0) == Fraction(1, 4) + Fraction(1, 1)
    total = sum(eng.load(x) for x in range(5))
    assert total == sum(len(eng.assigned[j].machines) for j in range(2))
    with pytest.raises(MachineMissing):
        eng.delete_machine(9)


def test_target_sum_identity_on_random_instance():
    rng = random.Random(11)
    inst = random_instance(rng, jobs=40, machines=120)
    eng = ResamplingEngine(inst, 7, horizon=10)
    lhs = sum(eng.target(x) for x in range(120))
    rhs = sum(
        Fraction(len(r.machines), len(eng.live_by_job[r.job])) for r in inst.routines
    )
    assert lhs == rhs


def test_rel_count_untouched_job_is_one():
    eng = engine_with([Routine(0, (0,)), Routine(1, (1,))], 2, 3, horizon=30)
    for _ in range(5):
        eng.delete_machine(2) if 2 in eng.loads else eng.tick()
    r = eng.live_by_job[0][0]
    for t in (1, 3, 5):
        assert eng.rel_count(t, r) == 1  # only the initial assignment


def test_rel_count_single_touch_replay():
    # touch at T=3, horizon 20, query t=20: relevant steps are 0 and 19
    routines = [Routine(0, (0,)), Routine(0, (1,))]
    eng = engine_with(routines, 1, 6, seed=3, horizon=20)
    for x in (2, 3, 4):
        eng.delete_machine(x)
    eng.delete_machine(eng.assigned[0].machines[0])  # touch at T=3
    while eng.T < 20:
        eng.tick()
    r = eng.live_by_job[0][0]
    assert eng.rel_times(20, r) == [0, 19]
    assert eng.rel_count(20, r) <= math.floor(math.log2(20)) + 1


def test_rel_count_unknown_routine():
    eng = engine_with([Routine(0, (0,))], 1, 1, horizon=5)
    with pytest.raises(UnknownRoutine):
        eng.rel_count(0, Routine(0, (7,)))


def test_rel_count_routine_killed_by_machine_deletion():
    routines = [Routine(0, (0,)), Routine(0, (1,))]
    eng = engine_with(routines, 1, 2, horizon=5)
    assert eng.rel_count(0, routines[0]) == 0
    eng.delete_machine(0)
    with pytest.raises(UnknownRoutine):
        eng.rel_count(1, routines[0])
    assert eng.rel_count(1, routines[1]) == 1


# -- the replay over touch times against the replay over stored schedule entries --

ScheduleEntry = namedtuple("ScheduleEntry", "at created")


class EntryLogEngine(ResamplingEngine):
    """Also records every schedule entry (at, created), as the engine once stored
    them, and counts the entries skipped because an earlier touch holds their step."""

    def __init__(self, *args, **kwargs):
        self.schedule_log = {}
        self.shared = 0
        super().__init__(*args, **kwargs)

    def _extend_schedule(self, job):
        log = self.schedule_log.setdefault(job, [])
        step = 1
        while self.T + step <= self.horizon:
            at = self.T + step
            if job in self.list_at.get(at, ()):
                self.shared += 1
            else:
                log.append(ScheduleEntry(at, self.T))
            step *= 2
        return super()._extend_schedule(job)


def reference_rel_times(eng, t, r):
    """The replay over stored entries: event at step s counts unless some
    schedule entry t' with s < t' < t already existed at step s."""
    entries = eng.schedule_log.get(r.job, [])
    times = []
    for s in eng.resample_events[r.job]:
        if s >= t:
            break
        blocked = any(e.created <= s < e.at < t for e in entries)
        if not blocked:
            times.append(s)
    return times


def test_rel_times_matches_entry_replay_on_a_shared_entry():
    routines = [Routine(0, (x,)) for x in range(4)]
    eng = EntryLogEngine(HyperInstance(range(1), range(6), routines), 1, horizon=50)
    eng.delete_machine(eng.assigned[0].machines[0])  # touch at T=0 -> {1,2,4,8,...}
    eng.delete_machine(4)
    eng.delete_machine(eng.assigned[0].machines[0])  # touch at T=2 -> {3,4,6,...}
    while eng.T < 40:
        eng.tick()
    assert eng.touch_times[0] == [0, 2]
    assert eng.shared == 1 and ScheduleEntry(4, 0) in eng.schedule_log[0]  # 4 kept from T=0
    for r in eng.live_by_job[0]:
        for t in range(eng.T + 1):
            assert eng.rel_times(t, r) == reference_rel_times(eng, t, r)


def test_rel_times_matches_entry_replay_on_max_load_runs():
    seen = Counter()
    for seed in range(6):
        rng = random.Random(1300 + seed)
        eng = EntryLogEngine(random_instance(rng, jobs=300, machines=1800), seed, horizon=600)
        for step in range(600):
            eng.delete_machine(eng.heaviest_machine())
            if step % 50 != 49:
                continue
            live = sorted((r for rs in eng.live_by_job.values() for r in rs), key=Routine.sort_key)
            for r in rng.sample(live, min(30, len(live))):
                for t in (eng.T, eng.T // 2, eng.T - 3):
                    times = eng.rel_times(t, r)
                    assert times == reference_rel_times(eng, t, r)
                    seen["checks"] += 1
                    events = [s for s in eng.resample_events[r.job] if s < t]
                    if times != events:
                        seen["an event blocked"] += 1
        seen["runs with a shared entry"] += eng.shared > 0
    assert seen["checks"] > 5000
    assert seen["an event blocked"] and seen["runs with a shared entry"] == 6


def test_fuzzed_relevance_bound_and_geometry():
    rng = random.Random(23)
    for trial in range(6):
        inst = random_instance(rng, jobs=25, machines=220)
        horizon = 200
        eng = ResamplingEngine(inst, 100 + trial, horizon)
        for step in range(horizon):
            x = eng.heaviest_machine()
            if x is None:
                break
            eng.delete_machine(x)
            eng.check_feasible()
            if step % 20 != 19:
                continue
            t = eng.T
            live = [r for rs in eng.live_by_job.values() for r in rs]
            for r in sorted(live, key=Routine.sort_key)[:8]:
                times = eng.rel_times(t, r)
                assert len(times) <= math.floor(math.log2(max(t, 2))) + 1
                for a, b in zip(times, times[1:]):
                    assert b >= (a + t) / 2  # gaps to t at least halve


def test_worst_case_resamples_bounded_by_load_times_log():
    rng = random.Random(31)
    inst = random_instance(rng, jobs=60, machines=300)
    horizon = 250
    eng = ResamplingEngine(inst, 9, horizon)
    lam = max(eng.loads.values(), default=0)
    worst = 0
    for _ in range(horizon):
        x = eng.heaviest_machine()
        if x is None:
            break
        lam = max(lam, eng.loads[x])
        rep = eng.delete_machine(x)
        worst = max(worst, rep.resamples)
    assert worst <= max(lam, 1) * (math.floor(math.log2(horizon)) + 1)


def test_total_recourse_within_calibrated_bound():
    # c frozen at 1: calibration runs land ~30x under this expression
    rng = random.Random(61)
    jobs, machines, horizon = 300, 2000, 1500
    inst = random_instance(rng, jobs=jobs, machines=machines)
    eng = ResamplingEngine(inst, 3, horizon)
    delta = max((len(rs) for rs in eng.live_by_job.values()), default=0)
    for _ in range(horizon):
        x = eng.heaviest_machine()
        if x is None:
            break
        eng.delete_machine(x)
    log_m2 = math.log2(machines) ** 2
    bound = jobs * math.log2(delta + 2) * log_m2 + horizon * log_m2
    assert sum(map(len, eng.resample_events.values())) <= bound


def test_engine_op_totals_are_pinned():
    # add_job and each step charge their draws; a direct resample charges nothing
    eng = ResamplingEngine(random_instance(random.Random(71), jobs=100, machines=600), 2, 300)
    build = eng.counter.end_step()
    assert eng.resample(0) is not None and eng.counter.current == 0
    steps = []
    for _ in range(300):
        eng.delete_machine(eng.heaviest_machine())
        steps.append(eng.counter.end_step())
    assert (build, sum(steps), max(steps)) == (1385, 3761, 47)
    idle = engine_with([], 1, 3)  # a job without routines: three machines, no draw
    assert idle.assigned == {0: None} and idle.counter.total == 3


def test_instance_text_round_trip():
    rng = random.Random(41)
    inst = random_instance(rng, jobs=8, machines=20)
    text = inst.to_text()
    back = HyperInstance.from_text(text)
    assert back.to_text() == text
    assert [(r.job, r.machines) for r in back.routines] == [
        (r.job, r.machines) for r in inst.routines
    ]


def test_instance_text_errors():
    from dynspan.job_machine import JobMachineError

    with pytest.raises(JobMachineError):
        HyperInstance.from_text("J 2\n")
    with pytest.raises(JobMachineError):
        HyperInstance.from_text("J 2\nM 2\nR x 0\n")


def test_engine_is_deterministic_given_seed():
    rng = random.Random(51)
    inst = random_instance(rng, jobs=20, machines=100)
    runs = []
    for _ in range(2):
        eng = ResamplingEngine(inst, 77, horizon=80)
        trace = []
        for _ in range(80):
            x = eng.heaviest_machine()
            if x is None:
                break
            rep = eng.delete_machine(x)
            trace.append((x, rep.resampled))
        runs.append(trace)
    assert runs[0] == runs[1]


def test_step_past_the_horizon_raises():
    eng = ResamplingEngine(None, 0, horizon=1)
    eng.tick()
    with pytest.raises(InvariantBroken, match="horizon"):
        eng.tick()


# -- heaviest_machine against the max-load rule by definition --


def brute_heaviest(eng):
    """Largest load, ties to the smallest machine; None without machines."""
    if not eng.loads:
        return None
    top = max(eng.loads.values())
    return min(x for x, v in eng.loads.items() if v == top)


def assert_heaps_bounded(eng):
    for load, heap in eng._heaps.items():
        assert len(heap) <= 2 * len(eng._load_buckets[load]) + 16


def record_heap_rebuilds(eng) -> list[bool]:
    """Per `_rebuild_heap` call: True if it replaced a heap (not a first read)."""
    replaced = []
    rebuild = eng._rebuild_heap

    def recording(load):
        replaced.append(load in eng._heaps)
        return rebuild(load)

    eng._rebuild_heap = recording
    return replaced


def test_heaviest_machine_all_zero_loads_and_no_machines():
    eng = engine_with([], 0, 4)  # four idle machines
    assert eng.heaviest_machine() == 0
    eng.delete_machine(0)
    assert eng.heaviest_machine() == 1
    eng = engine_with([Routine(0, (2,))], 1, 4)
    assert eng.heaviest_machine() == 2
    eng.delete_machine(2)  # the only load goes: the max falls back to 0
    assert eng.heaviest_machine() == 0
    assert ResamplingEngine(None, 0, horizon=1).heaviest_machine() is None
    eng = engine_with([], 0, 1)
    eng.delete_machine(0)
    assert eng.heaviest_machine() is None


def test_heaviest_machine_matches_brute_force_down_to_empty():
    seen = Counter()
    for seed in range(5):
        rng = random.Random(900 + seed)
        eng = ResamplingEngine(random_instance(rng, jobs=60, machines=160), seed, horizon=400)
        replaced = record_heap_rebuilds(eng)
        while True:
            top = eng.heaviest_machine()
            assert top == brute_heaviest(eng)
            if top is None:
                break
            if eng.loads[top] == 0:
                seen["all loads 0"] += 1
            roll = rng.random()
            if roll < 0.45 or len(eng.loads) == 1:
                seen["max-load delete"] += 1
                eng.delete_machine(top)
            elif roll < 0.9:
                seen["other delete"] += 1
                eng.delete_machine(rng.choice(sorted(x for x in eng.loads if x != top)))
            else:
                seen["tick"] += 1
                eng.tick()
            eng.check_feasible()
        assert_heaps_bounded(eng)
        seen["heap rebuilt"] += sum(replaced)
    assert set(seen) == {
        "all loads 0", "max-load delete", "other delete", "tick", "heap rebuilt"
    }


def test_heaviest_machine_matches_brute_force_on_edge_machines():
    # resample3's engine: machines are edge tuples, witness-hammer deletes the heaviest
    n, steps = 40, 250
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(71).sample(pairs, 300))
    ps = PhaseState(g, seed=5, phase_len=steps)
    eng = ps.engine
    adv = WitnessHammer(seed=6, budget=steps, p_insert=0.25)
    view = AdversaryView(g, spanner_masks=ps.spanner_masks, heaviest_machine=eng.heaviest_machine)
    for _ in range(steps):
        assert eng.heaviest_machine() == brute_heaviest(eng)
        ev = adv.next_event(view)
        (ps.insert if ev.kind == INSERT else ps.delete)(*ev.edge)
    assert eng.heaviest_machine() == brute_heaviest(eng)
    assert isinstance(eng.heaviest_machine(), tuple)
    ps.check_invariants()
    assert_heaps_bounded(eng)


# -- the canonical order: routines by (repr(job), repr(machines)), due jobs by repr --


def repr_key(r):
    return (repr(r.job), repr(r.machines))


def assert_canonical_order_through_run(eng, rng, steps, seen):
    """Checks live lists, dead-routine changes and resampled jobs step by step."""
    for _ in range(steps):
        for live in eng.live_by_job.values():
            assert live == sorted(live, key=repr_key)
        if not eng.loads:
            break
        x = rng.choice(sorted(eng.loads))
        dying = [r for r in eng.by_machine[x] if eng.assigned[r.job] is r]
        rep = eng.delete_machine(x)
        dead = [old for _, old, new in rep.changes if new is None]
        assert dead == sorted(dying, key=repr_key)  # routines compare by identity
        assert list(rep.resampled) == sorted(rep.resampled, key=repr)
        # a job's routines share no machine, so one deletion kills at most one per job
        if [r.job for r in dead] != sorted(r.job for r in dead):
            seen["dead: repr order is not numeric order"] += 1
        if list(rep.resampled) != sorted(rep.resampled):
            seen["resampled: repr order is not numeric order"] += 1
        eng.check_feasible()


def test_canonical_order_is_repr_order_on_random_instances():
    seen = Counter()
    for seed in range(4):
        rng = random.Random(1100 + seed)
        # machine ids 0..29 and widths 1-3: "(12,)" < "(9,)" and "(1, 2)" < "(1,)"
        inst = random_instance(rng, jobs=40, machines=30)
        eng = ResamplingEngine(inst, seed, horizon=40)
        by_job = {}
        for r in inst.routines:
            by_job.setdefault(r.job, []).append(r)
        for job, rs in by_job.items():
            assert eng.live_by_job[job] == sorted(rs, key=repr_key)
            if [r.machines for r in eng.live_by_job[job]] != sorted(r.machines for r in rs):
                seen["live: repr order is not numeric order"] += 1
        assert_canonical_order_through_run(eng, rng, 40, seen)
    assert set(seen) == {
        "live: repr order is not numeric order",
        "dead: repr order is not numeric order",
        "resampled: repr order is not numeric order",
    }


def test_canonical_order_is_repr_order_on_phase_state():
    # two-digit vertices: the job (1, 10) comes before (1, 9), the edge (10, 12) before (9, 12)
    n = 30
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(81).sample(pairs, 180))
    ps = PhaseState(g, seed=7, phase_len=60)
    eng = ps.engine
    assert any(
        [r.tag for r in live] != sorted(r.tag for r in live) for live in eng.live_by_job.values()
    )
    seen = Counter()
    assert_canonical_order_through_run(eng, random.Random(82), 60, seen)
    assert set(seen) == {
        "dead: repr order is not numeric order",
        "resampled: repr order is not numeric order",
    }


def test_resample_redrawing_its_own_routine_moves_no_load():
    only = Routine(0, (3, 5))
    eng = engine_with([only, Routine(1, (1,)), Routine(1, (2,))], 2, 8, seed=4, horizon=20)
    eng.heaviest_machine()  # gives load 1 a heap, which a shift would push into
    rng = random.Random(5)
    spare = [0, 1, 4, 6, 7]  # machine 1 carries a routine of job 1
    for i in range(24):
        before = (len(eng.resample_events[0]), sum(map(len, eng.resample_events.values())))
        loads = dict(eng.loads)
        heaps = {load: list(heap) for load, heap in eng._heaps.items()}
        assert eng.resample(0) is only
        assert eng.assigned[0] is only
        assert eng.resample_events[0][-1] == eng.T
        after = (len(eng.resample_events[0]), sum(map(len, eng.resample_events.values())))
        assert after == (before[0] + 1, before[1] + 1)
        assert eng.loads == loads and eng._heaps == heaps
        assert eng.heaviest_machine() == brute_heaviest(eng)
        eng.check_feasible()
        assert_heaps_bounded(eng)
        if i % 4 == 1 and spare:
            eng.delete_machine(spare.pop(rng.randrange(len(spare))))
        elif i % 4 == 3:
            eng.tick()
    assert eng.assigned[0] is only and eng.T > 4
