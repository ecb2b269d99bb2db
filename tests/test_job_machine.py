"""Resampling engine: feasibility, schedules, relevance replay, loads, index
order, and a slow twin that keeps one routine object per routine."""

from __future__ import annotations

import gc
import itertools
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import SimpleNamespace
from typing import Hashable, Iterable

import pytest

from dynspan import job_machine, resample3
from dynspan.adversary import AdversaryView, WitnessHammer
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, edge_key, iter_bits, nth_bit
from dynspan.instrumentation import InvariantBroken, OpCounter, Step
from dynspan.job_machine import (
    DisjointnessViolated,
    HyperInstance,
    JobMachineError,
    MachineMissing,
    ResamplingEngine,
    StepReport,
    UnknownJob,
    UnknownRoutine,
    random_instance,
)
from dynspan.resample3 import PhaseState, WrappedRunner


def engine_with(routines, jobs, machines, seed=0, horizon=100):
    inst = HyperInstance(range(jobs), range(machines), routines)
    return ResamplingEngine(inst, seed, horizon)


def held(eng, job):
    """The machines of the routine assigned to `job`."""
    return eng.embedder.machines(job, eng.assigned[job])


def redraw(eng, job):
    """Draw `job` once, outside any step, and return its assignment: no
    resample event, and no charge."""
    eng._draw((job,))
    return eng.assigned[job]


def live_routines(eng):
    """Every live (job, index), in (job input order, index) order."""
    return [(job, i) for job, mask in eng.live.items() for i in iter_bits(mask)]


def test_init_no_jobs():
    eng = engine_with([], 0, 3)
    assert eng.assigned == {}
    assert eng.touch_times == {}


def test_init_single_routine_deterministic():
    eng = engine_with([(0, (1,))], 1, 2)
    assert eng.assigned[0] == 0 and held(eng, 0) == (1,)
    assert eng.resample_times(0) == [0]  # one draw, at step 0


def test_init_uniform_over_routines():
    routines = [(0, (0,)), (0, (1,)), (0, (2,))]
    counts = Counter()
    trials = 10_000
    for seed in range(trials):
        eng = engine_with(routines, 1, 3, seed=seed)
        counts[held(eng, 0)] += 1
    # binomial(10^4, 1/3): sigma = sqrt(n p (1-p)) ~ 47
    expect = trials / 3
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c - expect) <= 3 * sigma


def test_resample_with_no_live_routines_is_unassigned():
    eng = engine_with([(0, (0,))], 1, 1)
    eng.delete_machine(0)
    assert eng.assigned[0] is None
    assert redraw(eng, 0) is None
    assert eng.assigned[0] is None and eng.assigned_count == 0  # no recourse for unassigned


def test_a_dead_due_entry_draws_nothing_and_is_not_counted():
    # job 0 loses a routine at T=0, which schedules it at 1, 2, 4, 8, ..., and
    # its last at T=2, which adds only the repair entry 3: from then on each
    # due entry of job 0 draws, assigns and moves nothing, and is no resample
    # event and no resample; job 1 is never due
    eng = engine_with([(0, (0,)), (0, (1,)), (1, (2,)), (1, (3,))], 2, 4, horizon=40)
    rep = eng.delete_machine(held(eng, 0)[0])
    assert rep.touched == (0,) and rep.resamples == 1  # the T+1 repair draws
    assert eng.tick().resamples == 1  # the T=2 entry
    rep = eng.delete_machine(held(eng, 0)[0])
    assert rep.touched == (0,) and rep.schedule_added == 1 and rep.resamples == 0
    assert eng.assigned[0] is None and eng.resample_times(0) == [0, 1, 2]
    eng.check_feasible()  # the repair entry unloaded the dead routine
    dead_entries = 0
    while eng.T < eng.horizon:
        state, loads = eng.rng.getstate(), dict(eng.loads)
        dead_entries += 0 in eng.list_at.get(eng.T + 1, ())
        rep = eng.tick()
        assert rep.resamples == 0 and eng.rng.getstate() == state and eng.loads == loads
    assert dead_entries == 4  # the entries 4, 8, 16 and 32 of the first touch
    assert eng.resample_times(0) == [0, 1, 2]
    eng.check_feasible()


def test_a_job_without_routines_has_no_resample_event():
    eng = engine_with([(1, (0,))], 2, 1)
    assert eng.resample_times(0) == [] and eng.resample_times(1) == [0]


def engine_state(eng):
    """Everything a batch that raises must leave as it was."""
    return (
        dict(eng.live), dict(eng.assigned), dict(eng.loads), dict(eng.touch_times),
        list(eng._at), eng.rng.getstate(), Counter(eng.counter.by_module),
    )


def test_add_jobs_after_the_clock_started_raises():
    # a job's build draw is its resample event at step 0, so jobs join only then
    eng = engine_with([(0, (0,))], 1, 3)
    eng.add_jobs([(1, 0, 0)])
    eng.tick()
    before = engine_state(eng)
    with pytest.raises(JobMachineError, match="clock has started"):
        eng.add_jobs([(2, 0b1, 1), (3, 0, 0)])
    assert engine_state(eng) == before and eng.T == 1


@pytest.mark.parametrize(
    "batch,repeat",
    [([(5, 0b1, 1), (0, 0b1, 1)], 0), ([(5, 0b1, 1), (6, 0, 0), (5, 0, 0)], 5)],
    ids=["present", "twice"],
)
def test_add_jobs_checks_the_whole_batch_first(batch, repeat):
    eng = engine_with([(0, (0,)), (1, (1,)), (1, (2,))], 2, 3)
    before = engine_state(eng)
    with pytest.raises(JobMachineError, match=f"job {repeat} already present"):
        eng.add_jobs(batch)
    assert engine_state(eng) == before


@pytest.mark.parametrize("batch,repeat", [([7, 1], 1), ([7, 8, 7], 7)], ids=["present", "twice"])
def test_add_machines_checks_the_whole_batch_first(batch, repeat):
    eng = engine_with([(0, (0,)), (1, (1,))], 2, 3)
    before = engine_state(eng)
    with pytest.raises(JobMachineError, match=f"machine {repeat} already present"):
        eng.add_machines(batch)
    assert engine_state(eng) == before


@pytest.mark.parametrize("seed", range(3))
def test_a_batch_built_engine_equals_one_fed_singly(seed):
    # draws read no loads, so one `_draw` over the batch draws what one per job drew
    inst = random_instance(random.Random(800 + seed), jobs=80, machines=300)
    batch = ResamplingEngine(inst, seed, horizon=50)
    table = SimpleNamespace(machines=inst.machines, on=inst.on)  # not a HyperInstance: no build
    single = ResamplingEngine(table, seed, horizon=50)
    for x in inst.machine_ids:
        single.add_machines((x,))
    for job, rows in inst.table.items():
        single.add_jobs([(job, (1 << len(rows)) - 1, sum(map(len, rows)))])
    assert engine_state(single) == engine_state(batch)
    assert single.assigned_count == batch.assigned_count
    single.check_feasible()


def count_calls(monkeypatch, cls, names):
    """Calls of each method `names` of `cls` from now on, by name."""
    calls = Counter()
    for name in names:
        method = getattr(cls, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_build_draws_and_adds_machines_in_one_call_each(monkeypatch):
    # no per-edge or per-job call loop: one batch for the machines, one draw for the jobs
    calls = count_calls(monkeypatch, ResamplingEngine, ("_draw", "add_machines", "add_jobs"))
    ResamplingEngine(random_instance(random.Random(5), jobs=50, machines=200), 1, horizon=10)
    assert calls == {"_draw": 1, "add_machines": 1, "add_jobs": 1}
    calls.clear()
    n = 40
    pairs = list(itertools.combinations(range(n), 2))
    ps = PhaseState(DynamicGraph(n, random.Random(6).sample(pairs, 300)), seed=7)
    assert len(ps.engine.live) > 50 and len(ps.engine.loads) == 300
    assert calls == {"_draw": 1, "add_machines": 1, "add_jobs": 1}


def test_disjointness_enforced():
    with pytest.raises(DisjointnessViolated):
        HyperInstance(range(1), range(3), [(0, (0, 1)), (0, (1, 2))])


def test_delete_zero_load_machine_still_drains_schedule():
    # machine 3 has no routines; a pending scheduled resample still fires
    routines = [(0, (0,)), (0, (1,))]
    eng = engine_with(routines, 1, 4, seed=5)
    victim = held(eng, 0)[0]
    eng.delete_machine(victim)  # touch at T=0: schedule {1,2,4,...}
    assert eng.assigned[0] is not None
    rep = eng.delete_machine(3)  # zero-load deletion at T=1
    assert rep.touched == ()
    assert rep.resamples == 1  # the T=2 entry from the touch


def test_touch_at_t3_schedule_entries():
    # three no-op deletions, then kill the assigned machine at clock T=3
    eng = engine_with([(0, (0,)), (0, (4,))], 1, 5, horizon=20)
    for x in (1, 2, 3):
        eng.delete_machine(x)
    rep = eng.delete_machine(held(eng, 0)[0])
    assert rep.touched == (0,)
    assert eng.touch_times[0] == [3]
    # entries {4, 5, 7, 11, 19}: the clock reached 4 and drained its entry
    assert rep.schedule_added == 5 and rep.resamples == 1
    assert sorted(a for a, due in eng.list_at.items() if 0 in due) == [5, 7, 11, 19]


def test_same_timestep_from_two_touches_resamples_once():
    routines = [(0, (0,)), (0, (1,)), (0, (2,)), (0, (3,))]
    eng = engine_with(routines, 1, 6, seed=1, horizon=50)
    eng.delete_machine(held(eng, 0)[0])  # touch at T=0 -> {1,2,4,8,...}
    eng.delete_machine(4)  # spare, clock reaches 2
    eng.delete_machine(held(eng, 0)[0])  # touch at T=2 -> {3,4,6,...}
    assert 0 in eng.list_at[4]  # scheduled by both touches, stored once
    eng.delete_machine(5)  # clock reaches 4 and drains it
    assert eng.resample_times(0).count(4) == 1


def test_load_and_target_values():
    routines = [(0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (1, (0,))]
    eng = engine_with(routines, 2, 5, seed=0)
    assert eng.target(4) == 0 and eng.load(4) == 0
    assert eng.target(1) == Fraction(1, 4)
    assert eng.target(0) == Fraction(1, 4) + Fraction(1, 1)
    total = sum(eng.load(x) for x in range(5))
    assert total == sum(len(held(eng, j)) for j in range(2))
    with pytest.raises(MachineMissing):
        eng.delete_machine(9)


def test_target_sum_identity_on_random_instance():
    rng = random.Random(11)
    inst = random_instance(rng, jobs=40, machines=120)
    eng = ResamplingEngine(inst, 7, horizon=10)
    lhs = sum(eng.target(x) for x in range(120))
    rhs = sum(Fraction(len(ms), eng.live[job].bit_count()) for job, ms in inst.routines)
    assert lhs == rhs


def test_rel_count_untouched_job_is_one():
    eng = engine_with([(0, (0,)), (1, (1,))], 2, 3, horizon=30)
    for _ in range(5):
        eng.delete_machine(2) if 2 in eng.loads else eng.tick()
    for t in (1, 3, 5):
        assert len(eng.rel_times(t, 0, 0)) == 1  # only the initial assignment


def test_rel_count_single_touch_replay():
    # touch at T=3, horizon 20, query t=20: relevant steps are 0 and 19
    eng = engine_with([(0, (0,)), (0, (1,))], 1, 6, seed=3, horizon=20)
    for x in (2, 3, 4):
        eng.delete_machine(x)
    eng.delete_machine(held(eng, 0)[0])  # touch at T=3
    while eng.T < 20:
        eng.tick()
    i = nth_bit(eng.live[0], 0)  # the one routine left
    assert eng.rel_times(20, 0, i) == [0, 19]
    assert len(eng.rel_times(20, 0, i)) <= math.floor(math.log2(20)) + 1


def test_rel_count_unknown_routine():
    eng = engine_with([(0, (0,))], 1, 1, horizon=5)
    with pytest.raises(UnknownRoutine):
        eng.rel_times(0, 0, 1)  # job 0 has one routine, index 0
    with pytest.raises(UnknownRoutine):
        eng.rel_times(0, 7, 0)


def test_rel_count_routine_killed_by_machine_deletion():
    eng = engine_with([(0, (0,)), (0, (1,))], 1, 2, horizon=5)
    assert len(eng.rel_times(0, 0, 0)) == 0
    eng.delete_machine(0)  # kills routine 0, which uses machine 0
    with pytest.raises(UnknownRoutine):
        eng.rel_times(1, 0, 0)
    assert len(eng.rel_times(1, 0, 1)) == 1


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


def reference_rel_times(eng, t, job):
    """The replay over stored entries: event at step s counts unless some
    schedule entry t' with s < t' < t already existed at step s."""
    entries = eng.schedule_log.get(job, [])
    times = []
    for s in eng.resample_times(job):
        if s >= t:
            break
        blocked = any(e.created <= s < e.at < t for e in entries)
        if not blocked:
            times.append(s)
    return times


def test_rel_times_matches_entry_replay_on_a_shared_entry():
    routines = [(0, (x,)) for x in range(4)]
    eng = EntryLogEngine(HyperInstance(range(1), range(6), routines), 1, horizon=50)
    eng.delete_machine(held(eng, 0)[0])  # touch at T=0 -> {1,2,4,8,...}
    eng.delete_machine(4)
    eng.delete_machine(held(eng, 0)[0])  # touch at T=2 -> {3,4,6,...}
    while eng.T < 40:
        eng.tick()
    assert eng.touch_times[0] == [0, 2]
    assert eng.shared == 1 and ScheduleEntry(4, 0) in eng.schedule_log[0]  # 4 kept from T=0
    for i in iter_bits(eng.live[0]):
        for t in range(eng.T + 1):
            assert eng.rel_times(t, 0, i) == reference_rel_times(eng, t, 0)


def test_rel_times_matches_entry_replay_on_max_load_runs():
    seen = Counter()
    for seed in range(6):
        rng = random.Random(1300 + seed)
        eng = EntryLogEngine(random_instance(rng, jobs=300, machines=1800), seed, horizon=600)
        for step in range(600):
            eng.delete_machine(eng.heaviest_machine())
            if step % 50 != 49:
                continue
            live = live_routines(eng)
            for job, i in rng.sample(live, min(30, len(live))):
                for t in (eng.T, eng.T // 2, eng.T - 3):
                    times = eng.rel_times(t, job, i)
                    assert times == reference_rel_times(eng, t, job)
                    seen["checks"] += 1
                    events = [s for s in eng.resample_times(job) if s < t]
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
            for job, i in live_routines(eng)[:8]:
                times = eng.rel_times(t, job, i)
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
    delta = max((live.bit_count() for live in eng.live.values()), default=0)
    for _ in range(horizon):
        x = eng.heaviest_machine()
        if x is None:
            break
        eng.delete_machine(x)
    log_m2 = math.log2(machines) ** 2
    bound = jobs * math.log2(delta + 2) * log_m2 + horizon * log_m2
    assert sum(len(eng.resample_times(job)) for job in eng.live) <= bound


def test_engine_op_totals_are_pinned():
    # add_jobs and each step charge their draws; a step its schedule entries too
    eng = ResamplingEngine(random_instance(random.Random(71), jobs=100, machines=600), 2, 300)
    build = eng.counter.end_step()
    steps = []
    for _ in range(300):
        eng.delete_machine(eng.heaviest_machine())
        steps.append(eng.counter.end_step())
    assert (build, sum(steps), max(steps)) == (1385, 3146, 38)
    idle = engine_with([], 1, 3)  # a job without routines: three machines, no draw
    assert idle.assigned == {0: None} and idle.counter.total == 3


def test_instance_text_round_trip():
    rng = random.Random(41)
    inst = random_instance(rng, jobs=8, machines=20)
    text = inst.to_text()
    back = HyperInstance.from_text(text)
    assert back.to_text() == text
    assert back.routines == inst.routines


def test_instance_text_errors():
    with pytest.raises(JobMachineError):
        HyperInstance.from_text("J 2\n")
    with pytest.raises(JobMachineError):
        HyperInstance.from_text("J 2\nM 2\nR x 0\n")


@pytest.mark.parametrize(
    "routines,error",
    [
        ([(0, (0, 1)), (0, (1, 2))], DisjointnessViolated),  # two routines share machine 1
        ([(0, (2, 2))], DisjointnessViolated),  # one routine names machine 2 twice
        ([(0, (7,))], MachineMissing),
        ([(0, ())], JobMachineError),
        ([(4, (0,))], UnknownJob),
    ],
)
def test_instance_validation(routines, error):
    with pytest.raises(error):
        HyperInstance(range(2), range(3), routines)


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
            trace.append((x, rep, tuple(eng.assigned.values())))
        runs.append(trace)
    assert runs[0] == runs[1]


class NoRandrange(random.Random):
    def randrange(self, *args):
        raise AssertionError("the engine draws by its own rank rule, not randrange")


# assignments of jobs 0..5 after the build, after redrawing each job, and
# after each of 12 steps; recorded once, equal to what the twin below, which
# draws by randrange, drew
RANK_RULE_TRAIL = [
    (3, 4, 0, 0, 1, 1),
    (5, 0, 0, 0, 4, 0),
    (2, 0, 0, 0, 4, 0),
    (0, 4, 0, 0, 4, 0),
    (0, 3, None, None, 4, 0),
    (2, 3, None, None, 4, 0),
    (3, 4, None, None, 3, 0),
    (0, 4, None, None, 3, 2),
    (3, 3, None, None, 3, 2),
    (4, None, None, None, 3, 2),
    (4, None, None, None, 3, 2),
    (4, None, None, None, 3, 2),
    (4, None, None, None, None, 2),
    (None, None, None, None, None, None),
]


def test_the_rank_rule_is_the_engines_own(monkeypatch):
    # the engine's stream is getrandbits under its own rejection rule: an rng
    # whose randrange raises draws the same assignments as ever
    monkeypatch.setattr(job_machine, "random", SimpleNamespace(Random=NoRandrange))
    inst = random_instance(random.Random(24), jobs=6, machines=14)
    eng = ResamplingEngine(inst, seed=9, horizon=30)
    assert type(eng.rng) is NoRandrange
    trail = [tuple(eng.assigned[j] for j in inst.jobs)]
    for job in inst.jobs:
        redraw(eng, job)
    trail.append(tuple(eng.assigned[j] for j in inst.jobs))
    for t in range(12):  # kill the assigned routine of job t % 6, if it has one
        i = eng.assigned[t % 6]
        if i is None:
            eng.tick()
        else:
            eng.delete_machine(inst.table[t % 6][i][0])
        trail.append(tuple(eng.assigned[j] for j in inst.jobs))
        eng.check_feasible()
    assert trail == RANK_RULE_TRAIL


def assert_killed(eng, job, others):
    """After a step that killed the assigned routine of `job`, leaving it
    `others` live routines: it is repaired or unassigned, and the loads, the
    load index and the heaviest machine hold without the dead routine."""
    assert eng.touch_times[job][-1] == eng.T - 1  # the death was at this step
    assert eng.live[job].bit_count() == others
    assert (eng.assigned[job] is None) == (not others)
    eng.check_feasible()  # recounts the loads from the assigned routines
    assert eng.heaviest_machine() == brute_heaviest(eng)


def test_a_killed_routine_is_unloaded_by_its_repair_draw():
    # job 0 keeps a live routine after the kill; job 1 has none left; job 2
    # shares their machines, so a load the dead routine kept would show
    routines = [(0, (0, 1)), (0, (2, 3)), (1, (4, 5)), (2, (1, 5)), (2, (3, 6))]
    for seed in range(4):
        eng = engine_with(routines, 3, 7, seed=seed, horizon=20)
        eng.heaviest_machine()  # gives the loads heaps, which every move keeps
        eng.delete_machine(held(eng, 0)[0])
        assert_killed(eng, 0, others=1)
        eng.delete_machine(4)
        assert_killed(eng, 1, others=0)
        while eng.T < eng.horizon:
            eng.tick()
            eng.check_feasible()


def test_a_killed_witness_is_unloaded_by_its_repair_draw():
    # a phase: kill a pair's witness while it has others, then the witness of
    # a pair with no other common neighbor
    pairs = list(itertools.combinations(range(12), 2))
    g = DynamicGraph(12, random.Random(3).sample(pairs, 30))
    ps = PhaseState(g, seed=3)
    eng = ps.engine
    eng.heaviest_machine()
    for others in (1, 0):
        p, w = next(
            (p, w) for p, w in sorted(ps.witnesses().items()) if eng.live[p].bit_count() == others + 1
        )
        ps.delete(p[0], w)
        assert_killed(eng, p, others)
        ps.check_invariants()


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
    for load, heap in enumerate(eng._heaps):
        if heap is not None:
            assert len(heap) <= 2 * eng._at[load] + 16


def record_heap_rebuilds(eng) -> list[bool]:
    """Per heap build: True if it replaced a heap (a compaction), False if it
    was a load's first read (a scan)."""
    replaced = []
    scan, compact = eng._scan_heap, eng._compact_heap

    def scanning(load):
        replaced.append(eng._heaps[load] is not None)
        return scan(load)

    def compacting(load):
        replaced.append(eng._heaps[load] is not None)
        return compact(load)

    eng._scan_heap, eng._compact_heap = scanning, compacting
    return replaced


def test_heaviest_machine_all_zero_loads_and_no_machines():
    eng = engine_with([], 0, 4)  # four idle machines
    assert eng.heaviest_machine() == 0
    eng.delete_machine(0)
    assert eng.heaviest_machine() == 1
    eng = engine_with([(0, (2,))], 1, 4)
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
    view = AdversaryView(g, spanner_ranks=ps.spanner_ranks, heaviest_machine=eng.heaviest_machine)
    for _ in range(steps):
        assert eng.heaviest_machine() == brute_heaviest(eng)
        ev = adv.next_event(view)
        (ps.insert if ev.kind == INSERT else ps.delete)(*ev.edge)
    assert eng.heaviest_machine() == brute_heaviest(eng)
    assert isinstance(eng.heaviest_machine(), tuple)
    ps.check_invariants()
    assert_heaps_bounded(eng)


def test_max_load_rises_again_below_the_highest_load_seen():
    # machine 0 reaches load 3; once it is gone, heaviest_machine lowers the
    # max to 1, and machine 2 then climbs to 2: above the true max, below 3
    routines = [(0, (0,)), (1, (0,)), (2, (0,)), (3, (1,))]
    routines += [(4, (2,)), (4, (8,)), (5, (2,)), (5, (9,))]  # index 0 is (2,), 1 the other
    eng = engine_with(routines, 6, 10, seed=3)

    def draw(job, i):
        for _ in range(64):
            if eng.assigned[job] == i:
                return
            redraw(eng, job)
        raise AssertionError(f"job {job} never drew routine {i}")

    draw(4, 1)
    draw(5, 1)
    assert eng.loads[0] == 3 and eng.loads[2] == 0 and eng.heaviest_machine() == 0
    eng.delete_machine(0)
    assert eng.heaviest_machine() == 1 and eng._max_load == 1 < len(eng._at) - 1 == 3
    draw(4, 0)
    draw(5, 0)
    assert eng.loads[2] == 2
    assert eng.heaviest_machine() == 2 == brute_heaviest(eng)
    eng.check_feasible()


def record_scans(monkeypatch) -> tuple[list, list]:
    """Every (engine, load) of `_scan_heap` and of `_compact_heap` from now
    on; each compacted heap must hold the machines at its load, once each."""
    scans, compactions = [], []
    scan, compact = ResamplingEngine._scan_heap, ResamplingEngine._compact_heap

    def scanning(eng, load):
        scans.append((eng, load))
        return scan(eng, load)

    def compacting(eng, load):
        compactions.append((eng, load))
        compact(eng, load)
        assert sorted(eng._heaps[load]) == sorted(x for x, v in eng.loads.items() if v == load)

    monkeypatch.setattr(ResamplingEngine, "_scan_heap", scanning)
    monkeypatch.setattr(ResamplingEngine, "_compact_heap", compacting)
    return scans, compactions


def scanned_levels(eng, scans) -> list[int]:
    """The loads `eng` scanned `loads` for, each at most once and each a
    load some machine of `eng` reached."""
    levels = [load for e, load in scans if e is eng]
    assert len(levels) == len(set(levels)), sorted(levels)
    assert set(levels) <= set(range(len(eng._at)))
    return levels


def test_each_load_level_is_scanned_at_most_once(monkeypatch):
    # a load's heap costs one O(m) scan of `loads`, at its first read; a
    # compaction reads the heap alone, and no step rescans
    scans, compactions = record_scans(monkeypatch)
    rng = random.Random(1900)
    eng = ResamplingEngine(random_instance(rng, jobs=200, machines=1200), 1, horizon=400)
    for _ in range(400):
        top = eng.heaviest_machine()
        eng.delete_machine(top if rng.random() < 0.7 else rng.choice(sorted(eng.loads)))
    assert len(scanned_levels(eng, scans)) >= 3
    assert any(e is eng for e, _ in compactions)
    n, steps = 40, 250
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(72).sample(pairs, 300))
    ps = PhaseState(g, seed=8, phase_len=steps)
    adv = WitnessHammer(seed=9, budget=steps, p_insert=0.25)
    view = AdversaryView(
        g, spanner_ranks=ps.spanner_ranks, heaviest_machine=ps.engine.heaviest_machine
    )
    for _ in range(steps):
        ev = adv.next_event(view)
        (ps.insert if ev.kind == INSERT else ps.delete)(*ev.edge)
    assert len(scanned_levels(ps.engine, scans)) >= 2
    assert any(e is ps.engine for e, _ in compactions)
    ps.check_invariants()


# -- index order: jm by input order, a phase by witness, due jobs as scheduled --


def record_draws(eng) -> list[list[Hashable]]:
    """The jobs of every `_draw` call of `eng` from now on, in draw order."""
    calls = []
    draw = eng._draw

    def recording(jobs):
        calls.append(list(jobs))
        return draw(calls[-1])

    eng._draw = recording
    return calls


def test_input_order_fixes_the_draws():
    # jobs and routines given in reverse: a job's routines keep their input
    # order, each on(x) lists the routines through x in (job input order,
    # index) order, dead routines leave in that order, and a step's due jobs
    # draw in the order the touches scheduled them, as a model replays it
    seen = Counter()
    for seed in range(4):
        rng = random.Random(1100 + seed)
        given = random_instance(rng, jobs=40, machines=30)
        jobs, routines = given.jobs[::-1], given.routines[::-1]
        inst = HyperInstance(jobs, given.machine_ids, routines)
        for job in jobs:
            assert inst.table[job] == [ms for j, ms in routines if j == job]
        for x in inst.machine_ids:
            through = [(job, i) for job in jobs for i, ms in enumerate(inst.table[job]) if x in ms]
            assert list(inst.on(x)) == through
        eng = ResamplingEngine(inst, seed, horizon=40)
        draws = record_draws(eng)
        scheduled: dict[int, list[Hashable]] = {}  # step -> due jobs, in the order scheduled
        while eng.loads:
            x = rng.choice(sorted(eng.loads))
            dying = [job for job, i in inst.on(x) if eng.assigned[job] == i]
            T = eng.T
            rep = eng.delete_machine(x)
            assert list(rep.touched) == dying
            for job in dying:
                # a job left without a live routine gets its repair entry alone
                k_end = (eng.horizon - T).bit_length() if eng.live[job] else 1
                seen["a dead job's repair entry"] += not eng.live[job]
                for k in range(k_end):
                    due = scheduled.setdefault(T + (1 << k), [])
                    if job not in due:
                        due.append(job)
            due = scheduled.pop(eng.T, [])
            assert draws == [due]
            draws.clear()
            if due != [job for job in jobs if job in due]:
                seen["due jobs out of input order"] += 1
            eng.check_feasible()
    assert set(seen) == {"a dead job's repair entry", "due jobs out of input order"}


def record_steps(eng) -> list[StepReport]:
    """Every report of the engine's `_step` from now on."""
    reports = []
    step = eng._step

    def recording(x):
        reports.append(step(x))
        return reports[-1]

    eng._step = recording
    return reports


def test_phase_index_order_is_ascending_witness():
    # routine w of a pair is its witness w: the build draws each pair's
    # witness by rank among its common neighbors, and a deletion's dead
    # witnesses leave in the phase's on(x) order
    n, seed = 30, 7
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(81).sample(pairs, 180))
    ps = PhaseState(g, seed=seed, phase_len=60)
    eng = ps.engine
    # the build drew each pair's witness by the rank rule, which under CPython
    # 3.11 takes the live bit of rank randrange(popcount)
    rng = random.Random(seed)
    drawn = {}
    for a, b in ps._pair_keys():
        live = ps.core[a] & ps.core[b]
        assert eng.live[a, b] == live
        drawn[a, b] = nth_bit(live, rng.randrange(live.bit_count()))
    assert ps.witnesses() == drawn
    reports = record_steps(eng)
    order = random.Random(82)
    for _ in range(60):
        e = order.choice(sorted(g.edges()))
        dying = [p for p, w in ps.on(e) if eng.assigned[p] == w]
        ps.delete(*e)
        assert list(reports[-1].touched) == dying
        ps.check_invariants()


def test_phase_build_adds_fewer_objects_than_witnesses():
    # the engine keeps a phase's witnesses as bits: a build at n=144, m=n^2/8
    # has 7186 witnesses, and once made one object per witness and more
    n = 144
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(601).sample(pairs, n * n // 8))
    gc.collect()
    before = len(gc.get_objects())
    ps = PhaseState(g, seed=601)
    added = len(gc.get_objects()) - before
    witnesses = sum(live.bit_count() for live in ps.engine.live.values())
    assert witnesses == 7186
    assert added < witnesses


def test_resample_redrawing_its_own_routine_moves_no_load():
    routines = [(0, (3, 5)), (1, (1,)), (1, (2,))]
    eng = engine_with(routines, 2, 8, seed=4, horizon=20)
    eng.heaviest_machine()  # gives load 1 a heap, which a shift would push into
    rng = random.Random(5)
    spare = [0, 1, 4, 6, 7]  # machine 1 carries a routine of job 1
    for i in range(24):
        events = {job: eng.resample_times(job) for job in eng.live}
        loads = dict(eng.loads)
        at = list(eng._at)
        heaps = [None if heap is None else list(heap) for heap in eng._heaps]
        assert redraw(eng, 0) == 0
        # a draw outside a step is no resample event, of job 0 or any other
        assert {job: eng.resample_times(job) for job in eng.live} == events
        assert eng.loads == loads and eng._at == at and eng._heaps == heaps
        assert eng.heaviest_machine() == brute_heaviest(eng)
        eng.check_feasible()
        assert_heaps_bounded(eng)
        if i % 4 == 1 and spare:
            eng.delete_machine(spare.pop(rng.randrange(len(spare))))
        elif i % 4 == 3:
            eng.tick()
    assert eng.assigned[0] == 0 and eng.T > 4


# -- the slow twin: the engine as it was when it kept one object per routine --
#
# `Routine` and `TwinEngine` are that engine's code, under the bitmask
# engine's rules: a job's routines keep the order they are given in (a
# phase's witnesses ascending), a deletion's dead routines leave in that
# order by job (a phase's in its `on(x)` order), due jobs draw in the order
# they were scheduled, a job left without a live routine gets its repair
# entry alone, and only draws are resamples.  Both are fed the same calls
# and compared after each: assignments, live routines, loads, the heaviest
# machine, resample events (the engine derives them from its touches, the
# twin logs each draw), touches, the schedule in order, relevance replays
# and op counts.


@dataclass(slots=True, eq=False)
class Routine:
    """One way to handle `job`, by occupying `machines`.  Compares and hashes
    by identity."""

    job: Hashable
    machines: tuple[Hashable, ...]
    tag: Hashable = None  # opaque payload for embedders (e.g. a witness vertex)


class TwinEngine:
    """Maintains a feasible assignment under machine deletions."""

    def __init__(
        self,
        instance: HyperInstance | None,
        seed: int,
        horizon: int,
        counter: OpCounter | None = None,
        on=None,
    ) -> None:
        """`on`, if given, is the embedder's `on(x)`: the (job, tag) of each
        routine through x, in the order a deletion of x lists its dead ones."""
        self.rng = random.Random(seed)
        self.horizon = horizon
        self.counter = counter or OpCounter()
        self.on = on
        self.T = 0
        # machine -> the routines through it, a dict used as an ordered set
        self.by_machine: dict[Hashable, dict[Routine, None]] = {}
        self.live_by_job: dict[Hashable, list[Routine]] = {}  # in input order
        self.assigned: dict[Hashable, Routine | None] = {}
        self.assigned_count = 0  # jobs whose assigned routine is not None
        self.loads: dict[Hashable, int] = {}  # keyed by the live machines
        self._load_buckets: dict[int, set[Hashable]] = {}
        self._max_load = 0  # no live machine is heavier; lowered lazily
        self._heaps: dict[int, list[Hashable]] = {}  # load -> min-heap over its bucket
        self.list_at: dict[int, dict[Hashable, None]] = {}  # step -> jobs due then, in order
        # replayable history: the steps of each job's draws and touches
        self.resample_events: dict[Hashable, list[int]] = {}
        self.touch_times: dict[Hashable, list[int]] = {}
        if instance is not None:
            for x in instance.machines:
                self.add_machine(x)
            per_job: dict[Hashable, list[Routine]] = {}
            for r in instance.routines:
                per_job.setdefault(r.job, []).append(r)
            for job in instance.jobs:
                self.add_job(job, per_job.get(job, ()))

    # -- incremental construction (clock must not have started) --

    def add_machine(self, x: Hashable) -> None:
        if x in self.loads:
            raise JobMachineError(f"machine {x!r} already present")
        self.by_machine[x] = {}
        self.loads[x] = 0
        self._load_buckets.setdefault(0, set()).add(x)
        heap = self._heaps.get(0)
        if heap is not None:
            heappush(heap, x)
        self._charge(1)

    def add_job(self, job: Hashable, routines: Iterable[Routine]) -> None:
        """Register a job with its routines and give it its initial assignment."""
        if job in self.live_by_job:
            raise JobMachineError(f"job {job!r} already present")
        loads = self.loads
        rs = list(routines)
        seen: set[Hashable] = set()
        units = 0
        for r in rs:
            if r.job != job:
                raise UnknownJob(f"routine {r} does not belong to job {job!r}")
            machines = r.machines
            for x in machines:
                if x not in loads:
                    raise MachineMissing(f"routine machine {x!r} unknown")
                if x in seen:
                    raise DisjointnessViolated(f"job {job!r} routines share machine {x!r}")
                seen.add(x)
            units += len(machines)
        self.live_by_job[job] = rs
        self.assigned[job] = None
        self.resample_events[job] = []
        self.touch_times[job] = []
        by_machine = self.by_machine
        for r in rs:
            for x in r.machines:
                by_machine[x][r] = None
        if self.resample(job) is not None:
            units += 1
        self._charge(units)

    # -- load bookkeeping --

    def _charge(self, k: int) -> None:
        if k:  # a batch of nothing leaves `by_module` as it was
            self.counter.charge(k, "job_machine")

    def _rebuild_heap(self, load: int) -> list[Hashable]:
        """Heap of the load's bucket alone.  Called when a heap is first read,
        and when a machine leaves a load whose heap then exceeds
        2·|bucket| + 16; a push never crosses that bound, as both sides grow."""
        heap = self._heaps[load] = list(self._load_buckets[load])
        heapify(heap)
        return heap

    def _shift_load(self, r: Routine, delta: int) -> None:
        """Move every live machine of `r` by `delta` load units."""
        loads = self.loads
        buckets = self._load_buckets
        heaps = self._heaps
        for x in r.machines:
            old = loads.get(x)
            if old is None:
                continue  # the deleted machine of a dying routine
            new = old + delta
            loads[x] = new
            bucket = buckets[old]
            bucket.discard(x)
            heap = heaps.get(old)
            if heap is not None and len(heap) > 2 * len(bucket) + 16:
                self._rebuild_heap(old)
            bucket = buckets.get(new)
            if bucket is None:
                bucket = buckets[new] = set()
            bucket.add(x)
            heap = heaps.get(new)
            if heap is not None:
                heappush(heap, x)
            if new > self._max_load:
                self._max_load = new

    def heaviest_machine(self) -> Hashable | None:
        """Max-load live machine, ties to the smallest machine; None if no machines."""
        if not self.loads:
            return None
        buckets = self._load_buckets
        load = self._max_load
        while not buckets.get(load):  # stops at a live machine's load
            load -= 1
            if load < 0:
                raise InvariantBroken(f"no live machine has a load from 0 to {self._max_load}")
        self._max_load = load
        bucket = buckets[load]
        heap = self._heaps.get(load)
        if heap is None:
            heap = self._rebuild_heap(load)
        while heap[0] not in bucket:
            heappop(heap)
        return heap[0]

    # -- queries --

    def load(self, x: Hashable) -> int:
        if x not in self.loads:
            raise MachineMissing(f"machine {x!r} not live")
        return self.loads[x]

    def target(self, x: Hashable) -> Fraction:
        if x not in self.loads:
            raise MachineMissing(f"machine {x!r} not live")
        total = Fraction(0)
        for r in self.by_machine[x]:
            total += Fraction(1, len(self.live_by_job[r.job]))
        return total

    # -- the dynamic process --

    def resample(self, job: Hashable) -> Routine | None:
        """Reassign `job` uniformly over its live routines; logs the event if
        it draws.  A draw costs one unit, which the caller charges."""
        if job not in self.live_by_job:
            raise UnknownJob(f"job {job!r} unknown")
        live = self.live_by_job[job]
        old = self.assigned[job]
        if not live:
            if old is not None:
                self.assigned_count -= 1
            self.assigned[job] = None
            return None
        self.resample_events[job].append(self.T)
        new = live[self.rng.randrange(len(live))]
        if old is None:
            self.assigned_count += 1
            self._shift_load(new, +1)
        elif old is not new:  # redrawing the assigned routine moves no load
            self._shift_load(old, -1)
            self._shift_load(new, +1)
        self.assigned[job] = new
        return new

    def delete_machine(self, x: Hashable) -> StepReport:
        if x not in self.loads:
            raise MachineMissing(f"machine {x!r} not live")
        return self._step(x)

    def update(self, ev) -> Step:
        """Delete one machine and close its op step. Recourse counts jobs: adds are
        resamples, dels jobs whose routine died, output_size jobs assigned."""
        if isinstance(ev, UpdateEvent):
            raise JobMachineError("the job/machine engine takes machine deletions only")
        rep = self.delete_machine(ev.machine)
        ops = self.counter.end_step()
        return Step(ops, rep.resamples, rep.resamples, len(rep.touched), self.assigned_count)

    def tick(self) -> StepReport:
        """Clock advance without a tracked machine death (the deleted object
        carried no routines); due resamples still run."""
        return self._step(None)

    def _step(self, x: Hashable | None) -> StepReport:
        if self.T >= self.horizon:
            raise InvariantBroken(f"step {self.T + 1} exceeds the declared horizon {self.horizon}")
        touched: list[Hashable] = []
        if x is not None:
            dead = list(self.by_machine.pop(x))  # by job, in input order
            if self.on is not None:  # in the embedder's order
                by_tag = {(r.job, r.tag): r for r in dead}
                dead = [by_tag[key] for key in self.on(x) if key in by_tag]
            load = self.loads.pop(x)
            bucket = self._load_buckets[load]
            bucket.discard(x)
            heap = self._heaps.get(load)
            if heap is not None and len(heap) > 2 * len(bucket) + 16:
                self._rebuild_heap(load)
            units = 1
            for r in dead:
                self.live_by_job[r.job].remove(r)
                for y in r.machines:
                    if y != x and y in self.loads:
                        del self.by_machine[y][r]
                        units += 1
                if self.assigned[r.job] is r:
                    self._shift_load(r, -1)
                    # the dead routine no longer loads surviving machines
                    self.assigned[r.job] = None
                    self.assigned_count -= 1
                    touched.append(r.job)
            self._charge(units)
        schedule_added = 0
        for job in touched:
            schedule_added += self._extend_schedule(job)
        self.T += 1
        drawn = 0
        for job in self.list_at.pop(self.T, ()):
            if self.resample(job) is not None:
                drawn += 1
        self._charge(drawn)
        return StepReport(tuple(touched), drawn, schedule_added)

    def _extend_schedule(self, job: Hashable) -> int:
        T, list_at = self.T, self.list_at
        self.touch_times[job].append(T)
        end = self.horizon if self.live_by_job[job] else T + 1
        added = 0
        step = 1
        while T + step <= end:
            at = T + step
            due = list_at.get(at)
            if due is None:
                due = list_at[at] = {}
            if job not in due:
                due[job] = None
                added += 1
            step *= 2
        self._charge(added)
        return added

    # -- relevance replay --

    def rel_times(self, t: int, r: Routine) -> list[int]:
        """Steps of resample events of job(r) before t that could still explain
        r being assigned at t: event at step s counts unless some schedule
        entry t' with s < t' < t already existed at step s, derived from the
        touches as the module docstring says."""
        if r not in self.live_by_job.get(r.job, ()):
            raise UnknownRoutine(f"routine {r} not live")
        if t > self.T:
            raise ValueError("t is in the future")
        touches = self.touch_times[r.job]
        times = []
        for s in self.resample_events[r.job]:
            if s >= t:
                break
            blocked = any(c + (1 << (s - c).bit_length()) < t for c in touches if c <= s)
            if not blocked:
                times.append(s)
        return times

    def check_feasible(self) -> None:
        """Asserts a feasible assignment, and load bookkeeping equal to a recount."""
        for job, live in self.live_by_job.items():
            if live:
                assert self.assigned[job] in live
            else:
                assert self.assigned[job] is None
        assert self.assigned_count == sum(1 for r in self.assigned.values() if r is not None)
        recount = dict.fromkeys(self.by_machine, 0)  # keyed by the live machines
        for r in self.assigned.values():
            for x in r.machines if r is not None else ():
                recount[x] = recount.get(x, 0) + 1
        assert self.loads == recount, "loads differ from a recount of the assigned routines"
        members = [(x, load) for load, bucket in self._load_buckets.items() for x in bucket]
        assert len(members) == len(self.loads)
        assert all(self.loads.get(x) == load for x, load in members)
        for load, heap in self._heaps.items():
            bucket = self._load_buckets[load]
            assert bucket <= set(heap) and len(heap) <= 2 * len(bucket) + 16
        top = max(self.loads.values(), default=None)
        rule = min((x for x, v in self.loads.items() if v == top), default=None)
        assert self.heaviest_machine() == rule


def assert_twins(eng, twin):
    """The two engines hold the same state, routine objects read as indices."""
    machines = eng.embedder.machines
    assert eng.T == twin.T
    assert {job: None if i is None else machines(job, i) for job, i in eng.assigned.items()} == {
        job: None if r is None else r.machines for job, r in twin.assigned.items()
    }
    assert {job: [machines(job, i) for i in iter_bits(live)] for job, live in eng.live.items()} == {
        job: [r.machines for r in rs] for job, rs in twin.live_by_job.items()
    }
    assert eng.assigned_count == twin.assigned_count
    assert eng.loads == twin.loads
    assert eng.heaviest_machine() == twin.heaviest_machine()
    assert {job: eng.resample_times(job) for job in eng.touch_times} == twin.resample_events
    assert eng.touch_times == twin.touch_times
    assert {at: list(due) for at, due in eng.list_at.items()} == {
        at: list(due) for at, due in twin.list_at.items()
    }


def assert_same_relevance(eng, twin, rng, count=6):
    """rel_times agrees on a sample of live routines, now and at half the clock."""
    live = live_routines(eng)
    for job, i in rng.sample(live, min(count, len(live))):
        rank = (eng.live[job] & ((1 << i) - 1)).bit_count()
        r = twin.live_by_job[job][rank]
        assert r.machines == eng.embedder.machines(job, i)
        for t in (twin.T, twin.T // 2):
            assert eng.rel_times(t, job, i) == twin.rel_times(t, r)


@pytest.mark.parametrize("seed", range(3))
def test_twin_agrees_on_jm_runs(seed):
    rng = random.Random(1700 + seed)
    inst = random_instance(rng, jobs=120, machines=500)
    objects = [Routine(job, ms) for job, ms in inst.routines]
    twin_inst = SimpleNamespace(jobs=inst.jobs, machines=inst.machine_ids, routines=objects)
    eng = ResamplingEngine(inst, seed, horizon=300)
    twin = TwinEngine(twin_inst, seed, horizon=300)
    assert eng.counter.total == twin.counter.total
    assert_twins(eng, twin)
    seen = Counter()
    for step in range(300):
        roll = rng.random()
        if roll < 0.1 or not eng.loads:
            reps = eng.tick(), twin.tick()
            seen["tick"] += 1
        else:
            x = eng.heaviest_machine() if roll < 0.7 else rng.choice(sorted(eng.loads))
            reps = eng.delete_machine(x), twin.delete_machine(x)
            seen["touched"] += bool(reps[0].touched)
        assert reps[0] == reps[1]  # touched in dead-routine order, due jobs, schedule growth
        assert eng.counter.total == twin.counter.total
        assert_twins(eng, twin)
        assert_same_relevance(eng, twin, rng)
        if step % 25 == 24:
            eng.check_feasible()
            twin.check_feasible()
    assert seen["tick"] and seen["touched"] > 50


class TwinnedPhase(PhaseState):
    """A phase whose engine has a slow twin, fed the same machines, jobs and
    deletions and compared after each, op counts included."""

    mirrored: Counter = Counter()  # checks made, over every instance
    touched = 0  # jobs the mirrored deletions touched, over every instance

    def __init__(self, graph, seed, phase_len=None, bucket_of=None, counter=None):
        horizon = phase_len if phase_len is not None else resample3.default_phase_len(graph.n)
        self.twin = TwinEngine(None, seed, horizon=horizon, on=self.on)
        self.sampler = random.Random(seed)
        super().__init__(graph, seed, phase_len, bucket_of, counter)

    def _mirror(self, act, mirror, kind):
        ops, twin_ops = self.counter.by_module["job_machine"], self.twin.counter.total
        out = act()
        rep = mirror()
        assert self.counter.by_module["job_machine"] - ops == self.twin.counter.total - twin_ops
        assert_twins(self.engine, self.twin)
        TwinnedPhase.mirrored[kind] += 1
        return out, rep

    def _init_edges(self, edges):
        edges = list(edges)
        self._mirror(
            lambda: PhaseState._init_edges(self, edges),
            lambda: [self.twin.add_machine(e) for e in edges],
            "machine",
        )

    def _init_pairs(self, pairs):
        core = self.core
        routines = {
            p: [Routine(p, self.machines(p, w), w) for w in iter_bits(core[p[0]] & core[p[1]])]
            for p in pairs
        }
        self._mirror(
            lambda: PhaseState._init_pairs(self, list(routines)),
            lambda: [self.twin.add_job(p, rs) for p, rs in routines.items()],
            "job",
        )

    def delete(self, u, v):
        e = edge_key(u, v)
        buffered = e in self.buffer
        step, rep = self._mirror(
            lambda: PhaseState.delete(self, u, v),
            lambda: self.twin.tick() if buffered else self.twin.delete_machine(e),
            "tick" if buffered else "delete",
        )
        assert step == rep.resamples  # touch times and lists: `assert_twins`
        TwinnedPhase.touched += len(rep.touched)
        assert_same_relevance(self.engine, self.twin, self.sampler)
        return step


def test_twin_agrees_on_a_phase_under_witness_hammer():
    TwinnedPhase.mirrored.clear()
    TwinnedPhase.touched = 0
    n, steps = 36, 200
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(91).sample(pairs, 220))
    ps = TwinnedPhase(g, seed=92, phase_len=steps)
    adv = WitnessHammer(seed=93, budget=steps, p_insert=0.25)
    view = AdversaryView(
        g, spanner_ranks=ps.spanner_ranks, heaviest_machine=ps.engine.heaviest_machine
    )
    for _ in range(steps):
        ps.apply(adv.next_event(view))
    ps.check_invariants()
    # the hammer never deletes a buffered edge, so no tick is mirrored here
    assert set(TwinnedPhase.mirrored) == {"machine", "job", "delete"}
    assert TwinnedPhase.mirrored["delete"] > 100 and TwinnedPhase.touched > 100


def test_twin_agrees_on_a_rotating_wrapped_runner(monkeypatch):
    TwinnedPhase.mirrored.clear()
    monkeypatch.setattr(resample3, "PhaseState", TwinnedPhase)
    rng = random.Random(29)
    n, L = 14, 12
    pairs = list(itertools.combinations(range(n), 2))
    runner = WrappedRunner(DynamicGraph(n, rng.sample(pairs, 40)), seed=37, rotation_len=L)
    for seq in range(1, 4 * L + 2):
        g = runner.graph  # the live instance's graph; rotations replace it
        if g.m and rng.random() < 0.6:
            ev = UpdateEvent(seq, DELETE, rng.choice(sorted(g.edges())))
        else:
            ev = UpdateEvent(seq, INSERT, rng.choice([p for p in pairs if not g.has_edge(*p)]))
        runner.update(ev)
    runner.check_invariants()
    assert runner.window == 5  # four rotations, each successor built and replayed under the twin
    assert set(TwinnedPhase.mirrored) == {"machine", "job", "delete", "tick"}
