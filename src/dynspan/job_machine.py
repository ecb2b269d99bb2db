"""Proactive-resampling engine: jobs handled by routines over machines.

A routine handles one job by occupying a set of machines; deleting a
machine kills every routine through it.  Jobs whose assigned routine died
are repaired immediately and re-randomized again at exponentially spaced
future steps, which is what keeps an adaptive adversary from pinning load
onto any machine.  Routines of one job must be machine-disjoint.

Step order per machine deletion: extend schedules of touched jobs with
{T + 2^k : k >= 0, T + 2^k <= horizon}, advance the clock, then resample
every job due now (the T+1 entry delivers the immediate repair).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable

from dynspan.graph import UpdateEvent
from dynspan.instrumentation import InvariantBroken, OpCounter, Step


class JobMachineError(Exception):
    pass


class UnknownJob(JobMachineError):
    pass


class UnknownRoutine(JobMachineError):
    pass


class MachineMissing(JobMachineError):
    pass


class DisjointnessViolated(JobMachineError):
    pass


@dataclass(frozen=True)
class Routine:
    job: Hashable
    machines: tuple[Hashable, ...]
    tag: Hashable = None  # opaque payload for embedders (e.g. a witness vertex)

    def sort_key(self):
        return (repr(self.job), repr(self.machines))


class HyperInstance:
    """Static job/machine/routine universe; validates the disjointness rule."""

    def __init__(
        self,
        jobs: Iterable[Hashable],
        machines: Iterable[Hashable],
        routines: Iterable[Routine],
    ) -> None:
        self.jobs = list(jobs)
        self.machines = list(machines)
        self.routines = list(routines)
        job_set = set(self.jobs)
        machine_set = set(self.machines)
        used: dict[Hashable, set[Hashable]] = {}
        for r in self.routines:
            if r.job not in job_set:
                raise UnknownJob(f"routine references unknown job {r.job!r}")
            if not r.machines:
                raise JobMachineError("routine with empty machine set")
            for x in r.machines:
                if x not in machine_set:
                    raise MachineMissing(f"routine references unknown machine {x!r}")
            seen = used.setdefault(r.job, set())
            for x in r.machines:
                if x in seen:
                    raise DisjointnessViolated(
                        f"job {r.job!r} has two routines sharing machine {x!r}"
                    )
                seen.add(x)

    def to_text(self) -> str:
        lines = [f"J {len(self.jobs)}", f"M {len(self.machines)}"]
        for r in self.routines:
            lines.append("R " + str(r.job) + " " + " ".join(str(x) for x in r.machines))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HyperInstance":
        jobs = machines = None
        routines = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "J":
                    jobs = int(parts[1])
                elif parts[0] == "M":
                    machines = int(parts[1])
                elif parts[0] == "R":
                    job = int(parts[1])
                    ms = tuple(int(x) for x in parts[2:])
                    routines.append(Routine(job, ms))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise JobMachineError(f"line {lineno}: {exc}") from exc
        if jobs is None or machines is None:
            raise JobMachineError("missing J or M header")
        return cls(range(jobs), range(machines), routines)


@dataclass(frozen=True)
class StepReport:
    touched: tuple[Hashable, ...]
    resampled: tuple[Hashable, ...]
    schedule_added: int
    changes: tuple[tuple[Hashable, Routine | None, Routine | None], ...] = ()

    @property
    def resamples(self) -> int:
        return len(self.resampled)


@dataclass
class _ScheduleEntry:
    at: int
    created: int


class ResamplingEngine:
    """Maintains a feasible assignment under machine deletions."""

    def __init__(
        self,
        instance: HyperInstance | None,
        seed: int,
        horizon: int,
        counter: OpCounter | None = None,
    ) -> None:
        self.rng = random.Random(seed)
        self.horizon = horizon
        self.counter = counter or OpCounter()
        self.T = 0
        self.by_machine: dict[Hashable, set[Routine]] = {}
        self.live_by_job: dict[Hashable, list[Routine]] = {}
        self.assigned: dict[Hashable, Routine | None] = {}
        self.assigned_count = 0  # jobs whose assigned routine is not None
        self.loads: dict[Hashable, int] = {}  # keyed by the live machines
        self._load_buckets: dict[int, set[Hashable]] = {}
        self._max_load = 0
        self.list_at: dict[int, set[Hashable]] = {}  # step -> jobs due then
        # replayable history: resample events and schedule-entry creations
        self.resample_events: dict[Hashable, list[int]] = {}
        self.schedule_log: dict[Hashable, list[_ScheduleEntry]] = {}
        self.resample_calls = 0
        self.recourse_total = 0
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
        self.by_machine[x] = set()
        self._set_load(x, 0)
        self._charge(1)

    def add_job(self, job: Hashable, routines: Iterable[Routine]) -> None:
        """Register a job with its routines and give it its initial assignment."""
        if job in self.live_by_job:
            raise JobMachineError(f"job {job!r} already present")
        rs = sorted(routines, key=Routine.sort_key)
        seen: set[Hashable] = set()
        for r in rs:
            if r.job != job:
                raise UnknownJob(f"routine {r} does not belong to job {job!r}")
            for x in r.machines:
                if x not in self.loads:
                    raise MachineMissing(f"routine machine {x!r} unknown")
                if x in seen:
                    raise DisjointnessViolated(f"job {job!r} routines share machine {x!r}")
                seen.add(x)
        self.live_by_job[job] = rs
        self.assigned[job] = None
        self.resample_events[job] = []
        self.schedule_log[job] = []
        for r in rs:
            for x in r.machines:
                self.by_machine[x].add(r)
                self._charge(1)
        self.resample(job)

    # -- load bookkeeping --

    def _charge(self, k: int) -> None:
        self.counter.charge(k, "job_machine")

    def _set_load(self, x: Hashable, value: int) -> None:
        old = self.loads.get(x)
        if old is not None:
            bucket = self._load_buckets[old]
            bucket.discard(x)
        self.loads[x] = value
        self._load_buckets.setdefault(value, set()).add(x)
        if value > self._max_load:
            self._max_load = value

    def _shift_load(self, r: Routine, delta: int) -> None:
        for x in r.machines:
            if x in self.loads:
                self._set_load(x, self.loads[x] + delta)

    def heaviest_machine(self) -> Hashable | None:
        """Max-load live machine, ties by smallest machine; None if no machines."""
        while self._max_load > 0 and not self._load_buckets.get(self._max_load):
            self._max_load -= 1
        if not self.loads:
            return None
        bucket = self._load_buckets.get(self._max_load, ())
        return min(bucket) if bucket else min(self.loads)

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
        """Reassign `job` uniformly over its live routines; logs the event."""
        if job not in self.live_by_job:
            raise UnknownJob(f"job {job!r} unknown")
        self.resample_calls += 1
        self.resample_events[job].append(self.T)
        live = self.live_by_job[job]
        old = self.assigned[job]
        if not live:
            if old is not None:
                self.assigned_count -= 1
            self.assigned[job] = None
            return None
        new = live[self.rng.randrange(len(live))]
        if old is not None:
            self._shift_load(old, -1)
        else:
            self.assigned_count += 1
        self._shift_load(new, +1)
        self.assigned[job] = new
        self.recourse_total += 1
        self._charge(1)
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
        changes: list[tuple[Hashable, Routine | None, Routine | None]] = []
        if x is not None:
            dead = sorted(self.by_machine.pop(x), key=Routine.sort_key)
            bucket = self._load_buckets[self.loads[x]]
            bucket.discard(x)
            del self.loads[x]
            self._charge(1)
            for r in dead:
                self.live_by_job[r.job].remove(r)
                for y in r.machines:
                    if y != x and y in self.loads:
                        self.by_machine[y].discard(r)
                        self._charge(1)
                if self.assigned[r.job] is r:
                    self._shift_load(r, -1)
                    # the dead routine no longer loads surviving machines
                    self.assigned[r.job] = None
                    self.assigned_count -= 1
                    touched.append(r.job)
                    changes.append((r.job, r, None))
        schedule_added = 0
        for job in touched:
            schedule_added += self._extend_schedule(job)
        self.T += 1
        due = sorted(self.list_at.pop(self.T, ()), key=repr)
        resampled: list[Hashable] = []
        for job in due:
            old = self.assigned[job]
            new = self.resample(job)
            resampled.append(job)
            if old is not new:
                changes.append((job, old, new))
        return StepReport(tuple(touched), tuple(resampled), schedule_added, tuple(changes))

    def _extend_schedule(self, job: Hashable) -> int:
        added = 0
        step = 1
        while self.T + step <= self.horizon:
            at = self.T + step
            if job not in self.list_at.get(at, ()):
                self.list_at.setdefault(at, set()).add(job)
                self.schedule_log[job].append(_ScheduleEntry(at, self.T))
                added += 1
                self._charge(1)
            step *= 2
        return added

    # -- relevance replay --

    def rel_times(self, t: int, r: Routine) -> list[int]:
        """Steps of resample events of job(r) before t that could still explain
        r being assigned at t: event at step s counts unless some schedule
        entry t' with s < t' < t already existed at step s."""
        if r not in self.live_by_job.get(r.job, ()):
            raise UnknownRoutine(f"routine {r} not live")
        if t > self.T:
            raise ValueError("t is in the future")
        entries = self.schedule_log[r.job]
        times = []
        for s in self.resample_events[r.job]:
            if s >= t:
                break
            blocked = any(e.created <= s < e.at < t for e in entries)
            if not blocked:
                times.append(s)
        return times

    def rel_count(self, t: int, r: Routine) -> int:
        return len(self.rel_times(t, r))

    def check_feasible(self) -> None:
        for job, live in self.live_by_job.items():
            if live:
                assert self.assigned[job] in live
            else:
                assert self.assigned[job] is None
        assert self.assigned_count == sum(1 for r in self.assigned.values() if r is not None)


def random_instance(
    rng: random.Random,
    jobs: int,
    machines: int,
    max_routines_per_job: int = 6,
    max_machines_per_routine: int = 3,
) -> HyperInstance:
    """Seeded fuzz instance; routines of one job use disjoint machine sets."""
    routines = []
    for job in range(jobs):
        budget = rng.randrange(1, max_routines_per_job + 1)
        pool = rng.sample(range(machines), min(machines, budget * max_machines_per_routine))
        i = 0
        for _ in range(budget):
            width = rng.randrange(1, max_machines_per_routine + 1)
            chunk = pool[i : i + width]
            i += width
            if not chunk:
                break
            routines.append(Routine(job, tuple(sorted(chunk))))
    return HyperInstance(range(jobs), range(machines), routines)
