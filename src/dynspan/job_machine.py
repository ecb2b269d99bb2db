"""Proactive-resampling engine: jobs handled by routines over machines.

A routine handles one job by occupying a set of machines; deleting a
machine kills every routine through it.  Jobs whose assigned routine died
are repaired immediately and re-randomized again at exponentially spaced
future steps, which is what keeps an adaptive adversary from pinning load
onto any machine.  Routines of one job must be machine-disjoint.

Step order per machine deletion: extend schedules of touched jobs with
{T + 2^k : k >= 0, T + 2^k <= horizon}, advance the clock, then resample
every job due now (the T+1 entry delivers the immediate repair).  A draw
costs one unit, charged by the caller of `resample`: `add_job`, or `_step`
once for all the draws of its step.

Besides the schedule `list_at`, the engine keeps per job the steps of its
resample events and of its touches (deaths of its assigned routine); only
the relevance replay `rel_times` reads them.  A touch at c scheduled the
job at c + 2^k, so its first entry after a step s >= c is
c + 2^bit_length(s - c), and an event at s is blocked at t iff some touch
c <= s has that entry before t.  An entry that the dedup in `list_at`
skipped belongs to an earlier touch, which blocks the same events.

Routines compare and hash by identity.  The canonical order, which fixes
the random draws and so every output, is repr order: a job's live routines
and a deletion's dead routines by (repr(job), repr(machines)), built once
per routine when `add_job` takes it, and due jobs by repr(job), built once
per job.  A resample that redraws the assigned routine moves no load.

The max-load adversary attacks the heaviest machine: the live machine of
largest load, ties going to the smallest machine.  Loads are kept in
buckets (load -> machines) under a lazily lowered max load.  A load gets a
min-heap of its machines the first time `heaviest_machine` reads it; from
then on a machine entering that load is pushed, and one that left is popped
only when it reaches the top.  A heap that grows past 2·|bucket| + 16 is
rebuilt from its bucket, so stale entries never outnumber live ones by much.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
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


@dataclass(slots=True, eq=False)
class Routine:
    """One way to handle `job`, by occupying `machines`.  Compares and hashes
    by identity."""

    job: Hashable
    machines: tuple[Hashable, ...]
    tag: Hashable = None  # opaque payload for embedders (e.g. a witness vertex)
    _key: tuple[str, str] | None = field(default=None, init=False, repr=False)

    def sort_key(self) -> tuple[str, str]:
        """The canonical order key (repr(job), repr(machines)), built once."""
        key = self._key
        if key is None:
            key = self._key = (repr(self.job), repr(self.machines))
        return key


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
        self.live_by_job: dict[Hashable, list[Routine]] = {}  # in canonical order
        self._job_repr: dict[Hashable, str] = {}  # due jobs run in repr order
        self.assigned: dict[Hashable, Routine | None] = {}
        self.assigned_count = 0  # jobs whose assigned routine is not None
        self.loads: dict[Hashable, int] = {}  # keyed by the live machines
        self._load_buckets: dict[int, set[Hashable]] = {}
        self._max_load = 0  # no live machine is heavier; lowered lazily
        self._heaps: dict[int, list[Hashable]] = {}  # load -> min-heap over its bucket
        self.list_at: dict[int, set[Hashable]] = {}  # step -> jobs due then
        # replayable history: the steps of each job's resample events and touches
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
        self.by_machine[x] = set()
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
        job_repr = repr(job)
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
            if r._key is None:
                r._key = (job_repr, repr(machines))
        rs.sort(key=Routine.sort_key)  # one repr(job) for all: by repr(machines)
        self.live_by_job[job] = rs
        self._job_repr[job] = job_repr
        self.assigned[job] = None
        self.resample_events[job] = []
        self.touch_times[job] = []
        by_machine = self.by_machine
        for r in rs:
            for x in r.machines:
                by_machine[x].add(r)
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
        """Reassign `job` uniformly over its live routines; logs the event.
        A draw that returns a routine costs one unit, which the caller charges."""
        if job not in self.live_by_job:
            raise UnknownJob(f"job {job!r} unknown")
        self.resample_events[job].append(self.T)
        live = self.live_by_job[job]
        old = self.assigned[job]
        if not live:
            if old is not None:
                self.assigned_count -= 1
            self.assigned[job] = None
            return None
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
        changes: list[tuple[Hashable, Routine | None, Routine | None]] = []
        if x is not None:
            dead = sorted(self.by_machine.pop(x), key=Routine.sort_key)
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
                        self.by_machine[y].discard(r)
                        units += 1
                if self.assigned[r.job] is r:
                    self._shift_load(r, -1)
                    # the dead routine no longer loads surviving machines
                    self.assigned[r.job] = None
                    self.assigned_count -= 1
                    touched.append(r.job)
                    changes.append((r.job, r, None))
            self._charge(units)
        schedule_added = 0
        for job in touched:
            schedule_added += self._extend_schedule(job)
        self.T += 1
        due = sorted(self.list_at.pop(self.T, ()), key=self._job_repr.__getitem__)
        resampled: list[Hashable] = []
        drawn = 0
        for job in due:
            old = self.assigned[job]
            new = self.resample(job)
            resampled.append(job)
            if new is not None:
                drawn += 1
            if old is not new:
                changes.append((job, old, new))
        self._charge(drawn)
        return StepReport(tuple(touched), tuple(resampled), schedule_added, tuple(changes))

    def _extend_schedule(self, job: Hashable) -> int:
        T, list_at = self.T, self.list_at
        self.touch_times[job].append(T)
        added = 0
        step = 1
        while T + step <= self.horizon:
            at = T + step
            due = list_at.get(at)
            if due is None:
                due = list_at[at] = set()
            if job not in due:
                due.add(job)
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

    def rel_count(self, t: int, r: Routine) -> int:
        return len(self.rel_times(t, r))

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


MAX_ROUTINES_PER_JOB = 6
MAX_MACHINES_PER_ROUTINE = 3


def random_instance(rng: random.Random, jobs: int, machines: int) -> HyperInstance:
    """Seeded fuzz instance; routines of one job use disjoint machine sets."""
    routines = []
    for job in range(jobs):
        budget = rng.randrange(1, MAX_ROUTINES_PER_JOB + 1)
        pool = rng.sample(range(machines), min(machines, budget * MAX_MACHINES_PER_ROUTINE))
        i = 0
        for _ in range(budget):
            width = rng.randrange(1, MAX_MACHINES_PER_ROUTINE + 1)
            chunk = pool[i : i + width]
            i += width
            if not chunk:
                break
            routines.append(Routine(job, tuple(sorted(chunk))))
    return HyperInstance(range(jobs), range(machines), routines)
