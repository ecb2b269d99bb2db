"""Proactive-resampling engine: jobs handled by routines over machines.

A routine handles one job by occupying a set of machines; deleting a
machine kills every routine through it.  Jobs whose assigned routine died
are repaired immediately and re-randomized again at exponentially spaced
future steps, which is what keeps an adaptive adversary from pinning load
onto any machine.  Routines of one job must be machine-disjoint.

A routine is an index into its job's routines: a job's live routines are
one int bitmask, and its assignment is an index or None.  An embedder
answers what needs machines: `machines(job, i)`, read by every load shift,
and `on(x)`, the (job, i) routines through machine x, read by a deletion
and `target`, which skip the dead ones and those of jobs not yet added.
`HyperInstance` embeds as a table; resample3's `PhaseState` reads its
witness routines off its core rows.

Index order fixes the draws, and so every output: a draw takes the live
bit of rank randrange(popcount).  `HyperInstance` sorts a job's routines
by repr(machines) and each `on(x)` by repr(job), the order of the routine
objects this engine once kept; routine w of a phase's pair is its witness
w, so a phase draws in ascending-w order.  Due jobs run in repr(job)
order.  A resample that redraws the assigned routine moves no load.

Step order per machine deletion: extend schedules of touched jobs with
{T + 2^k : k >= 0, T + 2^k <= horizon}, advance the clock, then resample
every job due now (the T+1 entry delivers the immediate repair).  A job
costs Σ|machines| to add, a deletion 1 plus the other machines of each
routine it kills, and a draw one unit, charged by the caller of
`resample`: `add_job`, or `_step` once for all the draws of its step.

Besides the schedule `list_at`, the engine keeps per job the steps of its
resample events and of its touches (deaths of its assigned routine); only
the relevance replay `rel_times` reads them.  A touch at c scheduled the
job at c + 2^k, so its first entry after a step s >= c is
c + 2^bit_length(s - c), and an event at s is blocked at t iff some touch
c <= s has that entry before t.  An entry that the dedup in `list_at`
skipped belongs to an earlier touch, which blocks the same events.

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
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable

from dynspan.graph import UpdateEvent, nth_bit
from dynspan.instrumentation import InvariantBroken, OpCounter, RoleSet, Step


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


class HyperInstance:
    """Static job/machine/routine universe, validated, and the engine's table
    embedder.  `routines` are (job, machines) pairs, kept in input order."""

    def __init__(
        self,
        jobs: Iterable[Hashable],
        machines: Iterable[Hashable],
        routines: Iterable[tuple[Hashable, tuple[Hashable, ...]]],
    ) -> None:
        self.jobs = list(jobs)
        self.machine_ids = list(machines)
        self.routines = [(job, tuple(ms)) for job, ms in routines]
        machine_set = set(self.machine_ids)
        table: dict[Hashable, list[tuple[Hashable, ...]]] = {job: [] for job in self.jobs}
        for job, ms in self.routines:
            if job not in table:
                raise UnknownJob(f"routine references unknown job {job!r}")
            if not ms:
                raise JobMachineError("routine with empty machine set")
            for x in ms:
                if x not in machine_set:
                    raise MachineMissing(f"routine references unknown machine {x!r}")
            table[job].append(ms)
        on: dict[Hashable, list[tuple[Hashable, int]]] = {}
        for job in sorted(table, key=repr):  # so each on(x) list is in repr(job) order
            rows = table[job]
            rows.sort(key=repr)
            for i, ms in enumerate(rows):
                for x in ms:
                    entries = on.setdefault(x, [])
                    if entries and entries[-1][0] == job:  # a job's entries are adjacent
                        raise DisjointnessViolated(f"job {job!r}: two routines share machine {x!r}")
                    entries.append((job, i))
        self.table = table  # job -> its routines' machines, in index order
        self._on = on

    def machines(self, job: Hashable, i: int) -> tuple[Hashable, ...]:
        return self.table[job][i]

    def on(self, x: Hashable) -> Iterable[tuple[Hashable, int]]:
        return self._on.get(x, ())

    def to_text(self) -> str:
        lines = [f"J {len(self.jobs)}", f"M {len(self.machine_ids)}"]
        for job, ms in self.routines:
            lines.append("R " + str(job) + " " + " ".join(str(x) for x in ms))
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
                    routines.append((job, tuple(int(x) for x in parts[2:])))
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

    @property
    def resamples(self) -> int:
        return len(self.resampled)


class ResamplingEngine:
    """Maintains a feasible assignment under machine deletions."""

    def __init__(
        self,
        embedder,
        seed: int,
        horizon: int,
        counter: OpCounter | None = None,
        roles: RoleSet | None = None,
    ) -> None:
        """A `HyperInstance` embedder brings its machines and jobs; another
        adds its own.  None is an empty instance.  `roles`, if given, holds
        one role for each machine whose load is above 0."""
        self.embedder = embedder if embedder is not None else HyperInstance((), (), ())
        self._machines = self.embedder.machines  # read on every load shift
        self.roles = roles
        self.rng = random.Random(seed)
        self.horizon = horizon
        self.counter = counter or OpCounter()
        self.T = 0
        self.live: dict[Hashable, int] = {}  # job -> bitmask of its live routines
        self._job_repr: dict[Hashable, str] = {}  # due jobs run in repr order
        self.assigned: dict[Hashable, int | None] = {}
        self.assigned_count = 0  # jobs whose assigned routine is not None
        self.loads: dict[Hashable, int] = {}  # keyed by the live machines
        self._load_buckets: dict[int, set[Hashable]] = {}
        self._max_load = 0  # no live machine is heavier; lowered lazily
        self._heaps: dict[int, list[Hashable]] = {}  # load -> min-heap over its bucket
        self.list_at: dict[int, set[Hashable]] = {}  # step -> jobs due then
        # replayable history: the steps of each job's resample events and touches
        self.resample_events: dict[Hashable, list[int]] = {}
        self.touch_times: dict[Hashable, list[int]] = {}
        if isinstance(embedder, HyperInstance):
            for x in embedder.machine_ids:
                self.add_machine(x)
            for job, rows in embedder.table.items():
                self.add_job(job, (1 << len(rows)) - 1, sum(map(len, rows)))

    # -- incremental construction (clock must not have started) --

    def add_machine(self, x: Hashable) -> None:
        if x in self.loads:
            raise JobMachineError(f"machine {x!r} already present")
        self.loads[x] = 0
        self._load_buckets.setdefault(0, set()).add(x)
        heap = self._heaps.get(0)
        if heap is not None:
            heappush(heap, x)
        self._charge(1)

    def add_job(self, job: Hashable, live: int, slots: int) -> None:
        """Register `job` with the routines whose indices are the bits of
        `live`, `slots` being their Σ|machines|, and draw its assignment."""
        if job in self.live:
            raise JobMachineError(f"job {job!r} already present")
        self.live[job] = live
        self._job_repr[job] = repr(job)
        self.assigned[job] = None
        self.resample_events[job] = []
        self.touch_times[job] = []
        if self.resample(job) is not None:
            slots += 1
        self._charge(slots)

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

    def _shift_load(self, machines: tuple[Hashable, ...], delta: int) -> None:
        """Move every live machine of a routine by `delta` load units."""
        loads = self.loads
        buckets = self._load_buckets
        heaps = self._heaps
        roles = self.roles
        for x in machines:
            old = loads.get(x)
            if old is None:
                continue  # the deleted machine of a dying routine
            new = old + delta
            loads[x] = new
            if not (old and new) and roles is not None:
                if new:
                    roles.add(x)
                else:
                    roles.remove(x)
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
            if delta > 0 and new > self._max_load:
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
        live = self.live
        for job, i in self.embedder.on(x):
            if live.get(job, 0) >> i & 1:
                total += Fraction(1, live[job].bit_count())
        return total

    # -- the dynamic process --

    def resample(self, job: Hashable) -> int | None:
        """Reassign `job` uniformly over its live routines; logs the event.
        A draw that returns a routine costs one unit, which the caller charges."""
        live = self.live.get(job)
        if live is None:
            raise UnknownJob(f"job {job!r} unknown")
        self.resample_events[job].append(self.T)
        old = self.assigned[job]
        if not live:
            if old is not None:
                self.assigned_count -= 1
            self.assigned[job] = None
            return None
        new = nth_bit(live, self.rng.randrange(live.bit_count()))
        machines = self._machines
        if old is None:
            self.assigned_count += 1
            self._shift_load(machines(job, new), +1)
        elif old != new:  # redrawing the assigned routine moves no load
            self._shift_load(machines(job, old), -1)
            self._shift_load(machines(job, new), +1)
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
            load = self.loads.pop(x)
            if load and self.roles is not None:
                self.roles.remove(x)
            bucket = self._load_buckets[load]
            bucket.discard(x)
            heap = self._heaps.get(load)
            if heap is not None and len(heap) > 2 * len(bucket) + 16:
                self._rebuild_heap(load)
            live, assigned, machines = self.live, self.assigned, self._machines
            units = 1
            for job, i in self.embedder.on(x):
                if not live.get(job, 0) >> i & 1:
                    continue  # died with an earlier machine, or its job is not added yet
                live[job] ^= 1 << i
                ms = machines(job, i)
                units += len(ms) - 1  # a live routine's other machines are live
                if assigned[job] == i:
                    # the dead routine no longer loads surviving machines
                    self._shift_load(ms, -1)
                    assigned[job] = None
                    self.assigned_count -= 1
                    touched.append(job)
            self._charge(units)
        schedule_added = 0
        for job in touched:
            schedule_added += self._extend_schedule(job)
        self.T += 1
        due = sorted(self.list_at.pop(self.T, ()), key=self._job_repr.__getitem__)
        drawn = 0
        for job in due:
            if self.resample(job) is not None:
                drawn += 1
        self._charge(drawn)
        return StepReport(tuple(touched), tuple(due), schedule_added)

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

    def rel_times(self, t: int, job: Hashable, i: int) -> list[int]:
        """Steps of resample events of `job` before t that could still explain
        its live routine i being assigned at t: event at step s counts unless
        some schedule entry t' with s < t' < t already existed at step s,
        derived from the touches as the module docstring says."""
        if not self.live.get(job, 0) >> i & 1:
            raise UnknownRoutine(f"routine {i} of job {job!r} not live")
        if t > self.T:
            raise ValueError("t is in the future")
        touches = self.touch_times[job]
        times = []
        for s in self.resample_events[job]:
            if s >= t:
                break
            blocked = any(c + (1 << (s - c).bit_length()) < t for c in touches if c <= s)
            if not blocked:
                times.append(s)
        return times

    def rel_count(self, t: int, job: Hashable, i: int) -> int:
        return len(self.rel_times(t, job, i))

    def check_feasible(self) -> None:
        """Asserts a feasible assignment, and load bookkeeping equal to a recount."""
        for job, live in self.live.items():
            i = self.assigned[job]
            assert (i is not None and live >> i & 1) if live else i is None
        assert self.assigned_count == sum(i is not None for i in self.assigned.values())
        recount = dict.fromkeys(self.loads, 0)
        for job, i in self.assigned.items():
            for x in self.embedder.machines(job, i) if i is not None else ():
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
            routines.append((job, tuple(sorted(chunk))))
    return HyperInstance(range(jobs), range(machines), routines)
