"""Proactive-resampling engine: jobs handled by routines over machines.

A routine handles one job by occupying a set of machines; deleting a
machine kills every routine through it.  Jobs whose assigned routine died
are repaired immediately and re-randomized again at exponentially spaced
future steps, which is what keeps an adaptive adversary from pinning load
onto any machine.  Routines of one job must be machine-disjoint.

A routine is an index into its job's routines: a job's live routines are
one int bitmask, and its assignment is an index or None.  An embedder
answers what needs machines: `machines(job, i)`, read by every load move,
and `on(x)`, the (job, i) routines through machine x, read by a deletion
and `target`, which skip the dead ones and those of jobs not yet added.
`HyperInstance` embeds as a table; resample3's `PhaseState` reads its
witness routines off its core rows.

Input order fixes the draws, and so every output.  The engine's rank
rule: a draw over c live routines redraws getrandbits(c.bit_length())
until the value r is below c, and takes the live bit of rank r, counting
from the lowest.  It is `graph.rank_below`, the one draw rule of the
program, written inline so that a draw costs no call; so the stream
depends on `getrandbits` alone, and on no private function of `random`.
Under CPython 3.11 it draws what randrange(c) drew.  `HyperInstance`
keeps a job's routines in input order, which is their index order, and
each `on(x)` in (job input order, index) order; routine w of a phase's
pair is its witness w, so a phase draws in ascending-w order.  `list_at`
maps a step to a dict used as an ordered set, so a step's due jobs draw
in the order they were scheduled.  A resample that redraws the assigned
routine moves no load.

Step order per machine deletion: extend schedules of touched jobs with
{T + 2^k : k >= 0, T + 2^k <= horizon}, advance the clock, then resample
every job due now (the T+1 entry delivers the immediate repair) in one
loop, `_draw`.  The deletion only records the death of a job's assigned
routine; the repair draw unloads the dying routine from its surviving
machines, and unassigns the job if no live routine is left.  A touched
job with no live routine left gets that T+1 entry alone.  A due job with
no live routine draws nothing, and only draws count as resamples: in
`StepReport.resamples`, so in the CSV `resamples` column too.  A machine
costs one unit to add, a job Σ|machines|, a deletion 1 plus the other
machines of each routine it kills, a schedule entry one unit, and a draw
that returns a routine one unit, charged by the caller of `_draw`.
`add_jobs` charges its batch's slots and draws at once, as `_step` does
the draws of its step.

Besides the schedule `list_at`, the engine keeps per job only the steps
of its touches (deaths of its assigned routine).  Its resample events,
its draws, which only the relevance replay `rel_times` reads, follow from
them (`resample_times`): the build draw at 0, as jobs join before the
clock starts, and each entry c + 2^k <= T of a touch at c.  A job whose
last routine died draws nothing after that touch, so its events stop
there; a job with no live routine at its build has none.  A touch at c
of a job still live scheduled it at every c + 2^k, so its first entry
after a step s >= c is c + 2^bit_length(s - c), and an event at s is
blocked at t iff some touch c <= s has that entry before t.  An entry
that the dedup in `list_at` skipped belongs to an earlier touch, which
blocks the same events.

The max-load adversary attacks the heaviest machine: the live machine of
largest load, ties going to the smallest machine.  The load index keeps,
per load, the count of live machines there, under a max load that a move
upward raises and `heaviest_machine` lowers lazily past empty loads.  A
load gets a min-heap of its machines the first time `heaviest_machine`
reads it, from one scan of `loads`; from then on a machine entering that
load is pushed, and an entry whose machine left (or was deleted) is popped
only when it reaches the top and `loads` disagrees.  A heap that grows
past 2·count + 16 is compacted to its live, distinct entries, so stale
entries never outnumber live ones by much.  So a move costs two count
updates and, at a load whose heap was read, one push.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, NamedTuple, Sequence

from dynspan.graph import UpdateEvent, rank_below, sample_below
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
            if not machine_set.issuperset(ms):
                x = next(x for x in ms if x not in machine_set)
                raise MachineMissing(f"routine references unknown machine {x!r}")
            table[job].append(ms)
        on: dict[Hashable, list[tuple[Hashable, int]]] = {}
        for job, rows in table.items():  # so each on(x) list is in (job, index) order
            for i, ms in enumerate(rows):
                for x in ms:
                    entries = on.setdefault(x, [])
                    if entries and entries[-1][0] == job:  # a job's entries are adjacent
                        if entries[-1][1] == i:
                            msg = f"routine of job {job!r} names machine {x!r} twice"
                        else:
                            msg = f"job {job!r}: two routines share machine {x!r}"
                        raise DisjointnessViolated(msg)
                    entries.append((job, i))
        self.table = table  # job -> its routines' machines, in input order
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


def _fresh(kind: str, keys: Sequence[Hashable], present: dict) -> dict[Hashable, int]:
    """`keys`, in order, as the keys of a dict of zeros; raises for the first
    key already in `present` or earlier in `keys`."""
    fresh = dict.fromkeys(keys, 0)
    if len(fresh) < len(keys) or not present.keys().isdisjoint(fresh):
        seen = set(present)
        for key in keys:
            if key in seen:
                raise JobMachineError(f"{kind} {key!r} already present")
            seen.add(key)
    return fresh


class StepReport(NamedTuple):
    touched: tuple[Hashable, ...]
    resamples: int  # the draws made
    schedule_added: int


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
        self.assigned: dict[Hashable, int | None] = {}
        self.assigned_count = 0  # jobs whose assigned routine is not None
        self.loads: dict[Hashable, int] = {}  # keyed by the live machines
        self._at: list[int] = [0]  # load -> how many live machines have it
        self._max_load = 0  # no live machine is heavier; lowered lazily
        # load -> min-heap holding every live machine of that load, or None until read
        self._heaps: list[list[Hashable] | None] = [None]
        self.list_at: dict[int, dict[Hashable, None]] = {}  # step -> jobs due then, in order
        # replayable history: the steps of each job's touches
        self.touch_times: dict[Hashable, list[int]] = {}
        if isinstance(embedder, HyperInstance):
            self.add_machines(embedder.machine_ids)
            table = embedder.table
            self.add_jobs([(job, (1 << len(rs)) - 1, sum(map(len, rs))) for job, rs in table.items()])

    # -- construction in batches, each checked whole before any side effect --

    def add_machines(self, xs: Sequence[Hashable]) -> None:
        """Register the machines `xs`, in order, each at load 0."""
        self.loads.update(_fresh("machine", xs, self.loads))
        self._at[0] += len(xs)
        heap = self._heaps[0]
        if heap is not None:
            for x in xs:
                heappush(heap, x)
        self._charge(len(xs))

    def add_jobs(self, jobs: Sequence[tuple[Hashable, int, int]]) -> None:
        """Register each (job, live, slots) of `jobs`: the job with the
        routines whose indices are the bits of `live`, `slots` being their
        Σ|machines|.  Then one `_draw` gives every job its assignment, in
        batch order.  Only before the clock starts: a job's build draw is at
        step 0."""
        if self.T:
            raise JobMachineError(f"jobs added at step {self.T}: the clock has started")
        names = [job for job, _, _ in jobs]
        _fresh("job", names, self.live)
        live, assigned, touch_times = self.live, self.assigned, self.touch_times
        slots = 0
        for job, mask, k in jobs:
            live[job] = mask
            assigned[job] = None
            touch_times[job] = []
            slots += k
        self._charge(slots + self._draw(names))

    # -- load bookkeeping --

    def _charge(self, k: int) -> None:
        if k:  # a batch of nothing leaves `by_module` as it was
            self.counter.charge(k, "job_machine")

    def _scan_heap(self, load: int) -> list[Hashable]:
        """Heap of the machines at `load`, from one scan of `loads`: run when
        `heaviest_machine` first reads the load, so once per load level."""
        heap = self._heaps[load] = [x for x, v in self.loads.items() if v == load]
        heapify(heap)
        return heap

    def _compact_heap(self, load: int) -> None:
        """Cut the load's heap down to its live, distinct entries.  Run when a
        machine leaves a load whose heap then exceeds 2·count + 16; a push
        never crosses that bound, as the count grows with it."""
        loads = self.loads
        heap = self._heaps[load]
        heap[:] = dict.fromkeys([x for x in heap if loads.get(x) == load])
        heapify(heap)

    def heaviest_machine(self) -> Hashable | None:
        """Max-load live machine, ties to the smallest machine; None if no machines."""
        loads = self.loads
        if not loads:
            return None
        at = self._at
        load = self._max_load
        while not at[load]:  # stops at a live machine's load
            load -= 1
            if load < 0:
                raise InvariantBroken(f"no live machine has a load from 0 to {self._max_load}")
        self._max_load = load
        heap = self._heaps[load]
        if heap is None:
            heap = self._scan_heap(load)
        while loads.get(heap[0]) != load:  # a deleted machine reads None
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

    def _draw(self, jobs: Iterable[Hashable]) -> int:
        """Resample each of `jobs` in turn; returns how many drew a routine.
        A job with no live routine draws nothing and stays unassigned.  A job
        whose assigned routine died at this step still holds it here: the
        draw unloads it, and if no live routine is left, unassigns the job.

        One loop does all of it, with no call per job or machine but
        `machines` and the role transitions: the rank rule of the module
        docstring, the bit select of `graph.nth_bit` inline, and one body for
        a move down and one for a move up.  Of the machines a move reads,
        only a dying routine's deleted one is missing from `loads`."""
        live, assigned = self.live, self.assigned
        machines, getrandbits, roles = self._machines, self.rng.getrandbits, self.roles
        loads, at, heaps = self.loads, self._at, self._heaps
        max_load, assigned_count = self._max_load, self.assigned_count
        drawn = 0
        for job in jobs:
            mask = live[job]
            old = assigned[job]
            if mask:
                c = mask.bit_count()
                k = c.bit_length()
                r = getrandbits(k)
                while r >= c:
                    r = getrandbits(k)
                above = c - 1 - r  # set bits above the one sought
                if above < r:  # fewer to strip from the top
                    for _ in range(above):
                        mask ^= 1 << (mask.bit_length() - 1)
                    new = mask.bit_length() - 1
                else:
                    for _ in range(r):
                        mask &= mask - 1
                    new = (mask & -mask).bit_length() - 1
                drawn += 1
                if old == new:
                    continue  # redrawing the assigned routine moves no load
                if old is None:
                    assigned_count += 1
            elif old is None:
                continue  # no live routine, so unassigned since the last one died
            else:  # its last live routine died at this step
                new = None
                assigned_count -= 1
            assigned[job] = new
            if old is not None:  # a move down
                for x in machines(job, old):
                    load = loads.get(x)
                    if load is None:
                        continue  # the deleted machine of a dying routine
                    loads[x] = load - 1
                    at[load] -= 1
                    heap = heaps[load]
                    if heap is not None and len(heap) > 2 * at[load] + 16:
                        self._compact_heap(load)
                    load -= 1
                    at[load] += 1
                    heap = heaps[load]
                    if heap is not None:
                        heappush(heap, x)
                    if not load and roles is not None:
                        roles.remove(x)
            if new is not None:  # a move up
                for x in machines(job, new):
                    load = loads[x]
                    loads[x] = load + 1
                    at[load] -= 1
                    heap = heaps[load]
                    if heap is not None and len(heap) > 2 * at[load] + 16:
                        self._compact_heap(load)
                    if not load and roles is not None:
                        roles.add(x)
                    load += 1
                    if load == len(at):  # a load no machine had before
                        at.append(1)
                        heaps.append(None)
                    else:
                        at[load] += 1
                        heap = heaps[load]
                        if heap is not None:
                            heappush(heap, x)
                    if load > max_load:
                        max_load = load
        self._max_load, self.assigned_count = max_load, assigned_count
        return drawn

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
            self._at[load] -= 1
            heap = self._heaps[load]
            if heap is not None and len(heap) > 2 * self._at[load] + 16:
                self._compact_heap(load)
            live, assigned, machines = self.live, self.assigned, self._machines
            units = 1
            for job, i in self.embedder.on(x):
                if not live.get(job, 0) >> i & 1:
                    continue  # died with an earlier machine, or its job is not added yet
                live[job] ^= 1 << i
                units += len(machines(job, i)) - 1  # a live routine's other machines are live
                if assigned[job] == i:
                    touched.append(job)  # its repair draw, due at T + 1, unloads the routine
            self._charge(units)
        schedule_added = 0
        for job in touched:
            schedule_added += self._extend_schedule(job)
        self.T += 1
        drawn = self._draw(self.list_at.pop(self.T, ()))
        self._charge(drawn)
        return StepReport(tuple(touched), drawn, schedule_added)

    def _extend_schedule(self, job: Hashable) -> int:
        T, list_at = self.T, self.list_at
        self.touch_times[job].append(T)
        end = self.horizon if self.live[job] else T + 1  # a dead job: its repair entry alone
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

    def resample_times(self, job: Hashable) -> list[int]:
        """Steps of `job`'s resample events, its draws, ascending: its build
        draw at 0, and every schedule entry c + 2^k <= T of a touch at c.  A
        job with no live routine draws nothing: its events end at its last
        touch, the death of its last routine, and without a touch it had no
        live routine at its build, so no event at all."""
        touches = self.touch_times[job]
        if self.live[job]:
            end = self.T
        elif touches:
            end = touches[-1]
        else:
            return []
        due = {c + (1 << k) for c in touches for k in range((end - c).bit_length())}
        return sorted(due | {0})

    def rel_times(self, t: int, job: Hashable, i: int) -> list[int]:
        """Steps of resample events of `job` before t that could still explain
        its live routine i being assigned at t: event at step s counts unless
        some schedule entry t' with s < t' < t already existed at step s,
        derived from the touches as the module docstring says.  A job with
        no live routine has no routine to explain, so it raises."""
        if not self.live.get(job, 0) >> i & 1:
            raise UnknownRoutine(f"routine {i} of job {job!r} not live")
        if t > self.T:
            raise ValueError("t is in the future")
        touches = self.touch_times[job]
        times = []
        for s in self.resample_times(job):
            if s >= t:
                break
            blocked = any(c + (1 << (s - c).bit_length()) < t for c in touches if c <= s)
            if not blocked:
                times.append(s)
        return times

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
        at, heaps = self._at, self._heaps
        assert len(at) == len(heaps) and max(self.loads.values(), default=0) < len(at)
        members: list[set[Hashable]] = [set() for _ in at]
        for x, load in self.loads.items():
            members[load].add(x)
        assert at == [len(m) for m in members], "load counts differ from a histogram of loads"
        for load, heap in enumerate(heaps):
            if heap is not None:
                assert members[load] <= set(heap) and len(heap) <= 2 * at[load] + 16
        top = max(self.loads.values(), default=None)
        rule = min((x for x, v in self.loads.items() if v == top), default=None)
        assert self.heaviest_machine() == rule


MAX_ROUTINES_PER_JOB = 6
MAX_MACHINES_PER_ROUTINE = 3


def random_instance(rng: random.Random, jobs: int, machines: int) -> HyperInstance:
    """Seeded fuzz instance; routines of one job use disjoint machine sets."""
    routines = []
    bits = rng.getrandbits
    for job in range(jobs):
        budget = 1 + rank_below(bits, MAX_ROUTINES_PER_JOB)
        pool = sample_below(bits, machines, min(machines, budget * MAX_MACHINES_PER_ROUTINE))
        i = 0
        for _ in range(budget):
            width = 1 + rank_below(bits, MAX_MACHINES_PER_ROUTINE)
            chunk = pool[i : i + width]
            i += width
            if not chunk:
                break
            routines.append((job, tuple(sorted(chunk))))
    return HyperInstance(range(jobs), range(machines), routines)
