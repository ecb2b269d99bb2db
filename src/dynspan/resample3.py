"""Randomized phase-based 3-spanner driven by proactive resampling.

The output is the union of four edge families: partner edges into every
bucket (one per vertex/bucket, minimum id), all intra-bucket edges, two
witness edges per same-bucket pair with a common neighbor, and a buffer
of edges inserted during the current phase, which are passed through
verbatim (a spanner plus extra edges is still a spanner).  Witnesses are
assignments of the job/machine engine: jobs are same-bucket pairs,
machines are graph edges, and routine w of a pair (a, b) is its common
neighbor w with the edges (a, w) and (b, w), so the engine's proactive
schedule decides when witnesses get re-randomized.

A phase serves a bounded number of updates.  Its core graph is kept as
one bitmask row per vertex, the phase-start edges minus the deletions
since.  The core only loses edges, so a vertex's partner in bucket i is
always the lowest bit of `core[v] & bucket_mask[i]`, its intra-bucket
edges are its row's bits inside its own bucket, and a pair's common
neighbors are `core[a] & core[b]`: all are read off the rows rather than
stored.  The phase embeds its engine: a pair's live routines are the bits
of `core[a] & core[b]`, drawn in ascending-w order, and deleting the core
edge (u, v) kills witness v of the pairs (u, b) with b a bucket-mate of u
adjacent to v, and witness u of the pairs (v, b) likewise.  Deletions
update the core immediately; insertions only enter the buffer and are
folded into the core when the next phase starts.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from collections import Counter
from typing import NamedTuple, Sequence

from dynspan.det3 import bucket_masks, default_buckets
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent, edge_key
from dynspan.graph import check_rows, iter_bits, nth_bit
from dynspan.instrumentation import InvariantBroken, OpCounter, RoleOutput, RoleSet, Step
from dynspan.job_machine import ResamplingEngine
from dynspan.oracle import adjacency_masks


class PhaseExhausted(Exception):
    pass


def default_phase_len(n: int) -> int:
    return max(1, math.ceil(n**1.5))


class Resample3Step(NamedTuple):
    changes: tuple[tuple[tuple[int, int], str], ...]
    resamples: int
    touched: int
    schedule_added: int


class PhaseState(RoleOutput):
    """One phase of the randomized 3-spanner over a decremental core graph.

    It charges its work to `counter` but never closes a step; its drivers
    (`Resample3`, `WrappedRunner`) decide where steps end.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        seed: int,
        phase_len: int | None = None,
        bucket_of: Sequence[int] | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        self.g = graph
        self.n = graph.n
        self.L = phase_len if phase_len is not None else default_phase_len(self.n)
        self.counter = counter or OpCounter()
        self.bucket_of = list(bucket_of) if bucket_of is not None else default_buckets(self.n)
        self.bucket_mask = bucket_masks(self.bucket_of, self.n)
        self.core = [0] * self.n  # the phase-start edges minus the deletions since
        self.buffer: set[tuple[int, int]] = set()  # edges inserted this phase
        # roles: one per endpoint whose partner edge it is, one for an
        # intra-bucket core edge, one for the buffer, and one, held by the
        # engine, for carrying any chosen witness routine (a load above 0)
        self.roles = RoleSet(self.n)
        self.spanner = self.roles.count.keys()  # live view: the edges holding a role
        self.updates_used = 0
        # the engine reaches its phase through a proxy, so no cycle keeps an
        # abandoned phase alive; the engine works only while the phase does
        self.engine = ResamplingEngine(weakref.proxy(self), seed, self.L, self.counter, self.roles)
        for e in graph.edges():
            self._init_edge(e)
        for p in self._pair_keys():
            self._init_pair(p)
        self.roles.flush()

    # -- incremental construction pieces (also used by the wrapped driver) --

    def _init_edge(self, e: tuple[int, int]) -> None:
        u, v = e
        core, bucket_mask, bucket_of = self.core, self.bucket_mask, self.bucket_of
        self.counter.charge(2, "partnership")  # one per row bit
        self.engine.add_machine(e)
        if bucket_of[u] == bucket_of[v]:
            self.roles.add(e)  # intra-bucket edges never serve as partner edges
        else:
            for x, y in ((u, v), (v, u)):
                row = core[x] & bucket_mask[bucket_of[y]]
                if not row & ((1 << y) - 1):  # no bit below y: y becomes x's partner
                    if row:
                        self.roles.remove(edge_key(x, nth_bit(row, 0)))
                    self.roles.add(edge_key(x, y))
        core[u] |= 1 << v
        core[v] |= 1 << u

    def _pair_keys(self) -> list[tuple[int, int]]:
        """The same-bucket pairs a < b with a common core neighbor, ascending."""
        core, bucket_mask, bucket_of = self.core, self.bucket_mask, self.bucket_of
        keys = []
        for a, row in enumerate(core):
            if row:
                mates = bucket_mask[bucket_of[a]] >> (a + 1) << (a + 1)
                keys.extend((a, b) for b in iter_bits(mates) if row & core[b])
        return keys

    def _init_pair(self, p: tuple[int, int]) -> None:
        live = self.core[p[0]] & self.core[p[1]]
        self.engine.add_job(p, live, 2 * live.bit_count())

    # -- the engine's embedder: routine w of a pair is its witness w --

    @staticmethod
    def machines(p: tuple[int, int], w: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The edges (a, w) and (b, w) by which the common neighbor w joins p = (a, b)."""
        a, b = p
        return ((a, w) if a < w else (w, a)), ((b, w) if b < w else (w, b))

    def on(self, x: tuple[int, int]) -> list[tuple[tuple[int, int], int]]:
        """The witness routines through the core edge x: the pairs of an endpoint
        and a bucket-mate adjacent to the other endpoint, which is their witness."""
        core, bucket_mask, bucket_of = self.core, self.bucket_mask, self.bucket_of
        u, v = x
        out = []
        for s, w in ((u, v), (v, u)):
            mates = core[w] & bucket_mask[bucket_of[s]] & ~(1 << s)
            while mates:  # an inline bit loop: a deletion's hot path
                low = mates & -mates
                b = low.bit_length() - 1
                out.append((((s, b) if s < b else (b, s)), w))
                mates ^= low
        return out

    # -- updates --

    @property
    def exhausted(self) -> bool:
        return self.updates_used >= self.L

    def insert(self, u: int, v: int) -> Resample3Step:
        if self.exhausted:
            raise PhaseExhausted(f"phase budget of {self.L} updates spent")
        e = self.g.insert_edge(u, v)
        self.buffer.add(e)
        self.roles.add(e)
        self.updates_used += 1
        return Resample3Step(tuple(self.roles.flush()), 0, 0, 0)

    def delete(self, u: int, v: int) -> Resample3Step:
        if self.exhausted:
            raise PhaseExhausted(f"phase budget of {self.L} updates spent")
        e = self.g.delete_edge(u, v)  # a bad vertex or missing edge raises, changing nothing
        if e in self.buffer:
            self.buffer.discard(e)
            self.roles.remove(e)
            report = self.engine.tick()  # clock advances on every deletion
        else:  # every other host edge is a core edge
            u, v = e
            core, bucket_mask, bucket_of = self.core, self.bucket_mask, self.bucket_of
            core[u] &= ~(1 << v)
            core[v] &= ~(1 << u)
            self.counter.charge(2, "partnership")  # one per row bit
            if bucket_of[u] == bucket_of[v]:
                self.roles.remove(e)
            else:
                for x, y in ((u, v), (v, u)):
                    rest = core[x] & bucket_mask[bucket_of[y]]
                    if not rest & ((1 << y) - 1):  # y was x's partner: the next bit takes over
                        self.roles.remove(e)
                        if rest:
                            self.roles.add(edge_key(x, nth_bit(rest, 0)))
            report = self.engine.delete_machine(e)
        self.updates_used += 1
        return Resample3Step(
            tuple(self.roles.flush()), report.resamples, len(report.touched), report.schedule_added
        )

    # -- views --

    def witnesses(self) -> dict[tuple[int, int], int]:
        return {p: w for p, w in self.engine.assigned.items() if w is not None}

    def check_invariants(self) -> None:
        core, bucket_mask, bucket_of = self.core, self.bucket_mask, self.bucket_of
        check_rows(core)
        host = [row & ~b for row, b in zip(self.g.adj_mask, adjacency_masks(self.n, self.buffer))]
        assert core == host, "core rows differ from the host rows less the buffer"
        # every pair with a common core neighbor is a job, and a job's live
        # routines are its common neighbors
        assert set(self._pair_keys()) <= self.engine.live.keys()
        for (a, b), live in self.engine.live.items():
            assert live == core[a] & core[b], f"witnesses of {(a, b)} are stale"
        self.engine.check_feasible()
        # the roles recounted from the rows: a partner edge per vertex and
        # other bucket it has a neighbor in, and every intra-bucket edge once
        roles = Counter(self.buffer)
        for x, row in enumerate(core):
            for j, members in enumerate(bucket_mask):
                nbrs = row & members
                if j == bucket_of[x]:
                    roles.update((x, y) for y in iter_bits(nbrs >> x << x))
                elif nbrs:
                    roles[edge_key(x, nth_bit(nbrs, 0))] += 1
        roles.update(e for e, load in self.engine.loads.items() if load)
        assert self.roles.count == roles
        self.roles.check_masks()
        for e in self.spanner:
            assert self.g.has_edge(*e)


def _apply(phase: PhaseState, ev: UpdateEvent) -> Resample3Step:
    return (phase.insert if ev.kind == INSERT else phase.delete)(*ev.edge)


class WrappedStep(NamedTuple):
    """`Step`'s fields, in its order, then the window's declared budget."""

    op_count: int
    resamples: int
    adds: int
    dels: int
    output_size: int
    budget: int  # the window's declared per-update op budget


class WrappedRunner(RoleOutput):
    """De-amortized driver: two overlapping instances, rotated every L updates.

    While instance D_i serves a window of L live updates, its successor is
    prepared in three equal thirds: rebuild the snapshot index in bounded
    chunks, feed the successor's spanner into the output, then replay the
    window's updates three at a time so the successor is caught up exactly
    at the rotation boundary.  The abandoned instance's edges are
    disregarded gradually over the following first third.  The output is
    always the union of the live instance's spanner with the extra edges
    still being fed in or drained out, all of which exist in the graph, so
    it stays a 3-spanner throughout.

    A window is one generator, `_window`, resumed once per update; its
    cursors are locals.  `D_next` is None until the successor is built.

    Work done for the successor is charged to the shared counter as it is
    consumed (snapshot scans count one operation per element, the in-order
    walk cost of the model's balanced trees).  `declared_budget` is fixed
    at each window start from known queue sizes before any of the window's
    updates run; per-update charges never exceed it.

    `rotation_len` must be a positive multiple of 3.  Each inner instance
    is built with a phase budget of 2*rotation_len: L replayed plus L live.
    """

    # frozen after calibration runs (max observed step cost, 2x headroom)
    C_LIVE = 10
    C_TASK = 8

    def __init__(
        self,
        graph: DynamicGraph,
        seed: int,
        rotation_len: int,
        bucket_of: Sequence[int] | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        if rotation_len < 3 or rotation_len % 3:
            raise ValueError("rotation_len must be a positive multiple of 3")
        self.L = rotation_len
        self.third = rotation_len // 3
        self.n = graph.n
        self.counter = counter or OpCounter()
        self.rng = random.Random(seed)
        self.D_cur = PhaseState(
            graph,
            self.rng.randrange(2**62),
            phase_len=2 * rotation_len,
            bucket_of=bucket_of,
            counter=self.counter,
        )
        self.D_next: PhaseState | None = None
        self.MAT: list[tuple[int, int]] = list(graph.edges())
        self.journal_cur: list[UpdateEvent] = []
        self.extra: set[tuple[int, int]] = set()
        self.remnant: set[tuple[int, int]] = set()
        # the output: one role per edge for each of D_cur.spanner, extra and
        # remnant holding it; like the phases' own roles, never charged
        self.roles = RoleSet(self.n)
        for e in self.D_cur.spanner:
            self.roles.add(e)
        self.roles.flush()
        self._steps = None  # the current window's `_window` generator
        self.step_in_window = 0
        self.window = 0
        self.declared_budget = 0
        self.counter.end_step()  # construction is the one upfront cost

    # -- window orchestration --

    def _window(self):
        """One window: set-up, then one resume per update, each yielding the
        update's replayed resamples."""
        journal_prev = self.journal_cur
        if self.D_next is not None:
            if self.D_next.updates_used != len(journal_prev):
                raise InvariantBroken("successor not caught up at the rotation")
            prev = self.D_cur
            self.D_cur = self.D_next
            self.D_next = None
            for e in itertools.chain(prev.spanner, self.extra, self.remnant):
                self.roles.remove(e)
            # the abandoned instance's output and the already-fed edges are
            # drained away over the coming first third
            self.remnant = set(prev.spanner)
            self.remnant |= self.extra
            self.extra = set()
            for e in itertools.chain(self.remnant, self.D_cur.spanner):
                self.roles.add(e)
        journal = self.journal_cur = []
        drop = sorted(self.remnant)
        third, charge = self.third, self.counter.charge
        r = math.isqrt(self.n)
        s = r if r * r == self.n else r + 1
        est = self.C_TASK * (len(self.MAT) + len(journal_prev) + 2 * self.L) * (s + 4)
        allowance = -(-est // third)
        build = self._build(self.rng.randrange(2**62), journal_prev)
        self.window += 1
        log_l = math.floor(math.log2(2 * self.L)) + 1
        log_n = math.ceil(math.log2(max(self.n, 2)))
        live = self.C_LIVE * (s + 1) * (log_l + log_n)
        max_task = 4 * self.n + 24
        feed_bound = 2 * (-(-(3 * self.n * s + self.L) // third)) + 4
        c = -(-len(drop) // third)
        self.declared_budget = live + max(allowance + max_task, feed_bound + c + 2, 3 * live)
        yield 0

        # first third: build the successor, drain the remnant
        for k in range(third):
            base = self.counter.current
            while self.D_next is None and self.counter.current - base < allowance:
                next(build, None)
            for e in drop[k * c : (k + 1) * c]:
                charge(1, "wrap")
                if e in self.remnant:
                    self.remnant.discard(e)
                    self.roles.remove(e)
            if k == third - 1 and self.D_next is None:
                raise InvariantBroken("rebuild did not fit its third")
            yield 0

        # second third: feed the successor's spanner into the output
        feed = sorted(self.D_next.spanner)
        c = -(-len(feed) // third)
        for k in range(third):
            for e in feed[k * c : (k + 1) * c]:
                charge(2, "wrap")
                if self.D_cur.g.has_edge(*e) and e not in self.extra:
                    self.extra.add(e)
                    self.roles.add(e)
            yield 0

        # last third: replay the window three updates at a time; after
        # update 2*third+k there are at least 3k+3 journalled events
        for k in range(third):
            yield sum(self._replay(ev) for ev in journal[3 * k : 3 * k + 3])

    def _build(self, seed: int, journal_prev: list[UpdateEvent]):
        """The successor's build, one bounded task per step; it sets
        `D_next` as its last act."""
        charge = self.counter.charge
        net: dict[tuple[int, int], str] = {}
        for ev in journal_prev:
            net[ev.edge] = ev.kind
            charge(1, "wrap")
            yield
        newmat: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for e in self.MAT:
            if net.get(e) != DELETE:
                newmat.append(e)
                seen.add(e)
            charge(1, "wrap")
            yield
        for ev in journal_prev:
            if net.get(ev.edge) == INSERT and ev.edge not in seen:
                newmat.append(ev.edge)
                seen.add(ev.edge)
            charge(1, "wrap")
            yield
        self.MAT = newmat
        nxt = PhaseState(
            DynamicGraph(self.n),
            seed,
            phase_len=2 * self.L,
            bucket_of=self.D_cur.bucket_of,
            counter=self.counter,
        )
        for e in self.MAT:
            nxt._init_edge(nxt.g.insert_edge(*e))
            yield
        for p in nxt._pair_keys():
            nxt._init_pair(p)
            charge(1, "wrap")
            yield
        nxt.roles.flush()
        self.D_next = nxt

    def _replay(self, ev: UpdateEvent) -> int:
        return _apply(self.D_next, ev).resamples

    # -- the public update loop --

    def update(self, ev: UpdateEvent) -> WrappedStep:
        if self.step_in_window == 0:
            self._steps = self._window()
            next(self._steps)
        self.journal_cur.append(ev)
        step = _apply(self.D_cur, ev)
        for e, sign in step.changes:
            (self.roles.add if sign == "+" else self.roles.remove)(e)
        if ev.kind == DELETE:
            e = edge_key(*ev.edge)
            for held in (self.extra, self.remnant):
                if e in held:
                    held.discard(e)
                    self.roles.remove(e)
        resamples = step.resamples + next(self._steps)
        self.step_in_window = (self.step_in_window + 1) % self.L
        op = self.counter.end_step()
        adds, dels = Step.signs(self.roles.flush())
        return WrappedStep(op, resamples, adds, dels, self.spanner_size(), self.declared_budget)

    # -- views --

    @property
    def graph(self) -> DynamicGraph:
        return self.D_cur.g

    def check_invariants(self) -> None:
        self.D_cur.check_invariants()
        held = (self.D_cur.spanner, self.extra, self.remnant)
        for e in set(self.roles.count).union(*held):
            assert self.roles.count.get(e, 0) == sum(e in s for s in held), e
        self.roles.check_masks()


class Resample3(RoleOutput):
    """Phase-rolling driver: rebuilds inline when the phase budget is spent.

    Each phase build and each update closes one op-counter step, so a
    rollover's build is never charged to the update that triggered it.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        seed: int,
        phase_len: int | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        self.g = graph
        self.phase_len = phase_len if phase_len is not None else default_phase_len(graph.n)
        self.counter = counter or OpCounter()
        self.rng = random.Random(seed)
        self.phase_index = 0
        self.phase = self._new_phase()

    def _new_phase(self) -> PhaseState:
        self.phase_index += 1
        phase = PhaseState(
            self.g, self.rng.randrange(2**62), phase_len=self.phase_len, counter=self.counter
        )
        self.counter.end_step()
        return phase

    def _apply(self, kind: str, u: int, v: int) -> Resample3Step:
        old = None
        if self.phase.exhausted:
            old = self.phase.spanner  # the abandoned phase's roles no longer change
            del self.phase  # freed before the build, so two phases never coexist
            self.phase = self._new_phase()
        step = (self.phase.insert if kind == INSERT else self.phase.delete)(u, v)
        self.counter.end_step()
        if old is not None:
            # the new phase flushed its build, so report the swap of the whole output
            new = self.phase.spanner
            changes = sorted([(e, "+") for e in new - old] + [(e, "-") for e in old - new])
            step = step._replace(changes=tuple(changes))
        return step

    def insert(self, u: int, v: int) -> Resample3Step:
        return self._apply(INSERT, u, v)

    def delete(self, u: int, v: int) -> Resample3Step:
        return self._apply(DELETE, u, v)

    def update(self, ev: UpdateEvent) -> Step:
        step = (self.insert if ev.kind == INSERT else self.delete)(*ev.edge)
        return Step.of(step.changes, self.counter.last_step, step.resamples, self.spanner_size())

    @property
    def roles(self) -> RoleSet:
        return self.phase.roles  # the output queries read the current phase's

    def heaviest_machine(self) -> tuple[int, int] | None:
        return self.phase.engine.heaviest_machine()
