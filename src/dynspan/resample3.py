"""Randomized phase-based 3-spanner driven by proactive resampling.

The output is the union of four edge families: partner edges into every
bucket (one per vertex/bucket, minimum id), all intra-bucket edges, two
witness edges per same-bucket pair with a common neighbor, and a buffer
of edges inserted during the current phase, which are passed through
verbatim (a spanner plus extra edges is still a spanner).  Witnesses are
assignments of the job/machine engine: jobs are same-bucket pairs,
machines are graph edges, and a routine for a pair is one common neighbor
with its two connecting edges, so the engine's proactive schedule decides
when witnesses get re-randomized.

A phase serves a bounded number of updates.  Deletions update the
partnership index immediately; insertions only enter the buffer and are
folded into the index when the next phase starts.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from dynspan.det3 import default_buckets
from dynspan.graph import DELETE, INSERT, DynamicGraph, EdgeMissing, UpdateEvent, edge_key
from dynspan.instrumentation import InvariantBroken, OpCounter, RoleSet, Step
from dynspan.job_machine import ResamplingEngine, Routine


class PhaseExhausted(Exception):
    pass


def default_phase_len(n: int) -> int:
    return max(1, math.ceil(n**1.5))


class PartnershipIndex:
    """Per-bucket neighbor sets and common-neighbor sets for same-bucket pairs.

    Holds the decremental view of the graph within a phase: edges present at
    phase start minus deletions since.
    """

    def __init__(self, n: int, bucket_of: Sequence[int], counter: OpCounter | None = None) -> None:
        self.n = n
        self.bucket_of = list(bucket_of)
        self.counter = counter or OpCounter()
        self.bnbrs: dict[tuple[int, int], set[int]] = {}  # (v, i) -> V_i cap N(v)
        self.partnerships: dict[tuple[int, int], set[int]] = {}  # same-bucket pair -> P

    def _charge(self, k: int) -> None:
        self.counter.charge(k, "partnership")

    def pair(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.bnbrs.get((u, self.bucket_of[v]), ())

    def add_edge(self, u: int, v: int) -> None:
        for x, y in ((u, v), (v, u)):
            # y becomes a common neighbor of x and x's bucket-mates adjacent to y
            mates = self.bnbrs.get((y, self.bucket_of[x]), ())
            for x2 in mates:
                if x2 != x:
                    self.partnerships.setdefault(self.pair(x, x2), set()).add(y)
                    self._charge(1)
        self.bnbrs.setdefault((u, self.bucket_of[v]), set()).add(v)
        self.bnbrs.setdefault((v, self.bucket_of[u]), set()).add(u)
        self._charge(4)

    def remove_edge(self, u: int, v: int) -> None:
        self.bnbrs[(u, self.bucket_of[v])].discard(v)
        self.bnbrs[(v, self.bucket_of[u])].discard(u)
        self._charge(4)
        for x, y in ((u, v), (v, u)):
            mates = self.bnbrs.get((y, self.bucket_of[x]), ())
            for x2 in mates:
                self.partnerships[self.pair(x, x2)].discard(y)
                self._charge(1)

    def partners_of(self, v: int, i: int) -> set[int]:
        return self.bnbrs.get((v, i), set())

    def check_consistent(self) -> None:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, i), vs in self.bnbrs.items():
            assert all(self.bucket_of[v] == i for v in vs)
            adj[u] |= vs
        fresh: dict[tuple[int, int], set[int]] = {}
        for u in range(self.n):
            for v in adj[u]:
                assert u in adj[v]
                if u < v:
                    for x, y in ((u, v), (v, u)):
                        for x2 in adj[y]:
                            if x2 != x and self.bucket_of[x2] == self.bucket_of[x]:
                                fresh.setdefault(self.pair(x, x2), set()).add(y)
        assert {p: s for p, s in self.partnerships.items() if s} == fresh


@dataclass(frozen=True)
class Resample3Step:
    changes: tuple[tuple[tuple[int, int], str], ...]
    resamples: int
    touched: int
    schedule_added: int


class PhaseState:
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
        self.bucket_of = list(bucket_of) if bucket_of is not None else default_buckets(self.n)
        self.L = phase_len if phase_len is not None else default_phase_len(self.n)
        self.counter = counter or OpCounter()
        self.idx = PartnershipIndex(self.n, self.bucket_of, self.counter)
        self.partner: dict[tuple[int, int], int] = {}  # (v, i) -> min bucket neighbor
        self.e2: set[tuple[int, int]] = set()  # intra-bucket core edges
        self.buffer: set[tuple[int, int]] = set()  # edges inserted this phase
        # roles: one per partner slot holding the edge, one for e2, one for
        # the buffer, one per chosen witness routine using the edge
        self.roles = RoleSet(self.n)
        self.spanner = self.roles.count.keys()  # live view: the edges holding a role
        self.updates_used = 0
        self.engine: ResamplingEngine = ResamplingEngine(None, seed, horizon=self.L, counter=self.counter)
        for e in graph.edges():
            self._init_edge(e)
        for p in self._pair_keys():
            self._init_pair(p)
        self.roles.flush()

    # -- incremental construction pieces (also used by the wrapped driver) --

    def _init_edge(self, e: tuple[int, int]) -> None:
        u, v = e
        self.idx.add_edge(u, v)
        self.engine.add_machine(e)
        if self.bucket_of[u] == self.bucket_of[v]:
            self.e2.add(e)
            self.roles.add(e)
            return  # intra-bucket edges never serve as partner edges
        for x, y in ((u, v), (v, u)):
            key = (x, self.bucket_of[y])
            cur = self.partner.get(key)
            if cur is None or y < cur:
                if cur is not None:
                    self.roles.remove(edge_key(x, cur))
                self.partner[key] = y
                self.roles.add(edge_key(x, y))

    def _pair_keys(self) -> list[tuple[int, int]]:
        return sorted(p for p, s in self.idx.partnerships.items() if s)

    def _init_pair(self, p: tuple[int, int]) -> None:
        witnesses = self.idx.partnerships.get(p, ())
        routines = [
            Routine(p, (edge_key(p[0], w), edge_key(p[1], w)), tag=w) for w in sorted(witnesses)
        ]
        self.engine.add_job(p, routines)
        chosen = self.engine.assigned[p]
        if chosen is not None:
            for e in chosen.machines:
                self.roles.add(e)

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
        e = edge_key(u, v)
        if e in self.buffer:
            self.g.delete_edge(u, v)
            self.buffer.discard(e)
            self.roles.remove(e)
            report = self.engine.tick()  # clock advances on every deletion
        elif self.idx.has_edge(u, v):
            self.g.delete_edge(u, v)
            self.idx.remove_edge(u, v)
            self._repair_e1(e)
            if e in self.e2:
                self.e2.discard(e)
                self.roles.remove(e)
            report = self.engine.delete_machine(e)
        else:
            raise EdgeMissing(f"edge {e} not present")
        for job, old, new in report.changes:
            if old is not None:
                for m in old.machines:
                    self.roles.remove(m)
            if new is not None:
                for m in new.machines:
                    self.roles.add(m)
        self.updates_used += 1
        return Resample3Step(
            tuple(self.roles.flush()), report.resamples, len(report.touched), report.schedule_added
        )

    def _repair_e1(self, e: tuple[int, int]) -> None:
        u, v = e
        if self.bucket_of[u] == self.bucket_of[v]:
            return
        for x, y in ((u, v), (v, u)):
            key = (x, self.bucket_of[y])
            if self.partner.get(key) == y:
                self.roles.remove(e)
                rest = self.idx.partners_of(x, self.bucket_of[y])
                if rest:
                    ny = min(rest)
                    self.partner[key] = ny
                    self.roles.add(edge_key(x, ny))
                else:
                    del self.partner[key]
                self.counter.charge(2, "resample3")

    # -- views --

    def spanner_edges(self) -> set[tuple[int, int]]:
        return set(self.roles.count)  # from the dict, not the view: set() reuses its hashes

    def spanner_size(self) -> int:
        return len(self.spanner)

    def spanner_masks(self) -> list[int]:
        return self.roles.masks

    def witnesses(self) -> dict[tuple[int, int], int]:
        return {
            p: r.tag for p, r in self.engine.assigned.items() if r is not None
        }

    def check_invariants(self) -> None:
        self.idx.check_consistent()
        self.engine.check_feasible()
        for p, r in self.engine.assigned.items():
            live = self.idx.partnerships.get(p, set())
            if r is None:
                assert not live
            else:
                assert r.tag in live  # the witness is a live common neighbor
                for m in r.machines:
                    assert self.g.has_edge(*m)
        roles = Counter(edge_key(x, y) for (x, _), y in self.partner.items())
        roles.update(self.e2)
        roles.update(self.buffer)
        for r in self.engine.assigned.values():
            if r is not None:
                roles.update(r.machines)
        assert self.roles.count == roles
        self.roles.check_masks()
        for e in self.spanner:
            assert self.g.has_edge(*e)


@dataclass(frozen=True)
class WrappedStep(Step):
    budget: int  # the window's declared per-update op budget


class WrappedRunner:
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
        self.bucket_of = list(bucket_of) if bucket_of is not None else default_buckets(self.n)
        self.counter = counter or OpCounter()
        self.rng = random.Random(seed)
        self.D_cur = PhaseState(
            graph,
            self.rng.randrange(2**62),
            phase_len=2 * rotation_len,
            bucket_of=self.bucket_of,
            counter=self.counter,
        )
        self.D_next: PhaseState | None = None
        self.MAT: list[tuple[int, int]] = list(graph.edges())
        self.journal_prev: list = []
        self.journal_cur: list = []
        self.extra: set[tuple[int, int]] = set()
        self.remnant: set[tuple[int, int]] = set()
        # the output: one role per edge for each of D_cur.spanner, extra and
        # remnant holding it; like the phases' own roles, never charged
        self.roles = RoleSet(self.n)
        for e in self.D_cur.spanner:
            self.roles.add(e)
        self.roles.flush()
        self._remnant_list: list[tuple[int, int]] = []
        self._remnant_pos = 0
        self._drop_chunk = 0
        self._build_gen = None
        self._build_allowance = 0
        self._feed_list: list[tuple[int, int]] = []
        self._feed_pos = 0
        self._feed_chunk = 0
        self._replayed = 0
        self.step_in_window = 0
        self.window = 0
        self.declared_budget = 0
        self.counter.end_step()  # construction is the one upfront cost

    # -- window orchestration --

    def _sqrt_ceil(self) -> int:
        r = math.isqrt(self.n)
        return r if r * r == self.n else r + 1

    def _begin_window(self) -> None:
        if self.D_next is not None:
            if self._replayed != len(self.journal_cur):
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
            self._remnant_list = sorted(self.remnant)
            self._remnant_pos = 0
        self.journal_prev = self.journal_cur
        self.journal_cur = []
        self._replayed = 0
        self._drop_chunk = -(-len(self._remnant_list) // self.third) if self._remnant_list else 0
        est = self.C_TASK * (len(self.MAT) + len(self.journal_prev) + 2 * self.L) * (
            self._sqrt_ceil() + 4
        )
        self._build_allowance = -(-est // self.third)
        self._build_gen = self._build_generator(self.rng.randrange(2**62))
        self._feed_list = []
        self._feed_pos = 0
        self._feed_chunk = 0
        self.window += 1
        s = self._sqrt_ceil()
        log_l = math.floor(math.log2(2 * self.L)) + 1
        log_n = math.ceil(math.log2(max(self.n, 2)))
        live = self.C_LIVE * (s + 1) * (log_l + log_n)
        max_task = 4 * self.n + 24
        feed_bound = 2 * (-(-(3 * self.n * s + self.L) // self.third)) + 4
        drop_bound = self._drop_chunk + 2
        self.declared_budget = live + max(
            self._build_allowance + max_task, feed_bound + drop_bound, 3 * live
        )

    def _build_generator(self, seed: int):
        charge = self.counter.charge
        net: dict[tuple[int, int], str] = {}
        for ev in self.journal_prev:
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
        for ev in self.journal_prev:
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
            bucket_of=self.bucket_of,
            counter=self.counter,
        )
        self.D_next = nxt
        for e in self.MAT:
            nxt._init_edge(nxt.g.insert_edge(*e))
            yield
        for p in nxt._pair_keys():
            nxt._init_pair(p)
            charge(1, "wrap")
            yield
        nxt.roles.flush()

    def _start_feed(self) -> None:
        assert self.D_next is not None
        self._feed_list = sorted(self.D_next.spanner)
        self._feed_pos = 0
        self._feed_chunk = -(-len(self._feed_list) // self.third) if self._feed_list else 0

    def _run_build_chunk(self) -> None:
        if self._build_gen is None:
            return
        base = self.counter.current
        try:
            while self.counter.current - base < self._build_allowance:
                next(self._build_gen)
        except StopIteration:
            self._build_gen = None

    def _drop_remnant_chunk(self) -> None:
        for _ in range(self._drop_chunk):
            if self._remnant_pos >= len(self._remnant_list):
                break
            e = self._remnant_list[self._remnant_pos]
            self._remnant_pos += 1
            self.counter.charge(1, "wrap")
            if e in self.remnant:
                self.remnant.discard(e)
                self.roles.remove(e)

    def _run_feed_chunk(self) -> None:
        for _ in range(self._feed_chunk):
            if self._feed_pos >= len(self._feed_list):
                return
            e = self._feed_list[self._feed_pos]
            self._feed_pos += 1
            self.counter.charge(2, "wrap")
            if self.D_cur.g.has_edge(*e) and e not in self.extra:
                self.extra.add(e)
                self.roles.add(e)

    def _replay_chunk(self, k: int) -> int:
        assert self.D_next is not None
        resamples = 0
        target = min(len(self.journal_cur), self._replayed + k)
        while self._replayed < target:
            ev = self.journal_cur[self._replayed]
            self._replayed += 1
            if ev.kind == INSERT:
                self.D_next.insert(*ev.edge)
            else:
                step = self.D_next.delete(*ev.edge)
                resamples += step.resamples
        return resamples

    # -- the public update loop --

    def update(self, ev) -> WrappedStep:
        if self.step_in_window == 0:
            self._begin_window()
        k = self.step_in_window
        self.journal_cur.append(ev)
        if ev.kind == INSERT:
            step = self.D_cur.insert(*ev.edge)
        else:
            step = self.D_cur.delete(*ev.edge)
        for e, sign in step.changes:
            (self.roles.add if sign == "+" else self.roles.remove)(e)
        resamples = step.resamples
        if ev.kind == DELETE:
            e = edge_key(*ev.edge)
            for held in (self.extra, self.remnant):
                if e in held:
                    held.discard(e)
                    self.roles.remove(e)
        if k < self.third:
            self._run_build_chunk()
            self._drop_remnant_chunk()
            if k == self.third - 1 and self._build_gen is not None:
                raise InvariantBroken("rebuild did not fit its third")
        elif k < 2 * self.third:
            if k == self.third:
                self._start_feed()
            self._run_feed_chunk()
        else:
            resamples += self._replay_chunk(3)
        self.step_in_window += 1
        if self.step_in_window == self.L:
            self.step_in_window = 0
        op = self.counter.end_step()
        adds, dels = Step.signs(self.roles.flush())
        return WrappedStep(op, resamples, adds, dels, self.output_size(), self.declared_budget)

    # -- views --

    def spanner_edges(self) -> set[tuple[int, int]]:
        return set(self.roles.count)

    def output_size(self) -> int:
        return len(self.roles.count)

    def spanner_masks(self) -> list[int]:
        return self.roles.masks

    @property
    def graph(self) -> DynamicGraph:
        return self.D_cur.g

    def check_invariants(self) -> None:
        self.D_cur.check_invariants()
        held = (self.D_cur.spanner, self.extra, self.remnant)
        for e in set(self.roles.count).union(*held):
            assert self.roles.count.get(e, 0) == sum(e in s for s in held), e
        self.roles.check_masks()


class Resample3:
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
            self.phase = self._new_phase()
        step = (self.phase.insert if kind == INSERT else self.phase.delete)(u, v)
        self.counter.end_step()
        if old is not None:
            # the new phase flushed its build, so report the swap of the whole output
            new = self.phase.spanner
            changes = sorted([(e, "+") for e in new - old] + [(e, "-") for e in old - new])
            step = replace(step, changes=tuple(changes))
        return step

    def insert(self, u: int, v: int) -> Resample3Step:
        return self._apply(INSERT, u, v)

    def delete(self, u: int, v: int) -> Resample3Step:
        return self._apply(DELETE, u, v)

    def update(self, ev: UpdateEvent) -> Step:
        step = (self.insert if ev.kind == INSERT else self.delete)(*ev.edge)
        return Step.of(step.changes, self.counter.last_step, step.resamples, self.spanner_size())

    def spanner_edges(self) -> set[tuple[int, int]]:
        return self.phase.spanner_edges()

    def spanner_size(self) -> int:
        return self.phase.spanner_size()

    def spanner_masks(self) -> list[int]:
        return self.phase.spanner_masks()

    def heaviest_machine(self) -> tuple[int, int] | None:
        return self.phase.engine.heaviest_machine()
