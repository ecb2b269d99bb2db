"""Recourse, elementary-operation, and load-overhead accounting.

All algorithm modules report through these structures so that runs are
comparable and byte-reproducible.  Costs are counted in elementary
ordered-set operations (insert/delete/find on a maintained index), not
wall-clock time, so assertions are machine independent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


class InvariantBroken(Exception):
    """A structure found one of its own invariants broken: a bug, not bad input.

    Raised instead of `assert` on production paths, so the check survives
    `python -O`.
    """


@dataclass(frozen=True)
class Step:
    """What one update did, as every structure's `update(ev) -> Step` reports it."""

    op_count: int  # the update's own op-counter step, closed by `update`
    resamples: int
    adds: int  # output recourse: members gained and lost
    dels: int
    output_size: int  # after the update

    @staticmethod
    def signs(changes: Sequence[tuple[Hashable, str]]) -> tuple[int, int]:
        """(adds, dels) of (edge, "+"/"-") changes such as `RoleSet.flush()` returns."""
        adds = sum(1 for _, sign in changes if sign == "+")
        return adds, len(changes) - adds

    @classmethod
    def of(cls, changes, op_count: int, resamples: int, output_size: int) -> "Step":
        return cls(op_count, resamples, *cls.signs(changes), output_size)


class RoleSet:
    """A maintained output whose members are the edges holding at least one role.

    `count` maps each member to its number of roles; its keys are the output
    itself.  Within a step only an edge's first 0<->1 transition records its
    old membership, so `flush` can report the net change of the step.

    Members are (u, v) edges over vertices 0..n-1, and `masks` are their
    symmetric per-vertex adjacency bitmasks.  They are built on first read
    and kept from then on by the same 0<->1 transitions, so a structure whose
    masks nobody reads pays nothing for them.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.count: dict[tuple[int, int], int] = {}
        self._was: dict[tuple[int, int], bool] = {}  # membership before the current step
        self._masks: list[int] | None = None

    def _adjacency(self) -> list[int]:
        masks = [0] * self.n
        for u, v in self.count:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    @property
    def masks(self) -> list[int]:
        if self._masks is None:
            self._masks = self._adjacency()
        return self._masks

    def add(self, e: tuple[int, int]) -> None:
        c = self.count.get(e, 0)
        self.count[e] = c + 1
        if not c:
            self._was.setdefault(e, False)
            masks = self._masks
            if masks is not None:
                u, v = e
                masks[u] |= 1 << v
                masks[v] |= 1 << u

    def remove(self, e: tuple[int, int]) -> None:
        c = self.count[e] - 1
        if c:
            self.count[e] = c
        else:
            del self.count[e]
            self._was.setdefault(e, True)
            masks = self._masks
            if masks is not None:
                u, v = e
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)

    def check_masks(self) -> None:
        """Built masks equal the adjacency of the members; unbuilt ones are not checked."""
        assert self._masks is None or self._masks == self._adjacency()

    def flush(self) -> list[tuple[tuple[int, int], str]]:
        """Sorted (edge, "+"/"-") net membership changes since the last flush."""
        count = self.count
        out = [
            (e, "+" if e in count else "-") for e, was in self._was.items() if was != (e in count)
        ]
        self._was.clear()
        out.sort()
        return out


class OpCounter:
    """Counts elementary ordered-set operations, attributed per module.

    A "step" is one update of the structure under test; `end_step` closes
    the current window.  Charges are deterministic functions of the update
    sequence, never of timing.
    """

    def __init__(self) -> None:
        self.current = 0
        self.last_step = 0  # the count of the last closed step
        self.max_step = 0
        self.total = 0
        self.by_module: Counter[str] = Counter()

    def charge(self, n: int = 1, module: str = "core") -> None:
        self.current += n
        self.total += n
        self.by_module[module] += n

    def end_step(self) -> int:
        count = self.last_step = self.current
        if count > self.max_step:
            self.max_step = count
        self.current = 0
        return count

    def check_attribution(self) -> None:
        assert sum(self.by_module.values()) == self.total


@dataclass(frozen=True)
class OverheadSample:
    """One (step, machine) observation of actual load vs target load."""

    step: int
    machine: object
    load: int
    target: float


@dataclass(frozen=True)
class OverheadReport:
    total: int
    violations: int
    worst_residual: float
    worst_sample: OverheadSample | None

    @property
    def fraction(self) -> float:
        return self.violations / self.total if self.total else 0.0


def measure_overhead(
    samples: Iterable[OverheadSample],
    alpha: float,
    beta: float,
    every: int = 1,
) -> OverheadReport:
    """Fraction of samples violating load <= alpha*target + beta.

    `every` thins the sample stream (keep one in `every`); the default
    keeps everything.
    """
    total = 0
    violations = 0
    worst = float("-inf")
    worst_sample = None
    for i, s in enumerate(samples):
        if i % every:
            continue
        total += 1
        residual = s.load - (alpha * s.target + beta)
        if residual > worst:
            worst = residual
            worst_sample = s
        if residual > 0:
            violations += 1
    if worst_sample is None:
        worst = 0.0
    return OverheadReport(total, violations, worst, worst_sample)


CSV_HEADER = "step,event,recourse_add,recourse_del,spanner_size,op_count,resamples,stretch_ok"


@dataclass(frozen=True)
class MetricsRow:
    step: int
    event: str
    recourse_add: int
    recourse_del: int
    spanner_size: int
    op_count: int
    resamples: int
    stretch_ok: str  # "1", "0", or "" when unchecked

    def format(self) -> str:
        return (
            f"{self.step},{self.event},{self.recourse_add},{self.recourse_del},"
            f"{self.spanner_size},{self.op_count},{self.resamples},{self.stretch_ok}"
        )


def write_metrics_csv(path: str, rows: Sequence[MetricsRow]) -> None:
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.format() + "\n")
