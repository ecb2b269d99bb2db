"""Recourse and elementary-operation accounting, and the metrics CSV.

All algorithm modules report through these structures so that runs are
comparable and byte-reproducible.  Costs are counted in elementary
ordered-set operations (insert/delete/find on a maintained index), not
wall-clock time, so assertions are machine independent.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence


class InvariantBroken(Exception):
    """A structure found one of its own invariants broken: a bug, not bad input.

    Raised instead of `assert` on production paths, so the check survives
    `python -O`.
    """


class Step(NamedTuple):
    """What one update did, as every structure's `update(ev) -> Step` reports it."""

    op_count: int  # the update's own op-counter step, closed by `update`
    resamples: int
    adds: int  # output recourse: members gained and lost
    dels: int
    output_size: int  # after the update

    @classmethod
    def of(cls, changes, op_count: int, resamples: int, output_size: int) -> "Step":
        """The step of (edge, "+"/"-") changes such as `RoleSet.flush()` returns,
        in any order: only the signs are counted."""
        adds = sum(1 for _, sign in changes if sign == "+")
        return cls(op_count, resamples, adds, len(changes) - adds, output_size)


def adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Symmetric per-vertex bitmasks over 0..n-1 of the edges (u, v)."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


class EdgeRanks:
    """Rank-select over the edges (u, v), u < v, of symmetric bitmask rows in
    lexicographic order: a Fenwick tree over the rows' counts of bits above
    the diagonal.  It reads `rows` in place, so whoever sets or clears the
    bits of an edge (u, v), u < v, calls `add(u, +-1)`."""

    def __init__(self, rows: list[int]) -> None:
        self.rows = rows
        counts = [(row >> (u + 1)).bit_count() for u, row in enumerate(rows)]
        self.total = sum(counts)
        self.tree = tree = [0, *counts]  # 1-based: row u is node u + 1
        for i in range(1, len(tree)):
            j = i + (i & -i)
            if j < len(tree):
                tree[j] += tree[i]

    def add(self, u: int, d: int) -> None:
        tree, i = self.tree, u + 1
        while i < len(tree):
            tree[i] += d
            i += i & -i
        self.total += d

    def edge_at(self, r: int) -> tuple[int, int]:
        """The edge of rank r, 0 <= r < total: the row by descending the
        tree, O(log n), then the bit of the right rank in it."""
        tree, u = self.tree, 0
        step = 1 << (len(tree) - 1).bit_length() >> 1
        while step:  # u = the number of rows whose edges all rank below r
            if u + step < len(tree) and tree[u + step] <= r:
                u += step
                r -= tree[u]
            step >>= 1
        row = self.rows[u] >> (u + 1)
        for _ in range(r):
            row &= row - 1
        return u, u + (row & -row).bit_length()


class RoleSet:
    """A maintained output whose members are the edges holding at least one role.

    `count` maps each member to its number of roles; its keys are the output
    itself.  Within a step only an edge's first 0<->1 transition records its
    old membership, so `flush` can report the net change of the step, in
    the order of those first transitions; no caller needs them sorted.

    Members are (u, v) edges over vertices 0..n-1, `masks` are their
    symmetric per-vertex adjacency bitmasks and `ranks` the `EdgeRanks` of
    those masks.  Each is built on its first read, the masks also on the
    ranks' first read, and kept from then on by the same 0<->1 transitions:
    a structure whose masks nobody reads pays nothing for them, and one
    whose ranks nobody reads pays nothing for those.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.count: dict[tuple[int, int], int] = {}
        self._was: dict[tuple[int, int], bool] = {}  # membership before the current step
        self._masks: list[int] | None = None
        self._ranks: EdgeRanks | None = None

    @property
    def masks(self) -> list[int]:
        if self._masks is None:
            self._masks = adjacency_masks(self.n, self.count)
        return self._masks

    @property
    def ranks(self) -> EdgeRanks:
        if self._ranks is None:
            self._ranks = EdgeRanks(self.masks)
        return self._ranks

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
                if self._ranks is not None:
                    self._ranks.add(u, 1)

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
                if self._ranks is not None:
                    self._ranks.add(u, -1)

    def check_masks(self) -> None:
        """Built masks equal the adjacency of the members, and built ranks
        read those masks and equal a fresh build; unbuilt ones are not checked."""
        if self._masks is not None:
            assert self._masks == adjacency_masks(self.n, self.count)
        if self._ranks is not None:
            assert self._ranks.rows is self._masks
            assert vars(self._ranks) == vars(EdgeRanks(self._masks))

    def flush(self) -> list[tuple[tuple[int, int], str]]:
        """The (edge, "+"/"-") net membership changes since the last flush, in
        the order of each edge's first transition: deterministic, unsorted."""
        if not self._was:
            return []
        count = self.count
        out = [(e, "-" if was else "+") for e, was in self._was.items() if was != (e in count)]
        self._was.clear()
        return out


class RoleOutput:
    """The output queries of a structure whose output is the members of `self.roles`."""

    roles: RoleSet

    def spanner_edges(self) -> set[tuple[int, int]]:
        return set(self.roles.count)  # from the dict, not a keys view: set() reuses its hashes

    def spanner_size(self) -> int:
        return len(self.roles.count)

    def spanner_masks(self) -> list[int]:
        return self.roles.masks

    def spanner_ranks(self) -> EdgeRanks:
        return self.roles.ranks


class OpCounter:
    """Counts elementary ordered-set operations, attributed per module.

    A "step" is one update of the structure under test; `end_step` closes
    the current window.  Charges are deterministic functions of the update
    sequence, never of timing.
    """

    def __init__(self) -> None:
        self.current = 0
        self.last_step = 0  # the count of the last closed step
        self.by_module: Counter[str] = Counter()

    @property
    def total(self) -> int:
        """Every op charged so far, each to one module."""
        return sum(self.by_module.values())

    def charge(self, n: int, module: str) -> None:
        self.current += n
        self.by_module[module] += n

    def end_step(self) -> int:
        count = self.last_step = self.current
        self.current = 0
        return count


CSV_HEADER = "step,event,recourse_add,recourse_del,spanner_size,op_count,resamples,stretch_ok"


class MetricsRow(NamedTuple):
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
