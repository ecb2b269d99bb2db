"""Fixed-vertex-set dynamic graph with set adjacency and bitmask mirrors.

Vertices are 0..n-1 and never change; edges are canonical (lo, hi) tuples
with lo < hi.  Adjacency is kept both as per-vertex sets (for iteration
and the elementary-op cost model) and as per-vertex bitmasks (for fast
bounded BFS).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from dynspan.instrumentation import OpCounter


class GraphError(Exception):
    pass


class VertexOutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class EdgeExists(GraphError):
    pass


class EdgeMissing(GraphError):
    pass


class UnsupportedUpdate(GraphError):
    """An update of a kind the structure does not take."""


EdgeKey = tuple  # (lo, hi) with lo < hi

INSERT = "+"
DELETE = "-"


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected form; rejects self-loops."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class UpdateEvent:
    """One step of an update stream; seq is 1-based and strictly increasing."""

    seq: int
    kind: str  # INSERT or DELETE
    edge: tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def nth_bit(mask: int, r: int) -> int:
    """Index of the set bit of rank r in mask, counting from the lowest (r = 0)."""
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def edge_prefix(adj_mask: list[int]) -> list[int]:
    """prefix[u] = number of edges (x, y), x < y, with x <= u, of symmetric
    adjacency bitmasks; prefix[-1] is the edge count."""
    return list(accumulate((row >> (u + 1)).bit_count() for u, row in enumerate(adj_mask)))


def edge_at(adj_mask: list[int], prefix: list[int], r: int) -> tuple[int, int]:
    """The edge of rank r in lexicographic order, given `prefix = edge_prefix(adj_mask)`:
    the row u holding it by bisection, then the bit of the right rank above u."""
    u = bisect_right(prefix, r)
    below = prefix[u - 1] if u else 0
    return u, u + 1 + nth_bit(adj_mask[u] >> (u + 1), r - below)


def mask_dist(adj_mask: list[int], src: int, dst: int, cap: int | None = None) -> int | None:
    """Hop distance src->dst by level-wise bitmask BFS; None if > cap or unreachable."""
    if src == dst:
        return 0
    target = 1 << dst
    visited = 1 << src
    frontier = visited
    d = 0
    while frontier and (cap is None or d < cap):
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj_mask[low.bit_length() - 1]
            m ^= low
        nxt &= ~visited
        d += 1
        if nxt & target:
            return d
        visited |= nxt
        frontier = nxt
    return None


def mask_balls(adj_mask: list[int], src: int, depth: int) -> list[int]:
    """balls[d] = bitmask of the vertices within hop distance d of src, d = 0..depth."""
    seen = frontier = 1 << src
    balls = [seen]
    for _ in range(depth):
        nxt = 0
        for x in iter_bits(frontier):
            nxt |= adj_mask[x]
        frontier = nxt & ~seen
        seen |= frontier
        balls.append(seen)
    return balls


class DynamicGraph:
    """Undirected simple graph over a fixed vertex set with edge updates."""

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        counter: OpCounter | None = None,
    ) -> None:
        if n < 0:
            raise VertexOutOfRange(f"negative vertex count {n}")
        self.n = n
        self.m = 0
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.adj_mask: list[int] = [0] * n
        self.counter = counter or OpCounter()
        for u, v in edges:
            self._check_range(u)
            self._check_range(v)
            e = edge_key(u, v)
            if self.has_edge(*e):
                raise DuplicateEdge(f"duplicate edge {e}")
            self._link(*e)

    def _check_range(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")

    def _charge(self, k: int) -> None:
        self.counter.charge(k, "graph")

    def _link(self, lo: int, hi: int) -> None:
        self.adj[lo].add(hi)
        self.adj[hi].add(lo)
        self.adj_mask[lo] |= 1 << hi
        self.adj_mask[hi] |= 1 << lo
        self.m += 1
        self._charge(2)

    def _unlink(self, lo: int, hi: int) -> None:
        self.adj[lo].remove(hi)
        self.adj[hi].remove(lo)
        self.adj_mask[lo] &= ~(1 << hi)
        self.adj_mask[hi] &= ~(1 << lo)
        self.m -= 1
        self._charge(2)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_range(u)
        self._check_range(v)
        return v in self.adj[u]

    def insert_edge(self, u: int, v: int) -> tuple[int, int]:
        self._check_range(u)
        self._check_range(v)
        e = edge_key(u, v)
        if e[1] in self.adj[e[0]]:
            raise EdgeExists(f"edge {e} already present")
        self._link(*e)
        return e

    def delete_edge(self, u: int, v: int) -> tuple[int, int]:
        self._check_range(u)
        self._check_range(v)
        e = edge_key(u, v)
        if e[1] not in self.adj[e[0]]:
            raise EdgeMissing(f"edge {e} not present")
        self._unlink(*e)
        return e

    def degree(self, v: int) -> int:
        self._check_range(v)
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in lexicographic order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if v > u:
                    yield (u, v)

    def bfs_dist(self, u: int, v: int, cap: int | None = None) -> int | None:
        """Exact hop distance if <= cap (None means uncapped); None if beyond."""
        self._check_range(u)
        self._check_range(v)
        if cap is not None and cap < 0:
            raise ValueError("cap must be >= 0")
        return mask_dist(self.adj_mask, u, v, cap)

    def apply(self, event: UpdateEvent) -> tuple[int, int]:
        if event.kind == INSERT:
            return self.insert_edge(*event.edge)
        if event.kind == DELETE:
            return self.delete_edge(*event.edge)
        raise ValueError(f"unknown event kind {event.kind!r}")

    def copy(self) -> "DynamicGraph":
        g = DynamicGraph(self.n)
        g.m = self.m
        g.adj = [set(a) for a in self.adj]
        g.adj_mask = list(self.adj_mask)
        return g

    def to_text(self) -> str:
        """Canonical serialization: header `N <n>` then one `<lo> <hi>` line per edge."""
        lines = [f"N {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DynamicGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("N "):
            raise ValueError("missing `N <n>` header")
        n = int(lines[0][2:])
        edges = []
        for ln in lines[1:]:
            a, b = ln.split()
            edges.append((int(a), int(b)))
        return cls(n, edges)

    def check_invariants(self) -> None:
        assert self.m * 2 == sum(len(a) for a in self.adj)
        for u in range(self.n):
            assert self.adj_mask[u] == sum(1 << v for v in self.adj[u])
            for v in self.adj[u]:
                assert u != v
                assert u in self.adj[v]
