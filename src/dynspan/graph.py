"""Fixed-vertex-set dynamic graph over per-vertex bitmask rows.

Vertices are 0..n-1 and never change; edges are canonical (lo, hi) tuples
with lo < hi.  Adjacency is kept once, as one bitmask row per vertex (bit
v of row u is set iff (u, v) is an edge): membership tests a bit, degrees
count bits, and edges are walked bit by bit.  `mask_dist` is the one
bounded BFS over such rows: it grows the smaller of two frontiers, one
per endpoint, and is exact because two balls whose radii sum to less
than d(src, dst) are disjoint.

`rank_below` and `sample_below` are the program's one draw rule: every
draw reads a generator's `getrandbits` alone, so no stream rests on a
private function of `random`.
"""

from __future__ import annotations

from math import ceil, log
from typing import Callable, Iterable, Iterator, NamedTuple

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


INSERT = "+"
DELETE = "-"


def check_range(n: int, *vertices: int) -> None:
    """Raises VertexOutOfRange unless every vertex lies in [0, n)."""
    for v in vertices:
        if not 0 <= v < n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {n})")


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected form; rejects self-loops."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class UpdateEvent(NamedTuple):
    """One step of an update stream; seq is 1-based and strictly increasing."""

    seq: int
    kind: str  # INSERT or DELETE
    edge: tuple[int, int]


def by_kind(kind: str, insert, delete):
    """`insert` for an INSERT and `delete` for a DELETE; any other kind
    raises ValueError, so an update of it changes nothing."""
    if kind == INSERT:
        return insert
    if kind == DELETE:
        return delete
    raise ValueError(f"unknown event kind {kind!r}")


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def nth_bit(mask: int, r: int) -> int:
    """Index of the set bit of rank r in mask, counting from the lowest (r = 0)."""
    above = mask.bit_count() - 1 - r if r else 0  # set bits above the one sought
    if above < r:  # fewer to strip from the top
        for _ in range(above):
            mask ^= 1 << (mask.bit_length() - 1)
        return mask.bit_length() - 1
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def rank_below(getrandbits: Callable[[int], int], c: int) -> int:
    """A uniform draw from range(c), by the rank rule: redraw
    getrandbits(c.bit_length()) until the value is below c.  Under CPython
    3.11 it draws, from the same bits, what randrange(c) draws.  c < 1 raises
    ValueError: getrandbits(0) is always 0, so the rule would never stop."""
    if c < 1:
        raise ValueError(f"empty range for rank_below: {c}")
    k = c.bit_length()
    r = getrandbits(k)
    while r >= c:
        r = getrandbits(k)
    return r


def sample_below(getrandbits: Callable[[int], int], n: int, k: int) -> list[int]:
    """k distinct draws from range(n), in draw order, each by the rank rule.
    The two branches are CPython 3.11's `sample(range(n), k)`: when an
    n-list is smaller than a k-set, draw an index into the shrinking pool and
    fill its hole from the end; otherwise redraw from all of range(n) past
    the values drawn.  So it draws the same values, from the same bits."""
    if not 0 <= k <= n:
        raise ValueError(f"sample_below: cannot draw {k} of {n}")
    setsize = 21  # a small set's size less an empty list's, as `sample` has it
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        out = []
        for c in range(n, n - k, -1):
            b = c.bit_length()
            j = getrandbits(b)
            while j >= c:
                j = getrandbits(b)
            out.append(pool[j])
            pool[j] = pool[c - 1]
        return out
    b = n.bit_length()
    drawn: set[int] = set()
    out = []
    for _ in range(k):
        j = getrandbits(b)
        while j >= n or j in drawn:
            j = getrandbits(b)
        drawn.add(j)
        out.append(j)
    return out


def mask_dist(adj_mask: list[int], src: int, dst: int, cap: int | None = None) -> int | None:
    """Hop distance src->dst; None if > cap or unreachable.

    Bidirectional bitmask BFS: each round, of the two balls around src and
    dst, the one whose frontier has fewer bits grows one hop.  The first
    vertex of that frontier with a neighbour in the other ball gives the
    radius sum, the exact distance, since the balls were disjoint one hop
    earlier.  None once the radii sum to cap or a frontier empties."""
    if src == dst:
        return 0
    seen = frontier = 1 << src
    other_seen = other_frontier = 1 << dst
    d = 0
    while frontier and (cap is None or d < cap):
        if other_frontier.bit_count() < frontier.bit_count():
            seen, frontier, other_seen, other_frontier = other_seen, other_frontier, seen, frontier
        d += 1
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            row = adj_mask[low.bit_length() - 1]
            if row & other_seen:
                return d
            nxt |= row
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return None


def row_edges(rows: list[int]) -> Iterator[tuple[int, int]]:
    """Edges of symmetric rows in lexicographic order: each row's bits above the diagonal."""
    for u, row in enumerate(rows):
        row >>= u + 1
        while row:
            low = row & -row
            yield (u, u + low.bit_length())
            row ^= low


def check_rows(rows: list[int]) -> None:
    """Asserts that bitmask rows are the adjacency of a simple undirected
    graph on len(rows) vertices: symmetric, loop-free, in range."""
    for u, row in enumerate(rows):
        assert row >> len(rows) == 0 and not row >> u & 1
        for v in iter_bits(row):
            assert rows[v] >> u & 1, (u, v)


def mask_balls(adj_mask: list[int], src: int, depth: int) -> list[int]:
    """balls[d] = bitmask of the vertices within hop distance d of src, d = 0..depth."""
    seen = frontier = 1 << src
    balls = [seen]
    for _ in range(depth):
        nxt = 0
        m = frontier
        while m:
            nxt |= adj_mask[(m & -m).bit_length() - 1]
            m &= m - 1
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
        self.counter = counter or OpCounter()
        rows = self.adj_mask = [0] * n
        m = 0
        for u, v in edges:  # one inline loop, checked as it goes: the first bad edge raises
            if not (0 <= u < n and 0 <= v < n):
                check_range(n, u, v)
            if rows[u] >> v & 1 or u == v:
                raise DuplicateEdge(f"duplicate edge {edge_key(u, v)}")  # a self-loop: SelfLoop
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        self.m = m
        if m:
            self._charge(2 * m)  # two row bits per edge, charged once

    def _charge(self, k: int) -> None:
        self.counter.charge(k, "graph")

    def has_edge(self, u: int, v: int) -> bool:
        check_range(self.n, u, v)
        return self.adj_mask[u] >> v & 1 == 1

    def check_update(self, kind: str, u: int, v: int) -> tuple[int, int]:
        """The edge an update of `kind` on (u, v) applies to; raises what the
        update would raise, and changes nothing."""
        if kind != INSERT and kind != DELETE:
            raise ValueError(f"unknown event kind {kind!r}")
        check_range(self.n, u, v)
        e = edge_key(u, v)
        present = self.adj_mask[e[0]] >> e[1] & 1
        if kind == INSERT and present:
            raise EdgeExists(f"edge {e} already present")
        if kind == DELETE and not present:
            raise EdgeMissing(f"edge {e} not present")
        return e

    def insert_edge(self, u: int, v: int) -> tuple[int, int]:
        e = lo, hi = self.check_update(INSERT, u, v)
        self.adj_mask[lo] |= 1 << hi
        self.adj_mask[hi] |= 1 << lo
        self.m += 1
        self._charge(2)
        return e

    def delete_edge(self, u: int, v: int) -> tuple[int, int]:
        e = lo, hi = self.check_update(DELETE, u, v)
        self.adj_mask[lo] &= ~(1 << hi)
        self.adj_mask[hi] &= ~(1 << lo)
        self.m -= 1
        self._charge(2)
        return e

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in lexicographic order."""
        return row_edges(self.adj_mask)

    def apply(self, event: UpdateEvent) -> tuple[int, int]:
        return by_kind(event.kind, self.insert_edge, self.delete_edge)(*event.edge)

    def copy(self) -> "DynamicGraph":
        g = DynamicGraph(self.n)
        g.m = self.m
        g.adj_mask = list(self.adj_mask)
        return g

    def check_invariants(self) -> None:
        assert len(self.adj_mask) == self.n
        assert self.m * 2 == sum(row.bit_count() for row in self.adj_mask)
        check_rows(self.adj_mask)
