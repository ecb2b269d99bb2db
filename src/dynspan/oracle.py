"""Ground-truth verification: stretch, girth, and a reference greedy spanner.

Every result here is a pure function of its inputs; repeated calls on
the same snapshot are identical, with or without a `StretchMemo`.
Stretch is verified over the edges of the host graph only: for
unweighted graphs, dist_H(u,v) <= t on every host edge (u,v) implies the
same bound on every vertex pair (subdivide an arbitrary shortest path
edge by edge).

A host edge that is also a spanner edge is at spanner distance 1, which
its bit in the spanner's adjacency mask shows, so it needs no search.
Any other host edge (u, v) is within distance d exactly when the ball of
radius ceil(d/2) around u meets the ball of radius floor(d/2) around v
(split a shortest path at its midpoint).  One pass over every row takes
each row's non-spanner edges above the diagonal, and only the rows that
have some are walked.  Distance 2 is tested first, a row u at a time:
(u, v) is at distance 2 exactly when u's and v's spanner neighborhoods
meet.  A row with more non-spanner edges above u
than spanner neighbors of u ANDs them all at once with u's 2-ball
(composed for the row, or a reach level already when t >= 4); any other
row tests each edge with one AND of two adjacency masks.  Only the edges
left run the larger radii: reach sets are composed for every vertex only
up to radius floor(t/2).  For odd t the last radius is settled around
one endpoint: the first edge of a row that needs it composes one radius
more around u, unless it is the row's last edge beyond distance 2.  That
edge instead walks the spanner neighbors x of the endpoint with the
smaller spanner degree and stops at the first x whose floor(t/2)-ball
meets the other endpoint's (a path of odd length t splits at its
midpoint, so the test is symmetric).  An unbounded BFS runs only for an
edge that fails.

A `StretchMemo` carries the subgraph check and the distance-2 verdicts
from one call to the next.  It holds copies of the host and spanner rows
of the last call that completed, each row's non-spanner edges above the
diagonal (`rests`) and those of them beyond distance 2 (`lefts`).  A
call with the memo finds the rows whose host or spanner row changed in
one pass against the copies.  A mask-form spanner is checked against the
host on those rows only: every other row was a subset of its host row
when the memo's call completed and is one still, so the lowest bad row
is a changed one, and the error is the one the whole check raises.  The
memo is written only after that check passes.  Distance 2 is then
settled again on the changed rows only; for each such row d the call
re-tests the non-spanner edge (x, d), x < d, of each other row x with
one AND.  That is exact for every t: the verdict of a non-spanner edge
(u, v) is masks[u] & masks[v] != 0, which reads rows u and v alone, and
a row that did not change keeps its non-spanner edges, since a changed
edge changes both of its rows.  The search beyond distance 2 runs on
every call, and the report is built from the per-row facts, so it is the
one a call without the memo gives.  A call without a memo, or with a
memo of another n or t, runs the same code with every row changed and
checks every row against the host.

`verify_stretch` takes the spanner either as edges or as `SpannerMasks`,
the adjacency bitmasks a structure keeps next to its output (every
structure answers `spanner_masks()`).  Both forms run the same search,
so their reports are identical.  Both are checked against the host
before any row is walked: the subgraph check names the first bad edge of
h for edges, and the lowest bad bit of the lowest bad row for masks,
whose rows it checks in one pass, or, with a memo, on the changed rows
alone.  A mask list of the wrong length raises ValueError either way.
The CLI's per-step check passes the structure's masks, which saves
rebuilding them from an edge list on every step; the acceptance tests
and the benchmark's final check pass edges, and the edge form stays the
ground truth that tests compare against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import and_, ne, or_, xor
from typing import Iterable, NamedTuple, Sequence

from dynspan.graph import DynamicGraph, edge_key, iter_bits, mask_dist
from dynspan.instrumentation import adjacency_masks


class SpannerNotSubgraph(Exception):
    pass


class OrderNotPermutation(Exception):
    pass


class StretchReport(NamedTuple):
    ok: bool
    worst_edge: tuple[int, int] | None
    worst_dist: float  # hop count; inf when the witness pair is disconnected

    def __bool__(self) -> bool:
        return self.ok


class SpannerMasks(NamedTuple):
    """A spanner given as symmetric per-vertex adjacency bitmasks: bit v of
    rows[u] is set iff (u, v) is a spanner edge.  `verify_stretch` reads the
    rows and never changes them."""

    rows: list[int]


class StretchMemo:
    """What the last `verify_stretch` call that completed on (n, t) leaves
    for the next one: copies of the host and spanner rows it read, which
    pick the rows the next call checks against the host and settles
    again, each row's non-spanner edges above the diagonal (`rests`) and
    the subset of those beyond distance 2 (`lefts`).  `key` is (n, t), or
    None before the first such call and while one runs past its subgraph
    check."""

    def __init__(self) -> None:
        self.key: tuple[int, int] | None = None
        self.adj: list[int] = []
        self.rows: list[int] = []
        self.rests: list[int] = []
        self.lefts: list[int] = []


def grow(masks: list[int], inner: list[int], u: int) -> int:
    """masks[u] | inner[x] for every neighbor x of u: one radius more
    around u than the balls in `inner` have around each vertex."""
    acc = m = masks[u]
    while m:
        low = m & -m
        acc |= inner[low.bit_length() - 1]
        m ^= low
    return acc


def reach_levels(masks: list[int], r: int) -> list[list[int]]:
    """levels[j][u] = bitmask of the vertices that a walk of 1..j+1 edges
    reaches from u, for j < r: every vertex at distance 1..j+1, and u
    itself once j >= 1 and u has a neighbor.

    Built by r-fold neighborhood composition; total cost O(r * sum(deg)).
    `verify_stretch` composes only r = floor(t/2) levels: a shortest path
    splits at its midpoint, so a check of stretch t never needs a radius
    beyond that around the upper endpoint of an edge.
    """
    levels = [list(masks)]
    for _ in range(r - 1):
        prev = levels[-1]
        levels.append([grow(masks, prev, u) for u in range(len(masks))])
    return levels


def raise_bad_row(g: DynamicGraph, rows: list[int]) -> None:
    """Raise SpannerNotSubgraph naming the lowest bad bit of the lowest row
    with a bit outside g's row; return if there is none."""
    for u, (m, a) in enumerate(zip(rows, g.adj_mask)):
        bad = m & ~a
        if bad:
            v = (bad & -bad).bit_length() - 1
            raise SpannerNotSubgraph(f"spanner edge {(u, v)} not in host graph")


def mask_rows(g: DynamicGraph, h: SpannerMasks) -> list[int]:
    """h's rows, after checking that there is one per vertex of g (a row
    check by `zip` would pass over the missing or extra ones)."""
    rows = h.rows
    if len(rows) != g.n:
        raise ValueError(f"{len(rows)} spanner mask rows for {g.n} vertices")
    return rows


def subgraph_masks(g: DynamicGraph, h: Iterable[tuple[int, int]] | SpannerMasks) -> list[int]:
    """The adjacency masks of the spanner h, given as edges or masks, after
    checking h against g.  SpannerNotSubgraph names the first bad edge in
    h's order, or the lowest bad bit of the lowest bad mask row; the rows
    are checked in one pass, and `raise_bad_row` runs only to name it."""
    if isinstance(h, SpannerMasks):
        rows = mask_rows(g, h)
        if list(map(or_, rows, g.adj_mask)) != g.adj_mask:
            raise_bad_row(g, rows)
        return rows
    edges = list(h)
    try:
        masks = adjacency_masks(g.n, edges)
        clean = not any(m & ~a for m, a in zip(masks, g.adj_mask))
    except (IndexError, ValueError):  # a vertex out of range
        clean = False
    if not clean:  # name the first bad edge of h, in the words of has_edge
        for u, v in edges:
            if not g.has_edge(u, v):
                raise SpannerNotSubgraph(f"spanner edge {(u, v)} not in host graph")
    return masks


@lru_cache(maxsize=8)
def above_masks(n: int) -> tuple[int, ...]:
    """above_masks(n)[u] has every bit v > u set: ANDed with a row, the
    row's edges (u, v) with v > u."""
    return tuple(-(2 << u) for u in range(n))


def verify_stretch(
    g: DynamicGraph,
    h_edges: Iterable[tuple[int, int]] | SpannerMasks,
    t: int,
    memo: StretchMemo | None = None,
) -> StretchReport:
    """Check dist_H(u,v) <= t for every host edge (u,v).  The witness on
    failure is the edge with the largest (possibly infinite) spanner
    distance, the first one in lexicographic order.  H is given as edges
    or as `SpannerMasks`, with the same report.

    H is checked against g (`subgraph_masks`) before any row is walked.
    Every row's non-spanner edges above the diagonal are taken in one
    pass, so only the rows that have some are walked.  Each row's
    distance-2 edges are settled before any other: with one AND per edge,
    or with one AND against the row's 2-ball when the row has more
    non-spanner edges above it than spanner neighbors (the smaller side
    is walked, as in `mask_dist`).  For odd t, a row's last edge beyond
    the rings walks the neighbors of its endpoint with the smaller
    spanner degree to the first witness instead of composing one radius
    more around u.  On a passing input every edge is decided from reach
    sets, and `mask_dist` never runs.

    With a `memo`, the rows whose host or spanner row changed since the
    memo's last call are the only ones checked against the host, for
    masks, and the only ones whose distance 2 is settled again, with the
    non-spanner edges from other rows into them, one AND each; the report
    or error is the one a call without it gives.  The memo's copies pick
    the rows to check, and nothing is written to the memo until they
    pass, so a call that raises there leaves it as it was.  A memo of
    another n or t is started over."""
    n, adj = g.n, g.adj_mask
    fresh = memo is None or memo.key != (n, t)
    if fresh or not isinstance(h_edges, SpannerMasks):
        masks = subgraph_masks(g, h_edges)
    else:  # checked against the host on the changed rows only, below
        masks = mask_rows(g, h_edges)
    if not fresh:
        # the rows whose host or spanner row changed since the memo's call;
        # every other row was a subgraph row then and is one still, so the
        # lowest bad row, if any, is a changed one
        dirty = list(compress(range(n), map(ne, zip(adj, masks), zip(memo.adj, memo.rows))))
        changed = [(d, adj[d], masks[d]) for d in dirty]
        if any(md & ~a for _, a, md in changed):
            raise_bad_row(g, masks)

    worst: float = 0.0
    worst_edge: tuple[int, int] | None = None
    levels = reach_levels(masks, t // 2) if t >= 2 else []
    odd = t >= 3 and t % 2 == 1  # then d = t needs one radius more around u
    # (d, the ceil(d/2)-balls, the floor(d/2)-balls) for d = 3 .. t, or t - 1 when odd
    rings = [(d, levels[(d + 1) // 2 - 1], levels[d // 2 - 1]) for d in range(3, t + 1 - odd)]
    top = levels[-1] if levels else []
    balls = levels[1] if t >= 4 else None  # every 2-ball, composed already
    above = above_masks(n)
    if fresh:
        # rests[u]: the non-spanner host edges (u, v), v > u; masks are a
        # subgraph of the host now, so XOR takes the spanner edges out
        rests = list(map(and_, map(xor, adj, masks), above))
        lefts = [0] * n
        dirty = compress(range(n), rests)  # every row; one with no rests keeps lefts 0
    else:
        rests, lefts = memo.rests, memo.lefts
        memo.key = None  # stale until this call completes
        for d, a, md in changed:
            memo.adj[d], memo.rows[d] = a, md
            rests[d] = (a ^ md) & above[d]
            # (x, d), x < d, stays in rests[x] when row x is clean, and only
            # its distance-2 verdict, masks[x] & masks[d], can change; a
            # dirty row x is settled whole below
            bit = 1 << d
            m = (a ^ md) & (bit - 1)
            while m:
                low = m & -m
                x = low.bit_length() - 1
                if masks[x] & md:
                    lefts[x] &= ~bit
                else:
                    lefts[x] |= bit
                m ^= low
    # lefts[u]: the edges of rests[u] beyond distance 2
    for u in dirty:
        rest = rests[u]
        mu = masks[u]
        if balls is not None:
            left = rest & ~balls[u]
        elif rest.bit_count() > mu.bit_count():  # compose u's 2-ball, then one AND
            left = rest & ~grow(masks, masks, u)
        else:  # one AND per edge
            left = 0
            m = rest
            while m:
                low = m & -m
                if not mu & masks[low.bit_length() - 1]:
                    left |= low
                m ^= low
        lefts[u] = left
    for u in compress(range(n), lefts):
        left = lefts[u]
        mu = masks[u]
        far = 0  # within 1..ceil(t/2) of u, composed on first need, or set by the walk
        while left:
            low = left & -left
            v = low.bit_length() - 1
            left ^= low
            for d, around_u, around_v in rings:
                if around_u[u] & around_v[v]:
                    break
            else:
                if odd and not far:
                    if left:  # compose u's ball once for the row's edges
                        far = grow(masks, top, u)
                    else:  # the row's last edge: walk the smaller side to a witness
                        mv = masks[v]
                        if mv.bit_count() < mu.bit_count():
                            walk, other = mv, top[u]
                        else:
                            walk, other = mu, top[v]
                        while walk and not top[(walk & -walk).bit_length() - 1] & other:
                            walk &= walk - 1
                        far = -1 if walk else 0  # all ones: a witness puts v within t
                d = t if odd and far & top[v] else (mask_dist(masks, u, v) or math.inf)
            if d > worst:
                worst, worst_edge = d, (u, v)
    if worst_edge is None:  # no edge beyond distance 2: the first one at distance 2
        u = next(compress(range(n), map(ne, rests, lefts)), None)
        if u is not None:
            near = rests[u] ^ lefts[u]
            worst, worst_edge = 2, (u, (near & -near).bit_length() - 1)
        else:  # no non-spanner edge: the first host edge, at distance 1
            for u, row in enumerate(map(and_, adj, above)):
                if row:
                    worst, worst_edge = 1, (u, (row & -row).bit_length() - 1)
                    break
    if memo is not None:
        if fresh:
            memo.adj, memo.rows, memo.rests, memo.lefts = list(adj), list(masks), rests, lefts
        memo.key = (n, t)
    return StretchReport(worst_edge is None or worst <= t, worst_edge, worst)


def girth_at_least(n: int, h_edges: Iterable[tuple[int, int]], g_min: int) -> bool:
    """True iff (V, h) has no cycle shorter than g_min.

    BFS from every vertex up to depth floor((g_min-1)/2).  A shortest cycle
    of length 2i+1 shows up as an edge inside level i of the BFS from any
    of its vertices; length 2i as a level-i vertex with two parents in
    level i-1 (no shortcuts exist on a shortest cycle, so along-cycle
    distances equal BFS depths).  Simple graphs have girth >= 3 trivially.
    """
    if g_min <= 3:
        return True
    masks = adjacency_masks(n, h_edges)
    depth = (g_min - 1) // 2  # even cycles 2i <= g_min-1 need levels up to i = depth
    odd_limit = (g_min - 2) // 2  # odd cycles 2i+1 <= g_min-1 need i <= odd_limit
    for root in range(n):
        if not masks[root]:
            continue
        prev = 1 << root
        visited = prev
        cur = masks[root]
        i = 1
        while cur:
            acc = 0
            for x in iter_bits(cur):
                mx = masks[x]
                if (mx & prev).bit_count() >= 2:
                    return False  # cycle of length <= 2i
                if i <= odd_limit and mx & cur:
                    return False  # cycle of length <= 2i+1
                acc |= mx
            if i == depth:
                break
            visited |= cur
            prev = cur
            cur = acc & ~visited
            i += 1
    return True


def reference_greedy(
    g: DynamicGraph,
    k: int,
    order: Sequence[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Order-driven greedy (2k-1)-spanner; returns accepted edges in
    acceptance order.  An edge joins iff its endpoints are at spanner
    distance >= 2k when inspected."""
    if k < 1:
        raise ValueError("k must be >= 1")
    canon = [edge_key(u, v) for u, v in order]
    if sorted(canon) != list(g.edges()):
        raise OrderNotPermutation("order is not a permutation of the graph's edges")
    masks = [0] * g.n
    accepted: list[tuple[int, int]] = []
    cap = 2 * k - 1
    for u, v in canon:
        if mask_dist(masks, u, v, cap) is None:
            accepted.append((u, v))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return accepted
