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
(split a shortest path at its midpoint).  Each row's non-spanner edges
above the diagonal are tested at distance 2 first, a row u at a time:
(u, v) is at distance 2 exactly when u's and v's spanner neighborhoods
meet.  A row with more such edges than spanner neighbors ANDs them all
at once with u's 2-ball (composed for the row, or a reach level already
when t >= 4); any other row tests each edge with one AND of two
adjacency masks.  Only the edges left (`lefts`) run the larger
radii, up to r = min(t, n): no finite distance exceeds n - 1, so a
larger t gives the report of t = n, judged against t.  Reach sets are
composed for every vertex up to radius floor(r/2).  For odd r, every
edge still open after the rings walks the spanner neighbors x of its
endpoint with the smaller spanner degree and stops at the first x whose
floor(r/2)-ball meets the other endpoint's, which puts the edge at
distance r (a path of odd length r splits at its midpoint, so the test
is symmetric).  An unbounded BFS runs only for an edge with no witness.

A `StretchMemo` carries the subgraph check and the distance-2 verdicts
from one call to the next.  It holds the (host row, spanner row) pair
of each vertex at the last call that completed on (n, t), with each
row's `lefts`.  A call finds the rows whose pair differs from the
memo's in one pass.  A call without a memo keyed on (n, t) starts from
None for every pair, which no row equals, so it runs the same code with
every row changed.  Only the changed rows are checked against the host:
every other row was a subset of its host row when the memo's call
completed and is one still, so the lowest bad row is a changed one, and
the error is the one a call without the memo raises.  The memo is
written only after that check passes.  Distance 2 is then settled again
on the changed rows only; for each such row d the call re-tests the
non-spanner edge (x, d) of each unchanged row x < d with one AND.  That
is exact for every t: the verdict of a non-spanner edge (u, v) is
masks[u] & masks[v] != 0, which reads rows u and v alone, and an
unchanged row keeps its non-spanner edges, since a changed edge changes
both of its rows.

When r = 3 a memo also keeps a certificate for each far edge (u, v) the
walk put at distance 3: its witness x, a spanner neighbor of one
endpoint whose row meets the other endpoint's.  That fact reads rows u,
x and v alone, so while none of the three changes, (u, v) stays within
distance 3, and `lefts` keeps it beyond 2.  A call drops every
certificate that reads a changed row: those of the changed row's own
edges, of the edges (x, c) from unchanged rows into a changed row c,
and of the edges c witnesses, through a reverse index from each witness
to its edges.  It walks only the far edges left without one, in
lexicographic order; an edge the walk cannot certify (beyond distance 3)
stays open and is walked again on every later call.  If no walked edge
lies beyond 3, the report reads the rows alone: the first far edge, at
distance 3, else the first non-spanner edge, at 2, else the first host
edge, at 1; otherwise it is the first walked edge of the largest
distance.  So the report is the one a call without the memo gives.
Every other call walks every far edge: without a memo there is nowhere
to keep a certificate, and for odd r >= 5 a witness reads the
floor(r/2)-balls, which depend on more rows than three.

`verify_stretch` takes the spanner either as edges or as `SpannerMasks`,
the adjacency bitmasks a structure keeps next to its output (every
structure answers `spanner_masks()`).  Both forms run the same search,
so their reports are identical.  Both are checked against the host
before any row is walked: `subgraph_masks` names the first bad edge of h
for edges, and the changed-row check the lowest bad bit of the lowest
bad row for masks.  A mask list of the wrong length raises ValueError.
The CLI's per-step check passes the structure's masks, which saves
rebuilding them from an edge list on every step; the acceptance tests
and the benchmark's final check pass edges, and the edge form stays the
ground truth that tests compare against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from operator import and_, itemgetter, ne, xor
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
    for the next one: `seen[u]`, the (host row, spanner row) pair it read
    for each vertex u, which picks the rows the next call checks against
    the host and settles again, and `lefts[u]`, row u's non-spanner edges
    above the diagonal that lie beyond distance 2.  When min(t, n) = 3
    it also keeps the far edges' certificates: `opens[u]` holds the edges
    of `lefts[u]` with none, and `vouches[x]` the ids u * n + v of the
    edges (u, v) that x was found to witness (an id whose certificate
    went with a changed row u or v stays until x changes, which costs at
    most a walk); both are empty lists otherwise.  `key` is (n, t), or
    None before the first such call and while one runs past its subgraph
    check; a call that raises before that leaves the memo as it was."""

    def __init__(self) -> None:
        self.key: tuple[int, int] | None = None
        self.seen: list[tuple[int, int] | None] = []
        self.lefts: list[int] = []
        self.opens: list[int] = []
        self.vouches: list[set[int]] = []


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
    `verify_stretch` composes max(floor(min(t, n)/2), 1) levels: a shortest
    path splits at its midpoint, and no finite distance exceeds n - 1.
    """
    levels = [list(masks)]
    for _ in range(r - 1):
        prev = levels[-1]
        levels.append([grow(masks, prev, u) for u in range(len(masks))])
    return levels


def subgraph_masks(g: DynamicGraph, h: Iterable[tuple[int, int]]) -> list[int]:
    """The adjacency masks of the spanner edges h, after checking h against
    g: SpannerNotSubgraph names the first bad edge in h's order."""
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

    The rows whose (host row, spanner row) pair differs from the memo's,
    every row without a memo keyed on (n, t), are checked against the
    host, and nothing is written to the memo until they pass, so a call
    that raises leaves it as it was.  Each changed row's non-spanner
    edges above the diagonal are then settled at distance 2: with one
    AND per edge, or with one AND against the row's 2-ball when the row
    has more of them than spanner neighbors (the smaller side is
    walked, as in `mask_dist`).  The non-spanner edges from unchanged
    rows into a changed one take one AND each.  The edges beyond
    distance 2 run the rings up to radius min(t, n); for odd radius, each
    one still open walks the neighbors of its endpoint with the smaller
    spanner degree to the first witness.  At radius 3 with a memo, only
    the far edges without a certificate are walked: those whose own row,
    other endpoint's row or witness row changed, and those beyond
    distance 3.  When no edge lies beyond 3, the report is the first
    edge of the farthest tier: far edges at 3, non-spanner edges at 2,
    host edges at 1.  On a passing input every edge is decided from reach
    sets, and `mask_dist` never runs.  The report or error is the one a
    call without the memo gives."""
    n, adj = g.n, g.adj_mask
    if isinstance(h_edges, SpannerMasks):
        masks = h_edges.rows
        if len(masks) != n:  # the row pass below would skip the missing or extra rows
            raise ValueError(f"{len(masks)} spanner mask rows for {n} vertices")
    else:
        masks = subgraph_masks(g, h_edges)
    r = min(t, n)  # no finite distance exceeds n - 1
    keep = memo is not None and r == 3  # then far edges keep their certificates
    if memo is not None and memo.key == (n, t):
        seen, lefts, opens, vouches = memo.seen, memo.lefts, memo.opens, memo.vouches
    else:  # no pair that a row could equal
        seen, lefts = [None] * n, [0] * n
        opens, vouches = ([0] * n, [set() for _ in range(n)]) if keep else ([], [])
    differs = map(ne, zip(adj, masks), seen)
    # one pass over every row; only the changed ones are indexed (zipping a
    # third list into the pass costs more than that at n = 144)
    changed = [(u, adj[u], mu) for u, mu in compress(enumerate(masks), differs)]
    for u, a, mu in changed:  # ascending; an unchanged row is a subgraph row still
        bad = mu & ~a
        if bad:
            v = (bad & -bad).bit_length() - 1
            raise SpannerNotSubgraph(f"spanner edge {(u, v)} not in host graph")
    if memo is not None:
        memo.key = None  # stale until this call completes
        memo.seen, memo.lefts, memo.opens, memo.vouches = seen, lefts, opens, vouches
    if not keep:  # every far edge is walked
        opens = lefts

    worst: float = 0.0
    worst_edge: tuple[int, int] | None = None
    levels = reach_levels(masks, max(r // 2, 1))
    odd = r >= 3 and r % 2 == 1  # then d = r is settled by the walk
    # (d, the ceil(d/2)-balls, the floor(d/2)-balls) for d = 3 .. r, or r - 1 when odd
    rings = [(d, levels[(d + 1) // 2 - 1], levels[d // 2 - 1]) for d in range(3, r + 1 - odd)]
    top = levels[-1]
    balls = levels[1] if r >= 4 else None  # every 2-ball, composed already
    above = above_masks(n)
    settled = 0  # the changed rows below u
    for u, a, mu in changed:
        seen[u] = a, mu
        rest = a ^ mu  # the non-spanner edges, now that mu is a subgraph row
        bit = 1 << u
        # (x, u) stays a non-spanner edge of an unchanged row x < u, and only
        # its distance-2 verdict, masks[x] & mu, can change
        m = rest & ((bit - 1) ^ settled)
        settled |= bit
        while m:
            low = m & -m
            x = low.bit_length() - 1
            if masks[x] & mu:
                if lefts[x] & bit:  # it was beyond distance 2
                    lefts[x] ^= bit
                    opens[x] &= ~bit
            else:  # beyond distance 2, and any certificate of it read row u
                lefts[x] |= bit
                opens[x] |= bit
            m ^= low
        if keep and vouches[u]:  # reopen the far edges that row u witnessed
            for e in vouches[u]:
                y, v = divmod(e, n)
                opens[y] |= lefts[y] & 1 << v
            vouches[u] = set()
        rest &= above[u]
        # lefts[u]: the edges of rest beyond distance 2
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
        lefts[u] = opens[u] = left
    for u in compress(range(n), opens):
        left = opens[u]
        mu = masks[u]
        while left:
            low = left & -left
            v = low.bit_length() - 1
            left ^= low
            for d, around_u, around_v in rings:
                if around_u[u] & around_v[v]:
                    break
            else:
                walk = 0
                if odd:  # walk the smaller side to a witness x, within r - 1 of the other end
                    mv = masks[v]
                    if mv.bit_count() < mu.bit_count():
                        walk, other = mv, top[u]
                    else:
                        walk, other = mu, top[v]
                    while walk and not top[(walk & -walk).bit_length() - 1] & other:
                        walk &= walk - 1
                if not walk:
                    d = mask_dist(masks, u, v) or math.inf
                else:
                    d = r
                    if keep:  # rows u, v and the witness x keep (u, v) at distance 3
                        opens[u] ^= low
                        vouches[(walk & -walk).bit_length() - 1].add(u * n + v)
            if d > worst:
                worst, worst_edge = d, (u, v)
    if worst <= 3:  # no walked edge beyond 3: the first edge of the farthest tier
        near = map(and_, map(xor, adj, masks), above)  # the non-spanner edges
        for d, rows in ((3, lefts), (2, near), (1, map(and_, adj, above))):
            first = next(filter(itemgetter(1), enumerate(rows)), None)
            if first is not None:
                u, row = first
                worst, worst_edge = d, (u, (row & -row).bit_length() - 1)
                break
    if memo is not None:
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
