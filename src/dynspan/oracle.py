"""Ground-truth verification: stretch, size, girth, and a reference greedy spanner.

Everything here is a pure function of its inputs; repeated calls on the
same snapshot are identical.  Stretch is verified over the edges of the
host graph only: for unweighted graphs, dist_H(u,v) <= t on every host
edge (u,v) implies the same bound on every vertex pair (subdivide an
arbitrary shortest path edge by edge).

A host edge that is also a spanner edge is at spanner distance 1, which
its bit in the spanner's adjacency mask shows, so it needs no search.
Any other host edge (u, v) is within distance d exactly when the ball of
radius ceil(d/2) around u meets the ball of radius floor(d/2) around v
(split a shortest path at its midpoint).  So reach sets are composed for
every vertex only up to radius floor(t/2), one radius more is composed
around a lower endpoint only when one of its edges needs it, and an
unbounded BFS runs only for an edge that fails.

`verify_stretch` takes the spanner either as edges or as `SpannerMasks`,
the adjacency bitmasks a structure keeps next to its output (every
structure answers `spanner_masks()`).  Both forms run the same subgraph
check and the same search, so their reports are identical.  The CLI's
per-step check passes the structure's masks, which saves rebuilding them
from an edge list on every step; the acceptance tests and the
benchmark's final check pass edges, and the edge form stays the ground
truth that tests compare against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from dynspan.graph import DynamicGraph, edge_at, edge_key, edge_prefix, iter_bits, mask_balls
from dynspan.graph import mask_dist


class SpannerNotSubgraph(Exception):
    pass


class OrderNotPermutation(Exception):
    pass


@dataclass(frozen=True)
class StretchReport:
    ok: bool
    worst_edge: tuple[int, int] | None
    worst_dist: float  # hop count; inf when the witness pair is disconnected

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SpannerMasks:
    """A spanner given as symmetric per-vertex adjacency bitmasks: bit v of
    rows[u] is set iff (u, v) is a spanner edge.  `verify_stretch` reads the
    rows and never changes them."""

    rows: list[int]


def adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def reach_levels(masks: list[int], r: int) -> list[list[int]]:
    """levels[j][u] = bitmask of the vertices that a walk of 1..j+1 edges
    reaches from u, for j < r: every vertex at distance 1..j+1, and u
    itself once j >= 1 and u has a neighbor.

    Built by r-fold neighborhood composition; total cost O(r * sum(deg)).
    `verify_stretch` composes only r = floor(t/2) levels: a shortest path
    splits at its midpoint, so a check of stretch t never needs a radius
    beyond that around the upper endpoint of an edge.
    """
    n = len(masks)
    levels = [list(masks)]
    prev = levels[0]
    for _ in range(r - 1):
        cur = []
        for u in range(n):
            acc = masks[u]
            m = masks[u]
            while m:
                low = m & -m
                acc |= prev[low.bit_length() - 1]
                m ^= low
            cur.append(acc)
        levels.append(cur)
        prev = cur
    return levels


def subgraph_masks(g: DynamicGraph, h: Iterable[tuple[int, int]] | SpannerMasks) -> list[int]:
    """The adjacency masks of the spanner h, given as edges or masks, after
    checking each row against g's; SpannerNotSubgraph names a bad edge."""
    if isinstance(h, SpannerMasks):
        masks = h.rows
        if len(masks) != g.n:
            raise ValueError(f"{len(masks)} spanner mask rows for {g.n} vertices")
        for u, (m, a) in enumerate(zip(masks, g.adj_mask)):
            bad = m & ~a
            if bad:  # name the lowest bad bit of the lowest bad row
                v = (bad & -bad).bit_length() - 1
                raise SpannerNotSubgraph(f"spanner edge {(u, v)} not in host graph")
        return masks
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


def verify_stretch(
    g: DynamicGraph,
    h_edges: Iterable[tuple[int, int]] | SpannerMasks,
    t: int,
    mode: str = "exact",
    sample: int = 64,
    seed: int = 0,
) -> StretchReport:
    """Check dist_H(u,v) <= t for host edges (u,v); mode "sampled" checks a
    seeded uniform subset of them.  The witness on failure is the checked
    edge with the largest (possibly infinite) spanner distance, the first
    one in lexicographic order (exact) or sample order (sampled).  H is
    given as edges or as `SpannerMasks`, with the same report."""
    masks = subgraph_masks(g, h_edges)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")

    worst: float = 0.0
    worst_edge: tuple[int, int] | None = None
    if mode == "exact" or g.m <= sample:
        levels = reach_levels(masks, t // 2) if t >= 2 else []
        odd = t >= 3 and t % 2 == 1  # then d = t needs one radius more around u
        rings = [(d, (d + 1) // 2, levels[d // 2 - 1]) for d in range(2, t + 1 - odd)]
        top = levels[-1] if levels else []
        for u, row in enumerate(g.adj_mask):
            above = row >> (u + 1) << (u + 1)  # host edges (u, v) with v > u
            if not above:
                continue
            if worst_edge is None:
                worst, worst_edge = 1, (u, (above & -above).bit_length() - 1)
            rest = above & ~masks[u]
            if not rest:
                continue
            reach = [0] + [lv[u] for lv in levels]  # reach[r]: within 1..r of u
            far = 0  # within 1..ceil(t/2) of u, composed on first need
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                for d, a, lv in rings:
                    if reach[a] & lv[v]:
                        break
                else:
                    if odd and not far:
                        far = m = masks[u]
                        while m:
                            bit = m & -m
                            far |= top[bit.bit_length() - 1]
                            m ^= bit
                    d = t if odd and far & top[v] else mask_dist(masks, u, v) or math.inf
                if d > worst:
                    worst, worst_edge = d, (u, v)
    else:
        # sample ranks, not a list of edges: random.sample only indexes its
        # population, so the edges drawn are those of sample(list(g.edges()))
        prefix = edge_prefix(g.adj_mask)
        for r in random.Random(seed).sample(range(g.m), sample):
            u, v = edge_at(g.adj_mask, prefix, r)
            if (masks[u] >> v) & 1:
                d = 1
            else:
                bu = mask_balls(masks, u, (t + 1) // 2)
                bv = mask_balls(masks, v, t // 2)
                for d in range(2, t + 1):
                    if bu[(d + 1) // 2] & bv[d // 2]:
                        break
                else:
                    d = mask_dist(masks, u, v) or math.inf
            if d > worst:
                worst, worst_edge = d, (u, v)
    return StretchReport(worst_edge is None or worst <= t, worst_edge, worst)


def verify_size(h_edges: Iterable[tuple[int, int]], bound: float) -> bool:
    return sum(1 for _ in h_edges) <= bound


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
