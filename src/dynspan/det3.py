"""Deterministic fully-dynamic 3-spanner with bounded per-update repair work.

Vertices sit in ceil(sqrt(n)) fixed buckets.  For every vertex v and
bucket i the edge set E(v, V_i) is not stored but read off the host
graph's bitmask row, `adj_mask[v] & bucket_mask[i]`; its lowest bit, the
smallest neighbor, becomes v's center c_i(v), and that edge is a partner
(type-1) edge.  For every ordered same-bucket pair (a, b), a != b, the
structure keeps the set of edges from a into b's cluster (b plus the
outside vertices centered at b) with one chosen connection (type-2)
edge.  The spanner is the set of edges holding at least one role.
The build reads each pair set off a row, E(a, C+(b)) =
`adj_mask[a] & cluster[b]`, with one AND per pair of bucket-mates and
one op charge for the whole build; updates keep the sets one edge at a
time.

Repair rules on deletion: a lost center is replaced by the minimum of the
row E(v, V_i); a lost chosen edge by the minimum of its pair set; when a
vertex changes centers, its edges into that bucket migrate between pair
sets, and a migrated edge is promoted only where the pair had no chosen
edge.  Insertions promote an edge exactly when it is the sole member of
the corresponding set, so they never trigger migration.  Every pick is a
minimum, which makes the whole structure a deterministic function of the
update sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from dynspan.graph import DynamicGraph, UpdateEvent, by_kind, check_range, edge_key, iter_bits
from dynspan.graph import nth_bit
from dynspan.instrumentation import OpCounter, RoleOutput, RoleSet, Step


def default_buckets(n: int) -> list[int]:
    """Round-robin bucket of each vertex: v -> v mod ceil(sqrt(n))."""
    if n == 0:
        return []
    b = math.isqrt(n)
    if b * b < n:
        b += 1
    return [v % b for v in range(n)]


def bucket_masks(bucket_of: Sequence[int], n: int) -> list[int]:
    """masks[i] = bitmask of the vertices in bucket i.

    Raises ValueError unless `bucket_of` gives each of the n vertices an
    int id in [0, n): a negative id would index a list from its end."""
    if len(bucket_of) != n:
        raise ValueError(f"bucket map has {len(bucket_of)} entries for {n} vertices")
    masks = [0] * n
    for v, i in enumerate(bucket_of):
        if not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"bucket id {i!r} of vertex {v} is not an int in [0, {n})")
        masks[i] |= 1 << v
    return masks[: max(bucket_of, default=-1) + 1]


class Det3State(RoleOutput):
    def __init__(
        self,
        graph: DynamicGraph,
        buckets: Sequence[int] | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        self.g = graph
        self.n = graph.n
        self.bucket_of = list(buckets) if buckets is not None else default_buckets(self.n)
        self.bucket_mask = bucket_masks(self.bucket_of, self.n)
        self.counter = counter or OpCounter()

        self.center: dict[tuple[int, int], int] = {}  # (v, i) -> c_i(v), only v not in V_i
        self.cedge: dict[tuple[int, int], set[int]] = {}  # (a, b) -> far endpoints z of E(a, C+(b))
        self.chosen: dict[tuple[int, int], int] = {}  # (a, b) -> chosen far endpoint

        # roles: one per owner v whose center c_i(v) is on the edge, one per
        # pair that chose it
        self.roles = RoleSet(self.n)
        self.spanner = self.roles.count.keys()  # live view: the edges holding a role
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        """Set the centers, then read each pair set off the cluster masks.

        `cluster[b]` is b plus the vertices whose center in b's bucket is
        b, so E(a, C+(b)) = `adj[a] & cluster[b]`, and the chosen edge is
        its lowest bit.  The masks are local: updates keep `cedge` one
        edge at a time.  The ops are the per-item ones, charged once: 2
        per center, 1 per pair-set member, 2 per choice."""
        adj, bucket_of, bucket_mask = self.g.adj_mask, self.bucket_of, self.bucket_mask
        center, cedge, chosen, add = self.center, self.cedge, self.chosen, self.roles.add
        cluster = [1 << b for b in range(self.n)]
        ops = 0
        for v, row in enumerate(adj):
            for i, members in enumerate(bucket_mask):
                if i != bucket_of[v] and (nbrs := row & members):
                    c = (nbrs & -nbrs).bit_length() - 1
                    center[(v, i)] = c
                    cluster[c] |= 1 << v
                    add(edge_key(v, c))
                    ops += 2  # the center and its partner role
        for a, row in enumerate(adj):
            mates = bucket_mask[bucket_of[a]] ^ 1 << a
            while mates:
                low = mates & -mates
                b = low.bit_length() - 1
                mates ^= low
                zs = row & cluster[b]
                if zs:
                    z = (zs & -zs).bit_length() - 1
                    cedge[(a, b)] = set(iter_bits(zs))
                    chosen[(a, b)] = z
                    add(edge_key(a, z))
                    ops += zs.bit_count() + 2  # the members, the choice and its role
        if ops:  # an edgeless build leaves `by_module` as it was
            self._charge(ops)
        self.counter.end_step()
        self.roles.flush()

    # -- small helpers -----------------------------------------------------

    def _charge(self, k: int) -> None:
        self.counter.charge(k, "det3")

    def _pair_of(self, near: int, far: int) -> tuple[int, int] | None:
        """Same-bucket pair (near, q) whose cluster-edge set holds edge
        (near, far); None when far is unclustered in near's bucket or its
        center is near itself."""
        i = self.bucket_of[near]
        q = far if self.bucket_of[far] == i else self.center.get((far, i))
        if q is None or q == near:
            return None
        return (near, q)

    # kept under this name because bench/test_bench.py's fault injection
    # calls it (tests/test_spans.py pins it); it goes with `cedge`
    def _remove_t2(self, e: tuple[int, int], pair: tuple[int, int]) -> None:
        self.roles.remove(e)
        self._charge(1)

    def _cedge_add(self, pair: tuple[int, int], far: int) -> None:
        zs = self.cedge.setdefault(pair, set())
        zs.add(far)
        self._charge(1)
        if pair not in self.chosen:
            self.chosen[pair] = far
            self.roles.add(edge_key(pair[0], far))
            self._charge(1)

    def _cedge_remove(self, pair: tuple[int, int], far: int) -> None:
        zs = self.cedge.get(pair)
        if zs is None:
            return
        zs.discard(far)
        self._charge(1)
        if not zs:
            del self.cedge[pair]
        if self.chosen.get(pair) == far:
            self._remove_t2(edge_key(pair[0], far), pair)
            if zs:
                z = min(zs)
                self._charge(2)
                self.chosen[pair] = z
                self.roles.add(edge_key(pair[0], z))
            else:
                del self.chosen[pair]

    # -- updates -----------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> None:
        """Insert (u, v) and record its role changes; `update` closes the step."""
        e = self.g.insert_edge(u, v)
        u, v = e
        i, j = self.bucket_of[u], self.bucket_of[v]
        if i != j:
            # sole-member promotion; a vertex gaining its first center has no
            # other edges into that bucket, so no migration can be needed
            cu = self.g.adj_mask[u] & self.bucket_mask[j]
            cv = self.g.adj_mask[v] & self.bucket_mask[i]
            if cu & (cu - 1) == 0:
                self.center[(u, j)] = v
                self.roles.add(e)
                self._charge(2)
            if cv & (cv - 1) == 0:
                self.center[(v, i)] = u
                self.roles.add(e)
                self._charge(2)
        for near, far in ((u, v), (v, u)):
            pair = self._pair_of(near, far)
            if pair is not None:
                self._cedge_add(pair, far)

    def delete_edge(self, u: int, v: int) -> None:
        """Delete (u, v) and record its role changes; `update` closes the step."""
        check_range(self.n, u, v)  # before the bucket lookups below
        e = edge_key(u, v)
        # pair memberships are defined by the centers in force before removal
        memberships = []
        for near, far in (e, (e[1], e[0])):
            pair = self._pair_of(near, far)
            if pair is not None:
                memberships.append((pair, far))
        t1_owners = [x for x, y in (e, e[::-1]) if self.center.get((x, self.bucket_of[y])) == y]
        self.g.delete_edge(u, v)
        u, v = e
        for pair, far in memberships:
            self._cedge_remove(pair, far)
        for owner in t1_owners:
            far = v if owner == u else u
            self._handle_center_loss(owner, far, e)

    def update(self, ev: UpdateEvent) -> Step:
        """Apply one insertion or deletion and close its op and output steps."""
        by_kind(ev.kind, self.insert_edge, self.delete_edge)(*ev.edge)
        return self.roles.step(self.counter.end_step(), 0)

    def _handle_center_loss(self, owner: int, old_center: int, e: tuple[int, int]) -> None:
        """The partner edge (owner, old_center) died; re-center owner in that
        bucket and migrate its edges between the affected pair sets."""
        i = self.bucket_of[old_center]
        self.roles.remove(e)
        del self.center[(owner, i)]
        self._charge(2)  # the role and the center
        rest = self.g.adj_mask[owner] & self.bucket_mask[i]
        new_center = nth_bit(rest, 0) if rest else None
        self._charge(1)
        if new_center is not None:
            self.center[(owner, i)] = new_center
            self.roles.add(edge_key(owner, new_center))
            self._charge(2)
        for w in iter_bits(rest):
            # edge (w, owner) leaves E(w, C+(old_center)) and joins the new
            # center's set; rest excludes old_center, so both pairs are proper
            self._cedge_remove((w, old_center), owner)
            if new_center is not None and new_center != w:
                self._cedge_add((w, new_center), owner)

    # -- full-rebuild consistency oracle ------------------------------------

    def check_against_rebuild(self) -> None:
        """Recompute every derivable set from the graph (and the maintained
        centers, which are history-dependent but must stay eligible)."""
        adj = self.g.adj_mask
        # centers: exactly the nonempty out-of-bucket sets E(v, V_i), member-valid
        expect_centered = {
            (v, i)
            for v, row in enumerate(adj)
            for i, members in enumerate(self.bucket_mask)
            if i != self.bucket_of[v] and row & members
        }
        assert set(self.center) == expect_centered
        for (v, i), c in self.center.items():
            assert adj[v] >> c & 1 and self.bucket_of[c] == i
        # cluster-edge sets from scratch, given the maintained centers
        cedge: dict[tuple[int, int], set[int]] = {}
        for u, v in self.g.edges():
            for near, far in ((u, v), (v, u)):
                pair = self._pair_of(near, far)
                if pair is not None:
                    cedge.setdefault(pair, set()).add(far)
        assert {k: s for k, s in self.cedge.items() if s} == cedge
        assert set(self.chosen) == set(cedge)
        for pair, z in self.chosen.items():
            assert z in cedge[pair]
        # role counts (and so the spanner) agree with the centers and choices
        roles = Counter(edge_key(v, c) for (v, _), c in self.center.items())
        roles.update(edge_key(pair[0], z) for pair, z in self.chosen.items())
        assert self.roles.count == roles
        self.roles.check_masks()
