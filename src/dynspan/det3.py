"""Deterministic fully-dynamic 3-spanner with bounded per-update repair work.

Vertices sit in ceil(sqrt(n)) fixed buckets.  For every vertex v and
bucket i the structure keeps the cross set E(v, V_i); the smallest
neighbor becomes v's center c_i(v), and that edge is a partner (type-1)
edge.  For every ordered same-bucket pair (a, b), a != b, it keeps the
set of edges from a into b's cluster (b plus the outside vertices
centered at b) with one chosen connection (type-2) edge.  The spanner is
the set of edges holding at least one role.

Repair rules on deletion: a lost center is replaced by the minimum of the
cross set; a lost chosen edge by the minimum of its pair set; when a
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

from dynspan.graph import INSERT, DynamicGraph, UpdateEvent, edge_key
from dynspan.instrumentation import OpCounter, RoleSet, Step


def default_buckets(n: int) -> list[int]:
    """Round-robin bucket of each vertex: v -> v mod ceil(sqrt(n))."""
    if n == 0:
        return []
    b = math.isqrt(n)
    if b * b < n:
        b += 1
    return [v % b for v in range(n)]


class Det3State:
    def __init__(
        self,
        graph: DynamicGraph,
        buckets: Sequence[int] | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        self.g = graph
        self.n = graph.n
        self.bucket_of = list(buckets) if buckets is not None else default_buckets(self.n)
        if len(self.bucket_of) != self.n:
            raise ValueError("bucket map must cover every vertex")
        self.counter = counter or OpCounter()

        self.cross: dict[tuple[int, int], set[int]] = {}  # (v, i) -> neighbors of v in V_i
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
        for u, v in self.g.edges():
            self.cross.setdefault((u, self.bucket_of[v]), set()).add(v)
            self.cross.setdefault((v, self.bucket_of[u]), set()).add(u)
            self._charge(2)
        for (v, i), nbrs in sorted(self.cross.items()):
            if self.bucket_of[v] == i or not nbrs:
                continue
            c = min(nbrs)
            self._charge(1)
            self.center[(v, i)] = c
            self._add_t1(edge_key(v, c), v)
        for u, v in self.g.edges():
            for near, far in ((u, v), (v, u)):
                pair = self._pair_of(near, far)
                if pair is not None:
                    self.cedge.setdefault(pair, set()).add(far)
                    self._charge(1)
        for pair, zs in sorted(self.cedge.items()):
            if zs:
                z = min(zs, key=lambda w: edge_key(pair[0], w))
                self._charge(1)
                self.chosen[pair] = z
                self._add_t2(edge_key(pair[0], z), pair)
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

    # role changes; the holder argument (owner vertex or pair) names whose role it is

    def _add_t1(self, e: tuple[int, int], owner: int) -> None:
        self.roles.add(e)
        self._charge(1)

    def _remove_t1(self, e: tuple[int, int], owner: int) -> None:
        self.roles.remove(e)
        self._charge(1)

    def _add_t2(self, e: tuple[int, int], pair: tuple[int, int]) -> None:
        self.roles.add(e)
        self._charge(1)

    def _remove_t2(self, e: tuple[int, int], pair: tuple[int, int]) -> None:
        self.roles.remove(e)
        self._charge(1)

    def _cedge_add(self, pair: tuple[int, int], far: int) -> None:
        zs = self.cedge.setdefault(pair, set())
        zs.add(far)
        self._charge(1)
        if pair not in self.chosen:
            self.chosen[pair] = far
            self._add_t2(edge_key(pair[0], far), pair)

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
                z = min(zs, key=lambda w: edge_key(pair[0], w))
                self._charge(1)
                self.chosen[pair] = z
                self._add_t2(edge_key(pair[0], z), pair)
            else:
                del self.chosen[pair]

    # -- updates -----------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> list[tuple[tuple[int, int], str]]:
        e = self.g.insert_edge(u, v)
        u, v = e
        i, j = self.bucket_of[u], self.bucket_of[v]
        cu = self.cross.setdefault((u, j), set())
        cu.add(v)
        cv = self.cross.setdefault((v, i), set())
        cv.add(u)
        self._charge(2)
        if i != j:
            # sole-member promotion; a vertex gaining its first center has no
            # other edges into that bucket, so no migration can be needed
            if len(cu) == 1:
                self.center[(u, j)] = v
                self._add_t1(e, u)
                self._charge(1)
            if len(cv) == 1:
                self.center[(v, i)] = u
                self._add_t1(e, v)
                self._charge(1)
        for near, far in ((u, v), (v, u)):
            pair = self._pair_of(near, far)
            if pair is not None:
                self._cedge_add(pair, far)
        self.counter.end_step()
        return self.roles.flush()

    def delete_edge(self, u: int, v: int) -> list[tuple[tuple[int, int], str]]:
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
        self.cross[(u, self.bucket_of[v])].discard(v)
        self.cross[(v, self.bucket_of[u])].discard(u)
        self._charge(2)
        for pair, far in memberships:
            self._cedge_remove(pair, far)
        for owner in t1_owners:
            far = v if owner == u else u
            self._handle_center_loss(owner, far, e)
        self.counter.end_step()
        return self.roles.flush()

    def update(self, ev: UpdateEvent) -> Step:
        changes = (self.insert_edge if ev.kind == INSERT else self.delete_edge)(*ev.edge)
        return Step.of(changes, self.counter.last_step, 0, self.spanner_size())

    def _handle_center_loss(self, owner: int, old_center: int, e: tuple[int, int]) -> None:
        """The partner edge (owner, old_center) died; re-center owner in that
        bucket and migrate its edges between the affected pair sets."""
        i = self.bucket_of[old_center]
        self._remove_t1(e, owner)
        del self.center[(owner, i)]
        self._charge(2)
        rest = self.cross.get((owner, i), ())
        new_center = min(rest) if rest else None
        self._charge(1)
        if new_center is not None:
            self.center[(owner, i)] = new_center
            self._add_t1(edge_key(owner, new_center), owner)
            self._charge(1)
        for w in sorted(rest):
            # edge (w, owner) leaves E(w, C+(old_center)) and joins the new
            # center's set; rest excludes old_center, so both pairs are proper
            self._cedge_remove((w, old_center), owner)
            if new_center is not None and new_center != w:
                self._cedge_add((w, new_center), owner)

    @property
    def opcost_last(self) -> int:
        return self.counter.last_step

    def spanner_size(self) -> int:
        return len(self.spanner)

    def spanner_edges(self) -> set[tuple[int, int]]:
        return set(self.roles.count)  # from the dict, not the view: set() reuses its hashes

    def spanner_masks(self) -> list[int]:
        return self.roles.masks

    # -- full-rebuild consistency oracle ------------------------------------

    def check_against_rebuild(self) -> None:
        """Recompute every derivable set from the graph (and the maintained
        centers, which are history-dependent but must stay eligible)."""
        cross: dict[tuple[int, int], set[int]] = {}
        for u, v in self.g.edges():
            cross.setdefault((u, self.bucket_of[v]), set()).add(v)
            cross.setdefault((v, self.bucket_of[u]), set()).add(u)
        assert {k: s for k, s in self.cross.items() if s} == cross
        # centers: exactly the nonempty out-of-bucket cross sets, member-valid
        expect_centered = {
            (v, i) for (v, i) in cross if self.bucket_of[v] != i
        }
        assert set(self.center) == expect_centered
        for (v, i), c in self.center.items():
            assert c in cross[(v, i)] and self.bucket_of[c] == i
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
