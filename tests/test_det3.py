"""Deterministic 3-spanner: builds, repairs, migration, op costs."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from dynspan.det3 import Det3State, bucket_masks, default_buckets
from dynspan.graph import DELETE, INSERT, DynamicGraph, EdgeExists, EdgeMissing, UpdateEvent
from dynspan.graph import edge_key, nth_bit
from dynspan.instrumentation import OpCounter
from dynspan.oracle import verify_stretch
from helpers import max_degree


def make(n, edges, buckets=None):
    return Det3State(DynamicGraph(n, edges), buckets=buckets)


def sqrt_ceil(n):
    return math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)


def test_bucket_masks():
    assert bucket_masks([1, 0, 1, 3], 4) == [0b0010, 0b0101, 0, 0b1000]
    assert bucket_masks(default_buckets(10), 10) == [
        sum(1 << v for v in range(10) if v % 4 == i) for i in range(4)
    ]
    assert bucket_masks([], 0) == []


@pytest.mark.parametrize(
    "bucket_of",
    [[0, 0, 1], [0, 0, 1, 1, 1], [0, -1, 1, 1], [0, 0, 1.0, 1], [0, 0, "1", 1], [0, 0, 4, 1]],
)
def test_bad_bucket_maps_are_rejected(bucket_of):
    with pytest.raises(ValueError):
        bucket_masks(bucket_of, 4)
    with pytest.raises(ValueError):
        make(4, [(0, 2), (1, 2)], buckets=bucket_of)


def test_default_buckets_shape():
    b = default_buckets(10)
    assert max(b) + 1 == 4
    sizes = [b.count(i) for i in range(4)]
    assert max(sizes) <= 4  # each bucket at most ceil(sqrt(n))
    assert default_buckets(0) == []


def test_build_empty_graph():
    s = make(4, [])
    assert s.spanner == set()


def test_build_k4_exact_edge_set():
    # hand simulation with min-id picks and buckets {0,1},{2,3}:
    # centers 2<-{0,1}, 0<-{2,3}; pair choices (0,1),(0,1),(0,3),(2,3)
    s = make(4, list(itertools.combinations(range(4), 2)), buckets=[0, 0, 1, 1])
    assert s.spanner == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}
    s.check_against_rebuild()


def test_build_star_keeps_every_edge():
    edges = [(0, v) for v in range(1, 10)]
    s = make(10, edges)
    assert s.spanner == set(edges)


class PerEdgeBuild(Det3State):
    """What `Det3State._build` must leave, one item at a time: each center
    from its row, then each edge from both ends through `_pair_of`, then
    the smallest member of each pair set, with one charge per item."""

    def _build(self):
        for v, row in enumerate(self.g.adj_mask):
            for i, members in enumerate(self.bucket_mask):
                if i != self.bucket_of[v] and (nbrs := row & members):
                    c = nth_bit(nbrs, 0)
                    self._charge(2)
                    self.center[(v, i)] = c
                    self.roles.add(edge_key(v, c))
        for u, v in self.g.edges():
            for near, far in ((u, v), (v, u)):
                pair = self._pair_of(near, far)
                if pair is not None:
                    self.cedge.setdefault(pair, set()).add(far)
                    self._charge(1)
        for pair, zs in self.cedge.items():
            if zs:
                z = min(zs)
                self._charge(2)
                self.chosen[pair] = z
                self.roles.add(edge_key(pair[0], z))
        self.counter.end_step()
        self.roles.flush()


def random_bucket_map(rng, n):
    """Bucket ids drawn from a random subset of range(n), with skewed
    weights: buckets of uneven sizes, unused ids below the largest (empty
    buckets) and ids that are not contiguous."""
    ids = rng.sample(range(n), rng.randrange(1, n + 1))
    weights = [rng.random() ** 3 for _ in ids]
    return rng.choices(ids, weights, k=n)


def build_state(s):
    return s.center, s.cedge, s.chosen, s.roles.count, s.counter.by_module


def test_the_build_matches_the_per_edge_build():
    rng = random.Random(41)
    for n in (0, 1, 2, 5, 30, 64, 144):
        pairs = list(itertools.combinations(range(n), 2))
        for density in (0.0, 0.03, 0.15, 0.5, 1.0):
            edges = [e for e in pairs if rng.random() < density]
            maps = [None] + [random_bucket_map(rng, n) for _ in range(3 if n else 0)]
            if n:
                maps += [[0] * n, list(range(n))]  # one bucket, one vertex per bucket
            for buckets in maps:
                s = Det3State(DynamicGraph(n, edges), buckets=buckets, counter=OpCounter())
                ref = PerEdgeBuild(DynamicGraph(n, edges), buckets=buckets, counter=OpCounter())
                assert build_state(s) == build_state(ref), (n, density, buckets)
                assert s.counter.current == 0 and s.roles.flush() == []
                s.check_against_rebuild()


def test_the_build_reads_no_pair_of_and_charges_det3_once(monkeypatch):
    rng = random.Random(43)
    n = 64
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.2]
    g = DynamicGraph(n, edges)
    pair_of_calls, det3_charges = [], []
    pair_of, charge = Det3State._pair_of, OpCounter.charge

    def counted_pair_of(self, near, far):
        pair_of_calls.append((near, far))
        return pair_of(self, near, far)

    def counted_charge(self, k, module):
        if module == "det3":
            det3_charges.append(k)
        charge(self, k, module)

    monkeypatch.setattr(Det3State, "_pair_of", counted_pair_of)
    monkeypatch.setattr(OpCounter, "charge", counted_charge)
    s = Det3State(g, counter=OpCounter())
    assert pair_of_calls == []
    assert det3_charges == [s.counter.by_module["det3"]]
    s.check_against_rebuild()  # the reference derivation still walks every edge
    assert len(pair_of_calls) == 2 * len(edges)


def test_delete_non_spanner_edge_changes_nothing():
    s = make(4, list(itertools.combinations(range(4), 2)), buckets=[0, 0, 1, 1])
    s.delete_edge(1, 3)  # the one non-spanner edge of the K4 build
    changes = sorted(s.roles.flush())
    assert changes == []
    s.check_against_rebuild()


def test_delete_partner_edge_on_path():
    # path 0-1-2 with buckets {0,1},{2}: both roles of (1,2) are partner roles
    s = make(3, [(0, 1), (1, 2)], buckets=[0, 0, 1])
    s.delete_edge(1, 2)
    changes = sorted(s.roles.flush())
    assert changes == [((1, 2), "-")]
    assert s.center == {}  # vertex 2 lost its only bucket-0 neighbor
    assert s.spanner == {(0, 1)}
    s.check_against_rebuild()


def test_center_loss_migration_hand_instance():
    # bucket 0 = {0..6} (old center 0, next center 1, probes 2..6),
    # bucket 1 = {7, 8, 9}; 7 is clustered at 0, 8 at 0, 9 at 1.
    # Deleting (0,7) re-centers 7 onto 1 and 0 onto 8; every probe w has its
    # chosen (w,0)-connection (w,7) migrate away, replaced by (w,8).
    edges = [(w, 7) for w in range(7)]
    edges += [(0, 8)] + [(w, 8) for w in range(2, 7)]
    edges += [(1, 9)] + [(w, 9) for w in range(2, 7)]
    s = make(10, edges, buckets=[0] * 7 + [1] * 3)
    assert (0, 7) in s.spanner and s.center[(7, 0)] == 0 and s.center[(0, 1)] == 7
    s.delete_edge(0, 7)
    changes = sorted(s.roles.flush())
    assert changes == [
        ((0, 7), "-"),
        ((2, 8), "+"),
        ((3, 8), "+"),
        ((4, 8), "+"),
        ((5, 8), "+"),
        ((6, 8), "+"),
    ]
    assert len(changes) <= 2 * sqrt_ceil(10) + 2
    assert s.center[(7, 0)] == 1 and s.center[(0, 1)] == 8
    s.check_against_rebuild()
    assert verify_stretch(s.g, s.spanner, 3).ok


def test_a_lost_choice_goes_to_the_smallest_far_endpoint_on_either_side():
    # bucket 0 = {2, 3}, bucket 1 = {0, 1, 4, 5}; every z in bucket 1 is
    # clustered at 2, so pair (3, 2) holds the far endpoints 0, 1 < 3 < 4, 5.
    # The pick is the smallest far endpoint, which is also the smallest
    # edge (3, z): below 3, (z, 3) grows with z, and above it (3, z) does.
    s = make(6, [(z, c) for z in (0, 1, 4, 5) for c in (2, 3)], buckets=[1, 1, 0, 0, 1, 1])
    assert s.cedge[(3, 2)] == {0, 1, 4, 5} and s.chosen[(3, 2)] == 0
    for lost, pick in ((0, 1), (1, 4)):  # far endpoints left on both sides, then above 3 only
        s.delete_edge(lost, 3)
        assert s.chosen[(3, 2)] == pick and (min(pick, 3), max(pick, 3)) in s.spanner
        s.check_against_rebuild()


def test_insert_first_edge_is_double_partner():
    s = make(6, [])
    s.insert_edge(0, 1)  # buckets differ under round-robin (3 buckets)
    changes = sorted(s.roles.flush())
    assert changes == [((0, 1), "+")]
    assert s.center[(0, s.bucket_of[1])] == 1 and s.center[(1, s.bucket_of[0])] == 0
    with pytest.raises(EdgeExists):
        s.insert_edge(1, 0)


def test_insert_parallel_role_changes_nothing():
    # every role slot the new edge (1,4) could fill is already occupied:
    # both endpoints have centers, and pairs (1,0) and (4,3) have choices
    s = make(6, [(0, 3), (1, 3), (0, 4)], buckets=[0, 0, 0, 1, 1, 1])
    assert s.chosen[(1, 0)] == 3 and s.chosen[(4, 3)] == 0
    s.insert_edge(1, 4)
    changes = sorted(s.roles.flush())
    assert changes == []
    assert (1, 4) not in s.spanner
    s.check_against_rebuild()
    assert verify_stretch(s.g, s.spanner, 3).ok


def test_insert_intra_bucket_can_be_type2_only():
    s = make(4, [(0, 2), (1, 2)], buckets=[0, 0, 1, 1])
    s.insert_edge(0, 1)
    changes = sorted(s.roles.flush())
    assert ((0, 1), "+") in changes
    assert (0, 1) not in {(min(v, c), max(v, c)) for (v, _), c in s.center.items()}
    assert (0, 1) in {(min(a, z), max(a, z)) for (a, _), z in s.chosen.items()}
    s.check_against_rebuild()


def test_op_cost_of_non_spanner_delete_is_logarithmic():
    rng = random.Random(3)
    n = 64
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, 600))
    s = Det3State(g)
    bound = 8 * math.ceil(math.log2(n))
    checked = 0
    for e in list(g.edges()):
        if e not in s.spanner:
            s.update(UpdateEvent(0, DELETE, e))
            assert s.counter.last_step <= bound
            checked += 1
        if checked == 25:
            break
    assert checked == 25


def test_empty_graph_insert_cost_small():
    s = make(9, [])
    s.update(UpdateEvent(0, INSERT, (0, 4)))
    assert s.counter.last_step <= 12


def test_an_insertion_that_changes_no_center_or_choice_charges_its_memberships():
    # the graph's two row bits plus one det3 op per pair set the edge joins
    rng = random.Random(5)
    n = 30
    pairs = list(itertools.combinations(range(n), 2))
    counter = OpCounter()
    s = Det3State(DynamicGraph(n, rng.sample(pairs, 120), counter=counter), counter=counter)
    checked = 0
    for u, v in pairs:
        i, j = s.bucket_of[u], s.bucket_of[v]
        if s.g.has_edge(u, v) or i != j and not (
            s.g.adj_mask[u] & s.bucket_mask[j] and s.g.adj_mask[v] & s.bucket_mask[i]
        ):
            continue  # present, or u or v would gain its first center in that bucket
        joins = [p for p in (s._pair_of(u, v), s._pair_of(v, u)) if p is not None]
        if not all(p in s.chosen for p in joins):
            continue  # the first member of a pair set is chosen
        before = Counter(counter.by_module)
        step = s.update(UpdateEvent(0, INSERT, (u, v)))
        assert (step.adds, step.dels, step.op_count) == (0, 0, 2 + len(joins))
        assert counter.by_module - before == Counter(graph=2, det3=len(joins))
        checked += 1
    assert checked
    s.check_against_rebuild()


def test_random_updates_keep_invariants():
    rng = random.Random(7)
    n = 36
    s = make(n, [])
    graph_pairs = list(itertools.combinations(range(n), 2))
    present: set[tuple[int, int]] = set()
    root_n = sqrt_ceil(n)
    for step in range(600):
        if present and rng.random() < 0.45:
            e = rng.choice(sorted(present))
            s.delete_edge(*e)
            present.discard(e)
        else:
            choices = [p for p in graph_pairs if p not in present]
            e = rng.choice(choices)
            s.insert_edge(*e)
            present.add(e)
        changes = sorted(s.roles.flush())
        assert len(changes) <= 2 * root_n + 2
        assert len(s.spanner) <= 3 * n * root_n
        if step % 50 == 0:
            s.check_against_rebuild()
            assert verify_stretch(s.g, s.spanner, 3).ok
    s.check_against_rebuild()
    assert verify_stretch(s.g, s.spanner, 3).ok


def test_per_update_op_cost_bound():
    rng = random.Random(11)
    n = 100
    s = make(n, [])
    pairs = list(itertools.combinations(range(n), 2))
    present: set[tuple[int, int]] = set()
    root_n = sqrt_ceil(n)
    logn = math.ceil(math.log2(n))
    worst_ratio = 0.0
    for _ in range(1500):
        if present and rng.random() < 0.5:
            e = rng.choice(sorted(present))
            s.update(UpdateEvent(0, DELETE, e))
            present.discard(e)
        else:
            e = rng.choice([p for p in pairs if p not in present])
            s.update(UpdateEvent(0, INSERT, e))
            present.add(e)
        delta = max_degree(s.g)
        denom = (min(delta, root_n) + 1) * logn
        worst_ratio = max(worst_ratio, s.counter.last_step / denom)
    # C frozen from calibration runs (max observed ratio ~2.1 across seeds)
    assert worst_ratio <= 4.0


def test_deletion_missing_edge():
    s = make(4, [(0, 1)])
    with pytest.raises(EdgeMissing):
        s.delete_edge(2, 3)
