"""Measures only the tests use, kept out of the package: the load-overhead
report of acceptance criterion 6, a size bound, and the hop distance and
maximum degree of a `DynamicGraph`."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from dynspan.graph import DynamicGraph, check_range, mask_dist


class OverheadSample(NamedTuple):
    """One (step, machine) observation of actual load vs target load."""

    step: int
    machine: object
    load: int
    target: float


class OverheadReport(NamedTuple):
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
) -> OverheadReport:
    """Fraction of samples violating load <= alpha*target + beta."""
    total = 0
    violations = 0
    worst = float("-inf")
    worst_sample = None
    for s in samples:
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


def verify_size(h_edges: Iterable[tuple[int, int]], bound: float) -> bool:
    return sum(1 for _ in h_edges) <= bound


def bfs_dist(g: DynamicGraph, u: int, v: int, cap: int | None = None) -> int | None:
    """Exact hop distance if <= cap (None means uncapped); None if beyond."""
    check_range(g.n, u, v)
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    return mask_dist(g.adj_mask, u, v, cap)


def max_degree(g: DynamicGraph) -> int:
    return max((row.bit_count() for row in g.adj_mask), default=0)
