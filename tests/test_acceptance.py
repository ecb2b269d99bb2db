"""Acceptance gate: one test per criterion, each printing a PASS line.

Calibrated constants are frozen regression thresholds; each one's origin
is a seeded calibration run noted next to it.  Run with `pytest -s` to
see the per-criterion lines.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from dynspan import cli
from dynspan.adversary import (
    AdversaryView,
    RandomOblivious,
    SpannerTargeting,
    WitnessHammer,
)
from dynspan.det3 import Det3State
from dynspan.fully_dynamic import FullyDynamicSpanner
from dynspan.graph import DELETE, INSERT, DynamicGraph, iter_bits, mask_dist
from dynspan.greedy import GreedyState
from dynspan.job_machine import ResamplingEngine, random_instance
from dynspan.oracle import girth_at_least, reference_greedy, verify_stretch
from dynspan.resample3 import PhaseState, WrappedRunner
from helpers import OverheadSample, max_degree, measure_overhead


def sqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def test_criterion_1_greedy_recourse_and_validity():
    # n=150, m~2000, delete everything in random order; total additions <= m,
    # every intermediate spanner exact-stretch (2k-1) and girth >= 2k+1.
    #
    # Stretch is re-verified from scratch after every deletion.  Girth is
    # verified inductively: deletions never create cycles, so after the
    # initial full check it suffices to check, for each edge the algorithm
    # accepts, that no path of length <= 2k-1 joins its endpoints in the
    # resulting spanner (a short cycle would have to pass through some
    # accepted edge); full recomputations every 250 steps and at the end
    # guard the incremental argument itself.
    t0 = time.time()
    n, m = 150, 2000
    pairs = all_pairs(n)
    for k in (2, 3):
        rng = random.Random(100 + k)
        g = DynamicGraph(n, rng.sample(pairs, m))
        s = GreedyState(g, k)
        assert girth_at_least(n, s.spanner_edges(), 2 * k + 1)
        assert verify_stretch(g, s.in_spanner, 2 * k - 1).ok
        order = list(g.edges())
        rng.shuffle(order)
        for i, e in enumerate(order):
            added = s.handle_delete(*e)
            assert verify_stretch(g, s.in_spanner, 2 * k - 1).ok
            for a in added:
                masks = s.span_mask[:]
                masks[a[0]] &= ~(1 << a[1])
                masks[a[1]] &= ~(1 << a[0])
                assert mask_dist(masks, a[0], a[1], 2 * k - 1) is None
            if i % 250 == 0:
                assert girth_at_least(n, s.in_spanner, 2 * k + 1)
        assert girth_at_least(n, s.in_spanner, 2 * k + 1)
        assert g.m == 0
        assert s.total_recourse() <= m
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: greedy recourse <= m with per-step validity ({elapsed:.1f}s)")


def test_criterion_2_greedy_order_equivalence():
    # the maintained structure equals the greedy run that inspects the
    # surviving spanner sequence first, then the rest in ascending order
    rng = random.Random(202)
    n = 40
    pairs = all_pairs(n)
    g = DynamicGraph(n, rng.sample(pairs, 240))
    s = GreedyState(g, 2)
    steps = 0
    while g.m > 0 and steps < 120:
        e = rng.choice(sorted(g.edges()))
        s.handle_delete(*e)
        steps += 1
        order = list(s.in_spanner) + sorted(s.non_spanner)
        assert list(s.in_spanner) == reference_greedy(g.copy(), 2, order)
    assert steps >= 100
    print(f"criterion 2 PASS: prefix-order equivalence across {steps} deletions")


def test_criterion_3_fully_dynamic_reduction():
    n, k, updates = 32, 2, 5000
    fd = FullyDynamicSpanner(DynamicGraph(n), k)
    g = DynamicGraph(n)
    # insertion-biased mix keeps the graph populated while the adversary
    # spends every deletion on a current spanner edge
    adv = SpannerTargeting(seed=303, budget=updates, p_insert=0.6)
    view = AdversaryView(g, spanner_masks=fd.spanner_masks)
    recourse = 0
    for _ in range(updates):
        ev = adv.next_event(view)
        assert ev is not None
        g.apply(ev)
        recourse += fd.update(ev).adds
        assert verify_stretch(g, fd.spanner_edges(), 2 * k - 1).ok
    assert fd.spanner_size() <= 4 * n**1.5 * (math.log2(n) + 2)
    assert recourse <= 8 * updates * math.log2(updates)
    print(
        f"criterion 3 PASS: stretch-3 at every of {updates} updates, "
        f"size {fd.spanner_size()}, recourse {recourse}"
    )


def test_criterion_4_det3_worst_case():
    n, rand_steps, adv_steps = 144, 10_000, 1000
    root_n = sqrt_ceil(n)
    logn = math.ceil(math.log2(n))
    op_const = 4  # frozen: max observed ratio 1.25 over seeded calibration runs
    pairs = all_pairs(n)
    g = DynamicGraph(n, random.Random(404).sample(pairs, 1500))
    s = Det3State(g)
    view = AdversaryView(g, spanner_masks=s.spanner_masks)
    phases = [
        RandomOblivious(seed=405, budget=rand_steps, p_insert=0.5),
        SpannerTargeting(seed=406, budget=adv_steps, p_insert=0.3),
    ]
    step = 0
    for adv in phases:
        while True:
            ev = adv.next_event(view)
            if ev is None:
                break
            step += 1
            if ev.kind == INSERT:
                changes = s.insert_edge(*ev.edge)
            else:
                changes = s.delete_edge(*ev.edge)
            assert len(changes) <= 2 * root_n + 2
            delta = max_degree(g)
            assert s.counter.last_step <= op_const * (min(delta, root_n) + 1) * logn
            assert verify_stretch(g, s.spanner, 3).ok
            assert len(s.spanner) <= 3 * n * root_n
            if step % 50 == 0:
                s.check_against_rebuild()
    assert step == rand_steps + adv_steps
    print(f"criterion 4 PASS: {step} updates within change/op bounds, stretch-3 throughout")


@pytest.fixture(scope="module")
def jm_fuzz_runs():
    # shared by criteria 5 and 6: ten seeded max-load runs of 4000 deletions.
    # Each seed runs out of live routines between deletion 4500 and 4800, so
    # both criteria check live routines and loaded machines to the end.
    runs = []
    deletions = 4000
    machines = 12_000
    for seed in range(10):
        inst = random_instance(random.Random(5000 + seed), jobs=2500, machines=machines)
        eng = ResamplingEngine(inst, seed, horizon=deletions)
        samples: list[OverheadSample] = []
        rel_checks: list[tuple[int, int]] = []  # (count, floor(log2 t)+1)
        for step in range(deletions):
            x = eng.heaviest_machine()
            assert x is not None
            eng.delete_machine(x)
            if step % 80 == 79:
                t = eng.T
                rng = random.Random(step * 31 + seed)
                for xm in rng.sample(sorted(eng.loads), 25):
                    samples.append(OverheadSample(t, xm, eng.load(xm), float(eng.target(xm))))
            if step % 100 == 99:
                t = eng.T
                live = [(job, i) for job, mask in eng.live.items() for i in iter_bits(mask)]
                rng = random.Random(step * 17 + seed)
                for job, i in rng.sample(live, min(4, len(live))):
                    rel_checks.append(
                        (len(eng.rel_times(t, job, i)), math.floor(math.log2(max(t, 2))) + 1)
                    )
        assert len(samples) == 50 * 25
        assert len(rel_checks) == 40 * 4  # four live routines at every checkpoint
        runs.append((eng, samples, rel_checks, deletions, machines))
    return runs


def test_criterion_5_relevance_law(jm_fuzz_runs):
    checked = 0
    for _, _, rel_checks, _, _ in jm_fuzz_runs:
        for count, bound in rel_checks:
            assert count <= bound  # zero violations tolerated
            checked += 1
    print(f"criterion 5 PASS: {checked} replayed relevance counts within floor(log2 t)+1")


def test_criterion_6_overhead(jm_fuzz_runs):
    c1 = c2 = 2  # frozen: zero violations at c=0.5 in calibration; 4x headroom
    worst = 0.0
    for _, samples, _, deletions, machines in jm_fuzz_runs:
        alpha = c1 * math.log2(deletions)
        beta = c2 * math.log2(machines)
        rep = measure_overhead(samples, alpha, beta)
        assert rep.fraction <= 0.01
        worst = max(worst, rep.fraction)
    print(f"criterion 6 PASS: overhead violations <= 1% per seed (worst {worst:.4f})")


def test_criterion_7_resample3_recourse():
    # phase shortened from n*sqrt(n)=1000... the default happens to be 1000
    # for n=100; the length is still configurable and recorded here
    n, L, m0, seeds = 100, 1000, 2500, 10
    step_const = 1  # frozen: max observed 0.36 of ceil(sqrt n)*(floor(log2 L)+1)
    phase_const = 0.25  # frozen: max observed 0.089 of L*(log2 n)^3
    pairs = all_pairs(n)
    per_step_bound = step_const * sqrt_ceil(n) * (math.floor(math.log2(L)) + 1)
    phase_bound = phase_const * L * math.log2(n) ** 3
    for seed in range(seeds):
        g = DynamicGraph(n, random.Random(700 + seed).sample(pairs, m0))
        ps = PhaseState(g, seed=seed, phase_len=L)
        adv = WitnessHammer(seed + 1, L)
        view = AdversaryView(
            g, spanner_masks=ps.spanner_masks, heaviest_machine=ps.engine.heaviest_machine
        )
        total = 0
        for _ in range(L):
            ev = adv.next_event(view)
            assert ev is not None and ev.kind == DELETE
            resamples = ps.delete(*ev.edge)
            total += resamples
            assert resamples <= per_step_bound
            assert verify_stretch(g, ps.spanner, 3).ok
        assert total <= phase_bound
    print(f"criterion 7 PASS: {seeds} witness-hammer phases within resample bounds")


def test_criterion_8_deamortized_budget():
    n, L, m0 = 64, 300, 400
    pairs = all_pairs(n)
    g = DynamicGraph(n, random.Random(808).sample(pairs, m0))
    runner = WrappedRunner(g, seed=809, rotation_len=L)
    adv = RandomOblivious(seed=810, budget=3 * L + 10, p_insert=0.5)
    worst = 0
    boundary_worst = 0
    for step in range(3 * L + 10):
        ev = adv.next_event(AdversaryView(runner.graph))
        assert ev is not None
        rep = runner.update(ev)
        assert rep.op_count <= runner.declared_budget
        worst = max(worst, rep.op_count)
        if runner.step_in_window in (1, 0):  # the rollover step and its successor
            boundary_worst = max(boundary_worst, rep.op_count)
        assert verify_stretch(runner.graph, runner.spanner_edges(), 3).ok
    assert runner.window == 4
    print(
        f"criterion 8 PASS: 3-phase wrapped run, max ops {worst} <= declared "
        f"{runner.declared_budget}, boundary max {boundary_worst}"
    )


def test_criterion_9_cli_byte_reproducibility(tmp_path):
    specs = [
        (
            "det3",
            ["--n", "36", "--init-m", "120", "--steps", "250", "--adversary", "random"],
        ),
        (
            "resample3",
            [
                "--n",
                "24",
                "--init-m",
                "60",
                "--steps",
                "150",
                "--adversary",
                "witness-hammer",
                "--p-insert",
                "0.25",
                "--phase-len",
                "80",
            ],
        ),
        ("jm", ["--steps", "300", "--jm-jobs", "80", "--jm-machines", "600", "--adversary", "max-load"]),
    ]
    for algo, extra in specs:
        blobs = []
        out = tmp_path / f"{algo}.csv"
        check = [] if algo == "jm" else ["--check", "exact"]  # jm outputs no spanner
        argv = ["run", "--algo", algo, "--seed", "17", *check, "--out", str(out)]
        for _ in range(2):
            assert cli.main(argv + extra) == 0
            blobs.append(out.read_bytes() + (tmp_path / f"{algo}.csv.meta.json").read_bytes())
        assert blobs[0] == blobs[1]
    print("criterion 9 PASS: identical arguments and seeds give identical bytes")
