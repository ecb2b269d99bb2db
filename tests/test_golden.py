"""Frozen byte-level outputs on fixed seeds.

Each case reduces an output to a SHA-256 digest: the metrics CSV and meta
of one short `dynspan run` per algorithm, the opening events of every
edge adversary against a live resample3 structure, and the step records
of a de-amortized run over three rotations. A refactor that keeps the
behaviour keeps every digest; a change that alters an output has to
explain itself and replace the digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
from collections import Counter

import pytest

from dynspan import cli
from dynspan.adversary import AdversaryView, RandomOblivious, SpannerTargeting, WitnessHammer
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from dynspan.job_machine import ResamplingEngine
from dynspan.resample3 import Resample3, WrappedRunner

RUNS = {
    "greedy": "--algo greedy --k 2 --n 24 --init-m 100 --steps 40 --seed 3 --check exact",
    # ell0 = 4 at n=10, so the 32nd and 64th insertions rebuild a level
    "fd-greedy": "--algo fd-greedy --k 2 --n 10 --init-m 20 --steps 150 --seed 4",
    # k = 3: a rescan's balls reach 4, and 26 level rescans run
    "fd-greedy-k3": "--algo fd-greedy --k 3 --n 14 --init-m 40 --steps 150 --seed 4",
    "greedy-k3": "--algo greedy --k 3 --n 24 --init-m 100 --steps 40 --seed 3 --check exact",
    "det3": "--algo det3 --n 30 --init-m 120 --steps 60 --seed 5"
    " --adversary spanner-target --p-insert 0.3 --check exact",
    # ~200 host edges, every one checked on every step
    "det3-n40": "--algo det3 --n 40 --init-m 200 --steps 80 --seed 8"
    " --adversary spanner-target --p-insert 0.3 --check exact",
    # two phase rollovers inside the run
    "resample3": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 70 --seed 6"
    " --adversary witness-hammer --p-insert 0.3",
    "jm": "--algo jm --jm-jobs 40 --jm-machines 200 --steps 60 --seed 7 --adversary max-load",
}

RUN_DIGESTS = {
    "det3": (
        "ab5c646d8f0e8f6bd5bb42ff21065b5a24e11713279a73dfc6f22cd4a6f5bccb",
        "c980cb220c3a98c99bfec98b8f63dd38f734b75818ba9a415268a74d5b3ed97a",
    ),
    "det3-n40": (
        "12d9e7ac1a74c378f3d5647fa231e20f6554c2ff9c1a81e6a92efcf8a0f121de",
        "ab80eba787c95e47e6d055c902d67337418039b73e11e3a3d866dcab6041ddc7",
    ),
    "fd-greedy": (
        "32ee5361bbb09372493f5a2d5f7059d25e8592838687107b7184733fe69fb6f0",
        "aebeeee8ab95edab67f365589866aa6decc5f249bf6c2d55332c5e3710906666",
    ),
    "fd-greedy-k3": (
        "d0b15847781367702d866030dee5281b4c58d720b0336141e08bbde590616a36",
        "fb2c97eea150693e44c289f35ac192a196a3c99cf21f0b55bf7b4e2a54ee5d7d",
    ),
    "greedy": (
        "86cff85566f76fde9c0445540a091879c8b6904ccb75f189c5854e926ad525e5",
        "89f79523431157473e3c833e74445c9c57355a814b860fe4d64fc3506c58a27b",
    ),
    "greedy-k3": (
        "a9b043a7e3e3ba2dc2c37af48038a7488b59dc2f49b03cfb7ae069bc02efa38d",
        "651c239d3fd411b6590e57e7d86b0b0ece931a644bd201df0557c7ead3e2285a",
    ),
    "jm": (
        "9c94c21a64320dbb60c3333327732f94950833bf269fb251934f4e70cab888d1",
        "33de1b61560d38c1ad003273ab85489b0e19a8eea207266131c4d16f388400d9",
    ),
    # the two rollover rows (steps 26 and 51) report the swap of the whole output;
    # a phase draws its witnesses in ascending-w order, its due pairs in the
    # order they were scheduled, and counts only the draws as resamples
    "resample3": (
        "c8aa3dd9e26fa45f818e513fe19e52a9b18fc313a6d6ebca7a7c0bda60fd6d3b",
        "498578e2587b64d41e3c47eb7c0380f49ef28f64d8307f8332ac8ae67dc14185",
    ),
}

ADVERSARIES = {
    "random": RandomOblivious,
    "spanner-target": SpannerTargeting,
    "witness-hammer": WitnessHammer,
}

# the spanner-target and witness-hammer streams read a resample3 structure,
# whose witness draws are in ascending-w order within a pair and, across the
# pairs due at a step, in the order they were scheduled
STREAM_DIGESTS = {
    ("random", 0.0): "cda8677c143b66a54d1963f8f27237e2466b329b4c7ad98597878ea00509104b",
    ("random", 0.3): "f5ece9ef0b68740d03f2756836ca1a63c8f86f9347c2335a7caab3b0e1d55211",
    ("random", 1.0): "bfea82576757fc7ca4e8dbf0288922122dd1387ccb6119afd2a39a8ec6de5583",
    ("spanner-target", 0.0): "c3126b0afec0f93bd9349f7d013919f0cbd823369bc1537276be9775ce938517",
    ("spanner-target", 0.3): "6ee1be72d6afde133ad838267682b1dbbcb7ab70f06995c076b9c248df0f740f",
    ("spanner-target", 1.0): "8fe4a6ff14be738d3fdb1db6cd17b5bb860bec2c46c1132d2ceb3b1dfd46fce4",
    ("witness-hammer", 0.0): "3c92e23b500a2607ef25fe684957d1620c275ff6748f1da857c558b90c10763d",
    ("witness-hammer", 0.3): "fc4b331ce64ddb7885ac0b6b619a057227e569e1b97eace113154eb154154d7c",
    ("witness-hammer", 1.0): "6f6bfccec4e344022d5fb49fbb1ed6f6afc03db398c025cd0522b0a0e82fb77c",
}

WRAPPED_DIGEST = "48020f4b0953f1df856bb4111cbf8e174257f58565e3c0340b48003703ebce57"


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_outputs(algo: str, tmp_path) -> tuple[bytes, bytes]:
    out = tmp_path / f"{algo}.csv"
    assert cli.main(["run", *RUNS[algo].split(), "--out", str(out)]) == 0
    meta = json.loads((tmp_path / f"{algo}.csv.meta.json").read_text())
    del meta["csv"]  # the output path differs between runs
    return out.read_bytes(), json.dumps(meta, sort_keys=True).encode()


# the start graph of every adversary stream: 120 of the pairs on 20 vertices
STREAM_START = random.Random(11).sample(list(itertools.combinations(range(20), 2)), 120)


def adversary_stream(name: str, p_insert: float, count: int = 100) -> str:
    """The first `count` events of one adversary driving a resample3
    structure on 20 vertices; p_insert=1 fills the graph and forces
    deletions once it is complete."""
    g = DynamicGraph(20, STREAM_START)
    r3 = Resample3(g, seed=12, phase_len=40)
    adv = ADVERSARIES[name](13, count, p_insert=p_insert)
    view = AdversaryView(g, spanner_masks=r3.spanner_masks, heaviest_machine=r3.heaviest_machine)
    lines = []
    while (ev := adv.next_event(view)) is not None:
        lines.append(f"{ev.seq} {ev.kind} {ev.edge[0]} {ev.edge[1]}")
        if ev.kind == INSERT:
            r3.insert(*ev.edge)
        else:
            r3.delete(*ev.edge)
    assert len(lines) == count
    return "\n".join(lines)


WRAPPED_N, WRAPPED_L = 14, 12


def wrapped_stream() -> tuple[list[tuple[int, int]], list[UpdateEvent]]:
    """The start edges and the 3L + 1 updates of `wrapped_steps`: half
    deletions of a uniform edge, half insertions of a uniform absent pair.
    The stream depends on the graph alone, so a copy of it stands in for
    the runner's."""
    rng = random.Random(29)
    pairs = list(itertools.combinations(range(WRAPPED_N), 2))
    start = rng.sample(pairs, 40)
    g = DynamicGraph(WRAPPED_N, start)
    events = []
    for seq in range(1, 3 * WRAPPED_L + 2):
        if g.m and rng.random() < 0.5:
            ev = UpdateEvent(seq, DELETE, rng.choice(sorted(g.edges())))
        else:
            ev = UpdateEvent(seq, INSERT, rng.choice([p for p in pairs if not g.has_edge(*p)]))
        g.apply(ev)
        events.append(ev)
    return start, events


def wrapped_steps(start: list[tuple[int, int]], events: list[UpdateEvent]) -> str:
    runner = WrappedRunner(DynamicGraph(WRAPPED_N, start), seed=37, rotation_len=WRAPPED_L)
    out = []
    for ev in events:
        step = runner.update(ev)
        # one line per update: the step's fields, then the window's declared budget
        fields = ", ".join(f"{k}={v}" for k, v in step._asdict().items())
        out.append(f"WrappedStep({fields}, budget={runner.declared_budget})")
    assert runner.window == 4  # three rotations
    return "\n".join(out)


@pytest.mark.parametrize("algo", sorted(RUNS))
def test_run_csv_and_meta_bytes(algo, tmp_path):
    csv, meta = run_outputs(algo, tmp_path)
    assert (digest(csv), digest(meta)) == RUN_DIGESTS[algo]


@pytest.mark.parametrize("algo", ["jm", "resample3"])
def test_the_resamples_column_counts_the_draws(algo, tmp_path, monkeypatch):
    """The CSV `resamples` column sums to the draws of the engine's steps: a
    due job with no live routine draws nothing and is no resample.  A build
    draws before its engine's clock starts, so in no row.  jm's
    `recourse_add` counts the same draws."""
    seen = Counter()
    draw = ResamplingEngine._draw

    def counting(eng, jobs):
        jobs = list(jobs)
        live = sum(1 for job in jobs if eng.live[job])
        if eng.T:
            seen["draws"] += live
            seen["dead entries"] += len(jobs) - live
        return draw(eng, jobs)

    monkeypatch.setattr(ResamplingEngine, "_draw", counting)
    out, _ = run_outputs(algo, tmp_path)
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    assert seen["draws"] > len(rows) and seen["dead entries"]  # some entries came due dead
    assert sum(int(row["resamples"]) for row in rows) == seen["draws"]
    if algo == "jm":
        assert sum(int(row["recourse_add"]) for row in rows) == seen["draws"]


@pytest.mark.parametrize("name,p_insert", sorted(STREAM_DIGESTS))
def test_adversary_event_streams(name, p_insert):
    assert digest(adversary_stream(name, p_insert)) == STREAM_DIGESTS[(name, p_insert)]


def test_wrapped_runner_steps():
    assert digest(wrapped_steps(*wrapped_stream())) == WRAPPED_DIGEST


def test_every_digest_rests_on_getrandbits_and_random_alone(tmp_path, monkeypatch):
    """No output of the program draws through `random`'s private
    `_randbelow`: with it, and every method that calls it, made to raise,
    each run, stream and wrapped-runner digest still holds.  The tests' own
    draws are made first."""
    stream = wrapped_stream()

    def refuse(*args, **kwargs):
        raise AssertionError("a draw through random's private _randbelow")

    for name in ("randrange", "randint", "sample", "choice", "choices", "shuffle", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refuse)
    with pytest.raises(AssertionError, match="_randbelow"):
        random.Random(1).randrange(5)  # the patch is in force
    for algo in sorted(RUNS):
        csv, meta = run_outputs(algo, tmp_path)
        assert (digest(csv), digest(meta)) == RUN_DIGESTS[algo], algo
    for name, p_insert in sorted(STREAM_DIGESTS):
        assert digest(adversary_stream(name, p_insert)) == STREAM_DIGESTS[(name, p_insert)]
    assert digest(wrapped_steps(*stream)) == WRAPPED_DIGEST
