"""Frozen byte-level outputs on fixed seeds.

Each case reduces an output to a SHA-256 digest: the metrics CSV and meta
of one short `dynspan run` per algorithm, the opening events of every
edge adversary against a live resample3 structure, and the step records
of a de-amortized run over three rotations. A refactor that keeps the
behaviour keeps every digest; a change that alters an output has to
explain itself and replace the digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from dynspan import cli
from dynspan.adversary import AdversaryView, RandomOblivious, SpannerTargeting, WitnessHammer
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from dynspan.resample3 import Resample3, WrappedRunner

RUNS = {
    "greedy": "--algo greedy --k 2 --n 24 --init-m 100 --steps 40 --seed 3 --check exact",
    # ell0 = 4 at n=10, so the 32nd and 64th insertions rebuild a level
    "fd-greedy": "--algo fd-greedy --k 2 --n 10 --init-m 20 --steps 150 --seed 4",
    "det3": "--algo det3 --n 30 --init-m 120 --steps 60 --seed 5"
    " --adversary spanner-target --p-insert 0.3 --check exact",
    # two phase rollovers inside the run
    "resample3": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 70 --seed 6"
    " --adversary witness-hammer --p-insert 0.3",
    "jm": "--algo jm --jm-jobs 40 --jm-machines 200 --steps 60 --seed 7 --adversary max-load",
}

RUN_DIGESTS = {
    "det3": (
        "6c6afcd50067a97a83b1a043593d88e7af0df64fb282d76b911febea610e4845",
        "c980cb220c3a98c99bfec98b8f63dd38f734b75818ba9a415268a74d5b3ed97a",
    ),
    "fd-greedy": (
        "32ee5361bbb09372493f5a2d5f7059d25e8592838687107b7184733fe69fb6f0",
        "aebeeee8ab95edab67f365589866aa6decc5f249bf6c2d55332c5e3710906666",
    ),
    "greedy": (
        "86cff85566f76fde9c0445540a091879c8b6904ccb75f189c5854e926ad525e5",
        "89f79523431157473e3c833e74445c9c57355a814b860fe4d64fc3506c58a27b",
    ),
    "jm": (
        "8f4b574d8b88be339714e345529a1d363a2aee4cfc5422dd6458871b940cbc10",
        "33de1b61560d38c1ad003273ab85489b0e19a8eea207266131c4d16f388400d9",
    ),
    # the two rollover rows (steps 26 and 51) report the swap of the whole output
    "resample3": (
        "42297d9615a875f3eac1b7d77c6a892334d5597929c0825fb85e49d75f01c03a",
        "498578e2587b64d41e3c47eb7c0380f49ef28f64d8307f8332ac8ae67dc14185",
    ),
}

ADVERSARIES = {
    "random": RandomOblivious,
    "spanner-target": SpannerTargeting,
    "witness-hammer": WitnessHammer,
}

STREAM_DIGESTS = {
    ("random", 0.0): "cda8677c143b66a54d1963f8f27237e2466b329b4c7ad98597878ea00509104b",
    ("random", 0.3): "f5ece9ef0b68740d03f2756836ca1a63c8f86f9347c2335a7caab3b0e1d55211",
    ("random", 1.0): "bfea82576757fc7ca4e8dbf0288922122dd1387ccb6119afd2a39a8ec6de5583",
    ("spanner-target", 0.0): "6498f8e8370e3f8a1584cd05543f9f6d98c9de71a6792005a7cab949c87a4edd",
    ("spanner-target", 0.3): "15fd5abc537a55ff6438254c09131d81fc61ef337027fbc2c5c654cdc7b3d63b",
    ("spanner-target", 1.0): "85f331a06e0b137562cd8882b980737f23bf5012bbf997de74eaabc3f29b2e65",
    ("witness-hammer", 0.0): "cf14d47933f860a4693e5cabef1f7e7a910646c0d4dab2a4e9a4c3f2858011f2",
    ("witness-hammer", 0.3): "d5c2be0d3f77f563b73848a660ce9cf933669c5fefefb22761543e1da8a5908d",
    ("witness-hammer", 1.0): "fc03757d2184f5b908297020e8f63c882fd734d8fb655dc2314a2f4182ff75b5",
}

WRAPPED_DIGEST = "3ef6f5cd228468069e7d77ed9ee29bba3ae0ac91954712dcadddc9eac2487707"


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


def adversary_stream(name: str, p_insert: float, count: int = 100) -> str:
    """The first `count` events of one adversary driving a resample3
    structure on 20 vertices; p_insert=1 fills the graph and forces
    deletions once it is complete."""
    pairs = list(itertools.combinations(range(20), 2))
    g = DynamicGraph(20, random.Random(11).sample(pairs, 120))
    r3 = Resample3(g, seed=12, phase_len=40)
    adv = ADVERSARIES[name](13, count, p_insert=p_insert)
    view = AdversaryView(g, spanner=r3.spanner_edges, heaviest_machine=r3.heaviest_machine)
    lines = []
    while (ev := adv.next_event(view)) is not None:
        lines.append(f"{ev.seq} {ev.kind} {ev.edge[0]} {ev.edge[1]}")
        if ev.kind == INSERT:
            r3.insert(*ev.edge)
        else:
            r3.delete(*ev.edge)
    assert len(lines) == count
    return "\n".join(lines)


def wrapped_steps() -> str:
    rng = random.Random(29)
    n, L = 14, 12
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, 40))
    runner = WrappedRunner(g, seed=37, rotation_len=L)
    out = []
    for seq in range(1, 3 * L + 2):
        g = runner.graph  # the live instance's graph; rotations replace it
        if g.m and rng.random() < 0.5:
            ev = UpdateEvent(seq, DELETE, rng.choice(sorted(g.edges())))
        else:
            ev = UpdateEvent(seq, INSERT, rng.choice([p for p in pairs if not g.has_edge(*p)]))
        out.append(repr(runner.update(ev)))
    assert runner.window == 4  # three rotations
    return "\n".join(out)


@pytest.mark.parametrize("algo", sorted(RUNS))
def test_run_csv_and_meta_bytes(algo, tmp_path):
    csv, meta = run_outputs(algo, tmp_path)
    assert (digest(csv), digest(meta)) == RUN_DIGESTS[algo]


@pytest.mark.parametrize("name,p_insert", sorted(STREAM_DIGESTS))
def test_adversary_event_streams(name, p_insert):
    assert digest(adversary_stream(name, p_insert)) == STREAM_DIGESTS[(name, p_insert)]


def test_wrapped_runner_steps():
    assert digest(wrapped_steps()) == WRAPPED_DIGEST
