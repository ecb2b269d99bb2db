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
    # ~200 host edges, so the check samples 64 of them on every step
    "det3-sampled": "--algo det3 --n 40 --init-m 200 --steps 80 --seed 8"
    " --adversary spanner-target --p-insert 0.3 --check sampled",
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
    "det3-sampled": (
        "12d9e7ac1a74c378f3d5647fa231e20f6554c2ff9c1a81e6a92efcf8a0f121de",
        "0344b71d6e0c4790c8eab80c9613324f28c1b9cc86373ef8e38e81684d09f224",
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
    # the two rollover rows (steps 26 and 51) report the swap of the whole output;
    # a phase draws its witnesses in ascending-w order
    "resample3": (
        "9becd378b3ce48fcb1d184c54413d89c96de4579a93a6b9f7d54acfc4faebd92",
        "498578e2587b64d41e3c47eb7c0380f49ef28f64d8307f8332ac8ae67dc14185",
    ),
}

ADVERSARIES = {
    "random": RandomOblivious,
    "spanner-target": SpannerTargeting,
    "witness-hammer": WitnessHammer,
}

# the spanner-target and witness-hammer streams read a resample3 structure,
# whose witness draws are in ascending-w order
STREAM_DIGESTS = {
    ("random", 0.0): "cda8677c143b66a54d1963f8f27237e2466b329b4c7ad98597878ea00509104b",
    ("random", 0.3): "f5ece9ef0b68740d03f2756836ca1a63c8f86f9347c2335a7caab3b0e1d55211",
    ("random", 1.0): "bfea82576757fc7ca4e8dbf0288922122dd1387ccb6119afd2a39a8ec6de5583",
    ("spanner-target", 0.0): "075085af597a9d87182a3245d714c45b247411c110238976e366a33d6d100b53",
    ("spanner-target", 0.3): "bb58305a08ecd0bc126d048b9999def038f8be895df7ddc346fac27f441e7b51",
    ("spanner-target", 1.0): "f4d5ca6ab9e3a430963554052bbfd50ae601937d26ac2baff112e50341f6210c",
    ("witness-hammer", 0.0): "6bfde6b338995cce3e290acdb3602a834cb7c56b2b446a0a691910edb29757c7",
    ("witness-hammer", 0.3): "20d9b406b261f3c0092d5bbdfd58072722b70389d224a5476a7f45814a25ad69",
    ("witness-hammer", 1.0): "2991489ca1c9207f0b6231025237a5aac7f06abb60977fbc720a13fb112b7126",
}

WRAPPED_DIGEST = "815b169034cf6d33915156d6d7921167a4e50c3b1732bad95d7183b5d2cf3e41"


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
