"""The update protocol: each spanner structure's `update(ev) -> Step`, as
the CLI drives it, reports exactly how its output changed."""

from __future__ import annotations

import ast
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from test_wrapped import random_events

import dynspan
from dynspan import cli
from dynspan.det3 import Det3State
from dynspan.fully_dynamic import FullyDynamicSpanner
from dynspan.graph import (
    DELETE,
    INSERT,
    DynamicGraph,
    EdgeExists,
    EdgeMissing,
    UpdateEvent,
    VertexOutOfRange,
)
from dynspan.instrumentation import OpCounter, Step
from dynspan.resample3 import PhaseState, Resample3, WrappedRunner

RUNS = {
    "greedy": "--algo greedy --k 2 --n 24 --init-m 100 --steps 40 --seed 3 --p-insert 0",
    # ell0 = 4 at n=10, so the 32nd insertion rebuilds a level
    "fd-greedy": "--algo fd-greedy --k 2 --n 10 --init-m 20 --steps 150 --seed 4",
    "det3": "--algo det3 --n 30 --init-m 120 --steps 60 --seed 5"
    " --adversary spanner-target --p-insert 0.3",
    "resample3": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 70 --seed 6"
    " --adversary witness-hammer --p-insert 0.3",
}


@dataclass
class Record:
    step: Step
    before: set
    after: set
    last_step: int  # the counter's last closed step
    rollover: bool  # a new resample3 phase started

    def conforms(self) -> bool:
        s = self.step
        return type(s) is Step and (s.adds, s.dels, s.output_size, s.op_count) == (
            len(self.after - self.before),
            len(self.before - self.after),
            len(self.after),
            self.last_step,
        )


def closed(s) -> bool:
    """Whether the update just applied closed both steps, the output step
    (nothing left to flush) and the op step (nothing charged since)."""
    return s.roles.flush() == [] and s.counter.current == 0


def drive(algo: str):
    args = cli.build_parser().parse_args(["run", *RUNS[algo].split()])
    counter = OpCounter()
    adapter = cli.ALGO_FACTORIES[algo](args, counter)
    adversary = cli.make_adversary(args, adapter)
    records = []
    while (ev := adversary.next_event(adapter.view())) is not None:
        before = adapter.spanner()
        phase = getattr(adapter.state, "phase_index", None)
        step = adapter.apply(ev)
        assert closed(adapter.state), ev
        rollover = phase != getattr(adapter.state, "phase_index", None)
        records.append(Record(step, before, adapter.spanner(), counter.last_step, rollover))
    assert len(records) == args.steps
    return adapter, records


@pytest.mark.parametrize("algo", sorted(RUNS))
def test_each_step_reports_the_output_diff(algo):
    adapter, records = drive(algo)
    for i, r in enumerate(records, 1):
        assert r.conforms(), (i, r.step)
    if algo == "fd-greedy":
        fd = adapter.state
        assert fd.insert_count >= 2 ** (fd.ell0 + 1)  # at least one level rebuild
    rollovers = [i for i, r in enumerate(records, 1) if r.rollover]
    assert rollovers == ([26, 51] if algo == "resample3" else [])


@pytest.mark.parametrize("algo", sorted(cli.ALGO_FACTORIES))
def test_set_up_and_rows_account_for_every_op(algo, monkeypatch):
    # no cost hides between rows: the set-up's ops, the rows' op counts and
    # the resample3 rollover builds, each its own op step, sum to the total
    builds = []
    new_phase = Resample3._new_phase

    def logged_new_phase(self):
        phase = new_phase(self)
        builds.append(self.counter.last_step)
        return phase

    monkeypatch.setattr(Resample3, "_new_phase", logged_new_phase)
    jm = "--algo jm --jm-jobs 40 --jm-machines 200 --steps 60 --seed 7 --adversary max-load"
    args = cli.build_parser().parse_args(["run", *{**RUNS, "jm": jm}[algo].split()])
    counter = OpCounter()
    adapter = cli.ALGO_FACTORIES[algo](args, counter)
    set_up = counter.total
    builds.clear()  # the first phase is set-up
    rows, failure = cli.run_loop(adapter, cli.make_adversary(args, adapter), args)
    assert failure is None and len(rows) == args.steps
    assert len(builds) == (2 if algo == "resample3" else 0)
    assert set_up + sum(r.op_count for r in rows) + sum(builds) == counter.total


def test_wrapped_runner_reports_the_output_diff():
    # the stream of test_wrapped.py's rotation test: three rotations, with
    # remnant drains, successor feeds and deletions of fed edges
    rng = random.Random(11)
    n, m, L = 25, 120, 30
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, rng.sample(pairs, m))
    events = random_events(random.Random(13), g, pairs, 3 * L + 5)
    runner = WrappedRunner(g, seed=21, rotation_len=L)
    set_up, ops = runner.counter.total, 0
    for i, ev in enumerate(events, 1):
        before = runner.spanner_edges()
        step = runner.update(ev)
        assert closed(runner) and runner.D_cur.roles.flush() == [], ev
        r = Record(step, before, runner.spanner_edges(), runner.counter.last_step, False)
        assert r.conforms(), (i, step)
        runner.check_invariants()
        ops += step.op_count
    assert runner.window == 4
    assert set_up + ops == runner.counter.total  # successor work is charged to the steps


def step_builders(tree: ast.AST, func: str = ""):
    """The enclosing function of every `Step(...)` call; the innermost decides."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from step_builders(node, node.name)
            continue
        if isinstance(node, ast.Call) and "Step" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            yield func
        yield from step_builders(node, func)


def test_only_the_role_set_and_the_engine_build_a_step():
    # a spanner update's Step is its role set's `step`; the engine's counts jobs
    src = Path(dynspan.__file__).resolve().parent
    found = {
        (path.name, func)
        for path in sorted(src.glob("*.py"))
        for func in step_builders(ast.parse(path.read_text()))
    }
    assert found == {("instrumentation.py", "step"), ("job_machine.py", "update")}


EIGHT = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)]
BAD_ENDPOINT = {
    "fd-insert": (lambda: FullyDynamicSpanner(DynamicGraph(8), 2), lambda s: s.insert(3, 40)),
    "fd-delete": (lambda: FullyDynamicSpanner(DynamicGraph(8, EIGHT), 2), lambda s: s.delete(3, 40)),
    "phase-delete-negative": (
        lambda: PhaseState(DynamicGraph(8, EIGHT), seed=1),
        lambda s: s.delete(0, -1),
    ),
    "phase-delete": (lambda: PhaseState(DynamicGraph(8, EIGHT), seed=1), lambda s: s.delete(3, 40)),
    "det3-delete": (lambda: Det3State(DynamicGraph(8, EIGHT)), lambda s: s.delete_edge(3, 40)),
}


@pytest.mark.parametrize("case", sorted(BAD_ENDPOINT))
def test_an_out_of_range_endpoint_changes_nothing(case):
    # the CLI checks ranges before a structure sees an update; a direct
    # caller must get the same error, not a half-applied update
    make, call = BAD_ENDPOINT[case]
    s = make()
    edges, masks = s.spanner_edges(), list(s.spanner_masks())
    with pytest.raises(VertexOutOfRange):
        call(s)
    assert (s.spanner_edges(), s.spanner_masks()) == (edges, masks)


PAIRS12 = list(itertools.combinations(range(12), 2))
START12 = random.Random(5).sample(PAIRS12, 30)
# (structure, legal updates applied before the rejected one)
REJECTED = {
    "det3": (Det3State, 4),
    "fully-dynamic": (lambda g: FullyDynamicSpanner(g, 2), 4),
    # a phase's own update, as its drivers call it
    "phase": (lambda g: PhaseState(g, seed=6), 4),
    # phase_len 4: the fifth update rolls the phase
    "resample3-rollover": (lambda g: Resample3(g, seed=6, phase_len=4), 4),
    # rotation_len 3: the fourth update rotates, the fifth is mid-window
    "wrapped-rotation": (lambda g: WrappedRunner(g, seed=7, rotation_len=3), 3),
    "wrapped-mid-window": (lambda g: WrappedRunner(g, seed=7, rotation_len=3), 4),
}


def update_of(s):
    """The structure's update: `apply` for a phase, `update` for the rest."""
    return s.apply if isinstance(s, PhaseState) else s.update


def observed(s):
    """What a rejected update must leave as it was: the output, the op
    count, and a driver's phase, window and journal."""
    return (
        s.spanner_edges(),
        s.counter.current,
        list(s.spanner_masks()),
        getattr(s, "phase_index", None),
        getattr(s, "window", None),
        list(getattr(s, "journal_cur", ())),
    )


@pytest.mark.parametrize("kind", [INSERT, DELETE, "move"])
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_a_rejected_update_raises_and_changes_nothing(case, kind):
    # a duplicate insert, a missing delete or an unknown kind, in a structure,
    # a phase, or a phase driver at a rollover, a rotation or mid-window: the
    # run goes on as if it never came
    make, before = REJECTED[case]
    graphs = [DynamicGraph(12, START12) for _ in range(2)]
    s, twin = make(graphs[0]), make(graphs[1])
    update, twin_update = update_of(s), update_of(twin)
    events = random_events(random.Random(8), graphs[0], PAIRS12, before + 3)
    for ev in events[:before]:
        assert update(ev) == twin_update(ev)
    g = s.graph if isinstance(s, WrappedRunner) else s.g
    if kind == INSERT:
        bad, error = UpdateEvent(before + 1, INSERT, min(g.edges())), EdgeExists
    elif kind == DELETE:
        absent = min(p for p in PAIRS12 if not g.has_edge(*p))
        bad, error = UpdateEvent(before + 1, DELETE, absent), EdgeMissing
    else:  # a present edge, which a delete would remove
        bad, error = UpdateEvent(before + 1, kind, min(g.edges())), ValueError
    seen = observed(s)
    with pytest.raises(error):
        update(bad)
    assert observed(s) == seen
    for ev in events[before:]:
        assert update(ev) == twin_update(ev), ev
    assert s.spanner_edges() == twin.spanner_edges()
