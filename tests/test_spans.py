"""Every program name the benchmark reaches for exists under that name.

`bench/spans.py` replaces program functions by name, and its
`Tracer.installed()` skips a name it does not find, so a renamed function
would silently zero a per-layer metric.  This loads the tracer from its
file, unedited, and checks each of its targets.  `bench/test_bench.py`
injects a fault through det3 internals, checked here the same way, and
the tracer's hooks and `bench/driver.py::output_checks` read attributes
off the program's objects, checked here by name too.  A traced name that
exists but that no update calls is caught too: every edge structure's
update span must open on every step of a traced run.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

from dynspan import cli
from dynspan.fully_dynamic import RebuildInfo
from dynspan.graph import DynamicGraph
from dynspan.instrumentation import OpCounter
from dynspan.job_machine import ResamplingEngine, StepReport
from dynspan.oracle import StretchMemo
from dynspan.resample3 import PhaseState

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = list(load_spans().Tracer()._targets())
    adapters = set(cli.ALGO_FACTORIES.values())
    assert len(targets) > len(adapters)
    for owner, attr, name, _, _ in targets:
        if owner in adapters and attr == "apply":
            # inherited from Adapter by every adapter, so traced nowhere
            assert callable(getattr(owner, attr)), name
        else:
            assert callable(vars(owner).get(attr)), (owner.__name__, attr, name)


def test_fault_injection_names_resolve():
    # bench/test_bench.py's failed-check test overrides Det3State._cedge_remove
    # with one that reads these names; run_episode counts an AttributeError as
    # a failed step, so a renamed one would let that test pass with no wrong
    # output ever produced
    methods = {"_cedge_remove": ["self", "pair", "far"], "_remove_t2": ["self", "e", "pair"]}
    for method, params in methods.items():
        assert list(inspect.signature(vars(cli.Det3State)[method]).parameters) == params, method
    state = cli.Det3State(DynamicGraph(4, [(0, 1), (1, 2)]))
    for attr in ("cedge", "chosen"):
        assert isinstance(vars(state).get(attr), dict), attr


def adapter(algo: str):
    args = cli.build_parser().parse_args(
        ["run", "--algo", algo, "--n", "12", "--init-m", "30", "--steps", "4", "--seed", "5"]
    )
    return cli.ALGO_FACTORIES[algo](args, OpCounter())


def test_attributes_the_bench_reads_resolve():
    # an AttributeError in a hook or a final check fails the bench run and
    # nothing else, so each name it reads is pinned here
    fd = adapter("fd-greedy").state
    assert isinstance(fd.owner, dict) and set(fd.owner) == set(fd.g.edges())
    assert isinstance(fd.levels, dict) and fd.levels
    for level in fd.levels.values():
        assert isinstance(level.in_spanner, dict) and isinstance(level.non_spanner, set)
    assert RebuildInfo._fields == ("level", "size")
    r3 = adapter("resample3").state
    assert isinstance(r3.phase, PhaseState) and r3.phase_index == 1
    engine = adapter("jm").engine
    assert isinstance(engine, ResamplingEngine)
    rep = engine.tick()
    assert isinstance(rep, StepReport)
    assert isinstance(rep.resamples, int) and isinstance(rep.schedule_added, int)
    adapter("det3").state.check_against_rebuild()


def test_the_oracle_hooks_take_what_run_loop_passes(monkeypatch):
    # the tracer's `oracle.verify_stretch` hooks are called with run_loop's
    # own arguments, memo included, as a traced run calls them; a memo
    # passed by position or under another keyword fails here, not only in
    # the traced oracle metrics
    targets = load_spans().Tracer()._targets()
    before, after = next((b, a) for _, _, name, b, a in targets if name == "oracle.verify_stretch")
    real = cli.verify_stretch
    calls = []

    def spy(*args, **kwargs):
        count = before(*args, **kwargs)
        rep = real(*args, **kwargs)
        assert after(count, rep, *args, **kwargs) == {"checked": count} and count > 0
        calls.append((len(args), set(kwargs), kwargs["memo"]))
        return rep

    monkeypatch.setattr(cli, "verify_stretch", spy)
    argv = "run --algo det3 --n 12 --init-m 30 --steps 4 --seed 5 --check exact"
    args = cli.build_parser().parse_args(argv.split())
    adapter = cli.ALGO_FACTORIES["det3"](args, OpCounter())
    rows, failure = cli.run_loop(adapter, cli.make_adversary(args, adapter), args)
    assert failure is None and len(calls) == len(rows) == 4
    for n_args, keywords, memo in calls:
        assert n_args == 3 and keywords == {"memo"}
        assert memo is calls[0][2] and isinstance(memo, StretchMemo)  # one memo per run


class NoGauge:
    def sample_if_due(self, now_ns: int) -> None:
        pass


# the spans each edge structure's per-step update opens, and a run that reaches them
UPDATE_SPANS = {
    "greedy": ({"greedy.handle_delete"}, "--adversary spanner-target"),
    "fd-greedy": (
        {"fully_dynamic.insert", "fully_dynamic.delete"},
        "--adversary spanner-target --p-insert 0.6",
    ),
    "det3": ({"det3.apply"}, "--adversary spanner-target --p-insert 0.3"),
    # a phase of 8 updates: the run rolls over three times
    "resample3": ({"resample3.apply"}, "--adversary witness-hammer --p-insert 0.3 --phase-len 8"),
}


@pytest.mark.parametrize("algo", UPDATE_SPANS)
def test_every_step_opens_the_update_span(algo):
    # a traced name that nothing calls never opens a span, which zeroes
    # its per-layer metrics as silently as a renamed one: each structure's
    # update must go through the traced methods on every step
    spans = load_spans()
    names, extra = UPDATE_SPANS[algo]
    argv = f"run --algo {algo} --n 16 --init-m 60 --steps 30 --seed 5 {extra}"
    args = cli.build_parser().parse_args(argv.split())
    tracer = spans.Tracer()
    with tracer.installed():
        adapter = cli.ALGO_FACTORIES[algo](args, OpCounter())
        clock = spans.TracedStepClock(cli.make_adversary(args, adapter), NoGauge(), tracer)
        rows, failure = cli.run_loop(adapter, clock, args)
        clock.finish()
    assert failure is None and len(rows) == args.steps
    fired = [s for s in tracer.spans if s[spans.NAME] in names]
    assert {s[spans.STEP] for s in fired} == set(range(1, args.steps + 1)), algo
    if algo == "resample3":
        assert len(fired) == args.steps  # one apply per update
        assert sum(s[spans.ATTRS]["rollover"] for s in fired) >= 1
