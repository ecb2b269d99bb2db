"""Workload definitions and the timed episode: what `dynspan run` does, stamped per step.

An episode is one whole CLI-equivalent run: adapter construction (start
graph + structure), adversary construction, then the CLI's own
`run_loop`. The loop is the shipped code path, unmodified; the only thing
the benchmark puts in front of it is an adversary proxy that stamps the
end of one step and the start of the next, because `run_loop` calls
`next_event` exactly once per step. Between the two stamps the proxy
samples the host's speed (see `speed.py`), so that every time is also
given in reference time. Expects `src/` on `sys.path` (see `run.py`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from dynspan import cli
from dynspan.instrumentation import MetricsRow, OpCounter
from dynspan.oracle import verify_stretch
from speed import Gauge

# CLI arguments of each workload, minus --seed. `steps` is one episode's length.
WORKLOADS: dict[str, dict] = {
    "det3-exact": dict(
        algo="det3", n=144, init_m=1500, adversary="spanner-target", p_insert=0.5,
        check="exact", steps=1000,
    ),
    "fdgreedy-target": dict(
        algo="fd-greedy", k=2, n=128, init_m=1500, adversary="spanner-target", p_insert=0.25,
        steps=1000,
    ),
    "resample3-hammer": dict(
        algo="resample3", n=256, init_m=8000, phase_len=1000, adversary="witness-hammer",
        p_insert=0.25, steps=2000,
    ),
    "jm-maxload": dict(
        algo="jm", jm_jobs=2000, jm_machines=16000, adversary="max-load", steps=4000,
    ),
}


def cli_argv(workload: str, seed: int, steps: int | None = None) -> list[str]:
    """The `dynspan run` arguments of one episode of `workload`."""
    argv = ["run"]
    for key, value in WORKLOADS[workload].items():
        if key == "steps" and steps is not None:
            value = steps
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--seed", str(seed)]


def cli_args(workload: str, seed: int, steps: int | None = None):
    """Parsed exactly as `dynspan run` parses them, defaults included."""
    return cli.build_parser().parse_args(cli_argv(workload, seed, steps))


class StepClock:
    """Adversary proxy stamping each step's start and end, and sampling
    the gauge in between when a sample is due."""

    def __init__(self, adversary, gauge: Gauge) -> None:
        self.adversary = adversary
        self.gauge = gauge
        self.starts: list[int] = []
        self.ends: list[int] = []

    def next_event(self, view):
        now = time.perf_counter_ns()
        if self.starts:
            self.ends.append(now)
        self.gauge.sample_if_due(now)
        self.starts.append(time.perf_counter_ns())
        return self.adversary.next_event(view)

    def finish(self) -> None:
        """End the last step; run_loop has returned."""
        if len(self.ends) < len(self.starts):
            self.ends.append(time.perf_counter_ns())


@dataclass
class Episode:
    setup_ns: int
    setup_ref_ns: float  # set-up in reference time
    step_ns: list[int]
    step_ref_ns: list[float]  # step times in reference time
    gauge_ns: list[int]  # the gauge kernel's times over the episode
    attempted: int  # steps begun
    rows: list[MetricsRow]
    ops: Counter  # OpCounter charges per module during the loop
    failure: str | None  # online check failure or exception, if any
    adapter: object


def setup(args):
    """What `dynspan run` does before its loop: start graph and structure, then adversary."""
    counter = OpCounter()
    adapter = cli.ALGO_FACTORIES[args.algo](args, counter)
    return counter, adapter, cli.make_adversary(args, adapter)


def timed_setup(args, gauge: Gauge):
    """`setup(args)` between two gauge samples: its result, wall time and reference time."""
    gauge.sample()
    t0 = time.perf_counter_ns()
    out = setup(args)
    ns = time.perf_counter_ns() - t0
    gauge.sample()
    return out, ns, ns * gauge.scale(t0)


def run_episode(args, make_clock=StepClock) -> Episode:
    """Set up and run one episode; `make_clock(adversary, gauge)` gives the proxy."""
    gauge = Gauge()
    (counter, adapter, adversary), setup_ns, setup_ref_ns = timed_setup(args, gauge)
    clock = make_clock(adversary, gauge)
    before = Counter(counter.by_module)
    try:
        rows, check = cli.run_loop(adapter, clock, args)
        failure = None if check is None else str(check)
        attempted = len(rows)
    except Exception as exc:  # noqa: BLE001 - a crash in the program is a failed step
        rows, attempted = [], len(clock.starts)
        failure = f"step {attempted} raised {type(exc).__name__}: {exc}"
    clock.finish()
    gauge.sample()
    step_ns = [end - start for start, end in zip(clock.starts[: len(rows)], clock.ends)]
    step_ref_ns = [ns * gauge.scale(start) for start, ns in zip(clock.starts, step_ns)]
    ops = Counter(counter.by_module)
    ops.subtract(before)
    return Episode(
        setup_ns, setup_ref_ns, step_ns, step_ref_ns, gauge.ns, attempted, rows, +ops, failure, adapter
    )


def output_checks(adapter) -> list[str]:
    """Untimed checks of the final state; returns the failures found.

    Exact stretch of the final spanner against its host graph, plus every
    self-check the structure has.
    """
    failures = []

    def attempt(name, fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - every failed check is reported
            failures.append(f"{name}: {type(exc).__name__}: {exc}")

    if adapter.stretch_bound is not None:
        def stretch():
            rep = verify_stretch(adapter.graph, adapter.spanner(), adapter.stretch_bound)
            if not rep.ok:
                raise AssertionError(f"witness {rep.worst_edge} at distance {rep.worst_dist}")
        attempt("final exact stretch", stretch)
        attempt("graph.check_invariants", adapter.graph.check_invariants)
    if adapter.name == "det3":
        attempt("det3.check_against_rebuild", adapter.state.check_against_rebuild)
    elif adapter.name == "fd-greedy":
        fd = adapter.state

        def levels():
            if set(fd.owner) != set(adapter.graph.edges()):
                raise AssertionError("level partition differs from the host graph")
            for level in fd.levels.values():
                level.check_invariants()
        attempt("fully_dynamic.check_invariants", fd.check_invariants)
        attempt("greedy.check_invariants", levels)
    elif adapter.name == "resample3":
        attempt("resample3.check_invariants", adapter.state.phase.check_invariants)
    elif adapter.name == "jm":
        attempt("job_machine.check_feasible", adapter.engine.check_feasible)
    return failures

