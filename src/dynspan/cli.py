"""Command-line driver: run an algorithm against an adversary, or verify a stream.

Exit codes: 0 success, 2 online check failure or broken invariant, 3
input/usage error.  All output (CSV, metadata, stdout) is a pure function
of the arguments, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import sys

from dynspan.adversary import (
    AdversaryError,
    AdversaryView,
    MachineDelete,
    MaxLoadMachine,
    RandomOblivious,
    Replay,
    SpannerTargeting,
    StreamParse,
    WitnessHammer,
)
from dynspan.det3 import Det3State
from dynspan.fully_dynamic import FullyDynamicSpanner
from dynspan.graph import DynamicGraph, GraphError, sample_below
from dynspan.greedy import GreedyState
from dynspan.instrumentation import InvariantBroken, MetricsRow, OpCounter, Step, write_metrics_csv
from dynspan.job_machine import HyperInstance, JobMachineError, ResamplingEngine, random_instance
from dynspan.oracle import SpannerMasks, SpannerNotSubgraph, StretchMemo, verify_stretch
from dynspan.resample3 import Resample3

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_INPUT = 3
DEFAULT_STEPS = 1000  # --steps when omitted, except that a replay runs its whole stream


class BadArgs(Exception):
    pass


class CheckFailed(Exception):
    """An online check failed; the message names the step and the edge."""


def seeded_graph(n: int, m: int, seed: int, counter: OpCounter | None = None) -> DynamicGraph:
    """m distinct pairs drawn by rank from the lexicographic list of all
    n(n-1)/2, which is never built: `sample_below` draws the ranks."""
    total = n * (n - 1) // 2 if n > 0 else 0
    if m > total:
        raise BadArgs(f"--init-m {m} exceeds {total} possible edges")
    starts = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))  # row u's first rank
    edges = []
    for r in sample_below(random.Random(seed).getrandbits, total, m):
        u = bisect.bisect_right(starts, r) - 1
        edges.append((u, u + 1 + r - starts[u]))
    return DynamicGraph(n, edges, counter=counter)


class Adapter:
    """A structure under test as the run loop sees it.

    Subclasses only build `graph` (the host graph) and `state` (the
    structure) on one shared counter, closing the set-up step; every update
    goes through `state.update(ev) -> Step`, which closes its op and output
    steps.  The adversary's view reads one output query, `spanner_ranks`.
    """

    name: str
    stretch_bound: int | None  # None: the output is no spanner, nothing to check

    def view(self):
        """The adversary's view; `run_loop` builds it once per run."""
        return AdversaryView(
            self.graph,
            spanner_ranks=self.state.spanner_ranks,
            heaviest_machine=getattr(self.state, "heaviest_machine", None),
        )

    def spanner(self) -> set:
        return self.state.spanner_edges()

    def apply(self, ev) -> Step:
        return self.state.update(ev)


class GreedyAdapter(Adapter):
    name = "greedy"

    def __init__(self, args, counter: OpCounter) -> None:
        self.graph = seeded_graph(args.n, args.init_m, args.seed, counter)
        self.state = GreedyState(self.graph, args.k, counter)
        self.stretch_bound = 2 * args.k - 1
        counter.end_step()


class FDGreedyAdapter(Adapter):
    name = "fd-greedy"

    def __init__(self, args, counter: OpCounter) -> None:
        self.graph = seeded_graph(args.n, args.init_m, args.seed, counter)
        self.state = FullyDynamicSpanner(self.graph, args.k, counter)
        self.stretch_bound = 2 * args.k - 1
        counter.end_step()


class Det3Adapter(Adapter):
    name = "det3"

    def __init__(self, args, counter: OpCounter) -> None:
        self.graph = seeded_graph(args.n, args.init_m, args.seed, counter)
        self.state = Det3State(self.graph, counter=counter)
        self.stretch_bound = 3


class Resample3Adapter(Adapter):
    name = "resample3"

    def __init__(self, args, counter: OpCounter) -> None:
        self.graph = seeded_graph(args.n, args.init_m, args.seed, counter)
        self.state = Resample3(self.graph, args.seed, phase_len=args.phase_len, counter=counter)
        self.stretch_bound = 3


class JMAdapter(Adapter):
    name = "jm"
    stretch_bound = None

    def __init__(self, args, counter: OpCounter) -> None:
        if args.jm_instance:
            inst = HyperInstance.from_text(read_input(args.jm_instance, "instance file"))
        else:
            inst = random_instance(random.Random(args.seed), args.jm_jobs, args.jm_machines)
        self.engine = self.state = ResamplingEngine(
            inst, args.seed, horizon=args.steps, counter=counter
        )
        self.graph = None
        counter.end_step()

    def view(self):
        return self.engine


ALGO_FACTORIES = {
    "greedy": GreedyAdapter,
    "fd-greedy": FDGreedyAdapter,
    "det3": Det3Adapter,
    "resample3": Resample3Adapter,
    "jm": JMAdapter,
}


def read_input(path: str, what: str) -> str:
    """The text of an input file, read as UTF-8; a file that cannot be
    opened or decoded raises BadArgs naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadArgs(f"cannot read {what} {path}: {exc}") from exc


def load_replay(spec: str) -> Replay:
    return Replay(read_input(spec.split(":", 1)[1], "stream file"))


def make_adversary(args, adapter):
    spec = args.adversary
    budget = args.steps
    # the decremental greedy takes no insertions, whatever the mix says
    p_insert = 0.0 if adapter.name == "greedy" else args.p_insert
    if spec in ("random", "spanner-target", "witness-hammer") and adapter.name == "jm":
        raise BadArgs("the jm engine needs --adversary max-load or replay")
    if spec == "random":
        return RandomOblivious(args.seed + 1, budget, p_insert=p_insert)
    if spec == "spanner-target":
        return SpannerTargeting(args.seed + 1, budget, p_insert=p_insert)
    if spec == "witness-hammer":
        return WitnessHammer(args.seed + 1, budget, p_insert=p_insert)
    if spec == "max-load":
        if adapter.name != "jm":
            raise BadArgs("--adversary max-load drives the jm engine only")
        return MaxLoadMachine(budget)
    raise BadArgs(f"unknown adversary {spec!r}")


def event_label(ev) -> str:
    if isinstance(ev, MachineDelete):
        return f"- {ev.machine}"
    return f"{ev.kind} {ev.edge[0]} {ev.edge[1]}"


def run_loop(adapter, adversary, args) -> tuple[list[MetricsRow], CheckFailed | None]:
    rows: list[MetricsRow] = []
    failure: CheckFailed | None = None
    memo = StretchMemo()  # one per run: each check redoes only the rows that changed
    # one view per run: its graph never rebinds, and its queries read the
    # structure's output when called (resample3's from its current phase)
    view = adapter.view()
    for step in range(1, args.steps + 1):
        try:
            ev = adversary.next_event(view)
        except AdversaryError:
            break
        if ev is None:
            break
        s = adapter.apply(ev)
        stretch_ok = ""
        if args.check != "none" and adapter.stretch_bound is not None:
            try:
                rep = verify_stretch(
                    adapter.graph,
                    SpannerMasks(adapter.state.spanner_masks()),
                    adapter.stretch_bound,
                    memo=memo,
                )
                if not rep.ok:
                    failure = CheckFailed(
                        f"stretch violated at step {step}, witness edge {rep.worst_edge}"
                    )
            except SpannerNotSubgraph as exc:
                failure = CheckFailed(f"{exc} at step {step}")
            stretch_ok = "1" if failure is None else "0"
        rows.append(
            MetricsRow(
                step,
                event_label(ev),
                s.adds,
                s.dels,
                s.output_size,
                s.op_count,
                s.resamples,
                stretch_ok,
            )
        )
        if failure is not None:
            break
    return rows, failure


def run_metadata(args, adapter, rows) -> dict:
    return {
        "algo": adapter.name,
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "steps_requested": args.steps,
        "steps_run": len(rows),
        "adversary": args.adversary,
        "phase_len": args.phase_len,
        "check": args.check,
        "csv": args.out,
    }


def cmd_run(args) -> int:
    replay = None
    if args.adversary.startswith("replay:"):
        replay = load_replay(args.adversary)
        args.n = replay.n  # the stream header owns the vertex count
        total = len(replay.events)
        args.steps = total if args.steps is None else min(args.steps, total)
    elif args.steps is None:
        args.steps = DEFAULT_STEPS
    counter = OpCounter()
    adapter = ALGO_FACTORIES[args.algo](args, counter)
    if args.check != "none" and adapter.stretch_bound is None:
        raise BadArgs(f"--check {args.check}: {adapter.name} outputs no spanner to check")
    adversary = replay if replay is not None else make_adversary(args, adapter)
    rows, failure = run_loop(adapter, adversary, args)
    if args.out:
        write_metrics_csv(args.out, rows)
        with open(args.out + ".meta.json", "w") as f:
            json.dump(run_metadata(args, adapter, rows), f, sort_keys=True, indent=2)
            f.write("\n")
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_CHECK
    print(f"{adapter.name}: {len(rows)} steps ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    args.adversary = f"replay:{args.stream}"
    args.check = "exact"
    args.steps = None  # the whole stream, whatever --steps says
    return cmd_run(args)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BadArgs(message)


def int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return int_at_least(text, 0)


def probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="dynspan", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--algo", required=True, choices=sorted(ALGO_FACTORIES))
        sp.add_argument("--k", type=positive_int, default=2)
        sp.add_argument("--n", type=int, default=32)
        sp.add_argument("--steps", type=non_negative_int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--init-m", type=non_negative_int, default=0, dest="init_m")
        sp.add_argument("--phase-len", type=positive_int, default=None, dest="phase_len")
        sp.add_argument("--p-insert", type=probability, default=0.5, dest="p_insert")
        sp.add_argument("--jm-jobs", type=non_negative_int, default=200, dest="jm_jobs")
        sp.add_argument("--jm-machines", type=non_negative_int, default=1500, dest="jm_machines")
        sp.add_argument("--jm-instance", default=None, dest="jm_instance")
        sp.add_argument("--out", default=None)

    run = sub.add_parser("run", help="drive one algorithm against an adversary")
    common(run)
    run.add_argument("--adversary", default="random")
    run.add_argument("--check", choices=["none", "exact"], default="none")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="replay a stream with exact per-step checking")
    common(ver)
    ver.add_argument("--stream", required=True)
    ver.set_defaults(func=cmd_verify, adversary=None, check="exact")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (BadArgs, StreamParse, GraphError, JobMachineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBroken as exc:
        print(f"invariant broken: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
