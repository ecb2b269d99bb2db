"""Command-line driver: run algorithms against adversaries, verify, bench.

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
from dynspan.graph import DynamicGraph, GraphError
from dynspan.greedy import GreedyState
from dynspan.instrumentation import InvariantBroken, MetricsRow, OpCounter, Step, write_metrics_csv
from dynspan.job_machine import HyperInstance, JobMachineError, ResamplingEngine, random_instance
from dynspan.oracle import SpannerMasks, SpannerNotSubgraph, verify_stretch
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
    n(n-1)/2, which is never built: `sample` reads only its length."""
    total = n * (n - 1) // 2 if n > 0 else 0
    if m > total:
        raise BadArgs(f"--init-m {m} exceeds {total} possible edges")
    starts = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))  # row u's first rank
    edges = []
    for r in random.Random(seed).sample(range(total), m):
        u = bisect.bisect_right(starts, r) - 1
        edges.append((u, u + 1 + r - starts[u]))
    return DynamicGraph(n, edges, counter=counter)


class Adapter:
    """A structure under test as the run loop sees it.

    Subclasses only build `graph` (the host graph) and `state` (the
    structure) on one shared counter, closing the set-up step; every update
    goes through `state.update(ev) -> Step`.
    """

    name: str
    stretch_bound: int | None  # None: the output is no spanner, nothing to check

    def view(self):
        return AdversaryView(
            self.graph,
            spanner_masks=self.state.spanner_masks,
            spanner_ranks=getattr(self.state, "spanner_ranks", None),
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
            with open(args.jm_instance) as f:
                inst = HyperInstance.from_text(f.read())
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


def load_replay(spec: str) -> Replay:
    path = spec.split(":", 1)[1]
    try:
        with open(path) as f:
            return Replay(f.read())
    except OSError as exc:
        raise BadArgs(f"cannot read stream file {path}: {exc}") from exc


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
    for step in range(1, args.steps + 1):
        try:
            ev = adversary.next_event(adapter.view())
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
                    mode=args.check,
                    sample=64,
                    seed=args.seed * 1_000_003 + step,
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
        "n": getattr(args, "n", None),
        "k": getattr(args, "k", None),
        "seed": args.seed,
        "steps_requested": args.steps,
        "steps_run": len(rows),
        "adversary": args.adversary,
        "phase_len": getattr(args, "phase_len", None),
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


def quantiles(values: list[int]) -> tuple[int, int, int]:
    if not values:
        return 0, 0, 0
    s = sorted(values)
    p50 = s[int(0.50 * (len(s) - 1))]
    p95 = s[int(0.95 * (len(s) - 1))]
    return p50, p95, s[-1]


def cmd_bench(args) -> int:
    algos = [a for a in args.algos.split(",") if a]
    for a in algos:
        if a not in ALGO_FACTORIES:
            raise BadArgs(f"unknown algo {a!r}")
    all_rows: list[MetricsRow] = []
    print("algo,p50_ops,p95_ops,max_ops,p50_add,p95_add,max_add,steps")
    for a in algos:
        sub = argparse.Namespace(**vars(args))
        sub.algo = a
        sub.check = "none"
        counter = OpCounter()
        adapter = ALGO_FACTORIES[a](sub, counter)
        adversary = make_adversary(sub, adapter)
        rows, _ = run_loop(adapter, adversary, sub)
        ops = [r.op_count for r in rows]
        adds = [r.recourse_add for r in rows]
        o50, o95, omax = quantiles(ops)
        a50, a95, amax = quantiles(adds)
        print(f"{a},{o50},{o95},{omax},{a50},{a95},{amax},{len(rows)}")
        all_rows.extend(rows)
    if args.out:
        write_metrics_csv(args.out, all_rows)
    return EXIT_OK


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

    def common(sp, algo=True):
        if algo:
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
    run.add_argument("--check", choices=["none", "sampled", "exact"], default="none")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="replay a stream with exact per-step checking")
    common(ver)
    ver.add_argument("--stream", required=True)
    ver.set_defaults(func=cmd_verify, adversary=None, check="exact")

    bench = sub.add_parser("bench", help="op-count and recourse quantiles per algorithm")
    common(bench, algo=False)
    bench.add_argument("--algos", default="greedy,det3")
    bench.add_argument("--adversary", default="random")
    bench.set_defaults(func=cmd_bench, check="none", steps=DEFAULT_STEPS)

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
