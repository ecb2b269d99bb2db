"""Seeded benchmark of dynspan: end-to-end metrics per workload, per-layer
metrics from a traced run.

    python3 bench/run.py --workload det3-exact --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --seed 1     # every workload of BENCHMARK.json, each in a fresh process

Run from any directory; the program is imported from the `src/` next to
this directory and nowhere else. A run repeats identical episodes (one
episode = one `dynspan run` of the workload with this seed) until
`--seconds` are used up, checks the outputs, and prints one metric per
line followed by a JSON summary as the last line. With `--trace 1`
untraced and traced episodes alternate and the per-layer metrics are
reported instead. Times are in reference time, which takes out the
shared host's changing speed (see `speed.py`); the record also holds
them as wall-clock time. Records, the metrics CSV and the span trace go
to `.bench_runs/`. Exit code 0: all outputs correct; 1: an output check
failed; 2: usage error or program sources missing. See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import REFERENCE_NS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_SAMPLES = 15  # extra set-ups fill up to this many, within a tenth of the run


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs() -> dict[str, dict[str, dict]]:
    """Name -> spec of every end-to-end and per-layer metric in BENCHMARK.json."""
    spec = benchmark_spec()
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))])


def tail_q(n: int) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond it."""
    if n >= 1000:
        return 0.99
    return max(0.0, 1.0 - 10 / n) if n else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def load_program():
    """Import the driver against `src/` of this checkout, or exit 2."""
    if not (SRC / "dynspan" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dynspan

    if Path(dynspan.__file__).resolve().parent != (SRC / "dynspan").resolve():
        print(f"error: dynspan imported from {dynspan.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import driver
    import spans

    return driver, spans


def git_commit() -> str:
    """HEAD of the checkout's own repository, read from .git; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(argv: list[str], seed: int, seconds: int, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload_args": argv,
        "commit": git_commit(),
    }


class Run:
    """Episodes of one workload and the checks made on them."""

    def __init__(self, driver, tracing, workload: str, seed: int, steps: int | None = None) -> None:
        self.driver = driver
        self.tracing = tracing
        self.args = driver.cli_args(workload, seed, steps)
        self.csv_path = OUT / f"{workload}-seed{seed}.csv"
        self.plain: list = []
        self.traced: list = []
        self.tracer = tracing.Tracer()
        self.reference = None  # rows of the first episode
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.wall_ns: list[int] = []
        # every timed set-up, episodes' and extra: wall and reference time
        self.setup_ns: list[int] = []
        self.setup_ref_ns: list[float] = []

    def episode(self, traced: bool, timed: bool = True) -> None:
        gc.collect()
        t0 = time.perf_counter_ns()
        if traced:
            tracer = self.tracer
            tracer.step = 0
            tracer.episode = len(self.plain) + len(self.traced) + 1
            with tracer.installed():
                ep = self.driver.run_episode(
                    self.args, lambda adv, gauge: self.tracing.TracedStepClock(adv, gauge, tracer)
                )
                self.wall_ns.append(time.perf_counter_ns() - t0)
                tracer.step = 0  # outside the loop
                self.driver.cli.write_metrics_csv(str(self.csv_path), ep.rows)
            self.traced.append(ep)
        else:
            ep = self.driver.run_episode(self.args)
            self.wall_ns.append(time.perf_counter_ns() - t0)
            if timed:
                self.plain.append(ep)
                self.setup_ns.append(ep.setup_ns)
                self.setup_ref_ns.append(ep.setup_ref_ns)
        self.attempted += ep.attempted + 1  # its steps and its output check
        if ep.failure is not None:
            self.failures.append(ep.failure)
        if self.reference is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.reference = ep.rows
            self.driver.cli.write_metrics_csv(str(self.csv_path), ep.rows)
            self.failures += self.driver.output_checks(ep.adapter)
        elif ep.rows == self.reference:
            ep.rows = self.reference
        else:
            self.failures.append("episode rows differ from the first episode's")
        ep.adapter = None  # the final state is no longer needed

    def measure(self, seconds: float, trace: bool) -> None:
        """A warm-up episode, whose outputs are checked in full and which
        is not timed; then episodes until the next one would pass the
        deadline, at least one of each kind, alternating plain and traced
        when tracing. Later episodes must repeat the first one's rows."""
        self.episode(traced=False, timed=False)
        start = time.perf_counter_ns()
        deadline = start + seconds * 1e9
        # set-up alone, repeated, so that its median rests on enough samples
        while not trace and len(self.setup_ns) < SETUP_SAMPLES and time.perf_counter_ns() < start + seconds * 1e8:
            gc.collect()
            _, ns, ref_ns = self.driver.timed_setup(self.args, self.driver.Gauge())
            self.setup_ns.append(ns)
            self.setup_ref_ns.append(ref_ns)
        while True:
            traced = trace and len(self.traced) < len(self.plain)
            self.episode(traced)
            enough = self.plain and (self.traced or not trace)
            if enough and time.perf_counter_ns() + mean(self.wall_ns[1:]) > deadline:
                break

    def end_to_end(self) -> tuple[dict, dict]:
        eps = self.plain
        rows = self.reference or []
        q = tail_q(len(rows))

        def timings(step_ns, setup_ns):
            """The timed metrics from per-episode step times and set-up times."""
            # every episode replays the same steps: a step's time is its median
            # over the episodes, which a preemption in one of them does not move
            typical = [statistics.median(ns) for ns in zip(*step_ns)]
            return {
                "updates_per_s": statistics.median(len(s) / (sum(s) / 1e9) for s in step_ns),
                "update_p50_us": quantile(typical, 0.5) / 1e3,
                "update_p99_us": quantile(typical, q) / 1e3,
                "setup_s": statistics.median(setup_ns) / 1e9,
            }

        metrics = timings([ep.step_ref_ns for ep in eps], self.setup_ref_ns)
        metrics.update({
            "peak_rss_mb": self.peak_rss_mb,
            "recourse_per_update": sum(r.recourse_add + r.recourse_del for r in rows) / max(1, len(rows)),
            "ops_per_update_max": float(max((r.op_count for r in rows), default=0)),
        })
        notes = {
            "episodes": len(eps),
            "steps_per_episode": len(rows),
            "step_samples": sum(len(ep.step_ns) for ep in eps),
            "setup_samples": len(self.setup_ns),
            "update_p99_us": f"p{100 * q:g} of {len(rows)} steps, each the median over {len(eps)} episodes",
            "reference_time": f"wall time x {REFERENCE_NS} ns / the gauge kernel's time at that moment",
            "gauge_kernel_us_p50": quantile([ns for ep in eps for ns in ep.gauge_ns], 0.5) / 1e3,
            "wall_clock": timings([ep.step_ns for ep in eps], self.setup_ns),
            "per_episode": {
                "updates_per_s": [len(ep.step_ref_ns) / (sum(ep.step_ref_ns) / 1e9) for ep in eps],
                "update_p50_us": [quantile(ep.step_ref_ns, 0.5) / 1e3 for ep in eps],
                "update_p99_us": [quantile(ep.step_ref_ns, q) / 1e3 for ep in eps],
                "setup_s": [ns / 1e9 for ns in self.setup_ref_ns],
            },
        }
        return metrics, notes

    def per_layer(self) -> tuple[dict, dict]:
        tr = self.tracing
        spans = self.tracer.spans
        child = Counter()
        for s in spans:
            if s[tr.PARENT] >= 0:
                child[s[tr.PARENT]] += s[tr.END] - s[tr.START]
        loop_ns = sum(sum(ep.step_ns) for ep in self.traced)
        self_ns = Counter()
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s[tr.NAME], []).append(s)
            if s[tr.STEP] > 0:
                self_ns[s[tr.NAME].split(".")[0]] += s[tr.END] - s[tr.START] - child[s[tr.ID]]

        def loop(name, keep=lambda attrs: True):
            return [s for s in by_name.get(name, ()) if s[tr.STEP] > 0 and keep(s[tr.ATTRS] or {})]

        def dur_us(ss):
            return [(s[tr.END] - s[tr.START]) / 1e3 for s in ss]

        def setup_s(*names):
            per_episode = Counter()
            for name in names:
                for s in by_name.get(name, ()):
                    if s[tr.STEP] == 0 and s[tr.PARENT] < 0:
                        per_episode[s[tr.EPISODE]] += s[tr.END] - s[tr.START]
            return statistics.median(per_episode.values()) / 1e9 if per_episode else 0.0

        # counts come from the first traced episode; every episode is identical
        first = self.traced[0]
        ep_id = next((s[tr.EPISODE] for s in spans), 0)

        def first_ep(ss):
            return [s for s in ss if s[tr.EPISODE] == ep_id]

        steps = max(1, len(first.rows))
        ops = first.ops
        rescans = loop("greedy.handle_delete", lambda a: a.get("rescan"))
        rebuilds = loop("fully_dynamic.insert", lambda a: "rebuild_level" in a)
        plain_fd = loop("fully_dynamic.insert", lambda a: "rebuild_level" not in a)
        plain_fd += loop("fully_dynamic.delete")
        r3 = loop("resample3.apply", lambda a: "rollover" in a)
        r3_plain = [s for s in r3 if not s[tr.ATTRS]["rollover"]]
        engine_steps = first_ep(loop("job_machine.delete_machine") + loop("job_machine.tick"))
        engine_steps = [s for s in engine_steps if s[tr.ATTRS]]
        verifies = loop("oracle.verify_stretch", lambda a: "checked" in a)
        # each oracle call checks the spanner as the step of its span left it
        first_verifies = [s for s in first_ep(verifies) if s[tr.STEP] <= len(first.rows)]
        checked = sum(s[tr.ATTRS]["checked"] for s in first_verifies)
        changed = sum(
            first.rows[s[tr.STEP] - 1].recourse_add + first.rows[s[tr.STEP] - 1].recourse_del
            for s in first_verifies
        )
        first_rescans = first_ep(rescans)
        first_rebuilds = first_ep(rebuilds)
        rows = [(s[tr.END] - s[tr.START]) / 1e3 for s in loop("instrumentation.row")]
        csv = [(s[tr.END] - s[tr.START]) / 1e9 for s in by_name.get("instrumentation.csv_write", ())]
        plain_loop = statistics.median(sum(ep.step_ref_ns) for ep in self.plain)
        traced_loop = statistics.median(sum(ep.step_ref_ns) for ep in self.traced)

        def busy(layer):
            return self_ns[layer] / loop_ns if loop_ns else 0.0

        def p99(values):
            return quantile(values, tail_q(len(values)))

        m = {
            "oracle.busy_share": busy("oracle"),
            "oracle.verify_us_p50": quantile(dur_us(verifies), 0.5),
            "oracle.verify_us_p99": p99(dur_us(verifies)),
            "oracle.edges_checked_per_call": checked / len(first_verifies) if first_verifies else 0.0,
            "oracle.changed_per_checked": changed / checked if checked else 0.0,
            "greedy.busy_share": busy("greedy"),
            "greedy.rescans": float(len(first_rescans)),
            "greedy.rescan_us_p50": quantile(dur_us(rescans), 0.5),
            "greedy.rescan_us_p99": p99(dur_us(rescans)),
            "greedy.inspected_per_rescan": mean([s[tr.ATTRS]["inspected"] for s in first_rescans]),
            "greedy.promoted_per_rescan": mean([s[tr.ATTRS]["promoted"] for s in first_rescans]),
            "greedy.ops_per_update": ops["greedy"] / steps,
            "fully_dynamic.busy_share": busy("fully_dynamic"),
            "fully_dynamic.rebuilds": float(len(first_rebuilds)),
            "fully_dynamic.rebuild_us_p50": quantile(dur_us(rebuilds), 0.5),
            "fully_dynamic.edges_per_rebuild": mean([s[tr.ATTRS]["edges"] for s in first_rebuilds]),
            "fully_dynamic.plain_us_p50": quantile(
                [(s[tr.END] - s[tr.START] - child[s[tr.ID]]) / 1e3 for s in plain_fd], 0.5
            ),
            "det3.busy_share": busy("det3"),
            "det3.build_s": setup_s("det3.build"),
            "det3.apply_us_p50": quantile(dur_us(loop("det3.apply")), 0.5),
            "det3.apply_us_p99": p99(dur_us(loop("det3.apply"))),
            "det3.ops_per_update": ops["det3"] / steps,
            "resample3.busy_share": busy("resample3"),
            "resample3.build_s": setup_s("resample3.build"),
            "resample3.apply_us_p50": quantile(dur_us(r3_plain), 0.5),
            "resample3.apply_us_p99": p99(dur_us(r3_plain)),
            "resample3.rollovers": float(sum(s[tr.ATTRS]["rollover"] for s in first_ep(r3))),
            "resample3.rollover_ms_mean": mean(dur_us(loop("resample3.phase_build"))) / 1e3,
            "resample3.resamples_per_update": sum(s[tr.ATTRS]["resamples"] for s in first_ep(r3)) / steps,
            "resample3.partnership_ops_per_update": ops["partnership"] / steps,
            "job_machine.busy_share": busy("job_machine"),
            "job_machine.build_s": setup_s("job_machine.build"),
            "job_machine.heaviest_us_p50": quantile(dur_us(loop("job_machine.heaviest_machine")), 0.5),
            "job_machine.delete_us_p50": quantile(dur_us(loop("job_machine.delete_machine")), 0.5),
            "job_machine.delete_us_p99": p99(dur_us(loop("job_machine.delete_machine"))),
            "job_machine.resamples_per_step": mean([s[tr.ATTRS]["resamples"] for s in engine_steps]),
            "job_machine.schedule_added_per_step": mean(
                [s[tr.ATTRS]["schedule_added"] for s in engine_steps]
            ),
            "job_machine.ops_per_update": ops["job_machine"] / steps,
            "adversary.busy_share": busy("adversary"),
            "adversary.next_event_us_p50": quantile(dur_us(loop("adversary.next_event")), 0.5),
            "adversary.next_event_us_p99": p99(dur_us(loop("adversary.next_event"))),
            "graph.busy_share": busy("graph"),
            "graph.build_s": setup_s("graph.build"),
            "graph.ops_per_update": ops["graph"] / steps,
            "cli.busy_share": busy("cli"),
            "instrumentation.busy_share": busy("instrumentation"),
            "instrumentation.row_us_p50": quantile(rows, 0.5),
            "instrumentation.csv_write_s": statistics.median(csv) if csv else 0.0,
            "trace.overhead_share": traced_loop / plain_loop - 1.0,
        }
        notes = {
            "traced_episodes": len(self.traced),
            "plain_episodes": len(self.plain),
            "spans": len(spans),
            "samples": {name: len(ss) for name, ss in sorted(by_name.items())},
        }
        return m, notes


def run_one(driver, tracing, workload: str, seed: int, seconds: int, trace: int) -> int:
    """Measure one workload, write its record, print its report; the exit code."""
    OUT.mkdir(exist_ok=True)
    run = Run(driver, tracing, workload, seed)
    run.measure(seconds, bool(trace))
    metrics, notes = run.per_layer() if trace else run.end_to_end()
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    result = {
        "workload": workload,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": m["unit"]} for name, m in specs.items()},
        "notes": notes,
        "provenance": provenance(driver.cli_argv(workload, seed), seed, seconds, trace),
    }
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    if trace:
        run.tracer.write_jsonl(str(stem) + ".spans.jsonl")
    with open(str(stem) + ".json", "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    report(result, specs, stem)
    return 0 if result["correct"] else 1


def report(result: dict, specs: dict, stem: Path) -> None:
    """Human-readable lines, then the one-line JSON summary last."""
    scalars = {k: v for k, v in result["notes"].items() if not isinstance(v, dict)}
    print(f"workload {result['workload']}  " + json.dumps(scalars))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} ({specs[name]['better']} is better)")
    wall = result["notes"].get("wall_clock")
    if wall:
        print("  wall-clock time: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    fail_share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':40s} {fail_share:>14.6g} {'ratio':6s} ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"record {stem}.json")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None, help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    driver, tracing = load_program()
    if args.workload is not None:
        if args.workload not in driver.WORKLOADS:
            p.error(f"unknown workload {args.workload!r}; choose from {', '.join(driver.WORKLOADS)}")
        return run_one(driver, tracing, args.workload, args.seed, args.seconds, args.trace)
    # every workload of BENCHMARK.json, one at a time, each in its own fresh process
    code = 0
    for workload in (w["name"] for w in benchmark_spec()["workloads"]):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
