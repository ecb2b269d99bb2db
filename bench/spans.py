"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.installed()` replaces public functions and methods of the
program's modules with wrappers that record a span per call (name,
start, end, parent span, step id) and put the originals back on exit.
Nothing under `src/` changes. A span's layer is the part of its name
before the first dot; `cli.step` spans cover one whole step each, from
one `next_event` call to the next, so a layer's self time is measured
against the loop it ran in.
"""

from __future__ import annotations

import contextlib
import json
import time

from dynspan import cli, fully_dynamic, resample3
from dynspan.det3 import Det3State
from dynspan.fully_dynamic import FullyDynamicSpanner
from dynspan.graph import DynamicGraph, edge_key
from dynspan.greedy import GreedyState
from dynspan.job_machine import ResamplingEngine
from dynspan.resample3 import Resample3

# span fields, kept as lists for a low per-call cost
ID, NAME, START, END, PARENT, STEP, ATTRS, EPISODE = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.step = 0  # 0 while setting up, then the step id of the loop
        self.episode = 0

    def open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        span = [len(self.spans), name, 0, 0, parent, self.step, None, self.episode]
        span[START] = time.perf_counter_ns()
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span per call. `before(*args, **kwargs)` runs
        ahead of the span, `after(pre, result, *args, **kwargs)` after it,
        and its value becomes the span's attributes. Neither is timed."""
        tracer = self

        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span[ATTRS] = after(pre, out, *args, **kwargs)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, span name, before, after) for every traced call."""

        def rescan(state, u, v):
            if edge_key(u, v) in state.in_spanner:
                return len(state.non_spanner)
            return None

        def rescan_attrs(inspected, added, *args):
            if inspected is None:
                return None
            return {"rescan": 1, "inspected": inspected, "promoted": len(added)}

        def rebuild_attrs(pre, info, *args):
            return None if info is None else {"rebuild_level": info.level, "edges": info.size}

        def phase_index(r3, *args):
            return r3.phase_index

        def rollover_attrs(before, step, r3, *args):
            return {"rollover": int(r3.phase_index != before), "resamples": step.resamples}

        def engine_attrs(pre, rep, *args):
            return {"resamples": rep.resamples, "schedule_added": rep.schedule_added}

        def host_edges(g, h, t, mode="exact", sample=64, **kwargs):
            return g.m if mode == "exact" else min(g.m, sample)

        def checked(count, rep, *args, **kwargs):
            return {"checked": count}

        # setup: names the CLI adapters resolve in the cli module at call time
        yield cli, "seeded_graph", "graph.build", None, None
        yield cli, "Det3State", "det3.build", None, None
        yield cli, "FullyDynamicSpanner", "fully_dynamic.build", None, None
        yield cli, "Resample3", "resample3.build", None, None
        yield cli, "random_instance", "job_machine.build", None, None
        yield cli, "ResamplingEngine", "job_machine.build", None, None
        # the loop
        for adapter in cli.ALGO_FACTORIES.values():
            yield adapter, "apply", "cli.apply", None, None
        yield cli, "verify_stretch", "oracle.verify_stretch", host_edges, checked
        yield cli, "MetricsRow", "instrumentation.row", None, None
        yield cli, "write_metrics_csv", "instrumentation.csv_write", None, None
        yield DynamicGraph, "insert_edge", "graph.insert_edge", None, None
        yield DynamicGraph, "delete_edge", "graph.delete_edge", None, None
        yield Det3State, "insert_edge", "det3.apply", None, None
        yield Det3State, "delete_edge", "det3.apply", None, None
        yield FullyDynamicSpanner, "insert", "fully_dynamic.insert", None, rebuild_attrs
        yield FullyDynamicSpanner, "delete", "fully_dynamic.delete", None, None
        yield fully_dynamic, "GreedyState", "greedy.build", None, None
        yield GreedyState, "handle_delete", "greedy.handle_delete", rescan, rescan_attrs
        yield Resample3, "insert", "resample3.apply", phase_index, rollover_attrs
        yield Resample3, "delete", "resample3.apply", phase_index, rollover_attrs
        yield resample3, "PhaseState", "resample3.phase_build", None, None
        yield ResamplingEngine, "delete_machine", "job_machine.delete_machine", None, engine_attrs
        yield ResamplingEngine, "tick", "job_machine.tick", None, engine_attrs
        yield ResamplingEngine, "heaviest_machine", "job_machine.heaviest_machine", None, None

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, before, after in self._targets():
                fn = vars(owner).get(attr)
                if fn is None:  # inherited; traced where it is defined, if at all
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, before, after))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                record = {
                    "id": span[ID],
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": span[PARENT],
                    "step": span[STEP],
                    "episode": span[EPISODE],
                }
                if span[ATTRS]:
                    record.update(span[ATTRS])
                f.write(json.dumps(record) + "\n")


class TracedStepClock:
    """Adversary proxy opening a `cli.step` span per step and an
    `adversary.next_event` span inside it, and sampling the gauge
    between steps when a sample is due."""

    def __init__(self, adversary, gauge, tracer: Tracer) -> None:
        self.adversary = adversary
        self.gauge = gauge
        self.tracer = tracer
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._step_span = None

    def next_event(self, view):
        tracer = self.tracer
        self._close_step()
        self.gauge.sample_if_due(time.perf_counter_ns())
        tracer.step += 1
        self._step_span = tracer.open("cli.step")
        self.starts.append(self._step_span[START])
        span = tracer.open("adversary.next_event")
        try:
            return self.adversary.next_event(view)
        finally:
            tracer.close(span)

    def finish(self) -> None:
        """Close the last step's span; run_loop has returned."""
        self._close_step()

    def _close_step(self) -> None:
        if self._step_span is not None:
            self.tracer.close(self._step_span)
            self.ends.append(self._step_span[END])
            self._step_span = None
