"""Tests of the benchmark itself: it times the shipped path, its counts
repeat exactly, and a failed output check fails the run.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import driver  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from dynspan import cli  # noqa: E402

# reduced episode lengths; fdgreedy-target and resample3-hammer stay short of
# their first level rebuild and phase rollover
STEPS = {"det3-exact": 30, "fdgreedy-target": 150, "resample3-hammer": 40, "jm-maxload": 80}
SEED = 5
COUNTS = [n for n, m in run.metric_specs()["per_layer"].items() if m["unit"] in ("count", "edges", "ops", "ratio")]


def measured(workload: str) -> run.Run:
    r = run.Run(driver, spans, workload, SEED, STEPS[workload])
    r.measure(0, trace=True)  # warm-up, then one plain and one traced episode
    return r


@pytest.mark.parametrize("workload", list(driver.WORKLOADS))
def test_rows_are_the_cli_csv_and_counts_repeat(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    first = measured(workload)
    assert first.failures == []
    assert (len(first.plain), len(first.traced)) == (1, 1)

    expected = tmp_path / "dynspan-run.csv"
    argv = driver.cli_argv(workload, SEED, STEPS[workload]) + ["--out", str(expected)]
    assert cli.main(argv) == 0
    # written by the warm-up and again by the traced episode
    assert first.csv_path.read_bytes() == expected.read_bytes()

    second = measured(workload)
    e2e = [first.end_to_end()[0], second.end_to_end()[0]]
    layers = [first.per_layer()[0], second.per_layer()[0]]
    specs = run.metric_specs()
    assert e2e[0].keys() == specs["end_to_end"].keys()
    assert layers[0].keys() == specs["per_layer"].keys()
    for name in ("recourse_per_update", "ops_per_update_max"):
        assert e2e[0][name] == e2e[1][name] > 0
    assert {n: layers[0][n] for n in COUNTS} == {n: layers[1][n] for n in COUNTS}


def test_spans_nest_inside_their_parents(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    r = measured("det3-exact")
    recorded = r.tracer.spans
    assert recorded and not r.tracer.stack
    names = {s[spans.NAME] for s in recorded}
    assert {"cli.step", "adversary.next_event", "det3.apply", "oracle.verify_stretch"} <= names
    for s in recorded:
        assert s[spans.START] <= s[spans.END]
        if s[spans.PARENT] >= 0:
            p = recorded[s[spans.PARENT]]
            assert p[spans.START] <= s[spans.START] <= s[spans.END] <= p[spans.END]
            assert p[spans.STEP] == s[spans.STEP]
    steps = [s for s in recorded if s[spans.NAME] == "cli.step"]
    assert len(steps) == STEPS["det3-exact"] and all(s[spans.PARENT] < 0 for s in steps)


def test_failed_check_fails_the_run(tmp_path, monkeypatch, capsys):
    # a det3 that never re-chooses a lost type-2 edge must trip the checks
    class Faulty(cli.Det3State):
        def _cedge_remove(self, pair, far):
            zs = self.cedge.get(pair)
            if zs is None:
                return
            zs.discard(far)
            if not zs:
                del self.cedge[pair]
            if self.chosen.get(pair) == far:
                self._remove_t2((min(pair[0], far), max(pair[0], far)), pair)
                del self.chosen[pair]

    class FaultyAdapter(cli.Det3Adapter):
        def __init__(self, args, counter):
            self.counter = counter
            self.graph = cli.seeded_graph(args.n, args.init_m, args.seed, counter)
            self.state = Faulty(self.graph, counter=counter)
            self.stretch_bound = 3

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(cli.ALGO_FACTORIES, "det3", FaultyAdapter)
    code = run.main(["--workload", "det3-exact", "--seed", str(SEED), "--seconds", "1"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert 0 < summary["failed"] <= summary["attempted"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "jm-maxload", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert not (tmp_path / ".bench_runs").exists()


def test_reference_time_is_wall_time_over_the_gauge():
    g = speed.Gauge()
    g.at, g.ns = [0, 100, 200], [500_000, 1_500_000, 2_000_000]
    assert g.scale(-1) == speed.REFERENCE_NS / 500_000  # before the first sample
    assert g.scale(50) == speed.REFERENCE_NS / 1_000_000  # between two: their mean
    assert g.scale(100) == speed.REFERENCE_NS / 1_750_000
    assert g.scale(999) == speed.REFERENCE_NS / 2_000_000  # after the last

    ep = driver.run_episode(driver.cli_args("det3-exact", SEED, STEPS["det3-exact"]))
    assert len(ep.step_ref_ns) == len(ep.step_ns) == len(ep.rows) == STEPS["det3-exact"]
    assert len(ep.gauge_ns) >= 3  # around set-up, and after the loop
    lo, hi = speed.REFERENCE_NS / max(ep.gauge_ns), speed.REFERENCE_NS / min(ep.gauge_ns)
    for ns, ref_ns in zip(ep.step_ns, ep.step_ref_ns):
        assert ns > 0 and lo * (1 - 1e-9) <= ref_ns / ns <= hi * (1 + 1e-9)
