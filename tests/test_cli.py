"""End-to-end CLI: run, verify, exit codes, reproducibility."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dynspan import cli, greedy, oracle
from dynspan.adversary import write_stream
from dynspan.det3 import Det3State
from dynspan.graph import DELETE, INSERT, DynamicGraph, UpdateEvent
from dynspan.instrumentation import CSV_HEADER, MetricsRow, OpCounter
from dynspan.job_machine import random_instance


def deletion_stream(tmp_path, name, n=12, m=30, count=20, seed=3):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    edges = rng.sample(pairs, m)
    g = DynamicGraph(n, edges)
    events = []
    for seq in range(1, count + 1):
        e = rng.choice(sorted(g.edges()))
        g.delete_edge(*e)
        events.append(UpdateEvent(seq, DELETE, e))
    path = tmp_path / name
    write_stream(str(path), n, events)
    init = tmp_path / (name + ".init")
    init_events = [UpdateEvent(i + 1, INSERT, e) for i, e in enumerate(sorted(edges))]
    full = [UpdateEvent(i + 1, ev.kind, ev.edge) for i, ev in enumerate(init_events + events)]
    write_stream(str(init), n, full)
    return path, init, edges


def test_run_greedy_replay_exact(tmp_path, capsys):
    # greedy runs need the replayed deletions to exist in the initial graph;
    # build the same graph via --init-m seeding is not possible for an
    # arbitrary stream, so replay insert-then-delete through fd-greedy and
    # drive greedy with a stream over its own seeded graph
    n, m, seed = 12, 30, 3
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n, random.Random(seed).sample(pairs, m))
    events = []
    for seq in range(1, 16):
        e = rng.choice(sorted(g.edges()))
        g.delete_edge(*e)
        events.append(UpdateEvent(seq, DELETE, e))
    path = tmp_path / "del.txt"
    write_stream(str(path), n, events)
    out = tmp_path / "run.csv"
    code = cli.main(
        [
            "run",
            "--algo",
            "greedy",
            "--k",
            "2",
            "--init-m",
            str(m),
            "--seed",
            str(seed),
            "--adversary",
            f"replay:{path}",
            "--check",
            "exact",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,event,")
    assert len(lines) == 16
    assert (tmp_path / "run.csv.meta.json").exists()


def test_run_det3_random_checked():
    code = cli.main(
        [
            "run",
            "--algo",
            "det3",
            "--n",
            "36",
            "--steps",
            "300",
            "--seed",
            "7",
            "--adversary",
            "random",
            "--check",
            "exact",
        ]
    )
    assert code == 0


def test_run_resample3_and_fd(tmp_path):
    for algo in ("resample3", "fd-greedy"):
        code = cli.main(
            [
                "run",
                "--algo",
                algo,
                "--n",
                "20",
                "--init-m",
                "40",
                "--steps",
                "120",
                "--seed",
                "5",
                "--adversary",
                "spanner-target",
                "--check",
                "exact",
                "--phase-len",
                "60",
            ]
        )
        assert code == 0


def test_run_jm_max_load():
    code = cli.main(
        [
            "run",
            "--algo",
            "jm",
            "--steps",
            "200",
            "--seed",
            "11",
            "--jm-jobs",
            "50",
            "--jm-machines",
            "400",
            "--adversary",
            "max-load",
        ]
    )
    assert code == 0


def test_jm_instance_file_runs_as_the_seeded_instance(tmp_path):
    # `run` builds random_instance(Random(seed), jobs, machines) when given no file
    path = tmp_path / "instance.txt"
    path.write_text(random_instance(random.Random(23), jobs=60, machines=300).to_text())
    argv = ["run", "--algo", "jm", "--steps", "120", "--seed", "23", "--adversary", "max-load"]
    outs = []
    for source in (["--jm-jobs", "60", "--jm-machines", "300"], ["--jm-instance", str(path)]):
        out = tmp_path / f"run{len(outs)}.csv"
        assert cli.main([*argv, *source, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text,message",
    [
        ("J 1\nM 3\nR 0 0 1\nR 0 1 2\n", "two routines share machine 1"),
        ("J 1\nM 3\nR 0 1 1\n", "routine of job 0 names machine 1 twice"),
        ("J 1\nM 3\nR 0 5\n", "unknown machine 5"),
        ("J 1\nM 3\nR 0\n", "empty machine set"),
        ("J 1\nM 3\nX 0 1\n", "unknown record 'X'"),
    ],
)
def test_bad_jm_instance_file_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    argv = ["run", "--algo", "jm", "--adversary", "max-load", "--steps", "5"]
    assert cli.main([*argv, "--jm-instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "det3", "--adversary", "replay:{path}"],
        ["verify", "--algo", "det3", "--stream", "{path}"],
        ["run", "--algo", "jm", "--adversary", "max-load", "--jm-instance", "{path}"],
    ],
    ids=["replay", "verify", "jm-instance"],
)
def test_an_input_file_that_is_not_utf8_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"N 5\n+ 0 1\n\xd0\x00\xff\xfe- 0 1\n")  # invalid UTF-8 on line 3
    out = tmp_path / "run.csv"
    argv = [arg.format(path=path) for arg in argv]
    assert cli.main([*argv, "--steps", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_malformed_stream_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("N 5\n+ 0\n")
    code = cli.main(["run", "--algo", "det3", "--adversary", f"replay:{path}"])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_stream_deleting_missing_edge_is_input_error(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("N 5\n- 0 1\n")
    code = cli.main(["run", "--algo", "det3", "--adversary", f"replay:{path}"])
    assert code == 3


def test_verify_valid_stream(tmp_path):
    rng = random.Random(9)
    n = 10
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n)
    events = []
    for seq in range(1, 40):
        if g.m and rng.random() < 0.4:
            e = rng.choice(sorted(g.edges()))
            g.delete_edge(*e)
            events.append(UpdateEvent(seq, DELETE, e))
        else:
            e = rng.choice([p for p in pairs if not g.has_edge(*p)])
            g.insert_edge(*e)
            events.append(UpdateEvent(seq, INSERT, e))
    path = tmp_path / "mixed.txt"
    write_stream(str(path), n, events)
    assert cli.main(["verify", "--algo", "det3", "--stream", str(path)]) == 0
    assert cli.main(["verify", "--algo", "fd-greedy", "--k", "2", "--stream", str(path)]) == 0


def test_fault_injection_is_caught(tmp_path, monkeypatch):
    # a build that skips type-2 repair must trip the exact checker
    class Faulty(Det3State):
        def _cedge_remove(self, pair, far):
            zs = self.cedge.get(pair)
            if zs is None:
                return
            zs.discard(far)
            if not zs:
                del self.cedge[pair]
            if self.chosen.get(pair) == far:
                self._remove_t2((min(pair[0], far), max(pair[0], far)), pair)
                del self.chosen[pair]  # never re-chooses: repair skipped

    class FaultyAdapter(cli.Det3Adapter):
        def __init__(self, args, counter):
            self.counter = counter
            self.graph = cli.seeded_graph(args.n, args.init_m, args.seed, counter)
            self.state = Faulty(self.graph, counter=counter)
            self.stretch_bound = 3

    monkeypatch.setitem(cli.ALGO_FACTORIES, "det3", FaultyAdapter)
    code = cli.main(
        [
            "run",
            "--algo",
            "det3",
            "--n",
            "24",
            "--init-m",
            "140",
            "--steps",
            "200",
            "--seed",
            "3",
            "--adversary",
            "spanner-target",
            "--p-insert",
            "0.0",
            "--check",
            "exact",
        ]
    )
    assert code == 2


def test_spanner_edge_outside_the_host_graph_fails_the_check(tmp_path, monkeypatch, capsys):
    # a det3 that never drops a lost partner edge keeps the deleted edge in its output
    handle_center_loss = Det3State._handle_center_loss

    def keep_the_partner_role(self, owner, old_center, e):
        handle_center_loss(self, owner, old_center, e)
        self.roles.add(e)  # the role the original just removed

    monkeypatch.setattr(Det3State, "_handle_center_loss", keep_the_partner_role)
    out = tmp_path / "run.csv"
    argv = "run --algo det3 --n 30 --init-m 120 --steps 60 --seed 5 --adversary spanner-target"
    assert cli.main([*argv.split(), "--check", "exact", "--out", str(out)]) == 2
    *_, last = out.read_text().splitlines()
    step, event, *_, stretch_ok = last.split(",")
    _, u, v = event.split()
    assert stretch_ok == "0" and step == "6"
    assert f"spanner edge ({u}, {v}) not in host graph at step {step}" in capsys.readouterr().err
    assert json.loads((tmp_path / "run.csv.meta.json").read_text())["steps_run"] == 6


def test_bad_args_exit_3():
    assert cli.main(["run", "--algo", "nope"]) == 3
    assert cli.main(["run", "--algo", "jm", "--adversary", "random"]) == 3
    assert cli.main(["frobnicate"]) == 3


@pytest.mark.parametrize(
    "argv, value",
    [
        (["run", "--algo", "det3", "--n", "8", "--check", "sampled"], "sampled"),
        (["bench", "--algos", "det3", "--steps", "5"], "bench"),
    ],
)
def test_retired_surface_is_a_usage_error(argv, value, capsys):
    # --check takes none or exact, and the commands are run and verify:
    # anything else is a usage error, reported without a traceback
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert f"invalid choice: '{value}'" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20, 64])
def test_seeded_graph_draws_the_listed_sample(n):
    # the draw by rank picks the same pairs as sampling the listed pairs
    pairs = list(itertools.combinations(range(n), 2))
    for m in sorted({0, min(1, len(pairs)), len(pairs) // 3, len(pairs)}):
        for seed in (0, 1, 601):
            want = random.Random(seed).sample(pairs, m)
            assert list(cli.seeded_graph(n, m, seed).edges()) == sorted(want), (m, seed)
    with pytest.raises(cli.BadArgs):
        cli.seeded_graph(n, len(pairs) + 1, 0)


def test_seeded_graph_memory_does_not_grow_with_the_pair_count():
    tracemalloc.start()
    try:
        g = cli.seeded_graph(1024, 100, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 100
    assert peak < 1 << 20  # listing all 523,776 pairs would take ~34 MB


def test_byte_reproducible_runs(tmp_path):
    outs = []
    for _ in range(2):
        out = tmp_path / "same.csv"
        code = cli.main(
            [
                "run",
                "--algo",
                "resample3",
                "--n",
                "18",
                "--init-m",
                "40",
                "--steps",
                "150",
                "--seed",
                "21",
                "--adversary",
                "witness-hammer",
                "--p-insert",
                "0.3",
                "--check",
                "exact",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes() + (tmp_path / "same.csv.meta.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--algo", "greedy", "--k", "0"],
        ["--algo", "resample3", "--phase-len", "0"],
        ["--algo", "det3", "--p-insert", "7"],
        ["--algo", "det3", "--p-insert", "-0.1"],
    ],
)
def test_out_of_range_args_exit_3(argv, capsys):
    assert cli.main(["run", *argv, "--n", "8", "--init-m", "10", "--steps", "5"]) == 3
    assert "must" in capsys.readouterr().err


def test_a_large_k_costs_what_the_vertex_count_allows(tmp_path, monkeypatch):
    """No finite distance in an n-vertex graph exceeds n - 1: a greedy run
    with k far beyond n writes the CSV of k = n on the same stream, and
    neither the greedy's balls nor the oracle's reach levels grow past
    what n allows."""
    n = 8
    called = []

    def capped(real, bound):
        def call(*args):  # the radius is the last argument
            called.append(real.__name__)
            assert args[-1] <= bound, (real.__name__, args[-1])
            return real(*args)

        return call

    monkeypatch.setattr(greedy, "mask_balls", capped(greedy.mask_balls, 2 * n - 2))
    monkeypatch.setattr(oracle, "reach_levels", capped(oracle.reach_levels, n // 2))
    csvs = []
    for k in (1_000_000, n):
        out = tmp_path / f"k{k}.csv"
        argv = ["run", "--algo", "greedy", "--k", str(k), "--n", str(n), "--init-m", "10"]
        assert cli.main(argv + ["--steps", "3", "--check", "exact", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert set(called) == {"mask_balls", "reach_levels"}, called


def test_k0_rejected_by_the_parser():
    # checked at the parser only: past it, fd-greedy's level computation
    # would never return for k=0
    with pytest.raises(cli.BadArgs, match="--k"):
        cli.build_parser().parse_args(["run", "--algo", "fd-greedy", "--k", "0"])


def mixed_stream(tmp_path, name, n=40, count=1200, seed=41):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    g = DynamicGraph(n)
    events = []
    for seq in range(1, count + 1):
        if g.m and rng.random() < 0.4:
            e = rng.choice(sorted(g.edges()))
            g.delete_edge(*e)
            events.append(UpdateEvent(seq, DELETE, e))
        else:
            e = rng.choice([p for p in pairs if not g.has_edge(*p)])
            g.insert_edge(*e)
            events.append(UpdateEvent(seq, INSERT, e))
    path = tmp_path / name
    write_stream(str(path), n, events)
    return path


def test_replay_without_steps_runs_the_whole_stream(tmp_path):
    path = mixed_stream(tmp_path, "long.txt")
    out = tmp_path / "long.csv"
    assert cli.main(["run", "--algo", "det3", "--adversary", f"replay:{path}", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1200
    argv = ["run", "--algo", "det3", "--adversary", f"replay:{path}", "--steps", "300"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 300


def test_greedy_rejects_an_insertion(tmp_path, capsys):
    path = tmp_path / "ins.txt"
    write_stream(str(path), 8, [UpdateEvent(1, INSERT, (0, 1))])
    code = cli.main(["run", "--algo", "greedy", "--adversary", f"replay:{path}"])
    assert code == 3
    assert "deletions only" in capsys.readouterr().err


def test_jm_rejects_an_edge_stream(tmp_path, capsys):
    path = mixed_stream(tmp_path, "edges.txt", count=5)
    code = cli.main(["run", "--algo", "jm", "--adversary", f"replay:{path}"])
    assert code == 3
    assert "machine deletions only" in capsys.readouterr().err


def test_broken_invariant_exits_2(monkeypatch, capsys):
    class ShortHorizon(cli.JMAdapter):
        def __init__(self, args, counter):
            super().__init__(args, counter)
            self.engine.horizon = 1

    monkeypatch.setitem(cli.ALGO_FACTORIES, "jm", ShortHorizon)
    argv = ["run", "--algo", "jm", "--adversary", "max-load", "--steps", "5"]
    assert cli.main([*argv, "--jm-jobs", "10", "--jm-machines", "40"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_invariant_checks_survive_python_O(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "from dynspan.instrumentation import InvariantBroken\n"
        "from dynspan.job_machine import ResamplingEngine\n"
        "eng = ResamplingEngine(None, 0, horizon=1)\n"
        "eng.tick()\n"
        "try:\n"
        "    eng.tick()\n"
        "except InvariantBroken:\n"
        "    print('raised')\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "raised", done.stderr
    outs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"run{len(flags)}.csv"
        argv = ["run", "--algo", "det3", "--n", "20", "--init-m", "60", "--steps", "40"]
        argv += ["--seed", "2", "--check", "exact", "--out", str(out)]
        cmd = [sys.executable, *flags, "-m", "dynspan.cli", *argv]
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--algo", "det3", "--init-m", "-1"],
        ["--algo", "det3", "--steps", "-5"],
        ["--algo", "jm", "--jm-jobs", "-3"],
        ["--algo", "jm", "--jm-machines", "-1"],
    ],
)
def test_negative_counts_exit_3(argv, capsys):
    assert cli.main(["run", *argv, "--n", "5"]) == 3
    assert "must be at least 0" in capsys.readouterr().err


def test_zero_steps_run_writes_no_rows(tmp_path):
    out = tmp_path / "empty.csv"
    argv = ["run", "--algo", "det3", "--n", "5", "--init-m", "0", "--steps", "0"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [CSV_HEADER]


@pytest.mark.parametrize("adversary", ["spanner-target", "witness-hammer"])
def test_jm_rejects_edge_adversaries(adversary, capsys):
    argv = ["run", "--algo", "jm", "--adversary", adversary, "--steps", "5"]
    assert cli.main([*argv, "--jm-jobs", "10", "--jm-machines", "50"]) == 3
    assert "max-load or replay" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["exact"])
def test_jm_rejects_a_stretch_check(check, tmp_path, capsys):
    # the engine outputs no spanner: a check would pass vacuously, so none runs
    out = tmp_path / "jm.csv"
    argv = ["run", "--algo", "jm", "--adversary", "max-load", "--steps", "5", "--check", check]
    assert cli.main([*argv, "--jm-jobs", "10", "--jm-machines", "50", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"error: --check {check}: jm outputs no spanner to check" in captured.err
    assert "steps ok" not in captured.out and not out.exists()


# runs whose adversary reads the structure's output through the view; the
# resample3 ones span at least 2 rollovers (phase_len 25, as in the golden case)
VIEW_RUNS = {
    "resample3-target": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 80 "
    "--adversary spanner-target --p-insert 0.3 --check exact --seed 6",
    "resample3-hammer": "--algo resample3 --n 30 --init-m 150 --phase-len 25 --steps 80 "
    "--adversary witness-hammer --p-insert 0.3 --check exact --seed 6",
    "fd-greedy-target": "--algo fd-greedy --k 2 --n 24 --init-m 80 --steps 80 "
    "--adversary spanner-target --p-insert 0.4 --check exact --seed 4",
    "det3-target": "--algo det3 --n 24 --init-m 80 --steps 80 "
    "--adversary spanner-target --p-insert 0.4 --check exact --seed 4",
    "jm-maxload": "--algo jm --jm-jobs 40 --jm-machines 300 --steps 80 "
    "--adversary max-load --seed 4",
}


def fresh_run(spec: str):
    args = cli.build_parser().parse_args(["run", *spec.split()])
    adapter = cli.ALGO_FACTORIES[args.algo](args, OpCounter())
    return args, adapter, cli.make_adversary(args, adapter)


@pytest.mark.parametrize("run", sorted(VIEW_RUNS))
def test_one_view_per_run_gives_the_rows_of_a_view_per_step(run):
    args, adapter, adversary = fresh_run(VIEW_RUNS[run])
    views = []

    def counted_view(view=adapter.view):
        views.append(view())
        return views[-1]

    adapter.view = counted_view
    rows, failure = cli.run_loop(adapter, adversary, args)
    assert failure is None and len(rows) == args.steps
    assert len(views) == 1
    # the same run, driven by hand with a fresh view before every step and
    # each step checked without a memo
    args, adapter, adversary = fresh_run(VIEW_RUNS[run])
    hand = []
    for step in range(1, args.steps + 1):
        ev = adversary.next_event(adapter.view())
        s = adapter.apply(ev)
        ok = ""
        if adapter.stretch_bound is not None:
            rep = oracle.verify_stretch(adapter.graph, adapter.spanner(), adapter.stretch_bound)
            ok = "1" if rep.ok else "0"
        row = (step, cli.event_label(ev), s.adds, s.dels, s.output_size, s.op_count, s.resamples)
        hand.append(MetricsRow(*row, ok))
    assert rows == hand
    if args.algo == "resample3":
        assert adapter.state.phase_index >= 3
