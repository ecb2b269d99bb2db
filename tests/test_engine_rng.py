"""Every draw of the program reads its generator through `getrandbits`.

`graph.rank_below` and `graph.sample_below` are the one draw rule: a draw
below c redraws getrandbits(c.bit_length()) until the value is below c,
and a sample of range(n) is a run of such draws.  The engine writes the
same rule inline.  So every stream (the engine's draws, the jm instance,
every adversary, the start graph and the phase seeds) depends on
`random.Random.getrandbits` and, for the adversaries' coin, `random()`
alone: a call of `randrange`, `sample`, `choice` and the like
would tie an output to a private algorithm of `random` again.

The walkers here fail on such a read anywhere in `src/dynspan`, or on any
read of the engine's `self.rng` but `getrandbits`.  Input order fixes which
job draws when, so another walker fails on any use of `repr` there: an
order by `repr` would tie the draws to how values print.  The differential
tests show why no output moved when the program stopped calling
`randrange` and `sample`: under CPython 3.11 those draw the same values
from the same bits.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import dynspan
from dynspan import job_machine
from dynspan.graph import rank_below, sample_below

# the methods of `random.Random` that draw through its private `_randbelow`
RANDBELOW_DRAWS = {"randrange", "randint", "sample", "choice", "choices", "shuffle"}


def is_self_rng(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "rng"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def rng_reads(tree: ast.AST, cls: str = "ResamplingEngine"):
    """(method, expression) of every read of `self.rng` in a method of class
    `cls`, at any depth, other than `self.rng.getrandbits`."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            parent = {
                child: outer for outer in ast.walk(method) for child in ast.iter_child_nodes(outer)
            }
            for sub in ast.walk(method):
                if not (is_self_rng(sub) and isinstance(sub.ctx, ast.Load)):
                    continue
                outer = parent[sub]
                if not (isinstance(outer, ast.Attribute) and outer.attr == "getrandbits"):
                    yield method.name, ast.unparse(outer)


def randbelow_reads(tree: ast.AST):
    """(line, expression) of every read of one of `RANDBELOW_DRAWS` as an
    attribute, whatever it is read from, and of every import of one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in RANDBELOW_DRAWS:
            if isinstance(node.ctx, ast.Load):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in RANDBELOW_DRAWS:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_the_engine_reads_its_rng_only_through_getrandbits():
    tree = ast.parse(Path(job_machine.__file__).read_text())
    assert list(rng_reads(tree)) == []
    # the walker does look at the engine: it finds the one draw there is
    draws = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "getrandbits" and is_self_rng(node.value)
    ]
    assert len(draws) == 1


def test_the_walker_sees_every_other_read_of_the_rng():
    code = (
        "class ResamplingEngine:\n"
        "    def __init__(self, seed):\n"
        "        self.rng = Random(seed)\n"  # a store, not a read
        "    def draw(self, c):\n"
        "        bits = self.rng.getrandbits\n"
        "        return bits(c.bit_length()) + self.rng.randrange(c)\n"
        "    def share(self):\n"
        "        def inner():\n"
        "            return helper(self.rng)\n"
        "        return inner\n"
        "    def state(self):\n"
        "        return self.rng.getstate()\n"
        "class Other:\n"
        "    def draw(self):\n"
        "        return self.rng.random()\n"
    )
    found = set(rng_reads(ast.parse(code)))
    assert found == {
        ("draw", "self.rng.randrange"),
        ("share", "helper(self.rng)"),
        ("state", "self.rng.getstate"),
    }


def test_no_module_draws_through_randbelow():
    sources = sorted(Path(dynspan.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"adversary.py", "cli.py", "job_machine.py", "oracle.py"}
    found = {p.name: list(randbelow_reads(ast.parse(p.read_text()))) for p in sources}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_the_module_walker_sees_a_planted_draw():
    code = (
        "import random\n"
        "from random import shuffle\n"
        "def pick(rng, n, sample, xs):\n"
        "    bits = rng.getrandbits(8) + rng.random()\n"  # the two draws allowed
        "    parser.add_argument('--check', choices=['none'])\n"  # a keyword, not a read
        "    first = sample + n\n"  # a name, not a draw
        "    return rng.randrange(n), random.Random(1).sample(xs, 2), rng.choice\n"
    )
    assert set(randbelow_reads(ast.parse(code))) == {
        (2, "from random import shuffle"),
        (7, "rng.randrange"),
        (7, "random.Random(1).sample"),
        (7, "rng.choice"),
    }


def repr_reads(tree: ast.AST):
    """(line, expression) of every read of the name `repr`: a call, a
    `key=repr`, or any other use.  A `!r` conversion reads no name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "repr" and isinstance(node.ctx, ast.Load):
            yield node.lineno, ast.unparse(node)


def test_no_module_orders_by_repr():
    sources = sorted(Path(dynspan.__file__).parent.glob("*.py"))
    found = {p.name: list(repr_reads(ast.parse(p.read_text()))) for p in sources}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_the_repr_walker_sees_a_planted_order():
    code = (
        "def order(table, rows, job):\n"
        "    keys = sorted(table, key=repr)\n"
        "    rows.sort(key=repr)\n"
        "    name = repr(job)\n"
        "    raise KeyError(f'job {job!r} unknown')\n"  # a conversion, allowed
    )
    assert set(repr_reads(ast.parse(code))) == {(2, "repr"), (3, "repr"), (4, "repr")}


def test_an_empty_range_raises_rather_than_spins():
    bits = random.Random(0).getrandbits
    for c in (0, -1, -(2**62)):
        with pytest.raises(ValueError):
            rank_below(bits, c)
    for n, k in ((0, 1), (5, 6), (5, -1), (100, 101), (100, -3)):
        with pytest.raises(ValueError):
            sample_below(bits, n, k)


# the sizes the program draws below: pair draws (n <= 256) and spanner
# ranks, degree walks (2m: ~3000 and ~16000 on the benchmark's graphs), the
# jm instance's pools (16000 machines), and the phase seeds
RANDRANGE_SIZES = [*range(1, 300), *range(2990, 3010), *range(15990, 16010), 2**62]


def test_randrange_draws_by_the_engines_rank_rule():
    """Why no digest moved when the program's draws left `randrange`: under
    CPython 3.11, `randrange(c)` and `rank_below(getrandbits, c)` draw the
    same values and consume the same bits, as does `randrange(lo, hi)` and lo
    plus a rank below hi - lo (`random_instance`'s two draws)."""
    for seed in (0, 1, 601):
        for c in RANDRANGE_SIZES:
            ours, theirs = random.Random(seed), random.Random(seed)
            want = [rank_below(ours.getrandbits, c) for _ in range(16)]
            assert [theirs.randrange(c) for _ in range(16)] == want, c
            assert theirs.getstate() == ours.getstate(), c  # and the same bits consumed
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in ((1, 7), (1, 4)):
            assert theirs.randrange(lo, hi) == lo + rank_below(ours.getrandbits, hi - lo)
        assert theirs.getstate() == ours.getstate()


# `sample` keeps a list of the population while it is no larger than a set
# of k draws: up to n = 21 for k <= 5, 85 for 6 <= k <= 21 and 277 for
# 22 <= k <= 85.  Each size here sits on one side of such a boundary.
SAMPLE_SIZES = [*range(0, 24), 84, 85, 86, 87, 276, 277, 278, 3000, 16000, 2**40]


@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_sample_below_draws_what_sample_draws(n):
    ks = {0, 1, 2, 5, 6, 7, 21, 22, 64, n} | ({n - 1} if n else set())
    for seed in (0, 7, 601):
        for k in sorted(k for k in ks if k <= min(n, 300)):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert sample_below(ours.getrandbits, n, k) == theirs.sample(range(n), k), (n, k)
            assert theirs.getstate() == ours.getstate(), (n, k)
