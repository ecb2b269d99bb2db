"""The resampling engine draws only through `getrandbits`.

Its rank rule (see `dynspan.job_machine`) is written in the engine, so the
stream of draws depends on `random.Random.getrandbits` alone: a method that
read `self.rng` any other way (`randrange`, `choice`, passing the generator
on) would tie every output to a private algorithm of `random` again.

The rest of the program still draws through `randrange`: the jm instance,
every adversary and the resample3 phase seeds.  Those streams rest on
CPython's private `_randbelow`, which today draws by the same rule; the last
test here pins that, so an interpreter that changes it fails one named test
before it moves the golden digests.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

from dynspan import job_machine


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


def rank_rule(rng: random.Random, c: int) -> int:
    """The engine's rank rule for c >= 1: redraw getrandbits(c.bit_length())
    until the value is below c."""
    k = c.bit_length()
    r = rng.getrandbits(k)
    while r >= c:
        r = rng.getrandbits(k)
    return r


# the sizes the program passes to `randrange`: pair draws (n <= 256) and
# spanner ranks, degree walks (2m: ~3000 and ~16000 on the benchmark's
# graphs), the jm instance's pools (16000 machines), and the phase seeds
RANDRANGE_SIZES = [*range(1, 300), *range(2990, 3010), *range(15990, 16010), 2**62]


def test_randrange_draws_by_the_engines_rank_rule():
    for seed in (0, 1, 601):
        for c in RANDRANGE_SIZES:
            ours, theirs = random.Random(seed), random.Random(seed)
            want = [rank_rule(ours, c) for _ in range(16)]
            assert [theirs.randrange(c) for _ in range(16)] == want, c
            assert theirs.getstate() == ours.getstate(), c  # and the same bits consumed
        ours, theirs = random.Random(seed), random.Random(seed)
        for lo, hi in ((1, 7), (1, 4)):  # randrange(lo, hi) is lo + a draw below hi - lo
            assert theirs.randrange(lo, hi) == lo + rank_rule(ours, hi - lo)
