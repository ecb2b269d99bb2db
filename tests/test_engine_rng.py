"""The resampling engine draws only through `getrandbits`.

Its rank rule (see `dynspan.job_machine`) is written in the engine, so the
stream of draws depends on `random.Random.getrandbits` alone: a method that
read `self.rng` any other way (`randrange`, `choice`, passing the generator
on) would tie every output to a private algorithm of `random` again.
"""

from __future__ import annotations

import ast
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
