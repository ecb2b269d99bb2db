"""Production paths raise typed exceptions, never `assert`.

`python -O` strips asserts, so an invariant guarded by one silently stops
being checked.  Asserts belong only in the `check*` self-check functions
that tests and the benchmark call on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import dynspan

SRC = Path(dynspan.__file__).resolve().parent

# (file, function, condition): asserts that cannot fail once the code
# before them has run, kept as documentation of the state they rely on
ALLOWED = {
    ("resample3.py", "_start_feed", "self.D_next is not None"),
    ("resample3.py", "_replay_chunk", "self.D_next is not None"),
}


def asserts_outside_checks(tree: ast.AST, func: str = ""):
    """(function, condition) of every assert not inside a `check*` function;
    the innermost enclosing function decides."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from asserts_outside_checks(node, node.name)
            continue
        if isinstance(node, ast.Assert) and not func.startswith("check"):
            yield func, ast.unparse(node.test)
        yield from asserts_outside_checks(node, func)


def test_asserts_only_in_check_functions():
    found = {
        (path.name, func, cond)
        for path in sorted(SRC.glob("*.py"))
        for func, cond in asserts_outside_checks(ast.parse(path.read_text()))
    }
    assert found - ALLOWED == set()
    assert ALLOWED <= found  # an allowlist entry whose assert is gone must go too


def test_the_walker_sees_nested_and_module_level_asserts():
    code = (
        "assert top\n"
        "def check_x():\n"
        "    assert fine\n"
        "    def helper():\n"
        "        assert inner\n"
        "class C:\n"
        "    def update(self):\n"
        "        if x:\n"
        "            assert deep\n"
    )
    found = set(asserts_outside_checks(ast.parse(code)))
    assert found == {("", "top"), ("helper", "inner"), ("update", "deep")}
