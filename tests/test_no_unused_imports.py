"""Every name a module of the package imports is used in it.

A name is used when the module reads it (a bare name, or the root of an
attribute chain, annotations included) or lists it in `__all__`.
`from __future__` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import dynspan

SRC = Path(dynspan.__file__).resolve().parent


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports and never read, in order."""
    bound: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_the_walker_sees_each_import_form():
    code = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from math import ceil, floor as fl, inf\n"
        "from typing import List\n"
        "from pkg import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: List[int]) -> float:\n"
        "    return ceil(x[0]) + inf\n"
    )
    assert unused_imports(ast.parse(code)) == ["os", "os", "j", "fl"]
