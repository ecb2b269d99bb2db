"""Every name a docstring of the package puts in backticks is live code.

A backticked identifier, optionally dotted or ending in `()`, names code
when its last part is a name the package defines or reads: a bare name,
an attribute, a def or class, a parameter, or an imported module or
name.  A docstring that still names a field or function after it has
gone describes code that is not there.  Python keywords are exempt.
Backticked text that is not an identifier (a command line, a flag) is
not checked.
"""

from __future__ import annotations

import ast
import keyword
import re
from pathlib import Path

import dynspan

SRC = Path(dynspan.__file__).resolve().parent

TICKED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?`")

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_names(tree: ast.AST) -> set[str]:
    """Every name the code of the tree defines or reads."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


def ticked_names(tree: ast.AST):
    """(docstring owner, backticked text, its last identifier) for every
    backticked identifier of every docstring in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and (doc := ast.get_docstring(node, clean=False)):
            for found in TICKED.finditer(doc):
                owner = getattr(node, "name", "<module>")
                yield owner, found.group(0), found.group(1).rsplit(".", 1)[-1]


def stale_names(trees: dict[str, ast.AST]) -> list[tuple[str, str, str]]:
    """(file, docstring owner, ticked text) of every backticked identifier
    whose last part no tree's code defines or reads."""
    live = set().union(*map(code_names, trees.values()))
    return [
        (name, owner, ticked)
        for name, tree in trees.items()
        for owner, ticked, last in ticked_names(tree)
        if last not in live and not keyword.iskeyword(last)
    ]


def test_every_backticked_name_in_a_docstring_is_live_code():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert stale_names(trees) == []


def test_the_walker_sees_each_form_of_a_name():
    code = (
        '"""`os.path`, `helper()`, `Box.size`, `x`, `gone`, `assert`, `a b`."""\n'
        "import os.path\n"
        "class Box:\n"
        '    """`width()` and `Box.old()`."""\n'
        "    def helper(self, x):\n"
        '        """`self.size` is read, `cap` is not."""\n'
        "        return self.size\n"
    )
    assert stale_names({"m.py": ast.parse(code)}) == [
        ("m.py", "<module>", "`gone`"),
        ("m.py", "Box", "`width()`"),
        ("m.py", "Box", "`Box.old()`"),
        ("m.py", "helper", "`cap`"),
    ]
