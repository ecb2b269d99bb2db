"""Every op charge names one of the modules the op counts are read by.

`OpCounter` attributes each charge to a module, and `bench/run.py` reads
its per-module op metrics by those names.  A charge to any other name
would land in no metric and read as 0; `OpCounter.charge` has no default
module, so every call names one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import dynspan

SRC = Path(dynspan.__file__).resolve().parent

MODULES = {"graph", "greedy", "det3", "partnership", "job_machine", "wrap"}


def charge_modules(tree: ast.AST):
    """The module argument, unparsed, of every call to a function or method
    named `charge`; None when the call names none."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "charge":
            continue
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "module"]
        yield ast.unparse(given[0]) if given else None


def test_every_charge_names_a_known_module():
    found = {
        (path.name, module)
        for path in sorted(SRC.glob("*.py"))
        for module in charge_modules(ast.parse(path.read_text()))
    }
    assert {module for _, module in found} <= {repr(m) for m in MODULES}, found


def test_the_walker_sees_every_form_of_the_call():
    code = (
        "self.counter.charge(2, 'graph')\n"
        "charge = self.counter.charge\n"
        "charge(1, module='wrap')\n"
        "def f(k):\n"
        "    counter.charge(k)\n"
        "    counter.charge(k, name)\n"
        "    self._charge(k)\n"
    )
    assert list(charge_modules(ast.parse(code))) == ["'graph'", "'wrap'", None, "name"]
