"""Per-step records are immutable tuples.

Every update builds a few of these records, so they are `typing.NamedTuple`s:
a tuple is several times cheaper to build than a frozen dataclass.  One
test pins that no record field can be set; the guard keeps `dataclasses`
out of the package, so a new record takes the same idiom.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dynspan
from dynspan.adversary import MachineDelete
from dynspan.fully_dynamic import RebuildInfo
from dynspan.graph import INSERT, UpdateEvent
from dynspan.instrumentation import MetricsRow, Step
from dynspan.job_machine import StepReport
from dynspan.oracle import SpannerMasks, StretchReport
from helpers import OverheadReport, OverheadSample

SRC = Path(dynspan.__file__).resolve().parent

RECORDS = [
    (UpdateEvent(1, INSERT, (0, 1)), "seq"),
    (MachineDelete(1, 0), "machine"),
    (Step(3, 0, 1, 0, 5), "op_count"),
    (MetricsRow(1, INSERT, 1, 0, 5, 3, 0, ""), "stretch_ok"),
    (StepReport((0,), 1, 2), "resamples"),
    (StretchReport(True, None, 0.0), "ok"),
    (SpannerMasks([0, 0]), "rows"),
    (RebuildInfo(1, 4), "size"),
    (OverheadSample(0, 0, 1, 0.5), "load"),
    (OverheadReport(1, 0, 0.0, None), "violations"),
]


@pytest.mark.parametrize("record,field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_record_field_cannot_be_set(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def dataclass_imports(tree: ast.AST) -> list[str]:
    """The `dataclasses` imports in `tree`, unparsed."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]


def test_the_package_imports_no_dataclasses():
    found = {
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in dataclass_imports(ast.parse(path.read_text()))
    }
    assert found == set()


def test_the_walker_sees_every_form_of_the_import():
    code = (
        "from dataclasses import dataclass\n"
        "import os, dataclasses\n"
        "def f():\n"
        "    from dataclasses import replace as r\n"
        "import dataclasses_json\n"
    )
    assert dataclass_imports(ast.parse(code)) == [
        "from dataclasses import dataclass",
        "import os, dataclasses",
        "from dataclasses import replace as r",
    ]
