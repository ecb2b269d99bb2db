"""Every call the benchmark's tracer wraps exists under the name it uses.

`bench/spans.py` replaces program functions by name, and its
`Tracer.installed()` skips a name it does not find, so a renamed function
would silently zero a per-layer metric.  This loads the tracer from its
file, unedited, and checks each of its targets.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from dynspan import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = list(load_spans().Tracer()._targets())
    adapters = set(cli.ALGO_FACTORIES.values())
    assert len(targets) > len(adapters)
    for owner, attr, name, _, _ in targets:
        if owner in adapters and attr == "apply":
            # inherited from Adapter by all but one: traced only where defined
            assert callable(getattr(owner, attr)), name
        else:
            assert callable(vars(owner).get(attr)), (owner.__name__, attr, name)
