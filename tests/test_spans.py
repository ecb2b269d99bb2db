"""Every program name the benchmark reaches for exists under that name.

`bench/spans.py` replaces program functions by name, and its
`Tracer.installed()` skips a name it does not find, so a renamed function
would silently zero a per-layer metric.  This loads the tracer from its
file, unedited, and checks each of its targets.  `bench/test_bench.py`
injects a fault through det3 internals, checked here the same way.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from dynspan import cli
from dynspan.graph import DynamicGraph

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
            # inherited from Adapter by every adapter, so traced nowhere
            assert callable(getattr(owner, attr)), name
        else:
            assert callable(vars(owner).get(attr)), (owner.__name__, attr, name)


def test_fault_injection_names_resolve():
    # bench/test_bench.py's failed-check test overrides Det3State._cedge_remove
    # with one that reads these names; run_episode counts an AttributeError as
    # a failed step, so a renamed one would let that test pass with no wrong
    # output ever produced
    methods = {"_cedge_remove": ["self", "pair", "far"], "_remove_t2": ["self", "e", "pair"]}
    for method, params in methods.items():
        assert list(inspect.signature(vars(cli.Det3State)[method]).parameters) == params, method
    state = cli.Det3State(DynamicGraph(4, [(0, 1), (1, 2)]))
    for attr in ("cedge", "chosen"):
        assert isinstance(vars(state).get(attr), dict), attr
