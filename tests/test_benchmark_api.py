"""The benchmark in ``perfbench/`` traces rotamap by name: its tracer
looks up every function in ``spans.FUNCTIONS`` and every ``GroupRep``
method in ``spans.METHODS``.  Deleting or renaming one of them breaks
``perfbench/run.py --trace 1``, so each must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rotamap.engine import GroupRep

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
FUNCTIONS = [t for targets in spans.FUNCTIONS.values() for t in targets]
METHODS = [name for names in spans.METHODS.values() for name in names]


@pytest.mark.parametrize("modname,name", FUNCTIONS,
                         ids=[f"{m}.{n}" for m, n in FUNCTIONS])
def test_traced_function_exists(modname, name):
    assert callable(getattr(importlib.import_module(modname), name, None))


@pytest.mark.parametrize("name", METHODS)
def test_traced_method_exists(name):
    # the tracer patches GroupRep.__dict__ entries, not inherited ones
    assert callable(GroupRep.__dict__.get(name))
