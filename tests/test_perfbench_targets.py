"""The benchmark's layer tracer names functions of qsteenrod; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _layertrace()
TARGETS = {**TRACE.SPANS, **TRACE.HOT}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    module, path = TARGETS[name]
    importlib.import_module(module)
    owner, attr = TRACE._resolve(module, path)
    # the tracer reads the attribute from the owner's own namespace
    assert callable(getattr(owner, attr)) and attr in vars(owner), name
