"""The benchmark's traced run wraps dehnscope names listed in perfbench/tracer.py; each must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """The TRACED tuple of perfbench/tracer.py, read with ast, so the benchmark is not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


@pytest.mark.parametrize("layer, name", traced_names())
def test_traced_name_resolves(layer, name):
    # Tracer.install looks each one up with getattr; a moved or deleted name breaks the traced run
    target = importlib.import_module(f"dehnscope.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
