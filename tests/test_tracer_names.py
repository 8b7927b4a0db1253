"""The benchmark reaches dehnscope names listed in perfbench/tracer.py and read in perfbench/workloads.py; each must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_names():
    """The TRACED tuple of perfbench/tracer.py, read with ast, so the benchmark is not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def workload_names():
    """(module, name) for each `alias.name` that perfbench/workloads.py reads of a `from dehnscope import module as alias`."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "dehnscope"
        for alias in node.names
    }
    return sorted(
        {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )


@pytest.mark.parametrize("layer, name", traced_names())
def test_traced_name_resolves(layer, name):
    # Tracer.install looks each one up with getattr; a moved or deleted name breaks the traced run
    target = importlib.import_module(f"dehnscope.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_workloads_read_the_five_modules():
    # the aliases co, fs, hc, se and te; a renamed import would leave the test below with nothing to check
    assert {layer for layer, _ in workload_names()} == {"cochain", "filling_solver", "hypcore", "schwarzian_end", "torus_end"}


@pytest.mark.parametrize("layer, name", workload_names())
def test_workload_name_resolves(layer, name):
    # a task that reads a deleted name fails only when the benchmark runs; this fails in the unit tests first
    assert hasattr(importlib.import_module(f"dehnscope.{layer}"), name)
