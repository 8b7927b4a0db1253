"""Only `dehnscope.cli` reads and writes the wire formats.

The core modules compute; the command line turns their results into JSON
or CSV and reads the path, representation and cocycle-values files.  So no
core module defines a function or method named `to_dict`, `from_dict` or
`parse`, and none imports `json`.
"""

import ast
from pathlib import Path

import pytest

import dehnscope

PACKAGE = Path(dehnscope.__file__).parent
CORE = ("hypcore", "torus_end", "filling_solver", "schwarzian_end", "cochain")
SERIALIZERS = {"to_dict", "from_dict", "parse"}


def _wire_format_code(source: str) -> list[str]:
    """'line: what' for each serializer and each json import anywhere in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in SERIALIZERS:
            found.append(f"{node.lineno}: def {node.name}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "json":
            found.append(f"{node.lineno}: from {node.module} import")
    return found


@pytest.mark.parametrize("module", CORE)
def test_core_module_knows_no_wire_format(module):
    assert _wire_format_code((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("class A:\n    def to_dict(self):\n        pass\n", ["2: def to_dict"]),
        ("class A:\n    @staticmethod\n    def from_dict(d):\n        pass\n", ["3: def from_dict"]),
        ("class A:\n    class B:\n        def parse(t):\n            pass\n", ["3: def parse"]),
        ("def parse(t):\n    pass\n", ["1: def parse"]),
        ("def f():\n    import json\n", ["2: import json"]),
        ("import os, json.decoder\n", ["1: import json.decoder"]),
        ("from json import loads\n", ["1: from json import"]),
        ("def parse_map(t):\n    pass\nclass A:\n    def to_dicts(self):\n        pass\n", []),
        ("from . import json\nimport jsonschema\n", []),
    ],
    ids=[
        "to_dict", "from_dict", "nested-class", "function", "local-import", "submodule", "from", "lookalikes", "not-json",
    ],
)
def test_the_guard_finds_exactly_the_wire_format_code(source, found):
    assert _wire_format_code(source) == found
