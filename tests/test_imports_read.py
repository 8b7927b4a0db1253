"""Every name a module of the package imports is read somewhere in that module.

An import left behind when its last use goes (a helper that moved, a call
that was replaced) still costs its import and misleads a reader about what
the module depends on.  __init__.py is exempt: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

import dehnscope

PACKAGE = Path(dehnscope.__file__).parent


def _unread_imports(source: str) -> list[str]:
    """Each name the source binds by an import and never loads, as "name:line", in line order."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unread += [(node.lineno, name) for name in bound if name not in read]
    return [f"{name}:{line}" for line, name in sorted(unread)]


def test_every_import_is_read():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unread_imports(path.read_text())
    ]
    assert not found, "imported and never read: " + ", ".join(found)


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import os\n", ["os:1"]),
        ("import os.path\nos.path.join\n", []),
        ("from a import b as c\nb\n", ["c:1"]),
        ("from .hypcore import classify, complex_translation_length\nclassify(m)\n", ["complex_translation_length:1"]),
        ("from __future__ import annotations\n", []),
        ("if TYPE_CHECKING:\n    import numpy as np\n\ndef f() -> np.ndarray:\n    pass\n", []),
        ("def f():\n    import numpy as np\n    return np.pi\n", []),
        ("def f():\n    import math\nimport os\nos\n", ["math:2"]),
        ("import numpy as np\nnp = 1\n", ["np:1"]),
    ],
    ids=["plain", "dotted", "alias", "left-behind", "future", "annotation", "local", "nested", "rebound"],
)
def test_the_guard_finds_exactly_the_unread_imports(source, unread):
    assert _unread_imports(source) == unread
