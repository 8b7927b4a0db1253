"""No modulus is squared in the package: a norm is one hypot of real and imaginary parts.

abs(w) ** 2 overflows once |w| passes about 1.3e154 and reads 0 once |w| is below
about 1.5e-154, where the norm it serves still fits in a float; math.hypot and
np.hypot form no square.  The guard reads the source, as the numpy-import guard of
tests/test_numpy_boundary.py does.
"""

import ast
from pathlib import Path

import pytest

import dehnscope

PACKAGE = Path(dehnscope.__file__).parent


def _squared_moduli(source: str) -> list[int]:
    """Lines of the source that square a modulus, abs(...) ** 2 or np.abs(...) ** 2, each once."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
            continue
        call, power = node.left, node.right
        if not (isinstance(call, ast.Call) and isinstance(power, ast.Constant) and power.value == 2):
            continue
        func = call.func
        if (isinstance(func, ast.Name) and func.id == "abs") or (isinstance(func, ast.Attribute) and func.attr == "abs"):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_squares_a_modulus():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _squared_moduli(path.read_text())
    ]
    assert not found, "a modulus squared (take the norm with hypot): " + ", ".join(found)


@pytest.mark.parametrize(
    "source, lines",
    [
        ("abs(w) ** 2\n", [1]),
        ("d = abs(a - b) ** 2.0 + abs(c) ** 2\n", [1]),
        ("def f(w):\n    return np.abs(w) ** 2\n", [2]),
        ("x = 1\ny = (\n    abs(w)\n    ** 2\n)\n", [3]),
        ("class A:\n    n = (abs(w)) ** 2\n", [2]),
        ("abs(w) ** 3\n", []),
        ("abs(w ** 2)\n", []),
        ("z.imag ** 2 * abs(sc)\n", []),
        ("math.hypot(w.real, w.imag) ** 2\n", []),
    ],
    ids=["plain", "two-in-a-line", "np-abs", "multi-line", "parenthesized",
         "cube", "inside", "other-factor", "hypot"],
)
def test_the_guard_finds_exactly_the_squared_moduli(source, lines):
    assert _squared_moduli(source) == lines
