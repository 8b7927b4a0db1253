"""No modulus is squared in the package: a norm is one hypot of real and imaginary parts.

abs(w) ** 2 overflows once |w| passes about 1.3e154 and reads 0 once |w| is below
about 1.5e-154, where the norm it serves still fits in a float; math.hypot and
np.hypot form no square.  The same holds for a square root of a sum of squares,
sqrt(1.0 + t * t).  The guards read the source, as the numpy-import guard of
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


#: functions whose square roots of squares are kept, each with its reason
SQUARE_ROOTS_KEPT = {
    # the chord's coordinates are divided by 2 sqrt(t_p) sqrt(t_q) first, chords below
    # 2^-500 are retaken with np.hypot, and an overflow raises the named OverflowError
    "estimate_bilipschitz",
}


def _squares_under_roots(source: str) -> list[int]:
    """Lines of a sqrt whose argument multiplies an expression by itself, outside SQUARE_ROOTS_KEPT."""
    lines = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in SQUARE_ROOTS_KEPT:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "sqrt" and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) and ast.dump(n.left) == ast.dump(n.right)
            for n in ast.walk(node.args[0])
        ):
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


def test_no_module_takes_the_root_of_a_square():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _squares_under_roots(path.read_text())
    ]
    assert not found, "a square under a root (take the norm with hypot): " + ", ".join(found)


@pytest.mark.parametrize(
    "source, lines",
    [
        ("math.sqrt(1.0 + t * t)\n", [1]),
        ("np.sqrt(x * x + y * y)\n", [1]),
        ("sqrt(w.real * w.real)\n", [1]),
        ("def f(t):\n    return 2.0 / sqrt(\n        1.0 + t * t\n    )\n", [2]),
        ("def estimate_bilipschitz():\n    pass\n\n\ndef f():\n    return np.sqrt(x * x)\n", [6]),
        ("def estimate_bilipschitz():\n    return np.sqrt(x * x)\n", []),
        ("sqrt(t * s)\n", []),
        ("sqrt(t) * sqrt(t)\n", []),
        ("t * t + 1.0\n", []),
        ("math.hypot(t, 1.0)\n", []),
    ],
    ids=["one-plus-square", "sum-of-squares", "attribute", "multi-line", "after-kept-function",
         "kept-function", "two-names", "outside", "no-root", "hypot"],
)
def test_the_root_guard_finds_exactly_the_squares_under_roots(source, lines):
    assert _squares_under_roots(source) == lines
