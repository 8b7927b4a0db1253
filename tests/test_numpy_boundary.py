"""Where numpy enters: only code that builds arrays imports it.

Two guards.  No module of the package imports numpy when it is imported, so
the commands that compute on numbers start without it (tests/test_cli.py
runs them in fresh interpreters).  And the functions that take a number or
an array send numpy scalars down the number branch, with the bits of the
Python number they equal, and arrays down the array branch, unchanged.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dehnscope
from dehnscope.hypcore import MobiusTransform
from dehnscope.schwarzian_end import (
    CriticalPoint,
    GridSpec,
    LogMap,
    MobiusMap,
    parse_map,
    schwarzian,
    schwarzian_grid,
    schwarzian_norm,
)
from dehnscope.torus_end import EndParameter, _affine_den, _chart, _frame, develop, phi

PACKAGE = Path(dehnscope.__file__).parent


def _import_time_nodes(node):
    """The nodes under node that importing its module runs: all but function bodies and `if TYPE_CHECKING:` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        is_type_checking = isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING"
        for n in child.orelse if is_type_checking else [child]:
            yield n
            yield from _import_time_nodes(n)


def _numpy_imports(source: str) -> list[int]:
    """Lines of the source that import numpy when the module is imported."""
    lines = []
    for node in _import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_numpy_at_import_time():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _numpy_imports(path.read_text())
    ]
    assert not found, "numpy imported at module scope: " + ", ".join(found)


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import numpy as np\n", [1]),
        ("import os, numpy.linalg\n", [1]),
        ("from numpy import linalg\n", [1]),
        ("try:\n    import numpy\nexcept ImportError:\n    pass\n", [2]),
        ("class A:\n    import numpy\n", [2]),
        ("if TYPE_CHECKING:\n    import numpy\nelse:\n    import numpy\n", [4]),
        ("def f():\n    import numpy\n", []),
        ("class A:\n    def f(self):\n        from numpy import linalg\n", []),
        ("if TYPE_CHECKING:\n    import numpy as np\n", []),
        ("from .numpy import x\nimport numpyish\n", []),
    ],
    ids=["import", "submodule", "from", "try", "class-body", "type-checking-else",
         "function", "method", "type-checking", "lookalikes"],
)
def test_the_guard_finds_exactly_the_import_time_imports(source, lines):
    assert _numpy_imports(source) == lines


def _bits(*values) -> list[str]:
    return [float(part).hex() for v in values for part in (complex(v).real, complex(v).imag)]


_real = st.floats(-3.0, 3.0, allow_subnormal=False)
_upper = st.builds(complex, _real, st.floats(0.05, 3.0))
_a = st.one_of(
    st.builds(complex, _real, _real).filter(lambda a: a != 0),
    st.sampled_from([2j * math.pi, -2j * math.pi, 4j * math.pi]),  # the pole locus e^a = 1
)
_mobius = (
    st.tuples(*[st.builds(complex, _real, _real)] * 4)
    .filter(lambda e: abs(e[0] * e[3] - e[1] * e[2]) > 0.1)
    .map(lambda e: MobiusTransform.from_entries(*e))
)


class TestNumberBranch:
    """numpy scalars take the number branch and give the bits of the Python number."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=_a, b=_upper, x=_real, y=_real, t=st.floats(1.0, 4.0))
    def test_phi_and_develop(self, a, b, x, y, t):
        s = EndParameter(a, b)
        assert _bits(phi(s, np.float64(x), np.float64(y))) == _bits(phi(s, x, y))
        for chart in ("printed", "corrected"):
            got = develop(s, np.float64(x), np.float64(y), np.float64(t), chart)
            want = develop(s, x, y, t, chart)
            assert _bits(got.z, got.t) == _bits(want.z, want.t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=_mobius, z=_upper, spec=st.sampled_from(["identity", "square", "log", "power:1.7,0.2"]))
    def test_schwarzian_and_norm(self, m, z, spec):
        for f in (MobiusMap(m), parse_map(spec)):
            try:
                want = schwarzian(f, z), schwarzian_norm(f, z)
            except CriticalPoint:
                continue
            got = schwarzian(f, np.complex128(z)), schwarzian_norm(f, np.complex128(z))
            assert _bits(*got) == _bits(*want)
            assert type(got[0]) is complex and type(got[1]) is float

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=_mobius, z=_upper)
    def test_map_jets_stay_numbers(self, m, z):
        # numpy's scalar division rounds unlike Python's, so the jets agree to rounding
        for f in (MobiusMap(m), LogMap()):
            for jet in (f.value, f.deriv, f.deriv2, f.deriv3):
                try:
                    want = jet(z)
                except CriticalPoint:
                    continue
                got = jet(np.complex128(z))
                assert isinstance(got, complex) and not isinstance(got, np.ndarray)
                assert abs(got - want) <= 1e-13 * abs(want)
        assert _bits(LogMap().value(np.complex128(z))) == _bits(LogMap().value(z))

    def test_pole_of_mobius_map_on_a_numpy_scalar(self):
        # z -> z / (i - z) has its pole at i
        f = MobiusMap(MobiusTransform.from_entries(1.0, 0.0, -1.0, 1j))
        for call in (f.value, f.deriv, f.deriv2, f.deriv3, lambda z: schwarzian(f, z)):
            with pytest.raises(CriticalPoint, match="pole"):
                call(np.complex128(1j))


class TestArrayBranch:
    """Arrays take the array branch, with the formulas it has always had."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=_a, b=_upper, pts=st.lists(st.tuples(_real, _real, st.floats(1.0, 4.0)), min_size=1, max_size=20))
    def test_phi_and_chart(self, a, b, pts):
        s = EndParameter(a, b)
        x, y, t = np.array(pts).T
        z0, c = _frame(_affine_den(a))
        ph = -c * np.exp(x * s.a + y * s.a * s.b)
        np.testing.assert_array_equal(phi(s, x, y), ph)
        ap = np.hypot(ph.real, ph.imag)
        den = np.sqrt(t * t + ap * ap)
        np.testing.assert_array_equal(_chart(s, x, y, t, "printed"), (z0 + ph * (ap / den), t * ap / den))
        den = np.sqrt(1.0 + t * t)
        np.testing.assert_array_equal(_chart(s, x, y, t, "corrected"), (z0 + ph / den, t * ap / den))

    def test_maps_and_norm(self):
        # the pole i of z -> z / (i - z) is an entry: arrays are not checked for it
        m = MobiusTransform.from_entries(1.0, 0.0, -1.0, 1j)
        z = np.array([1j, 0.5 + 0.25j, -2.0 + 3.0j, 1e-3 + 1j])
        den = m.a21 * z + m.a22
        f = MobiusMap(m)
        with np.errstate(all="ignore"):
            jets = [f.value(z), f.deriv(z), f.deriv2(z), f.deriv3(z)]
            want = [(m.a11 * z + m.a12) / den, 1.0 / den**2, -2.0 * m.a21 / den**3, 6.0 * m.a21**2 / den**4]
        for got, ref in zip(jets, want):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(LogMap().value(z), np.log(z))
        grid = GridSpec(-1.0, 1.0, 7, 0.25, 2.0, 5)
        for zs, sc, norm in schwarzian_grid(LogMap(), grid):
            np.testing.assert_array_equal(norm, np.float_power(zs.imag, 2.0) * np.hypot(sc.real, sc.imag))
