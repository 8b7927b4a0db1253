"""Geometrically finite end construction over the upper half-plane U.

A locally injective holomorphic map f on U is extended to a map of H^3 by
composing each point with the Mobius transformation osculating f at the
foot of the orthogonal geodesic to the plane P over the real line:
Theta(p) = M_{r(p)}(p).  The second-order distortion of f is measured by
the Schwarzian derivative SC f = (f''/f')' - (f''/f')^2 / 2 and its
hyperbolic norm (Im z)^2 |SC f(z)|, which is invariant under real Mobius
changes of variable.

jacobian_check reports both the finite-difference singular values of Theta
and the classical predicted triple {1 + k, 1, |1 - k|} with
k = norm / cosh(depth).  Note: the construction implemented here measurably
follows the depth law k = norm * (1 - tanh(depth)) instead, which agrees
with the predicted triple at depth 0 and decays faster (like e^{-2d}); the
unit tests pin both behaviours.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .config import ARRAY_BLOCK, CRITICAL_TOL, FD_STEP, finite_float, positive_finite
from .hypcore import SCALAR_TYPES, H3Point, MobiusTransform, apply_h3, modulus

if TYPE_CHECKING:
    import numpy as np


class CriticalPoint(ValueError):
    """Raised where |f'(z)| falls below the critical threshold."""


class WrongSide(ValueError):
    """Raised for points on the far side of the plane over the real line."""


class StepTooLarge(ValueError):
    """Raised when a finite-difference stencil exits the admissible domain."""


class NonFiniteSchwarzian(ValueError):
    """Raised where the Schwarzian overflows or is undefined (inf or NaN).

    Also raised where a jet of the map that the Schwarzian or the osculating
    Mobius map needs overflows or is inf or NaN (see _jets).
    """


class ConformalMap:
    """Holomorphic map with exact (or declared-step numeric) jets up to order 3.

    The jets take a complex number; when `elementwise` is true they also take
    a complex array and act on each entry, and the grid sweeps use that.
    """

    name = "conformal"
    elementwise = False

    def value(self, z: complex) -> complex:
        raise NotImplementedError

    def deriv(self, z: complex) -> complex:
        raise NotImplementedError

    def deriv2(self, z: complex) -> complex:
        raise NotImplementedError

    def deriv3(self, z: complex) -> complex:
        raise NotImplementedError


class IdentityMap(ConformalMap):
    name = "identity"
    elementwise = True

    def value(self, z):
        return z

    def deriv(self, z):
        return 1.0 + 0j

    def deriv2(self, z):
        return 0j

    def deriv3(self, z):
        return 0j


class MobiusMap(ConformalMap):
    name = "mobius"
    elementwise = True

    def __init__(self, m: MobiusTransform):
        self.m = m

    def value(self, z):
        return (self.m.a11 * z + self.m.a12) / self._den(z)

    def _den(self, z):
        den = self.m.a21 * z + self.m.a22
        if isinstance(den, SCALAR_TYPES) and den == 0:
            raise CriticalPoint("pole of the Mobius map")
        return den

    def deriv(self, z):
        return 1.0 / self._den(z) ** 2  # det = 1

    def deriv2(self, z):
        return -2.0 * self.m.a21 / self._den(z) ** 3

    def deriv3(self, z):
        return 6.0 * self.m.a21 ** 2 / self._den(z) ** 4


class SquareMap(ConformalMap):
    name = "square"
    elementwise = True

    def value(self, z):
        return z * z

    def deriv(self, z):
        return 2.0 * z

    def deriv2(self, z):
        return 2.0 + 0j

    def deriv3(self, z):
        return 0j


class LogMap(ConformalMap):
    name = "log"
    elementwise = True

    def value(self, z):
        if isinstance(z, SCALAR_TYPES):
            return cmath.log(z)
        import numpy as np

        return np.log(z)

    def deriv(self, z):
        return 1.0 / z

    def deriv2(self, z):
        return -1.0 / (z * z)

    def deriv3(self, z):
        return 2.0 / (z * z * z)


class PowerMap(ConformalMap):
    """z -> z^c on the principal branch."""

    elementwise = True

    def __init__(self, c: complex):
        self.c = complex(c)
        self.name = f"power:{self.c}"

    def value(self, z):
        return z ** self.c

    def deriv(self, z):
        return self.c * z ** (self.c - 1)

    def deriv2(self, z):
        return self.c * (self.c - 1) * z ** (self.c - 2)

    def deriv3(self, z):
        return self.c * (self.c - 1) * (self.c - 2) * z ** (self.c - 3)


class NumericMap(ConformalMap):
    """Sample-able holomorphic function with 4th-order finite-difference jets.

    The declared domain rectangle (re0, re1, im0, im1) must lie in U; local
    injectivity is spot-checked on a coarse grid at construction.  The same
    spot check calls `func` once on the grid as an array: if that returns the
    pointwise values (as `z * z * z` does), the map is elementwise and the
    grid sweeps apply `func` to arrays; otherwise (as for `cmath.sin`) they
    evaluate it point by point.
    """

    name = "numeric"

    def __init__(self, func: Callable[[complex], complex], step: float, domain: tuple):
        if not step > 0:
            raise ValueError("finite-difference step must be positive")
        re0, re1, im0, im1 = domain
        if not (re0 < re1 and 0 < im0 < im1):
            raise ValueError("domain rectangle must be nonempty and lie in U")
        import numpy as np

        self.func = func
        self.step = step
        self.domain = (re0, re1, im0, im1)
        spots = next(GridSpec(re0, re1, 5, im0, im1, 5).blocks())
        try:
            values = func(spots)
            self.elementwise = (
                isinstance(values, np.ndarray)
                and values.shape == spots.shape
                and np.allclose(values, [func(z) for z in spots.tolist()], rtol=1e-9, atol=0.0)
            )
        except (TypeError, ValueError):
            self.elementwise = False
        if any(abs(self.deriv(z)) <= CRITICAL_TOL for z in spots.tolist()):
            raise ValueError("map fails the local-injectivity spot check")

    def value(self, z):
        return self.func(z)

    def deriv(self, z):
        h, f = self.step, self.func
        return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)

    def deriv2(self, z):
        h, f = self.step, self.func
        return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z) + 16 * f(z - h) - f(z - 2 * h)) / (
            12 * h * h
        )

    def deriv3(self, z):
        h, f = self.step, self.func
        return (
            f(z - 3 * h) - 8 * f(z - 2 * h) + 13 * f(z - h) - 13 * f(z + h) + 8 * f(z + 2 * h) - f(z + 3 * h)
        ) / (8 * h ** 3)


class Compose(ConformalMap):
    """outer o inner with jets up to order 3 by the chain rule."""

    def __init__(self, outer: ConformalMap, inner: ConformalMap):
        self.outer = outer
        self.inner = inner
        self.name = f"{outer.name}*{inner.name}"
        self.elementwise = outer.elementwise and inner.elementwise

    def value(self, z):
        return self.outer.value(self.inner.value(z))

    def deriv(self, z):
        return self.outer.deriv(self.inner.value(z)) * self.inner.deriv(z)

    def deriv2(self, z):
        gz, g1, g2 = self.inner.value(z), self.inner.deriv(z), self.inner.deriv2(z)
        return self.outer.deriv2(gz) * g1 * g1 + self.outer.deriv(gz) * g2

    def deriv3(self, z):
        gz = self.inner.value(z)
        g1, g2, g3 = self.inner.deriv(z), self.inner.deriv2(z), self.inner.deriv3(z)
        return (
            self.outer.deriv3(gz) * g1 ** 3
            + 3.0 * self.outer.deriv2(gz) * g1 * g2
            + self.outer.deriv(gz) * g3
        )


def PostMobius(m: MobiusTransform, f: ConformalMap) -> Compose:
    """m o f; used to exercise Mobius invariance."""
    return Compose(MobiusMap(m), f)


def PreMobius(f: ConformalMap, m: MobiusTransform) -> Compose:
    """f o m; used to exercise norm invariance."""
    return Compose(f, MobiusMap(m))


def parse_map(spec: str) -> ConformalMap:
    """Catalog names: identity, square, log, power:<re[,im]>, mobius:<8 floats>."""
    if spec == "identity":
        return IdentityMap()
    if spec == "square":
        return SquareMap()
    if spec == "log":
        return LogMap()
    if spec.startswith("power:"):
        parts = [finite_float(v) for v in spec.split(":", 1)[1].split(",")]
        c = complex(parts[0], parts[1]) if len(parts) == 2 else complex(parts[0], 0.0)
        return PowerMap(c)
    if spec.startswith("mobius:"):
        vals = [finite_float(v) for v in spec.split(":", 1)[1].split(",")]
        if len(vals) != 8:
            raise ValueError("mobius catalog entry needs 8 floats: re,im per entry")
        ent = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(4)]
        return MobiusMap(MobiusTransform.from_entries(*ent))
    raise ValueError(f"unknown conformal map {spec!r}")


def schwarzian(f: ConformalMap, z: complex) -> complex:
    """SC f = f'''/f' - (3/2)(f''/f')^2, computed from the map's jets.

    z is taken as a Python complex, so a numpy scalar gives the bits of the
    number it equals.  Raises NonFiniteSchwarzian where SC or a jet is inf or
    NaN, or where a jet overflows (see _jets).
    """
    z = complex(z)
    sc = _schwarzian_from(*_jets(f, z, f.deriv2, f.deriv3))
    if not cmath.isfinite(sc):
        raise NonFiniteSchwarzian(f"Schwarzian at z = {z} is not finite: {sc}")
    return sc


def _jets(f: ConformalMap, z: complex, jet1, jet2) -> tuple:
    """(f'(z), jet1(z), jet2(z)), the guard schwarzian and osculating_mobius share.

    Raises CriticalPoint where |f'(z)| is at most CRITICAL_TOL, and
    NonFiniteSchwarzian where a jet is inf or NaN or overflows (complex **
    reports that as OverflowError or ZeroDivisionError).
    """
    try:
        f1 = f.deriv(z)
        if abs(f1) <= CRITICAL_TOL:
            raise CriticalPoint(f"|f'({z})| below critical threshold")
        j1, j2 = jet1(z), jet2(z)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteSchwarzian(f"Schwarzian at z = {z} is not finite: a jet of the map overflows") from exc
    if not (cmath.isfinite(f1) and cmath.isfinite(j1) and cmath.isfinite(j2)):
        raise NonFiniteSchwarzian(f"Schwarzian at z = {z} is not finite: the jets of the map are {(f1, j1, j2)}")
    return f1, j1, j2


def _schwarzian_from(f1, f2, f3):
    """SC f from the jets f', f'', f''' at a complex number or an array."""
    g = f2 / f1
    return f3 / f1 - 1.5 * g * g


def _norm(z, sc):
    """(Im z)^2 |sc|; on arrays np.float_power squares with the C library's pow, as float ** 2 does."""
    if isinstance(sc, SCALAR_TYPES):
        return z.imag ** 2 * abs(sc)
    import numpy as np

    return np.float_power(z.imag, 2.0) * modulus(sc)


def schwarzian_norm(f: ConformalMap, z: complex) -> float:
    """Hyperbolic norm (Im z)^2 |SC f(z)|, invariant under the real Mobius action; z as in schwarzian."""
    z = complex(z)
    return _norm(z, schwarzian(f, z))


def _schwarzian_array(f: ConformalMap, z: np.ndarray) -> np.ndarray:
    """schwarzian at every entry of z, raising what schwarzian raises at the first point that fails."""
    import numpy as np

    if not f.elementwise:
        return np.array([schwarzian(f, w) for w in z.tolist()], dtype=complex)
    with np.errstate(all="ignore"):
        f1 = np.broadcast_to(f.deriv(z), z.shape)
        sc = _schwarzian_from(f1, f.deriv2(z), f.deriv3(z))
    # an entry where f' is critical or not finite, or SC is not finite, is
    # redone by the scalar path, which raises its named error
    for w in z[(modulus(f1) <= CRITICAL_TOL) | ~np.isfinite(f1) | ~np.isfinite(sc)].tolist():
        schwarzian(f, w)
    return sc


def osculating_mobius(f: ConformalMap, z: complex) -> MobiusTransform:
    """The unique Mobius transformation sharing the 2-jet of f at z.

    M(w) = f(z) + f'(z)(w - z) / (1 - (f''(z)/(2 f'(z)))(w - z)).
    The jets f, f', f'' at z pass the guard of _jets.
    """
    f1, fz, f2 = _jets(f, z, f.value, f.deriv2)
    a = f1 - fz * f2 / (2.0 * f1)
    b = fz
    c = -f2 / (2.0 * f1)
    d = 1.0
    return MobiusTransform.from_entries(a, b - a * z, c, d - c * z)


@dataclass(frozen=True)
class FramedPoint:
    """Point of H^3 together with its foot r(p) in U and signed depth from the plane.

    Construction re-derives the frame from the point and insists the stored
    values agree to 1e-12 (depth compared through tanh, which stays finite).
    """

    point: H3Point
    depth: float
    base: complex

    def __post_init__(self):
        u, v, t = self.point.z.real, self.point.z.imag, self.point.t
        r = math.hypot(v, t)
        if abs(complex(u, r) - self.base) > 1e-12 * max(1.0, abs(self.base)):
            raise ValueError("stored foot disagrees with the point")
        if abs(v / r - math.tanh(self.depth)) > 1e-12:
            raise ValueError("stored depth disagrees with the point")


def foot_point(p: H3Point) -> FramedPoint:
    """Foot of the geodesic through p orthogonal to the plane over R.

    With p = (u + iv, t): base = u + i sqrt(v^2 + t^2), depth = artanh(v / sqrt(v^2 + t^2)).
    Points with v < 0 lie on the far side and are rejected.
    """
    u, v, t = p.z.real, p.z.imag, p.t
    if v < 0:
        raise WrongSide("point lies on the far side of the plane over R")
    r = math.hypot(v, t)
    return FramedPoint(p, math.atanh(v / r), complex(u, r))


def framed_point(base: complex, depth: float) -> FramedPoint:
    """Point at signed depth along the orthogonal geodesic with foot `base`."""
    if not base.imag > 0:
        raise ValueError("foot must lie in the upper half plane")
    u, r = base.real, base.imag
    p = H3Point(complex(u, r * math.tanh(depth)), r / math.cosh(depth))
    return FramedPoint(p, depth, base)


def theta(f: ConformalMap, p: H3Point) -> H3Point:
    """Theta(p) = (osculating Mobius of f at the foot of p) applied to p."""
    fr = foot_point(p)
    return apply_h3(osculating_mobius(f, fr.base), p)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid in U: [re0, re1] x [im0, im1] with counts."""

    re0: float
    re1: float
    nre: int
    im0: float
    im1: float
    nim: int

    def __post_init__(self):
        if self.nre < 1 or self.nim < 1:
            raise ValueError("grid counts must be >= 1")
        if not (self.re0 <= self.re1 and 0 < self.im0 <= self.im1):
            raise ValueError("grid rectangle must be ordered and lie in U")

    def points(self):
        """Grid points, real part outer and imaginary part inner."""
        for z in self.blocks():
            yield from z.tolist()

    def blocks(self):
        """The points in the order of `points`, as complex arrays of at most ARRAY_BLOCK entries."""
        import numpy as np

        u = np.linspace(self.re0, self.re1, self.nre)
        v = np.linspace(self.im0, self.im1, self.nim)
        count = self.nre * self.nim
        for start in range(0, count, ARRAY_BLOCK):
            k = np.arange(start, min(start + ARRAY_BLOCK, count))
            z = np.empty(k.size, dtype=complex)
            z.real = u[k // self.nim]
            z.imag = v[k % self.nim]
            yield z

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse "re0:re1:n,im0:im1:m"."""
        try:
            re_part, im_part = text.split(",")
            re0, re1, nre = re_part.split(":")
            im0, im1, nim = im_part.split(":")
        except ValueError as exc:
            raise ValueError(f"bad grid spec {text!r}") from exc
        return GridSpec(finite_float(re0), finite_float(re1), int(nre), finite_float(im0), finite_float(im1), int(nim))


def schwarzian_grid(f: ConformalMap, grid: GridSpec):
    """Arrays (z, SC f(z), (Im z)^2 |SC f(z)|) over the grid, block by block (see GridSpec.blocks)."""
    for z in grid.blocks():
        sc = _schwarzian_array(f, z)
        yield z, sc, _norm(z, sc)


def injectivity_depth(f: ConformalMap, grid: GridSpec) -> float:
    """arccosh(max(1, sup of the Schwarzian norm over the grid)).

    A sup below 1 yields 0: the extension is immersive at every sampled depth.
    NaN norms are skipped, as max() over the points would skip them.
    """
    import numpy as np

    sup = 0.0
    for _, _, norm in schwarzian_grid(f, grid):
        sup = max(sup, float(np.fmax.reduce(norm, initial=0.0)))
    return math.acosh(max(1.0, sup))


@dataclass(frozen=True, eq=False)
class JacobianReport:
    """Measured vs predicted singular values of Theta at a point."""

    measured: tuple
    predicted: tuple
    norm_at_foot: float
    depth: float
    directions: np.ndarray  # right-singular vectors, rows, in (Re z, Im z, t) coords

    def to_dict(self) -> dict:
        return {
            "measured": list(self.measured),
            "predicted": list(self.predicted),
            "norm_at_foot": self.norm_at_foot,
            "depth": self.depth,
        }


def jacobian_check(
    f: ConformalMap,
    p: H3Point,
    h: float = FD_STEP,
    richardson: bool = False,
) -> JacobianReport:
    """Central finite-difference Jacobian of Theta at p in hyperbolic frames.

    The Euclidean Jacobian is conjugated by the conformal factors t_p and
    t_{Theta(p)}; the step h is taken in hyperbolic-normalized coordinates
    (Euclidean step h * t_p).  Predicted values are the classical triple
    {1 + k, 1, |1 - k|}, k = schwarzian_norm(f, r(p)) / cosh(depth(p)).
    The step h must be positive and finite.
    """
    positive_finite("step h", h)
    import numpy as np

    fr = foot_point(p)
    step = h * p.t
    if p.z.imag - 2 * step < 0 or p.t - 2 * step <= 0:
        raise StepTooLarge("finite-difference stencil exits the admissible domain")

    def jac(s: float) -> np.ndarray:
        J = np.zeros((3, 3))
        for j, dvec in enumerate(((s, 0, 0), (0, s, 0), (0, 0, s))):
            zp = theta(f, H3Point(p.z + complex(dvec[0], dvec[1]), p.t + dvec[2]))
            zm = theta(f, H3Point(p.z - complex(dvec[0], dvec[1]), p.t - dvec[2]))
            J[:, j] = np.subtract(zp.coords(), zm.coords()) / (2.0 * s)
        return J

    J = jac(step)
    if richardson:
        J = (4.0 * jac(step / 2.0) - J) / 3.0
    t_img = theta(f, p).t
    _, sv, vt = np.linalg.svd(J * (p.t / t_img))
    k = schwarzian_norm(f, fr.base) / math.cosh(fr.depth)
    predicted = tuple(sorted((1.0 + k, 1.0, abs(1.0 - k)), reverse=True))
    return JacobianReport(tuple(sv), predicted, schwarzian_norm(f, fr.base), fr.depth, vt)
