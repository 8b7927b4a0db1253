"""Exact-formula core for PSL(2,C).

The isometric action on the upper half-space model of H^3, classification
by trace, complex translation length, hyperbolic distance, and the adjoint
action on sl(2,C).

Conventions: matrices are normalized to determinant 1 and compared up to
global sign.  All 2x2 arithmetic is written on the four entries of a
MobiusTransform, taking moduli with Python abs, and Ad on the coordinates
(x, y, w) of [[x, y], [w, -x]] in sl(2,C).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import CLASSIFY_TOL, positive_finite

if TYPE_CHECKING:
    import numpy as np


class ParabolicInput(ValueError):
    """Raised when an operation needs a non-parabolic, non-identity element."""


#: Python numbers, for functions that take a number or an array; numpy's float64
#: and complex128 subclass float and complex, so they take the number branch, and
#: only the array branch imports numpy
SCALAR_TYPES = (complex, float, int)


@dataclass(frozen=True)
class MobiusTransform:
    """Element of PSL(2,C), stored as an SL(2,C) matrix; -M and M are equal."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    @staticmethod
    def from_entries(a11, a12, a21, a22) -> "MobiusTransform":
        """Normalize entries of any numeric type to determinant 1, stored as Python complex numbers.

        ValueError if the determinant is 0 or not finite (a NaN or infinite entry, or an overflow).
        """
        det = a11 * a22 - a12 * a21
        if det == 0 or not cmath.isfinite(det):
            raise ValueError(f"matrix is singular or not finite: determinant {det}")
        s = 1.0 / cmath.sqrt(det)
        return MobiusTransform(complex(a11 * s), complex(a12 * s), complex(a21 * s), complex(a22 * s))

    @staticmethod
    def identity() -> "MobiusTransform":
        return MobiusTransform(1.0, 0.0, 0.0, 1.0)

    def entries(self) -> tuple:
        return self.a11, self.a12, self.a21, self.a22

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.a22, -self.a12, -self.a21, self.a11)

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        return MobiusTransform(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def trace(self) -> complex:
        return self.a11 + self.a22

    def frobenius_gaps(self, other: "MobiusTransform") -> tuple[float, float]:
        """Squared Frobenius norms (|A - B|^2, |A + B|^2) of the two sign choices, summed in entry order."""
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        b11, b12, b21, b22 = other.a11, other.a12, other.a21, other.a22
        minus = abs(a11 - b11) ** 2 + abs(a12 - b12) ** 2 + abs(a21 - b21) ** 2 + abs(a22 - b22) ** 2
        plus = abs(a11 + b11) ** 2 + abs(a12 + b12) ** 2 + abs(a21 + b21) ** 2 + abs(a22 + b22) ** 2
        return minus, plus

    def distance(self, other: "MobiusTransform") -> float:
        """Sign-insensitive Frobenius distance, a metric on PSL(2,C) matrices."""
        return math.sqrt(min(self.frobenius_gaps(other)))


@dataclass(frozen=True)
class H3Point:
    """Point of upper half-space H^3 = C x R+, boundary coordinate z, height t."""

    z: complex
    t: float

    def __post_init__(self):
        _h3_checked(self.z, self.t)

    def coords(self) -> tuple:
        """Euclidean coordinates (Re z, Im z, t)."""
        return self.z.real, self.z.imag, self.t


@dataclass(frozen=True)
class SL2Vector:
    """Element [[x, y], [w, -x]] of sl(2,C), stored as its coordinates (x, y, w).

    The coordinates are in the basis [[1,0],[0,-1]], [[0,1],[0,0]], [[0,0],[1,0]],
    so every value is traceless by construction.
    """

    x: complex
    y: complex
    w: complex

    @staticmethod
    def zero() -> "SL2Vector":
        return SL2Vector(0j, 0j, 0j)

    @staticmethod
    def from_coords(c) -> "SL2Vector":
        """From coordinates (x, y, w), given as any sequence of three numbers."""
        x, y, w = c
        return SL2Vector(complex(x), complex(y), complex(w))

    @staticmethod
    def from_matrix(rows) -> "SL2Vector":
        """From a finite traceless 2x2 array or nested list of rows; ValueError otherwise."""
        try:
            (x, y), (w, d) = rows
        except (TypeError, ValueError) as exc:
            raise ValueError("sl2 vector must be a 2x2 matrix") from exc
        x, y, w, d = complex(x), complex(y), complex(w), complex(d)
        if not all(map(cmath.isfinite, (x, y, w, d))):
            raise ValueError("sl2 vector entries must be finite")
        if abs(x + d) > 1e-12 * max(1.0, abs(x), abs(y), abs(w), abs(d)):
            raise ValueError("sl2 vector must be traceless")
        return SL2Vector(x, y, w)

    def coords(self) -> tuple:
        return self.x, self.y, self.w

    def norm(self) -> float:
        """Frobenius norm of [[x, y], [w, -x]], so x counts twice."""
        return math.sqrt(abs(self.x) ** 2 + abs(self.y) ** 2 + abs(self.w) ** 2 + abs(self.x) ** 2)

    def __add__(self, other: "SL2Vector") -> "SL2Vector":
        return SL2Vector(self.x + other.x, self.y + other.y, self.w + other.w)

    def __sub__(self, other: "SL2Vector") -> "SL2Vector":
        return SL2Vector(self.x - other.x, self.y - other.y, self.w - other.w)


@dataclass(frozen=True)
class IsomClass:
    """Classification tag: identity, parabolic, elliptic(angle, length) or loxodromic(length).

    length is the complex translation length: i angle for an elliptic element, and
    Re > 0, Im in (-pi, pi] for a loxodromic one; None for the other two kinds.
    """

    kind: str
    angle: float | None = None
    length: complex | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "parabolic", "elliptic", "loxodromic"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "elliptic" and not 0 < self.angle < 2 * math.pi:
            raise ValueError("elliptic angle must lie in (0, 2*pi)")
        if self.kind == "loxodromic" and not self.length.real > 0:
            raise ValueError("loxodromic length must have positive real part")


def _h3_checked(z, t) -> tuple:
    """(z, t) when it is a point of H^3, finite z and 0 < t < inf; ValueError otherwise."""
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got z = {z}")
    if not 0 < t < math.inf:
        raise ValueError(f"height t must be positive and finite, got t = {t}")
    return z, t


def apply_h3(m: MobiusTransform, p: H3Point) -> H3Point:
    """Poincare extension: the unique isometric extension of the boundary action.

    z' = ((a11 z + a12) conj(a21 z + a22) + a11 conj(a21) t^2) / D,
    t' = t / D,  D = |a21 z + a22|^2 + |a21|^2 t^2.
    """
    return H3Point(*_poincare(m, p.z, p.t))


def _poincare(m: MobiusTransform, z: complex, t: float) -> tuple:
    """The (z', t') of apply_h3 on the coordinates of a point, unchecked."""
    w = m.a21 * z + m.a22
    den = abs(w) ** 2 + abs(m.a21) ** 2 * t * t
    return ((m.a11 * z + m.a12) * w.conjugate() + m.a11 * m.a21.conjugate() * t * t) / den, t / den


def modulus(w: np.ndarray) -> np.ndarray:
    """Elementwise |w| of a complex array by np.hypot, which reproduces Python's abs bit for bit (np.abs does not)."""
    import numpy as np

    return np.hypot(w.real, w.imag)


def hyp_distance(p: H3Point, q: H3Point) -> float:
    """Hyperbolic distance d = 2 asinh(|p - q| / (2 sqrt(t_p) sqrt(t_q))), |p - q| the Euclidean distance in C x R.

    This is cosh d = 1 + |p - q|^2 / (2 t_p t_q) without the cancellation of cosh d - 1
    near d = 0; the two roots are taken apart, so t_p t_q, which can underflow, is never formed.
    Where their product is subnormal, and so short of bits, the differences and heights
    are scaled by 2^1000 first: a dilation is an isometry, and exact in binary.
    Where the chord, its denominator or their quotient overflows, the coordinate
    differences are taken in quarters (so their moduli stay finite) and, where the
    quotient x still overflows, 2 asinh x = 2 log 2x.
    """
    dz, dt = p.z - q.z, p.t - q.t
    root = 2.0 * math.sqrt(p.t) * math.sqrt(q.t)
    if root < 2.0**-1022:
        dz, dt = dz * 2.0**1000, dt * 2.0**1000
        root = 2.0 * math.sqrt(p.t * 2.0**1000) * math.sqrt(q.t * 2.0**1000)
    try:
        x = math.hypot(abs(dz), dt) / root
    except OverflowError:  # abs of a complex number raises where its modulus overflows
        x = math.inf
    if x < math.inf and root < math.inf:
        return 2.0 * math.asinh(x)
    quarter = math.hypot(abs(p.z / 4.0 - q.z / 4.0), (p.t - q.t) / 4.0)
    x = quarter / math.sqrt(p.t) / (0.5 * math.sqrt(q.t))
    if x < math.inf:
        return 2.0 * math.asinh(x)
    return 2.0 * (math.log(quarter) + math.log(4.0)) - math.log(p.t) - math.log(q.t)


def classify(m: MobiusTransform, tol: float = CLASSIFY_TOL) -> IsomClass:
    """Classify by the trace alone, tr = +-2 cosh(l/2) (Hodgson-Kerckhoff).

    |tr^2 - 4| < tol: the identity when m is within tol of it, parabolic otherwise.
    Else l = 2 acosh(tr / 2), whose principal branch has Re l >= 0, and the sign of
    tr only shifts l by 2 pi i.  Re l < tol and |Re tr| < 2: elliptic, with the
    rotation angle 2 acos(|Re tr| / 2) in (0, pi] and length i angle, so the real
    part dropped is below tol.  Otherwise loxodromic, with l reduced into
    Im l in (-pi, pi].  Where tr^2 overflows the first test fails, and acosh, which
    takes a log for large arguments, stays finite.  tol must be positive and finite
    (ValueError otherwise).
    """
    positive_finite("tol", tol)
    tr = m.trace()
    if abs(tr * tr - 4.0) < tol:
        if m.distance(MobiusTransform.identity()) < tol:
            return IsomClass("identity")
        return IsomClass("parabolic")
    ell = 2.0 * cmath.acosh(tr / 2.0)
    if ell.real < tol and abs(tr.real) < 2.0:
        angle = 2.0 * math.acos(abs(tr.real) / 2.0)
        return IsomClass("elliptic", angle=angle, length=complex(0.0, angle))
    k = math.floor((math.pi - ell.imag) / (2.0 * math.pi))
    return IsomClass("loxodromic", length=complex(ell.real, ell.imag + 2.0 * math.pi * k))


def complex_translation_length(m: MobiusTransform, tol: float = CLASSIFY_TOL) -> complex:
    """Complex length l with tr = +-2 cosh(l/2), mod 2 pi i and sign: classify(m, tol).length.

    Loxodromic: Re l > 0 and Im l in (-pi, pi]; elliptic: l = i angle, Im l in (0, pi],
    which drops a real part below tol.
    ParabolicInput for a parabolic element or the identity.
    """
    length = classify(m, tol).length
    if length is None:
        raise ParabolicInput("complex length undefined for parabolic or identity input")
    return length


def length_distance(l1: complex, l2: complex) -> float:
    """Distance between complex lengths mod 2*pi*i and mod sign."""
    best = math.inf
    for cand in (l1, -l1):
        d = cand - l2
        k = round(d.imag / (2.0 * math.pi))
        best = min(best, abs(d - complex(0.0, 2.0 * math.pi * k)))
    return best


def adjoint_rows(m: MobiusTransform) -> tuple:
    """Rows of Ad(m) on (x, y, w) for m = [[a, b], [c, d]], as Python numbers.

    Quadratic in the entries, so the sign of m drops out.
    """
    a, b, c, d = m.entries()
    return (a * d + b * c, -a * c, b * d), (-2.0 * a * b, a * a, -b * b), (2.0 * c * d, -c * c, d * d)


def adjoint(m: MobiusTransform, v: SL2Vector) -> SL2Vector:
    """Ad(m) v = m v m^-1, traceless by construction."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = adjoint_rows(m)
    x, y, w = v.x, v.y, v.w
    return SL2Vector(a0 * x + a1 * y + a2 * w, b0 * x + b1 * y + b2 * w, c0 * x + c1 * y + c2 * w)


def adjoint_matrix(m: MobiusTransform) -> np.ndarray:
    """Ad(m) as a 3x3 complex matrix in the coordinates of SL2Vector.coords."""
    import numpy as np

    return np.array(adjoint_rows(m), dtype=complex)


def right_translate(dm, m: MobiusTransform) -> SL2Vector:
    """Traceless part of dm m^-1, for the entries dm of a tangent vector to SL(2,C) at m."""
    e11, e12, e21, e22 = dm
    a11, a12, a21, a22 = m.entries()
    # m^-1 = [[a22, -a12], [-a21, a11]]; dropping the trace absorbs the error of a finite-difference dm
    x = (e11 * a22 - e12 * a21 - (e22 * a11 - e21 * a12)) / 2.0
    return SL2Vector(x, e12 * a11 - e11 * a12, e21 * a22 - e22 * a21)
