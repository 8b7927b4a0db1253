"""Exact-formula core for PSL(2,C).

Mobius action on the Riemann sphere, the isometric action on the upper
half-space model of H^3, classification by trace, complex translation
length, hyperbolic distance, and the adjoint action on sl(2,C).

Conventions: matrices are normalized to determinant 1 and compared up to
global sign.  All 2x2 arithmetic is written on the four entries of a
MobiusTransform, taking moduli with Python abs, and Ad on the coordinates
(x, y, w) of [[x, y], [w, -x]] in sl(2,C).  The point at infinity is the
tagged value INFINITY, never an encoded float, so pole cases in the
boundary action are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import CLASSIFY_TOL

if TYPE_CHECKING:
    import numpy as np


class ParabolicInput(ValueError):
    """Raised when an operation needs a non-parabolic, non-identity element."""


class IdentityInput(ValueError):
    """Raised when an operation needs a non-identity element."""


class _Infinity:
    """The point at infinity of the Riemann sphere."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

#: extended complex number: a finite complex value or INFINITY
ExtendedComplex = complex | _Infinity

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
        """Normalize nonsingular entries of any numeric type to determinant 1, stored as Python complex numbers."""
        det = a11 * a22 - a12 * a21
        if det == 0:
            raise ValueError("matrix is singular")
        s = 1.0 / cmath.sqrt(det)
        return MobiusTransform(complex(a11 * s), complex(a12 * s), complex(a21 * s), complex(a22 * s))

    @staticmethod
    def from_matrix(m) -> "MobiusTransform":
        """From a 2x2 array or nested list of rows."""
        (a11, a12), (a21, a22) = m
        return MobiusTransform.from_entries(a11, a12, a21, a22)

    @staticmethod
    def identity() -> "MobiusTransform":
        return MobiusTransform(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def translation(c: complex) -> "MobiusTransform":
        """z -> z + c."""
        return MobiusTransform(1.0, complex(c), 0.0, 1.0)

    @staticmethod
    def scaling(m: complex) -> "MobiusTransform":
        """z -> m z for m != 0."""
        return MobiusTransform.from_entries(m, 0.0, 0.0, 1.0)

    @staticmethod
    def inversion() -> "MobiusTransform":
        """z -> 1/z."""
        return MobiusTransform.from_entries(0.0, 1.0, 1.0, 0.0)

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
        """Squared Frobenius norms (|A - B|^2, |A + B|^2) of the two sign choices."""
        pairs = tuple(zip(self.entries(), other.entries()))
        return sum(abs(x - y) ** 2 for x, y in pairs), sum(abs(x + y) ** 2 for x, y in pairs)

    def distance(self, other: "MobiusTransform") -> float:
        """Sign-insensitive Frobenius distance, a metric on PSL(2,C) matrices."""
        return math.sqrt(min(self.frobenius_gaps(other)))

    def __call__(self, z: ExtendedComplex) -> ExtendedComplex:
        return apply_boundary(self, z)


@dataclass(frozen=True)
class H3Point:
    """Point of upper half-space H^3 = C x R+, boundary coordinate z, height t."""

    z: complex
    t: float

    def __post_init__(self):
        if not cmath.isfinite(self.z):
            raise ValueError(f"z must be finite, got z = {self.z}")
        if not 0 < self.t < math.inf:
            raise ValueError(f"height t must be positive and finite, got t = {self.t}")

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
        """From a traceless 2x2 array or nested list of rows; ValueError otherwise."""
        try:
            (x, y), (w, d) = rows
        except (TypeError, ValueError) as exc:
            raise ValueError("sl2 vector must be a 2x2 matrix") from exc
        x, y, w, d = complex(x), complex(y), complex(w), complex(d)
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

    def __mul__(self, s: complex) -> "SL2Vector":
        return SL2Vector(self.x * s, self.y * s, self.w * s)

    __rmul__ = __mul__

    def __neg__(self) -> "SL2Vector":
        return SL2Vector(-self.x, -self.y, -self.w)


@dataclass(frozen=True)
class IsomClass:
    """Classification tag: identity, parabolic, elliptic(angle) or loxodromic(length)."""

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


def apply_boundary(m: MobiusTransform, z: ExtendedComplex) -> ExtendedComplex:
    """Evaluate (a11 z + a12)/(a21 z + a22) with exact infinity conventions."""
    if isinstance(z, _Infinity):
        if m.a21 == 0:
            return INFINITY
        return m.a11 / m.a21
    den = m.a21 * z + m.a22
    if den == 0:
        return INFINITY
    return (m.a11 * z + m.a12) / den


def apply_h3(m: MobiusTransform, p: H3Point) -> H3Point:
    """Poincare extension: the unique isometric extension of the boundary action.

    z' = ((a11 z + a12) conj(a21 z + a22) + a11 conj(a21) t^2) / D,
    t' = t / D,  D = |a21 z + a22|^2 + |a21|^2 t^2.
    """
    w = m.a21 * p.z + m.a22
    den = abs(w) ** 2 + abs(m.a21) ** 2 * p.t * p.t
    zp = ((m.a11 * p.z + m.a12) * w.conjugate() + m.a11 * m.a21.conjugate() * p.t * p.t) / den
    return H3Point(zp, p.t / den)


def modulus(w: np.ndarray) -> np.ndarray:
    """Elementwise |w| of a complex array by np.hypot, which reproduces Python's abs bit for bit (np.abs does not)."""
    import numpy as np

    return np.hypot(w.real, w.imag)


def _cosh_distance(dz, t1, t2):
    """cosh d = 1 + (dz^2 + (t1 - t2)^2) / (2 t1 t2) with dz = |z1 - z2|, on numbers or arrays."""
    dt = t1 - t2
    return 1.0 + (dz * dz + dt * dt) / (2.0 * t1 * t2)


def hyp_distance(p: H3Point, q: H3Point) -> float:
    """Hyperbolic distance: cosh d = 1 + (|z_p - z_q|^2 + (t_p - t_q)^2) / (2 t_p t_q)."""
    return math.acosh(max(_cosh_distance(abs(p.z - q.z), p.t, q.t), 1.0))


def hyp_distances(z1: np.ndarray, t1: np.ndarray, z2: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """hyp_distance between the points (z1, t1) and (z2, t2) of equal-length arrays.

    math.acosh runs over the list of arguments because np.arccosh rounds
    differently on a sizeable share of inputs.
    """
    import numpy as np

    arg = np.maximum(_cosh_distance(modulus(z1 - z2), t1, t2), 1.0)
    return np.array(list(map(math.acosh, arg.tolist())))


def classify(m: MobiusTransform, tol: float = CLASSIFY_TOL) -> IsomClass:
    """Classify by trace: tr^2 = 4 parabolic/identity, tr^2 in [0,4) real elliptic."""
    tr = m.trace()
    tr2 = tr * tr
    if abs(tr2 - 4.0) < tol:
        if m.distance(MobiusTransform.identity()) < tol:
            return IsomClass("identity")
        return IsomClass("parabolic")
    if abs(tr2.imag) < tol and 0.0 <= tr2.real < 4.0:
        # tr = +-2 cos(theta/2); canonical angle representative in (0, pi]
        angle = 2.0 * math.acos(min(1.0, abs(tr.real) / 2.0))
        return IsomClass("elliptic", angle=angle)
    return IsomClass("loxodromic", length=complex_translation_length(m, tol=tol))


def _large_eigenvalue(tr: complex) -> complex:
    """Eigenvalue of largest modulus of an SL2 matrix with trace tr."""
    s = cmath.sqrt(tr * tr / 4.0 - 1.0)
    # choose the sqrt branch avoiding cancellation against tr/2
    if (tr / 2.0 * s.conjugate()).real < 0:
        s = -s
    lam = tr / 2.0 + s
    if abs(lam) < 1.0:
        lam = 1.0 / lam
    return lam


def _reduce_im(ell: complex) -> complex:
    """Shift by multiples of 2*pi*i so that Im lies in (-pi, pi]."""
    k = math.floor((math.pi - ell.imag) / (2.0 * math.pi))
    return complex(ell.real, ell.imag + 2.0 * math.pi * k)


def complex_translation_length(m: MobiusTransform, tol: float = CLASSIFY_TOL) -> complex:
    """Complex length l with tr = +-2 cosh(l/2), taken mod 2*pi*i and mod sign.

    Canonical representative: Re l >= 0 and Im l in (-pi, pi]; when Re l = 0
    (elliptic) the imaginary part is taken positive.
    """
    tr = m.trace()
    if abs(tr * tr - 4.0) < tol:
        raise ParabolicInput("complex length undefined for parabolic or identity input")
    ell = _reduce_im(2.0 * cmath.log(_large_eigenvalue(tr)))
    if ell.real < 0 or (ell.real == 0 and ell.imag < 0):
        ell = _reduce_im(-ell)
    if ell.real == 0 and ell.imag < 0:
        ell = complex(0.0, -ell.imag)
    return ell


def length_distance(l1: complex, l2: complex) -> float:
    """Distance between complex lengths mod 2*pi*i and mod sign."""
    best = math.inf
    for cand in (l1, -l1):
        d = cand - l2
        k = round(d.imag / (2.0 * math.pi))
        best = min(best, abs(d - complex(0.0, 2.0 * math.pi * k)))
    return best


def fixed_points(m: MobiusTransform, tol: float = CLASSIFY_TOL) -> tuple[ExtendedComplex, ...]:
    """Roots of the fixed-point equation; two for loxodromic/elliptic, one for parabolic."""
    ident = MobiusTransform.identity()
    if m.distance(ident) < tol:
        raise IdentityInput("every point is fixed by the identity")
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    tr = a + d
    parabolic = abs(tr * tr - 4.0) < tol
    if c == 0:
        # infinity is fixed; z -> (a z + b)/d
        if parabolic:
            return (INFINITY,)
        return _ordered(b / (d - a), INFINITY)
    disc = tr * tr - 4.0  # = (a - d)^2 + 4 b c
    if parabolic:
        return ((a - d) / (2.0 * c),)
    root = cmath.sqrt(disc)
    return _ordered((a - d + root) / (2.0 * c), (a - d - root) / (2.0 * c))


def _ordered(z1, z2):
    """Deterministic ordering of fixed points; INFINITY sorts last."""
    if isinstance(z1, _Infinity):
        return (z2, INFINITY)
    if isinstance(z2, _Infinity):
        return (z1, INFINITY)
    if (z1.real, z1.imag) <= (z2.real, z2.imag):
        return (z1, z2)
    return (z2, z1)


def _ad_rows(m: MobiusTransform) -> tuple:
    """Rows of Ad(m) on (x, y, w) for m = [[a, b], [c, d]]; quadratic, so the sign of m drops out."""
    a, b, c, d = m.entries()
    return (a * d + b * c, -a * c, b * d), (-2.0 * a * b, a * a, -b * b), (2.0 * c * d, -c * c, d * d)


def adjoint(m: MobiusTransform, v: SL2Vector) -> SL2Vector:
    """Ad(m) v = m v m^-1, traceless by construction."""
    return SL2Vector(*(r0 * v.x + r1 * v.y + r2 * v.w for r0, r1, r2 in _ad_rows(m)))


def adjoint_matrix(m: MobiusTransform) -> np.ndarray:
    """Ad(m) as a 3x3 complex matrix in the coordinates of SL2Vector.coords."""
    import numpy as np

    return np.array(_ad_rows(m), dtype=complex)


def right_translate(dm, m: MobiusTransform) -> SL2Vector:
    """Traceless part of dm m^-1, for the entries dm of a tangent vector to SL(2,C) at m."""
    e11, e12, e21, e22 = dm
    a11, a12, a21, a22 = m.entries()
    # m^-1 = [[a22, -a12], [-a21, a11]]; dropping the trace absorbs the error of a finite-difference dm
    x = (e11 * a22 - e12 * a21 - (e22 * a11 - e21 * a12)) / 2.0
    return SL2Vector(x, e12 * a11 - e11 * a12, e21 * a22 - e22 * a21)
