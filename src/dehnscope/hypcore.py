"""Exact-formula core for PSL(2,C).

Mobius action on the Riemann sphere, the isometric action on the upper
half-space model of H^3, classification by trace, complex translation
length, hyperbolic distance, and the adjoint action on sl(2,C).

Conventions: matrices are normalized to determinant 1 and compared up to
global sign.  The point at infinity is the tagged value INFINITY, never an
encoded float, so pole cases in the boundary action are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import CLASSIFY_TOL


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


@dataclass(frozen=True)
class MobiusTransform:
    """Element of PSL(2,C), stored as an SL(2,C) matrix; -M and M are equal."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    @staticmethod
    def from_entries(a11, a12, a21, a22) -> "MobiusTransform":
        """Normalize arbitrary nonsingular entries to determinant 1."""
        det = a11 * a22 - a12 * a21
        if det == 0:
            raise ValueError("matrix is singular")
        s = 1.0 / cmath.sqrt(det)
        return MobiusTransform(a11 * s, a12 * s, a21 * s, a22 * s)

    @staticmethod
    def from_matrix(m) -> "MobiusTransform":
        m = np.asarray(m, dtype=complex)
        return MobiusTransform.from_entries(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

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

    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=complex)

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

    def distance(self, other: "MobiusTransform") -> float:
        """Sign-insensitive Frobenius distance, a metric on PSL(2,C) matrices."""
        d = self.matrix() - other.matrix()
        s = self.matrix() + other.matrix()
        return min(
            math.sqrt(float(np.sum(np.abs(d) ** 2))),
            math.sqrt(float(np.sum(np.abs(s) ** 2))),
        )

    def __call__(self, z: ExtendedComplex) -> ExtendedComplex:
        return apply_boundary(self, z)


@dataclass(frozen=True)
class H3Point:
    """Point of upper half-space H^3 = C x R+, boundary coordinate z, height t."""

    z: complex
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"height must be strictly positive, got {self.t}")

    def coords(self) -> np.ndarray:
        """Euclidean coordinates (Re z, Im z, t)."""
        return np.array([self.z.real, self.z.imag, self.t])


@dataclass(frozen=True, eq=False)
class SL2Vector:
    """Traceless 2x2 complex matrix, an element of sl(2,C)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("sl2 vector must be a 2x2 matrix")
        if abs(m[0, 0] + m[1, 1]) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("sl2 vector must be traceless")
        object.__setattr__(self, "m", m)

    @staticmethod
    def zero() -> "SL2Vector":
        return SL2Vector(np.zeros((2, 2), dtype=complex))

    @staticmethod
    def from_coords(c) -> "SL2Vector":
        """Coordinates (x, y, w) in the basis [[1,0],[0,-1]], [[0,1],[0,0]], [[0,0],[1,0]]."""
        x, y, w = c
        return SL2Vector(np.array([[x, y], [w, -x]], dtype=complex))

    def coords(self) -> np.ndarray:
        return np.array([self.m[0, 0], self.m[0, 1], self.m[1, 0]])

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.m) ** 2)))

    def __add__(self, other: "SL2Vector") -> "SL2Vector":
        return SL2Vector(self.m + other.m)

    def __sub__(self, other: "SL2Vector") -> "SL2Vector":
        return SL2Vector(self.m - other.m)

    def __mul__(self, s: complex) -> "SL2Vector":
        return SL2Vector(self.m * s)

    __rmul__ = __mul__

    def __neg__(self) -> "SL2Vector":
        return SL2Vector(-self.m)


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


def modulus(w):
    """|w| of a complex number, or elementwise of a complex array.

    Arrays use np.hypot, which reproduces Python's abs bit for bit (np.abs does not).
    """
    if isinstance(w, np.ndarray):
        return np.hypot(w.real, w.imag)
    return abs(w)


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


def adjoint(m: MobiusTransform, v: SL2Vector) -> SL2Vector:
    """Ad(m) v = m v m^-1; the sign of m is irrelevant.

    The result is projected back to traceless to absorb roundoff.
    """
    w = m.matrix() @ v.m @ m.inverse().matrix()
    tr = (w[0, 0] + w[1, 1]) / 2.0
    w[0, 0] -= tr
    w[1, 1] -= tr
    return SL2Vector(w)


def adjoint_matrix(m: MobiusTransform) -> np.ndarray:
    """Ad(m) as a 3x3 complex matrix in the coordinates of SL2Vector.coords."""
    cols = []
    for k in range(3):
        e = np.zeros(3, dtype=complex)
        e[k] = 1.0
        cols.append(adjoint(m, SL2Vector.from_coords(e)).coords())
    return np.array(cols).T
