"""Cone structures on a torus end T x [0, inf).

A parameter s = (a, b) with Im b > 0 determines a hyperbolic structure on
the end through an explicit developing map and the holonomy

    rho(g1) = e^a z + 1,   rho(g2) = e^{ab} z + (e^{ab} - 1)/(e^a - 1)

for a != 0, and rho(g1) = z + 1, rho(g2) = z + b at the cusp a = 0.  The
(x,y)-curve on the boundary torus has complex length a(x + by) up to sign,
and the filling coordinates of the end are the +-(x,y) solving
a(x + by) = 2*pi*i, or infinity at the cusp.

The affine normalization above has a pole along e^a = 1, a != 0
(z0 = 1/(1 - e^a) leaves every compact set).  The end structures themselves
vary continuously through it; on it (|1 - e^a| <= SINGULAR_LOCUS_TOL, decided
in _affine_den) z0_of, phi, develop and holonomy share the limiting
axis-centered frame: center 0, phi = -e^{xa+yab}, rho = z -> e^{a(m+bn)} z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .config import ARRAY_BLOCK, DEFAULT_CHART, MAX_DENOMINATOR, RATIONAL_TOL, SINGULAR_LOCUS_TOL, positive_finite
from .hypcore import SCALAR_TYPES, H3Point, MobiusTransform, _cosh_distance, _h3_checked, _poincare, modulus


class ZeroA(ValueError):
    """Raised by cone-specific operations at the cusp parameter a = 0."""


class DegenerateRegion(ValueError):
    """Raised when a sampling region has a side of length zero."""


@dataclass(frozen=True)
class EndParameter:
    """The pair s = (a, b): holonomy exponent a and boundary-torus modulus b.

    1 - e^a and the generator images are cached properties: each is computed
    on first use and kept in the instance dict, outside ==, hash and repr.
    One that raises keeps nothing, so none can raise for another.
    """

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        for name in ("a", "b"):
            if not cmath.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name} = {value}")
        if not self.b.imag > 0:
            raise ValueError(f"Im b must be strictly positive, got b = {self.b}")

    @cached_property
    def _den(self) -> complex | None:
        """_affine_den(a): 1 - e^a, or None on the pole locus."""
        return _affine_den(self.a)

    @cached_property
    def _rho1(self) -> MobiusTransform:
        """rho(g1), as holonomy(self, 1, 0)."""
        return holonomy(self, 1, 0)

    @cached_property
    def _rho2(self) -> MobiusTransform:
        """rho(g2), as holonomy(self, 0, 1)."""
        return holonomy(self, 0, 1)


@dataclass(frozen=True)
class FillingCoordinate:
    """Point of (R^2 / +-1) u {infinity}; finite values carry the canonical sign."""

    infinite: bool
    x: float = 0.0
    y: float = 0.0

    @staticmethod
    def infinity() -> "FillingCoordinate":
        return FillingCoordinate(True)

    @staticmethod
    def finite(x: float, y: float) -> "FillingCoordinate":
        if x == 0.0 and y == 0.0:
            raise ValueError("finite filling coordinates cannot be (0, 0)")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"finite filling coordinates must be finite numbers, got x = {x}, y = {y}")
        x, y = canonical_sign_pair(x, y)
        return FillingCoordinate(False, x, y)

    def distance(self, other: "FillingCoordinate") -> float:
        """Quotient metric on R^2/+-1 u {infinity}; mixed pairs are infinitely far."""
        return _quotient_distance(self.infinite, self.x, self.y, other.infinite, other.x, other.y)


@dataclass(frozen=True)
class CompletionClass:
    """Completion of the end: cusp, smooth filling, rational cone, irrational, or undetermined."""

    kind: str  # "cusp" | "smooth" | "cone" | "irrational" | "undetermined"
    p: int | None = None
    q: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ("cusp", "smooth", "cone", "irrational", "undetermined"):
            raise ValueError(f"unknown completion kind {self.kind!r}")
        if self.kind in ("smooth", "cone"):
            if math.gcd(abs(self.p), abs(self.q)) != 1:
                raise ValueError("meridian class must be primitive")
            if not self.angle > 0:
                raise ValueError("cone angle must be positive")


@dataclass(frozen=True)
class EndRegion:
    """Box [x0,x1] x [y0,y1] x [t0,t1] in the chart R^2 x [1, inf) of the universal cover."""

    x0: float
    x1: float
    y0: float
    y1: float
    t0: float
    t1: float

    def __post_init__(self):
        if not (self.x0 <= self.x1 and self.y0 <= self.y1 and self.t0 <= self.t1):
            raise ValueError("region bounds must be ordered")
        if self.t0 < 1.0:
            raise ValueError("chart heights start at t = 1")
        if not all(map(math.isfinite, (self.x1 - self.x0, self.y1 - self.y0, self.t1 - self.t0))):
            raise ValueError("region bounds must be finite, and so must its sides")


def canonical_sign_pair(x, y):
    """Representative of +-(x, y) whose first nonzero component is positive; numbers, or arrays of them."""
    flip = (x < 0) | ((x == 0) & (y < 0))
    if isinstance(x, SCALAR_TYPES):
        return (-x, -y) if flip else (x, y)
    import numpy as np

    return np.where(flip, -x, x), np.where(flip, -y, y)


def _quotient_distance(cusp1, x1, y1, cusp2, x2, y2):
    """FillingCoordinate.distance from the cusp flags and coordinates; numbers, or arrays of them.

    Arrays use np.hypot, which can differ from math.hypot in the last bit.
    """
    if isinstance(x1, SCALAR_TYPES):
        if cusp1 or cusp2:
            return 0.0 if cusp1 and cusp2 else math.inf
        return min(math.hypot(x1 - x2, y1 - y2), math.hypot(x1 + x2, y1 + y2))
    import numpy as np

    d = np.minimum(np.hypot(x1 - x2, y1 - y2), np.hypot(x1 + x2, y1 + y2))
    return np.where(cusp1 | cusp2, np.where(cusp1 & cusp2, 0.0, np.inf), d)


def _affine_den(a: complex) -> complex | None:
    """1 - e^a in the affine frame, or None on the pole locus (axis-centered frame)."""
    if a == 0:
        raise ZeroA("no cone frame at a = 0; the cusp chart applies instead")
    den = 1.0 - cmath.exp(a)
    return None if abs(den) <= SINGULAR_LOCUS_TOL else den


def _frame(den: complex | None) -> tuple[complex, complex]:
    """(z0, c) with phi = -c e^{xa + yab}, given den = _affine_den(a).

    c = z0 = 1/(1 - e^a), or z0 = 0 and c = 1 on the pole locus (den None).
    """
    return (0j, 1.0) if den is None else (1.0 / den,) * 2


def z0_of(a: complex) -> complex:
    """Finite fixed point of the holonomy: 1/(1 - e^a), or 0 on the pole locus."""
    return _frame(_affine_den(a))[0]


def phi(s: EndParameter, x, y):
    """phi(x, y) = -z0 e^{xa + yab} with z0 = 1/(1 - e^a), or -e^{xa + yab} on the pole locus.

    x and y are real numbers, or arrays of them for an array of values.
    """
    return _phi(s, _frame(s._den)[1], x, y)


def _phi(s: EndParameter, c, x, y):
    """phi given the factor c of _frame; cmath.exp on numbers, np.exp (the same bits) on arrays."""
    w = x * s.a + y * s.a * s.b
    if isinstance(w, SCALAR_TYPES):
        return -c * cmath.exp(w)
    import numpy as np

    return -c * np.exp(w)


def develop(s: EndParameter, x: float, y: float, t: float, chart: str = DEFAULT_CHART) -> H3Point:
    """Chart of the universal cover into H^3.

    For a = 0 both variants are the exact cusp chart (x + by, t).  For a != 0:

      printed:    (z0, 0) + |phi| (phi, t) / sqrt(t^2 + |phi|^2)
      corrected:  (z0, 0) + (phi, t |phi|) / sqrt(1 + t^2)

    Both place the image at Euclidean distance |phi| from (z0, 0), in the
    frame of holonomy (z0 = 0 on the pole locus).  Only the corrected variant
    is deck equivariant when |e^a| != 1 (the printed height picks up |e^a| on
    one side only); the printed one converges to the cusp chart as a -> 0.
    """
    return H3Point(*_developed(s, x, y, t, chart))


def _developed(s: EndParameter, x: float, y: float, t: float, chart: str):
    """develop as (z, height), before H3Point's check."""
    if t < 1.0:
        raise ValueError("chart heights start at t = 1")
    return _chart(s, x, y, t, chart)


def _chart(s: EndParameter, x, y, t, chart: str):
    """develop as (z, height), on real numbers or on arrays of sample coordinates."""
    if s.a == 0:
        return x + s.b * y, 1.0 * t  # a float height even for an integer t
    z0, c = _frame(s._den)
    ph = _phi(s, c, x, y)
    if isinstance(ph, SCALAR_TYPES):
        ap, sqrt = abs(ph), math.sqrt
    else:
        import numpy as np

        ap, sqrt = modulus(ph), np.sqrt
    if chart == "printed":
        den = sqrt(t * t + ap * ap)
        return z0 + ph * (ap / den), t * ap / den
    if chart == "corrected":
        den = sqrt(1.0 + t * t)
        return z0 + ph / den, t * ap / den
    raise ValueError(f"unknown chart variant {chart!r}")


def holonomy(s: EndParameter, m: int, n: int) -> MobiusTransform:
    """Holonomy of g1^m g2^n.

    Away from the pole locus e^a = 1 this is the affine normalization
    z -> e^c z + (1 - e^c)/(1 - e^a) with c = a(m + bn); at a = 0 it is
    z -> z + m + nb.  On the pole locus (a != 0, e^a = 1) the affine form
    has no limit and the axis-centered normalization z -> e^c z is returned.
    """
    if s.a == 0:
        return MobiusTransform(1.0, m + n * s.b, 0.0, 1.0)
    c = s.a * (m + s.b * n)
    ec2 = cmath.exp(c / 2.0)
    den = s._den
    if den is None:
        return MobiusTransform(ec2, 0.0, 0.0, 1.0 / ec2)
    tau = (1.0 - cmath.exp(c)) / den
    return MobiusTransform(ec2, tau / ec2, 0.0, 1.0 / ec2)


def _aligned_holonomy(s: EndParameter, m: int, n: int) -> MobiusTransform:
    """g rho(g1^m g2^n) g^-1 for the aligner g = diag(sigma^-1/2, sigma^1/2) . [[1, 0], [a/(2 sigma), 1]].

    With sigma = a/(e^a - 1) and c = a(m + bn) this is exp((c/2) X) for
    X = [[0, 2/a], [a/2, 0]], X^2 = I: cosh(c/2) I + sinh(c/2) X.  sigma
    cancels, so there is no pole on e^a = 1, and at a = 0 the value is the
    cusp holonomy z -> z + m + nb.
    """
    w = m + s.b * n
    ch, sh = cmath.cosh(s.a * w / 2.0), cmath.sinh(s.a * w / 2.0)
    return MobiusTransform(ch, 2.0 * sh / s.a if s.a else w, s.a / 2.0 * sh, ch)


def complex_length(s: EndParameter, x: float, y: float) -> complex:
    """Total complex length a(x + by) of the (x, y)-class, canonical up to sign.

    Not reduced mod 2*pi*i: it records total rotation as well.
    """
    z = s.a * (x + s.b * y)
    return complex(*canonical_sign_pair(z.real, z.imag))


def filling_coordinates(s: EndParameter) -> FillingCoordinate:
    """The +-(x, y) with a(x + by) = +-2*pi*i, or infinity at the cusp."""
    if s.a == 0:
        return FillingCoordinate.infinity()
    return FillingCoordinate.finite(*_filling_xy(s.a, s.b))


def _filling_xy(a, b):
    """The (x, y), sign not canonical, with a(x + by) = 2*pi*i for a != 0; numbers, or arrays of them."""
    w = 2j * math.pi / a
    y = w.imag / b.imag
    return w.real - b.real * y, y


def _filling_arrays(a, b):
    """filling_coordinates of EndParameter(a[k], b[k]) over arrays a, b, as (cusp, x, y).

    cusp marks a == 0, where x = y = 0; elsewhere (x, y) has the canonical
    sign.  The first sample that EndParameter or FillingCoordinate.finite
    refuses raises their ValueError.  Numpy divides through a reciprocal, so
    x and y can differ from filling_coordinates in the last digits.
    """
    import numpy as np

    cusp = a == 0
    with np.errstate(all="ignore"):
        x, y = _filling_xy(np.where(cusp, 1.0, a), b)
    finite = np.isfinite(x) & np.isfinite(y) & ((x != 0) | (y != 0))
    valid = np.isfinite(a) & np.isfinite(b) & (b.imag > 0) & (cusp | finite)
    if not valid.all():
        k = int(valid.argmin())
        EndParameter(a[k], b[k])
        FillingCoordinate.finite(float(x[k]), float(y[k]))
    x, y = canonical_sign_pair(np.where(cusp, 0.0, x), np.where(cusp, 0.0, y))
    return cusp, x, y


def _best_convergent(r_abs: float, max_den: int):
    """Best-scoring continued-fraction convergent num/den of r_abs in [0, 1].

    The score |r - num/den| * den^2 is scale-free in the denominator: rational
    values produced by floating-point arithmetic score near machine epsilon
    (reliably so for denominators up to ~10^3), while the best convergents of
    an irrational keep it at order one.
    """
    best_score, best = math.inf, None
    h_prev, h_cur = 0, 1  # numerator recurrence seeds h_-2, h_-1
    k_prev, k_cur = 1, 0  # denominator recurrence seeds k_-2, k_-1
    rem = r_abs
    for _ in range(64):
        a_i = math.floor(rem)
        h_prev, h_cur = h_cur, int(a_i) * h_cur + h_prev
        k_prev, k_cur = k_cur, int(a_i) * k_cur + k_prev
        if k_cur > max_den:
            break
        score = abs(r_abs - h_cur / k_cur) * k_cur * k_cur
        if score < best_score:
            best_score, best = score, (h_cur, k_cur)
        frac = rem - a_i
        if frac == 0.0:
            break
        rem = 1.0 / frac
        if rem == math.inf:  # a subnormal frac: no finite partial quotient follows
            break
    return best, best_score


def _rational_direction(x: float, y: float, tol: float, max_den: int):
    """Detect (x, y) ~ g (p, q) with coprime integers and g > 0.

    The continued fraction runs on the ratio of the smaller to the larger
    component, so its argument lies in [-1, 1].  Scores <= tol are accepted
    as rational, scores > 100 tol are conclusively irrational at this
    denominator cap, and the band between is reported as undetermined.

    Returns (p, q, g), "irrational", or "undetermined".
    """
    swap = abs(y) > abs(x)
    r = x / y if swap else y / x
    best, score = _best_convergent(abs(r), max_den)
    if best is None or score > 100.0 * tol:
        return "irrational"
    if score > tol:
        return "undetermined"
    num, den = best
    if r < 0:
        num = -num
    p_i, q_i = (num, den) if swap else (den, num)
    # align the integer class with (x, y) and extract the positive scale
    if p_i * x + q_i * y < 0:
        p_i, q_i = -p_i, -q_i
    g = (x * p_i + y * q_i) / (p_i * p_i + q_i * q_i)
    return p_i, q_i, g


def classify_completion(
    s: EndParameter,
    rational_tolerance: float = RATIONAL_TOL,
    max_denominator: int = MAX_DENOMINATOR,
) -> CompletionClass:
    """Completion of the end from its filling coordinates.

    Cusp at infinity; otherwise a rational direction (x, y) ~ g (p, q) gives
    a solid torus with meridian (p, q) and cone angle theta = |Im L(p,q)|
    (equivalently 2*pi/g), smooth exactly when theta = 2*pi; an irrational
    direction is completed by a single point.
    """
    positive_finite("rational_tolerance", rational_tolerance)
    if max_denominator < 1:
        raise ValueError("max denominator must be >= 1")
    coords = filling_coordinates(s)
    if coords.infinite:
        return CompletionClass("cusp")
    got = _rational_direction(coords.x, coords.y, rational_tolerance, max_denominator)
    if got == "irrational":
        return CompletionClass("irrational")
    if got == "undetermined":
        return CompletionClass("undetermined")
    p, q, g = got
    p, q = (int(v) for v in canonical_sign_pair(p, q))
    ell = s.a * (p + s.b * q)
    if abs(ell.real) > rational_tolerance * max(1.0, abs(ell)):
        return CompletionClass("undetermined")
    theta = abs(ell.imag)
    if abs(g - 1.0) <= rational_tolerance:
        return CompletionClass("smooth", p=p, q=q, angle=theta)
    return CompletionClass("cone", p=p, q=q, angle=theta)


def cross_section_length(s: EndParameter, x: float, y: float, eps: float) -> float:
    """Length of the (x, y)-curve on the tube torus at radius eps around the axis.

    With l = a(x + by): sqrt(Re(l)^2 cosh(eps)^2 + Im(l)^2 sinh(eps)^2);
    the translation part stretches by cosh(eps), the rotation by sinh(eps).
    """
    if s.a == 0:
        raise ZeroA("no axis at the cusp parameter a = 0")
    if not eps > 0:
        raise ValueError("tube radius must be positive")
    ell = s.a * (x + s.b * y)
    return math.hypot(ell.real * math.cosh(eps), ell.imag * math.sinh(eps))


def holonomy_representation(s: EndParameter):
    """Generator images (rho(g1), rho(g2)) of the Z^2 marking."""
    return holonomy(s, 1, 0), holonomy(s, 0, 1)


_RECHECK_SLACK = 1e-12  # about 4500 ulps of a ratio


def estimate_bilipschitz(
    s1: EndParameter,
    s2: EndParameter,
    region: EndRegion,
    samples: int,
    seed: int = 0,
    chart: str = DEFAULT_CHART,
) -> float:
    """Sampled biLipschitz estimate between the two developed charts on a region.

    Draws `samples` points, develops consecutive pairs under both parameters
    and returns the worst ratio of hyperbolic distances, symmetrized to >= 1.
    Deterministic for a fixed seed.  The points are drawn and developed in
    blocks of ARRAY_BLOCK, each block starting from the last point of the
    one before; the draws are the same as one draw of all samples.  Only
    the ratios within _RECHECK_SLACK of the extremes under np.arccosh are
    recomputed with math.acosh: the two differ by at most 2 ulps, which
    moves a ratio by a few ulps, so the exact extremes are among them and
    the result is that of math.acosh on every pair.  Raises OverflowError
    when a parameter's developed samples leave the float range.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    sides = (region.x1 - region.x0, region.y1 - region.y0, region.t1 - region.t0)
    if 0.0 in sides:
        raise DegenerateRegion("sampling region has zero volume")
    import numpy as np

    rng = np.random.default_rng(seed)
    lo = np.array([region.x0, region.y0, region.t0])
    span = np.array(sides)
    worst = 1.0
    pts = np.empty((0, 3))
    for start in range(0, samples, ARRAY_BLOCK):
        fresh = lo + rng.uniform(size=(min(ARRAY_BLOCK, samples - start), 3)) * span
        pts = np.concatenate((pts[-1:], fresh))
        cosh = []
        for s in (s1, s2):
            with np.errstate(all="ignore"):
                z, h = _chart(s, *pts.T, chart)
                cosh.append(np.maximum(_cosh_distance(modulus(z[:-1] - z[1:]), h[:-1], h[1:]), 1.0))
            if not np.isfinite(cosh[-1]).all():
                raise OverflowError(f"the developed samples of a = {s.a}, b = {s.b} leave the float range")
        keep = (cosh[0] > 1.0) & (cosh[1] > 1.0)  # exactly the pairs at positive distance under both
        if keep.any():
            c1, c2 = cosh[0][keep], cosh[1][keep]
            r = np.arccosh(c2) / np.arccosh(c1)
            near = (r >= r.max() * (1.0 - _RECHECK_SLACK)) | (r <= r.min() * (1.0 + _RECHECK_SLACK))
            d1, d2 = (np.array(list(map(math.acosh, c[near].tolist()))) for c in (c1, c2))
            q = d2 / d1
            worst = max(worst, float(q.max()), float((1.0 / q).max()))
    return worst


def equivariance_residual(
    s: EndParameter,
    generator: int,
    x: float,
    y: float,
    t: float,
    chart: str = DEFAULT_CHART,
) -> float:
    """Euclidean residual |D(g p) - rho(g) D(p)| for a deck generator (1 or 2).

    develop, holonomy and apply_h3 composed on (z, t) pairs, with H3Point's check in their order.
    """
    if generator == 1:
        xs, ys = x + 1.0, y
    elif generator == 2:
        xs, ys = x, y + 1.0
    else:
        raise ValueError("generator index must be 1 or 2")
    zs, ts = _h3_checked(*_developed(s, xs, ys, t, chart))
    rho = s._rho1 if generator == 1 else s._rho2
    zm, tm = _h3_checked(*_poincare(rho, *_h3_checked(*_developed(s, x, y, t, chart))))
    return math.hypot(abs(zs - zm), ts - tm)
