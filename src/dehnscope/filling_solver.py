"""Inversion of the filling-coordinate map.

Closed-form solutions in the model family, complex Newton iteration over
polynomial paths in parameter space, filling-sequence generation, and a
sampled continuity/injectivity diagnostic for the coordinate map.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .config import ARRAY_BLOCK, NEWTON_MAX_ITER, NEWTON_TOL, positive_finite
from .torus_end import EndParameter, _aligned_holonomy, _filling_arrays, _quotient_distance
from .torus_end import holonomy, holonomy_representation

TWO_PI_I = 2j * math.pi


class ZeroTarget(ValueError):
    """Raised when the target coordinates (0, 0) are requested."""


class DomainExit(RuntimeError):
    """Raised when a Newton iterate leaves the declared domain disc."""


def _horner(coeffs, w):
    """The polynomial with ascending coefficients at w, a number or an array."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def _derivative_coeffs(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0) or (0j,)


@dataclass(frozen=True)
class HolomorphicPath:
    """Polynomial maps w -> a(w), w -> b(w) on a disc, coefficients ascending.

    Im b(w) > 0 is required on the declared disc; it is spot-checked on a
    polar sample grid at construction.
    """

    a_coeffs: tuple
    b_coeffs: tuple
    center: complex
    radius: float

    def __post_init__(self):
        if len(self.a_coeffs) == 0 or len(self.b_coeffs) == 0:
            raise ValueError("coefficient lists must be nonempty")
        object.__setattr__(self, "a_coeffs", tuple(complex(c) for c in self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(complex(c) for c in self.b_coeffs))
        object.__setattr__(self, "center", complex(self.center))
        for name, values in (("a_coeffs", self.a_coeffs), ("b_coeffs", self.b_coeffs), ("center", (self.center,))):
            if not all(map(cmath.isfinite, values)):
                raise ValueError(f"path {name} must be finite, got {values}")
        positive_finite("domain radius", self.radius)
        for w in self._grid():
            bw = self.b(w)
            if not bw.imag > 0:
                raise ValueError(f"Im b(w) must stay positive on the disc; b({w}) = {bw}")

    def _grid(self):
        """The centre, then 8 equally spaced points on each circle of radius radius * i / 4, i = 1..4."""
        pts = [self.center]
        for i in range(1, 5):
            r = self.radius * i / 4
            for k in range(8):
                pts.append(self.center + r * cmath.exp(2j * math.pi * k / 8))
        return pts

    def contains(self, w: complex) -> bool:
        return abs(w - self.center) <= self.radius

    def a(self, w: complex) -> complex:
        return _horner(self.a_coeffs, w)

    def b(self, w: complex) -> complex:
        return _horner(self.b_coeffs, w)

    def da(self, w: complex) -> complex:
        return _horner(_derivative_coeffs(self.a_coeffs), w)

    def db(self, w: complex) -> complex:
        return _horner(_derivative_coeffs(self.b_coeffs), w)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a Newton solve; converged implies residual <= the tolerance used."""

    w: complex
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ContinuityReport:
    """Sampled continuity/injectivity diagnostics along a path; evidence, not proof."""

    max_jump: float
    injectivity_violations: tuple
    sample_count: int


def solve_direct(b: complex, x: float, y: float) -> EndParameter:
    """Closed-form parameter with filling coordinates +-(x, y): a = 2*pi*i/(x + by)."""
    if x == 0.0 and y == 0.0:
        raise ZeroTarget("coordinates (0, 0) are excluded")
    b = complex(b)
    return EndParameter(TWO_PI_I / (x + b * y), b)


def solve_on_path(
    path: HolomorphicPath,
    x: float,
    y: float,
    w0: complex,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> SolveReport:
    """Newton iteration on F(w) = a(w) (x + b(w) y) - 2*pi*i with analytic derivative.

    Non-convergence is reported, not raised; leaving the declared disc raises
    DomainExit.
    """
    if x == 0.0 and y == 0.0:
        raise ZeroTarget("coordinates (0, 0) are excluded")
    positive_finite("tol", tol)
    if not path.contains(w0):
        raise DomainExit(f"starting point {w0} lies outside the declared disc")
    w = complex(w0)

    def f_and_df(w):
        aw, bw = path.a(w), path.b(w)
        fw = aw * (x + bw * y) - TWO_PI_I
        dfw = path.da(w) * (x + bw * y) + aw * path.db(w) * y
        return fw, dfw

    fw, dfw = f_and_df(w)
    for it in range(1, max_iter + 1):
        if abs(fw) <= tol:
            return SolveReport(w, abs(fw), it - 1, True)
        if dfw == 0:
            return SolveReport(w, abs(fw), it - 1, False)
        w = w - fw / dfw
        if not path.contains(w):
            raise DomainExit(f"iterate {w} left the declared disc at step {it}")
        fw, dfw = f_and_df(w)
    return SolveReport(w, abs(fw), max_iter, abs(fw) <= tol)


def unimodular_completion(p: int, q: int) -> tuple:
    """Rows ((p, -t), (q, r)) of an integer matrix with determinant 1 whose first column is (p, q)."""
    p, q = operator.index(p), operator.index(q)
    if math.gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) is not a primitive class")
    g, r, t = _xgcd(p, q)
    # p*r + q*t = 1, so [[p, -t], [q, r]] has determinant p*r + q*t = 1
    return (p, -t), (q, r)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def filling_sequence(b: complex, p: int, q: int, n_list) -> list[EndParameter]:
    """Parameters filling the (1, n)-classes in the basis where (p, q) is the meridian.

    The basis is unimodular_completion(p, q), whose first column is (p, q).
    Each returned parameter is solve_direct at the coordinates basis . (1, n).
    p, q and n are read with operator.index, so the arithmetic is exact in
    Python integers and a float raises TypeError.
    """
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    (b11, b12), (b21, b22) = unimodular_completion(p, q)
    out = []
    for n in map(operator.index, n_list):
        out.append(solve_direct(b, float(b11 + b12 * n), float(b21 + b22 * n)))
    return out


def _sample_disc(center: complex, radius: float, count: int, rng):
    """count points of the disc, as a complex array, by rejection from pairs (u, v) uniform in [-1, 1)^2.

    Each block draws one pair per point still needed (at most ARRAY_BLOCK), so
    the samples are those of a pair-by-pair loop on the same generator, and
    each is center + radius * complex(u, v) to the bit.
    """
    import numpy as np

    blocks, need = [], count
    while need > 0:
        u, v = rng.uniform(-1.0, 1.0, size=(min(need, ARRAY_BLOCK), 2)).T
        inside = u * u + v * v <= 1.0
        w = np.empty(np.count_nonzero(inside), dtype=complex)
        w.real = center.real + radius * u[inside]
        w.imag = center.imag + radius * v[inside]
        blocks.append(w)
        need -= w.size
    return np.concatenate(blocks)


def verify_coordinate_continuity(
    path: HolomorphicPath,
    sample_count: int,
    seed: int = 0,
    coincidence_tol: float = 1e-9,
) -> ContinuityReport:
    """Sample coordinates along the path; report the worst jump and coincidences.

    max_jump is the largest coordinate displacement between consecutive
    samples; injectivity_violations lists, in lexicographic order, the index
    pairs (i, j), i < j, of distinct w (|w_i - w_j| > coincidence_tol) whose
    coordinates lie within coincidence_tol.  The samples, path values,
    coordinates and jumps are numpy arrays, built in one pass; a sample
    outside the domain of EndParameter or FillingCoordinate raises their
    ValueError.  The pairs come from a sort-and-sweep on x (_coincident_pairs),
    so the scan costs O(n log n + candidates) for n samples, where a candidate
    is a pair of samples within 2 coincidence_tol in x.  Sampling evidence only.
    """
    sample_count = operator.index(sample_count)
    if sample_count < 2:
        raise ValueError("need at least two samples")
    positive_finite("coincidence_tol", coincidence_tol, allow_zero=True)
    import numpy as np

    ws = _sample_disc(path.center, path.radius, sample_count, np.random.default_rng(seed))
    # overflow is expected: non-finite coordinates raise in _filling_arrays, and a sum past the
    # float range is an infinite jump, as in Python arithmetic
    with np.errstate(all="ignore"):
        cusp, x, y = _filling_arrays(_horner(path.a_coeffs, ws), _horner(path.b_coeffs, ws))
        jumps = _quotient_distance(cusp[:-1], x[:-1], y[:-1], cusp[1:], x[1:], y[1:])
    violations = _coincident_pairs(ws, cusp, x, y, coincidence_tol)
    return ContinuityReport(float(jumps.max()), tuple(violations), sample_count)


def _coincident_pairs(ws, cusp, x, y, tol: float) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, with |ws[i] - ws[j]| > tol and coordinates within tol, sorted.

    ws, cusp, x and y are arrays of the samples, their cusp flags and their
    finite coordinates with the canonical sign (read where cusp is false).
    A sort-and-sweep on x: the finite samples are sorted by x once, and one
    searchsorted call finds, for the sample at each sorted position, the
    later positions in its window [x, x + 2 tol].  A pair that passes the
    float test below is within 2 tol in exact x, and rounding is monotone,
    so the lower member of such a pair finds the other.  That holds for a
    pair that matches through the identification of (x, y) with (-x, -y) as
    well: x >= 0, so a float sum x_i + x_j within tol puts both x in
    [0, 2 tol].  The cusp samples share one bucket: they are at distance 0
    from each other.  Each candidate pair gets the exact tests of
    FillingCoordinate.distance, in Python floats.
    """
    import numpy as np

    fin = np.flatnonzero(~cusp)
    owners = fin[np.argsort(x[fin])]
    keys = x[owners]
    with np.errstate(over="ignore"):  # a window edge past the float range is +inf
        hi = np.searchsorted(keys, keys + 2.0 * tol, "right")
    counts = hi - np.arange(1, keys.size + 1)  # the window of sorted position p starts at p + 1
    near = owners[np.repeat(hi - np.cumsum(counts), counts) + np.arange(counts.sum())]
    first, second = np.sort([np.repeat(owners, counts), near], axis=0)
    cusps = np.flatnonzero(cusp)
    upper = np.triu_indices(cusps.size, 1)
    first, second = np.concatenate([first, cusps[upper[0]]]), np.concatenate([second, cusps[upper[1]]])
    left = zip(*(arr[first].tolist() for arr in (ws, cusp, x, y)))
    right = zip(*(arr[second].tolist() for arr in (ws, cusp, x, y)))
    return sorted(
        (i, j)
        for i, j, (w1, c1, x1, y1), (w2, c2, x2, y2) in zip(first.tolist(), second.tolist(), left, right)
        if abs(w1 - w2) > tol and _quotient_distance(c1, x1, y1, c2, x2, y2) <= tol
    )


def cusp_distance(s: EndParameter, aligned: bool = True) -> float:
    """Worst generator-holonomy distance from s to the cusp (0, b).

    With aligned=True the holonomies are first conjugated by the canonical
    aligner g = diag(sigma^-1/2, sigma^1/2) . [[1, 0], [a/(2 sigma), 1]],
    sigma = a/(e^a - 1), which pushes the degenerating axis fixed point z0
    off to infinity; this measures distance between conjugacy classes, the
    sense in which filled holonomies approach the cusp.  The conjugates are
    taken from their closed form (torus_end._aligned_holonomy), which has no
    pole at e^a = 1 and is the cusp holonomy at a = 0.  With aligned=False the
    raw normalized matrices are compared (their distance decays like |a|/2
    instead of |a|^2/4).
    """
    cusp_gens = holonomy_representation(EndParameter(0.0, s.b))
    gens = _aligned_holonomy if aligned else holonomy
    return max(gens(s, m, n).distance(c) for (m, n), c in zip(((1, 0), (0, 1)), cusp_gens))
