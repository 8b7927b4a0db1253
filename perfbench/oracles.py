"""Independent oracles for the benchmark's output checks.

Each oracle recomputes a quantity from its defining formula with numpy,
without calling into dehnscope, so a wrong answer in the program cannot
reproduce itself in the check.  Where a formula has to be restated (the
developing charts, the holonomy generators), it is taken from the module
docstrings and evaluated over whole arrays instead of point by point.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

TWO_PI_I = 2j * math.pi


def close(got, want, rtol: float, atol: float = 0.0) -> bool:
    """|got - want| <= rtol * max(|got|, |want|) + atol, elementwise, all true."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = np.maximum(np.abs(got), np.abs(want))
    return bool(np.all(np.abs(got - want) <= rtol * scale + atol))


def sl2_distance(m1, m2) -> float:
    """Sign-insensitive Frobenius distance between two SL(2,C) matrices."""
    m1, m2 = np.asarray(m1, dtype=complex), np.asarray(m2, dtype=complex)
    return float(min(np.linalg.norm(m1 - m2), np.linalg.norm(m1 + m2)))


def normalize_sl2(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return m / np.sqrt(np.linalg.det(m))


# --- torus ends --------------------------------------------------------------


def generators(a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
    """SL(2,C) matrices of rho(g1) = e^a z + 1 and rho(g2) = e^{ab} z + (e^{ab}-1)/(e^a-1).

    At the cusp a = 0 they are the translations z + 1 and z + b.
    """
    if a == 0:
        return np.array([[1, 1], [0, 1]], dtype=complex), np.array([[1, b], [0, 1]], dtype=complex)
    ea, eab = np.exp(a), np.exp(a * b)
    g1 = np.array([[ea, 1.0], [0.0, 1.0]], dtype=complex)
    g2 = np.array([[eab, (eab - 1.0) / (ea - 1.0)], [0.0, 1.0]], dtype=complex)
    return normalize_sl2(g1), normalize_sl2(g2)


def holonomy_word(a: complex, b: complex, m: int, n: int) -> np.ndarray:
    """rho(g1)^m rho(g2)^n by the group law, from the generator matrices alone."""
    g1, g2 = generators(a, b)
    return np.linalg.matrix_power(g1, m) @ np.linalg.matrix_power(g2, n)


def fold_angle(x: float) -> float:
    """Distance from x to the nearest multiple of 2*pi: the rotation angle in [0, pi]."""
    r = math.fmod(abs(x), 2.0 * math.pi)
    return min(r, 2.0 * math.pi - r)


def same_complex_length(got: complex, want: complex, rtol: float) -> bool:
    """got = +-want modulo 2*pi*i, within rtol * max(1, |want|)."""
    best = math.inf
    for cand in (got, -got):
        d = cand - want
        k = round(d.imag / (2.0 * math.pi))
        best = min(best, abs(d - 2j * math.pi * k))
    return best <= rtol * max(1.0, abs(want))


def develop(a: complex, b: complex, x, y, t, chart: str):
    """Both developing charts of torus_end.develop, over arrays (returns z, height)."""
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    if a == 0:
        return x + b * y, t
    z0 = 1.0 / (1.0 - np.exp(a))
    ph = -z0 * np.exp(x * a + y * a * b)
    ap = np.abs(ph)
    if chart == "printed":
        den = np.sqrt(t * t + ap * ap)
        return z0 + ph * (ap / den), t * ap / den
    den = np.sqrt(1.0 + t * t)
    return z0 + ph / den, t * ap / den


def hyp_distance(z1, t1, z2, t2):
    """cosh d = 1 + (|z1 - z2|^2 + (t1 - t2)^2) / (2 t1 t2), over arrays."""
    arg = 1.0 + (np.abs(z1 - z2) ** 2 + (t1 - t2) ** 2) / (2.0 * t1 * t2)
    return np.arccosh(np.maximum(arg, 1.0))


def region_samples(region, samples: int, seed: int) -> np.ndarray:
    """The estimator's sample points: uniform in the box, drawn from default_rng(seed)."""
    x0, x1, y0, y1, t0, t1 = region
    pts = np.random.default_rng(seed).uniform(size=(samples, 3))
    pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
    pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
    pts[:, 2] = t0 + pts[:, 2] * (t1 - t0)
    return pts


def bilipschitz(a1, b1, a2, b2, region, samples: int, seed: int, chart: str) -> float:
    """Worst symmetrized ratio of consecutive-sample distances under the two charts."""
    pts = region_samples(region, samples, seed)
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    z1, h1 = develop(a1, b1, x, y, t, chart)
    z2, h2 = develop(a2, b2, x, y, t, chart)
    d1 = hyp_distance(z1[:-1], h1[:-1], z1[1:], h1[1:])
    d2 = hyp_distance(z2[:-1], h2[:-1], z2[1:], h2[1:])
    keep = (d1 > 0.0) & (d2 > 0.0)
    r = d2[keep] / d1[keep]
    return float(max(1.0, np.max(r, initial=1.0), np.max(1.0 / r, initial=1.0)))


def chart_scale(a, b, x, y, t) -> float:
    """Largest Euclidean size of D(p), D(g1 p), D(g2 p) in the corrected chart."""
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    sizes = []
    for dx, dy in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
        z, h = develop(a, b, x + dx, y + dy, t, "corrected")
        sizes.append(np.hypot(np.abs(z), h))
    return float(np.max(sizes))


def tube_length(a: complex, b: complex, x: float, y: float, eps: float, steps: int = 10**5) -> float:
    """Length of the (x, y)-curve on the radius-eps tube by summing geodesic chords along it.

    A chord is short, so its length is taken from sinh(d/2) = |dp| / (2 sqrt(t1 t2)),
    which keeps full precision where 1 + (cosh d - 1) would round (cosh d - 1 ~ 1e-12).
    """
    ell = a * (x + b * y)
    z0 = 1.0 / (1.0 - np.exp(a))
    tau = np.linspace(0.0, 1.0, steps + 1)
    z = z0 + np.exp(tau * ell) * math.sinh(eps)
    t = np.exp(tau * ell.real)
    half = np.sqrt(np.abs(np.diff(z)) ** 2 + np.diff(t) ** 2) / (2.0 * np.sqrt(t[:-1] * t[1:]))
    return float(np.sum(2.0 * np.arcsinh(half)))


def filling_xy(a, b):
    """Filling coordinates (x, y) with a (x + b y) = 2*pi*i, over arrays, canonical sign."""
    w = TWO_PI_I / np.asarray(a, dtype=complex)
    y = w.imag / np.imag(b)
    x = w.real - np.real(b) * y
    flip = (x < 0) | ((x == 0) & (y < 0))
    return np.where(flip, -x, x), np.where(flip, -y, y)


# --- filling solver ----------------------------------------------------------


def path_values(coeffs, w):
    """Ascending-coefficient polynomial at w."""
    return P.polyval(np.asarray(w, dtype=complex), np.asarray(coeffs, dtype=complex))


def newton_residual(a_coeffs, b_coeffs, x: float, y: float, w: complex) -> float:
    """|a(w) (x + b(w) y) - 2*pi*i| recomputed from the path coefficients."""
    aw, bw = path_values(a_coeffs, w), path_values(b_coeffs, w)
    return float(abs(aw * (x + bw * y) - TWO_PI_I))


def disc_samples(center: complex, radius: float, count: int, seed: int) -> np.ndarray:
    """Rejection samples of the disc in the draw order of filling_solver._sample_disc."""
    rng = np.random.default_rng(seed)
    ws = np.zeros(0, dtype=complex)
    while ws.size < count:
        uv = rng.uniform(-1.0, 1.0, size=(2 * count, 2))
        inside = uv[:, 0] ** 2 + uv[:, 1] ** 2 <= 1.0
        ws = np.concatenate([ws, center + radius * (uv[inside, 0] + 1j * uv[inside, 1])])
    return ws[:count]


def continuity(a_coeffs, b_coeffs, center, radius, count: int, seed: int, tol: float = 1e-9):
    """(max_jump, violation pairs) of verify_coordinate_continuity via an all-pairs matrix."""
    ws = disc_samples(center, radius, count, seed)
    x, y = filling_xy(path_values(a_coeffs, ws), path_values(b_coeffs, ws))
    c = x + 1j * y
    jumps = np.minimum(np.abs(c[1:] - c[:-1]), np.abs(c[1:] + c[:-1]))
    coord_d = np.minimum(np.abs(c[:, None] - c[None, :]), np.abs(c[:, None] + c[None, :]))
    mask = (coord_d <= tol) & (np.abs(ws[:, None] - ws[None, :]) > tol)
    i, j = np.nonzero(np.triu(mask, 1))
    return float(np.max(jumps, initial=0.0)), sorted(zip(i.tolist(), j.tolist()))


def cusp_distance(a: complex, b: complex, aligned: bool) -> float:
    """Worst generator distance to the cusp, optionally after the canonical aligner.

    The aligner is diag(sigma^-1/2, sigma^1/2) . [[1, 0], [a/(2 sigma), 1]]
    with sigma = a/(e^a - 1), as documented in filling_solver.cusp_distance.
    """
    if a == 0:
        return 0.0
    mats = generators(a, b)
    cusps = generators(0, b)
    if aligned:
        sigma = a / (np.exp(a) - 1.0)
        g = np.diag([sigma ** -0.5, sigma ** 0.5]) @ np.array([[1.0, 0.0], [a / (2.0 * sigma), 1.0]])
        gi = np.linalg.inv(g)
        mats = tuple(g @ m @ gi for m in mats)
    return max(sl2_distance(m, c) for m, c in zip(mats, cusps))


# --- Schwarzian end ----------------------------------------------------------


def schwarzian(kind: str, param, z):
    """Closed-form Schwarzian derivative of the benchmark's conformal maps."""
    z = np.asarray(z, dtype=complex)
    if kind in ("identity", "mobius"):
        return np.zeros_like(z)
    if kind == "square":
        return -1.5 / z ** 2
    if kind == "log":
        return 0.5 / z ** 2
    if kind == "power":
        return (1.0 - param ** 2) / (2.0 * z ** 2)
    if kind == "cube":
        return -4.0 / z ** 2
    raise ValueError(f"no closed form for {kind!r}")


def grid_points(re0, re1, nre, im0, im1, nim) -> np.ndarray:
    """GridSpec.points in order: real part outer, imaginary part inner."""
    u, v = np.meshgrid(np.linspace(re0, re1, nre), np.linspace(im0, im1, nim), indexing="ij")
    return (u + 1j * v).ravel()


def injectivity_depth(kind: str, param, grid) -> float:
    z = grid_points(*grid)
    sup = float(np.max(z.imag ** 2 * np.abs(schwarzian(kind, param, z))))
    return math.acosh(max(1.0, sup))


def poincare_extension(m, z, t):
    """Action of [[a, b], [c, d]] on p = z + t j in quaternion arithmetic: (a p + b)(c p + d)^-1.

    Quaternions are pairs (w1, w2) = w1 + w2 j with j w = conj(w) j.
    """
    (a, b), (c, d) = np.asarray(m, dtype=complex)
    z, t = np.asarray(z, dtype=complex), np.asarray(t, dtype=float)
    n1, n2 = a * z + b, a * t
    d1, d2 = c * z + d, c * t
    den = np.abs(d1) ** 2 + np.abs(d2) ** 2
    # (n1 + n2 j)(conj(d1) - d2 j) / |d|^2
    w1 = (n1 * np.conj(d1) + n2 * np.conj(d2)) / den
    w2 = (n2 * d1 - n1 * d2) / den
    return w1, w2.real


def framed_point(base: complex, depth: float) -> tuple[complex, float]:
    """Point at signed depth on the geodesic orthogonal to the plane over R with foot base."""
    u, r = base.real, base.imag
    return complex(u, r * math.tanh(depth)), r / math.cosh(depth)


def predicted_triple(norm: float, depth: float) -> tuple[float, float, float]:
    """Classical singular values {1 + k, 1, |1 - k|} with k = norm / cosh(depth)."""
    k = norm / math.cosh(depth)
    return tuple(sorted((1.0 + k, 1.0, abs(1.0 - k)), reverse=True))


# --- recorded values ---------------------------------------------------------


def diff_recorded(got, want, rtol: float, path: str = "$") -> str | None:
    """First difference between two decoded outputs: numbers within rtol, the rest exactly."""
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number"
        if isinstance(want, int) and not isinstance(got, int):
            return f"{path}: {got!r} is not an integer"
        return None if close(got, want, rtol, 1e-12) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length or type differs"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = diff_recorded(g, w, rtol, f"{path}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in want:
            msg = diff_recorded(got[k], want[k], rtol, f"{path}.{k}")
            if msg:
                return msg
        return None
    raise TypeError(f"unsupported recorded value at {path}: {want!r}")
