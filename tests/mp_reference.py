"""High-precision mpmath references for the core formulas, written from their definitions.

Each function takes the same float inputs as the code it checks, converts
them exactly, and computes in mpmath at the working precision; the module
uses nothing of dehnscope, so a test that compares against it is an
independent check.
"""

import mpmath

#: digits for the references that set their own precision
DPS = 60


def mp_develop(s, x, y, t, chart):
    """The chart of develop in mpmath at the working precision, off the pole locus."""
    a, b, t = mpmath.mpc(s.a), mpmath.mpc(s.b), mpmath.mpf(t)
    if a == 0:
        return x + b * y, t
    z0 = 1 / (1 - mpmath.exp(a))
    ph = -z0 * mpmath.exp(x * a + y * a * b)
    if chart == "printed":
        den = mpmath.sqrt(t * t + abs(ph) ** 2)
        return z0 + ph * abs(ph) / den, t * abs(ph) / den
    den = mpmath.sqrt(1 + t * t)
    return z0 + ph / den, t * abs(ph) / den


def mp_holonomy(a, b, m, n):
    """rho(g1^m g2^n) in the printed frame at DPS digits, as its entries (a11, a12, a21, a22).

    z -> e^c z + (1 - e^c)/(1 - e^a) with c = a(m + bn), normalized to
    determinant 1 as [[e^{c/2}, tau e^{-c/2}], [0, e^{-c/2}]]; z -> z + m + nb
    at a = 0.  Off the pole locus e^a = 1 only.  tau is formed as
    expm1(c)/expm1(a), so it keeps DPS digits for |a| far below 10^-DPS too.
    """
    with mpmath.workdps(DPS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        if a == 0:
            return mpmath.mpc(1), m + n * b, mpmath.mpc(0), mpmath.mpc(1)
        c = a * (m + b * n)
        tau = mpmath.expm1(c) / mpmath.expm1(a)
        p = mpmath.exp(c / 2)
        return p, tau / p, mpmath.mpc(0), 1 / p


def mp_apply_h3(entries, z, t):
    """The Poincare extension of the matrix with entries (a11, a12, a21, a22) at (z, t), at DPS digits.

    z' = ((a11 z + a12) conj(a21 z + a22) + a11 conj(a21) t^2) / D and t' = t / D,
    with D = |a21 z + a22|^2 + |a21|^2 t^2, as written for determinant 1; the
    entries are taken as they are, so a rounded determinant is not corrected.
    """
    with mpmath.workdps(DPS):
        a11, a12, a21, a22 = map(mpmath.mpc, entries)
        z, t = mpmath.mpc(z), mpmath.mpf(t)
        w = a21 * z + a22
        den = abs(w) ** 2 + abs(a21) ** 2 * t**2
        return ((a11 * z + a12) * mpmath.conj(w) + a11 * mpmath.conj(a21) * t**2) / den, t / den


def mp_complex_length(entries):
    """Complex translation length of the PSL(2,C) element with entries (a11, a12, a21, a22), at DPS digits.

    The matrix is divided by a square root of its determinant, which puts it in
    SL(2,C) with eigenvalues lambda and 1/lambda; l = 2 log lambda for the
    eigenvalue of larger modulus, with Im l moved into (-pi, pi] by a multiple of
    2 pi i (the other root of the determinant negates lambda, which moves l by
    2 pi i).  For elements that are neither parabolic nor the identity.
    """
    with mpmath.workdps(DPS):
        a, b, c, d = map(mpmath.mpc, entries)
        root = mpmath.sqrt(a * d - b * c)
        lam = max(mpmath.eig(mpmath.matrix([[a, b], [c, d]]) / root, left=False, right=False), key=abs)
        ell = 2 * mpmath.log(lam)
        k = mpmath.floor((mpmath.pi - ell.imag) / (2 * mpmath.pi))
        return mpmath.mpc(ell.real, ell.imag + 2 * mpmath.pi * k)


def mp_hyp_distance(p, q):
    """Hyperbolic distance between two (z, t) points of upper half-space at DPS digits.

    d = 2 asinh(|p - q| / (2 sqrt(t_p t_q))), with |p - q| the Euclidean
    distance in C x R; this is cosh d = 1 + |p - q|^2 / (2 t_p t_q), written
    without the cancellation of cosh d - 1 near d = 0.
    """
    with mpmath.workdps(DPS):
        (zp, tp), (zq, tq) = ((mpmath.mpc(z), mpmath.mpf(t)) for z, t in (p, q))
        chord = mpmath.sqrt(abs(zp - zq) ** 2 + (tp - tq) ** 2)
        return 2 * mpmath.asinh(chord / (2 * mpmath.sqrt(tp * tq)))


def mp_frobenius_norm(entries):
    """Frobenius norm sqrt(sum |e|^2) of complex entries at DPS digits; no square leaves mpmath's exponent range."""
    with mpmath.workdps(DPS):
        return mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(e)) ** 2 for e in entries))


def mp_frobenius_gaps(a, b):
    """(|A - B|, |A + B|) at DPS digits for two 2x2 matrices given as their four entries."""
    with mpmath.workdps(DPS):
        pairs = [(mpmath.mpc(x), mpmath.mpc(y)) for x, y in zip(a, b)]
        return mp_frobenius_norm([x - y for x, y in pairs]), mp_frobenius_norm([x + y for x, y in pairs])


def mp_khat(developed):
    """The biLipschitz estimate of two developed sample sequences, at the working precision.

    developed holds one list of (z, t) points per parameter, in sample order.
    Each consecutive pair at positive distance under both gives the ratio of
    its two hyperbolic distances (mp_hyp_distance); the result is the worst
    ratio or reciprocal, and 1 when there is none.
    """
    d1, d2 = ([mp_hyp_distance(p, q) for p, q in zip(dev[:-1], dev[1:])] for dev in developed)
    ratios = [e2 / e1 for e1, e2 in zip(d1, d2) if e1 > 0 and e2 > 0]
    return max([mpmath.mpf(1)] + ratios + [1 / r for r in ratios])


def mp_cancellation(exact, rounded):
    """First-order bound on the relative error that rounded points carry into their consecutive distances.

    exact and rounded are lists of (z, t) points in sample order.  With
    d = 2 asinh(X), X = |p - q| / (2 sqrt(t_p t_q)), moving p and q by e_p
    and e_q (Euclidean in C x R) moves |p - q| by at most e_p + e_q and each
    sqrt(t) by half the relative change of t, so X moves by at most
    eps = (e_p + e_q) / |p - q| + (|dt_p| / t_p + |dt_q| / t_q) / 2,
    relative, to first order; asinh(X) X' / asinh(X) <= 1, so d does too.
    Returns the largest eps over the pairs of distinct exact points.
    """
    with mpmath.workdps(DPS):
        errors = [
            (mpmath.sqrt(abs(mpmath.mpc(zr) - z) ** 2 + (mpmath.mpf(tr) - t) ** 2), abs(mpmath.mpf(tr) - t) / t)
            for (z, t), (zr, tr) in zip(exact, rounded)
        ]
        worst = mpmath.mpf(0)
        for (p, q), (ep, eq) in zip(zip(exact[:-1], exact[1:]), zip(errors[:-1], errors[1:])):
            chord = mpmath.sqrt(abs(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
            if chord > 0:
                worst = max(worst, (ep[0] + eq[0]) / chord + (ep[1] + eq[1]) / 2)
        return worst


def mp_foot_point(z, t):
    """(base, depth) of the point (z, t) at DPS digits, for Im z >= 0.

    The plane over the real line is the vertical half-plane Im z = 0, met
    orthogonally by the geodesics that are half-circles centred on the real
    axis in the planes Re z = const.  The one through (u + iv, t) has radius
    r = sqrt(v^2 + t^2) and meets the plane at height r over u, which the
    half-plane model U of the plane records as base = u + ir.  The depth is
    the signed distance to the plane, sinh(depth) = v / t.
    """
    with mpmath.workdps(DPS):
        z, t = mpmath.mpc(z), mpmath.mpf(t)
        return mpmath.mpc(z.real, mpmath.sqrt(z.imag**2 + t**2)), mpmath.asinh(z.imag / t)


def mp_framed_point(base, depth):
    """The (z, t) point at signed distance depth from the foot base = u + ir at DPS digits.

    It lies on the half-circle of radius r centred at u in the plane Re z = u,
    at the angle phi from the top with tan(phi) = sinh(depth) (the
    Gudermannian of depth): (u + i r sin(phi), r cos(phi)).
    """
    with mpmath.workdps(DPS):
        base, depth = mpmath.mpc(base), mpmath.mpf(depth)
        phi = mpmath.atan(mpmath.sinh(depth))
        return mpmath.mpc(base.real, base.imag * mpmath.sin(phi)), base.imag * mpmath.cos(phi)


def mp_aligned_holonomy(a, b, m, n):
    """g rho(g1^m g2^n) g^-1 at DPS digits, as an mpmath matrix, for a != 0.

    rho(g1^m g2^n) is z -> e^c z + (e^c - 1)/(e^a - 1) with c = a(m + bn),
    normalized to determinant 1, and the aligner is
    g = diag(sigma^-1/2, sigma^1/2) . [[1, 0], [a/(2 sigma), 1]] with
    sigma = a/(e^a - 1).  The product is formed as written.
    """
    with mpmath.workdps(DPS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        c = a * (m + b * n)
        p = mpmath.exp(c / 2)
        rho = mpmath.matrix([[p, (mpmath.exp(c) - 1) / (mpmath.exp(a) - 1) / p], [0, 1 / p]])
        sigma = a / (mpmath.exp(a) - 1)
        r = mpmath.sqrt(sigma)
        g = mpmath.matrix([[1 / r, 0], [0, r]]) * mpmath.matrix([[1, 0], [a / (2 * sigma), 1]])
        return g * rho * mpmath.inverse(g)


def mp_cusp_distance(a, b, aligned=True):
    """cusp_distance(EndParameter(a, b), aligned) at DPS digits, for a != 0 off the pole locus.

    The worst sign-insensitive Frobenius distance of the aligned generators
    (mp_aligned_holonomy), or with aligned=False of the printed-frame
    generators (mp_holonomy), from the cusp generators z -> z + 1 and z -> z + b.
    """
    with mpmath.workdps(DPS):
        worst = mpmath.mpf(0)
        for (m, n), shift in (((1, 0), 1), ((0, 1), mpmath.mpc(b))):
            if aligned:
                h = mp_aligned_holonomy(a, b, m, n)
            else:
                a11, a12, a21, a22 = mp_holonomy(a, b, m, n)
                h = mpmath.matrix([[a11, a12], [a21, a22]])
            cusp = mpmath.matrix([[1, shift], [0, 1]])
            gap = min(mpmath.mnorm(h - cusp, "f"), mpmath.mnorm(h + cusp, "f"))
            worst = max(worst, gap)
        return worst


def mp_filling_xy(a, b):
    """The real (x, y) with a(x + by) = 2*pi*i at DPS digits, for a != 0 and Im b > 0.

    x + by = w := 2*pi*i/a; the imaginary part gives y = Im w / Im b, and the
    real part x = Re w - Re b * y.
    """
    with mpmath.workdps(DPS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        w = 2j * mpmath.pi / a
        y = w.imag / b.imag
        return w.real - b.real * y, y


def mp_cross_section_length(a, b, x, y, eps):
    """Length of the (x, y)-curve on the tube of radius eps at DPS digits.

    With l = a(x + by): sqrt(Re(l)^2 cosh(eps)^2 + Im(l)^2 sinh(eps)^2).
    """
    with mpmath.workdps(DPS):
        ell = mpmath.mpc(a) * (x + mpmath.mpc(b) * y)
        eps = mpmath.mpf(eps)
        return mpmath.sqrt((ell.real * mpmath.cosh(eps)) ** 2 + (ell.imag * mpmath.sinh(eps)) ** 2)


def mp_adjoint(entries, coords):
    """Ad(m) v = m v m^-1 at DPS digits, as the coordinates (x, y, w) of [[x, y], [w, -x]].

    m = [[a, b], [c, d]] is taken to have determinant 1, so m^-1 = [[d, -b], [-c, a]];
    v = [[x, y], [w, -x]] for coords (x, y, w).
    """
    with mpmath.workdps(DPS):
        a, b, c, d = map(mpmath.mpc, entries)
        x, y, w = map(mpmath.mpc, coords)
        m = mpmath.matrix([[a, b], [c, d]])
        conj = m * mpmath.matrix([[x, y], [w, -x]]) * mpmath.matrix([[d, -b], [-c, a]])
        return conj[0, 0], conj[0, 1], conj[1, 0]



def mp_extend_cocycle(generators, values, word):
    """The cocycle z on a word at DPS digits, as the coordinates (x, y, w) of [[x, y], [w, -x]].

    generators holds the entries (a, b, c, d) of each generator, taken to have
    determinant 1, and values the coordinates of z(g_i).  Left fold of
    z(gh) = z(g) + Ad rho(g) z(h) over the word (letters +-(i+1)), with
    z(g^-1) = -Ad rho(g)^-1 z(g) and rho(g)^-1 = [[d, -b], [-c, a]], by mp_adjoint.
    """
    with mpmath.workdps(DPS):
        prefix = (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1))
        z = (mpmath.mpc(0),) * 3
        for letter in word:
            a, b, c, d = map(mpmath.mpc, generators[abs(letter) - 1])
            step = (a, b, c, d) if letter > 0 else (d, -b, -c, a)
            value = values[abs(letter) - 1]
            if letter < 0:
                value = [-v for v in mp_adjoint(step, value)]
            z = tuple(s + t for s, t in zip(z, mp_adjoint(prefix, value)))
            p11, p12, p21, p22 = prefix
            s11, s12, s21, s22 = step
            prefix = (p11 * s11 + p12 * s21, p11 * s12 + p12 * s22, p21 * s11 + p22 * s21, p21 * s12 + p22 * s22)
        return z

def mp_jets(spec, z):
    """(f(z), f'(z), f''(z), f'''(z)) of a catalog map at DPS digits, from its closed form.

    spec is "identity", "square", "log", ("power", c) for the principal
    z^c = exp(c log z), whose k-th derivative is c(c-1)...(c-k+1) z^(c-k), or
    ("mobius", (a, b, c, d)) for (az + b)/(cz + d), whose k-th derivative is
    k! (-c)^(k-1) D / (cz + d)^(k+1) with D = ad - bc of the entries as given.
    """
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        one, zero = mpmath.mpc(1), mpmath.mpc(0)
        if spec == "identity":
            return z, one, zero, zero
        if spec == "square":
            return z * z, 2 * z, 2 * one, zero
        if spec == "log":
            return mpmath.log(z), 1 / z, -1 / z**2, 2 / z**3
        kind, params = spec
        if kind == "power":
            c, log_z = mpmath.mpc(params), mpmath.log(z)
            return tuple(mpmath.fprod(c - j for j in range(k)) * mpmath.exp((c - k) * log_z) for k in range(4))
        a, b, c, d = map(mpmath.mpc, params)
        den, det = c * z + d, a * d - b * c
        return (a * z + b) / den, det / den**2, -2 * c * det / den**3, 6 * c * c * det / den**4


def mp_schwarzian_norm(spec, z):
    """(Im z)^2 |f'''/f' - (3/2)(f''/f')^2| of a catalog map (see mp_jets) at DPS digits."""
    with mpmath.workdps(DPS):
        _, f1, f2, f3 = mp_jets(spec, z)
        return mpmath.mpf(z.imag) ** 2 * abs(f3 / f1 - mpmath.mpf(3) / 2 * (f2 / f1) ** 2)


def mp_osculating_mobius(spec, z):
    """The Mobius map sharing the 2-jet of a catalog map (see mp_jets) at z, at DPS digits.

    It is w -> f(z) + f'(z)(w - z) / (1 - c(w - z)) with c = f''(z) / (2 f'(z)), the
    product of the matrices of w -> w - z, u -> u / (1 - cu), u -> f'(z) u and
    u -> u + f(z), whose determinant is f'(z).  Returned as the entries (a11, a12, a21, a22)
    divided by sqrt(f'(z)), so of determinant 1 and defined up to sign.
    """
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        f0, f1, f2, _ = mp_jets(spec, z)
        c = f2 / (2 * f1)
        m = (
            mpmath.matrix([[1, f0], [0, 1]])
            * mpmath.matrix([[f1, 0], [0, 1]])
            * mpmath.matrix([[1, 0], [-c, 1]])
            * mpmath.matrix([[1, -z], [0, 1]])
        )
        s = mpmath.sqrt(f1)
        return m[0, 0] / s, m[0, 1] / s, m[1, 0] / s, m[1, 1] / s


def mp_theta(spec, z, t):
    """Theta(p) = M(p) for p = (z, t) with Im z >= 0, M osculating a catalog map at the foot of p, at DPS digits.

    The foot is base = Re z + i sqrt((Im z)^2 + t^2) (see mp_foot_point), and M acts on
    upper half-space by its Poincare extension, written as the quaternion map
    q -> (a q + b)(c q + d)^-1 on q = z + tj (Beardon, The Geometry of Discrete Groups,
    4.1), with (alpha + beta j)(gamma + delta j) = (alpha gamma - beta conj(delta))
    + (alpha delta + beta conj(gamma)) j.  Returned as (z', t').
    """

    def mul(p, q):
        (alpha, beta), (gamma, delta) = p, q
        return alpha * gamma - beta * mpmath.conj(delta), alpha * delta + beta * mpmath.conj(gamma)

    def inverse(q):
        alpha, beta = q
        n = abs(alpha) ** 2 + abs(beta) ** 2
        return mpmath.conj(alpha) / n, -beta / n

    with mpmath.workdps(DPS):
        base, _ = mp_foot_point(z, t)
        a, b, c, d = mp_osculating_mobius(spec, base)
        q = mpmath.mpc(z), mpmath.mpc(t)
        num = mul((a, 0), q)
        den = mul((c, 0), q)
        w, h = mul((num[0] + b, num[1]), inverse((den[0] + d, den[1])))
        return w, h.real
