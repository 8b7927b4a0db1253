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
    at a = 0.  Off the pole locus e^a = 1 only.
    """
    with mpmath.workdps(DPS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        if a == 0:
            return mpmath.mpc(1), m + n * b, mpmath.mpc(0), mpmath.mpc(1)
        c = a * (m + b * n)
        tau = (1 - mpmath.exp(c)) / (1 - mpmath.exp(a))
        p = mpmath.exp(c / 2)
        return p, tau / p, mpmath.mpc(0), 1 / p


def mp_distance(p, q):
    """hyp_distance in mpmath between two (z, t) points."""
    (zp, tp), (zq, tq) = p, q
    return mpmath.acosh(1 + (abs(zp - zq) ** 2 + (tp - tq) ** 2) / (2 * tp * tq))


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


def mp_cusp_distance(a, b):
    """cusp_distance(EndParameter(a, b), aligned=True) at DPS digits, for a != 0.

    The worst sign-insensitive Frobenius distance of the aligned generators
    from the cusp generators z -> z + 1 and z -> z + b.
    """
    with mpmath.workdps(DPS):
        worst = mpmath.mpf(0)
        for (m, n), shift in (((1, 0), 1), ((0, 1), mpmath.mpc(b))):
            h = mp_aligned_holonomy(a, b, m, n)
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
