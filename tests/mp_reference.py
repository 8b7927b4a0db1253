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
