"""Tests for the PSL(2,C) core: boundary/H^3 actions, classification, lengths."""

import cmath
import math
import struct

import numpy as np
import pytest
import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dehnscope.config import CLASSIFY_TOL
from dehnscope.hypcore import (
    H3Point,
    IsomClass,
    MobiusTransform,
    ParabolicInput,
    SL2Vector,
    adjoint,
    adjoint_matrix,
    adjoint_rows,
    apply_h3,
    classify,
    complex_translation_length,
    hyp_distance,
    length_distance,
    right_translate,
)
from dehnscope.schwarzian_end import MobiusMap
from dehnscope.torus_end import EndParameter, holonomy
from mp_reference import mp_adjoint, mp_complex_length, mp_hyp_distance


def random_mobius(rng) -> MobiusTransform:
    while True:
        entries = rng.normal(size=4) + 1j * rng.normal(size=4)
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) > 0.1:
            return MobiusTransform.from_entries(*entries)


def random_point(rng) -> H3Point:
    return H3Point(complex(rng.normal(), rng.normal()), math.exp(rng.normal()))


def as_array(m: MobiusTransform) -> np.ndarray:
    return np.array([[m.a11, m.a12], [m.a21, m.a22]], dtype=complex)


def sl2_array(v: SL2Vector) -> np.ndarray:
    return np.array([[v.x, v.y], [v.w, -v.x]], dtype=complex)


_part = st.floats(-3.0, 3.0, allow_subnormal=False)
_entry = st.builds(complex, _part, _part)
mobius = (
    st.tuples(_entry, _entry, _entry, _entry)
    .filter(lambda e: abs(e[0] * e[3] - e[1] * e[2]) > 0.1)
    .map(lambda e: MobiusTransform.from_entries(*e))
)
sl2_vectors = st.tuples(_entry, _entry, _entry).map(SL2Vector.from_coords)


def _translation(ell: complex, c: complex = 0j) -> MobiusTransform:
    """[[e^(l/2), c], [0, e^(-l/2)]], whose complex length is l."""
    return MobiusTransform(cmath.exp(ell / 2), c, 0j, cmath.exp(-ell / 2))


_angle = st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True)
#: conjugated rotations by angles in (0, 2 pi)
rotations = st.builds(lambda theta, g: g @ _translation(complex(0.0, theta)) @ g.inverse(), _angle, mobius)
_lengths_near_zero = st.builds(
    lambda r, phi: 10.0**r * cmath.exp(1j * phi), st.floats(-8.0, -2.0), st.floats(-math.pi, math.pi)
)
#: random elements, holonomy words, conjugated near-parabolic elements (either sign),
#: conjugated near-elliptic ones with Re l down to 1e-14, and triangular ones with Re l up to 1400
lengths = st.one_of(
    mobius,
    st.builds(
        lambda a, b, m, n: holonomy(EndParameter(a, b), m, n),
        st.builds(complex, st.floats(-3.0, 3.0), st.floats(-7.0, 7.0)),
        st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
        st.integers(-4, 4),
        st.integers(-4, 4),
    ),
    st.builds(
        lambda ell, g, sign: MobiusTransform(*(sign * e for e in (g @ _translation(ell) @ g.inverse()).entries())),
        _lengths_near_zero,
        mobius,
        st.sampled_from([1.0, -1.0]),
    ),
    st.builds(
        lambda r, theta, g: g @ _translation(complex(10.0**r, theta)) @ g.inverse(), st.floats(-14.0, -3.0), _angle, mobius
    ),
    st.builds(
        lambda re, im, c: _translation(complex(re, im), c),
        st.floats(1e-3, 1400.0),
        st.floats(-math.pi, math.pi),
        _entry,
    ),
)

#: the 16 real parts of two raw matrices, with up to two of them replaced by a signed zero or a non-finite value
_raw_parts = st.builds(
    lambda parts, specials: [dict(specials).get(i, x) for i, x in enumerate(parts)],
    st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
    st.lists(st.tuples(st.integers(0, 15), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])), max_size=2),
)


class TestApplyBoundary:
    """The boundary action z -> (a11 z + a12)/(a21 z + a22), which schwarzian_end.MobiusMap evaluates."""

    def test_identity(self):
        assert MobiusMap(MobiusTransform.identity()).value(3 + 4j) == 3 + 4j

    def test_full_turn_rotation_translation(self):
        # z -> e^a z + 1 with a = 2*pi*i sends 0 to 1
        m = MobiusTransform.from_entries(cmath.exp(2j * math.pi), 1.0, 0.0, 1.0)
        assert abs(MobiusMap(m).value(0j) - 1.0) < 1e-12


class TestApplyH3:
    def test_identity(self):
        p = apply_h3(MobiusTransform.identity(), H3Point(1j, 1.0))
        assert p.z == 1j and p.t == 1.0

    def test_vertical_scaling(self):
        m = MobiusTransform.from_entries(math.e, 0.0, 0.0, 1.0)  # z -> e z
        p = apply_h3(m, H3Point(0.0, 1.0))
        assert abs(p.z) < 1e-12
        assert abs(p.t - math.e) < 1e-12

    def test_horizontal_translation_preserves_height(self):
        p = apply_h3(MobiusTransform(1.0, 1.0, 0.0, 1.0), H3Point(0.0, 2.0))
        assert abs(p.z - 1.0) < 1e-15 and p.t == 2.0

    def test_isometry_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_mobius(rng)
            p, q = random_point(rng), random_point(rng)
            d0 = hyp_distance(p, q)
            d1 = hyp_distance(apply_h3(m, p), apply_h3(m, q))
            assert abs(d1 - d0) <= 1e-9

    def test_boundary_limit_matches_boundary_action(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_mobius(rng)
            z = complex(rng.normal(), rng.normal())
            if abs(m.a21 * z + m.a22) < 0.3:
                continue
            w = (m.a11 * z + m.a12) / (m.a21 * z + m.a22)
            p = apply_h3(m, H3Point(z, 1e-5))
            assert abs(p.z - w) < 1e-8

    def test_sign_insensitive(self):
        rng = np.random.default_rng(13)
        m = random_mobius(rng)
        neg = MobiusTransform(-m.a11, -m.a12, -m.a21, -m.a22)
        p = random_point(rng)
        assert hyp_distance(apply_h3(m, p), apply_h3(neg, p)) < 1e-14
        z = complex(rng.normal(), rng.normal())
        def boundary(g):
            return (g.a11 * z + g.a12) / (g.a21 * z + g.a22)

        assert abs(boundary(m) - boundary(neg)) < 1e-12

    def test_matches_elementary_decomposition(self):
        # independent oracle: z -> (az+b)/(cz+d) = a/c - (1/c^2)/(z + d/c),
        # built from translations, the sphere inversion (z,t) ->
        # (conj(z), t)/(|z|^2 + t^2) with a complex rescaling, none of which
        # use the closed-form extension under test
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = random_mobius(rng)
            if abs(m.a21) < 0.2:
                continue
            p = random_point(rng)

            z1, t1 = p.z + m.a22 / m.a21, p.t
            norm = abs(z1) ** 2 + t1 * t1
            z2, t2 = z1.conjugate() / norm, t1 / norm
            lam = -1.0 / (m.a21 * m.a21)
            z3, t3 = lam * z2, abs(lam) * t2
            z4, t4 = z3 + m.a11 / m.a21, t3

            q = apply_h3(m, p)
            assert abs(q.z - z4) < 1e-9 * max(1.0, abs(z4))
            assert abs(q.t - t4) < 1e-9 * max(1.0, t4)


class TestClassify:
    def test_parabolic(self):
        assert classify(MobiusTransform(1.0, 1.0, 0.0, 1.0)).kind == "parabolic"

    def test_loxodromic_length_one(self):
        m = MobiusTransform.from_entries(math.exp(0.5), 0.0, 0.0, math.exp(-0.5))
        cls = classify(m)
        assert cls.kind == "loxodromic"
        assert abs(cls.length - 1.0) < 1e-12
        assert abs(m.trace() - 2.0 * math.cosh(0.5)) < 1e-12
        assert abs(abs(m.trace()) - 2.2552519304127614) < 1e-12

    def test_negated_identity(self):
        m = MobiusTransform(-1.0, 0.0, 0.0, -1.0)
        assert classify(m).kind == "identity"

    def test_elliptic_angle(self):
        theta = 1.1
        m = MobiusTransform.from_entries(cmath.exp(1j * theta), 0.0, 0.0, 1.0)
        cls = classify(m)
        assert cls.kind == "elliptic"
        assert abs(cls.angle - theta) < 1e-12

    def test_isom_class_validation(self):
        with pytest.raises(ValueError, match="unknown kind 'shear'"):
            IsomClass("shear")
        for angle in (0.0, 2 * math.pi, -1.0, math.nan):
            with pytest.raises(ValueError, match="elliptic angle must lie in"):
                IsomClass("elliptic", angle=angle)
        for length in (0j, -1 + 1j, complex(math.nan, 0.0)):
            with pytest.raises(ValueError, match="loxodromic length must have positive real part"):
                IsomClass("loxodromic", length=length)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(21)
        samples = [
            MobiusTransform(1.0, 1.0, 0.0, 1.0),
            MobiusTransform.from_entries(cmath.exp(0.3 + 0.5j), 0, 0, cmath.exp(-0.3 - 0.5j)),
            MobiusTransform.from_entries(cmath.exp(0.9j), 0, 0, cmath.exp(-0.9j)),
        ]
        for m in samples:
            base = classify(m)
            for _ in range(10):
                g = random_mobius(rng)
                conj = g @ m @ g.inverse()
                assert classify(conj).kind == base.kind


class TestComplexTranslationLength:
    def test_real_dilation(self):
        m = MobiusTransform.from_entries(math.exp(2.0), 0.0, 0.0, 1.0)
        assert abs(complex_translation_length(m) - 2.0) < 1e-12

    def test_complex_dilation(self):
        m = MobiusTransform.from_entries(cmath.exp(1 + 1j), 0.0, 0.0, 1.0)
        assert abs(complex_translation_length(m) - (1 + 1j)) < 1e-12

    def test_torus_holonomy_length(self):
        from dehnscope.torus_end import EndParameter, holonomy

        a = math.pi + math.pi * 1j
        ell = complex_translation_length(holonomy(EndParameter(a, 1j), 1, 0))
        assert length_distance(ell, a) < 1e-12

    def test_parabolic_rejected(self):
        with pytest.raises(ParabolicInput):
            complex_translation_length(MobiusTransform(1.0, 1.0, 0.0, 1.0))
        with pytest.raises(ParabolicInput):
            complex_translation_length(MobiusTransform.identity())

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(31)
        m = MobiusTransform.from_entries(cmath.exp(0.7 - 0.4j), 0.2, 0.0, cmath.exp(-0.7 + 0.4j))
        ell = complex_translation_length(m)
        for _ in range(20):
            g = random_mobius(rng)
            ell2 = complex_translation_length(g @ m @ g.inverse())
            assert length_distance(ell, ell2) < 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=rotations)
    @example(m=holonomy(EndParameter(2.5j, 1j), 1, 0))  # read 1.4e-17 - 2.5i against angle 2.5
    def test_elliptic_length_is_i_angle(self, m):
        cls = classify(m)
        if cls.kind == "elliptic":
            ell = complex_translation_length(m)
            assert ell == cls.length == complex(0.0, cls.angle)
            assert 0 < ell.imag <= math.pi

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(m=lengths)
    @example(m=_translation(complex(800.0, 0.6)))  # tr^2 overflows: ValueError before
    @example(m=MobiusTransform.from_entries(1.4e154, 0.0, 0.0, 1.0 / 1.4e154))
    @example(m=_translation(complex(1e-6, math.pi - 1e-4)))  # |Im tr^2| < tol: Re l dropped before
    @example(m=_translation(complex(2e-5, math.pi - 2e-5)))
    @example(m=_translation(complex(1e-10, 2.0)))  # elliptic: Re l < tol
    def test_length_matches_60_digit_oracle(self, m):
        """classify's length at the default tol against mp_complex_length, with the bound derived from 2 acosh(tr / 2).

        u = 2^-53.  The reference divides the matrix by sqrt(det), so its trace is 2w with
        w = (a11 + a22) / (2 sqrt(det)), and the computed w^ = fl(a11 + a22) / 2 is within
        |d| <= |w| (u + |det - 1| / 2) of it, to first order.  As cosh(l/2) = w, one of
        |sinh(l^/2) -+ sinh(l/2)| is at most |w^^2 - w^2| / |sinh(l/2)| (of a + b and a - b one
        has modulus at least |b|), which is |d| |w^ + w| / |sinh(l/2)|; asinh divides that by
        |cosh(l/2)| = |w|, so l^ is within 4 |d| / |sinh(l/2)| = 2 |tr| (u + |det - 1| / 2) /
        |sinh(l/2)| of +-l, mod 2 pi i.  cmath.acosh within 2 ulps and the shift by a rounded
        2 pi k add 4u (|l| + 2 pi).  The comparison is mod 2 pi i and sign, as the length is
        defined: where Re l is within the bound of 0 the rounded trace can pick the other sign.

        An elliptic element has l^ = x + i theta with x < tol, and its length i angle drops x.
        Its angle 2 acos(cosh(x/2) |cos(theta/2)|) is off theta, folded into [0, pi], by at most
        x^2 / (4 sin(theta/2)); off the parabolic test 4 |sinh(l^/2)|^2 >= tol, so sin(theta/2)
        is about sqrt(tol) / 2 or more, and the angle moves by under tol^1.5 / 2.  The elliptic
        bound adds 2 tol for both.
        """
        cls = classify(m)
        assume(cls.kind in ("elliptic", "loxodromic"))
        ell = cls.length
        if cls.kind == "loxodromic":
            assert ell.real >= CLASSIFY_TOL and -math.pi < ell.imag <= math.pi
        want = mp_complex_length(m.entries())
        with mpmath.workdps(30):
            a11, a12, a21, a22 = map(mpmath.mpc, m.entries())
            det_gap = abs(a11 * a22 - a12 * a21 - 1)
            bound = 2 * abs(m.trace()) * (2.0**-53 + det_gap / 2) / abs(mpmath.sinh(want / 2))
            bound += 4 * 2.0**-53 * (abs(want) + 2 * math.pi)
            if cls.kind == "elliptic":
                bound += 2 * CLASSIFY_TOL
            gap = min(abs(ell - sign * want - 2j * mpmath.pi * k) for sign in (1, -1) for k in (-1, 0, 1))
        assert gap <= bound

    def test_tolerance_checked(self):
        m = MobiusTransform(1.0, 1.0, 0.0, 1.0)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                classify(m, tol)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                complex_translation_length(m, tol)

    def test_canonical_range(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            m = random_mobius(rng)
            tr = m.trace()
            if abs(tr * tr - 4.0) < 1e-6:
                continue
            ell = complex_translation_length(m)
            assert ell.real >= 0
            assert -math.pi < ell.imag <= math.pi


class TestFixedPoints:
    """Fixed points of the boundary action, from the roots of a21 z^2 + (a22 - a11) z - a12 = 0.

    A finite z is fixed when MobiusMap(m).value(z) = z, and infinity is fixed when a21 = 0;
    otherwise infinity goes to a11 / a21.
    """

    def test_translation(self):
        assert MobiusTransform(1.0, 1.0, 0.0, 1.0).a21 == 0

    def test_half_turn_affine(self):
        # z -> e^a z + 1 with a = pi*i fixes 1/(1 - e^a) = 1/2 and infinity
        m = MobiusTransform.from_entries(cmath.exp(1j * math.pi), 1.0, 0.0, 1.0)
        assert abs(MobiusMap(m).value(0.5 + 0j) - 0.5) < 1e-12
        assert m.a21 == 0

    def test_parabolic_with_finite_fixed_point(self):
        # z -> (2z + 1) / (-z): trace 2, and the double root (a - d) / (2c) = -1
        m = MobiusTransform.from_entries(2, 1, -1, 0)
        assert classify(m).kind == "parabolic"
        assert MobiusMap(m).value(-1 + 0j) == -1
        assert m.a11 / m.a21 == -2

    def test_inversion(self):
        f = MobiusMap(MobiusTransform.from_entries(0.0, 1.0, 1.0, 0.0))  # z -> 1/z
        assert abs(f.value(-1.0 + 0j) + 1.0) < 1e-12
        assert abs(f.value(1.0 + 0j) - 1.0) < 1e-12

    def test_roots_are_fixed(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = random_mobius(rng)
            a, b, c, d = m.entries()
            if abs(m.trace() ** 2 - 4.0) < 1e-6:
                continue
            root = cmath.sqrt(m.trace() ** 2 - 4.0)  # the discriminant (a - d)^2 + 4bc
            for z in ((a - d + root) / (2.0 * c), (a - d - root) / (2.0 * c)):
                assert abs(MobiusMap(m).value(z) - z) < 1e-6 * max(1.0, abs(z) ** 2)


class TestHypDistance:
    def test_coincident(self):
        p = H3Point(1 + 2j, 0.7)
        assert hyp_distance(p, p) == 0.0

    def test_vertical_geodesic(self):
        assert abs(hyp_distance(H3Point(0.0, 1.0), H3Point(0.0, math.e)) - 1.0) < 1e-12

    def test_unit_horizontal_offset(self):
        d = hyp_distance(H3Point(1.0, 1.0), H3Point(0.0, 1.0))
        assert abs(d - math.acosh(1.5)) < 1e-12
        assert abs(d - 0.9624236501192069) < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.tuples(st.complex_numbers(max_magnitude=1e3), st.floats(1e-3, 1e3)),
        q=st.tuples(st.complex_numbers(max_magnitude=1e3), st.floats(1e-3, 1e3)),
        near=st.booleans(),
    )
    @example(p=(0j, 1.0), q=(1e-8 + 0j, 1.0), near=False)  # acosh(1 + q) gave 0.0
    @example(p=(0j, 1.0), q=(1e-5 + 0j, 1.0), near=False)  # and 4e-8 off, relative, here
    @example(p=(0j, 1e-300), q=(1e300 + 0j, 1e300), near=False)  # and inf here, for d = 1382.24...
    def test_matches_60_digit_oracle(self, p, q, near):
        """hyp_distance against mp_hyp_distance, with the bound derived from the roundings of its formula.

        d = 2 asinh(x^) with x^ = hypot(dz, dt) / (2 sqrt(t_p) sqrt(t_q)), u = 2^-53.  The
        subtraction z_p - z_q rounds each part by u and abs is within 1 ulp, so dz is within
        3u; dt = t_p - t_q is within u, and hypot adds 1 ulp: the chord is within 5u.  The
        roots round by u/2 each and their product by u, so x^ is within 8u of x = sinh(d/2),
        relative.  asinh' = 1 / cosh, so that moves d/2 by at most 8u tanh(d/2) <= 8u d/2,
        and math.asinh within 2 ulps adds 4u d/2: d is within 12u d, plus a few subnormal
        steps where the chord or x^ underflows.  The bound is relative down to d = 0.
        """
        if near:  # q one step of p's coordinates away, so d is near u
            q = (complex(math.nextafter(p[0].real, math.inf), p[0].imag), math.nextafter(p[1], 0.0))
        got = hyp_distance(H3Point(*p), H3Point(*q))
        want = mp_hyp_distance(p, q)
        assert abs(got - want) <= 12 * 2.0**-53 * float(want) + 2.0**-1072


    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        p=st.tuples(st.builds(complex, st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308)), st.floats(5e-324, 1.7e308)),
        q=st.tuples(st.builds(complex, st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308)), st.floats(5e-324, 1.7e308)),
    )
    @example(p=(0j, 5e-324), q=(1e300 + 0j, 1.0))  # the quotient overflows: inf before, for d = 2125.99...
    @example(p=(-1e308 + 0j, 1.0), q=(1e308 + 0j, 1.0))  # z_p - z_q overflows: inf before, for d = 1419.78...
    @example(p=(0j, 1.7e308), q=(1e300 + 0j, 1.7e308))  # the root overflows: 0.0 before, for d = 5.88e-9
    @example(p=(1.7e308 + 1.7e308j, 1.0), q=(-1.7e308 - 1.7e308j, 1.0))  # a halved difference's modulus overflows
    @example(p=(0j, 5e-324), q=(1j, 5e-324))  # root / 4 underflows to 0
    @example(p=(0j, 1.0), q=(1.2711610061536462e308 + 1.2711610061536464e308j, 1.0))  # abs raised OverflowError
    def test_overflow_takes_quarters_and_logs(self, p, q):
        """Where nothing overflows hyp_distance keeps its bits; where something does, it is within 12u d.

        The fast formula is 2 asinh(hypot(|z_p - z_q|, t_p - t_q) / root), root = 2 sqrt(t_p) sqrt(t_q).
        A subnormal root is not taken as it is (test_subnormal_root_is_scaled), so it goes
        to the 60-digit comparison too.
        Otherwise the differences are taken in quarters, exact outside the subnormal range,
        so x = quarter / sqrt(t_p) / (sqrt(t_q) / 2) has the roundings, and the bound, of
        test_matches_60_digit_oracle.  Where that x overflows too, x > 2^1024 and d =
        2 (log quarter + log 4) - log t_p - log t_q > 1421, with asinh x - log 2x below
        x^-2; u = 2^-53.  log quarter inherits 5u and rounds by 1 ulp (2u) of at most 710;
        log 4 rounds by 3u; each log t by 1 ulp of at most 745; the four additions by u of
        partial sums of at most 2914.  That totals under 12400u, which is 8.8u of d.
        """
        root = 2.0 * math.sqrt(p[1]) * math.sqrt(q[1])
        try:
            fast = 2.0 * math.asinh(math.hypot(abs(p[0] - q[0]), p[1] - q[1]) / root)
        except OverflowError:  # abs(z_p - z_q) raised this
            fast = math.inf
        got = hyp_distance(H3Point(*p), H3Point(*q))
        if math.isfinite(fast) and 2.0**-1022 <= root < math.inf:
            assert struct.pack("<d", got) == struct.pack("<d", fast)
        else:
            want = mp_hyp_distance(p, q)
            assert abs(got - want) <= 12 * 2.0**-53 * float(want) + 2.0**-1072


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.tuples(st.builds(complex, st.floats(-1e-290, 1e-290), st.floats(-1e-290, 1e-290)), st.floats(5e-324, 1e-300)),
        q=st.tuples(st.builds(complex, st.floats(-1e-290, 1e-290), st.floats(-1e-290, 1e-290)), st.floats(5e-324, 1e-300)),
    )
    @example(p=(0j, 3e-320), q=(1e-320 + 0j, 7e-321))  # 1.5655179879730785 before, 6.5e-5 off
    def test_subnormal_root_is_scaled(self, p, q):
        """With both heights in [5e-324, 1e-300], so 2 sqrt(t_p) sqrt(t_q) can be subnormal, d is within 12u d.

        A subnormal root is short of bits, so hyp_distance dilates the differences and
        heights by 2^1000 first; that is exact in binary and leaves d unchanged, so the
        roundings, and the bound, are those of test_matches_60_digit_oracle.
        """
        got = hyp_distance(H3Point(*p), H3Point(*q))
        want = mp_hyp_distance(p, q)
        assert abs(got - want) <= 12 * 2.0**-53 * float(want) + 2.0**-1072

class TestAdjoint:
    def test_identity(self):
        v = SL2Vector.from_coords([0.3, 1 - 2j, 0.5j])
        assert (adjoint(MobiusTransform.identity(), v) - v).norm() < 1e-15

    def test_inverse_composition(self):
        rng = np.random.default_rng(51)
        m = random_mobius(rng)
        v = SL2Vector.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3))
        w = adjoint(m.inverse(), adjoint(m, v))
        assert (w - v).norm() < 1e-10

    def test_diagonal_action_on_nilpotent(self):
        lam = 1.3 - 0.4j
        m = MobiusTransform.from_entries(lam, 0.0, 0.0, 1.0 / lam)
        v = SL2Vector.from_matrix([[0.0, 1.0], [0.0, 0.0]])
        w = adjoint(m, v)
        assert abs(w.y - lam * lam) < 1e-12
        assert abs(w.x) < 1e-12 and abs(w.w) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=mobius, v=sl2_vectors)
    def test_matches_conjugation_by_matmul(self, m, v):
        reference = as_array(m) @ sl2_array(v) @ as_array(m.inverse())
        tol = 1e-12 * np.linalg.norm(as_array(m)) ** 2 * v.norm()
        assert np.linalg.norm(sl2_array(adjoint(m, v)) - reference) <= tol

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=mobius, v=sl2_vectors)
    def test_adjoint_is_the_row_products_bit_for_bit(self, m, v):
        reference = SL2Vector(*(r0 * v.x + r1 * v.y + r2 * v.w for r0, r1, r2 in adjoint_rows(m)))
        assert adjoint(m, v) == reference

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=mobius, n=mobius)
    def test_adjoint_matrix_is_a_homomorphism(self, m, n):
        am, an = adjoint_matrix(m), adjoint_matrix(n)
        tol = 1e-12 * np.linalg.norm(am) * np.linalg.norm(an)
        assert np.linalg.norm(adjoint_matrix(m @ n) - am @ an) <= tol

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=mobius, v=sl2_vectors)
    def test_matches_60_digit_oracle(self, m, v):
        """Ad(m) v against mp_adjoint, with the bound derived from the roundings of adjoint_rows and adjoint.

        With mu = max |m_ij|, each entry of adjoint_rows is at most two complex products of
        entries, times an exact 2 or -1, so it is at most 2 mu^2 and within 7 u mu^2 of exact
        (sqrt 5 u per complex product and u per sum, u = 2^-53).  Each coordinate of Ad(m) v
        sums three products r_j v_j: the row error and the rounding of each product give
        (7 + 2 sqrt 5) u mu^2 |v_j|, and the two sums u each of at most 2 mu^2 (|x| + |y| + |w|).
        That is below 16 u mu^2 (|x| + |y| + |w|) per coordinate, to first order in u.
        """
        mu = max(map(abs, m.entries()))
        bound = 16 * 2.0**-53 * mu * mu * sum(map(abs, v.coords()))
        for got, want in zip(adjoint(m, v).coords(), mp_adjoint(m.entries(), v.coords())):
            assert float(abs(got - want)) <= bound

    def test_sign_insensitive(self):
        rng = np.random.default_rng(52)
        m = random_mobius(rng)
        neg = MobiusTransform(-m.a11, -m.a12, -m.a21, -m.a22)
        v = SL2Vector.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert (adjoint(m, v) - adjoint(neg, v)).norm() < 1e-12


class TestNormalization:
    def test_idempotent(self):
        m = MobiusTransform.from_entries(2.0, 1.0, 1.0, 1.0)
        m2 = MobiusTransform.from_entries(m.a11, m.a12, m.a21, m.a22)
        assert m.distance(m2) < 1e-15

    def test_determinant_one(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            m = random_mobius(rng)
            det = m.a11 * m.a22 - m.a12 * m.a21
            assert abs(det - 1.0) <= 1e-12

    def test_point_validation(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="height t must be positive and finite"):
                H3Point(0j, t)
        for z in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
            with pytest.raises(ValueError, match="z must be finite"):
                H3Point(z, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=mobius, n=mobius)
    def test_distance_is_a_sign_insensitive_frobenius_distance(self, m, n):
        d = m.distance(n)
        assert d == n.distance(m)
        assert d == m.distance(MobiusTransform(*(-x for x in n.entries())))
        a, b = as_array(m), as_array(n)
        reference = min(np.linalg.norm(a - b), np.linalg.norm(a + b))
        assert abs(d - reference) <= 4 * np.spacing(reference)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parts=_raw_parts)
    def test_frobenius_gaps_match_the_sum_form_bit_for_bit(self, parts):
        # the explicit four-term sums add in the order sum() used (left to right from 0 before
        # Python 3.12, which compensates float sums), so the relator check keeps its bits
        m, n = (MobiusTransform(*(complex(re, im) for re, im in zip(p[::2], p[1::2]))) for p in (parts[:8], parts[8:]))
        pairs = tuple(zip(m.entries(), n.entries()))
        reference = sum(abs(x - y) ** 2 for x, y in pairs), sum(abs(x + y) ** 2 for x, y in pairs)
        assert struct.pack("<2d", *m.frobenius_gaps(n)) == struct.pack("<2d", *reference)

    @pytest.mark.parametrize(
        "entries",
        [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 1.0), (1.0, 1j * math.inf, 0.0, 1.0), (1e200, 0.0, 0.0, 1e200)],
        ids=["singular", "nan", "inf", "complex-inf", "overflow"],
    )
    def test_determinant_zero_or_not_finite_rejected(self, entries):
        with pytest.raises(ValueError, match="singular or not finite"):
            MobiusTransform.from_entries(*entries)

    def test_sl2_trace_validation(self):
        with pytest.raises(ValueError):
            SL2Vector.from_matrix(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))


class TestSL2Vector:
    @pytest.mark.parametrize(
        "rows",
        [[[1e-3, 2.0], [3.0, 0.0]], np.array([[2.0, 1j], [0.0, -2.0 + 1e-6]])],
        ids=["small-trace", "array"],
    )
    def test_from_matrix_rejects_a_trace(self, rows):
        with pytest.raises(ValueError, match="traceless"):
            SL2Vector.from_matrix(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[math.nan, 0.0], [0.0, math.nan]], [[0.0, math.inf], [0.0, 0.0]], [[1.0, 0.0], [complex(0.0, -math.inf), -1.0]]],
        ids=["nan", "inf", "complex-inf"],
    )
    def test_from_matrix_rejects_non_finite_entries(self, rows):
        with pytest.raises(ValueError, match="finite"):
            SL2Vector.from_matrix(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], [[1.0, 0.0]], [[1.0], [-1.0]], [1.0, 2.0, 3.0, 4.0], np.zeros((3, 3)), 5.0],
        ids=["2x3", "1x2", "2x1", "flat", "3x3", "scalar"],
    )
    def test_from_matrix_rejects_a_shape(self, rows):
        with pytest.raises(ValueError, match="2x2"):
            SL2Vector.from_matrix(rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(v=sl2_vectors)
    def test_from_matrix_round_trip_and_norm(self, v):
        assert SL2Vector.from_matrix(sl2_array(v).tolist()) == v
        assert SL2Vector.from_matrix(sl2_array(v)) == v
        assert abs(v.norm() - np.linalg.norm(sl2_array(v))) <= 4 * np.spacing(v.norm())

    def test_values_are_python_numbers(self):
        # numpy stays inside the array builders: no scalar value holds a numpy type
        rng = np.random.default_rng(53)
        m = MobiusTransform.from_entries(*as_array(random_mobius(rng)).ravel())
        v = SL2Vector.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3))
        u = SL2Vector.from_matrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        # numpy scalar entries, as random_mobius passes them, become Python complex numbers
        for g in (m, random_mobius(rng), MobiusTransform.from_entries(np.float64(2.0), np.complex128(1j), np.float64(0.5), 1)):
            assert all(type(e) is complex for e in g.entries())
            assert all(type(c) is complex for c in adjoint(g, v).coords())
        for vec in (v, u, SL2Vector.zero(), adjoint(m, v), v + u, v - u, right_translate((1.0, 2j, 3.0, 4j), m)):
            assert all(type(c) is complex for c in (vec.x, vec.y, vec.w))
            assert type(vec.coords()) is tuple and vec.coords() == (vec.x, vec.y, vec.w)
            assert type(vec.norm()) is float
        p = apply_h3(m, random_point(rng))
        assert type(p.coords()) is tuple
        assert all(type(c) in (int, float) for c in p.coords())
