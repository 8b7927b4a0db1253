"""Tests for the PSL(2,C) core: boundary/H^3 actions, classification, lengths."""

import cmath
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnscope.hypcore import (
    INFINITY,
    H3Point,
    IsomClass,
    MobiusTransform,
    ParabolicInput,
    SL2Vector,
    adjoint,
    adjoint_matrix,
    adjoint_rows,
    apply_boundary,
    apply_h3,
    classify,
    complex_translation_length,
    hyp_distance,
    length_distance,
    right_translate,
)
from mp_reference import mp_adjoint, mp_hyp_distance


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
#: the 16 real parts of two raw matrices, with up to two of them replaced by a signed zero or a non-finite value
_raw_parts = st.builds(
    lambda parts, specials: [dict(specials).get(i, x) for i, x in enumerate(parts)],
    st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
    st.lists(st.tuples(st.integers(0, 15), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])), max_size=2),
)


class TestApplyBoundary:
    def test_identity(self):
        assert apply_boundary(MobiusTransform.identity(), 3 + 4j) == 3 + 4j

    def test_full_turn_rotation_translation(self):
        # z -> e^a z + 1 with a = 2*pi*i sends 0 to 1
        m = MobiusTransform.from_entries(cmath.exp(2j * math.pi), 1.0, 0.0, 1.0)
        assert abs(apply_boundary(m, 0.0) - 1.0) < 1e-12

    def test_pole_conventions(self):
        inv = MobiusTransform.from_entries(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
        assert apply_boundary(inv, INFINITY) == 0
        assert apply_boundary(inv, 0.0) is INFINITY
        assert apply_boundary(MobiusTransform(1.0, 2.0, 0.0, 1.0), INFINITY) is INFINITY


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
            w = apply_boundary(m, z)
            if not isinstance(w, complex) or abs(m.a21 * z + m.a22) < 0.3:
                continue
            p = apply_h3(m, H3Point(z, 1e-5))
            assert abs(p.z - w) < 1e-8

    def test_sign_insensitive(self):
        rng = np.random.default_rng(13)
        m = random_mobius(rng)
        neg = MobiusTransform(-m.a11, -m.a12, -m.a21, -m.a22)
        p = random_point(rng)
        assert hyp_distance(apply_h3(m, p), apply_h3(neg, p)) < 1e-14
        z = complex(rng.normal(), rng.normal())
        assert abs(apply_boundary(m, z) - apply_boundary(neg, z)) < 1e-12

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
    """Fixed points of the boundary action, from the roots of a21 z^2 + (a22 - a11) z - a12 = 0."""

    def test_translation(self):
        assert apply_boundary(MobiusTransform(1.0, 1.0, 0.0, 1.0), INFINITY) is INFINITY

    def test_half_turn_affine(self):
        # z -> e^a z + 1 with a = pi*i fixes 1/(1 - e^a) = 1/2 and infinity
        m = MobiusTransform.from_entries(cmath.exp(1j * math.pi), 1.0, 0.0, 1.0)
        assert abs(apply_boundary(m, 0.5) - 0.5) < 1e-12
        assert apply_boundary(m, INFINITY) is INFINITY

    def test_parabolic_with_finite_fixed_point(self):
        # z -> (2z + 1) / (-z): trace 2, and the double root (a - d) / (2c) = -1
        m = MobiusTransform.from_entries(2, 1, -1, 0)
        assert classify(m).kind == "parabolic"
        assert apply_boundary(m, -1 + 0j) == -1
        assert apply_boundary(m, INFINITY) == -2

    def test_inversion(self):
        inv = MobiusTransform.from_entries(0.0, 1.0, 1.0, 0.0)  # z -> 1/z
        assert abs(apply_boundary(inv, -1.0 + 0j) + 1.0) < 1e-12
        assert abs(apply_boundary(inv, 1.0 + 0j) - 1.0) < 1e-12

    def test_roots_are_fixed(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = random_mobius(rng)
            a, b, c, d = m.entries()
            if abs(m.trace() ** 2 - 4.0) < 1e-6:
                continue
            root = cmath.sqrt(m.trace() ** 2 - 4.0)  # the discriminant (a - d)^2 + 4bc
            for z in ((a - d + root) / (2.0 * c), (a - d - root) / (2.0 * c)):
                assert abs(apply_boundary(m, z) - z) < 1e-6 * max(1.0, abs(z) ** 2)


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
    def test_matches_60_digit_oracle(self, p, q, near):
        """hyp_distance against mp_hyp_distance, with the bound derived from the roundings of its formula.

        q^ = (dz^2 + dt^2) / (2 t_p t_q) with dz = |z_p - z_q| (the subtraction u relative per
        part and abs within 1 ulp, so 3u; u = 2^-53) and dt = t_p - t_q (u): dz^2 is within 7u,
        dt^2 within 3u, their sum 8u, and the quotient 10u, to first order.  So c^ = 1 + q^ is
        within 11u c of c = cosh d, and D = 12u c bounds it (a square that underflows is off by
        far less).  acosh is concave with acosh(1 + e) <= sqrt(2e), so acosh moves by at most
        sqrt(2D), and by at most D / sinh(acosh(c - D)) when c - D > 1; math.acosh adds 2 ulps,
        4u d.  The first bound is the one near d = 0, where cosh d - 1 cancels.
        """
        if near:  # q one step of p's coordinates away, so d is near sqrt(u)
            q = (complex(math.nextafter(p[0].real, math.inf), p[0].imag), math.nextafter(p[1], 0.0))
        got = hyp_distance(H3Point(*p), H3Point(*q))
        want = mp_hyp_distance(p, q)
        c = float(mpmath.cosh(want))
        slack = 12 * 2.0**-53 * c
        bound = math.sqrt(2 * slack)
        if c - slack > 1:
            bound = min(bound, slack / math.sqrt((c - slack) ** 2 - 1))
        assert abs(got - want) <= bound + 4 * 2.0**-53 * float(want)


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
        for vec in (v, u, SL2Vector.zero(), adjoint(m, v), v + u, v - u, -v, 2.0 * v, v * 1j,
                    right_translate((1.0, 2j, 3.0, 4j), m)):
            assert all(type(c) is complex for c in (vec.x, vec.y, vec.w))
            assert type(vec.coords()) is tuple and vec.coords() == (vec.x, vec.y, vec.w)
            assert type(vec.norm()) is float
        p = apply_h3(m, random_point(rng))
        assert type(p.coords()) is tuple
        assert all(type(c) in (int, float) for c in p.coords())
