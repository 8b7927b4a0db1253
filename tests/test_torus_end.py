"""Tests for cone structures on torus ends: charts, holonomy, filling data."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnscope.config import ARRAY_BLOCK
from dehnscope.hypcore import (
    INFINITY,
    MobiusTransform,
    classify,
    complex_translation_length,
    fixed_points,
    hyp_distance,
    length_distance,
)
from dehnscope.torus_end import (
    CompletionClass,
    DegenerateRegion,
    EndParameter,
    EndRegion,
    FillingCoordinate,
    ZeroA,
    canonical_sign_pair,
    classify_completion,
    complex_length,
    cross_section_length,
    develop,
    end_isometric,
    equivariance_residual,
    estimate_bilipschitz,
    filling_coordinates,
    holonomy,
    phi,
    z0_of,
)

TWO_PI_I = 2j * math.pi


def random_parameter(rng, min_a=0.05) -> EndParameter:
    while True:
        a = complex(rng.normal(), rng.normal())
        if abs(a) < min_a:
            continue
        b = complex(rng.normal(), 0.2 + abs(rng.normal()))
        return EndParameter(a, b)


class TestPhi:
    def test_base_value(self):
        s = EndParameter(1j * math.pi, 1j)
        assert abs(phi(s, 0.0, 0.0) - (-0.5)) < 1e-12

    def test_periodicity_factors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_parameter(rng)
            x, y = rng.normal(), rng.normal()
            base = phi(s, x, y)
            assert abs(phi(s, x + 1, y) - cmath.exp(s.a) * base) < 1e-9 * abs(base)
            assert abs(phi(s, x, y + 1) - cmath.exp(s.a * s.b) * base) < 1e-9 * max(abs(base), 1)

    def test_cusp_rejected(self):
        with pytest.raises(ZeroA):
            phi(EndParameter(0.0, 1j), 0.0, 0.0)
        with pytest.raises(ZeroA):
            z0_of(0j)


class TestDevelop:
    def test_cusp_chart_exact(self):
        p = develop(EndParameter(0.0, 1j), 2.0, 3.0, 5.0)
        assert p.z == 2 + 3j and p.t == 5.0

    @pytest.mark.parametrize("chart", ["printed", "corrected"])
    def test_distance_from_cone_point(self, chart):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_parameter(rng)
            x, y, t = rng.normal(), rng.normal(), 1.0 + abs(rng.normal())
            p = develop(s, x, y, t, chart=chart)
            z0 = z0_of(s.a)
            dist = math.hypot(abs(p.z - z0), p.t)
            assert abs(dist - abs(phi(s, x, y))) < 1e-9 * max(1.0, dist)

    def test_corrected_chart_equivariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_parameter(rng)
            for _ in range(20):
                x, y, t = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(1, 2)
                for gen in (1, 2):
                    assert equivariance_residual(s, gen, x, y, t, chart="corrected") < 1e-9

    def test_printed_chart_fails_equivariance_off_unit_locus(self):
        # the printed height transforms by |e^a| on one side only; this is why
        # the corrected chart is the default
        s = EndParameter(1.0 + 0.3j, 1j)
        worst = max(
            equivariance_residual(s, 1, x, y, t, chart="printed")
            for x in (0.0, 0.4)
            for y in (0.0, 0.7)
            for t in (1.0, 1.7)
        )
        assert worst > 1e-3

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([1, -1, 2, -2]),
        delta=st.one_of(
            st.just(0j),
            st.builds(
                lambda e, arg: 10.0**e * cmath.exp(1j * arg),
                st.floats(-15.0, -3.0),
                st.floats(0.0, 2 * math.pi),
            ),
        ),
        b=st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.3, 2.0)),
        point=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1.0, 2.0)),
        gen=st.sampled_from([1, 2]),
    )
    def test_corrected_chart_equivariance_on_and_near_pole_locus(self, k, delta, b, point, gen):
        # a = 2*pi*i*k + delta: the pole locus e^a = 1 and up to 1e-3 away from it
        s = EndParameter(TWO_PI_I * k + delta, b)
        x, y, t = point
        size = max(
            math.hypot(abs(q.z), q.t)
            for q in (develop(s, x, y, t), develop(s, x + 1.0, y, t), develop(s, x, y + 1.0, t))
        )
        assert equivariance_residual(s, gen, x, y, t, chart="corrected") <= 1e-12 * size

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            develop(EndParameter(1.0, 1j), 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            develop(EndParameter(1.0, 1j), 0.0, 0.0, 1.0, chart="bogus")


class TestHolonomy:
    def test_cusp_generator(self):
        m = holonomy(EndParameter(0.0, 1j), 1, 0)
        assert m.distance(MobiusTransform.translation(1.0)) < 1e-15

    def test_half_turn_generator(self):
        s = EndParameter(1j * math.pi, 1j)
        m = holonomy(s, 1, 0)
        z0, inf = fixed_points(m)
        assert abs(z0 - 0.5) < 1e-12 and inf is INFINITY
        cls = classify(m)
        assert cls.kind == "elliptic" and abs(cls.angle - math.pi) < 1e-12

    def test_generators_commute(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_parameter(rng)
            g1, g2 = holonomy(s, 1, 0), holonomy(s, 0, 1)
            assert (g1 @ g2).distance(g2 @ g1) < 1e-10

    def test_homomorphism_property(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            s = random_parameter(rng)
            m1, n1, m2, n2 = rng.integers(-3, 4, size=4)
            lhs = holonomy(s, int(m1 + m2), int(n1 + n2))
            rhs = holonomy(s, int(m1), int(n1)) @ holonomy(s, int(m2), int(n2))
            assert lhs.distance(rhs) < 1e-10

    def test_pole_locus_returns_axis_normalization(self):
        s = EndParameter(TWO_PI_I, 1j)
        mer = holonomy(s, 1, 0)
        assert mer.distance(MobiusTransform.identity()) < 1e-9
        core = holonomy(s, 0, 1)
        assert classify(core).kind == "loxodromic"
        assert length_distance(complex_translation_length(core), TWO_PI_I * 1j) < 1e-9
        # z0_of, phi and develop take the same axis-centered frame, on and near the locus
        x, y, t = 0.3, 0.4, 1.5
        for a in (TWO_PI_I, TWO_PI_I + 5e-14):
            s = EndParameter(a, 1j)
            assert z0_of(a) == 0
            ph = phi(s, x, y)
            assert abs(ph + cmath.exp(x * a + y * a * 1j)) <= 1e-14
            for chart in ("printed", "corrected"):
                p = develop(s, x, y, t, chart=chart)
                assert abs(math.hypot(abs(p.z), p.t) - abs(ph)) <= 1e-14
            for gen in (1, 2):
                assert equivariance_residual(s, gen, x, y, t, chart="corrected") <= 1e-14

    def test_meridian_fixes_z0_on_and_off_pole_locus(self):
        rng = np.random.default_rng(9)
        params = [random_parameter(rng) for _ in range(20)]
        params += [EndParameter(TWO_PI_I * k + d, 1j) for k in (1, -2) for d in (0.0, 5e-14, -3e-13j, 1e-6)]
        for s in params:
            z0 = z0_of(s.a)
            assert abs(holonomy(s, 1, 0)(z0) - z0) <= 1e-12 * max(1.0, abs(z0))


class TestComplexLength:
    def test_cusp_lengths_vanish(self):
        s = EndParameter(0.0, 2j)
        assert complex_length(s, 3.0, -2.0) == 0

    def test_filling_class_length(self):
        s = EndParameter(math.pi + math.pi * 1j, 1j)
        ell = complex_length(s, 1.0, 1.0)
        assert min(abs(ell - TWO_PI_I), abs(ell + TWO_PI_I)) < 1e-12

    def test_first_class_is_a(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = random_parameter(rng)
            ell = complex_length(s, 1.0, 0.0)
            assert min(abs(ell - s.a), abs(ell + s.a)) < 1e-14

    def test_linearity_of_lift(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = random_parameter(rng)
            x1, y1, x2, y2 = rng.normal(size=4)
            lift = s.a * ((x1 + x2) + s.b * (y1 + y2))
            parts = s.a * (x1 + s.b * y1) + s.a * (x2 + s.b * y2)
            assert abs(lift - parts) < 1e-10
            total = complex_length(s, x1 + x2, y1 + y2)
            assert min(abs(total - lift), abs(total + lift)) < 1e-10


class TestFillingCoordinates:
    def test_cusp_is_infinity(self):
        assert filling_coordinates(EndParameter(0.0, 0.3 + 1.7j)).infinite

    def test_closed_form_values(self):
        c = filling_coordinates(EndParameter(TWO_PI_I, 1j))
        assert abs(c.x - 1.0) < 1e-12 and abs(c.y) < 1e-12
        c = filling_coordinates(EndParameter(math.pi + math.pi * 1j, 1j))
        assert abs(c.x - 1.0) < 1e-12 and abs(c.y - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = random_parameter(rng)
            c = filling_coordinates(s)
            ell = s.a * (c.x + s.b * c.y)
            assert min(abs(ell - TWO_PI_I), abs(ell + TWO_PI_I)) <= 1e-12 * max(1.0, abs(s.a))

    def test_sign_canonical(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = random_parameter(rng)
            c = filling_coordinates(s)
            assert c.x > 0 or (c.x == 0 and c.y > 0)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_parameter(rng)
            neg = EndParameter(-s.a, s.b)
            assert filling_coordinates(s).distance(filling_coordinates(neg)) < 1e-9
            l1 = complex_length(s, 0.7, -0.3)
            l2 = complex_length(neg, 0.7, -0.3)
            assert min(abs(l1 - l2), abs(l1 + l2)) < 1e-12


class TestClassifyCompletion:
    def test_cusp(self):
        assert classify_completion(EndParameter(0.0, 1j)).kind == "cusp"

    def test_smooth_filling(self):
        got = classify_completion(EndParameter(TWO_PI_I, 1j))
        assert got.kind == "smooth" and (got.p, got.q) == (1, 0)

    def test_rational_cone(self):
        got = classify_completion(EndParameter(1j * math.pi, 1j))
        assert got.kind == "cone" and (got.p, got.q) == (1, 0)
        assert abs(got.angle - math.pi) < 1e-12

    def test_irrational(self):
        a = TWO_PI_I / (math.sqrt(2.0) + 1j)
        got = classify_completion(EndParameter(a, 1j), 1e-9, 10**6)
        assert got.kind == "irrational"

    def test_undetermined_band(self):
        a = TWO_PI_I / (1 + 5e-8 + 1j)
        got = classify_completion(EndParameter(a, 1j))
        assert got.kind == "undetermined"

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, 0.0, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance used to classify the smooth (1, 0) filling as a cone
        with pytest.raises(ValueError, match="rational_tolerance must be positive and finite"):
            classify_completion(EndParameter(TWO_PI_I, 1j), tol, 100)

    def test_smooth_iff_meridian_trivial(self):
        rng = np.random.default_rng(14)
        ident = MobiusTransform.identity()
        for _ in range(20):
            p, q = int(rng.integers(1, 5)), int(rng.integers(0, 5))
            if math.gcd(p, q) != 1:
                continue
            b = complex(rng.normal(), 0.3 + abs(rng.normal()))
            s = EndParameter(TWO_PI_I / (p + b * q), b)
            got = classify_completion(s)
            assert got.kind == "smooth" and (got.p, got.q) == (p, q)
            assert holonomy(s, got.p, got.q).distance(ident) < 1e-9

    def test_cone_angle_matches_scale(self):
        # coordinates g*(p,q) give cone angle 2*pi/g
        s = EndParameter(TWO_PI_I / (3.0 * (1 + 2j)), 1j)  # coords 3*(1,2)
        got = classify_completion(s)
        assert got.kind == "cone" and (got.p, got.q) == (1, 2)
        assert abs(got.angle - 2 * math.pi / 3) < 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        b=st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 3.0)),
        pq=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        g=st.sampled_from((1.0, 0.5, 2.0, 3.0, math.sqrt(2.0))),
        a=st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        rational=st.booleans(),
    )
    def test_invariant_under_negating_a(self, b, pq, g, a, rational):
        # a and -a give the coordinates +-(x, y), the same point of R^2/+-1
        if rational:
            if pq == (0, 0):
                return
            a = TWO_PI_I / (g * (pq[0] + b * pq[1]))

        def outcome(s):
            try:
                return classify_completion(s)
            except ValueError as exc:  # coordinates that overflow for |a| ~ 1e-309
                return type(exc)

        assert outcome(EndParameter(-a, b)) == outcome(EndParameter(a, b))

    def test_subnormal_direction_ratio(self):
        # x / y ~ 2e-309: 1/frac is inf, which the continued fraction once passed to floor
        s = EndParameter(complex(1.0, 2.2250738585072014e-309), 1j)
        assert filling_coordinates(s).x < 1e-307
        got = classify_completion(s)
        assert got.kind == "cone" and (got.p, got.q) == (0, 1) and got.angle == 1.0

    def test_rational_direction_fuzz(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 40:
            p = int(rng.integers(-30, 31))
            q = int(rng.integers(-30, 31))
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            num, den = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            g = num / den
            b = complex(rng.normal(), 0.3 + abs(rng.normal()))
            s = EndParameter(TWO_PI_I / (g * (p + b * q)), b)
            got = classify_completion(s)
            cp, cq = canonical_sign_pair(p, q)
            kind = "smooth" if num == den else "cone"
            assert got.kind == kind, (p, q, g, got)
            assert (got.p, got.q) == (cp, cq)
            assert abs(got.angle - 2 * math.pi / g) < 1e-8 * (1 + 2 * math.pi / g)
            checked += 1


class TestCrossSection:
    def test_pure_translation(self):
        s = EndParameter(1.0, 1j)
        for eps in (0.2, 0.9, 1.7):
            assert abs(cross_section_length(s, 1.0, 0.0, eps) - math.cosh(eps)) < 1e-12

    def test_pure_rotation(self):
        s = EndParameter(1.0, 1j)  # class (0,1) has length a*b = i
        for eps in (0.2, 0.9, 1.7):
            assert abs(cross_section_length(s, 0.0, 1.0, eps) - math.sinh(eps)) < 1e-12

    def test_degenerate_tube_limit(self):
        s = EndParameter(0.7 - 0.2j, 0.5 + 1.3j)
        ell = s.a * (1.4 + s.b * 0.6)
        assert abs(cross_section_length(s, 1.4, 0.6, 1e-8) - abs(ell.real)) < 1e-6

    def test_cusp_rejected(self):
        with pytest.raises(ZeroA):
            cross_section_length(EndParameter(0.0, 1j), 1.0, 0.0, 0.5)


def tube_length_oracle(s: EndParameter, x: float, y: float, eps: float, steps: int = 10**4) -> float:
    """Chord-sum of the developed (x, y)-curve at tube radius eps around the axis.

    The curve tau -> z0 + e^{tau l} sinh(eps), height e^{tau Re l}, runs at
    constant distance eps from the axis through (z0, infinity); its length is
    approximated by hyperbolic distances between consecutive samples.
    """
    ell = s.a * (x + s.b * y)
    z0 = z0_of(s.a)
    tau = np.linspace(0.0, 1.0, steps + 1)
    z = z0 + np.exp(tau * ell) * math.sinh(eps)
    t = np.exp(tau * ell.real)
    dz2 = np.abs(np.diff(z)) ** 2
    dt2 = np.diff(t) ** 2
    arg = 1.0 + (dz2 + dt2) / (2.0 * t[:-1] * t[1:])
    return float(np.sum(np.arccosh(np.maximum(arg, 1.0))))


class TestCrossSectionOracle:
    def test_matches_tube_integration(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            s = random_parameter(rng)
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(x) + abs(y) < 0.1:
                continue
            eps = rng.uniform(0.1, 2.0)
            closed = cross_section_length(s, x, y, eps)
            numeric = tube_length_oracle(s, x, y, eps)
            assert abs(closed - numeric) <= 1e-6 * max(closed, 1e-9)


class TestEndIsometric:
    def test_sign_flip(self):
        s = EndParameter(0.7 + 0.2j, 1j)
        assert end_isometric(s, EndParameter(-s.a, s.b))

    def test_reflexive(self):
        s = EndParameter(0.7 + 0.2j, 1j)
        assert end_isometric(s, s)

    def test_different_modulus(self):
        assert not end_isometric(EndParameter(1j * math.pi, 1j), EndParameter(1j * math.pi, 2j))

    def test_different_exponent(self):
        assert not end_isometric(EndParameter(1.0, 1j), EndParameter(1.1, 1j))


class TestBilipschitz:
    REGION = EndRegion(0.0, 1.0, 0.0, 1.0, 1.0, 2.0)

    def test_equal_parameters_give_one(self):
        s = EndParameter(0.5 + 0.5j, 1j)
        assert estimate_bilipschitz(s, s, self.REGION, 100, seed=1) == 1.0

    def test_symmetry(self):
        s1 = EndParameter(0.5 + 0.5j, 1j)
        s2 = EndParameter(0.3 + 0.8j, 1j)
        k12 = estimate_bilipschitz(s1, s2, self.REGION, 200, seed=2)
        k21 = estimate_bilipschitz(s2, s1, self.REGION, 200, seed=2)
        assert abs(k12 - k21) < 1e-12
        assert k12 >= 1.0

    def test_degenerate_region(self):
        region = EndRegion(0.0, 0.0, 0.0, 1.0, 1.0, 2.0)
        with pytest.raises(DegenerateRegion):
            estimate_bilipschitz(
                EndParameter(1.0, 1j), EndParameter(0.5, 1j), region, 10, seed=0
            )

    def test_printed_chart_convergence_toward_cusp(self):
        cusp = EndParameter(0.0, 1j)
        values = []
        for n in (5, 10, 20, 40):
            s = EndParameter(TWO_PI_I / (1 + n * 1j), 1j)
            values.append(
                estimate_bilipschitz(s, cusp, self.REGION, 400, seed=3, chart="printed")
            )
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_determinism(self):
        s1 = EndParameter(0.5 + 0.5j, 1j)
        s2 = EndParameter(0.3 + 0.8j, 1j)
        a = estimate_bilipschitz(s1, s2, self.REGION, 150, seed=4)
        b = estimate_bilipschitz(s1, s2, self.REGION, 150, seed=4)
        assert a == b

    @staticmethod
    def per_point_reference(s1, s2, region, samples, seed, chart):
        """One draw of all samples, then develop and hyp_distance point by point."""
        pts = np.random.default_rng(seed).uniform(size=(samples, 3))
        pts[:, 0] = region.x0 + pts[:, 0] * (region.x1 - region.x0)
        pts[:, 1] = region.y0 + pts[:, 1] * (region.y1 - region.y0)
        pts[:, 2] = region.t0 + pts[:, 2] * (region.t1 - region.t0)
        worst = 1.0
        prev1 = prev2 = None
        for x, y, t in pts:
            cur1 = develop(s1, x, y, t, chart=chart)
            cur2 = develop(s2, x, y, t, chart=chart)
            if prev1 is not None:
                d1 = hyp_distance(prev1, cur1)
                d2 = hyp_distance(prev2, cur2)
                if d1 > 0.0 and d2 > 0.0:
                    r = d2 / d1
                    worst = max(worst, r, 1.0 / r)
            prev1, prev2 = cur1, cur2
        return worst

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([1, -1, 2]),
        delta=st.one_of(st.just(0.0), st.floats(-15.0, -3.0).map(lambda e: 10.0**e)),
        b=st.sampled_from([1j, 0.3 + 1.2j]),
        chart=st.sampled_from(["printed", "corrected"]),
        samples=st.integers(2, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    # blocks of ARRAY_BLOCK samples: the last point of one block pairs with the first of the next
    @example(k=1, delta=0.0, b=1j, chart="printed", samples=ARRAY_BLOCK + 3, seed=5)
    @example(k=2, delta=1e-9, b=0.3 + 1.2j, chart="corrected", samples=ARRAY_BLOCK + 1, seed=6)
    def test_matches_per_point_loop(self, k, delta, b, chart, samples, seed):
        # s1 on and near the pole locus a = 2*pi*i*k, s2 the cusp
        s1, s2 = EndParameter(TWO_PI_I * k + delta, b), EndParameter(0.0, b)
        got = estimate_bilipschitz(s1, s2, self.REGION, samples, seed=seed, chart=chart)
        want = self.per_point_reference(s1, s2, self.REGION, samples, seed, chart)
        assert abs(got - want) <= 1e-13 * want


class TestContinuityAtInfinity:
    def test_sequence_coordinates_exact(self):
        for b in (1j, 0.3 + 1.2j):
            for n in (1, 5, 25, 100):
                s = EndParameter(TWO_PI_I / (1 + n * b), b)
                c = filling_coordinates(s)
                assert abs(c.x - 1.0) < 1e-9 and abs(c.y - n) < 1e-9 * max(1, n)

    def test_raw_holonomy_distance_monotone(self):
        b = 1j
        cusp = [holonomy(EndParameter(0.0, b), 1, 0), holonomy(EndParameter(0.0, b), 0, 1)]
        dists = []
        for n in range(1, 101):
            s = EndParameter(TWO_PI_I / (1 + n * b), b)
            gens = [holonomy(s, 1, 0), holonomy(s, 0, 1)]
            dists.append(max(g.distance(c) for g, c in zip(gens, cusp)))
        tail = dists[4:]
        assert all(d2 < d1 for d1, d2 in zip(tail, tail[1:]))


class TestSerialization:
    def test_filling_coordinate_lossless(self):
        import json

        cases = [
            (FillingCoordinate.infinity(), {"type": "infinity"}),
            (FillingCoordinate.finite(-0.3, 1.7), {"type": "finite", "x": 0.3, "y": -1.7}),
        ]
        for c, payload in cases:
            assert c.to_dict() == payload
            assert json.loads(json.dumps(c.to_dict())) == payload

    def test_completion_lossless(self):
        import json

        cases = [
            (CompletionClass("cusp"), {"kind": "cusp"}),
            (CompletionClass("smooth", p=1, q=2, angle=2 * math.pi),
             {"kind": "smooth", "p": 1, "q": 2, "angle": 2 * math.pi}),
            (CompletionClass("cone", p=3, q=2, angle=1.234), {"kind": "cone", "p": 3, "q": 2, "angle": 1.234}),
            (CompletionClass("irrational"), {"kind": "irrational"}),
        ]
        for comp, payload in cases:
            assert comp.to_dict() == payload
            assert json.loads(json.dumps(comp.to_dict())) == payload


class TestTypes:
    def test_end_parameter_validation(self):
        with pytest.raises(ValueError):
            EndParameter(1.0, 1.0)  # real modulus
        with pytest.raises(ValueError):
            EndParameter(1.0, 1 - 1j)
        nan, inf = math.nan, math.inf
        for a, b, name in (
            (complex(nan, 1.0), 1j, "a"),
            (complex(1.0, inf), 1j, "a"),
            (1.0, complex(0.0, inf), "b"),
            (1.0, complex(nan, 1.0), "b"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                EndParameter(a, b)

    def test_filling_coordinate_validation(self):
        with pytest.raises(ValueError):
            FillingCoordinate.finite(0.0, 0.0)
        for x, y in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0), (math.nan, math.inf)):
            with pytest.raises(ValueError, match="must be finite numbers"):
                FillingCoordinate.finite(x, y)

    def test_overflowing_coordinates_rejected(self):
        # 2*pi*i/a overflows for |a| ~ 1e-310, giving x = nan, y = inf
        with pytest.raises(ValueError, match="must be finite numbers"):
            filling_coordinates(EndParameter(1e-310 * (1 + 1j), 1j))
        assert math.isfinite(filling_coordinates(EndParameter(1e-300 * (1 + 1j), 1j)).x)

    def test_completion_validation(self):
        with pytest.raises(ValueError):
            CompletionClass("cone", p=2, q=4, angle=1.0)
        with pytest.raises(ValueError):
            CompletionClass("nonsense")

    def test_region_validation(self):
        with pytest.raises(ValueError):
            EndRegion(0, 1, 0, 1, 0.5, 2.0)
        with pytest.raises(ValueError):
            EndRegion(1, 0, 0, 1, 1.0, 2.0)
