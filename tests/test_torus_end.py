"""Tests for cone structures on torus ends: charts, holonomy, filling data."""

import cmath
import dataclasses
import itertools
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnscope import torus_end
from dehnscope.config import ARRAY_BLOCK, RATIONAL_TOL
from dehnscope.filling_solver import solve_direct
from dehnscope.hypcore import (
    H3Point,
    MobiusTransform,
    apply_h3,
    classify,
    complex_translation_length,
    hyp_distance,
    length_distance,
)
from dehnscope.schwarzian_end import MobiusMap
from dehnscope.torus_end import (
    CompletionClass,
    DegenerateRegion,
    EndParameter,
    EndRegion,
    FillingCoordinate,
    ZeroA,
    _aligned_holonomy,
    _filling_arrays,
    _chart,
    canonical_sign_pair,
    classify_completion,
    complex_length,
    cross_section_length,
    develop,
    equivariance_residual,
    estimate_bilipschitz,
    filling_coordinates,
    holonomy,
    holonomy_representation,
    phi,
    z0_of,
)
from mp_reference import (
    DPS,
    mp_aligned_holonomy,
    mp_cross_section_length,
    mp_cancellation,
    mp_develop,
    mp_filling_xy,
    mp_holonomy,
    mp_khat,
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
        assert m.distance(MobiusTransform(1.0, 1.0, 0.0, 1.0)) < 1e-15

    def test_half_turn_generator(self):
        s = EndParameter(1j * math.pi, 1j)
        m = holonomy(s, 1, 0)
        assert abs(MobiusMap(m).value(0.5 + 0j) - 0.5) < 1e-12 and m.a21 == 0
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
            assert abs(MobiusMap(holonomy(s, 1, 0)).value(z0) - z0) <= 1e-12 * max(1.0, abs(z0))


ALIGNED_PHASE = st.floats(0.0, 2.0 * math.pi)
#: |a| log-uniform in [1e-12, 10], or a = 2*pi*i*k + delta next to the pole locus
ALIGNED_A = st.one_of(
    st.builds(lambda e, t: 10.0**e * cmath.exp(1j * t), st.floats(-12.0, 1.0), ALIGNED_PHASE),
    st.builds(
        lambda k, e, t: TWO_PI_I * k + 10.0**e * cmath.exp(1j * t),
        st.sampled_from([1, -1, 2, -2, 3]),
        st.floats(-15.0, -3.0),
        ALIGNED_PHASE,
    ),
)


class TestAlignedHolonomy:
    @settings(max_examples=200, deadline=None)
    @given(
        a=ALIGNED_A,
        b=st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.2, 2.0)),
        mn=st.sampled_from([(1, 0), (0, 1), (2, -1)]),
    )
    # |a| = 1e-12: an e^c - 1 formed by subtraction would keep only 4 digits
    @example(a=1e-12 * cmath.exp(0.3j), b=0.3 + 1.2j, mn=(0, 1))
    @example(a=2 * TWO_PI_I, b=1j, mn=(1, 0))
    def test_matches_60_digit_reference(self, a, b, mn):
        got = _aligned_holonomy(EndParameter(a, b), *mn).entries()
        ref = mp_aligned_holonomy(a, b, *mn)
        want = [complex(ref[i, j]) for i in (0, 1) for j in (0, 1)]
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13 * scale

    @pytest.mark.parametrize("mn", [(1, 0), (0, 1), (2, -1)])
    def test_cusp_holonomy_at_zero(self, mn):
        s = EndParameter(0.0, 0.3 + 1.2j)
        assert _aligned_holonomy(s, *mn).distance(holonomy(s, *mn)) == 0.0


def composed_residual(s, generator, x, y, t, chart):
    """equivariance_residual composed from develop, holonomy and apply_h3, as it was once written."""
    if generator == 1:
        shifted = develop(s, x + 1.0, y, t, chart=chart)
        rho = holonomy(s, 1, 0)
    elif generator == 2:
        shifted = develop(s, x, y + 1.0, t, chart=chart)
        rho = holonomy(s, 0, 1)
    else:
        raise ValueError("generator index must be 1 or 2")
    mapped = apply_h3(rho, develop(s, x, y, t, chart=chart))
    return math.hypot(abs(shifted.z - mapped.z), shifted.t - mapped.t)


def bits(*values) -> bytes:
    """The IEEE bytes of complex values, so that -0.0, 0.0 and NaN payloads are told apart."""
    return struct.pack(f"<{2 * len(values)}d", *(p for v in values for p in (complex(v).real, complex(v).imag)))


def outcome(call, *args):
    """The bytes of a call's residual, or its error's type and message."""
    try:
        return bits(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


#: a = 0, a = 2*pi*i*k + delta with delta = 0 or |delta| log-uniform in [1e-15, 1e-3], or a off the locus
EQUIVARIANCE_A = st.one_of(
    st.just(0j),
    st.builds(
        lambda k, e, t: TWO_PI_I * k + (0.0 if e is None else 10.0**e * cmath.exp(1j * t)),
        st.sampled_from([1, -1, 2, -2, 3]),
        st.none() | st.floats(-15.0, -3.0),
        ALIGNED_PHASE,
    ),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-7.0, 7.0)),
)
END_B = st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.2, 2.0))
CHART_POINT = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1.0, 3.0))


class TestEquivarianceOnCoordinates:
    """equivariance_residual on (z, t) pairs and kept constants, against the public composition."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        a=EQUIVARIANCE_A,
        b=END_B,
        points=st.lists(CHART_POINT, min_size=1, max_size=4),
        chart=st.sampled_from(["printed", "corrected"]),
        gen=st.sampled_from([1, 2]),
    )
    @example(a=0j, b=1j, points=[(0.3, -0.2, 1.5)], chart="printed", gen=2)
    @example(a=TWO_PI_I + 5e-14, b=0.3 + 1.2j, points=[(-0.0, -0.0, 1.0)], chart="corrected", gen=1)
    def test_bits_match_the_composition(self, a, b, points, chart, gen):
        s = EndParameter(a, b)  # kept constants from the first point on
        for x, y, t in points:
            got = equivariance_residual(s, gen, x, y, t, chart=chart)
            assert bits(got) == bits(composed_residual(EndParameter(a, b), gen, x, y, t, chart))

    @pytest.mark.parametrize(
        "a, gen, point, chart",
        [
            (0.7 + 0.4j, 1, (0.2, 0.3, 0.5), "corrected"),  # t < 1
            (0j, 2, (0.2, 0.3, 0.999), "printed"),
            (0.7 + 0.4j, 3, (0.2, 0.3, 1.5), "corrected"),  # no such generator, checked before t
            (0.7 + 0.4j, 0, (0.2, 0.3, 0.5), "corrected"),
            (-800.0, 1, (0.2, 0.3, 1.5), "corrected"),  # e^{-800 (x + 1)} underflows: height 0
            (-800.0, 2, (0.95, 0.3, 1.5), "printed"),
            (0.7 + 0.4j, 1, (0.2, 0.3, math.inf), "corrected"),
            (0.7 + 0.4j, 2, (math.nan, 0.3, 1.5), "corrected"),
            (0.7 + 0.4j, 1, (0.2, 0.3, 1.5), "bogus"),
        ],
    )
    def test_errors_match_the_composition(self, a, gen, point, chart):
        want = outcome(composed_residual, EndParameter(a, 1j), gen, *point, chart)
        assert isinstance(want, tuple)
        assert outcome(equivariance_residual, EndParameter(a, 1j), gen, *point, chart) == want

    @pytest.mark.parametrize("image, message", [((math.nan, 1.0), "z must be finite"), ((0j, 0.0), "height t")])
    def test_mapped_point_is_checked(self, monkeypatch, image, message):
        # no holonomy image found leaves H^3 after both developed points passed, so the kernel is replaced
        monkeypatch.setattr(torus_end, "_poincare", lambda m, z, t: image)
        with pytest.raises(ValueError, match=message):
            equivariance_residual(EndParameter(0.7 + 0.4j, 1j), 1, 0.2, 0.3, 1.5)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=EQUIVARIANCE_A, b=END_B, point=CHART_POINT)
    def test_kept_constants_change_no_bit(self, a, b, point):
        used, x, y, t = EndParameter(a, b), *point
        for gen in (1, 2):
            equivariance_residual(used, gen, x, y, t)
        for m in range(-2, 3):
            for n in range(-2, 3):
                assert bits(*holonomy(used, m, n).entries()) == bits(*holonomy(EndParameter(a, b), m, n).entries())
        fresh = holonomy_representation(EndParameter(a, b))
        assert [bits(*g.entries()) for g in holonomy_representation(used)] == [bits(*g.entries()) for g in fresh]
        for chart in ("printed", "corrected"):
            p, q = develop(used, x, y, t, chart), develop(EndParameter(a, b), x, y, t, chart)
            assert bits(p.z, p.t) == bits(q.z, q.t)
        if a != 0:
            assert bits(phi(used, x, y)) == bits(phi(EndParameter(a, b), x, y))


class TestKeptConstants:
    """1 - e^a and the generator images, computed once per parameter: counted, and invisible."""

    def test_forty_residuals_compute_each_constant_once(self, monkeypatch):
        dens, images = [], []
        affine_den, hol = torus_end._affine_den, torus_end.holonomy

        def counting_den(a):
            dens.append(a)
            return affine_den(a)

        def counting_holonomy(s, m, n):
            images.append((m, n))
            return hol(s, m, n)

        monkeypatch.setattr(torus_end, "_affine_den", counting_den)
        monkeypatch.setattr(torus_end, "holonomy", counting_holonomy)
        s = EndParameter(0.7 + 0.4j, 0.5 + 1j)
        rng = np.random.default_rng(19)
        for k in range(40):
            x, y, t = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.0)
            equivariance_residual(s, 1 + k % 2, x, y, t)
        assert dens == [s.a] and images == [(1, 0), (0, 1)]
        develop(s, 0.3, 0.4, 1.5)
        assert dens == [s.a] and images == [(1, 0), (0, 1)]

    def test_holonomies_keep_only_the_denominator(self):
        # a parameter built for one holonomy_representation, as in a filling solve, computes no image twice
        s = EndParameter(0.7 + 0.4j, 0.5 + 1j)
        holonomy_representation(s)
        holonomy(s, 2, -1)
        assert vars(s).keys() == {"a", "b", "_den"}
        equivariance_residual(s, 1, 0.3, 0.4, 1.5)
        assert vars(s).keys() == {"a", "b", "_den", "_rho1"}

    def test_an_image_that_overflows_keeps_nothing(self):
        # e^{a b} = e^{800 + i} overflows in rho(g2) only; rho(g1) is still computed, and rho(g2) raises again
        s = EndParameter(1.0, 800.0 + 1j)
        for _ in range(2):
            with pytest.raises(OverflowError):
                s._rho2
            assert math.isfinite(equivariance_residual(s, 1, 0.3, 0.0, 1.5))
        assert "_rho2" not in vars(s)

    def test_nothing_is_computed_at_the_cusp(self, monkeypatch):
        dens = []
        monkeypatch.setattr(torus_end, "_affine_den", lambda a: dens.append(a))
        s = EndParameter(0.0, 1j)
        for gen in (1, 2):
            assert equivariance_residual(s, gen, 0.3, 0.4, 1.5) == 0.0
        assert dens == []

    def test_kept_constants_are_invisible(self):
        fresh, used = EndParameter(0.8 + 0.1j, 0.5 + 1.5j), EndParameter(0.8 + 0.1j, 0.5 + 1.5j)
        for _ in range(2):
            assert fresh == used and hash(fresh) == hash(used)
            assert repr(fresh) == repr(used) == "EndParameter(a=(0.8+0.1j), b=(0.5+1.5j))"
            equivariance_residual(used, 2, 0.3, 0.4, 1.5)
        moved = dataclasses.replace(used, a=-0.3 + 1.1j)
        again = EndParameter(-0.3 + 1.1j, 0.5 + 1.5j)
        assert moved == again
        assert bits(*holonomy(moved, 0, 1).entries()) == bits(*holonomy(again, 0, 1).entries())
        assert equivariance_residual(moved, 1, 0.3, 0.4, 1.5) == equivariance_residual(again, 1, 0.3, 0.4, 1.5)


U = 2.0**-53
#: a off the pole locus, within the range the 60-digit oracles below are drawn from
ORACLE_A = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-7.0, 7.0)).filter(lambda a: abs(1 - cmath.exp(a)) > 1e-6)
ORACLE_MN = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda mn: mn != (0, 0))


class TestPrintedFrameOracle:
    """holonomy and develop on parameters with kept constants, against 60-digit references.

    Both bounds follow the cancellation in (1 - e^c)/(1 - e^a).  With c = a(m + bn),
    L = |a|(|m| + |n||b|) bounds the rounding of c, and 1 - e^c and 1 - e^a
    amplify a relative error e^c (1 + eps) by |e^c|/|1 - e^c| and |e^a|/|1 - e^a|.
    Counting a few roundings per operation, every holonomy entry is within
        16 u (1 + L) (1 + |e^c|/|1 - e^c| + |e^a|/|1 - e^a|)
    of the reference entry, relative, with u = 2^-53; develop is within
        32 u (1 + |x||a| + |y||a||b| + |e^a|/|1 - e^a|)
    times |z0| + |phi| for z and times t' for the height, as phi = -z0 e^{xa + yab}.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=ORACLE_A, b=END_B, mn=ORACLE_MN)
    @example(a=0j, b=0.3 + 1.2j, mn=(2, -1))
    @example(a=1e-6 + TWO_PI_I, b=1j, mn=(1, 0))
    def test_holonomy(self, a, b, mn):
        s = EndParameter(a, b)
        holonomy_representation(s)
        got = holonomy(s, *mn).entries()
        want = mp_holonomy(a, b, *mn)
        with mpmath.workdps(DPS):
            if a == 0:
                amplify = 1.0
            else:
                ec, ea = mpmath.exp(mpmath.mpc(a) * (mn[0] + mpmath.mpc(b) * mn[1])), mpmath.exp(mpmath.mpc(a))
                amplify = float(1 + abs(ec) / abs(1 - ec) + abs(ea) / abs(1 - ea))
            rel = 16 * U * (1 + abs(a) * (abs(mn[0]) + abs(mn[1]) * abs(b))) * amplify
            for g, w in zip(got, want):
                assert float(abs(g - w)) <= rel * float(abs(w))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=ORACLE_A, b=END_B, point=CHART_POINT, chart=st.sampled_from(["printed", "corrected"]))
    def test_develop(self, a, b, point, chart):
        s, (x, y, t) = EndParameter(a, b), point
        equivariance_residual(s, 1, x, y, t)
        p = develop(s, x, y, t, chart)
        with mpmath.workdps(DPS):
            z, h = mp_develop(s, x, y, t, chart)
            ea = mpmath.exp(mpmath.mpc(a))
            z0 = 1 / (1 - ea)
            ph = abs(z0 * mpmath.exp(x * mpmath.mpc(a) + y * mpmath.mpc(a) * mpmath.mpc(b)))
            rel = 32 * U * float(1 + abs(x * a) + abs(y * a) * abs(b) + abs(ea) / abs(1 - ea))
            assert float(abs(p.z - z)) <= rel * float(abs(z0) + ph)
            assert float(abs(p.t - h)) <= rel * float(h)


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

    def test_rational_direction_with_a_translation_part_is_undetermined(self):
        # (x, y) = (1, 1 + 5e-10) reads as the direction (1, 1), but with b near -1
        # the length a(1 + b) of that class keeps a real part of 5e-7 of its modulus
        b = -1 + 1e-3j
        a = TWO_PI_I / (1 + b * (1 + 5e-10))
        ell = a * (1 + b)
        assert abs(ell.real) > RATIONAL_TOL * abs(ell)
        assert classify_completion(EndParameter(a, b)).kind == "undetermined"

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, 0.0, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance used to classify the smooth (1, 0) filling as a cone
        with pytest.raises(ValueError, match="rational_tolerance must be positive and finite"):
            classify_completion(EndParameter(TWO_PI_I, 1j), tol, 100)

    @pytest.mark.parametrize("max_denominator", [0, -3])
    def test_bad_max_denominator_rejected(self, max_denominator):
        with pytest.raises(ValueError, match="max denominator must be >= 1"):
            classify_completion(EndParameter(TWO_PI_I, 1j), 1e-9, max_denominator)

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

    def test_exact_rational_directions(self):
        """Every coprime (p, q) with |p|, |q| <= 50 at the scales g = 1, 2, 3, 3/2 against the exact answer.

        s = solve_direct(b, gp, gq) fills the class (p, q) with cone angle 2 pi / g, smooth at g = 1,
        and the coordinates gp, gq are exact floats.  To first order in u = 2^-53:
        - c = x + by rounds by u (|b| |y| + |c|), and a = 2 pi i / c adds u/2 for pi and 5u for the
          quotient, so a is within e_a = 11u/2 + u (|b| |y| + |c|) / |c| of exact, relative;
        - filling_coordinates divides the same float 2 pi i by a, so w = 2 pi i / a is within
          E = u (11 |c| + |b| |y|) of c; y = Im w / Im b is within E / Im b + u |y| and
          x = Re w - Re b y within E + |Re b| err(y) + u (|Re b y| + |x|);
        - the ratio r of the smaller to the larger coordinate is then within
          (err(smaller) + r err(larger)) / |larger| + u r, and the convergent den / num = r with
          den <= 50 scores that times den^2.  Below RATIONAL_TOL it is the best-scoring one, as a
          second convergent n' / d' scoring below the tolerance would need
          1 / (d d') <= RATIONAL_TOL (1 / d^2 + 1 / d'^2), false for d' <= MAX_DENOMINATOR;
        - the length a (p + bq) is within e_a + u (|b| |q| + |p + bq|) / |p + bq| + sqrt 5 u of
          2 pi i / g, relative, which bounds both its real part and the angle error.
        b is drawn with |Re b| <= 2 and Im b >= 1/2, where the score bound stays below 1e-10.
        The scaled directions (1, sqrt 2) g are irrational: the convergents of 1 / sqrt 2 score
        near 1 / (2 sqrt 2), far above 100 RATIONAL_TOL.
        """
        u = 2.0**-53
        rng = np.random.default_rng(25)
        for p, q in itertools.product(range(-50, 51), repeat=2):
            if math.gcd(p, q) != 1:
                continue
            b = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
            for g in (1.0, 2.0, 3.0, 1.5):
                x, y = g * p, g * q
                c = x + b * y
                e_a = 5.5 * u + u * (abs(b) * abs(y) + abs(c)) / abs(c)
                e_w = u * (11 * abs(c) + abs(b) * abs(y))
                err_y = e_w / b.imag + u * abs(y)
                err_x = e_w + abs(b.real) * err_y + u * (abs(b.real * y) + abs(x))
                (small, err_s), (large, err_l) = sorted(((x, err_x), (y, err_y)), key=lambda v: abs(v[0]))
                r = abs(small / large)
                score = ((err_s + r * err_l) / abs(large) + u * r) * (abs(large) / g) ** 2
                assert score <= 0.1 * RATIONAL_TOL
                got = classify_completion(solve_direct(b, x, y))
                assert (got.kind, got.p, got.q) == ("smooth" if g == 1 else "cone", *canonical_sign_pair(p, q))
                e_ell = e_a + u * (abs(b) * abs(q) + abs(p + b * q)) / abs(p + b * q) + math.sqrt(5.0) * u
                assert abs(got.angle - 2 * math.pi / g) <= e_ell * 2 * math.pi / g
        for g in (1.0, 2.0, 3.0, 1.5):
            for _ in range(25):
                b = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
                assert classify_completion(solve_direct(b, g, g * math.sqrt(2.0))).kind == "irrational"

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


def far_from_underflow(lo: float, hi: float):
    """Floats in [lo, hi] that are 0 or above 1e-150 in size, so that the rounding bounds below stay relative."""
    return st.floats(lo, hi).filter(lambda v: v == 0 or abs(v) > 1e-150)


#: a away from the cusp, over several turns of 2*pi*i; the filling coordinates are 2*pi*i/a over x + by
ORACLE_FILL_A = st.builds(complex, far_from_underflow(-7.0, 7.0), far_from_underflow(-20.0, 20.0)).filter(
    lambda a: abs(a) > 1e-3
)

#: (a, b) samples for the array filling coordinates: random a, a = 2*pi*i/(x + by) for coordinates
#: (x, y) up to 1e12 (near the cusp) or with x near 0, and a near or on the pole locus 2*pi*i*k
FILL_SAMPLES = st.one_of(
    st.tuples(ORACLE_FILL_A, END_B),
    st.tuples(
        st.one_of(far_from_underflow(-1e-14, 1e-14), far_from_underflow(-1e12, 1e12)),
        far_from_underflow(-1e12, 1e12),
        END_B,
    )
    .filter(lambda xyb: xyb[:2] != (0, 0))
    .map(lambda xyb: (TWO_PI_I / (xyb[0] + xyb[2] * xyb[1]), xyb[2])),
    st.builds(
        lambda k, d, b: (TWO_PI_I * k + d, b),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.builds(complex, far_from_underflow(-1e-6, 1e-6), far_from_underflow(-1e-6, 1e-6)),
        END_B,
    ),
)


class TestFillingOracle:
    """filling_coordinates against the 60-digit mp_filling_xy.

    w = 2*pi*i/a has a zero real numerator, so CPython's complex division forms each part of
    w by products and quotients of the parts of a and a sum of two terms of one sign, without
    cancellation: each part is within 7 u of exact, relative, with the rounding of 2*pi and
    u = 2^-53.  y = Im w / Im b adds one rounding, so |y - y_ref| <= 8 u |y_ref|.
    x = Re w - Re b y can cancel; its error is at most that of the two terms and of the
    difference, 7 u |Re w| + 9 u |Re b||y| + u |x|, so with |x| <= |Re w| + |Re b||y|
        |x - x_ref| <= 16 u (|2 pi i/a| + |Re b||y|).
    The sign of the reference is matched to the canonical sign of the result.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=ORACLE_FILL_A, b=END_B)
    @example(a=TWO_PI_I, b=1j)
    @example(a=TWO_PI_I / (1 + 1e-12j), b=0.9 + 1.1j)
    def test_filling_coordinates(self, a, b):
        got = filling_coordinates(EndParameter(a, b))
        x, y = mp_filling_xy(a, b)
        if x * got.x + y * got.y < 0:
            x, y = -x, -y
        assert float(abs(got.y - y)) <= 8 * U * float(abs(y))
        assert float(abs(got.x - x)) <= 16 * U * (abs(2j * math.pi / a) + abs(b.real) * float(abs(y)))


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(samples=st.lists(FILL_SAMPLES, min_size=1, max_size=8))
    @example(samples=[(TWO_PI_I, 1j), (0j, 1j), (TWO_PI_I / (0.3 + 0.9j), 0.3 + 0.9j), (1e-12 + 0j, 0.5 + 1j)])
    def test_arrays_match_scalar(self, samples):
        """_filling_arrays against filling_coordinates, sample by sample, with the bound derived from _filling_xy.

        w = 2*pi*i/a has a zero real numerator.  CPython divides by the one-signed sum
        d = a_r + a_i r, r = a_i / a_r (or with the parts swapped), so each part of w is within 6 u
        of the quotient of the same 2*pi*i, relative; numpy multiplies by the rounded 1/d, within
        7 u.  The two parts are within 13 u of each other, and y = Im w / Im b, rounded once more
        in each, within 15 u |y|.  x = Re w - Re b y can cancel, so its bound is absolute in the
        summands: 13 u |Re w| from w, 17 u |Re b y| from the products, and u |x| <= u (|Re w| +
        |Re b y|) from each subtraction, so |x_array - x| <= 15 u |Re w| + 19 u |Re b| |y|.  Where
        |x| is within that bound of 0 the canonical sign can go either way, so the comparison is
        up to +-.  At a = 0 both give the cusp.
        """
        a, b = (np.array(v, dtype=complex) for v in zip(*samples))
        cusp, xs, ys = _filling_arrays(a, b)
        for (ak, bk), at_cusp, x, y in zip(samples, cusp.tolist(), xs.tolist(), ys.tolist()):
            want = filling_coordinates(EndParameter(ak, bk))
            assert at_cusp == want.infinite
            if at_cusp:
                continue
            bound_x = 15 * U * abs((TWO_PI_I / ak).real) + 19 * U * abs(bk.real) * abs(want.y)
            if abs(want.x) <= bound_x and abs(x + want.x) + abs(y + want.y) < abs(x - want.x) + abs(y - want.y):
                x, y = -x, -y
            assert abs(x - want.x) <= bound_x
            assert abs(y - want.y) <= 15 * U * abs(want.y)

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
        for eps in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="tube radius must be positive"):
                cross_section_length(EndParameter(1.0, 1j), 1.0, 0.0, eps)


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        a=ORACLE_FILL_A,
        b=END_B,
        xy=st.tuples(far_from_underflow(-3.0, 3.0), far_from_underflow(-3.0, 3.0)),
        eps=st.floats(1e-3, 5.0),
    )
    def test_matches_60_digit_oracle(self, a, b, xy, eps):
        """cross_section_length against mp_cross_section_length.

        x + by is formed within 2 u (|x| + |b||y|) per part and l = a(x + by) within
        4 u |a|(|x| + |b||y|) per part, u = 2^-53.  hypot(Re l cosh eps, Im l sinh eps)
        moves by at most cosh eps times the error of l, and the roundings of cosh, sinh,
        the two products and hypot add a few u of the length, which is at most
        |l| cosh eps <= |a|(|x| + |b||y|) cosh eps.  Together the length is within
            16 u |a|(|x| + |b||y|) cosh eps.
        """
        (x, y), s = xy, EndParameter(a, b)
        want = mp_cross_section_length(a, b, x, y, eps)
        bound = 16 * U * abs(a) * (abs(x) + abs(b) * abs(y)) * math.cosh(eps)
        assert float(abs(cross_section_length(s, x, y, eps) - want)) <= bound


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
        for region in (
            EndRegion(0.0, 0.0, 0.0, 1.0, 1.0, 2.0),
            EndRegion(0.0, 1.0, 0.5, 0.5, 1.0, 2.0),
            EndRegion(0.0, 1.0, 0.0, 1.0, 2.0, 2.0),
        ):
            with pytest.raises(DegenerateRegion):
                estimate_bilipschitz(EndParameter(1.0, 1j), EndParameter(0.5, 1j), region, 10, seed=0)
        for samples in (1, 0):
            with pytest.raises(ValueError, match="need at least two samples"):
                estimate_bilipschitz(EndParameter(1.0, 1j), EndParameter(0.5, 1j), self.REGION, samples)

    def test_tiny_sides_are_not_degenerate(self):
        # the product of the sides underflows to 0.0, but no side is 0
        region = EndRegion(0.0, 1e-200, 0.0, 1e-200, 1.0, 2.0)
        k = estimate_bilipschitz(EndParameter(0.1 + 0.6j, 1j), EndParameter(0.0, 1j), region, 20)
        assert math.isfinite(k) and k >= 1.0

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
                d1, d2 = hyp_distance(prev1, cur1), hyp_distance(prev2, cur2)
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

    @staticmethod
    def region_samples(region, samples, seed):
        """The (x, y, t) arrays of one draw of all samples, as estimate_bilipschitz draws them."""
        lo = np.array([region.x0, region.y0, region.t0])
        span = np.array([region.x1 - region.x0, region.y1 - region.y0, region.t1 - region.t0])
        return (lo + np.random.default_rng(seed).uniform(size=(samples, 3)) * span).T

    @classmethod
    def array_charts(cls, s1, s2, region, samples, seed, chart):
        """Both charts on arrays of all samples, as the sweep develops them, each as a list of (z, t) points."""
        x, y, t = cls.region_samples(region, samples, seed)
        return [list(zip(*(v.tolist() for v in _chart(s, x, y, t, chart)))) for s in (s1, s2)]

    @classmethod
    def pairwise_reference(cls, s1, s2, region, samples, seed, chart):
        """The charts of array_charts, then hyp_distance on every consecutive pair."""
        d1, d2 = (
            [hyp_distance(H3Point(*p), H3Point(*q)) for p, q in zip(dev[:-1], dev[1:])]
            for dev in cls.array_charts(s1, s2, region, samples, seed, chart)
        )
        ratios = [e2 / e1 for e1, e2 in zip(d1, d2) if e1 > 0.0 and e2 > 0.0]
        return max([1.0] + ratios + [1.0 / r for r in ratios])

    TINY = EndRegion(0.3, 0.3 + 1e-9, 0.6, 0.6 + 1e-9, 1.5, 1.5 + 1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a1=st.one_of(
            st.builds(lambda k, delta: TWO_PI_I * k + delta, st.sampled_from([1, -1, 2]), st.sampled_from([0.0, 1e-9])),
            st.builds(complex, st.floats(-3.0, 3.0), st.floats(-8.0, 8.0)),
        ),
        a2=st.one_of(st.just(None), st.just(0j), st.builds(complex, st.floats(-3.0, 3.0), st.floats(-8.0, 8.0))),
        b=st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.3, 2.0)),
        chart=st.sampled_from(["printed", "corrected"]),
        tiny=st.booleans(),
        samples=st.integers(2, ARRAY_BLOCK + 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # a2 = None is s2 = s1: every ratio is 1
    @example(a1=TWO_PI_I, a2=None, b=1j, chart="printed", tiny=False, samples=ARRAY_BLOCK + 3, seed=1)
    @example(a1=0.1 + 0.6j, a2=0j, b=1j, chart="corrected", tiny=False, samples=ARRAY_BLOCK + 1, seed=2)
    # a box 1e-9 wide, where acosh(1 + q) rounded every cosh to 1 and dropped every pair
    @example(a1=0.1 + 0.6j, a2=0j, b=1j, chart="printed", tiny=True, samples=500, seed=3)
    def test_matches_hyp_distance_on_every_pair(self, a1, a2, b, chart, tiny, samples, seed):
        """estimate_bilipschitz is the worst ratio of hyp_distance over the consecutive pairs of its own charts.

        Both take the root 2 sqrt(t_p) sqrt(t_q) with the same roundings and the same
        coordinate differences, so they approximate the same X = |p - q| / root; u = 2^-53.
        The sweep rounds each of the three quotients by u, each square adds u to the 2u it
        inherits, and the two sums of non-negative terms add u each: the sum of squares is
        within 5u and its root within 3.5u of X.  hyp_distance's modulus and hypot are
        within an ulp (2u) each and its quotient adds u: within 5u.  asinh(X) X' / asinh(X)
        <= 1, so the two arguments, 8.5u apart, move d by at most 8.5u, and np.arcsinh and
        math.asinh within 2 ulps (4u) each make the two distances at most 16.5u apart,
        relative.  A ratio of two such distances moves by 33u, its quotient adds u on each
        side and its reciprocal another u on each side: 37u, so the bound is 40u.
        """
        s1 = EndParameter(a1, b)
        s2 = s1 if a2 is None else EndParameter(a2, b)
        region = self.TINY if tiny else self.REGION
        got = estimate_bilipschitz(s1, s2, region, samples, seed=seed, chart=chart)
        want = self.pairwise_reference(s1, s2, region, samples, seed, chart)
        assert abs(got - want) <= 40 * 2.0**-53 * want

    @pytest.mark.parametrize("chart", ["printed", "corrected"])
    def test_tiny_box_matches_40_digit_reference(self, chart):
        """On the 1e-9 box the result is the 40-digit value, within what the chart's own rounding carries.

        The developed points agree in their leading 9 digits, so the chart's last-bit
        roundings are amplified into the distances: mp_cancellation bounds that, per
        parameter, as eps_1 and eps_2 to first order.  A ratio moves by at most
        eps_1 + eps_2 from it, plus the 40u of test_matches_hyp_distance_on_every_pair;
        the second-order terms are below (eps_1 + eps_2)^2, well under 1% of the bound.
        acosh(1 + q) read 1.0 here, as every cosh rounded to 1.
        """
        s1, s2 = EndParameter(0.1 + 0.6j, 1j), EndParameter(0.0, 1j)
        x, y, t = self.region_samples(self.TINY, 500, 3)
        with mpmath.workdps(40):
            exact = [[mp_develop(s, *p, chart) for p in zip(x.tolist(), y.tolist(), t.tolist())] for s in (s1, s2)]
            want = mp_khat(exact)
        rounded = self.array_charts(s1, s2, self.TINY, 500, 3, chart)
        eps = sum(float(mp_cancellation(e, r)) for e, r in zip(exact, rounded))
        got = estimate_bilipschitz(s1, s2, self.TINY, 500, seed=3, chart=chart)
        assert got > 1.5
        assert abs(got - float(want)) <= (1.01 * eps + 40 * 2.0**-53) * float(want)

    @pytest.mark.parametrize(
        "s1, s2, samples, seed, chart",
        [
            (EndParameter(TWO_PI_I / (1 + 10j), 1j), EndParameter(0.0, 1j), 300, 0, "printed"),
            (EndParameter(0.1 + 0.6j, 1j), EndParameter(0.0, 1j), 200, 7, "printed"),
            (EndParameter(0.5 + 0.5j, 0.3 + 1.2j), EndParameter(0.3 + 0.8j, 0.3 + 1.2j), 200, 4, "corrected"),
        ],
    )
    def test_matches_30_digit_reference(self, s1, s2, samples, seed, chart):
        x, y, t = self.region_samples(self.REGION, samples, seed)
        with mpmath.workdps(30):
            pts = [[mp_develop(s, *p, chart) for p in zip(x.tolist(), y.tolist(), t.tolist())] for s in (s1, s2)]
            want = mp_khat(pts)
        got = estimate_bilipschitz(s1, s2, self.REGION, samples, seed=seed, chart=chart)
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
    """The CLI's payloads of the coordinate and completion results."""

    def test_filling_coordinate_lossless(self):
        import json

        from dehnscope.cli import _coordinate_payload

        cases = [
            (FillingCoordinate.infinity(), {"type": "infinity"}),
            (FillingCoordinate.finite(-0.3, 1.7), {"type": "finite", "x": 0.3, "y": -1.7}),
        ]
        for c, payload in cases:
            assert _coordinate_payload(c) == payload
            assert json.loads(json.dumps(_coordinate_payload(c))) == payload

    def test_completion_lossless(self):
        import json

        from dehnscope.cli import _completion_payload

        cases = [
            (CompletionClass("cusp"), {"kind": "cusp"}),
            (CompletionClass("smooth", p=1, q=2, angle=2 * math.pi),
             {"kind": "smooth", "p": 1, "q": 2, "angle": 2 * math.pi}),
            (CompletionClass("cone", p=3, q=2, angle=1.234), {"kind": "cone", "p": 3, "q": 2, "angle": 1.234}),
            (CompletionClass("irrational"), {"kind": "irrational"}),
        ]
        for comp, payload in cases:
            assert _completion_payload(comp) == payload
            assert json.loads(json.dumps(_completion_payload(comp))) == payload


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
        for kind in ("smooth", "cone"):
            for angle in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="cone angle must be positive"):
                    CompletionClass(kind, p=1, q=0, angle=angle)
        with pytest.raises(ValueError):
            CompletionClass("nonsense")

    def test_region_validation(self):
        with pytest.raises(ValueError):
            EndRegion(0, 1, 0, 1, 0.5, 2.0)
        with pytest.raises(ValueError):
            EndRegion(1, 0, 0, 1, 1.0, 2.0)
        for bounds in (
            (-1e308, 1e308, 0, 1, 1.0, 2.0),
            (0, 1, -math.inf, 1, 1.0, 2.0),
            (0, 1, 0, 1, 1.0, math.inf),
            (0, 1, -1e308, 1e308, 1.0, 2.0),
        ):
            with pytest.raises(ValueError, match="region bounds must be finite, and so must its sides"):
                EndRegion(*bounds)
