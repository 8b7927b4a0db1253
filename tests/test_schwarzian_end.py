"""Tests for the Schwarzian machinery and the osculating end extension."""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dehnscope import schwarzian_end
from dehnscope.cochain import strain
from dehnscope.config import CRITICAL_TOL
from dehnscope.hypcore import H3Point, MobiusTransform, apply_h3, hyp_distance
from mp_reference import (
    DPS,
    mp_foot_point,
    mp_framed_point,
    mp_hyp_distance,
    mp_jets,
    mp_osculating_mobius,
    mp_schwarzian_norm,
    mp_theta,
)

from dehnscope.schwarzian_end import (
    Compose,
    CriticalPoint,
    GridSpec,
    IdentityMap,
    LogMap,
    MobiusMap,
    NonFiniteSchwarzian,
    NumericMap,
    PowerMap,
    SquareMap,
    StepTooLarge,
    WrongSide,
    foot_point,
    framed_point,
    injectivity_depth,
    jacobian_check,
    osculating_mobius,
    parse_map,
    schwarzian,
    schwarzian_grid,
    schwarzian_norm,
    theta,
)

TEST_MOBIUS = MobiusTransform.from_entries(2.0, 1.0, 1.0, 1.0)
U = 2.0**-53
#: the spacing of the subnormal floats, the absolute error of a rounding that underflows
SUBNORMAL = 2.0**-1074


class _InfiniteSlope(IdentityMap):
    """The identity's jets with f' = inf, on numbers and arrays."""

    def jets(self, z):
        rest = super().jets(z)
        next(rest)
        yield np.full_like(z, complex(math.inf, 0.0)) if isinstance(z, np.ndarray) else complex(math.inf, 0.0)
        yield from rest
CATALOG = [SquareMap(), LogMap(), PowerMap(1.7), PowerMap(0.5 + 0.2j)]


def sample_points(rng, count=12):
    return [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5)) for _ in range(count)]


class TestSchwarzian:
    def test_mobius_annihilation(self):
        rng = np.random.default_rng(1)
        for z in sample_points(rng):
            assert abs(schwarzian(MobiusMap(TEST_MOBIUS), z)) < 1e-12
            assert abs(schwarzian(IdentityMap(), z)) < 1e-15

    def test_square_closed_form(self):
        rng = np.random.default_rng(2)
        for z in sample_points(rng):
            assert abs(schwarzian(SquareMap(), z) - (-3.0 / (2.0 * z * z))) < 1e-12

    def test_log_closed_form(self):
        rng = np.random.default_rng(3)
        for z in sample_points(rng):
            assert abs(schwarzian(LogMap(), z) - 1.0 / (2.0 * z * z)) < 1e-12

    def test_power_closed_form(self):
        c = 1.7
        rng = np.random.default_rng(4)
        for z in sample_points(rng):
            expect = (1.0 - c * c) / (2.0 * z * z)
            assert abs(schwarzian(PowerMap(c), z) - expect) < 1e-12

    @pytest.mark.parametrize("z", [1j, 1 + 1j, -1 + 0.5j])
    def test_non_finite_value_raises(self, z):
        # z^(1e308): at |z| = 1 the jets are finite and SC is NaN; elsewhere a jet overflows
        with pytest.raises(NonFiniteSchwarzian, match="not finite"):
            schwarzian(PowerMap(1e308), z)
        with pytest.raises(NonFiniteSchwarzian):
            injectivity_depth(PowerMap(1e308), GridSpec(z.real, z.real, 1, z.imag, z.imag, 1))

    def test_overflowing_schwarzian_of_finite_jets_raises(self):
        # z^1.05 near 0: the three jets are finite, but the third over the first overflows
        with pytest.raises(NonFiniteSchwarzian, match=r"is not finite: \(inf"):
            schwarzian(PowerMap(1.05), 1e-155j)

    def test_infinite_slope_raises_on_every_path(self):
        # f' = inf with f'' = f''' = 0 gives SC = 0 in floating point; the jet guard
        # rejects it, and the grid sweep redoes such an entry by the scalar path
        f = _InfiniteSlope()
        with pytest.raises(NonFiniteSchwarzian, match="not finite"):
            schwarzian(f, 1j)
        with pytest.raises(NonFiniteSchwarzian, match="not finite"):
            osculating_mobius(f, 1j)
        with pytest.raises(NonFiniteSchwarzian):
            injectivity_depth(f, GridSpec(-1.0, 1.0, 3, 0.5, 1.5, 3))

    def test_post_mobius_invariance(self):
        rng = np.random.default_rng(5)
        for f in CATALOG:
            for z in sample_points(rng, 6):
                lhs = schwarzian(Compose(MobiusMap(TEST_MOBIUS), f), z)
                assert abs(lhs - schwarzian(f, z)) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        pair=st.sampled_from(
            [("square", "log"), ("power", "log"), ("square", "power"), ("log", "power"), ("power", "square")]
        ),
        c=st.builds(complex, st.floats(0.3, 2.5), st.floats(-0.5, 0.5)),
        z=st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.3, 2.5)),
    )
    def test_chain_rule_of_non_mobius_compositions(self, pair, c, z):
        # S(f o g) = (S f o g) g'^2 + S g
        maps = {"square": SquareMap(), "log": LogMap(), "power": PowerMap(c)}
        f, g = (maps[name] for name in pair)
        lhs = schwarzian(Compose(f, g), z)
        terms = (schwarzian(f, g.value(z)) * next(g.jets(z)) ** 2, schwarzian(g, z))
        assert abs(lhs - sum(terms)) < 1e-10 * max(1.0, *(abs(t) for t in terms))


class TestSchwarzianNorm:
    def test_mobius_zero(self):
        assert schwarzian_norm(MobiusMap(TEST_MOBIUS), 0.3 + 1.4j) < 1e-12

    def test_square_on_imaginary_axis(self):
        for y in (0.3, 1.0, 4.7):
            assert abs(schwarzian_norm(SquareMap(), 1j * y) - 1.5) < 1e-12

    def test_dilation_equivariance(self):
        # f = z^c intertwines z -> lam z with z -> lam^c z, so the norm is
        # constant along dilation orbits
        rng = np.random.default_rng(6)
        f = PowerMap(1.7)
        for z in sample_points(rng, 6):
            for lam in (0.5, 2.0, 7.3):
                assert abs(schwarzian_norm(f, lam * z) - schwarzian_norm(f, z)) < 1e-11

    def test_real_mobius_precomposition_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            entries = rng.normal(size=4)
            if abs(entries[0] * entries[3] - entries[1] * entries[2]) < 0.2:
                continue
            g = MobiusTransform.from_entries(*entries)
            for f in (SquareMap(), LogMap()):
                for z in sample_points(rng, 4):
                    if g.a21 * z + g.a22 == 0:
                        continue
                    w = MobiusMap(g).value(z)
                    if w.imag < 0.05:
                        continue
                    lhs = schwarzian_norm(Compose(f, MobiusMap(g)), z)
                    rhs = schwarzian_norm(f, w)
                    assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


class TestOsculating:
    def test_mobius_is_its_own_osculant(self):
        rng = np.random.default_rng(8)
        for z in sample_points(rng, 6):
            m = osculating_mobius(MobiusMap(TEST_MOBIUS), z)
            assert m.distance(TEST_MOBIUS) < 1e-10

    def test_square_two_jet_at_i(self):
        m = MobiusMap(osculating_mobius(SquareMap(), 1j))
        assert abs(m.value(1j) - (-1.0)) < 1e-12
        h = 1e-6
        d1 = (m.value(1j + h) - m.value(1j - h)) / (2 * h)
        assert abs(d1 - 2j) < 1e-8
        d2 = (m.value(1j + h) - 2 * m.value(1j) + m.value(1j - h)) / (h * h)
        assert abs(d2 - 2.0) < 1e-3

    def test_order_of_contact(self):
        rng = np.random.default_rng(9)
        for f in (SquareMap(), LogMap(), PowerMap(1.7)):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.5))
            m = MobiusMap(osculating_mobius(f, z))
            res = {}
            for h in (1e-2, 1e-3):
                res[h] = abs(m.value(z + h) - f.value(z + h))
            ratio = res[1e-2] / res[1e-3]
            assert 300 < ratio < 3000

    def test_critical_point(self):
        f = NumericMap(lambda z: cmath.sin(z - 2j), 1e-3, (0.1, 3.0, 1.5, 2.5))
        with pytest.raises(CriticalPoint):
            osculating_mobius(f, math.pi / 2 + 2j)

    def test_pole_of_mobius_map(self):
        # z -> z / (i - z) has its pole at i, in the upper half plane
        f = MobiusMap(MobiusTransform.from_entries(1.0, 0.0, -1.0, 1j))
        for call in (f.value, lambda z: next(f.jets(z)), lambda z: osculating_mobius(f, z)):
            with pytest.raises(CriticalPoint, match="pole"):
                call(1j)


class TestOsculatingValueJets:
    """osculating_mobius reads f itself, so it runs the value jets of Compose and NumericMap."""

    def test_post_mobius_composes(self):
        for f in (PowerMap(2.5), LogMap(), SquareMap()):
            for z in (0.3 + 1.1j, -1.0 + 0.5j):
                got = osculating_mobius(Compose(MobiusMap(TEST_MOBIUS), f), z)
                want = TEST_MOBIUS @ osculating_mobius(f, z)
                assert got.distance(want) <= 1e-14 * max(map(abs, want.entries()))

    def test_numeric_cube_matches_power(self):
        cube = NumericMap(lambda z: z * z * z, 1e-3, (0.1, 3.0, 1.5, 2.5))
        for z in (0.5 + 2j, 1.0 + 1.5j, 2.0 + 1.7j):
            want = osculating_mobius(PowerMap(3.0), z)
            assert osculating_mobius(cube, z).distance(want) <= 1e-9 * max(map(abs, want.entries()))


class TestFootPoint:
    def test_on_plane(self):
        base, depth = foot_point(H3Point(0.7 + 0j, 1.3))
        assert depth == 0.0
        assert abs(base - (0.7 + 1.3j)) < 1e-15

    def test_reference_point(self):
        base, depth = foot_point(H3Point(1j, 1.0))
        assert abs(base - 1j * math.sqrt(2.0)) < 1e-12
        assert abs(depth - math.atanh(1.0 / math.sqrt(2.0))) < 1e-12

    def test_depth_matches_distance_to_plane(self):
        # brute-force minimization of distance to the plane over R
        p = H3Point(1j, 1.0)
        best = math.inf
        for u in np.linspace(-2, 2, 161):
            for t in np.linspace(0.3, 3.0, 271):
                best = min(best, hyp_distance(p, H3Point(complex(u, 0.0), float(t))))
        assert abs(best - foot_point(p)[1]) < 1e-3

    def test_flow_consistency(self):
        base = 0.4 + 1.7j
        for d1, d2 in ((0.2, 0.9), (0.0, 1.5), (1.1, 2.3)):
            f1, f2 = framed_point(base, d1), framed_point(base, d2)
            assert abs(hyp_distance(f1, f2) - abs(d2 - d1)) < 1e-12
            assert abs(foot_point(f1)[0] - base) < 1e-12
            assert abs(foot_point(f2)[0] - base) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            again = framed_point(*foot_point(p))
            assert abs(again.z - p.z) < 1e-12 * max(1.0, abs(p.z))
            assert abs(again.t - p.t) < 1e-12 * max(1.0, p.t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        u=st.floats(-1e3, 1e3),
        v=st.floats(0.0, 1e3),
        t=st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-986, 10)),
    )
    @example(u=0.0, v=1e3, t=1e-3)
    @example(u=0.0, v=1e4, t=1e-4)
    def test_foot_point_matches_60_digit_oracle(self, u, v, t):
        """foot_point against mp_foot_point, with the bound derived from the roundings of its formula.

        base = u + i hypot(v, t): the real part is u itself, and math.hypot is within 1 ulp,
        so 2u r of the exact r (u = 2^-53).  depth = asinh(x^) of x^ = v / t, within u x of
        x = sinh d, plus SUBNORMAL where it underflows; t reaches 2^-987, so x reaches about
        1e300 and never overflows here.  asinh' = 1 / cosh d, so the quotient moves the depth
        by at most u tanh d <= u d, and math.asinh within 2 ulps adds 4u d: 5u d in all.
        The two examples are the points v / t = 1e6 and 1e8, where the former atanh(v / r)
        was 4.4e-5 off and raised ValueError.
        """
        base, depth = foot_point(H3Point(complex(u, v), t))
        want_base, want_depth = mp_foot_point(complex(u, v), t)
        assert base.real == u
        assert abs(base.imag - want_base.imag) <= 2 * U * want_base.imag
        assert abs(depth - want_depth) <= 5 * U * float(want_depth) + SUBNORMAL

    @pytest.mark.parametrize("v, t", [(1e300, 1e-300), (5e-10, 5e-320), (1.7e308, 1e-300), (1.0, 5e-324)])
    def test_depth_where_the_ratio_overflows(self, v, t):
        """Where v / t overflows, depth = log 2 + log v - log t against mp_foot_point.

        Each log is within 1 ulp, 2u of its size (u = 2^-53), and the two sums round by u of
        theirs, so the depth is within 3u (log 2 + |log v| + |log t|) + u d of d.
        """
        assert v / t == math.inf
        _, depth = foot_point(H3Point(complex(0.0, v), t))
        want = mp_foot_point(complex(0.0, v), t)[1]
        bound = 3 * U * (math.log(2.0) + abs(math.log(v)) + abs(math.log(t))) + U * float(want)
        assert abs(depth - want) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(u=st.floats(-1e3, 1e3), r=st.floats(1e-3, 1e3), depth=st.floats(-20.0, 20.0))
    def test_framed_point_matches_60_digit_oracle(self, u, r, depth):
        """framed_point against mp_framed_point, with the bound derived from the roundings of its formula.

        z = u + i r tanh(depth) and t = r / cosh(depth): tanh and cosh are within 2 ulps, 4u
        relative (u = 2^-53), and the product or quotient with r adds u, so Im z and t are each
        within 6u of their exact values, relative, plus SUBNORMAL where the product
        underflows; Re z is u itself.
        """
        p = framed_point(complex(u, r), depth)
        want_z, want_t = mp_framed_point(complex(u, r), depth)
        assert p.z.real == u
        assert abs(p.z.imag - want_z.imag) <= 6 * U * abs(want_z.imag) + SUBNORMAL
        assert abs(p.t - want_t) <= 6 * U * want_t

    def test_wrong_side(self):
        with pytest.raises(WrongSide):
            foot_point(H3Point(-1j, 1.0))
        for base in (1.0 + 0j, 1.0 - 1j):
            with pytest.raises(ValueError, match="foot must lie in the upper half plane"):
                framed_point(base, 0.5)


class TestTheta:
    def test_identity_map(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            q = theta(IdentityMap(), p)
            assert hyp_distance(p, q) < 1e-12

    def test_mobius_map_acts_globally(self):
        rng = np.random.default_rng(12)
        f = MobiusMap(TEST_MOBIUS)
        for _ in range(10):
            p = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            q = theta(f, p)
            assert hyp_distance(q, apply_h3(TEST_MOBIUS, p)) < 1e-10

    def test_mobius_theta_is_isometry(self):
        rng = np.random.default_rng(13)
        f = MobiusMap(TEST_MOBIUS)
        for _ in range(15):
            p = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            q = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            d0 = hyp_distance(p, q)
            d1 = hyp_distance(theta(f, p), theta(f, q))
            assert abs(d1 - d0) <= 1e-9

    def test_osculating_equivariance_along_dilations(self):
        # z^c intertwines the dilation z -> lam z with z -> lam^c z
        c = 1.7
        f = PowerMap(c)
        rng = np.random.default_rng(14)
        for lam in (0.7, 1.9):
            gamma = MobiusTransform.from_entries(lam, 0.0, 0.0, 1.0)
            rho = MobiusTransform.from_entries(lam ** c, 0.0, 0.0, 1.0)
            for z in sample_points(rng, 5):
                lhs = osculating_mobius(f, lam * z)
                rhs = rho @ osculating_mobius(f, z) @ gamma.inverse()
                assert lhs.distance(rhs) < 1e-9

    def test_deep_below_the_foot(self):
        # v / t = 1e8: theta needs only the foot, which the former depth formula failed to reach
        p = H3Point(1e4j, 1e-4)
        base, _ = foot_point(p)
        assert theta(SquareMap(), p) == apply_h3(osculating_mobius(SquareMap(), base), p)

    def test_theta_equivariance_along_dilations(self):
        c = 1.7
        f = PowerMap(c)
        rng = np.random.default_rng(15)
        for lam in (0.7, 1.9):
            rho = MobiusTransform.from_entries(lam ** c, 0.0, 0.0, 1.0)
            for _ in range(5):
                p = H3Point(complex(rng.normal(), abs(rng.normal()) + 0.1), math.exp(rng.normal()))
                scaled = H3Point(lam * p.z, lam * p.t)
                lhs = theta(f, scaled)
                rhs = apply_h3(rho, theta(f, p))
                assert hyp_distance(lhs, rhs) < 1e-9


class TestInjectivityDepth:
    AXIS_GRID = GridSpec(-0.5, 0.5, 41, 0.25, 3.0, 40)

    def test_mobius(self):
        assert injectivity_depth(MobiusMap(TEST_MOBIUS), self.AXIS_GRID) == 0.0

    def test_square(self):
        # the grid meets Re z = 0, where the norm reaches Kraus's 3/2
        d0 = injectivity_depth(SquareMap(), self.AXIS_GRID)
        assert abs(d0 - math.acosh(1.5)) <= 1e-12

    def test_log(self):
        # norm (Im z)^2 / (2 |z|^2) <= 1/2 < 1
        assert injectivity_depth(LogMap(), self.AXIS_GRID) == 0.0

    def test_grid_parse(self):
        # the CLI's reader of --grid
        from dehnscope.cli import _parse_grid

        grid = _parse_grid("-0.5:0.5:41,0.25:3.0:40")
        assert grid == self.AXIS_GRID
        with pytest.raises(ValueError):
            _parse_grid("1:2")
        for nre, nim in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="grid counts must be >= 1"):
                GridSpec(0.0, 1.0, nre, 0.5, 1.0, nim)
        for re0, re1, im0, im1 in ((1.0, 0.0, 0.5, 1.0), (0.0, 1.0, 1.0, 0.5), (0.0, 1.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="grid rectangle must be ordered and lie in U"):
                GridSpec(re0, re1, 3, im0, im1, 3)

    @pytest.mark.parametrize(
        "bounds",
        [(-math.inf, 1.0, 0.5, 1.0), (0.0, math.inf, 0.5, 1.0), (0.0, 1.0, 0.5, math.inf), (-1e308, 1e308, 0.5, 1.0)],
    )
    def test_grid_bounds_must_be_finite(self, bounds):
        # an infinite bound or an overflowing side gives NaN or inf points, which injectivity_depth would blame on the map
        re0, re1, im0, im1 = bounds
        with pytest.raises(ValueError, match="grid rectangle bounds must be finite"):
            GridSpec(re0, re1, 3, im0, im1, 3)

    @staticmethod
    def per_point_depth(f, grid):
        return math.acosh(max(1.0, max(schwarzian_norm(f, z) for z in grid.points())))

    def test_array_pass_matches_per_point(self):
        grid = GridSpec(-2.0, 2.0, 31, 0.1, 3.0, 29)
        maps = [IdentityMap(), MobiusMap(TEST_MOBIUS), *CATALOG, PowerMap(3.0)]
        maps += [Compose(MobiusMap(TEST_MOBIUS), PowerMap(2.5)), Compose(PowerMap(2.5), MobiusMap(TEST_MOBIUS))]
        maps += [Compose(SquareMap(), LogMap())]
        for f in maps:
            assert f.elementwise
            want = self.per_point_depth(f, grid)
            assert abs(injectivity_depth(f, grid) - want) <= 1e-13 * want, f.name

    def test_numeric_maps(self):
        grid = GridSpec(0.1, 3.0, 23, 1.5, 2.5, 17)
        cube = NumericMap(lambda z: z * z * z, 1e-2, (0.1, 3.0, 1.5, 2.5))
        assert cube.elementwise
        want = self.per_point_depth(cube, grid)
        assert want > 0.5
        assert abs(injectivity_depth(cube, grid) - want) <= 1e-10 * want
        # cmath.sin takes no array: evaluated point by point, with the same bits
        sine = NumericMap(lambda z: cmath.sin(z - 2j), 1e-3, (0.1, 3.0, 1.5, 2.5))
        assert not sine.elementwise
        assert injectivity_depth(sine, grid) == self.per_point_depth(sine, grid)

    def test_redone_entries_are_the_point_values(self):
        # Mobius maps with their pole on a grid point: at some such entries numpy's
        # jets are inf or NaN where the scalar path gives a finite value
        grid = GridSpec(-1.0, 1.0, 9, 0.5, 2.0, 7)
        points = list(grid.points())
        rng = np.random.default_rng(0)
        redone = 0
        for _ in range(300):
            pole = points[rng.integers(len(points))]
            a, b, c = (complex(*rng.normal(size=2)) for _ in range(3))
            d = -c * pole
            if abs(a * d - b * c) < 0.1:
                continue
            f = MobiusMap(MobiusTransform.from_entries(a, b, c, d))
            with mock.patch.object(schwarzian_end, "schwarzian", wraps=schwarzian) as redo:
                try:
                    blocks = list(schwarzian_grid(f, grid))
                except (CriticalPoint, NonFiniteSchwarzian):
                    continue
            at = {call.args[1] for call in redo.call_args_list}
            redone += len(at)
            for z, sc, norm in blocks:
                for w, got, got_norm in zip(z.tolist(), sc.tolist(), norm.tolist()):
                    assert cmath.isfinite(got)
                    if w in at:
                        assert (got, got_norm) == (schwarzian(f, w), schwarzian_norm(f, w))
        assert redone > 0

    @pytest.mark.parametrize("sin", [np.sin, cmath.sin])
    def test_grid_through_critical_point(self, sin):
        f = NumericMap(lambda z: sin(z - 2j), 1e-3, (0.1, 3.0, 1.5, 2.5))
        assert f.elementwise == (sin is np.sin)
        # the center point is exactly pi/2 + 2i, where sin'(z - 2i) = 0
        grid = GridSpec(0.0, math.pi, 3, 1.5, 2.5, 3)
        assert list(grid.points())[4] == complex(math.pi / 2, 2.0)
        with pytest.raises(CriticalPoint):
            injectivity_depth(f, grid)


def depth_law(norm: float, depth: float) -> float:
    """First-order deviation the implemented construction provably satisfies."""
    return norm * (1.0 - math.tanh(depth))


class TestJacobianCheck:
    def test_mobius_isometry(self):
        for d in (0.5, 1.0, 2.0, 3.0):
            p = framed_point(0.3 + 1j, d)
            report = jacobian_check(MobiusMap(TEST_MOBIUS), p, h=1e-4)
            assert max(abs(v - 1.0) for v in report.measured) < 1e-8
            assert max(abs(v - 1.0) for v in report.predicted) < 1e-12

    def test_measured_follows_depth_law(self):
        # the finite-difference singular values match 1 +- norm*(1 - tanh d)
        # to the stated 1e-5, across maps, feet and depths
        for f in (SquareMap(), LogMap(), PowerMap(1.7)):
            for base in (1j, -0.4 + 1.5j):
                for d in (0.5, 1.0, 2.0, 3.0):
                    p = framed_point(base, d)
                    report = jacobian_check(f, p, h=1e-4)
                    k = depth_law(report.norm_at_foot, d)
                    expect = tuple(sorted((1.0 + k, 1.0, abs(1.0 - k)), reverse=True))
                    err = max(abs(a - b) for a, b in zip(report.measured, expect))
                    assert err < 1e-5, (f.name, base, d, report.measured, expect)

    def test_predicted_triple_uses_sech_depth_factor(self):
        p = framed_point(1j, 2.0)
        report = jacobian_check(SquareMap(), p, h=1e-4)
        k = 1.5 / math.cosh(2.0)
        assert abs(report.predicted[0] - (1.0 + k)) < 1e-12
        # the sech-form prediction and the measured construction diverge at
        # positive depth (they agree at depth 0); keep the gap pinned so the
        # documented behaviour stays visible
        assert report.predicted[0] - report.measured[0] > 0.3

    def test_predicted_and_measured_agree_near_plane(self):
        # the two depth laws coincide at depth 0; just above the plane the
        # gap is bounded by norm * depth
        p = framed_point(1j, 5e-6)
        report = jacobian_check(SquareMap(), p, h=1e-6)
        err = max(abs(a - b) for a, b in zip(report.measured, report.predicted))
        assert err < 2e-5

    def test_smallest_singular_value_positive_beyond_threshold(self):
        d0 = math.acosh(1.5)
        for d in (d0 + 0.1, d0 + 0.5, d0 + 1.5):
            p = framed_point(1j, d)
            report = jacobian_check(SquareMap(), p, h=1e-4)
            assert report.measured[2] > 0.0
            assert report.predicted[2] > 0.0

    def test_prediction_constant_along_horizontal_trajectory(self):
        # for z^c with real c the horizontal trajectories are the rays from
        # the origin, which are also dilation orbits, so the predicted triple
        # is constant along them at fixed depth
        f = PowerMap(1.7)
        d = 1.2
        base_dir = cmath.exp(1j * 1.1)
        triples = []
        for radius in (0.5, 1.0, 2.0, 5.0):
            p = framed_point(radius * base_dir, d)
            triples.append(jacobian_check(f, p, h=1e-4).predicted)
        for tri in triples[1:]:
            assert max(abs(a - b) for a, b in zip(tri, triples[0])) < 1e-10

    def test_richardson_tightens_mobius(self):
        p = framed_point(0.3 + 1j, 0.5)
        raw = jacobian_check(MobiusMap(TEST_MOBIUS), p, h=1e-3)
        rich = jacobian_check(MobiusMap(TEST_MOBIUS), p, h=1e-3, richardson=True)
        raw_err = max(abs(v - 1.0) for v in raw.measured)
        rich_err = max(abs(v - 1.0) for v in rich.measured)
        assert rich_err < raw_err

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            jacobian_check(SquareMap(), H3Point(1e-9j + 0.0, 1.0), h=1e-4)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_bad_step_rejected(self, h):
        # h = 0 used to end in numpy's LinAlgError, h = nan in "z must be finite"
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            jacobian_check(SquareMap(), H3Point(0.3 + 1.0j, 0.5), h=h)


class TestFrameAlignment:
    def test_singular_directions_match_trajectories(self):
        # where the norm is substantial the singular frame agrees with the
        # horizontal/vertical trajectory directions of the quadratic
        # differential, within 2 degrees
        cos_tol = math.cos(math.radians(2.0))
        for f in (SquareMap(), LogMap()):
            for base in (1j, 0.5 + 1.2j):
                for d in (0.5, 1.0, 2.0):
                    if schwarzian_norm(f, base) <= 0.1:
                        continue
                    p = framed_point(base, d)
                    report = jacobian_check(f, p, h=1e-4)
                    sc = schwarzian(f, base)
                    th = -cmath.phase(sc) / 2.0
                    s, c = math.tanh(d), 1.0 / math.cosh(d)

                    def tangent(angle):
                        vec = np.array(
                            [math.cos(angle), math.sin(angle) * s, math.sin(angle) * c]
                        )
                        return vec / np.linalg.norm(vec)

                    horiz = tangent(th)
                    vert = tangent(th + math.pi / 2.0)
                    normal = np.array([0.0, c, -s])
                    vecs = report.directions
                    assert abs(float(vecs[1] @ normal)) > cos_tol
                    pair = {abs(float(vecs[0] @ vert)), abs(float(vecs[2] @ horiz))}
                    alt = {abs(float(vecs[0] @ horiz)), abs(float(vecs[2] @ vert))}
                    assert min(pair) > cos_tol or min(alt) > cos_tol


class TestNumericMap:
    def test_schwarzian_accuracy(self):
        nm = NumericMap(lambda z: z * z, 1e-3, (-1.0, 1.0, 0.5, 2.0))
        z = 0.3 + 1.1j
        assert abs(schwarzian(nm, z) - (-3.0 / (2 * z * z))) < 1e-6

    def test_domain_validation(self):
        for step in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite-difference step must be positive"):
                NumericMap(lambda z: z, step, (-1.0, 1.0, 0.5, 2.0))
        with pytest.raises(ValueError):
            NumericMap(lambda z: z, 1e-3, (-1.0, 1.0, -0.5, 2.0))
        with pytest.raises(ValueError):
            NumericMap(lambda z: 1.0 + 0j, 1e-3, (-1.0, 1.0, 0.5, 2.0))

    @pytest.mark.parametrize("domain", [(0.0, math.inf, 0.1, 1.0), (-math.inf, 0.0, 0.1, 1.0), (0.0, 1.0, 0.1, math.inf)])
    def test_domain_bounds_must_be_finite(self, domain):
        # an infinite bound makes the spot grid NaN, which would pass the spot check untested
        with pytest.raises(ValueError, match="bounds must be finite"):
            NumericMap(lambda z: z * z * z, 1e-2, domain)

    def test_step_must_stay_below_im0(self):
        # the sample circle of radius step about a point of the rectangle must stay in U
        for step in (0.5, 0.7):
            with pytest.raises(ValueError, match="step must be below im0 = 0.5"):
                NumericMap(lambda z: z, step, (-1.0, 1.0, 0.5, 2.0))
        assert NumericMap(lambda z: z, math.nextafter(0.5, 0.0), (-1.0, 1.0, 0.5, 2.0)).step < 0.5

    def test_point_below_the_step_resolution_is_refused(self):
        # z + h rounds to z here, so the jets came from z +- ih alone: the Schwarzian read -6.0e4, exactly -7.3e-108
        f = NumericMap(lambda z: z * z * z, 1e-2, (-2, 2, 0.31, 3.3))
        z = 7.381813175911895e53 + 2.07e-8j
        refusal = r"step 0.01 is below the resolution of z = \(7.381813175911895e\+53\+2.07e-08j\)"
        for entry in (schwarzian, osculating_mobius):
            with pytest.raises(ValueError, match=refusal):
                entry(f, z)
        with pytest.raises(ValueError, match=r"below the resolution of z = \(1\+1e\+20j\)"):
            schwarzian(f, 1 + 1e20j)
        # an array pass redoes such an entry by the scalar path, and so raises what it raises
        assert f.elementwise
        grid = GridSpec(z.real, z.real, 1, 0.5, 1.0, 2)
        with pytest.raises(ValueError, match=r"step 0.01 is below the resolution of z = \(7.381813175911895e\+53\+0.5j\)"):
            list(schwarzian_grid(f, grid))

    def test_func_calls_per_point(self):
        # f(z +- h) and f(z +- ih) serve all three jets, and osculating_mobius reads f(z) besides
        calls = []

        def cube(z):
            calls.append(z)
            return z * z * z

        f = NumericMap(cube, 1e-2, (0.1, 3.0, 1.5, 2.5))
        z, h = 0.5 + 2j, 1e-2
        for entry, want in ((schwarzian, 4), (osculating_mobius, 5)):
            calls.clear()
            entry(f, z)
            assert calls[:4] == [z + h, z - h, z + 1j * h, z - 1j * h], entry.__name__
            assert len(calls) == want, entry.__name__

    @pytest.mark.parametrize("func", [lambda w: w * w * w, cmath.log])
    def test_third_jet_is_six_strain_over_h_squared(self, func):
        """The third jet is 6 strain(f, z, h) / h^2: the same four samples and the same sum (p - m) + i(q - n).

        Each real factor or divisor rounds each part of a complex number by u = 2^-53 relative,
        so the number by u.  strain divides by 4h (exact) and this test multiplies by 6 and
        divides by h * h: four roundings.  The jet multiplies by 3 and divides by 2 h ** 3,
        whose pow is within an ulp (2u): four.  So the two are within 8u, and 9u bounds the
        second-order terms too.
        """
        h = 1e-2
        f = NumericMap(func, h, (-2.0, 2.0, 0.5, 2.0))
        rng = np.random.default_rng(28)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
            third = list(f.jets(z))[2]
            assert abs(6 * strain(func, z, h) / (h * h) - third) <= 9 * U * abs(third)


class TestLazyJets:
    """Each jet is computed only when read, so an entry point never meets a jet it does not use."""

    def test_critical_point_before_a_higher_jet_overflows(self):
        # |f'| is below the threshold here, and the second or third jet would overflow
        cases = ((PowerMap(1.7), 1e-300 * (1 + 1j)), (MobiusMap(TEST_MOBIUS), 1e150j))
        for f, z in cases:
            for entry in (schwarzian, schwarzian_norm, osculating_mobius):
                with pytest.raises(CriticalPoint, match="below critical threshold"):
                    entry(f, z)

    def test_osculating_mobius_reads_no_third_jet(self):
        # 2 / z^3 overflows at z = 1e-120 i, and the osculating map shares only the 2-jet
        z = 1e-120j
        with pytest.raises(NonFiniteSchwarzian, match="a jet of the map overflows"):
            schwarzian(LogMap(), z)
        a, b, c, d = osculating_mobius(LogMap(), z).entries()
        den = c * z + d
        for got, want in (((a * z + b) / den, cmath.log(z)), (1 / den**2, 1 / z), (-2 * c / den**3, -1 / z**2)):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_compose_evaluates_its_inner_map_once(self):
        calls = []

        class CountedLog(LogMap):
            def value(self, z):
                calls.append(z)
                return super().value(z)

        jets = list(Compose(SquareMap(), CountedLog()).jets(0.3 + 1.1j))
        assert len(calls) == 1 and len(jets) == 3


class TestParseMap:
    def test_catalog_names(self):
        assert isinstance(parse_map("identity"), IdentityMap)
        assert isinstance(parse_map("square"), SquareMap)
        assert isinstance(parse_map("log"), LogMap)
        assert parse_map("power:1.5").c == 1.5
        assert parse_map("power:1.5,0.2").c == 1.5 + 0.2j
        m = parse_map("mobius:2,0,1,0,1,0,1,0")
        assert isinstance(m, MobiusMap)
        assert m.m.distance(TEST_MOBIUS) < 1e-12

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_map("exp")
        with pytest.raises(ValueError):
            parse_map("mobius:1,2,3")


# parameters that are 0 or at least 1e-3 in size, so that no jet underflows
_part = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
_complex = st.builds(complex, _part, _part)
CATALOG_SPECS = st.one_of(
    st.sampled_from(["identity", "square", "log"]),
    st.tuples(st.just("power"), st.builds(complex, _part.map(lambda x: 1.5 * x), _part.map(lambda x: 0.5 * x))),
    st.tuples(st.just("mobius"), st.tuples(_complex, _complex, _complex, _complex)).filter(
        lambda spec: abs(spec[1][0] * spec[1][3] - spec[1][1] * spec[1][2]) > 0.1
    ),
)


def catalog_map(spec):
    """(f, spec) for a drawn catalog spec; a Mobius spec gets the normalized entries that f stores."""
    if spec[0] == "power":
        return PowerMap(spec[1]), spec
    if spec[0] == "mobius":
        f = MobiusMap(MobiusTransform.from_entries(*spec[1]))
        return f, ("mobius", f.m.entries())
    return parse_map(spec), spec


def off_zero_and_pole(spec, z) -> bool:
    """False at a zero or the pole of a Mobius spec, where jet_bounds is not defined."""
    if spec[0] != "mobius":
        return True
    a, b, c, d = spec[1]
    return a * z + b != 0 and c * z + d != 0


def jet_bounds(spec, z) -> list:
    """Relative bounds on f(z) and the three jets of a catalog map, derived in TestJetOracle."""
    if spec[0] == "power":
        c, log_z = spec[1], abs(math.log(abs(z)))
        return [(5 + 4 * k + 5 * (abs((c - k).real) + abs((c - k).imag)) * (1 + math.pi + log_z)) * U for k in range(4)]
    if spec[0] == "mobius":
        a, b, c, d = spec[1]
        kappa = (abs(c * z) + abs(d)) / abs(c * z + d)
        kappa_num = (abs(a * z) + abs(b)) / abs(a * z + b)
        with mpmath.workdps(DPS):
            det_gap = float(abs(mpmath.mpc(a) * d - mpmath.mpc(b) * c - 1))
        return [(3 * (kappa + kappa_num) + 5) * U] + [(3 * (k + 1) * kappa + 14) * U + det_gap for k in (1, 2, 3)]
    return [16 * U] * 4


def taylor_modulus(spec, z, n) -> float:
    """|a_n|, the modulus of the n-th Taylor coefficient at z of log, z^c or a Mobius map (see mp_jets)."""
    if spec == "log":
        return 1.0 / (n * abs(z) ** n)
    kind, params = spec
    if kind == "power":
        binomial = math.prod(abs(params - i) / (i + 1) for i in range(n))
        return binomial * math.exp((params * cmath.log(z)).real) / abs(z) ** n
    a, b, c, d = params
    return abs(c) ** (n - 1) * abs(a * d - b * c) / abs(c * z + d) ** (n + 1)


NUMERIC_SPECS = CATALOG_SPECS.filter(lambda spec: spec not in ("identity", "square"))


class TestJetOracle:
    """The catalog maps' values and jets, and the classical norm constants, against tests/mp_reference.py."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        spec=NUMERIC_SPECS,
        z=st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.3, 4.0)),
        step=st.floats(1e-3, 5e-2),
    )
    # near log's singularity: O(h^2) stencils read f''' 1.8e-6 off, relative, here, and this rule 3.7e-8
    @example(spec="log", z=0.3 + 0.5j, step=1e-2)
    def test_numeric_map_jets_match_60_digit_oracle(self, spec, z, step):
        """The three jets of NumericMap(f.value, h, ...) against mp_jets, within truncation plus rounding.

        Jet k is c_k / h^k times the sum of the samples f(z + h w), w^4 = 1, weighted by
        w^-k, with c_k = 1/4, 1/2, 3/2, that is k! / (4 h^k).
        - Truncation: in exact arithmetic the sum keeps the Taylor terms a_n h^n of n = k mod 4,
          so the rule is off by k! (a_{k+4} h^4 + a_{k+8} h^8 + ...).  The series converges on
          the circle, as h is below the distance to the singularity: |z| for log and z^c, and
          for a Mobius map at least 2h by assumption.  So the terms fall by a factor of at least
          16 each (h/|z| <= 1/6 here, and for z^c the binomial ratio over four orders is below
          3), and twelve of them leave under 1e-14 of the first.
        - Rounding, u = 2^-53: the sample point z + h w rounds by at most u |z + h w|, which
          moves f by |f'| times that, and f.value is within e0 |f| (jet_bounds) of f at the
          rounded point.  The differences and sums of the samples, the product by 3 and the
          divisions by 4h, 2 h * h and 2 h ** 3 round by u of at most S = sum |f(z + h w)|
          each; there are at most four, and h ** 3 adds 2u: within 8u S c_k / h^k.
        So jet k is within T_k + c_k (sum e_j + 8u S) / h^k of the exact jet, to first order;
        the bound takes 1.01 times that.
        """
        f, spec = catalog_map(spec)
        if spec[0] == "mobius":
            a, b, c, d = spec[1]
            assume(2 * step * abs(c) <= abs(c * z + d))
        try:
            nm = NumericMap(f.value, step, (z.real - 0.1, z.real + 0.1, z.imag - 0.1, z.imag + 0.1))
        except ValueError:  # the spot check met a critical point
            assume(False)
        samples = [z + step, z - step, z + 1j * step, z - 1j * step]
        values = [abs(f.value(w)) for w in samples]
        errors = [jet_bounds(spec, w)[0] * v + U * abs(w) * abs(next(f.jets(w))) for w, v in zip(samples, values)]
        for k, (got, want) in enumerate(zip(nm.jets(z), mp_jets(spec, z)[1:]), start=1):
            trunc = math.factorial(k) * sum(taylor_modulus(spec, z, k + 4 * j) * step ** (4 * j) for j in range(1, 13))
            rounding = (0.25, 0.5, 1.5)[k - 1] * (sum(errors) + 8 * U * sum(values)) / step**k
            assert abs(got - complex(want)) <= 1.01 * (trunc + rounding), k

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=CATALOG_SPECS, z=st.builds(complex, st.floats(-8.0, 8.0), st.floats(0.01, 8.0)))
    def test_catalog_jets_match_60_digit_oracle(self, spec, z):
        """f(z) and the three jets against mp_jets, each within a relative bound derived from its roundings.

        With u = 2^-53 and to first order in u, a complex product rounds by at most sqrt 5 u,
        a quotient (CPython's scaled division) by at most 5 u and a sum by u, all relative.
        - identity, square and log take at most three such steps per jet, and cmath.log is
          within an ulp in each part: 16 u.
        - z ** w (w = c - k for jet k): CPython forms the modulus |z|^Re w / e^(arg z Im w) and
          the phase arg z Re w + Im w log|z|.  The roundings of hypot, atan2, log, exp and pow,
          carried through those products, and the rounding of w itself, stay below
          (5 + 5 |w|_1 (1 + pi + |log|z||)) u, with |w|_1 = |Re w| + |Im w|.  The coefficient
          c (c - 1) ... (c - k + 1) and its product with the power add k (1 + sqrt 5) u < 4k u.
        - Mobius (az + b) / (cz + d): cz + d is within 3 kappa u of exact, where
          kappa = (|cz| + |d|) / |cz + d|, and az + b within 3 kappa_num u likewise.  Jet k
          raises cz + d to the power k + 1 in at most two products and divides once, so it is
          within (3 (k + 1) kappa + 14) u, and the value within (3 (kappa + kappa_num) + 5) u.
          The jets take the determinant D of the normalized entries to be 1, so they may also
          be off by |D - 1|.
        """
        f, spec = catalog_map(spec)
        assume(off_zero_and_pole(spec, z))
        for got, ref, bound in zip([f.value(z), *f.jets(z)], mp_jets(spec, z), jet_bounds(spec, z)):
            assert abs(got - ref) <= bound * abs(ref)

    @pytest.mark.parametrize("y", [0.01, 0.3, 1.0, 4.7, 1e3])
    def test_nehari_and_kraus_constants_on_the_imaginary_axis(self, y):
        """(Im z)^2 |S log| = 1/2 (Nehari's univalence constant) and (Im z)^2 |S z^2| = 3/2 (Kraus's) at z = iy.

        The Schwarzian takes about ten roundings after the jets, which are within 16 u each,
        and the norm three more, so the float norm is within 64 u of the constant.
        """
        for spec, f, constant in (("log", LogMap(), 0.5), ("square", SquareMap(), 1.5)):
            assert abs(mp_schwarzian_norm(spec, 1j * y) - constant) <= 1e-55
            assert abs(schwarzian_norm(f, 1j * y) - constant) <= 64 * U * constant

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(z=st.builds(complex, st.floats(-8.0, 8.0), st.floats(0.01, 8.0)))
    def test_nehari_and_kraus_bounds_hold_on_u(self, z):
        # off the axis the norms are (Im z)^2 / (2|z|^2) and 3 (Im z)^2 / (2|z|^2), below the constants
        for spec, f, constant in (("log", LogMap(), 0.5), ("square", SquareMap(), 1.5)):
            want = mp_schwarzian_norm(spec, z)
            assert want - constant <= 1e-55
            assert abs(schwarzian_norm(f, z) - want) <= 64 * U * constant


def schwarzian_bound(spec, f, z) -> float:
    """Bound on the distance of a float SC f = f'''/f' - (3/2)(f''/f')^2 from the exact one, from jet_bounds.

    With e1, e2, e3 the relative bounds of the jets, u = 2^-53, and to first order in u,
    taking 6u per complex quotient (CPython's scaled division and numpy's reciprocal one),
    sqrt 5 u per complex product and u per sum:
    - A = f'''/f' is within (e1 + e3 + 6u) |A|;
    - g = f''/f' is within (e1 + e2 + 6u) |g|, so B = 1.5 g g is within
      (2 (e1 + e2 + 6u) + sqrt 5 u + u) |B|, under (2 e1 + 2 e2 + 16u) |B|;
    - the difference A - B adds u |SC|.
    The bound takes 1.01 times that sum for the second-order terms.
    """
    e1, e2, e3 = jet_bounds(spec, z)[1:]
    f1, f2, f3 = f.jets(z)
    a, b = abs(f3 / f1), 1.5 * abs(f2 / f1) ** 2
    return 1.01 * (a * (e1 + e3 + 6 * U) + b * (2 * e1 + 2 * e2 + 16 * U) + U * abs(f3 / f1 - 1.5 * (f2 / f1) ** 2))


class TestGridRows:
    """schwarzian --grid rows, the array pass, against the per-point schwarzian."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        spec=CATALOG_SPECS,
        box=st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 3.0), st.floats(0.05, 4.0), st.floats(0.0, 3.0)),
    )
    def test_rows_match_the_per_point_schwarzian(self, spec, box):
        """Each grid entry within 2 schwarzian_bound of schwarzian at its point.

        Both evaluate the same jets and the same formula, the grid in numpy's arithmetic and
        schwarzian in CPython's, so each is within schwarzian_bound of the exact value and they
        are within twice it of each other.  numpy takes complex powers from the C library's
        cpow, an exp of a log, whose error has the form of CPython's in jet_bounds; its integer
        powers of a Mobius denominator take the same products.  Measured, the entries move by
        at most 20u of |f'''/f'| + 1.5 |f''/f'|^2 (README, Numerical notes); on a grid of each
        of five maps they used under 3% of the bound.
        """
        f, spec = catalog_map(spec)
        re0, width, im0, height = box
        try:
            blocks = list(schwarzian_grid(f, GridSpec(re0, re0 + width, 7, im0, im0 + height, 5)))
        except (CriticalPoint, NonFiniteSchwarzian):
            assume(False)
        for z, sc, _ in blocks:
            for w, got in zip(z.tolist(), sc.tolist()):
                if off_zero_and_pole(spec, w):
                    assert abs(got - schwarzian(f, w)) <= 2 * schwarzian_bound(spec, f, w)


SQRT5 = math.sqrt(5.0)


def osculating_bound(f, spec, z) -> float:
    """Bound on the sign-insensitive Frobenius distance of osculating_mobius(f, z) from mp_osculating_mobius.

    Derived in TestOsculatingOracle.test_osculating_mobius_matches_60_digit_oracle.
    """
    e0, e1, e2, _ = jet_bounds(spec, z)
    jets = f.jets(z)
    fz, f1, f2 = f.value(z), next(jets), next(jets)
    c = f2 / (2.0 * f1)
    q = fz * c
    a = f1 - q
    a12, a22 = fz - a * z, 1.0 + c * z
    err_c = (e1 + e2 + 5 * U) * abs(c)
    err_a = e1 * abs(f1) + (e0 + e1 + e2 + (5 + SQRT5) * U) * abs(q) + U * abs(a)
    err_12 = e0 * abs(fz) + abs(z) * err_a + SQRT5 * U * abs(a * z) + U * abs(a12)
    err_22 = abs(z) * err_c + SQRT5 * U * abs(c * z) + U * abs(a22)
    err = math.hypot(err_a, err_12, err_c, err_22)
    size = math.hypot(abs(a), abs(a12), abs(c), abs(a22))
    det_err = (size * err + SQRT5 * U * (abs(a * a22) + abs(a12 * c)) + U * abs(f1)) / abs(f1)
    return (err + size * (det_err / 2 + (9 + SQRT5) * U)) / math.sqrt(abs(f1))


def poincare_bound(m, p) -> float:
    """Bound on the hyperbolic distance of apply_h3(m, p) from the exact image.

    Derived in TestOsculatingOracle.test_theta_matches_60_digit_oracle.
    """
    a11, a12, a21, a22 = m.entries()
    z, t = p.z, p.t
    w, n = a21 * z + a22, a11 * z + a12
    err_w = (1 + SQRT5) * U * (abs(a21 * z) + abs(a22))
    err_n = (1 + SQRT5) * U * (abs(a11 * z) + abs(a12))
    den = abs(w) ** 2 + abs(a21) ** 2 * t * t
    err_den = 2 * abs(w) * err_w + 9 * U * den
    num = n * w.conjugate() + a11 * a21.conjugate() * t * t
    err_num = err_n * abs(w) + abs(n) * err_w + SQRT5 * U * abs(n * w) + (SQRT5 + 2) * U * abs(a11 * a21) * t * t
    err_z = (err_num + 2 * U * abs(num)) / den + abs(num) / den * err_den / den
    err_t = t / den * (err_den / den + U)
    return math.hypot(err_z, err_t) / (t / den)


class TestOsculatingOracle:
    """osculating_mobius and theta for every catalog map against mp_osculating_mobius and mp_theta."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=CATALOG_SPECS, z=st.builds(complex, st.floats(-8.0, 8.0), st.floats(0.01, 8.0)))
    def test_osculating_mobius_matches_60_digit_oracle(self, spec, z):
        """The normalized matrix, up to sign, within a Frobenius bound derived from its roundings.

        To first order in u = 2^-53, with the relative bounds e0, e1, e2 of f(z), f', f'' from
        jet_bounds, and sqrt 5 u per complex product, 5u per quotient and u per sum:
        - c = f'' / (2 f') is within (e1 + e2 + 5u) |c|, q = f(z) f'' / (2 f') within
          (e0 + e1 + e2 + (5 + sqrt 5) u) |q|, and a = f' - q within e1 |f'| plus that plus u |a|;
        - the entries N = (a, f(z) - az, -c, 1 + cz) take the errors of their terms, plus
          sqrt 5 u |az| or |cz| for the product and u of the entry for the sum, so N is within
          E (Frobenius) of the exact matrix, whose determinant is f'(z);
        - from_entries forms det N, which moves by at most |N| E through the cofactors and by
          sqrt 5 u (|a11 a22| + |a12 a21|) + u |f'| through its own roundings; the relative
          error of det halves under sqrt, cmath.sqrt adds 4u, the quotient 1 / sqrt 5u, and each
          entry times it sqrt 5 u.
        So the matrix is within (E + |N| (det error / 2 + (9 + sqrt 5) u)) / sqrt |f'(z)|.
        """
        f, spec = catalog_map(spec)
        assume(off_zero_and_pole(spec, z))
        assume(abs(complex(mp_jets(spec, z)[1])) > 2 * CRITICAL_TOL)
        got = osculating_mobius(f, z).entries()
        want = mp_osculating_mobius(spec, z)
        gap = min(sum(abs(g - sign * w) ** 2 for g, w in zip(got, want)) for sign in (1, -1))
        assert math.sqrt(float(gap)) <= osculating_bound(f, spec, z)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        spec=CATALOG_SPECS,
        z=st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.0, 4.0)),
        t=st.floats(0.05, 4.0),
    )
    def test_theta_matches_60_digit_oracle(self, spec, z, t):
        """Theta(p) within a hyperbolic distance of mp_theta derived from its three sources of error.

        Write p = g j for g = [[sqrt t, z / sqrt t], [0, 1 / sqrt t]] and j = (0, 1).  A matrix
        M (I + X) moves p by at most sqrt 2 |g^-1 X g| <= sqrt 2 s |X| (Frobenius) from M p, to
        first order, as the Hermitian part of X moves j at sqrt 2 times its norm, and
        s = |g|^2 = (1 + |z|^2 + t^2) / t bounds the product of the largest singular values
        of g and g^-1.  u = 2^-53.
        - The matrix of osculating_mobius at the float foot b is within B of the exact one
          (osculating_bound); with |M^-1| = |M| that is |X| <= |M| B.
        - The float foot is within 2u Im b of the exact foot, and the osculating map moves with
          its foot as M_b^-1 dM_b / db = (S f(b) / 2) [[-b, b^2], [-1, b]], a matrix of norm
          1 + |b|^2: |X| <= |S f(b)| u Im b (1 + |b|^2).
        - apply_h3 rounds w = a21 z + a22 and a11 z + a12 by (1 + sqrt 5) u of their terms,
          D = |w|^2 + |a21|^2 t^2 by 2 |w| err(w) + 9u D, the numerator of z' by the errors of
          its factors, sqrt 5 u of its first product, (2 + sqrt 5) u of its second and u of the
          sum, and the quotients by u: poincare_bound measures that Euclidean error in units of
          the height t' of the image.
        """
        f, spec = catalog_map(spec)
        p = H3Point(z, t)
        base, _ = foot_point(p)
        assume(off_zero_and_pole(spec, base))
        assume(abs(complex(mp_jets(spec, base)[1])) > 2 * CRITICAL_TOL)
        got = theta(f, p)
        m = osculating_mobius(f, base)
        s = (1.0 + abs(z) ** 2 + t * t) / t
        size = math.hypot(*map(abs, m.entries()))
        moved = osculating_bound(f, spec, base) * size + abs(schwarzian(f, base)) * U * base.imag * (1 + abs(base) ** 2)
        bound = math.sqrt(2.0) * s * moved + poincare_bound(m, p)
        assert float(mp_hyp_distance((got.z, got.t), mp_theta(spec, z, t))) <= bound
