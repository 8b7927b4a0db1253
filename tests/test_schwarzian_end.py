"""Tests for the Schwarzian machinery and the osculating end extension."""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dehnscope import schwarzian_end
from dehnscope.hypcore import H3Point, MobiusTransform, apply_boundary, apply_h3, hyp_distance
from mp_reference import DPS, mp_foot_point, mp_framed_point, mp_jets, mp_schwarzian_norm

from dehnscope.schwarzian_end import (
    Compose,
    CriticalPoint,
    GridSpec,
    IdentityMap,
    LogMap,
    MobiusMap,
    NonFiniteSchwarzian,
    NumericMap,
    PostMobius,
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
                lhs = schwarzian(PostMobius(TEST_MOBIUS, f), z)
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
                    w = apply_boundary(g, z)
                    if not isinstance(w, complex) or w.imag < 0.05:
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
        m = osculating_mobius(SquareMap(), 1j)
        assert abs(apply_boundary(m, 1j) - (-1.0)) < 1e-12
        h = 1e-6
        d1 = (apply_boundary(m, 1j + h) - apply_boundary(m, 1j - h)) / (2 * h)
        assert abs(d1 - 2j) < 1e-8
        d2 = (
            apply_boundary(m, 1j + h) - 2 * apply_boundary(m, 1j) + apply_boundary(m, 1j - h)
        ) / (h * h)
        assert abs(d2 - 2.0) < 1e-3

    def test_order_of_contact(self):
        rng = np.random.default_rng(9)
        for f in (SquareMap(), LogMap(), PowerMap(1.7)):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.5))
            m = osculating_mobius(f, z)
            res = {}
            for h in (1e-2, 1e-3):
                res[h] = abs(apply_boundary(m, z + h) - f.value(z + h))
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
    @given(u=st.floats(-1e3, 1e3), v=st.floats(0.0, 1e3), t=st.floats(1e-3, 1e3))
    def test_foot_point_matches_60_digit_oracle(self, u, v, t):
        """foot_point against mp_foot_point, with the bound derived from the roundings of its formula.

        base = u + i hypot(v, t): the real part is u itself, and math.hypot is within 1 ulp,
        so 2u r of the exact r (u = 2^-53).  depth = atanh(x) of x^ = v / r^, which is within
        3u x of x = v / r = tanh d.  Here v / t <= 1e6, so 1 - x >= 5e-13 dwarfs the error of x^,
        and atanh' = 1 / (1 - x^2) = cosh(d)^2 stays within 1e-3 of its value at x; with atanh
        itself within 2 ulps, 4u |d|, the depth is within 5u (sinh d cosh d + |d|) of d, plus
        SUBNORMAL where x^ underflows.  The bound grows like e^{2d}: atanh(v / r) is
        ill-conditioned deep below the foot.
        """
        base, depth = foot_point(H3Point(complex(u, v), t))
        want_base, want_depth = mp_foot_point(complex(u, v), t)
        d = float(want_depth)
        assert base.real == u
        assert abs(base.imag - want_base.imag) <= 2 * U * want_base.imag
        assert abs(depth - want_depth) <= 5 * U * (math.sinh(d) * math.cosh(d) + d) + SUBNORMAL

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
        maps += [PostMobius(TEST_MOBIUS, PowerMap(2.5)), Compose(PowerMap(2.5), MobiusMap(TEST_MOBIUS))]
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

    def test_func_calls_per_point(self):
        # f(z +- h) and f(z +- 2h) serve all three jets; f(z) joins for the second, f(z +- 3h) for the third
        calls = []

        def cube(z):
            calls.append(z)
            return z * z * z

        f = NumericMap(cube, 1e-2, (0.1, 3.0, 1.5, 2.5))
        for entry, want in ((schwarzian, 7), (osculating_mobius, 6)):
            calls.clear()
            entry(f, 0.5 + 2j)
            assert len(calls) == want, entry.__name__


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


class TestJetOracle:
    """The catalog maps' values and jets, and the classical norm constants, against tests/mp_reference.py."""

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
        if spec[0] == "power":
            f = PowerMap(spec[1])
        elif spec[0] == "mobius":
            f = MobiusMap(MobiusTransform.from_entries(*spec[1]))
            spec = ("mobius", f.m.entries())
        else:
            f = parse_map(spec)
        want = mp_jets(spec, z)
        if spec[0] == "power":
            c, log_z = spec[1], abs(math.log(abs(z)))
            bounds = [5 + 4 * k + 5 * (abs((c - k).real) + abs((c - k).imag)) * (1 + math.pi + log_z) for k in range(4)]
            bounds = [b * U for b in bounds]
        elif spec[0] == "mobius":
            a, b, c, d = spec[1]
            assume(a * z + b != 0 and c * z + d != 0)  # a zero or the pole of f
            kappa = (abs(c * z) + abs(d)) / abs(c * z + d)
            kappa_num = (abs(a * z) + abs(b)) / abs(a * z + b)
            with mpmath.workdps(DPS):
                det_gap = float(abs(mpmath.mpc(a) * d - mpmath.mpc(b) * c - 1))
            bounds = [(3 * (kappa + kappa_num) + 5) * U]
            bounds += [(3 * (k + 1) * kappa + 14) * U + det_gap for k in (1, 2, 3)]
        else:
            bounds = [16 * U] * 4
        for got, ref, bound in zip([f.value(z), *f.jets(z)], want, bounds):
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
