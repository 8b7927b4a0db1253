"""Tests for the Schwarzian machinery and the osculating end extension."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnscope.hypcore import H3Point, MobiusTransform, apply_boundary, apply_h3, hyp_distance
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
    PreMobius,
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
    schwarzian_norm,
    theta,
)

TEST_MOBIUS = MobiusTransform.from_entries(2.0, 1.0, 1.0, 1.0)


class _InfiniteSlope(IdentityMap):
    """The identity's jets with f' = inf, on numbers and arrays."""

    def deriv(self, z):
        return np.full_like(z, complex(math.inf, 0.0)) if isinstance(z, np.ndarray) else complex(math.inf, 0.0)
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
        terms = (schwarzian(f, g.value(z)) * g.deriv(z) ** 2, schwarzian(g, z))
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
                    lhs = schwarzian_norm(PreMobius(f, g), z)
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
        for jet in (f.value, f.deriv, f.deriv2, f.deriv3, lambda z: osculating_mobius(f, z)):
            with pytest.raises(CriticalPoint, match="pole"):
                jet(1j)


class TestFootPoint:
    def test_on_plane(self):
        fr = foot_point(H3Point(0.7 + 0j, 1.3))
        assert fr.depth == 0.0
        assert abs(fr.base - (0.7 + 1.3j)) < 1e-15

    def test_reference_point(self):
        fr = foot_point(H3Point(1j, 1.0))
        assert abs(fr.base - 1j * math.sqrt(2.0)) < 1e-12
        assert abs(fr.depth - math.atanh(1.0 / math.sqrt(2.0))) < 1e-12

    def test_depth_matches_distance_to_plane(self):
        # brute-force minimization of distance to the plane over R
        p = H3Point(1j, 1.0)
        best = math.inf
        for u in np.linspace(-2, 2, 161):
            for t in np.linspace(0.3, 3.0, 271):
                best = min(best, hyp_distance(p, H3Point(complex(u, 0.0), float(t))))
        assert abs(best - foot_point(p).depth) < 1e-3

    def test_flow_consistency(self):
        base = 0.4 + 1.7j
        for d1, d2 in ((0.2, 0.9), (0.0, 1.5), (1.1, 2.3)):
            f1, f2 = framed_point(base, d1), framed_point(base, d2)
            assert abs(hyp_distance(f1.point, f2.point) - abs(d2 - d1)) < 1e-12
            assert abs(foot_point(f1.point).base - base) < 1e-12
            assert abs(foot_point(f2.point).base - base) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = H3Point(complex(rng.normal(), abs(rng.normal())), math.exp(rng.normal()))
            fr = foot_point(p)
            again = framed_point(fr.base, fr.depth)
            assert abs(again.point.z - p.z) < 1e-12 * max(1.0, abs(p.z))
            assert abs(again.point.t - p.t) < 1e-12 * max(1.0, p.t)

    def test_wrong_side(self):
        with pytest.raises(WrongSide):
            foot_point(H3Point(-1j, 1.0))


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
            gamma = MobiusTransform.scaling(lam)
            rho = MobiusTransform.scaling(lam ** c)
            for z in sample_points(rng, 5):
                lhs = osculating_mobius(f, lam * z)
                rhs = rho @ osculating_mobius(f, z) @ gamma.inverse()
                assert lhs.distance(rhs) < 1e-9

    def test_theta_equivariance_along_dilations(self):
        c = 1.7
        f = PowerMap(c)
        rng = np.random.default_rng(15)
        for lam in (0.7, 1.9):
            rho = MobiusTransform.scaling(lam ** c)
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
        d0 = injectivity_depth(SquareMap(), self.AXIS_GRID)
        assert abs(d0 - math.acosh(1.5)) < 1e-6

    def test_log(self):
        # norm (Im z)^2 / (2 |z|^2) <= 1/2 < 1
        assert injectivity_depth(LogMap(), self.AXIS_GRID) == 0.0

    def test_grid_parse(self):
        grid = GridSpec.parse("-0.5:0.5:41,0.25:3.0:40")
        assert grid == self.AXIS_GRID
        with pytest.raises(ValueError):
            GridSpec.parse("1:2")

    @staticmethod
    def per_point_depth(f, grid):
        return math.acosh(max(1.0, max(schwarzian_norm(f, z) for z in grid.points())))

    def test_array_pass_matches_per_point(self):
        grid = GridSpec(-2.0, 2.0, 31, 0.1, 3.0, 29)
        maps = [IdentityMap(), MobiusMap(TEST_MOBIUS), *CATALOG, PowerMap(3.0)]
        maps += [PostMobius(TEST_MOBIUS, PowerMap(2.5)), PreMobius(PowerMap(2.5), TEST_MOBIUS)]
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
            p = framed_point(0.3 + 1j, d).point
            report = jacobian_check(MobiusMap(TEST_MOBIUS), p, h=1e-4)
            assert max(abs(v - 1.0) for v in report.measured) < 1e-8
            assert max(abs(v - 1.0) for v in report.predicted) < 1e-12

    def test_measured_follows_depth_law(self):
        # the finite-difference singular values match 1 +- norm*(1 - tanh d)
        # to the stated 1e-5, across maps, feet and depths
        for f in (SquareMap(), LogMap(), PowerMap(1.7)):
            for base in (1j, -0.4 + 1.5j):
                for d in (0.5, 1.0, 2.0, 3.0):
                    p = framed_point(base, d).point
                    report = jacobian_check(f, p, h=1e-4)
                    k = depth_law(report.norm_at_foot, d)
                    expect = tuple(sorted((1.0 + k, 1.0, abs(1.0 - k)), reverse=True))
                    err = max(abs(a - b) for a, b in zip(report.measured, expect))
                    assert err < 1e-5, (f.name, base, d, report.measured, expect)

    def test_predicted_triple_uses_sech_depth_factor(self):
        p = framed_point(1j, 2.0).point
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
        p = framed_point(1j, 5e-6).point
        report = jacobian_check(SquareMap(), p, h=1e-6)
        err = max(abs(a - b) for a, b in zip(report.measured, report.predicted))
        assert err < 2e-5

    def test_smallest_singular_value_positive_beyond_threshold(self):
        d0 = math.acosh(1.5)
        for d in (d0 + 0.1, d0 + 0.5, d0 + 1.5):
            p = framed_point(1j, d).point
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
            p = framed_point(radius * base_dir, d).point
            triples.append(jacobian_check(f, p, h=1e-4).predicted)
        for tri in triples[1:]:
            assert max(abs(a - b) for a, b in zip(tri, triples[0])) < 1e-10

    def test_richardson_tightens_mobius(self):
        p = framed_point(0.3 + 1j, 0.5).point
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
                    p = framed_point(base, d).point
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
        with pytest.raises(ValueError):
            NumericMap(lambda z: z, 1e-3, (-1.0, 1.0, -0.5, 2.0))
        with pytest.raises(ValueError):
            NumericMap(lambda z: 1.0 + 0j, 1e-3, (-1.0, 1.0, 0.5, 2.0))


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
