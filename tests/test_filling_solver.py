"""Tests for the filling-coordinate solvers and sequence generation."""

import math

import numpy as np
import pytest

from dehnscope.filling_solver import (
    DomainExit,
    HolomorphicPath,
    SolveReport,
    ZeroTarget,
    cusp_distance,
    filling_sequence,
    solve_direct,
    solve_on_path,
    unimodular_completion,
    verify_coordinate_continuity,
)
from dehnscope.hypcore import MobiusTransform
from dehnscope.torus_end import (
    EndParameter,
    classify_completion,
    filling_coordinates,
    holonomy,
)

TWO_PI_I = 2j * math.pi


class TestSolveDirect:
    def test_meridian_one_zero(self):
        s = solve_direct(1j, 1.0, 0.0)
        assert abs(s.a - TWO_PI_I) < 1e-14

    def test_meridian_one_one(self):
        s = solve_direct(1j, 1.0, 1.0)
        assert abs(s.a - (math.pi + math.pi * 1j)) < 1e-12

    def test_round_trip_with_coordinates(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = complex(rng.normal(), 0.2 + abs(rng.normal()))
            x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
            if math.hypot(x, y) < 0.1:
                continue
            c = filling_coordinates(solve_direct(b, x, y))
            d = min(math.hypot(c.x - x, c.y - y), math.hypot(c.x + x, c.y + y))
            assert d <= 1e-12 * max(1.0, math.hypot(x, y))

    def test_zero_target(self):
        with pytest.raises(ZeroTarget):
            solve_direct(1j, 0.0, 0.0)


IDENTITY_PATH = HolomorphicPath((0.0, 1.0), (1j,), center=3j, radius=5.0)


class TestSolveOnPath:
    def test_identity_path_closed_form(self):
        report = solve_on_path(IDENTITY_PATH, 1.0, 1.0, w0=3j)
        assert report.converged
        assert report.residual < 1e-12
        assert abs(report.w - (math.pi + math.pi * 1j)) < 1e-10

    def test_curved_modulus_path(self):
        path = HolomorphicPath((0.0, 1.0), (1j, 0.0, 0.01), center=6j, radius=2.0)
        report = solve_on_path(path, 1.0, 0.0, w0=6j, tol=1e-10)
        assert report.converged and report.residual < 1e-10
        assert abs(report.w - TWO_PI_I) < 1e-8

    def test_matches_solve_direct(self):
        wide = HolomorphicPath((0.0, 1.0), (1j,), center=0.0, radius=60.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.uniform(-2, 2), rng.uniform(0.2, 2)
            direct = solve_direct(1j, x, y)
            report = solve_on_path(wide, x, y, w0=2j)
            assert report.converged
            assert abs(report.w - direct.a) < 1e-10 * max(1.0, abs(direct.a))

    def test_zero_target(self):
        with pytest.raises(ZeroTarget):
            solve_on_path(IDENTITY_PATH, 0.0, 0.0, w0=3j)

    def test_domain_exit(self):
        tight = HolomorphicPath((0.0, 1.0), (1j,), center=20j, radius=0.5)
        with pytest.raises(DomainExit):
            solve_on_path(tight, 1.0, 0.0, w0=20j)

    def test_nonconvergence_reported(self):
        # iteration cap below what the cubic needs: reported, not raised
        path = HolomorphicPath((0.0, 1.0), (1j, 0.0, 0.01), center=6j, radius=2.0)
        report = solve_on_path(path, 1.0, 0.1, w0=6j + 1.5, tol=1e-12, max_iter=1)
        assert not report.converged
        assert report.iterations == 1
        assert report.residual > 1e-12

    def test_start_outside_domain(self):
        with pytest.raises(DomainExit):
            solve_on_path(IDENTITY_PATH, 1.0, 0.0, w0=100 + 0j)


class TestHolomorphicPath:
    def test_modulus_validation(self):
        # b(w) = w on a disc that crosses the real axis
        with pytest.raises(ValueError):
            HolomorphicPath((1.0,), (0.0, 1.0), center=1j, radius=2.0)
        # constant modulus in the lower half plane
        with pytest.raises(ValueError):
            HolomorphicPath((1.0,), (-1j,), center=0.0, radius=1.0)

    def test_serialization_round_trip(self):
        path = HolomorphicPath((0.1 + 0.2j, 1.0), (1j, 0.0, 0.01), center=6j, radius=2.0)
        again = HolomorphicPath.from_dict(path.to_dict())
        assert again == path

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            HolomorphicPath((), (1j,), center=0.0, radius=1.0)


class TestFillingSequence:
    def test_first_term(self):
        (s,) = filling_sequence(1j, 1, 0, [1])
        assert abs(s.a - (math.pi + math.pi * 1j)) < 1e-12

    def test_magnitudes_decrease(self):
        params = filling_sequence(1j, 1, 0, list(range(1, 20)))
        mags = [abs(s.a) for s in params]
        assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))
        for n, s in zip(range(1, 20), params):
            assert abs(abs(s.a) - 2 * math.pi / abs(1 + n * 1j)) < 1e-12

    def test_holonomy_converges_to_cusp(self):
        cusp = EndParameter(0.0, 1j)
        targets = [holonomy(cusp, 1, 0), holonomy(cusp, 0, 1)]
        params = filling_sequence(1j, 1, 0, [100])
        gens = [holonomy(params[0], 1, 0), holonomy(params[0], 0, 1)]
        for g, t in zip(gens, targets):
            assert g.distance(t) < 0.1

    def test_meridians_trivial_and_smooth(self):
        ident = MobiusTransform.identity()
        params = filling_sequence(1j, 1, 0, [1, 2, 5, 9])
        for n, s in zip([1, 2, 5, 9], params):
            assert holonomy(s, 1, n).distance(ident) < 1e-9
            got = classify_completion(s)
            assert got.kind == "smooth" and (got.p, got.q) == (1, n)

    def test_other_meridian_basis(self):
        params = filling_sequence(1j, 2, 1, [1, 3])
        basis = unimodular_completion(2, 1)
        ident = MobiusTransform.identity()
        for n, s in zip([1, 3], params):
            xy = basis @ np.array([1, n])
            assert holonomy(s, int(xy[0]), int(xy[1])).distance(ident) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            filling_sequence(1j, 2, 4, [1])
        with pytest.raises(ValueError):
            filling_sequence(1j, 1, 0, [])
        # integer determinant 2; a float determinant reads 1.49 and rounds to 1
        with pytest.raises(ValueError, match="unimodular"):
            filling_sequence(
                1j, 100000001, 100000003, [1], basis=[[100000001, 100000000], [100000003, 100000002]]
            )


class TestUnimodularCompletion:
    @pytest.mark.parametrize("pq", [(1, 0), (0, 1), (2, 1), (3, 2), (-5, 3), (7, -4)])
    def test_determinant_and_column(self, pq):
        u = unimodular_completion(*pq)
        assert round(float(np.linalg.det(u))) == 1
        assert (u[0, 0], u[1, 0]) == pq


class TestCoordinateContinuity:
    def test_constant_path(self):
        path = HolomorphicPath((math.pi + math.pi * 1j,), (1j,), center=0.0, radius=1.0)
        report = verify_coordinate_continuity(path, 12, seed=5)
        assert report.max_jump < 1e-12
        # every distinct pair shares coordinates: reported, not an error
        assert len(report.injectivity_violations) == 12 * 11 // 2

    def test_coordinates_blow_up_toward_cusp(self):
        sizes = []
        for k in range(1, 8):
            s = EndParameter(10.0 ** -k * (1 + 1j), 1j)
            c = filling_coordinates(s)
            sizes.append(abs(c.x) + abs(c.y))
        assert all(s2 > s1 for s1, s2 in zip(sizes, sizes[1:]))
        assert sizes[-1] > 1e5

    def test_injective_away_from_zero(self):
        path = HolomorphicPath((0.0, 1.0), (1j,), center=3.0 + 3j, radius=1.0)
        report = verify_coordinate_continuity(path, 60, seed=6)
        assert report.injectivity_violations == ()

    def test_report_serialization(self):
        path = HolomorphicPath((0.0, 1.0), (1j,), center=3.0 + 3j, radius=1.0)
        report = verify_coordinate_continuity(path, 10, seed=7)
        payload = report.to_dict()
        assert payload["sample_count"] == 10
        assert payload["violation_count"] == len(payload["injectivity_violations"])


class TestCuspDistance:
    def test_aligned_below_raw(self):
        for n in (5, 20, 80):
            s = EndParameter(TWO_PI_I / (1 + n * 1j), 1j)
            assert cusp_distance(s, aligned=True) < cusp_distance(s, aligned=False)

    def test_aligned_quadratic_rate(self):
        d20 = cusp_distance(EndParameter(TWO_PI_I / (1 + 20j), 1j), aligned=True)
        d80 = cusp_distance(EndParameter(TWO_PI_I / (1 + 80j), 1j), aligned=True)
        # quadratic decay: quadrupling n shrinks the distance ~16x
        assert d80 < d20 / 12.0

    def test_cusp_itself(self):
        assert cusp_distance(EndParameter(0.0, 1j)) == 0.0

    @pytest.mark.parametrize("k", [1, -1, 2])
    def test_aligned_continuous_across_pole_locus(self, k):
        # a = 2*pi*i*k lies on the pole locus e^a = 1, where holonomy changes frame
        on = cusp_distance(EndParameter(TWO_PI_I * k, 1j), aligned=True)
        for delta in (1e-9, 1e-6):
            near = cusp_distance(EndParameter(TWO_PI_I * k + delta, 1j), aligned=True)
            assert abs(near - on) <= 1e-6 * on


class TestSolveReport:
    def test_serialization(self):
        report = SolveReport(1 + 2j, 1e-13, 3, True)
        payload = report.to_dict()
        assert payload["w"] == [1.0, 2.0]
        assert payload["converged"] is True
