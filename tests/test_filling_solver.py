"""Tests for the filling-coordinate solvers and sequence generation."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnscope.config import ARRAY_BLOCK
from dehnscope.filling_solver import (
    DomainExit,
    HolomorphicPath,
    SolveReport,
    ZeroTarget,
    _coincident_pairs,
    _sample_disc,
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
    FillingCoordinate,
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        b=st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 3.0)),
        x=st.floats(-10.0, 10.0),
        y=st.floats(-10.0, 10.0),
    )
    def test_round_trip_property(self, b, x, y):
        # filling_coordinates o solve_direct is the identity on R^2/+-1 minus the origin;
        # the error of y = Im(w)/Im(b) and x = Re(w) - Re(b) y grows like |x + by| |b| / Im(b)
        if math.hypot(x, y) < 1e-3:
            return
        c = filling_coordinates(solve_direct(b, x, y))
        err = min(math.hypot(c.x - x, c.y - y), math.hypot(c.x + x, c.y + y))
        assert err <= 32 * 2.0 ** -52 * abs(x + b * y) * (1.0 + abs(b)) / b.imag


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

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, 0.0, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance used to run every iteration and report converged=False at residual 0
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_on_path(IDENTITY_PATH, 1.0, 1.0, w0=3j, tol=tol)

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
        (b11, b12), (b21, b22) = unimodular_completion(2, 1)
        ident = MobiusTransform.identity()
        for n, s in zip([1, 3], params):
            assert holonomy(s, b11 + b12 * n, b21 + b22 * n).distance(ident) < 1e-9

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

    def test_float_basis_is_not_truncated(self):
        # determinant 1.9; truncating the entries to integers would read the identity
        with pytest.raises(TypeError):
            filling_sequence(1j, 1, 0, [1], basis=[[1, 0.9], [0, 1.9]])
        with pytest.raises(TypeError):
            filling_sequence(1j, 1, 0, [1.5])

    def test_large_n_is_exact(self):
        # y = 5 + 2n passes 2^63 at n = 2^62, where a 64-bit product wraps to a negative y
        n = 2**62
        (b11, b12), (b21, b22) = unimodular_completion(3, 5)
        [s] = filling_sequence(1j, 3, 5, [n])
        assert b21 + b22 * n > 2**63
        assert s == solve_direct(1j, float(b11 + b12 * n), float(b21 + b22 * n))
        assert s.a.real > 0


class TestUnimodularCompletion:
    @pytest.mark.parametrize("pq", [(1, 0), (0, 1), (2, 1), (3, 2), (-5, 3), (7, -4)])
    def test_determinant_and_column(self, pq):
        u = unimodular_completion(*pq)
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        assert (u[0][0], u[1][0]) == pq

    def test_python_integers(self):
        for pq in ((3, 5), (np.int64(3), np.int64(5)), (2**70 + 1, 2**70)):
            u = unimodular_completion(*pq)
            assert type(u) is tuple and all(type(e) is int for row in u for e in row)
            assert u[0][0] * u[1][1] - u[0][1] * u[1][0] == 1
        with pytest.raises(TypeError):
            unimodular_completion(1.0, 0)


def _sample_disc_pairwise(center, radius, count, rng):
    """The pair-by-pair rejection loop that _sample_disc draws in blocks, kept as its reference."""
    pts = []
    while len(pts) < count:
        u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if u * u + v * v <= 1.0:
            pts.append(center + radius * complex(u, v))
    return pts


class TestSampleDisc:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 2000),
        block=st.sampled_from([1, 3, 64, ARRAY_BLOCK]),
        center=st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        radius=st.floats(0.01, 10.0),
    )
    def test_matches_pairwise_loop(self, seed, count, block, center, radius):
        with mock.patch("dehnscope.filling_solver.ARRAY_BLOCK", block):
            got = _sample_disc(center, radius, count, np.random.default_rng(seed))
        assert got.dtype == complex
        assert got.tolist() == _sample_disc_pairwise(center, radius, count, np.random.default_rng(seed))


def scalar_scan(path, count, seed, tol):
    """(max_jump, pairs, largest |x| + |y|) from per-sample filling_coordinates and all_pairs."""
    ws = _sample_disc(path.center, path.radius, count, np.random.default_rng(seed)).tolist()
    coords = [filling_coordinates(EndParameter(path.a(w), path.b(w))) for w in ws]
    max_jump = max(c1.distance(c2) for c1, c2 in zip(coords, coords[1:]))
    scale = max([abs(c.x) + abs(c.y) for c in coords if not c.infinite], default=0.0)
    return max_jump, all_pairs(ws, coords, tol), scale


@st.composite
def continuity_cases(draw):
    """(path, sample_count, seed): random polynomial paths, some of which hit the cusp a = 0.

    Im b stays above 3 - 1.1 on the disc.  "zero" is a = 0 everywhere; "rounding"
    is a(w) = w - center on a disc so small that many samples round to the
    center itself, mixing cusp samples with coordinates of size ~1e16.  Its b
    is constant: with a on a lattice of a few values, a b that varies by
    1e-17 makes coordinates that are equal in one rounding and not the other,
    which flips pairs at tol = 0.
    """
    small = st.builds(complex, st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    b_coeffs = (draw(st.builds(complex, st.floats(-1.0, 1.0), st.floats(3.0, 4.0))), *draw(st.lists(small, max_size=3)))
    center = draw(st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    kind = draw(st.sampled_from(["polynomial", "zero", "rounding"]))
    if kind == "polynomial":
        a_coeffs = draw(st.lists(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4))
        radius = draw(st.floats(0.01, 1.0))
    elif kind == "zero":
        a_coeffs, radius = (0j,), draw(st.floats(0.01, 1.0))
    else:
        a_coeffs, radius = (-center, 1.0), draw(st.sampled_from([2e-16, 5e-16]))
        b_coeffs = b_coeffs[:1]
    path = HolomorphicPath(tuple(a_coeffs), b_coeffs, center=center, radius=radius)
    return path, draw(st.integers(2, 300)), draw(st.integers(0, 2**32 - 1))


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

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_constant_path_lists_every_pair_in_order(self, tol):
        path = HolomorphicPath((math.pi + math.pi * 1j,), (1j,), center=0.0, radius=1.0)
        report = verify_coordinate_continuity(path, 12, seed=5, coincidence_tol=tol)
        assert report.injectivity_violations == tuple(itertools.combinations(range(12), 2))

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, -math.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="coincidence_tol"):
            verify_coordinate_continuity(IDENTITY_PATH, 20, coincidence_tol=tol)

    def test_sample_count_is_an_index(self):
        with pytest.raises(TypeError):
            verify_coordinate_continuity(IDENTITY_PATH, 20.0)
        report = verify_coordinate_continuity(IDENTITY_PATH, np.int64(20))
        assert type(report.sample_count) is int and report.sample_count == 20

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        case=continuity_cases(),
        tol=st.sampled_from([0.0, 1e-9, 0.25]),
        block=st.sampled_from([1, 3, 64, 2**16]),
    )
    def test_matches_scalar_scan(self, case, tol, block):
        path, count, seed = case
        want = scalar_scan(path, count, seed, tol)
        with mock.patch("dehnscope.filling_solver.ARRAY_BLOCK", block):
            got = verify_coordinate_continuity(path, count, seed=seed, coincidence_tol=tol)
        max_jump, pairs, scale = want
        assert got.injectivity_violations == tuple(pairs)
        # numpy's complex products and quotients round differently from CPython's
        assert got.max_jump == max_jump or abs(got.max_jump - max_jump) <= 1e-13 * scale

    def test_modulus_negative_between_the_grid_rays(self):
        # b(w) = i (1 + 1.5 w^8): Im b > 0 on the rays of the construction grid, where w^8 > 0,
        # but Im b = 1 - 1.5 r^8 < 0 at angle pi/8 for r > (2/3)^(1/8)
        path = HolomorphicPath((1.0,), (1j, 0, 0, 0, 0, 0, 0, 0, 1.5j), center=0.0, radius=1.0)
        with pytest.raises(ValueError, match="Im b must be strictly positive") as got:
            verify_coordinate_continuity(path, 400, seed=3)
        with pytest.raises(ValueError) as want:
            scalar_scan(path, 400, 3, 1e-9)
        # the same sample fails; b is evaluated in numpy, so its digits can differ in the last place
        prefix, got_b = str(got.value).split("= ")
        want_prefix, want_b = str(want.value).split("= ")
        assert prefix == want_prefix
        assert abs(complex(got_b) - complex(want_b)) <= 1e-15 * abs(complex(want_b))

    def test_memory_is_linear_in_the_samples(self):
        # the scan holds a few arrays of one entry per sample: about 26 MiB at 2e5 samples
        path = HolomorphicPath((0.0, 1.0), (1j,), center=3.0 + 3j, radius=1.0)
        verify_coordinate_continuity(path, 10)  # numpy's import is not part of the peak
        tracemalloc.start()
        try:
            report = verify_coordinate_continuity(path, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.injectivity_violations == ()
        assert peak < 64 * 2**20

    def test_overflowing_coordinate_rejected(self):
        # |a| <= 1e-310 on the unit disc: 2 pi / |a| is past the float range
        path = HolomorphicPath((0.0, 0.0, 1e-310), (1j,), center=0.0, radius=1.0)
        with pytest.raises(ValueError, match="must be finite numbers"):
            verify_coordinate_continuity(path, 50, seed=4)


def coincident_pairs(ws, coords, tol):
    """_coincident_pairs on the arrays of the samples ws and their FillingCoordinate list."""
    return _coincident_pairs(
        np.array(ws, dtype=complex),
        np.array([c.infinite for c in coords], dtype=bool),
        np.array([c.x for c in coords]),
        np.array([c.y for c in coords]),
        tol,
    )


def all_pairs(ws, coords, tol):
    """The O(n^2) reference scan that _coincident_pairs must reproduce."""
    n = len(ws)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(ws[i] - ws[j]) > tol and coords[i].distance(coords[j]) <= tol
    ]


EPS = 2.0 ** -52
#: offsets from a base point, in units of tol: inside, exactly at, one ulp either side of, and beyond tol
OFFSET_FACTORS = (0.0, 0.25, 0.5, 1.0 - EPS, 1.0, 1.0 + EPS, 1.5, 2.0, 3.0)
DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6))


@st.composite
def coordinate_sets(draw):
    """(ws, coords, tol) clustered so that pairs sit at, inside and just beyond tol.

    Bases include x = 0 with y of either sign, where canonical_sign_pair flips
    the sign of one neighbour and not the other, and magnitudes up to 1e300;
    points may be negated, may be the cusp, and draw w from a small pool so
    that repeated w occur.
    """
    tol = draw(st.sampled_from((0.0, 5e-324, 1e-9, 1e-3, 0.25)))
    scale = draw(st.sampled_from((1e-12, 1.0, 1e6, 3e299, 1e300)))
    base_xs = st.sampled_from((0.0, 0.0, 1.0, -1.0, 0.75, 2.5)) | st.floats(-2.0, 2.0)
    bases = draw(st.lists(st.tuples(base_xs, base_xs), min_size=1, max_size=4))
    w_step = draw(st.sampled_from((1.0, 0.3 * tol)))
    ws, coords = [], []
    for _ in range(draw(st.integers(2, 24))):
        ws.append(complex(draw(st.integers(0, 7)) * w_step, 0.0))
        if draw(st.integers(0, 5)) == 0:
            coords.append(FillingCoordinate.infinity())
            continue
        bx, by = draw(st.sampled_from(bases))
        f = draw(st.sampled_from(OFFSET_FACTORS)) * tol
        dx, dy = draw(st.sampled_from(DIRECTIONS))
        sign = draw(st.sampled_from((1.0, -1.0)))
        x, y = sign * (bx * scale + f * dx), sign * (by * scale + f * dy)
        coords.append(FillingCoordinate.infinity() if x == 0.0 and y == 0.0 else FillingCoordinate.finite(x, y))
    return ws, coords, tol


class TestCoincidentPairs:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=coordinate_sets())
    def test_matches_all_pairs(self, case):
        ws, coords, tol = case
        assert coincident_pairs(ws, coords, tol) == all_pairs(ws, coords, tol)

    def test_pair_across_the_sign_boundary(self):
        # (tol/4, 1) and (-tol/4, 1) are tol/2 apart; the second is stored as (tol/4, -1)
        tol = 1e-9
        coords = [FillingCoordinate.finite(tol / 4, 1.0), FillingCoordinate.finite(-tol / 4, 1.0)]
        assert coords[1].y == -1.0
        assert coincident_pairs([0j, 1j], coords, tol) == [(0, 1)]

    def test_cusp_points_coincide(self):
        cusp, far = FillingCoordinate.infinity(), FillingCoordinate.finite(1e6, 1.0)
        coords = [cusp, far, cusp, cusp]
        assert coincident_pairs([0j, 1j, 2j, 3j], coords, 1e-9) == [(0, 2), (0, 3), (2, 3)]
        assert coincident_pairs([0j, 1j, 0j, 3j], coords, 0.0) == [(0, 3), (2, 3)]

    @pytest.mark.parametrize(
        "xs, ys, tol, want",
        [
            # one x, y spaced 1.0: every sample lies in every other's x window, none is within tol
            ([1.0] * 1000, [float(k) for k in range(1000)], 1e-9, []),
            # exactly tol apart in x
            ([0.0, 1e-9], [1.0, 1.0], 1e-9, [(0, 1)]),
            ([3.0, 3.0 + 2.0**-30], [1.0, 1.0], 2.0**-30, [(0, 1)]),
            # the second is stored as (5e-324, -1); the pair matches through x1 + x2, which is
            # tol + 5e-324 exactly and rounds to tol
            ([1e-9, -5e-324], [1.0, 1.0], 1e-9, [(0, 1)]),
            # the x differ by 1 + 2^-53 exactly, a tie that rounds to tol = 1; the smaller x + tol
            # and the larger x - tol are ties too and round away from the other point, so a window
            # of half-width tol misses the pair from either side
            ([2.0**-53, 1.0 + 2.0**-52], [1.0, 1.0], 1.0, [(0, 1)]),
            ([1.0 + 2.0**-52, 2.0**-53], [1.0, 1.0], 1.0, [(0, 1)]),
        ],
        ids=["shared-x", "tol-apart-at-0", "tol-apart-at-3", "sum-past-tol", "tie-up", "tie-down"],
    )
    def test_constructed_pairs(self, xs, ys, tol, want):
        ws = [complex(5 * k) for k in range(len(xs))]
        coords = [FillingCoordinate.finite(x, y) for x, y in zip(xs, ys)]
        assert coincident_pairs(ws, coords, tol) == all_pairs(ws, coords, tol) == want

    def test_huge_coordinates(self):
        # x ~ 3.1e300 from a ~ 1e-300: x +- 2 tol rounds to x, so a window holds only the keys equal to x
        c = filling_coordinates(EndParameter(1e-300 * (1 + 1j), 1j))
        assert math.isfinite(c.x) and c.x > 1e300
        coords = [c, FillingCoordinate.finite(-c.x, -c.y), FillingCoordinate.finite(c.x, 1.0)]
        assert coincident_pairs([0j, 1j, 2j], coords, 1e-9) == [(0, 1)]


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
