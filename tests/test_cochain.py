"""Tests for cocycle extension, coboundary solving, cohomology ranks, strain."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnscope.cochain import (
    BadWord,
    Cocycle,
    MarkedRepresentation,
    StepTooSmall,
    class_rank,
    extend_cocycle,
    h1_dimension,
    is_cocycle,
    solve_coboundary,
    strain,
    tangent_cocycle,
    _relator_jacobian,
)
from dehnscope.hypcore import MobiusTransform, SL2Vector, adjoint, adjoint_matrix
from dehnscope.torus_end import EndParameter, holonomy_representation, z0_of

Z2_RELATOR = ((1, 2, -1, -2),)


def sl2_exp(mat: np.ndarray) -> np.ndarray:
    """exp of a traceless 2x2 matrix: cosh(mu) I + sinh(mu)/mu X, mu^2 = -det."""
    mu = cmath.sqrt(mat[0, 0] ** 2 + mat[0, 1] * mat[1, 0])
    if abs(mu) < 1e-12:
        return np.eye(2, dtype=complex) + mat
    return np.cosh(mu) * np.eye(2, dtype=complex) + (np.sinh(mu) / mu) * mat


def z2_rep(a=1.0, b=1j) -> MarkedRepresentation:
    return MarkedRepresentation(holonomy_representation(EndParameter(a, b)), Z2_RELATOR)


def random_sl2(rng) -> SL2Vector:
    return SL2Vector.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3))


def random_mobius(rng) -> MobiusTransform:
    while True:
        e = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(e[0] * e[3] - e[1] * e[2]) > 0.1:
            return MobiusTransform.from_entries(*e)


class TestExtendCocycle:
    def test_empty_word(self):
        rep = z2_rep()
        rng = np.random.default_rng(1)
        c = Cocycle((random_sl2(rng), random_sl2(rng)))
        assert extend_cocycle(rep, c, ()).norm() == 0.0

    def test_cancelling_word(self):
        rep = z2_rep()
        rng = np.random.default_rng(2)
        c = Cocycle((random_sl2(rng), random_sl2(rng)))
        assert extend_cocycle(rep, c, (1, -1)).norm() < 1e-12
        assert extend_cocycle(rep, c, (2, -2)).norm() < 1e-12

    def test_coboundary_extension_closed_form(self):
        rep = z2_rep()
        rng = np.random.default_rng(3)
        v = random_sl2(rng)
        c = Cocycle.coboundary(rep, v)
        for _ in range(10):
            word = tuple(int(w) for w in rng.choice([1, 2, -1, -2], size=rng.integers(1, 7)))
            expect = v - adjoint(rep.evaluate_word(word), v)
            got = extend_cocycle(rep, c, word)
            assert (got - expect).norm() < 1e-10

    def test_bad_word(self):
        rep = z2_rep()
        c = Cocycle((SL2Vector.zero(), SL2Vector.zero()))
        with pytest.raises(BadWord):
            extend_cocycle(rep, c, (3,))
        with pytest.raises(BadWord):
            extend_cocycle(rep, c, (0,))


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        entries=st.lists(
            st.tuples(*[st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)] * 4).filter(
                lambda e: abs(e[0] * e[3] - e[1] * e[2]) > 0.5
            ),
            min_size=2,
            max_size=2,
        ),
        coords=st.lists(st.complex_numbers(max_magnitude=2.0, allow_subnormal=False), min_size=6, max_size=6),
        u=st.lists(st.sampled_from([1, 2, -1, -2]), max_size=5),
        w=st.lists(st.sampled_from([1, 2, -1, -2]), max_size=5),
    )
    def test_cocycle_identity_on_words(self, entries, coords, u, w):
        # any generator values extend over the free group as a crossed homomorphism
        rep = MarkedRepresentation(tuple(MobiusTransform.from_entries(*e) for e in entries), ())
        c = Cocycle((SL2Vector.from_coords(coords[:3]), SL2Vector.from_coords(coords[3:])))
        lhs = extend_cocycle(rep, c, u + w)
        rhs = extend_cocycle(rep, c, u) + adjoint(rep.evaluate_word(u), extend_cocycle(rep, c, w))
        word = u + w
        scale = max(v.norm() for v in c.values) * sum(
            np.linalg.norm(adjoint_matrix(rep.evaluate_word(word[:j]))) for j in range(len(word) + 1)
        )
        assert (lhs - rhs).norm() <= 1e-12 * scale


class TestIsCocycle:
    def test_zero(self):
        rep = z2_rep()
        ok, residual = is_cocycle(rep, Cocycle.zero(2))
        assert ok and residual == 0.0
        assert is_cocycle(rep, Cocycle.zero(2), tol=0.0) == (True, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            is_cocycle(z2_rep(), Cocycle.zero(2), tol=tol)

    def test_coboundaries(self):
        rng = np.random.default_rng(4)
        rep = z2_rep()
        for _ in range(5):
            ok, residual = is_cocycle(rep, Cocycle.coboundary(rep, random_sl2(rng)))
            assert ok and residual < 1e-12

    def test_random_values_generically_fail(self):
        rng = np.random.default_rng(5)
        rep = z2_rep()
        failures = 0
        for _ in range(10):
            ok, residual = is_cocycle(rep, Cocycle((random_sl2(rng), random_sl2(rng))))
            failures += 0 if ok else 1
            if not ok:
                assert residual > 1e-6
        assert failures == 10


class TestSolveCoboundary:
    def test_zero(self):
        v, residual = solve_coboundary(z2_rep(), Cocycle.zero(2))
        assert v.norm() < 1e-12 and residual < 1e-12

    def test_recovers_constructed_coboundary(self):
        rng = np.random.default_rng(6)
        rep = z2_rep()
        for _ in range(5):
            v = random_sl2(rng)
            c = Cocycle.coboundary(rep, v)
            w, residual = solve_coboundary(rep, c)
            assert residual < 1e-10
            # recovered vector induces the same coboundary
            again = Cocycle.coboundary(rep, w)
            assert max((x - y).norm() for x, y in zip(again.values, c.values)) < 1e-10

    def test_values_are_python_numbers(self):
        # lstsq works on the stacked array; the vector it returns holds Python complex values
        rep = z2_rep()
        c = tangent_cocycle(lambda w: z2_rep(1.0 + w, 1j), 1e-5)
        v, _ = solve_coboundary(rep, c)
        for vec in (v, *c.values, extend_cocycle(rep, c, Z2_RELATOR[0])):
            assert all(type(x) is complex for x in vec.coords())
        coords = c.coords()
        assert coords.dtype == complex and coords.tolist() == [x for u in c.values for x in u.coords()]

    def test_axis_stretch_class_is_nontrivial(self):
        s = EndParameter(1.0, 1j)
        rep = z2_rep(1.0, 1j)
        z0 = z0_of(s.a)
        stretch = SL2Vector.from_matrix([[0.5, -z0], [0.0, -0.5]])
        c = Cocycle((stretch, SL2Vector.zero()))
        ok, residual = is_cocycle(rep, c)
        assert ok and residual < 1e-12
        _, cob_residual = solve_coboundary(rep, c)
        assert cob_residual > 0.1


class TestH1Dimension:
    def test_z2_loxodromic(self):
        assert h1_dimension(z2_rep(1.0, 1j)) == (4, 2, 2)

    @pytest.mark.parametrize("rtol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_rank_tolerance_rejected(self, rtol):
        # a NaN cutoff used to read every singular value as zero: (6, 0, 6)
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            h1_dimension(z2_rep(), rtol)
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            class_rank(z2_rep(), [Cocycle.zero(2)], rtol=rtol)

    def test_empty_family_has_rank_zero(self):
        assert class_rank(z2_rep(), []) == 0
        assert class_rank(z2_rep(), iter(())) == 0

    def test_trivial_group(self):
        assert h1_dimension(MarkedRepresentation((), ())) == (0, 0, 0)

    def test_free_group_rank_two(self):
        rng = np.random.default_rng(7)
        rep = MarkedRepresentation((random_mobius(rng), random_mobius(rng)), ())
        assert h1_dimension(rep) == (6, 3, 3)

    def test_euler_relation_and_conjugation_invariance(self):
        rng = np.random.default_rng(8)
        rep = z2_rep(0.8 + 0.1j, 0.5 + 1.5j)
        base = h1_dimension(rep)
        assert base[2] == base[0] - base[1]
        for _ in range(5):
            g = random_mobius(rng)
            gens = tuple(g @ h @ g.inverse() for h in rep.generators)
            conj = MarkedRepresentation(gens, Z2_RELATOR)
            assert h1_dimension(conj) == base

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.complex_numbers(max_magnitude=1.5),
        b=st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.3, 2.0)),
        relators=st.lists(
            # a commuting pair satisfies every word with zero exponent sum per generator
            st.lists(st.sampled_from([1, 2, -1, -2]), min_size=1, max_size=5).flatmap(
                lambda w: st.permutations([-x for x in w]).map(lambda inv: tuple(w) + tuple(inv))
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_relator_jacobian_matches_extend_cocycle(self, a, b, relators):
        rep = MarkedRepresentation(holonomy_representation(EndParameter(a, b)), relators)
        cols = []
        for i in range(2):
            for alpha in range(3):
                vals = [SL2Vector.zero(), SL2Vector.zero()]
                vals[i] = SL2Vector.from_coords(np.eye(3, dtype=complex)[alpha])
                c = Cocycle(tuple(vals))
                cols.append(np.concatenate([extend_cocycle(rep, c, w).coords() for w in relators]))
        reference = np.array(cols).T
        got = _relator_jacobian(rep)
        assert got.shape == reference.shape
        # relative to the size of the summed Fox terms: a cancelling word sums to 0 up to roundoff
        scale = sum(
            np.linalg.norm(adjoint_matrix(rep.evaluate_word(w[:j]))) for w in relators for j in range(len(w))
        )
        assert np.linalg.norm(got - reference) <= 1e-12 * scale

    def test_relator_validation(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            MarkedRepresentation((random_mobius(rng), random_mobius(rng)), Z2_RELATOR)


class TestTangentCocycle:
    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-5])
    def test_bad_step_rejected(self, h):
        # an infinite step used to return the zero cocycle
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            tangent_cocycle(lambda w: z2_rep(1.0 + w, 1j), h)

    def test_constant_path(self):
        rep = z2_rep()
        c = tangent_cocycle(lambda w: rep, 1e-5)
        assert max(v.norm() for v in c.values) == 0.0

    def test_result_is_cocycle(self):
        h = 1e-5
        for path in (
            lambda w: z2_rep(1.0 + w, 1j),
            lambda w: z2_rep(1.0, 1j * (1.0 + w)),
        ):
            c = tangent_cocycle(path, h)
            ok, residual = is_cocycle(path(0.0), c, tol=10 * h * h)
            assert ok, residual

    def test_conjugation_path_is_coboundary(self):
        rng = np.random.default_rng(10)
        rep = z2_rep()
        x, y, w = random_sl2(rng).coords()
        X = np.array([[x, y], [w, -x]]) * 0.5

        def path(w):
            g = MobiusTransform.from_matrix(sl2_exp(w * X))
            gens = tuple(g @ h @ g.inverse() for h in rep.generators)
            return MarkedRepresentation(gens, Z2_RELATOR)

        c = tangent_cocycle(path, 1e-5)
        _, residual = solve_coboundary(rep, c)
        assert residual < 1e-8

    def test_exponent_path_is_nontrivial(self):
        c = tangent_cocycle(lambda w: z2_rep(1.0 + w, 1j), 1e-5)
        _, residual = solve_coboundary(z2_rep(), c)
        assert residual > 0.05

    def test_exponent_and_modulus_paths_independent(self):
        rep = z2_rep()
        za = tangent_cocycle(lambda w: z2_rep(1.0 + w, 1j), 1e-5)
        zb = tangent_cocycle(lambda w: z2_rep(1.0, 1j * (1.0 + w)), 1e-5)
        assert class_rank(rep, [za, zb]) == 2

    def test_flipped_samples_give_the_same_cocycle(self):
        # PSL(2,C) paths may come back with either sign; each +-h sample is aligned to the center
        def path(w):
            return z2_rep(1.0 + w, 0.3 + 1j * (1.0 - w))

        def flipped(sides):
            def flipped_path(w):
                rep = path(w)
                if w == 0.0 or (w > 0) not in sides:
                    return rep
                gens = tuple(MobiusTransform(*(-x for x in g.entries())) for g in rep.generators)
                return MarkedRepresentation(gens, rep.relators)

            return flipped_path

        expect = tangent_cocycle(path, 1e-5).coords()
        assert np.linalg.norm(expect) > 0.1
        for sides in ((True,), (False,), (True, False)):
            assert np.array_equal(tangent_cocycle(flipped(sides), 1e-5).coords(), expect)

    def test_step_too_small(self):
        # the perturbation survives into the last mantissa bits but sits
        # below the cancellation threshold
        def path(w):
            g1 = MobiusTransform(1.0 + 5e-11 * w, 0.1, 0.0, 1.0)
            return MarkedRepresentation((g1,), ())

        with pytest.raises(StepTooSmall):
            tangent_cocycle(path, 1e-5)


class TestSerialization:
    def test_presentation_round_trip(self):
        import json

        rep = z2_rep(0.8 + 0.1j, 0.5 + 1.5j)
        data = json.loads(json.dumps(rep.to_dict()))
        again = MarkedRepresentation.from_dict(data)
        assert again.relators == rep.relators
        assert max(g.distance(h) for g, h in zip(again.generators, rep.generators)) < 1e-15


class TestStrain:
    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-5])
    def test_bad_step_rejected(self, h):
        # an infinite step used to return nan+nanj
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            strain(lambda z: z.conjugate(), 0.3 + 0.7j, h)

    def test_antiholomorphic_identity(self):
        assert abs(strain(lambda z: z.conjugate(), 0.3 + 0.7j) - 1.0) < 1e-10

    def test_modulus_squared(self):
        z = 0.3 + 0.7j
        assert abs(strain(lambda z_: z_ * z_.conjugate(), z) - z) < 1e-10

    def test_projective_fields_vanish(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
            z = complex(rng.normal(), rng.normal())
            assert abs(strain(lambda w: a * w * w + b * w + c, z)) < 1e-8

    def test_complex_linearity(self):
        rng = np.random.default_rng(12)
        z = 0.4 - 0.2j
        f = lambda w: w * w.conjugate() + 2 * w.conjugate()
        g = lambda w: cmath.sin(w.conjugate())
        lam = 0.7 - 1.3j
        combined = strain(lambda w: f(w) + lam * g(w), z)
        assert abs(combined - (strain(f, z) + lam * strain(g, z))) < 1e-8
