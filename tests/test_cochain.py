"""Tests for cocycle extension, coboundary solving, cohomology ranks, strain."""

import cmath
import math
import struct

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


def fox_jacobian_loop(rep: MarkedRepresentation) -> np.ndarray:
    """Reference Fox calculus: walk each relator again, one Ad matrix per letter."""
    jac = np.zeros((3 * len(rep.relators), 3 * len(rep.generators)), dtype=complex)
    for r, word in enumerate(rep.relators):
        rows = jac[3 * r : 3 * r + 3]
        prefix = MobiusTransform.identity()
        for letter in word:
            block = slice(3 * abs(letter) - 3, 3 * abs(letter))
            if letter > 0:
                rows[:, block] += adjoint_matrix(prefix)
            g = rep.generators[abs(letter) - 1]
            prefix = prefix @ (g if letter > 0 else g.inverse())
            if letter < 0:
                rows[:, block] -= adjoint_matrix(prefix)
    return jac


#: end parameters whose holonomy is a loxodromic commuting pair
end_a = st.complex_numbers(max_magnitude=1.5)
end_b = st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.3, 2.0))
#: relator sets of a commuting pair: every word with zero exponent sum per generator,
#: with inverse and repeated letters
commuting_relators = st.lists(
    st.lists(st.sampled_from([1, 2, -1, -2]), min_size=1, max_size=5).flatmap(
        lambda w: st.permutations([-x for x in w]).map(lambda inv: tuple(w) + tuple(inv))
    ),
    min_size=1,
    max_size=3,
)


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

    @pytest.mark.parametrize("letter", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_non_integer_letter_is_bad_word(self, letter):
        # True used to read as 1 from Python, and 1.0 to fail with an unnamed TypeError
        rep = z2_rep()
        with pytest.raises(BadWord):
            MarkedRepresentation(rep.generators, ((letter, 2, -1, -2),))
        with pytest.raises(BadWord):
            extend_cocycle(rep, Cocycle.zero(2), (2, letter))
        with pytest.raises(BadWord):
            rep.evaluate_word((letter,))

    def test_iterator_word_is_read_once(self):
        # the word used to be iterated twice, so a one-shot iterator gave the zero vector
        rep = z2_rep()
        c = Cocycle.coboundary(rep, SL2Vector.from_coords((0.3, 1j, -0.5)))
        expect = extend_cocycle(rep, c, (1, 2, -1))
        assert expect.norm() > 0.1
        assert extend_cocycle(rep, c, iter((1, 2, -1))) == expect
        assert extend_cocycle(rep, c, (w for w in (1, 2, -1))) == expect
        with pytest.raises(BadWord):
            extend_cocycle(rep, c, iter((1, True)))

    def test_numpy_integer_letters_are_read(self):
        rep = MarkedRepresentation(z2_rep().generators, (tuple(np.array(Z2_RELATOR[0])),))
        assert rep == z2_rep() and all(type(x) is int for x in rep.relators[0])
        c = Cocycle.coboundary(rep, SL2Vector.from_coords((0.3, 1j, -0.5)))
        assert extend_cocycle(rep, c, np.array([1, -2, 2])) == extend_cocycle(rep, c, (1, -2, 2))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_value_fails(self, bad):
        # max(0.0, nan) is 0.0: a NaN residual must not drop out of the maximum
        c = Cocycle((SL2Vector(bad, 0j, 0j), SL2Vector.zero()))
        ok, residual = is_cocycle(z2_rep(), c)
        assert not ok and not math.isfinite(residual)

    def test_coboundaries(self):
        rng = np.random.default_rng(4)
        rep = z2_rep()
        for _ in range(5):
            ok, residual = is_cocycle(rep, Cocycle.coboundary(rep, random_sl2(rng)))
            assert ok and residual < 1e-12

    def test_exact_coboundary_with_large_generators_passes(self):
        # an inverse letter used to take Ad(g^-1), then Ad(prefix): here that left 1.16e-9 > COCYCLE_TOL
        rep = z2_rep(complex(-2.3011962062808937, -1.3081959423788294), complex(-2.4778688148094687, 1.2851861704254084))
        ok, residual = is_cocycle(rep, Cocycle.coboundary(rep, SL2Vector.from_coords((2, 2, 2))))
        assert ok and residual <= 1e-11

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=end_a,
        b=end_b,
        coords=st.lists(st.complex_numbers(max_magnitude=2.0, allow_subnormal=False), min_size=3, max_size=3),
    )
    def test_coboundary_residual_is_roundoff(self, a, b, coords):
        rep = z2_rep(a, b)
        c = Cocycle.coboundary(rep, SL2Vector.from_coords(coords))
        _, residual = is_cocycle(rep, c)
        assert residual <= 1e-13 * max(1.0, max(z.norm() for z in c.values))

    @pytest.mark.parametrize("call", [is_cocycle, solve_coboundary])
    def test_generator_count_mismatch_is_named(self, call):
        # a relator-free rep used to pass any cocycle through is_cocycle, and lstsq named no count
        free = MarkedRepresentation((MobiusTransform.identity(),), ())
        trivial = MarkedRepresentation((), ())
        for rep, c in ((free, Cocycle.zero(2)), (z2_rep(), Cocycle.zero(1)), (trivial, Cocycle.zero(1))):
            with pytest.raises(ValueError, match="different generator counts"):
                call(rep, c)

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

    def test_generator_count_mismatch_is_named(self):
        # numpy used to raise its own unnamed error: "all the input array dimensions ..." or "inhomogeneous shape"
        rep = z2_rep()
        for family in ([Cocycle.zero(1)], [Cocycle.zero(2), Cocycle.zero(3)], iter([Cocycle.zero(3)])):
            with pytest.raises(ValueError, match="different generator counts"):
                class_rank(rep, family)

    def test_trivial_group(self):
        trivial = MarkedRepresentation((), ())
        assert h1_dimension(trivial) == (0, 0, 0)
        assert is_cocycle(trivial, Cocycle(())) == (True, 0.0)
        assert class_rank(trivial, [Cocycle(())]) == 0
        assert solve_coboundary(trivial, Cocycle(())) == (SL2Vector.zero(), 0.0)
        assert _relator_jacobian(trivial).shape == (0, 0)
        assert _relator_jacobian(MarkedRepresentation((), ((), ()))).shape == (6, 0)

    def test_empty_relator_word(self):
        rep = MarkedRepresentation((random_mobius(np.random.default_rng(13)),), ((),))
        assert not _relator_jacobian(rep).any() and _relator_jacobian(rep).shape == (3, 3)
        assert h1_dimension(rep) == (3, 2, 1)

    def test_free_group_rank_two(self):
        rng = np.random.default_rng(7)
        rep = MarkedRepresentation((random_mobius(rng), random_mobius(rng)), ())
        assert h1_dimension(rep) == (6, 3, 3)
        c = Cocycle((random_sl2(rng), random_sl2(rng)))
        assert is_cocycle(rep, c) == (True, 0.0)
        assert class_rank(rep, [c]) == 1

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
    @given(a=end_a, b=end_b, relators=commuting_relators)
    def test_relator_jacobian_matches_extend_cocycle(self, a, b, relators):
        rep = MarkedRepresentation(holonomy_representation(EndParameter(a, b)), relators)
        # the stored walks, summed in Python complex arithmetic, give the bits of a fresh walk over numpy Ad matrices
        assert np.array_equal(_relator_jacobian(rep), fox_jacobian_loop(rep))
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

    def test_nan_relator_image_rejected(self):
        # a NaN distance to the identity compares False against the tolerance either way
        with pytest.raises(ValueError, match="does not evaluate"):
            MarkedRepresentation((MobiusTransform(math.nan, 0, 0, 1), MobiusTransform.identity()), Z2_RELATOR)


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
            g = MobiusTransform.from_entries(*sl2_exp(w * X).ravel())
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

    def test_generator_count_mismatch_rejected(self):
        # zipping the samples used to drop the extra generator: a 1-value cocycle for a 2-generator center
        def path(w):
            return z2_rep() if w == 0.0 else MarkedRepresentation(z2_rep().generators[:1], ())

        with pytest.raises(ValueError, match="different generator counts: 2 at 0, 1 at [+]h"):
            tangent_cocycle(path, 1e-5)

    def test_step_too_small(self):
        # the perturbation survives into the last mantissa bits but sits
        # below the cancellation threshold
        def path(w):
            g1 = MobiusTransform(1.0 + 5e-11 * w, 0.1, 0.0, 1.0)
            return MarkedRepresentation((g1,), ())

        with pytest.raises(StepTooSmall):
            tangent_cocycle(path, 1e-5)


class TestStoredWork:
    """The walks and the coboundary spectrum a representation keeps: counted, and invisible."""

    def test_one_coboundary_svd_per_representation(self, monkeypatch):
        rep = z2_rep()
        z = tangent_cocycle(lambda w: z2_rep(1.0 + w, 1j), 1e-5)
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert h1_dimension(rep) == (4, 2, 2)
        assert class_rank(rep, [z]) == 1
        # the relator Jacobian, the coboundary matrix once, and [B | z]
        assert sorted(shapes) == [(3, 6), (6, 3), (6, 4)]

    def test_each_relator_is_walked_once(self, monkeypatch):
        gens = holonomy_representation(EndParameter(1.0, 1j))
        products = []
        matmul = MobiusTransform.__matmul__

        def counting_matmul(self, other):
            products.append(1)
            return matmul(self, other)

        monkeypatch.setattr(MobiusTransform, "__matmul__", counting_matmul)
        rep = MarkedRepresentation(gens, Z2_RELATOR)
        assert len(products) == 4
        c = Cocycle.coboundary(rep, SL2Vector.from_coords((0.3, 1j, -0.5)))
        h1_dimension(rep)
        is_cocycle(rep, c)
        class_rank(rep, [c])
        assert len(products) == 4

    def test_each_letter_is_read_once(self, monkeypatch):
        gens = holonomy_representation(EndParameter(1.0, 1j))
        reads = []
        read = MarkedRepresentation._letter

        def counting_letter(self, value):
            reads.append(value)
            return read(self, value)

        monkeypatch.setattr(MarkedRepresentation, "_letter", counting_letter)
        rep = MarkedRepresentation(gens, Z2_RELATOR)
        assert reads == [1, 2, -1, -2]
        reads.clear()
        extend_cocycle(rep, Cocycle.zero(2), (1, -2, 2))
        assert reads == [1, -2, 2]
        reads.clear()
        rep.evaluate_word((2, -1))
        assert reads == [2, -1]

    def test_kept_work_is_invisible(self):
        fresh, used = z2_rep(0.8 + 0.1j, 0.5 + 1.5j), z2_rep(0.8 + 0.1j, 0.5 + 1.5j)
        for _ in range(2):
            assert fresh == used and hash(fresh) == hash(used)
            assert repr(fresh) == repr(used)
            h1_dimension(used)
        assert repr(fresh) == "MarkedRepresentation(generators=%r, relators=%r)" % (fresh.generators, Z2_RELATOR)

    def test_kept_spectrum_is_read_only(self):
        # every caller shares the kept arrays, so none may write to them
        rep = z2_rep()
        z = Cocycle.coboundary(rep, SL2Vector.from_coords((0.3, 1j, -0.5)))
        first = solve_coboundary(rep, z)
        assert all(not arr.flags.writeable for arr in rep._coboundary)
        assert solve_coboundary(rep, z) == first and first[1] < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=end_a,
        b=end_b,
        relators=commuting_relators,
        coords=st.lists(st.complex_numbers(max_magnitude=2.0, allow_subnormal=False), min_size=6, max_size=6),
    )
    def test_is_cocycle_residual_is_the_largest_extension(self, a, b, relators, coords):
        rep = MarkedRepresentation(holonomy_representation(EndParameter(a, b)), relators)
        c = Cocycle((SL2Vector.from_coords(coords[:3]), SL2Vector.from_coords(coords[3:])))
        _, residual = is_cocycle(rep, c)
        expect = max(extend_cocycle(rep, c, w).norm() for w in relators)
        assert struct.pack("<d", residual) == struct.pack("<d", expect)


class TestSerialization:
    def test_presentation_round_trip(self):
        import json

        from dehnscope.cli import _cpx, _representation

        rep = z2_rep(0.8 + 0.1j, 0.5 + 1.5j)
        # the representation's JSON as a representation file holds it, read by the CLI's reader
        payload = {"generators": [[_cpx(v) for v in g.entries()] for g in rep.generators], "relators": rep.relators}
        data = json.loads(json.dumps(payload))
        again = _representation(data)
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
