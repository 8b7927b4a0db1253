"""Group-cohomology linear algebra for marked PSL(2,C) representations.

Cocycles are maps from generators to sl(2,C) extended over words by
z(gh) = z(g) + Ad rho(g) z(h); coboundaries are z(g) = v - Ad rho(g) v.
Numerical ranks of the relator and coboundary maps give the complex
dimensions of Z^1, B^1 and H^1.  Also provides tangent cocycles of
representation paths by central differences and the strain coefficient of
vector fields on the sphere.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from .config import COCYCLE_TOL, RANK_RTOL, positive_finite
from .hypcore import MobiusTransform, SL2Vector, adjoint, adjoint_rows, right_translate

if TYPE_CHECKING:
    import numpy as np


#: the start of every walk and the target of the relator check; MobiusTransform is immutable, so one is shared
_IDENTITY = MobiusTransform.identity()

class BadWord(ValueError):
    """Raised for a word letter that is not an integer +-(i+1) naming a generator."""


class StepTooSmall(ValueError):
    """Raised when central differencing is dominated by cancellation."""


@dataclass(frozen=True)
class MarkedRepresentation:
    """Generator images and relator words (letters +-(i+1)) of a marked group.

    The relator check keeps what it computes:
    per relator, its walk, the prefix products I, g1, g1 g2, ... of its
    letters.  The coboundary matrix and its singular values are a cached
    property, computed once first asked for and kept in the instance dict.
    Neither takes part in ==, hash or repr.
    """

    generators: tuple
    relators: tuple
    _walks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(tuple(map(self._letter, w)) for w in self.relators))
        walks = []
        for word in self.relators:
            walk = self._walk(word)
            if not walk[-1].distance(_IDENTITY) <= 1e-9:  # a NaN distance fails too
                raise ValueError(f"relator {word} does not evaluate to +-identity")
            walks.append(walk)
        object.__setattr__(self, "_walks", tuple(walks))

    def _letter(self, value) -> int:
        """A relator or word letter +-(i+1) naming a generator, read by operator.index; a bool is refused."""
        try:
            letter = operator.index(value)
        except TypeError:
            letter = 0
        if isinstance(value, bool) or not 0 < abs(letter) <= len(self.generators):
            raise BadWord(f"letter {value!r} is not an integer +-(i+1) with 0 <= i < {len(self.generators)}")
        return letter

    def _walk(self, letters) -> tuple:
        """Prefix products I, g1, g1 g2, ... of letters read by _letter, the whole word last."""
        prefix = _IDENTITY
        walk = [prefix]
        for letter in letters:
            g = self.generators[abs(letter) - 1]
            prefix = prefix @ (g if letter > 0 else g.inverse())
            walk.append(prefix)
        return tuple(walk)

    def evaluate_word(self, word: Sequence[int]) -> MobiusTransform:
        return self._walk(map(self._letter, word))[-1]

    @cached_property
    def _coboundary(self) -> tuple:
        """(matrix, singular values) of the map v -> (v - Ad rho(g_i) v)_i, both read-only.

        The matrix is (3k, 3); column alpha is Cocycle.coboundary(self, e_alpha).coords().
        """
        import numpy as np

        units = (SL2Vector(1 + 0j, 0j, 0j), SL2Vector(0j, 1 + 0j, 0j), SL2Vector(0j, 0j, 1 + 0j))
        mat = np.column_stack([Cocycle.coboundary(self, e).coords() for e in units])
        sv = _singular_values(mat)
        mat.setflags(write=False)  # every caller shares these two arrays
        sv.setflags(write=False)
        return mat, sv


@dataclass(frozen=True)
class Cocycle:
    """One sl(2,C) value per generator of a marked representation."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    @staticmethod
    def zero(count: int) -> "Cocycle":
        return Cocycle(tuple(SL2Vector.zero() for _ in range(count)))

    @staticmethod
    def coboundary(rep: MarkedRepresentation, v: SL2Vector) -> "Cocycle":
        return Cocycle(tuple(v - adjoint(g, v) for g in rep.generators))

    def coords(self) -> np.ndarray:
        """Stacked coordinate vector in C^{3k}."""
        import numpy as np

        return np.array([c for v in self.values for c in v.coords()], dtype=complex)


def _check_generator_count(rep: MarkedRepresentation, c: Cocycle) -> None:
    if len(c.values) != len(rep.generators):
        raise ValueError("cocycle and representation have different generator counts")


def _fox_terms(word: Sequence[int], walk: tuple):
    """The Fox rule: (sign, i, prefix) per letter, for the term sign Ad(prefix) z(g_i).

    g_i at position j gives +Ad(walk[j]) z_i; g_i^-1 gives -Ad(walk[j+1]) z_i, as walk[j] g_i^-1 = walk[j+1].
    """
    for letter, before, after in zip(word, walk, walk[1:]):
        yield (1, letter - 1, before) if letter > 0 else (-1, -letter - 1, after)


def _fold(c: Cocycle, word: Sequence[int], walk: tuple) -> SL2Vector:
    """Sum of the word's Fox terms applied to c; see extend_cocycle."""
    acc = SL2Vector.zero()
    for sign, i, prefix in _fox_terms(word, walk):
        term = adjoint(prefix, c.values[i])
        acc = acc + term if sign > 0 else acc - term
    return acc


def extend_cocycle(rep: MarkedRepresentation, c: Cocycle, word: Sequence[int]) -> SL2Vector:
    """Left fold of z(gh) = z(g) + Ad rho(g) z(h) over the word.

    Inverse letters use z(g^-1) = -Ad rho(g)^-1 z(g).  The word is read once,
    so any iterable of letters will do.
    """
    _check_generator_count(rep, c)
    word = tuple(map(rep._letter, word))
    return _fold(c, word, rep._walk(word))


def is_cocycle(rep: MarkedRepresentation, c: Cocycle, tol: float = COCYCLE_TOL):
    """(bool, max relator residual): the extension over every relator must vanish.

    tol may be 0 (exact vanishing); a negative or NaN tol raises ValueError, and
    so does a cocycle whose value count is not the generator count.
    A NaN or infinite residual is reported and fails.
    """
    positive_finite("tol", tol, allow_zero=True)
    _check_generator_count(rep, c)
    residuals = (_fold(c, word, walk).norm() for word, walk in zip(rep.relators, rep._walks))
    worst = max(residuals, default=0.0, key=lambda r: (math.isnan(r), r))  # a NaN ranks above every number
    return worst <= tol, worst


def _relator_jacobian(rep: MarkedRepresentation) -> np.ndarray:
    """The linearized relator map z -> (extend_cocycle(rep, z, w))_w by Fox calculus.

    Each relator's Fox terms (see _fox_terms) add sign Ad(prefix) to their generator's column block, in order.
    """
    import numpy as np

    # summed in Python complex arithmetic, which rounds as numpy's complex128 does
    k = len(rep.generators)
    rows = []
    for word, walk in zip(rep.relators, rep._walks):
        block = [[0j] * (3 * k) for _ in range(3)]
        for sign, i, prefix in _fox_terms(word, walk):
            col = 3 * i
            for row, (x0, x1, x2) in zip(block, adjoint_rows(prefix)):
                if sign < 0:
                    x0, x1, x2 = -x0, -x1, -x2  # a - b is a + (-b) in IEEE arithmetic
                row[col] += x0
                row[col + 1] += x1
                row[col + 2] += x2
        rows += block
    return np.array(rows, dtype=complex).reshape(3 * len(rep.relators), 3 * k)


def solve_coboundary(rep: MarkedRepresentation, c: Cocycle):
    """Least-squares v with v - Ad rho(g_i) v = z(g_i) for all generators.

    Returns (v, residual) where residual is the Euclidean norm of the stacked
    defect; a residual at roundoff scale certifies c as a coboundary.
    """
    _check_generator_count(rep, c)
    if not rep.generators:
        return SL2Vector.zero(), 0.0
    import numpy as np

    A, _ = rep._coboundary
    rhs = c.coords()
    v_coords, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = float(np.linalg.norm(A @ v_coords - rhs))
    return SL2Vector.from_coords(v_coords), residual


def _singular_values(mat: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)


def _rank(sv: np.ndarray, rtol: float) -> int:
    """Number of singular values above rtol times the largest; 0 for none or all zero."""
    sv = sv.tolist()
    if not sv or sv[0] == 0.0:
        return 0
    cutoff = rtol * sv[0]
    return sum(s > cutoff for s in sv)


def h1_dimension(rep: MarkedRepresentation, rtol: float = RANK_RTOL):
    """Complex dimensions (dim Z^1, dim B^1, dim H^1).

    Z^1 is the kernel of the linearized relator map on (sl2)^k, B^1 the image
    of v -> (v - Ad rho(g_i) v)_i, both by numerical rank.
    """
    positive_finite("rtol", rtol)
    dim_z = 3 * len(rep.generators) - _rank(_singular_values(_relator_jacobian(rep)), rtol)
    dim_b = _rank(rep._coboundary[1], rtol)
    return dim_z, dim_b, dim_z - dim_b


def class_rank(rep: MarkedRepresentation, cocycles: Sequence[Cocycle], rtol: float = RANK_RTOL) -> int:
    """Rank of the given cocycles in H^1: rank([B-basis | cocycles]) - rank(B-basis); 0 for no cocycles."""
    positive_finite("rtol", rtol)
    cocycles = list(cocycles)
    if not cocycles:
        return 0
    import numpy as np

    for c in cocycles:
        _check_generator_count(rep, c)
    b_mat, b_sv = rep._coboundary
    joint = np.hstack([b_mat, np.array([c.coords() for c in cocycles]).T])
    return _rank(_singular_values(joint), rtol) - _rank(b_sv, rtol)


def tangent_cocycle(path: Callable[[float], MarkedRepresentation], h: float) -> Cocycle:
    """Cocycle z(g_i) = (d/dw rho_w(g_i)) rho_0(g_i)^-1 by central differences.

    Signs of the +-h samples are aligned to the center representation before
    differencing.  The result is projected to traceless.  ValueError if a
    sample has another generator count than the center.
    """
    positive_finite("step h", h)
    rep0 = path(0.0)
    rep_p = path(h)
    rep_m = path(-h)
    for side, sample in (("+h", rep_p), ("-h", rep_m)):
        if len(sample.generators) != len(rep0.generators):
            raise ValueError(
                f"path samples have different generator counts: {len(rep0.generators)} at 0, "
                f"{len(sample.generators)} at {side}"
            )
    values = []
    for g0, gp, gm in zip(rep0.generators, rep_p.generators, rep_m.generators):
        sp, sm = (1.0 if minus <= plus else -1.0 for minus, plus in (gp.frobenius_gaps(g0), gm.frobenius_gaps(g0)))
        diff = [sp * p - sm * m for p, m in zip(gp.entries(), gm.entries())]
        scale = max(abs(x) for x in g0.entries())
        top = max(abs(x) for x in diff)
        # an exactly constant generator is fine; a nonzero difference at
        # roundoff scale means the step no longer resolves the derivative
        if 0.0 < top < 64.0 * sys.float_info.epsilon * max(scale, 1.0):
            raise StepTooSmall("central difference dominated by cancellation")
        values.append(right_translate([x / (2.0 * h) for x in diff], g0))
    return Cocycle(tuple(values))


def strain(field: Callable[[complex], complex], z: complex, h: float = 1e-5) -> complex:
    """d/d(conj z) coefficient of the field f d/dz by central differences.

    f_zbar = ((f(z+h) - f(z-h)) + i (f(z+ih) - f(z-ih))) / (4h); vanishes
    exactly on projective (quadratic polynomial) fields.
    """
    positive_finite("step h", h)
    dx = field(z + h) - field(z - h)
    dy = field(z + 1j * h) - field(z - 1j * h)
    return (dx + 1j * dy) / (4.0 * h)
