"""Group-cohomology linear algebra for marked PSL(2,C) representations.

Cocycles are maps from generators to sl(2,C) extended over words by
z(gh) = z(g) + Ad rho(g) z(h); coboundaries are z(g) = v - Ad rho(g) v.
Numerical ranks of the relator and coboundary maps give the complex
dimensions of Z^1, B^1 and H^1.  Also provides tangent cocycles of
representation paths by central differences and the strain coefficient of
vector fields on the sphere.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from .config import COCYCLE_TOL, RANK_RTOL, positive_finite
from .hypcore import MobiusTransform, SL2Vector, adjoint_rows, right_translate

if TYPE_CHECKING:
    import numpy as np


#: the start of every walk and the target of the relator check; MobiusTransform is immutable, so one is shared
_IDENTITY = MobiusTransform.identity()
#: rows of the identity on sl(2,C) coordinates, as complex numbers so that e - x keeps the sign of a zero as numpy's does
_UNIT_ROWS = ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))

class BadWord(ValueError):
    """Raised for a word letter that is not an integer +-(i+1) naming a generator."""


class StepTooSmall(ValueError):
    """Raised when central differencing is dominated by cancellation."""


@dataclass(frozen=True)
class MarkedRepresentation:
    """Generator images and relator words (letters +-(i+1)) of a marked group.

    The relator check keeps what it computes:
    per relator, its walk, the prefix products I, g1, g1 g2, ... of its
    letters.  The relator matrix, and the coboundary matrix with its singular
    values, are cached properties, computed once first asked for and kept in
    the instance dict.  None of these takes part in ==, hash or repr.
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
    def _relator(self) -> np.ndarray:
        """The read-only relator matrix z -> (extend_cocycle(self, z, w))_w, by _fox_matrix."""
        mat = _fox_matrix(self, self.relators, self._walks)
        mat.setflags(write=False)  # every caller shares it
        return mat

    @cached_property
    def _coboundary(self) -> tuple:
        """(matrix, singular values) of the map v -> (v - Ad rho(g_i) v)_i, both read-only.

        The matrix is (3k, 3), the blocks I - Ad rho(g_i) stacked, each row e - r for a
        unit row e and the row r of hypcore.adjoint_rows, all handed to numpy at once.
        """
        import numpy as np

        rows = [
            [e - x for e, x in zip(unit, ad)] for g in self.generators for unit, ad in zip(_UNIT_ROWS, adjoint_rows(g))
        ]
        mat = np.array(rows, dtype=complex).reshape(-1, 3)
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
        """z(g_i) = v - Ad rho(g_i) v, read from the representation's kept coboundary matrix."""
        values = _apply(rep._coboundary[0], v.coords()).reshape(-1, 3).tolist()
        return Cocycle(tuple(map(SL2Vector.from_coords, values)))

    def coords(self) -> np.ndarray:
        """Stacked coordinate vector in C^{3k}."""
        import numpy as np

        return np.array([c for v in self.values for c in v.coords()], dtype=complex)


def _check_generator_count(rep: MarkedRepresentation, c: Cocycle) -> None:
    if len(c.values) != len(rep.generators):
        raise ValueError("cocycle and representation have different generator counts")


def _fox_matrix(rep: MarkedRepresentation, words, walks) -> np.ndarray:
    """The Fox rule: the (3 len(words), 3k) matrix of z -> (extend_cocycle(rep, z, w))_w.

    Letter j of a word adds, in word order, +Ad(walk[j]) to the block of g_i, or
    -Ad(walk[j+1]) for g_i^-1, as walk[j] g_i^-1 = walk[j+1].  The entries are Python
    complex sums from 0j of the rows of hypcore.adjoint_rows, handed to numpy at once.
    """
    import numpy as np

    width = 3 * len(rep.generators)
    rows = []
    for word, walk in zip(words, walks):
        block = [[0j] * width for _ in range(3)]
        for letter, before, after in zip(word, walk, walk[1:]):
            col = 3 * abs(letter) - 3
            if letter > 0:
                for row, (x, y, w) in zip(block, adjoint_rows(before)):
                    row[col] += x
                    row[col + 1] += y
                    row[col + 2] += w
            else:
                for row, (x, y, w) in zip(block, adjoint_rows(after)):
                    row[col] -= x
                    row[col + 1] -= y
                    row[col + 2] -= w
        rows += block
    return np.array(rows, dtype=complex).reshape(3 * len(words), width)


def _apply(mat: np.ndarray, coords) -> np.ndarray:
    """mat @ coords; a non-finite value gives NaN or inf without a warning, as Python arithmetic does."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):
        return mat @ coords


def extend_cocycle(rep: MarkedRepresentation, c: Cocycle, word: Sequence[int]) -> SL2Vector:
    """Left fold of z(gh) = z(g) + Ad rho(g) z(h) over the word, by its _fox_matrix block.

    Inverse letters use z(g^-1) = -Ad rho(g)^-1 z(g).  The word is read once,
    so any iterable of letters will do.
    """
    _check_generator_count(rep, c)
    word = tuple(map(rep._letter, word))
    return SL2Vector.from_coords(_apply(_fox_matrix(rep, (word,), (rep._walk(word),)), c.coords()))


def is_cocycle(rep: MarkedRepresentation, c: Cocycle, tol: float = COCYCLE_TOL):
    """(bool, max relator residual): the extension over every relator must vanish.

    tol may be 0 (exact vanishing); a negative or NaN tol raises ValueError, and
    so does a cocycle whose value count is not the generator count.
    A NaN or infinite residual is reported and fails.
    """
    positive_finite("tol", tol, allow_zero=True)
    _check_generator_count(rep, c)
    residuals = (SL2Vector.from_coords(v).norm() for v in _apply(rep._relator, c.coords()).reshape(-1, 3))
    worst = max(residuals, default=0.0, key=lambda r: (math.isnan(r), r))  # a NaN ranks above every number
    return worst <= tol, worst


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
    dim_z = 3 * len(rep.generators) - _rank(_singular_values(rep._relator), rtol)
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
    joint = np.concatenate((b_mat, np.array([c.coords() for c in cocycles]).T), axis=1)
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
    """d/d(conj z) coefficient of the field f d/dz from four samples on a circle.

    f_zbar = ((f(z+h) - f(z-h)) + i (f(z+ih) - f(z-ih))) / (4h), the samples and rule of
    NumericMap.jets; a holomorphic f reads h^2 f'''(z) / 6 + O(h^6), so it vanishes
    exactly on projective (quadratic polynomial) fields.  A point or a result that is
    not finite raises ValueError naming it.
    """
    positive_finite("step h", h)
    if not cmath.isfinite(z):
        raise ValueError(f"point z must be finite, got {z!r}")
    dx = field(z + h) - field(z - h)
    dy = field(z + 1j * h) - field(z - 1j * h)
    value = (dx + 1j * dy) / (4.0 * h)
    if not cmath.isfinite(value):
        raise ValueError(f"strain at z = {z!r} is not finite: {value!r}")
    return value
