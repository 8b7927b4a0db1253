"""Group-cohomology linear algebra for marked PSL(2,C) representations.

Cocycles are maps from generators to sl(2,C) extended over words by
z(gh) = z(g) + Ad rho(g) z(h); coboundaries are z(g) = v - Ad rho(g) v.
Numerical ranks of the relator and coboundary maps give the complex
dimensions of Z^1, B^1 and H^1.  Also provides tangent cocycles of
representation paths by central differences and the strain coefficient of
vector fields on the sphere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .config import RANK_RTOL, positive_finite
from .hypcore import MobiusTransform, SL2Vector, adjoint, adjoint_matrix, right_translate

if TYPE_CHECKING:
    import numpy as np


class BadWord(ValueError):
    """Raised for a word letter outside the generator index range."""


class StepTooSmall(ValueError):
    """Raised when central differencing is dominated by cancellation."""


@dataclass(frozen=True)
class MarkedRepresentation:
    """Generator images and relator words (letters +-(i+1)) of a marked group."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(tuple(w) for w in self.relators))
        for word in self.relators:
            img = self.evaluate_word(word)
            if img.distance(MobiusTransform.identity()) > 1e-9:
                raise ValueError(f"relator {word} does not evaluate to +-identity")

    def generator(self, letter: int) -> MobiusTransform:
        idx = abs(letter) - 1
        if letter == 0 or idx >= len(self.generators):
            raise BadWord(f"letter {letter} outside generator range")
        g = self.generators[idx]
        return g if letter > 0 else g.inverse()

    def evaluate_word(self, word: Sequence[int]) -> MobiusTransform:
        acc = MobiusTransform.identity()
        for letter in word:
            acc = acc @ self.generator(letter)
        return acc

    def to_dict(self) -> dict:
        gens = []
        for g in self.generators:
            gens.append([[v.real, v.imag] for v in g.entries()])
        return {"generators": gens, "relators": [list(w) for w in self.relators]}

    @staticmethod
    def from_dict(data: dict) -> "MarkedRepresentation":
        gens = tuple(
            MobiusTransform.from_entries(*(complex(re, im) for re, im in entries))
            for entries in data["generators"]
        )
        relators = tuple(tuple(int(v) for v in w) for w in data.get("relators", []))
        return MarkedRepresentation(gens, relators)


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


def extend_cocycle(rep: MarkedRepresentation, c: Cocycle, word: Sequence[int]) -> SL2Vector:
    """Left fold of z(gh) = z(g) + Ad rho(g) z(h) over the word.

    Inverse letters use z(g^-1) = -Ad rho(g)^-1 z(g).
    """
    if len(c.values) != len(rep.generators):
        raise ValueError("cocycle and representation have different generator counts")
    acc = SL2Vector.zero()
    prefix = MobiusTransform.identity()
    for letter in word:
        g = rep.generator(letter)
        if letter > 0:
            zl = c.values[letter - 1]
        else:
            zl = -adjoint(g, c.values[-letter - 1])
        acc = acc + adjoint(prefix, zl)
        prefix = prefix @ g
    return acc


def is_cocycle(rep: MarkedRepresentation, c: Cocycle, tol: float = 1e-9):
    """(bool, max relator residual): the extension over every relator must vanish.

    tol may be 0 (exact vanishing); a negative or NaN tol raises ValueError.
    """
    positive_finite("tol", tol, allow_zero=True)
    worst = 0.0
    for word in rep.relators:
        worst = max(worst, extend_cocycle(rep, c, word).norm())
    return worst <= tol, worst


def _coboundary_matrix(rep: MarkedRepresentation) -> np.ndarray:
    """The map v -> (v - Ad rho(g_i) v)_i as a (3k, 3) matrix.

    Column alpha is Cocycle.coboundary(rep, e_alpha).coords().
    """
    import numpy as np

    blocks = [np.eye(3, dtype=complex) - adjoint_matrix(g) for g in rep.generators]
    return np.vstack(blocks) if blocks else np.zeros((0, 3), dtype=complex)


def _relator_jacobian(rep: MarkedRepresentation) -> np.ndarray:
    """The linearized relator map z -> (extend_cocycle(rep, z, w))_w by Fox calculus.

    Walking each relator once, a letter g_i at prefix u adds Ad(u) to column
    block i and a letter g_i^-1 adds -Ad(u g_i^-1).
    """
    import numpy as np

    jac = np.zeros((3 * len(rep.relators), 3 * len(rep.generators)), dtype=complex)
    for r, word in enumerate(rep.relators):
        rows = jac[3 * r : 3 * r + 3]
        prefix = MobiusTransform.identity()
        for letter in word:
            block = slice(3 * abs(letter) - 3, 3 * abs(letter))
            if letter > 0:
                rows[:, block] += adjoint_matrix(prefix)
            prefix = prefix @ rep.generator(letter)
            if letter < 0:
                rows[:, block] -= adjoint_matrix(prefix)
    return jac


def solve_coboundary(rep: MarkedRepresentation, c: Cocycle):
    """Least-squares v with v - Ad rho(g_i) v = z(g_i) for all generators.

    Returns (v, residual) where residual is the Euclidean norm of the stacked
    defect; a residual at roundoff scale certifies c as a coboundary.
    """
    if not rep.generators:
        return SL2Vector.zero(), 0.0
    import numpy as np

    A = _coboundary_matrix(rep)
    rhs = c.coords()
    v_coords, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = float(np.linalg.norm(A @ v_coords - rhs))
    return SL2Vector.from_coords(v_coords), residual


def _numerical_rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    if mat.size == 0:
        return 0
    import numpy as np

    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def h1_dimension(rep: MarkedRepresentation, rtol: float = RANK_RTOL):
    """Complex dimensions (dim Z^1, dim B^1, dim H^1).

    Z^1 is the kernel of the linearized relator map on (sl2)^k, B^1 the image
    of v -> (v - Ad rho(g_i) v)_i, both by numerical rank.
    """
    positive_finite("rtol", rtol)
    k = len(rep.generators)
    if k == 0:
        return 0, 0, 0
    dim_z = 3 * k - _numerical_rank(_relator_jacobian(rep), rtol)
    dim_b = _numerical_rank(_coboundary_matrix(rep), rtol)
    return dim_z, dim_b, dim_z - dim_b


def class_rank(rep: MarkedRepresentation, cocycles: Sequence[Cocycle], rtol: float = RANK_RTOL) -> int:
    """Rank of the given cocycles in H^1: rank([B-basis | cocycles]) - rank(B-basis); 0 for no cocycles."""
    positive_finite("rtol", rtol)
    columns = [c.coords() for c in cocycles]
    if not columns:
        return 0
    import numpy as np

    b_mat = _coboundary_matrix(rep)
    joint = np.hstack([b_mat, np.array(columns).T])
    return _numerical_rank(joint, rtol) - _numerical_rank(b_mat, rtol)


def tangent_cocycle(path: Callable[[float], MarkedRepresentation], h: float) -> Cocycle:
    """Cocycle z(g_i) = (d/dw rho_w(g_i)) rho_0(g_i)^-1 by central differences.

    Signs of the +-h samples are aligned to the center representation before
    differencing.  The result is projected to traceless.
    """
    positive_finite("step h", h)
    rep0 = path(0.0)
    rep_p = path(h)
    rep_m = path(-h)
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
