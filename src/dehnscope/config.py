"""Run-wide numerical defaults and the config file schema used by the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

# Tolerance for |tr^2 - 4| below which an element counts as parabolic (or the
# identity).  Filling sequences approach parabolics, so this must be explicit.
CLASSIFY_TOL = 1e-9

# |1 - e^a| below which a torus-end parameter sits on the pole locus of the
# affine holonomy normalization (z0 = 1/(1-e^a) blows up).
SINGULAR_LOCUS_TOL = 1e-12

# Newton defaults for path solving.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 64

# Relative singular-value cutoff for numerical ranks.
RANK_RTOL = 1e-8

# Largest relator residual for which cochain.is_cocycle accepts a cocycle;
# also the default of `cocycle --tol`, which is not a RunConfig field.
COCYCLE_TOL = 1e-9

# Rational-direction detection in filling coordinates.
RATIONAL_TOL = 1e-9
MAX_DENOMINATOR = 10**6

# Finite-difference step, in hyperbolic-normalized coordinates.
FD_STEP = 1e-4

# Threshold for |f'(z)| below which a conformal map counts as critical.
CRITICAL_TOL = 1e-12

# Most points an array pass holds at once: estimate_bilipschitz draws its
# samples and the Schwarzian grid sweeps evaluate their points in blocks of
# this size, so peak memory does not grow with the sample or grid count.
ARRAY_BLOCK = 2**16

# Most values a CLI range or sweep may ask for (`sequence --n`,
# `crosssection --eps-grid`, the points of `schwarzian --grid`,
# `bilipschitz --samples`, and `solve --max-iter`, from the flag or the config
# file); larger requests are refused before any list or array of that size is
# built, or any iteration run.
MAX_CLI_VALUES = 10**6

# Developing-chart variant used when none is requested explicitly.  The
# "corrected" chart is the one that satisfies deck equivariance exactly for
# every parameter; the "printed" chart is the one that converges to the cusp
# chart as a -> 0.  See torus_end.develop.
DEFAULT_CHART = "corrected"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, grid defaults, output format and seed for a CLI run."""

    classify_tol: float = CLASSIFY_TOL
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER
    rank_rtol: float = RANK_RTOL
    rational_tol: float = RATIONAL_TOL
    max_denominator: int = MAX_DENOMINATOR
    fd_step: float = FD_STEP
    chart: str = DEFAULT_CHART
    grid: str = "-2.0:2.0:21,0.5:2.5:21"
    output: str = "json"
    seed: int = 0

    def __post_init__(self):
        admits = {"float": (int, float), "int": int, "str": str}  # a float field takes an int too
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, admits[f.type]):  # bool is an int subclass
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name in ("classify_tol", "newton_tol", "rank_rtol", "rational_tol", "fd_step"):
            positive_finite(name, getattr(self, name))
        for name in ("newton_max_iter", "max_denominator"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.chart not in ("printed", "corrected"):
            raise ValueError(f"chart must be 'printed' or 'corrected', got {self.chart!r}")
        if self.output not in ("json", "csv"):
            raise ValueError(f"output must be 'json' or 'csv', got {self.output!r}")


def positive_finite(name: str, value: float, allow_zero: bool = False) -> float:
    """value if 0 < value < inf (0 <= value < inf with allow_zero); NaN and the rest raise ValueError naming it."""
    if not 0 <= value < math.inf or (value == 0 and not allow_zero):
        raise ValueError(f"{name} must be {'>= 0' if allow_zero else 'positive'} and finite, got {value!r}")
    return value


def finite_float(text: str) -> float:
    """A real number read from the command line; NaN and infinities raise ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"real value must be finite, got {text!r}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file, rejecting unknown keys."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)
