"""Seeded inputs and task lists of the three benchmark workloads.

`build(name, seed)` draws a workload's inputs from `default_rng(seed)` as
plain data, then turns them into tasks.  A task's `run` is the timed call
into dehnscope; it reaches the package through module attributes
(`te.develop`, never a name imported here) so that the traced run's
wrappers see every call.  A task's `check` runs outside the timed region and
compares the output with an independent oracle from `oracles.py`, or, for
fixed CLI examples and Jacobian triples that have no oracle, with the values
in `expected.json` recorded at the benchmark's first commit.

A task marked `known_defect` fails its check at that commit for the named
reason.  Such failures are reported by name and kept out of `failed`; the
task stays in the batch so that a fix shows up as a pass.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dehnscope import cochain as co
from dehnscope import filling_solver as fs
from dehnscope import hypcore as hc
from dehnscope import schwarzian_end as se
from dehnscope import torus_end as te

import oracles as orc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

TWO_PI_I = 2j * math.pi
Z2_RELATOR = ((1, 2, -1, -2),)
RECORDED_RTOL = 1e-7

POLE_LOCUS_DEFECT = (
    "pole locus e^a = 1: holonomy() switches to the axis-centered normalization "
    "there, develop() and the affine branch of holonomy() do not"
)


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is correct
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    inputs: dict  # plain data drawn from the seed; the tasks use nothing else
    tasks: list[Task]
    warmup: Task
    on_trace: Callable[[Any], None] = lambda tracer: None
    cleanup: Callable[[], None] = lambda: None


def build(name: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    if name == "pointwise_sweeps":
        return _pointwise(pointwise_inputs(rng))
    if name == "filling_map":
        return _filling(filling_inputs(rng))
    if name == "cli_examples":
        return _cli(cli_inputs(rng))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pointwise_sweeps", "filling_map", "cli_examples")


# --- shared input generators ---------------------------------------------------

GRID_MN = tuple((m, n) for m in (-1, 0, 1) for n in (-1, 0, 1) if (m, n) != (0, 0))


def _cpx(rng, scale=1.0) -> complex:
    return complex(rng.normal() * scale, rng.normal() * scale)


def _random_a(rng) -> complex:
    """Exponent a away from the cusp and at least 0.1 from the pole locus e^a = 1."""
    while True:
        a = _cpx(rng)
        if abs(a) >= 0.05 and abs(1.0 - np.exp(a)) >= 0.1:
            return a


def _random_b(rng) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5))


def _loxodromic_param(rng) -> tuple[complex, complex]:
    """(a, b) whose every GRID_MN holonomy has |Re a(m + bn)| >= 0.05."""
    while True:
        a, b = _random_a(rng), _random_b(rng)
        if all(abs((a * (m + b * n)).real) >= 0.05 for m, n in GRID_MN):
            return a, b


def _mobius_entries(rng) -> tuple[complex, ...]:
    """Entries (a11, a12, 1, a22) with the pole -a22 in the lower half plane."""
    while True:
        a11, a12 = _cpx(rng), _cpx(rng)
        a22 = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
        if abs(a11 * a22 - a12) >= 0.1:
            return (a11, a12, 1.0 + 0j, a22)


def _disc(rng, r: float) -> complex:
    """Uniform point of the closed disc |z| <= r."""
    return r * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())


def _path_coeffs(rng) -> dict:
    """Nonlinear path a(w) = w + e2 w^2 + e3 w^3, b(w) = b0 + b1 w + b2 w^2 on |w| <= 9.5.

    The cusp sits at the center w = 0 and Im b stays above 0.75 on the disc.
    The coefficients are bounded, not Gaussian: with every one at its bound and
    the worst phases, the Newton iterates from the center for every target in
    TARGETS stay within |w| < 8.5, so no seed draws a solve that leaves the disc.
    """
    return {
        "a": [0j, 1 + 0j, _disc(rng, 0.006), _disc(rng, 3e-4)],
        "b": [complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.5)), _disc(rng, 0.015), _disc(rng, 0.001)],
        "center": 0j,
        "radius": 9.5,
    }


def _make_path(spec) -> fs.HolomorphicPath:
    return fs.HolomorphicPath(tuple(spec["a"]), tuple(spec["b"]), spec["center"], spec["radius"])


def _canonical(p, q):
    return (-p, -q) if p < 0 or (p == 0 and q < 0) else (p, q)


TARGETS = tuple(
    (p, q) for q in range(4) for p in range(-3, 4) if math.gcd(p, q) == 1 and (q > 0 or p == 1)
)


def _fmt(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _mobius_spec(entries) -> str:
    return "mobius:" + ",".join(f"{v!r}" for e in entries for v in (e.real, e.imag))


def _cube(z):
    return z * z * z


def _conformal(kind: str, param, domain=None) -> se.ConformalMap:
    if kind in ("identity", "square", "log"):
        return se.parse_map(kind)
    if kind == "power":
        return se.parse_map(f"power:{param!r}")
    if kind == "mobius":
        return se.parse_map(_mobius_spec(param))
    if kind == "cube":
        return se.NumericMap(_cube, 1e-2, domain)
    raise ValueError(kind)


def _map_rtol(kind: str) -> float:
    """Finite-difference jets of the numeric map carry rounding error ~1e-9."""
    return 1e-7 if kind == "cube" else 1e-9


# --- pointwise_sweeps ----------------------------------------------------------

REGION = (0.0, 1.0, 0.0, 1.0, 1.0, 2.0)
BILIP_SAMPLES = 10_000
#: the (1,0) smooth filling a = 2*pi*i, b = i, and a parameter 5e-14 from it
POLE_LOCUS = (("2pi*i", TWO_PI_I), ("2pi*i+5e-14", TWO_PI_I + 5e-14))
EQUIV_POINTS = 40
EQUIV_RTOL = 1e-9
INJ_GRID_N = 200
ROWS_GRID_N = (20, 40)
THETA_POINTS = 50
#: Jacobian checks at fixed inputs, compared with recorded triples
JAC_MAPS = ("square", "log", "power:1.7")
JAC_BASE = -0.4 + 1.5j
JAC_DEPTHS = (0.5, 1.5, 3.0)
JAC_STEP = 1e-4


def jacobian_fixed_specs() -> list[dict]:
    return [
        {"map": m, "depth": d, "richardson": r}
        for m in JAC_MAPS
        for d in JAC_DEPTHS
        for r in (False, True)
    ]


def jacobian_key(spec) -> str:
    return f"{spec['map']}|{spec['depth']!r}|{spec['richardson']}"


def pointwise_inputs(rng) -> dict:
    b2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
    bilip = []
    for b in (1j, b2):
        for n in sorted(rng.choice(np.arange(3, 61), size=2, replace=False).tolist()):
            for chart in ("printed", "corrected"):
                bilip.append({"b": b, "n": n, "chart": chart, "seed": int(rng.integers(2**31))})
    params = [(label, a, 1j, POLE_LOCUS_DEFECT) for label, a in POLE_LOCUS]
    params += [(f"random{k}", _random_a(rng), _random_b(rng), None) for k in range(8)]
    equiv = []
    for label, a, b, defect in params:
        for g in (1, 2):
            pts = rng.uniform(size=(EQUIV_POINTS, 3))
            pts[:, 2] += 1.0
            equiv.append({"label": label, "a": a, "b": b, "generator": g, "defect": defect,
                          "points": [tuple(p) for p in pts.tolist()]})
    hol = [("loxodromic", *_loxodromic_param(rng)) for _ in range(8)]
    hol += [("elliptic", 1j * rng.uniform(0.3, 2.8), _random_b(rng)) for _ in range(4)]
    hol += [("cusp", 0j, _random_b(rng)) for _ in range(4)]
    maps = [("identity", None), ("square", None), ("log", None),
            ("power", rng.uniform(1.8, 2.6)), ("mobius", _mobius_entries(rng)), ("cube", None)]
    r, im0, im1 = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.5), rng.uniform(2.0, 3.0)
    inj_grid = (-r, r, INJ_GRID_N, im0, im1, INJ_GRID_N)
    r2, lo, hi = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.5), rng.uniform(1.5, 3.0)
    nre, nim = ROWS_GRID_N
    rows_grids = [(-r2, -0.05, nre, lo, hi, nim), (0.05, r2, nre, lo, hi, nim)]
    theta = []
    for _ in range(6):
        base = np.array([complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)) for _ in range(THETA_POINTS)])
        depth = rng.uniform(0.0, 3.0, size=THETA_POINTS)
        theta.append({"entries": _mobius_entries(rng),
                      "points": [orc.framed_point(complex(z), float(d)) for z, d in zip(base, depth)]})
    jac_mobius = [
        {"entries": _mobius_entries(rng), "base": complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)),
         "depth": rng.uniform(0.2, 2.5), "richardson": r}
        for r in (False, True) for _ in range(2)
    ]
    return {"bilipschitz": bilip, "equivariance": equiv, "holonomy": hol, "maps": maps,
            "injectivity_grid": inj_grid, "rows_grids": rows_grids, "theta": theta,
            "jacobian_fixed": jacobian_fixed_specs(), "jacobian_mobius": jac_mobius}


def _pointwise(inputs: dict) -> Workload:
    expected = json.loads(EXPECTED.read_text())["jacobian"]
    region = te.EndRegion(*REGION)
    tasks = []
    for k, spec in enumerate(inputs["holonomy"]):
        tasks.append(_holonomy_task(k, *spec))
    for spec in inputs["bilipschitz"]:
        tasks.append(_bilipschitz_task(spec, region))
    for spec in inputs["equivariance"]:
        tasks.append(_equivariance_task(spec))
    grid = inputs["injectivity_grid"]
    domain = (grid[0], grid[1], grid[3], grid[4])
    for kind, param in inputs["maps"]:
        tasks.append(_injectivity_task(kind, param, grid, _conformal(kind, param, domain)))
        for half, rows in zip(("left", "right"), inputs["rows_grids"]):
            f = _conformal(kind, param, (rows[0] - 0.1, rows[1] + 0.1, rows[3], rows[4]))
            tasks.append(_rows_task(kind, param, half, rows, f))
    for k, spec in enumerate(inputs["theta"]):
        tasks.append(_theta_task(k, spec))
    for spec in inputs["jacobian_fixed"]:
        tasks.append(_jacobian_fixed_task(spec, expected[jacobian_key(spec)]))
    for k, spec in enumerate(inputs["jacobian_mobius"]):
        tasks.append(_jacobian_mobius_task(k, spec))
    return Workload("pointwise_sweeps", inputs, tasks, warmup=tasks[0])


def _holonomy_task(k, kind, a, b) -> Task:
    s = te.EndParameter(a, b)

    def run():
        out = []
        for m, n in GRID_MN:
            h = te.holonomy(s, m, n)
            c = hc.classify(h)
            out.append(((h.a11, h.a12, h.a21, h.a22), c.kind, c.angle, c.length))
        return out

    def check(out):
        for (m, n), (entries, kind_got, angle, length) in zip(GRID_MN, out, strict=True):
            want = orc.holonomy_word(a, b, m, n)
            if orc.sl2_distance(np.reshape(entries, (2, 2)), want) > 1e-9 * max(1.0, np.linalg.norm(want)):
                return f"holonomy({m},{n}) differs from rho(g1)^m rho(g2)^n"
            ell = a * (m + b * n)
            if a == 0:
                ok = kind_got == "parabolic"
            elif ell.real == 0:
                ok = kind_got == "elliptic" and orc.close(angle, orc.fold_angle(ell.imag), 1e-9)
            else:
                ok = kind_got == "loxodromic" and orc.same_complex_length(length, ell, 1e-9)
            if not ok:
                return f"classify at ({m},{n}): {kind_got} angle={angle} length={length}, complex length {ell}"
        return None

    return Task(f"holonomy+classify/{kind}{k}", run, check)


def _bilipschitz_task(spec, region) -> Task:
    b, chart, seed = spec["b"], spec["chart"], spec["seed"]
    a = TWO_PI_I / (1 + spec["n"] * b)
    s, cusp = te.EndParameter(a, b), te.EndParameter(0, b)

    def run():
        return te.estimate_bilipschitz(s, cusp, region, BILIP_SAMPLES, seed=seed, chart=chart)

    def check(khat):
        want = orc.bilipschitz(a, b, 0, b, REGION, BILIP_SAMPLES, seed, chart)
        return None if orc.close(khat, want, 1e-8) else f"khat {khat!r} != oracle {want!r}"

    return Task(f"bilipschitz/b={'i' if b == 1j else 'seeded'}/n={spec['n']}/{chart}", run, check)


def _equivariance_task(spec) -> Task:
    a, b, g, pts = spec["a"], spec["b"], spec["generator"], spec["points"]
    s = te.EndParameter(a, b)

    def run():
        return [te.equivariance_residual(s, g, x, y, t, chart="corrected") for x, y, t in pts]

    def check(res):
        if len(res) != len(pts):
            return "wrong number of residuals"
        x, y, t = np.array(pts).T
        tol = EQUIV_RTOL * max(1.0, orc.chart_scale(a, b, x, y, t))
        worst = max(res)
        return None if worst <= tol else f"residual {worst:.3e} > {tol:.3e}"

    return Task(f"equivariance/{spec['label']}/g{g}/corrected", run, check, spec["defect"])


def _injectivity_task(kind, param, grid, f) -> Task:
    gs = se.GridSpec(*grid)

    def run():
        return se.injectivity_depth(f, gs)

    def check(depth):
        want = orc.injectivity_depth(kind, param, grid)
        return None if orc.close(depth, want, _map_rtol(kind), 1e-9) else f"depth {depth!r} != {want!r}"

    return Task(f"injectivity_depth/{kind}", run, check)


def _rows_task(kind, param, half, grid, f) -> Task:
    gs = se.GridSpec(*grid)

    def run():
        rows = []
        for z in gs.points():
            sc = se.schwarzian(f, z)
            rows.append((z, sc, z.imag ** 2 * abs(sc)))
        return rows

    def check(rows):
        z_want = orc.grid_points(*grid)
        z, sc, norm = (np.array(col) for col in zip(*rows))
        sc_want = orc.schwarzian(kind, param, z_want)
        rtol = _map_rtol(kind)
        if z.shape != z_want.shape or not orc.close(z, z_want, 1e-15):
            return "grid points differ"
        if not orc.close(sc, sc_want, rtol, 1e-9):
            return "Schwarzian differs from its closed form"
        if not orc.close(norm, z_want.imag ** 2 * np.abs(sc_want), rtol, 1e-9):
            return "norm differs from its closed form"
        return None

    return Task(f"schwarzian_rows/{kind}/{half}", run, check)


def _theta_task(k, spec) -> Task:
    f = _conformal("mobius", spec["entries"])
    pts = [hc.H3Point(z, t) for z, t in spec["points"]]
    m = orc.normalize_sl2(np.reshape(spec["entries"], (2, 2)))

    def run():
        return [(q.z, q.t) for q in (se.theta(f, p) for p in pts)]

    def check(out):
        z, t = (np.array(col) for col in zip(*out))
        zw, tw = orc.poincare_extension(m, [p.z for p in pts], [p.t for p in pts])
        ok = orc.close(z, zw, 1e-9, 1e-12) and orc.close(t, tw, 1e-9)
        return None if ok else "theta of a Mobius map differs from its Poincare extension"

    return Task(f"theta/mobius{k}", run, check)


def _jacobian_point(base, depth) -> hc.H3Point:
    return hc.H3Point(*orc.framed_point(base, depth))


def _jacobian_fixed_task(spec, recorded) -> Task:
    f = se.parse_map(spec["map"])
    depth, rich = spec["depth"], spec["richardson"]
    p = _jacobian_point(JAC_BASE, depth)
    kind, _, param = spec["map"].partition(":")
    param = float(param) if param else None

    def run():
        r = se.jacobian_check(f, p, h=JAC_STEP, richardson=rich)
        return (r.measured, r.predicted, r.norm_at_foot, r.depth)

    def check(out):
        measured, predicted, norm, d = out
        norm_want = JAC_BASE.imag ** 2 * abs(complex(orc.schwarzian(kind, param, JAC_BASE)))
        if not orc.close(norm, norm_want, 1e-9) or not orc.close(d, depth, 1e-9, 1e-12):
            return f"frame: norm {norm!r} depth {d!r}"
        if not orc.close(predicted, orc.predicted_triple(norm_want, depth), 1e-9):
            return f"predicted triple {predicted!r}"
        msg = orc.diff_recorded(list(measured), recorded, RECORDED_RTOL)
        return None if msg is None else f"measured triple vs recorded: {msg}"

    return Task(f"jacobian_check/{spec['map']}/d={depth}/{'richardson' if rich else 'plain'}", run, check)


def _jacobian_mobius_task(k, spec) -> Task:
    f = _conformal("mobius", spec["entries"])
    p = _jacobian_point(spec["base"], spec["depth"])
    rich = spec["richardson"]

    def run():
        r = se.jacobian_check(f, p, h=JAC_STEP, richardson=rich)
        return (r.measured, r.predicted)

    def check(out):
        measured, predicted = out
        if not orc.close(measured, np.ones(3), 0.0, 1e-7):
            return f"Mobius map is an isometry, measured {measured!r}"
        return None if orc.close(predicted, np.ones(3), 0.0, 1e-9) else f"predicted {predicted!r}"

    return Task(f"jacobian_check/mobius{k}/{'richardson' if rich else 'plain'}", run, check)


# --- filling_map ---------------------------------------------------------------

PATHS = 4
SEQUENCE_LENGTH = 30
#: fixed sample counts, so the O(n^2) work per batch does not depend on the seed
CONTINUITY_COUNTS = tuple(range(350, 700, 30))
TANGENT_STEP = 1e-5
#: central differences at this step leave relator residuals up to ~5e-9 at the
#: largest |a| of the target grid; the pole-locus defect shows residuals ~0.5
TANGENT_TOL = 1e-7
IRRATIONAL_ROOTS = (2, 3, 5, 6, 7, 10, 11)


def filling_inputs(rng) -> dict:
    paths = [_path_coeffs(rng) for _ in range(PATHS)]
    directions = []
    for _ in range(PATHS):
        scaled = []
        for _ in range(4):
            p, q = TARGETS[int(rng.integers(len(TARGETS)))]
            scaled.append((rng.uniform(1.5, 5.0), p, q))
        irrational = []
        for _ in range(4):
            root = math.sqrt(IRRATIONAL_ROOTS[int(rng.integers(len(IRRATIONAL_ROOTS)))])
            scale = rng.uniform(0.5, 3.0)
            irrational.append((scale, scale * root) if rng.uniform() < 0.5 else (scale * root, scale))
        directions.append({"scaled": scaled, "irrational": irrational})
    b_seq = _random_b(rng)
    sequences = [(b, int(rng.integers(1, 6))) for b in (1j, b_seq) for _ in range(2)]
    continuity = [(k % PATHS, count, int(rng.integers(2**31))) for k, count in enumerate(CONTINUITY_COUNTS)]
    return {"paths": paths, "targets": list(TARGETS), "directions": directions,
            "sequences": sequences, "continuity": continuity}


def _filling(inputs: dict) -> Workload:
    specs = inputs["paths"]
    paths = [_make_path(spec) for spec in specs]
    solutions: dict = {}  # (path, p, q) -> w, filled by the solve tasks of each batch
    tasks = []
    for k, path in enumerate(paths):
        for q in range(4):
            row = [t for t in inputs["targets"] if t[1] == q]
            tasks.append(_solve_task(k, path, specs[k], row, solutions))
    for k, path in enumerate(paths):
        tasks.append(_classify_solutions_task(k, path, inputs["targets"], solutions))
        tasks.append(_classify_directions_task(k, specs[k]["b"][0], inputs["directions"][k]))
    for k, (b, n0) in enumerate(inputs["sequences"]):
        tasks.append(_sequence_task(k, b, list(range(n0, n0 + SEQUENCE_LENGTH))))
    for k, count, seed in inputs["continuity"]:
        tasks.append(_continuity_task(k, paths[k], specs[k], count, seed))
    for k, path in enumerate(paths):
        for target in [*inputs["targets"], None]:
            tasks.append(_cochain_task(k, path, target, solutions))
    return Workload("filling_map", inputs, tasks, warmup=tasks[0])


def _solve_task(k, path, spec, row, solutions) -> Task:
    def run():
        out = []
        for p, q in row:
            r = fs.solve_on_path(path, p, q, 0j)
            solutions[(k, p, q)] = r.w
            out.append((r.w, r.residual, r.iterations, r.converged))
        return out

    def check(out):
        for (p, q), (w, residual, _, converged) in zip(row, out, strict=True):
            res = orc.newton_residual(spec["a"], spec["b"], p, q, w)
            if not converged or res > 1e-10 or abs(residual - res) > 1e-10:
                return f"target ({p},{q}): converged={converged}, residual {residual:.3e}, recomputed {res:.3e}"
        return None

    return Task(f"solve_on_path/path{k}/q={row[0][1]}", run, check)


def _classify_solutions_task(k, path, targets, solutions) -> Task:
    def run():
        out = []
        for p, q in targets:
            w = solutions[(k, p, q)]
            c = te.classify_completion(te.EndParameter(path.a(w), path.b(w)))
            out.append((c.kind, c.p, c.q, c.angle))
        return out

    def check(out):
        for (p, q), (kind, pg, qg, angle) in zip(targets, out, strict=True):
            if (kind, (pg, qg)) != ("smooth", _canonical(p, q)) or not orc.close(angle, 2 * math.pi, 1e-9):
                return f"target ({p},{q}) completes as {kind} ({pg},{qg}) angle {angle}"
        return None

    return Task(f"classify_completion/path{k}/solutions", run, check)


def _classify_directions_task(k, b, directions) -> Task:
    scaled, irrational = directions["scaled"], directions["irrational"]

    def run():
        out = []
        for g, p, q in scaled:
            c = te.classify_completion(fs.solve_direct(b, g * p, g * q))
            out.append((c.kind, c.p, c.q, c.angle))
        for x, y in irrational:
            c = te.classify_completion(fs.solve_direct(b, x, y))
            out.append((c.kind, c.p, c.q, c.angle))
        return out

    def check(out):
        want = [("cone", *_canonical(p, q), 2 * math.pi / g) for g, p, q in scaled]
        want += [("irrational", None, None, None)] * len(irrational)
        for got, exp in zip(out, want, strict=True):
            if got[:3] != exp[:3] or (exp[3] is not None and not orc.close(got[3], exp[3], 1e-9)):
                return f"completion {got} != {exp}"
        return None

    return Task(f"classify_completion/path{k}/directions", run, check)


def _sequence_task(k, b, ns) -> Task:
    def run():
        params = fs.filling_sequence(b, 1, 0, ns)
        aligned = [fs.cusp_distance(s, aligned=True) for s in params]
        raw = [fs.cusp_distance(s, aligned=False) for s in params]
        return [s.a for s in params], aligned, raw

    def check(out):
        a, aligned, raw = (np.array(v) for v in out)
        x, y = orc.filling_xy(a, b)
        if a.shape != (len(ns),) or not orc.close(x + 1j * y, 1 + 1j * np.array(ns), 0.0, 1e-9 * ns[-1]):
            return "sequence parameters do not fill the (1, n) classes"
        for s, al, rw in zip(a, aligned, raw):
            if not orc.close(al, orc.cusp_distance(s, b, True), 1e-7, 1e-13):
                return f"aligned cusp distance {al!r} at a={s}"
            if not orc.close(rw, orc.cusp_distance(s, b, False), 1e-7, 1e-13):
                return f"raw cusp distance {rw!r} at a={s}"
        return None

    return Task(f"filling_sequence+cusp_distance/{k}/n={ns[0]}..{ns[-1]}", run, check)


def _continuity_task(k, path, spec, count, seed) -> Task:
    def run():
        r = fs.verify_coordinate_continuity(path, count, seed=seed)
        return (r.max_jump, list(r.injectivity_violations), r.sample_count)

    def check(out):
        max_jump, violations, n = out
        want_jump, want_pairs = orc.continuity(spec["a"], spec["b"], spec["center"], spec["radius"], count, seed)
        if n != count or [tuple(v) for v in violations] != want_pairs:
            return f"violations {violations[:3]} != all-pairs oracle {want_pairs[:3]}"
        return None if orc.close(max_jump, want_jump, 1e-9) else f"max_jump {max_jump!r} != {want_jump!r}"

    return Task(f"verify_coordinate_continuity/path{k}/n={count}", run, check)


def _cochain_task(k, path, target, solutions) -> Task:
    """H^1 ranks and the tangent cocycle along the path at a solved parameter (or the cusp)."""

    def rep_at(w):
        return co.MarkedRepresentation(te.holonomy_representation(te.EndParameter(path.a(w), path.b(w))), Z2_RELATOR)

    def run():
        w = 0j if target is None else solutions[(k, *target)]
        rep = rep_at(w)
        dims = co.h1_dimension(rep)
        z = co.tangent_cocycle(lambda e: rep_at(w + e), TANGENT_STEP)
        ok, residual = co.is_cocycle(rep, z, tol=TANGENT_TOL)
        return (dims, ok, residual, co.class_rank(rep, [z]))

    def check(out):
        dims, ok, residual, rank = out
        if tuple(dims) != (4, 2, 2):
            return f"dims {dims} != (4, 2, 2)"
        if not ok:
            return f"tangent cocycle fails the relator, residual {residual:.3e}"
        # the path moves the complex lengths (a, ab), so its tangent class is nonzero
        return None if rank == 1 else f"tangent class rank {rank} != 1"

    label = "cusp" if target is None else f"({target[0]},{target[1]})"
    defect = POLE_LOCUS_DEFECT if target == (1, 0) else None
    return Task(f"cochain/path{k}/{label}", run, check, defect)


# --- cli_examples --------------------------------------------------------------

#: the documented examples of tests/test_acceptance.py, copied so the benchmark stays fixed
CLI_EXAMPLES = [
    ["holonomy", "--a", "0,0", "--b", "0,1", "--m", "1", "--n", "0"],
    ["holonomy", "--a", "0,3.14159265358979", "--b", "0,1", "--m", "1", "--n", "0"],
    ["fill", "--a", "0,6.28318530717959", "--b", "0,1", "--classify"],
    ["fill", "--a", "0,0", "--b", "0,1"],
    ["fill", "--a", "3.14159265,3.14159265", "--b", "0,1"],
    ["sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..10", "--format", "csv"],
    [
        "solve",
        "--path",
        json.dumps({"a_coeffs": [[0, 0], [1, 0]], "b_coeffs": [[0, 1]], "center": [0, 3], "radius": 5}),
        "--x", "1", "--y", "1", "--w0", "0,3",
    ],
    ["crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0", "--eps", "0.7"],
    ["schwarzian", "--f", "log", "--z", "0,1"],
    ["schwarzian", "--f", "square", "--depth", "--grid=-0.5:0.5:21,0.25:3:40"],
    ["theta-check", "--f", "square", "--point", "0,0.96402758,0.26580222", "--h", "1e-4"],
    [
        "bilipschitz", "--a1", "0.1,0.6", "--b1", "0,1", "--a2", "0,0", "--b2", "0,1",
        "--region", "0:1,0:1,1:2", "--samples", "200", "--seed", "7", "--chart", "printed",
    ],
]

CLI_REGION = "0:1,0:1,1:2"
CLI_SEEDED_ROUNDS = 2
CLI_BILIP_SAMPLES = 2000


def decode(stdout: str):
    """JSON payload, or CSV rows with numeric cells converted."""
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        pass
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) < 2:
        raise ValueError("stdout is neither JSON nor CSV")

    def cell(text):
        for conv in (int, float):
            try:
                return conv(text)
            except ValueError:
                continue
        return text

    return [[cell(c) for c in row] for row in rows]


def _sl2_json(m) -> list:
    return [[v.real, v.imag] for v in np.ravel(m)]


def _joined(args: list[str]) -> list[str]:
    """Write "--flag value" as "--flag=value", so negative numbers are not read as options."""
    out: list[str] = []
    for a in args:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not a.startswith("--"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def cli_inputs(rng) -> dict:
    """CLI_SEEDED_ROUNDS rounds of seeded invocations, each with its own input files."""
    files, cases = {}, []
    for r in range(CLI_SEEDED_ROUNDS):
        round_files, round_cases = _cli_round(rng, r)
        files.update(round_files)
        cases += round_cases
    return {"files": files, "cases": [(kind, spec, _joined(args)) for kind, spec, args in cases]}


def _cli_round(rng, r: int):
    rep_a, rep_b = _random_a(rng), _random_b(rng)
    g1, g2 = orc.generators(rep_a, rep_b)
    x, y, w = (_cpx(rng, 0.5) for _ in range(3))
    v = np.array([[x, y], [w, -x]])
    values = [v - g @ v @ np.linalg.inv(g) for g in (g1, g2)]
    cusp_b = _random_b(rng)
    files = {
        f"rep{r}": {"generators": [_sl2_json(g1), _sl2_json(g2)], "relators": [[1, 2, -1, -2]]},
        f"values{r}": {"values": [_sl2_json(z) for z in values]},
        f"rep_cusp{r}": {"generators": [_sl2_json(g) for g in orc.generators(0, cusp_b)], "relators": [[1, 2, -1, -2]]},
    }
    path = _path_coeffs(rng)
    files[f"path{r}"] = {"a_coeffs": [[c.real, c.imag] for c in path["a"]],
                         "b_coeffs": [[c.real, c.imag] for c in path["b"]],
                         "center": [0.0, 0.0], "radius": path["radius"]}
    cases = [
        ("cocycle", {"values": True}, ["cocycle", "--rep", f"{{rep{r}}}", "--values", f"{{values{r}}}"]),
        ("cocycle", {"values": False}, ["cocycle", "--rep", f"{{rep_cusp{r}}}"]),
    ]
    for _ in range(2):
        p, q = TARGETS[int(rng.integers(1, len(TARGETS)))]
        cases.append(("solve", {"path": path, "x": p, "y": q},
                      ["solve", "--path", f"{{path{r}}}", "--x", str(p), "--y", str(q), "--w0", "0,0"]))
    for _ in range(2):
        a, b = _loxodromic_param(rng)
        m, n = GRID_MN[int(rng.integers(len(GRID_MN)))]
        cases.append(("holonomy", {"a": a, "b": b, "m": m, "n": n},
                      ["holonomy", "--a", _fmt(a), "--b", _fmt(b), "--m", str(m), "--n", str(n)]))
    p, q = TARGETS[int(rng.integers(1, len(TARGETS)))]
    b = _random_b(rng)
    a = TWO_PI_I / (p + b * q)
    cases.append(("fill", {"p": p, "q": q}, ["fill", "--a", _fmt(a), "--b", _fmt(b), "--classify"]))
    a, b = _random_a(rng), _random_b(rng)
    cx, cy, eps = rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)
    cases.append(("crosssection", {"a": a, "b": b, "x": cx, "y": cy, "eps": eps},
                  ["crosssection", "--a", _fmt(a), "--b", _fmt(b), "--x", repr(cx), "--y", repr(cy),
                   "--eps", repr(eps)]))
    c, z = rng.uniform(0.3, 2.6), complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
    cases.append(("schwarzian", {"c": c, "z": z}, ["schwarzian", "--f", f"power:{c!r}", "--z", _fmt(z)]))
    b, n0 = _random_b(rng), int(rng.integers(1, 20))
    cases.append(("sequence", {"b": b, "n": list(range(n0, n0 + 10))},
                  ["sequence", "--b", _fmt(b), "--p", "1", "--q", "0", "--n", f"{n0}..{n0 + 9}", "--format", "json"]))
    b, n = _random_b(rng), int(rng.integers(3, 61))
    a, chart, seed = TWO_PI_I / (1 + n * b), ("printed", "corrected")[int(rng.integers(2))], int(rng.integers(2**31))
    cases.append(("bilipschitz", {"a": a, "b": b, "chart": chart, "seed": seed},
                  ["bilipschitz", "--a1", _fmt(a), "--b1", _fmt(b), "--a2", "0,0", "--b2", _fmt(b),
                   "--region", CLI_REGION, "--samples", str(CLI_BILIP_SAMPLES), "--seed", str(seed),
                   "--chart", chart]))
    base, depth = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)), rng.uniform(0.3, 2.5)
    z, t = orc.framed_point(base, depth)
    args = ["theta-check", "--f", _mobius_spec(_mobius_entries(rng)), "--point",
            f"{z.real!r},{z.imag!r},{t!r}", "--h", "1e-4"]
    cases.append(("theta-check", {}, args + (["--richardson"] if rng.uniform() < 0.5 else [])))
    return files, cases


class CliRunner:
    """Runs one CLI invocation at a time in a fresh interpreter, as a user would."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.tracer = None

    def __call__(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "dehnscope.cli", *args]
        else:
            spans = self.workdir / "child-spans.npz"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            self.tracer.absorb(spans)
        return proc.returncode, proc.stdout


def _cli(inputs: dict) -> Workload:
    workdir = HERE / "out" / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    where = {}
    for key, content in inputs["files"].items():
        where[key] = str(workdir / f"{key}.json")
        Path(where[key]).write_text(json.dumps(content))
    runner = CliRunner(workdir)
    recorded = json.loads(EXPECTED.read_text())["cli"]
    tasks = []
    for args in CLI_EXAMPLES:
        want = decode(recorded[json.dumps(args)])
        tasks.append(Task(f"cli/{args[0]}/example{len(tasks)}", _invoke(runner, args), _cli_check(
            lambda data, want=want: orc.diff_recorded(data, want, RECORDED_RTOL))))
    for kind, spec, template in inputs["cases"]:
        args = [a.format(**where) for a in template]
        tasks.append(Task(f"cli/{kind}/seeded{len(tasks)}", _invoke(runner, args), _cli_check(
            _CLI_ORACLES[kind](spec))))

    def on_trace(tracer):
        runner.tracer = tracer

    return Workload("cli_examples", inputs, tasks, warmup=tasks[0], on_trace=on_trace,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


def _invoke(runner, args):
    return lambda: runner(args)


def _cli_check(oracle):
    def check(out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            data = decode(stdout)
        except ValueError as exc:
            return f"undecodable stdout: {exc}"
        return oracle(data)

    return check


def _oracle_cocycle(spec):
    def oracle(d):
        if (d["dim_z1"], d["dim_b1"], d["dim_h1"]) != (4, 2, 2):
            return f"dims {d['dim_z1'], d['dim_b1'], d['dim_h1']} != (4, 2, 2)"
        if spec["values"] and (d["is_cocycle"] is not True or d["coboundary_residual"] > 1e-8):
            return f"coboundary values: is_cocycle={d['is_cocycle']} residual={d['coboundary_residual']}"
        return None

    return oracle


def _oracle_solve(spec):
    path = spec["path"]

    def oracle(d):
        w = complex(*d["w"])
        res = orc.newton_residual(path["a"], path["b"], spec["x"], spec["y"], w)
        ok = d["converged"] is True and res <= 1e-10 and abs(d["residual"] - res) <= 1e-10
        return None if ok else f"converged={d['converged']} residual {d['residual']:.3e}, recomputed {res:.3e}"

    return oracle


def _oracle_holonomy(spec):
    a, b = spec["a"], spec["b"]

    def oracle(d):
        got = np.array([complex(*e) for e in d["matrix"]]).reshape(2, 2)
        want = orc.holonomy_word(a, b, spec["m"], spec["n"])
        if orc.sl2_distance(got, want) > 1e-9 * max(1.0, np.linalg.norm(want)):
            return "matrix differs from rho(g1)^m rho(g2)^n"
        cls = d["classification"]
        ell = a * (spec["m"] + b * spec["n"])
        ok = cls["kind"] == "loxodromic" and orc.same_complex_length(complex(*cls["complex_length"]), ell, 1e-9)
        return None if ok else f"classification {cls} for complex length {ell}"

    return oracle


def _oracle_fill(spec):
    p, q = _canonical(spec["p"], spec["q"])

    def oracle(d):
        c, comp = d["coordinates"], d["completion"]
        # a point of R^2/+-1: the sign rule picks either representative when x rounds near 0
        got = complex(c["x"], c["y"])
        if not any(orc.close(sign * got, complex(p, q), 0.0, 1e-9) for sign in (1, -1)):
            return f"coordinates {c} != +-({p}, {q})"
        ok = (comp["kind"], comp["p"], comp["q"]) == ("smooth", p, q) and orc.close(comp["angle"], 2 * math.pi, 1e-9)
        return None if ok else f"completion {comp}"

    return oracle


def _oracle_crosssection(spec):
    def oracle(d):
        want = orc.tube_length(spec["a"], spec["b"], spec["x"], spec["y"], spec["eps"])
        return None if orc.close(d["length"], want, 1e-6) else f"length {d['length']!r} != tube {want!r}"

    return oracle


def _oracle_schwarzian(spec):
    z = spec["z"]

    def oracle(d):
        want = complex(orc.schwarzian("power", spec["c"], z))
        ok = orc.close(complex(*d["sc"]), want, 1e-9, 1e-12) and orc.close(d["norm"], z.imag ** 2 * abs(want), 1e-9, 1e-12)
        return None if ok else f"sc {d['sc']} norm {d['norm']} != {want}"

    return oracle


def _oracle_sequence(spec):
    b = spec["b"]

    def oracle(rows):
        if [r["n"] for r in rows] != spec["n"]:
            return "rows do not follow --n"
        for r in rows:
            a = complex(r["a_re"], r["a_im"])
            x, y = orc.filling_xy(a, b)
            if not orc.close(complex(x, y), complex(1, r["n"]), 0.0, 1e-9 * r["n"]):
                return f"a={a} does not fill (1, {r['n']})"
            if not orc.close(r["cusp_residual"], orc.cusp_distance(a, b, False), 1e-7, 1e-13):
                return f"cusp residual {r['cusp_residual']!r} at n={r['n']}"
        return None

    return oracle


def _oracle_bilipschitz(spec):
    def oracle(d):
        want = orc.bilipschitz(spec["a"], spec["b"], 0, spec["b"], REGION, CLI_BILIP_SAMPLES,
                               spec["seed"], spec["chart"])
        return None if orc.close(d["khat"], want, 1e-8) else f"khat {d['khat']!r} != {want!r}"

    return oracle


def _oracle_theta_check(spec):
    def oracle(d):
        if not orc.close(d["measured"], np.ones(3), 0.0, 1e-7):
            return f"Mobius map is an isometry, measured {d['measured']}"
        return None if orc.close(d["predicted"], np.ones(3), 0.0, 1e-9) else f"predicted {d['predicted']}"

    return oracle


_CLI_ORACLES = {
    "cocycle": _oracle_cocycle,
    "solve": _oracle_solve,
    "holonomy": _oracle_holonomy,
    "fill": _oracle_fill,
    "crosssection": _oracle_crosssection,
    "schwarzian": _oracle_schwarzian,
    "sequence": _oracle_sequence,
    "bilipschitz": _oracle_bilipschitz,
    "theta-check": _oracle_theta_check,
}
