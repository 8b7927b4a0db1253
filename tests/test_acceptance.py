"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 5 and 8 encode target values the implemented constructions
measurably do not reach; they are kept as stated rather than weakened, so
they fail, and the module tests pin what the constructions provably do
instead (see tests/test_torus_end.py and tests/test_schwarzian_end.py and
the README's numerical notes).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dehnscope
from dehnscope.cochain import (
    MarkedRepresentation,
    class_rank,
    h1_dimension,
    solve_coboundary,
    strain,
    tangent_cocycle,
)
from dehnscope.filling_solver import cusp_distance, solve_direct
from dehnscope.hypcore import (
    MobiusTransform,
    complex_translation_length,
    length_distance,
)
from dehnscope.schwarzian_end import (
    Compose,
    GridSpec,
    LogMap,
    MobiusMap,
    PowerMap,
    SquareMap,
    framed_point,
    injectivity_depth,
    jacobian_check,
    schwarzian,
)
from dehnscope.torus_end import (
    EndParameter,
    EndRegion,
    classify_completion,
    complex_length,
    cross_section_length,
    equivariance_residual,
    estimate_bilipschitz,
    filling_coordinates,
    holonomy,
    holonomy_representation,
    z0_of,
)

TWO_PI_I = 2j * math.pi
Z2_RELATOR = ((1, 2, -1, -2),)


def check(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def random_parameter(rng, min_a=0.05):
    while True:
        a = complex(rng.normal(), rng.normal())
        if abs(a) < min_a:
            continue
        b = complex(rng.normal(), 0.2 + abs(rng.normal()))
        return EndParameter(a, b)


def test_criterion_01_holonomy_length_consistency():
    rng = np.random.default_rng(101)
    accepted = 0
    worst = 0.0
    while accepted < 1000:
        s = random_parameter(rng)
        m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        if (m, n) == (0, 0):
            continue
        hol = holonomy(s, m, n)
        tr = hol.trace()
        if abs(tr * tr - 4.0) < 1e-6:
            continue
        ell = complex_translation_length(hol)
        worst = max(worst, length_distance(ell, s.a * (m + s.b * n)))
        accepted += 1
    check(
        worst <= 1e-9,
        f"criterion 1: holonomy/length consistency over 1000 samples, worst {worst:.3e} <= 1e-9",
    )


def test_criterion_02_filling_round_trip():
    rng = np.random.default_rng(102)
    worst_len = 0.0
    worst_inv = 0.0
    for _ in range(1000):
        s = random_parameter(rng)
        c = filling_coordinates(s)
        ell = complex_length(s, c.x, c.y)
        worst_len = max(
            worst_len, min(abs(ell - TWO_PI_I), abs(ell + TWO_PI_I)) / abs(s.a)
        )
        again = solve_direct(s.b, c.x, c.y)
        worst_inv = max(worst_inv, min(abs(again.a - s.a), abs(again.a + s.a)) / abs(s.a))
    check(
        worst_len <= 1e-12 and worst_inv <= 1e-12,
        f"criterion 2: filling round trip, worst |L -+2pi i|/|a| {worst_len:.3e}, "
        f"worst inverse defect {worst_inv:.3e} <= 1e-12",
    )


def test_criterion_03_smoothness_criterion():
    ident = MobiusTransform.identity()
    worst = 0.0
    ok = True
    for p, q in ((1, 0), (1, 1), (2, 1), (3, 2)):
        s = solve_direct(1j, float(p), float(q))
        got = classify_completion(s)
        ok = ok and got.kind == "smooth" and (got.p, got.q) == (p, q)
        worst = max(worst, holonomy(s, p, q).distance(ident))
    cone = classify_completion(EndParameter(1j * math.pi, 1j))
    cone_ok = (
        cone.kind == "cone" and (cone.p, cone.q) == (1, 0) and abs(cone.angle - math.pi) <= 1e-9
    )
    check(
        ok and worst <= 1e-9 and cone_ok,
        f"criterion 3: smooth fillings with meridian defect {worst:.3e} <= 1e-9, "
        f"cone angle |theta - pi| = {abs(cone.angle - math.pi):.3e}",
    )


def test_criterion_04_cusp_convergence():
    # distances measured between conjugacy classes: the holonomies are first
    # aligned by the canonical conjugation that tracks the escaping axis
    dists = {}
    for n in (5, 10, 20, 40, 80, 100):
        s = EndParameter(TWO_PI_I / (1 + n * 1j), 1j)
        dists[n] = cusp_distance(s, aligned=True)
    seq = [dists[n] for n in (5, 10, 20, 40, 80)]
    monotone = all(d2 < d1 for d1, d2 in zip(seq, seq[1:]))
    check(
        dists[100] < 1e-2 and monotone,
        f"criterion 4: aligned holonomy distance to cusp {dists[100]:.3e} < 1e-2 at n=100, "
        f"monotone over n=5..80: {monotone}",
    )


def test_criterion_05_bilipschitz_convergence():
    region = EndRegion(0.0, 1.0, 0.0, 1.0, 1.0, 2.0)
    cusp = EndParameter(0.0, 1j)
    khat = {}
    for n in (5, 10, 20, 40):
        s = EndParameter(TWO_PI_I / (1 + n * 1j), 1j)
        khat[n] = estimate_bilipschitz(s, cusp, region, 1000, seed=0, chart="printed")
    seq = [khat[n] for n in (5, 10, 20, 40)]
    monotone = all(d2 <= d1 for d1, d2 in zip(seq, seq[1:]))
    check(
        monotone and khat[40] < 1.05,
        "criterion 5: K-hat non-increasing "
        f"{[round(v, 4) for v in seq]} (monotone: {monotone}), K-hat(40) = {khat[40]:.4f} < 1.05",
    )


def test_criterion_06_developing_equivariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for k in range(10):
        s = random_parameter(rng)
        if k < 5:
            # force strongly non-unit |e^a|
            s = EndParameter(complex(0.5 + 0.3 * k, s.a.imag), s.b)
        pts = rng.uniform(size=(500, 3))
        pts[:, 2] = 1.0 + pts[:, 2]
        for x, y, t in pts:
            for gen in (1, 2):
                worst = max(worst, equivariance_residual(s, gen, x, y, t, chart="corrected"))
    check(
        worst < 1e-9,
        f"criterion 6: corrected-chart equivariance, worst residual {worst:.3e} < 1e-9",
    )


def tube_length_oracle(s, x, y, eps, steps=10**4):
    ell = s.a * (x + s.b * y)
    z0 = z0_of(s.a)
    tau = np.linspace(0.0, 1.0, steps + 1)
    z = z0 + np.exp(tau * ell) * math.sinh(eps)
    t = np.exp(tau * ell.real)
    arg = 1.0 + (np.abs(np.diff(z)) ** 2 + np.diff(t) ** 2) / (2.0 * t[:-1] * t[1:])
    return float(np.sum(np.arccosh(np.maximum(arg, 1.0))))


def test_criterion_07_cross_section_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    count = 0
    while count < 20:
        s = random_parameter(rng)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if math.hypot(x, y) < 0.1:
            continue
        eps = rng.uniform(0.1, 2.0)
        closed = cross_section_length(s, x, y, eps)
        numeric = tube_length_oracle(s, x, y, eps)
        worst = max(worst, abs(closed - numeric) / max(closed, 1e-12))
        count += 1
    check(
        worst <= 1e-6,
        f"criterion 7: cross-section closed form vs tube integration, worst rel {worst:.3e} <= 1e-6",
    )


def test_criterion_08_epstein_jacobian():
    worst = 0.0
    for f in (SquareMap(), LogMap()):
        for base in (1j, -0.4 + 1.5j):
            for d in (0.5, 1.0, 1.5, 2.2, 3.0):
                p = framed_point(base, d)
                report = jacobian_check(f, p, h=1e-4)
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(report.measured, report.predicted))
                )
    mob_worst = 0.0
    for entries in ((2, 1, 1, 1), (1, 1j, 0.2, 1), (1.5j, 0.3, -0.1, 0.5j)):
        f = MobiusMap(MobiusTransform.from_entries(*entries))
        for d in (0.5, 1.5, 3.0):
            p = framed_point(0.3 + 1j, d)
            report = jacobian_check(f, p, h=1e-4)
            mob_worst = max(mob_worst, max(abs(v - 1.0) for v in report.measured))
    check(
        worst <= 1e-5 and mob_worst <= 1e-8,
        f"criterion 8: measured vs predicted singular values, worst {worst:.3e} <= 1e-5 "
        f"(square/log); Mobius worst {mob_worst:.3e} <= 1e-8",
    )


def test_criterion_09_injectivity_depth():
    grid = GridSpec(-0.5, 0.5, 41, 0.25, 3.0, 40)
    d0 = injectivity_depth(SquareMap(), grid)
    depth_ok = abs(d0 - math.acosh(1.5)) <= 1e-6
    sv_min = math.inf
    for d in (d0 + 0.1, d0 + 0.6, d0 + 1.5):
        p = framed_point(1j, d)
        report = jacobian_check(SquareMap(), p, h=1e-4)
        sv_min = min(sv_min, report.measured[2])
    check(
        depth_ok and sv_min > 0.0,
        f"criterion 9: injectivity depth {d0:.9f} = arccosh(1.5) +- 1e-6, "
        f"smallest singular value beyond it {sv_min:.4f} > 0",
    )


def test_criterion_10_cohomology_ranks():
    rep = MarkedRepresentation(holonomy_representation(EndParameter(1.0, 1j)), Z2_RELATOR)
    dims = h1_dimension(rep)
    dims_ok = dims == (4, 2, 2)

    def a_path(w):
        return MarkedRepresentation(
            holonomy_representation(EndParameter(1.0 + w, 1j)), Z2_RELATOR
        )

    def b_path(w):
        return MarkedRepresentation(
            holonomy_representation(EndParameter(1.0, 1j * (1.0 + w))), Z2_RELATOR
        )

    za = tangent_cocycle(a_path, 1e-5)
    zb = tangent_cocycle(b_path, 1e-5)
    rank = class_rank(rep, [za, zb])

    rng = np.random.default_rng(110)
    from dehnscope.hypcore import SL2Vector

    x, y, w = SL2Vector.from_coords(rng.normal(size=3) + 1j * rng.normal(size=3)).coords()
    X = np.array([[x, y], [w, -x]]) * 0.4

    def sl2_exp(mat):
        import cmath

        mu = cmath.sqrt(mat[0, 0] ** 2 + mat[0, 1] * mat[1, 0])
        if abs(mu) < 1e-12:
            return np.eye(2, dtype=complex) + mat
        return np.cosh(mu) * np.eye(2, dtype=complex) + (np.sinh(mu) / mu) * mat

    def conj_path(w):
        g = MobiusTransform.from_entries(*sl2_exp(w * X).ravel())
        gens = tuple(g @ h @ g.inverse() for h in rep.generators)
        return MarkedRepresentation(gens, Z2_RELATOR)

    zc = tangent_cocycle(conj_path, 1e-5)
    _, residual = solve_coboundary(rep, zc)
    check(
        dims_ok and rank == 2 and residual < 1e-8,
        f"criterion 10: dims {dims} = (4, 2, 2), tangent class rank {rank} = 2, "
        f"conjugation-path coboundary residual {residual:.3e} < 1e-8",
    )


def test_criterion_11_schwarzian_identities():
    rng = np.random.default_rng(111)
    m = MobiusTransform.from_entries(2.0, 1.0, 1.0, 1.0)
    worst_post = 0.0
    worst_mob = 0.0
    for f in (SquareMap(), LogMap(), PowerMap(1.7), PowerMap(0.5 + 0.2j)):
        for _ in range(25):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            worst_post = max(
                worst_post, abs(schwarzian(Compose(MobiusMap(m), f), z) - schwarzian(f, z))
            )
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
        worst_mob = max(worst_mob, abs(schwarzian(MobiusMap(m), z)))
    worst_strain = 0.0
    for _ in range(1000):
        a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = complex(rng.normal(), rng.normal())
        worst_strain = max(worst_strain, abs(strain(lambda w: a * w * w + b * w + c, z)))
    check(
        worst_post <= 1e-10 and worst_mob <= 1e-10 and worst_strain < 1e-8,
        f"criterion 11: postcomposition invariance {worst_post:.3e} <= 1e-10, "
        f"Mobius Schwarzian {worst_mob:.3e}, projective strain {worst_strain:.3e} < 1e-8",
    )


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
        json.dumps(
            {"a_coeffs": [[0, 0], [1, 0]], "b_coeffs": [[0, 1]], "center": [0, 3], "radius": 5}
        ),
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


def test_criterion_12_cli_determinism():
    mismatches = []
    # the children import the package from the same source tree as this process
    path = os.pathsep.join(filter(None, [str(Path(dehnscope.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for example in CLI_EXAMPLES:
        cmd = [sys.executable, "-m", "dehnscope.cli"] + example
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        if first.stdout != second.stdout:
            mismatches.append(example[0])
    check(
        not mismatches,
        f"criterion 12: byte-identical output across two runs of {len(CLI_EXAMPLES)} "
        f"documented examples (mismatches: {mismatches})",
    )
