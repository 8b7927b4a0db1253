"""Command-line front end: JSON/CSV output for batch sweeps and plot data.

Conventions: complex flags are "re,im"; integer ranges "start..end" are
inclusive; grids are "lo:hi:count".  Exit codes: 0 success, 1 a solve that
declared failure (payload still emitted), 2 usage errors.  This module is
the only one that reads or writes the wire formats: the flags, the path,
representation and cocycle-values files, and the JSON/CSV payloads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

from . import cochain, filling_solver, schwarzian_end, torus_end
from .config import COCYCLE_TOL, MAX_CLI_VALUES, RunConfig, finite_float, load_config
from .hypcore import MobiusTransform, SL2Vector, classify
from .schwarzian_end import GridSpec, parse_map
from .torus_end import EndParameter, EndRegion

USAGE_EXIT = 2
FAILURE_EXIT = 1


class UsageError(ValueError):
    pass


def _fields(text: str, sep: str, count: int, form: str) -> list[str]:
    if len(parts := text.split(sep)) != count:
        raise UsageError(f"expected {form}, got {text!r}")
    return parts


def _parse_complex(text: str) -> complex:
    re_s, im_s = _fields(text, ",", 2, "complex as 're,im'")
    return complex(finite_float(re_s), finite_float(im_s))


def _parse_end(a: str, b: str) -> EndParameter:
    return EndParameter(_parse_complex(a), _parse_complex(b))


def _count(flag: str, count: int) -> int:
    """count, checked against MAX_CLI_VALUES before anything of that size is built."""
    if count > MAX_CLI_VALUES:
        raise UsageError(f"{flag} asks for {count} values, more than the {MAX_CLI_VALUES} allowed")
    return count


def _parse_int_list(text: str) -> list[int]:
    try:
        if ".." not in text:
            return [int(v) for v in text.split(",")]
        lo, hi = (int(v) for v in text.split(".."))
        if hi < lo:
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"expected integers 'start..end' or 'a,b,c', got {text!r}") from exc
    return list(range(lo, lo + _count("--n", hi - lo + 1)))


def _parse_region(text: str) -> EndRegion:
    form = "region 'x0:x1,y0:y1,t0:t1'"
    spans = [_fields(part, ":", 2, form) for part in _fields(text, ",", 3, form)]
    return EndRegion(*(finite_float(v) for span in spans for v in span))


def _parse_grid(text: str) -> GridSpec:
    try:
        (re0, re1, nre), (im0, im1, nim) = (part.split(":") for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected grid 're0:re1:n,im0:im1:m', got {text!r}") from exc
    return GridSpec(finite_float(re0), finite_float(re1), int(nre), finite_float(im0), finite_float(im1), int(nim))


def _real(value) -> float:
    """A real JSON number; a bool is refused, though Python counts it an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


def _complex(pair) -> complex:
    """A complex number from [re, im], exactly two real JSON numbers."""
    re, im = pair
    return complex(_real(re), _real(im))


def _load(what: str, source: str, build, inline: bool = False):
    """build(data) of the JSON in the file source, or in source itself if inline and an object; failures exit 2."""
    try:
        if inline and source.strip().startswith("{"):
            data = json.loads(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
        return build(data)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"cannot load {what} from {source!r}: {exc}") from exc


def _path(data: dict) -> filling_solver.HolomorphicPath:
    return filling_solver.HolomorphicPath(
        tuple(map(_complex, data["a_coeffs"])),
        tuple(map(_complex, data["b_coeffs"])),
        _complex(data["center"]),
        _real(data["radius"]),
    )


def _representation(data: dict) -> cochain.MarkedRepresentation:
    gens = tuple(MobiusTransform.from_entries(*map(_complex, entries)) for entries in data["generators"])
    return cochain.MarkedRepresentation(gens, data.get("relators", ()))


def _cocycle_values(data: dict) -> cochain.Cocycle:
    """One sl(2,C) value per generator, each as its four entries [re, im] in row order."""
    vals = [[*map(_complex, entries)] for entries in data["values"]]
    return cochain.Cocycle(tuple(SL2Vector.from_matrix((v[:2], v[2:])) for v in vals))


def _cpx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _coordinate_payload(c: torus_end.FillingCoordinate) -> dict:
    return {"type": "infinity"} if c.infinite else {"type": "finite", "x": c.x, "y": c.y}


def _completion_payload(c: torus_end.CompletionClass) -> dict:
    if c.kind in ("smooth", "cone"):
        return {"kind": c.kind, "p": c.p, "q": c.q, "angle": c.angle}
    return {"kind": c.kind}


def _solve_payload(r: filling_solver.SolveReport) -> dict:
    return {"w": _cpx(r.w), "residual": r.residual, "iterations": r.iterations, "converged": r.converged}


def _mobius_payload(m: MobiusTransform) -> dict:
    return {"matrix": [_cpx(v) for v in m.entries()]}


def _class_payload(m: MobiusTransform, tol: float) -> dict:
    cls = classify(m, tol=tol)
    out: dict = {"kind": cls.kind}
    if cls.angle is not None:
        out["angle"] = cls.angle
    if cls.length is not None:
        out["complex_length"] = _cpx(cls.length)
    return out


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _csv_cell(value) -> str:
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(f"row value {value!r} is not finite")
    return repr(value)


def _emit_rows(rows, columns: list[str], fmt: str) -> None:
    """Write rows one at a time, as CSV or as the text json.dumps gives their list.

    A non-finite value raises ValueError before its row is written, as in _emit_json; the
    CSV header goes out with the first row, so an error there leaves stdout empty.
    """
    if fmt == "csv":
        head = ",".join(columns) + "\n"
        for row in rows:
            sys.stdout.write(head + ",".join(_csv_cell(row[c]) for c in columns) + "\n")
            head = ""
        sys.stdout.write(head)
        return
    sep = "["
    for row in rows:
        sys.stdout.write(sep + json.dumps(row, sort_keys=True, allow_nan=False))
        sep = ", "
    sys.stdout.write("[]\n" if sep == "[" else "]\n")


def cmd_holonomy(args, cfg: RunConfig) -> int:
    s = _parse_end(args.a, args.b)
    m = torus_end.holonomy(s, args.m, args.n)
    payload = _mobius_payload(m)
    payload["classification"] = _class_payload(m, cfg.classify_tol)
    _emit_json(payload)
    return 0


def cmd_fill(args, cfg: RunConfig) -> int:
    s = _parse_end(args.a, args.b)
    payload = {"coordinates": _coordinate_payload(torus_end.filling_coordinates(s))}
    if args.classify:
        completion = torus_end.classify_completion(s, cfg.rational_tol, cfg.max_denominator)
        payload["completion"] = _completion_payload(completion)
    _emit_json(payload)
    return 0


def cmd_sequence(args, cfg: RunConfig) -> int:
    b = _parse_complex(args.b)
    n_list = _parse_int_list(args.n)
    params = filling_solver.filling_sequence(b, args.p, args.q, n_list)
    rows = []
    for n, s in zip(n_list, params):
        rows.append(
            {
                "n": n,
                "a_re": s.a.real,
                "a_im": s.a.imag,
                "cusp_residual": filling_solver.cusp_distance(s, aligned=False),
            }
        )
    _emit_rows(rows, ["n", "a_re", "a_im", "cusp_residual"], cfg.output)
    return 0


def cmd_solve(args, cfg: RunConfig) -> int:
    path = _load("path spec", args.path, _path, inline=True)
    x, y, w0 = finite_float(args.x), finite_float(args.y), _parse_complex(args.w0)
    try:
        report = filling_solver.solve_on_path(
            path, x, y, w0, tol=cfg.newton_tol, max_iter=cfg.newton_max_iter
        )
    except filling_solver.DomainExit as exc:
        _emit_json({"converged": False, "error": str(exc)})
        return FAILURE_EXIT
    _emit_json(_solve_payload(report))
    return 0 if report.converged else FAILURE_EXIT


def cmd_crosssection(args, cfg: RunConfig) -> int:
    s = _parse_end(args.a, args.b)
    x, y = finite_float(args.x), finite_float(args.y)
    if args.eps_grid:
        import numpy as np

        lo, hi, count = _fields(args.eps_grid, ":", 3, "eps grid 'lo:hi:count'")
        rows = [
            {"eps": float(e), "length": torus_end.cross_section_length(s, x, y, float(e))}
            for e in np.linspace(finite_float(lo), finite_float(hi), _count("--eps-grid", int(count)))
        ]
        _emit_rows(rows, ["eps", "length"], cfg.output)
    else:
        if args.eps is None:
            raise UsageError("provide --eps or --eps-grid")
        _emit_json({"length": torus_end.cross_section_length(s, x, y, finite_float(args.eps))})
    return 0


def cmd_schwarzian(args, cfg: RunConfig) -> int:
    f = parse_map(args.f)
    if args.depth or args.grid:
        grid = _parse_grid(cfg.grid)
        _count("--grid", grid.nre * grid.nim)
    if args.depth:
        _emit_json({"injectivity_depth": schwarzian_end.injectivity_depth(f, grid)})
        return 0
    if args.grid:
        columns = ["z_re", "z_im", "sc_re", "sc_im", "norm"]
        rows = (
            dict(zip(columns, values))
            for z, sc, norm in schwarzian_end.schwarzian_grid(f, grid)
            for values in zip(*(part.tolist() for part in (z.real, z.imag, sc.real, sc.imag, norm)))
        )
        _emit_rows(rows, columns, cfg.output)
        return 0
    if args.z is None:
        raise UsageError("provide --z or --grid")
    z = _parse_complex(args.z)
    sc = schwarzian_end.schwarzian(f, z)
    _emit_json({"sc": _cpx(sc), "norm": schwarzian_end.schwarzian_norm(f, z)})
    return 0


def cmd_theta_check(args, cfg: RunConfig) -> int:
    f = parse_map(args.f)
    u, v, t = (finite_float(w) for w in _fields(args.point, ",", 3, "point 'u,v,t'"))
    point = schwarzian_end.H3Point(complex(u, v), t)
    r = schwarzian_end.jacobian_check(f, point, h=cfg.fd_step, richardson=args.richardson)
    _emit_json(
        {"measured": list(r.measured), "predicted": list(r.predicted), "norm_at_foot": r.norm_at_foot, "depth": r.depth}
    )
    return 0


def cmd_cocycle(args, cfg: RunConfig) -> int:
    rep = _load("representation", args.rep, _representation)
    dim_z, dim_b, dim_h = cochain.h1_dimension(rep, cfg.rank_rtol)
    payload: dict = {"dim_z1": dim_z, "dim_b1": dim_b, "dim_h1": dim_h}
    if args.values:
        c = _load("cocycle values", args.values, _cocycle_values)
        ok, residual = cochain.is_cocycle(rep, c, tol=finite_float(args.tol))
        payload["is_cocycle"] = ok
        payload["max_relator_residual"] = residual
        v, res = cochain.solve_coboundary(rep, c)
        payload["coboundary_residual"] = res
        payload["coboundary_v"] = [_cpx(x) for x in (v.x, v.y, v.w, -v.x)]
    _emit_json(payload)
    return 0


def cmd_bilipschitz(args, cfg: RunConfig) -> int:
    s1 = _parse_end(args.a1, args.b1)
    s2 = _parse_end(args.a2, args.b2)
    region = _parse_region(args.region)
    value = torus_end.estimate_bilipschitz(s1, s2, region, args.samples, seed=cfg.seed, chart=cfg.chart)
    _emit_json({"khat": value})
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parser; each override flag stores into the RunConfig field of the same name."""
    parser = argparse.ArgumentParser(prog="dehnscope", description=__doc__)
    parser.add_argument("--config", help="path to a JSON run-config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("holonomy", help="holonomy of g1^m g2^n with classification")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("fill", help="filling coordinates and optional completion class")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--tol", type=float, dest="rational_tol")
    p.add_argument("--max-den", type=int, dest="max_denominator")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("sequence", help="filling sequence toward the cusp")
    p.add_argument("--b", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", required=True, help="inclusive range 'start..end' or list 'a,b,c'")
    p.add_argument("--format", dest="output", help="json|csv")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("solve", help="Newton solve for coordinates along a path")
    p.add_argument("--path", required=True, help="path JSON file or inline JSON")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--w0", required=True)
    p.add_argument("--tol", type=float, dest="newton_tol")
    p.add_argument("--max-iter", type=int, dest="newton_max_iter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("crosssection", help="tube cross-section length")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--eps")
    p.add_argument("--eps-grid", help="'lo:hi:count' sweep")
    p.add_argument("--format", dest="output", help="json|csv")
    p.set_defaults(func=cmd_crosssection)

    p = sub.add_parser("schwarzian", help="Schwarzian derivative, norm, injectivity depth")
    p.add_argument("--f", required=True, help="identity|square|log|power:<c>|mobius:<8 floats>")
    p.add_argument("--z")
    p.add_argument("--grid", help="'re0:re1:n,im0:im1:m'")
    p.add_argument("--depth", action="store_true", help="report arccosh of the norm sup over the grid")
    p.add_argument("--format", dest="output", help="json|csv")
    p.set_defaults(func=cmd_schwarzian)

    p = sub.add_parser("theta-check", help="finite-difference Jacobian of the end extension map")
    p.add_argument("--f", required=True)
    p.add_argument("--point", required=True, help="'u,v,t' with v >= 0, t > 0")
    p.add_argument("--h", type=float, dest="fd_step")
    p.add_argument("--richardson", action="store_true")
    p.set_defaults(func=cmd_theta_check)

    p = sub.add_parser("cocycle", help="cocycle checks and cohomology dimensions")
    p.add_argument("--rep", required=True, help="representation JSON file")
    p.add_argument("--values", help="cocycle values JSON file")
    p.add_argument("--tol", default=COCYCLE_TOL)
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("bilipschitz", help="sampled biLipschitz estimate between two end charts")
    p.add_argument("--a1", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--region", required=True, help="'x0:x1,y0:y1,t0:t1'")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--chart", help="printed|corrected")
    p.set_defaults(func=cmd_bilipschitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        # flag over config file over defaults; RunConfig validates the result
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
        return args.func(args, replace(cfg, **given))
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
