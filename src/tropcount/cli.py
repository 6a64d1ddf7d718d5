"""Command-line interface.

Subcommands: enumerate, count, welschinger, render, selftest.  All JSON
carries a "schema": "tropcount/1" field; coordinates are exact rational
strings, so emitted files re-ingest without loss.  Exit codes: 0 ok,
2 input error, 3 genericity failure, 4 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .counting import (
    CrossCheckError,
    count_complex,
    count_real,
    merge_reports,
)
from .enumeration import (
    GenericityFailure,
    PointConfiguration,
    enumerate_curves,
)
from .incidence import RealPointConfig
from .tropical import (
    Degree,
    TropicalCurve,
    TropicalGraph,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
)
from .welschinger import census_report, welschinger_total

SCHEMA = "tropcount/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GENERICITY = 3
EXIT_CROSSCHECK = 4


class InputError(ValueError):
    pass


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_rat(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise InputError("not a rational number: %r" % (s,))


def _parse_points(raw) -> list:
    """Plane points from a JSON list of [x, y] pairs of rationals."""
    if not isinstance(raw, list):
        raise InputError("'points' must be a list of [x, y] pairs, got %r" % (raw,))
    for p in raw:
        if not isinstance(p, list) or len(p) != 2:
            raise InputError("a point must be a pair [x, y], got %r" % (p,))
    return [tuple(_parse_rat(c) for c in p) for p in raw]


def _load_points_file(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(data, dict) or "points" not in data:
        raise InputError("points file needs a top-level 'points' array")
    points = _parse_points(data["points"])
    signs = data.get("signs")
    if signs is not None and not (
        isinstance(signs, list) and all(isinstance(x, str) for x in signs)
    ):
        raise InputError("'signs' must be a list of strings, got %r" % (signs,))
    return points, signs


def _config_from_args(args, ell: int) -> PointConfiguration:
    if args.points is not None:
        points, _ = _load_points_file(args.points)
        if len(points) != ell:
            raise InputError("degree %d needs %d points, got %d" % (args.degree, ell, len(points)))
        return PointConfiguration.explicit(points)
    return PointConfiguration.mikhalkin(ell, _mikhalkin_seed(args))


def _mikhalkin_seed(args) -> int:
    return 7 if args.mikhalkin_seed is None else args.mikhalkin_seed


def _signs_from_args(args, ell: int) -> RealPointConfig:
    raw = args.signs
    if raw is None and args.points is not None:
        _, signs = _load_points_file(args.points)
        if signs is not None:
            raw = ",".join(signs)
    if raw is None:
        raise InputError("--real needs --signs (or a points file with signs)")
    if raw == "all-positive":
        return RealPointConfig.all_positive(ell, 2)
    parts = raw.split(",") if "," in raw else list(raw.split())
    if len(parts) == 1 and len(parts[0]) == 2 * ell:
        parts = [parts[0][i : i + 2] for i in range(0, 2 * ell, 2)]
    if len(parts) != ell:
        raise InputError("need %d sign pairs, got %d" % (ell, len(parts)))
    try:
        return RealPointConfig.from_strings(parts)
    except ValueError as exc:
        raise InputError(str(exc))


def _sign_t_from_args(args) -> int:
    raw = getattr(args, "sign_t", "+") or "+"
    if raw in ("+", "+1", "1"):
        return 1
    if raw in ("-", "-1"):
        return -1
    raise InputError("--sign-t must be + or -")


def curve_to_json(curve: TropicalCurve, marks: Sequence[str]) -> Dict:
    complex_mult, mikhalkin_real = curve_mikhalkin_mults(curve)
    return {
        "vertices": {
            v: [_rat(x) for x in p] for v, p in sorted(curve.positions.items())
        },
        "bounded_edges": [
            {
                "id": "b%d" % i,
                "tail": tail,
                "head": head,
                "weight": curve.weight("b%d" % i),
            }
            for i, (tail, head) in enumerate(curve.graph.bounded_edges)
        ],
        "unbounded_edges": [
            {
                "id": "u%d" % i,
                "vertex": vertex,
                "direction": list(direction),
                "weight": curve.weight("u%d" % i),
            }
            for i, (vertex, direction) in enumerate(curve.graph.unbounded_edges)
        ],
        "marks": list(marks),
        "multiplicities": {
            "complex": complex_mult,
            "welschinger": curve_welschinger_mult(curve),
            "mikhalkin_real": mikhalkin_real,
        },
    }


def curve_from_json(data: Dict) -> Tuple[TropicalCurve, Tuple[str, ...]]:
    try:
        weights = {}
        bounded = []
        for e in data["bounded_edges"]:
            bounded.append((e["tail"], e["head"]))
            weights[e["id"]] = int(e["weight"])
        unbounded = []
        for e in data["unbounded_edges"]:
            unbounded.append((e["vertex"], tuple(int(x) for x in e["direction"])))
            weights[e["id"]] = int(e["weight"])
        marks = tuple(data.get("marks", ()))
        graph = TropicalGraph(
            vertices=tuple(sorted(data["vertices"])),
            bounded_edges=tuple(bounded),
            unbounded_edges=tuple(unbounded),
            weights=weights,
            marked=marks,
        )
        positions = {
            v: tuple(_parse_rat(c) for c in p) for v, p in data["vertices"].items()
        }
        curve = TropicalCurve(graph=graph, positions=positions, n=2)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed curve record: %s" % exc)
    return curve, marks


def _enumerate_from_args(args):
    degree = Degree.projective(args.degree)
    ell = degree.total() - 1
    config = _config_from_args(args, ell)
    curves = enumerate_curves(0, degree, config)
    return degree, config, curves


def _curve_set_json(args, degree, config, curves) -> Dict:
    return {
        "schema": SCHEMA,
        "kind": "curve-set",
        "degree": args.degree,
        "genus": 0,
        "points": [[_rat(x) for x in p] for p in config.points],
        "mode": config.mode,
        "seed": config.seed,
        "curves": [curve_to_json(c, marks) for c, marks in curves],
    }


def _write_output(text: str, path: Optional[str]):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_enumerate(args) -> int:
    degree, config, curves = _enumerate_from_args(args)
    payload = _curve_set_json(args, degree, config, curves)
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_count(args) -> int:
    degree, config, curves = _enumerate_from_args(args)
    constraints = config.constraints()
    want_complex = args.complex or not args.real
    complex_report = count_complex(curves, constraints) if want_complex else None
    real_report = None
    if args.real:
        signs = _signs_from_args(args, len(config.points))
        sign_t = _sign_t_from_args(args)
        real_report = count_real(curves, constraints, signs, sign_t)
    welsch = {
        "total": welschinger_total([c for c, _ in curves]),
        "mults": {i: curve_welschinger_mult(c) for i, (c, _) in enumerate(curves)},
    }
    merged = merge_reports(complex_report, real_report, welsch)
    parity_ok = None
    if complex_report is not None and real_report is not None:
        parity_ok = (complex_report.n_trop - real_report.n_real_trop) % 2 == 0
    if args.format == "table":
        lines = ["curve\tw\tD\tA\tcomplex\tw_R\tD_R_tw\tA_R\treal\tmult_R"]
        for row in merged.rows:
            lines.append(
                "\t".join(
                    "" if v is None else str(v)
                    for v in (
                        row.curve_id,
                        row.total_weight_complex,
                        row.complex_index,
                        row.constraint_complex_product,
                        row.contribution_complex,
                        row.total_weight_real,
                        row.twisted_index,
                        row.constraint_real_product,
                        row.contribution_real,
                        row.welschinger_mult,
                    )
                )
            )
        lines.append("totals\tN=%s\tN_R=%s\tW_R=%s" % (merged.n_trop, merged.n_real_trop, merged.w_real_trop))
        if parity_ok is not None:
            lines.append("parity\t%s" % ("ok" if parity_ok else "VIOLATED"))
        _write_output("\n".join(lines), args.output)
    else:
        payload = {
            "schema": SCHEMA,
            "kind": "count-report",
            "degree": args.degree,
            "points": [[_rat(x) for x in p] for p in config.points],
            "rows": [
                {k: v for k, v in row.__dict__.items() if v is not None}
                for row in merged.rows
            ],
            "totals": {
                "complex": merged.n_trop,
                "real": merged.n_real_trop,
                "welschinger": merged.w_real_trop,
            },
            "parity_ok": parity_ok,
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_welschinger(args) -> int:
    degree, config, curves = _enumerate_from_args(args)
    sign_t = _sign_t_from_args(args)
    total = welschinger_total([c for c, _ in curves])
    rows = census_report([c for c, _ in curves], sign_t)
    payload = {
        "schema": SCHEMA,
        "kind": "welschinger-report",
        "degree": args.degree,
        "w_real_trop": total,
        "rows": rows,
    }
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    if any(not r["agrees"] for r in rows):
        print("census/Mult_R mismatch", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.input, exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON: %s" % exc)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise InputError("input is not a %s document" % SCHEMA)
    if data.get("kind") != "curve-set":
        raise InputError("render expects a curve-set document")
    curves = [curve_from_json(c)[0] for c in data.get("curves", [])]
    points = _parse_points(data.get("points", []))
    from .svg import render_curves

    text = render_curves(curves, points, dual=args.dual)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run

    degrees = tuple(range(1, args.max_degree + 1))
    results = run(degrees=degrees, seed=_mikhalkin_seed(args))
    failing = [r.ident for r in results if not r.ok]
    if failing:
        print("failing criteria: %s" % ", ".join(failing), file=sys.stderr)
        return 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcount",
        description="Exact tropical plane curve counts: complex, real, Welschinger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, signs=False):
        p.add_argument("--degree", "-d", type=int, required=True)
        p.add_argument("--mikhalkin-seed", type=int, default=None)
        p.add_argument("--points", help="JSON file with explicit points")
        p.add_argument("--output", "-o", default=None)
        if signs:
            p.add_argument(
                "--signs",
                help="per-point sign pairs, e.g. '++,+-' or all-positive; "
                "write a list starting with '-' as --signs=-+,...",
            )
            p.add_argument("--sign-t", default="+", help="sign of the deformation parameter")

    p = sub.add_parser("enumerate", help="list matched curves as JSON")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="complex and real counts")
    common(p, signs=True)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--real", action="store_true")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("welschinger", help="Welschinger total with census cross-check")
    common(p, signs=True)
    p.set_defaults(fn=cmd_welschinger)

    p = sub.add_parser("render", help="deterministic SVG of a curve set")
    p.add_argument("input")
    p.add_argument("--dual", action="store_true", help="add the dual subdivision panel")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("selftest", help="run the embedded acceptance suite")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--mikhalkin-seed", type=int, default=None)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except GenericityFailure as exc:
        advice = "reseed the points"
        if getattr(args, "points", None) is None and hasattr(args, "mikhalkin_seed"):
            advice = "Mikhalkin seed %d; reseed the points with another --mikhalkin-seed" % (
                _mikhalkin_seed(args)
            )
        print("genericity failure: %s (%s)" % (exc, advice), file=sys.stderr)
        return EXIT_GENERICITY
    except CrossCheckError as exc:
        print("cross-check mismatch: %s" % exc, file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
