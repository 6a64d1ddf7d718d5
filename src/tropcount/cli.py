"""Command-line interface.

Subcommands: enumerate, count, welschinger, render, selftest.  All JSON
carries a "schema": "tropcount/1" field; coordinates are exact rational
strings, so emitted files re-ingest without loss.  Exit codes: 0 ok,
1 a selftest criterion failed, 2 input error, 3 genericity failure,
4 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .counting import CrossCheckError, count_complex, count_real
from .enumeration import (
    GenericityFailure,
    PointConfiguration,
    enumerate_curves,
)
from .incidence import RealPointConfig
from .tropical import (
    Degree,
    NonGenericCrossing,
    TropicalCurve,
    TropicalGraph,
    check_balancing,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
    plane_crossings,
)
from .welschinger import census_report, welschinger_total

SCHEMA = "tropcount/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GENERICITY = 3
EXIT_CROSSCHECK = 4

# the count table's columns: header label, then the JSON row key it shows
COUNT_COLUMNS = (
    ("curve", "curve_id"),
    ("w", "total_weight_complex"),
    ("D", "complex_index"),
    ("A", "constraint_complex_product"),
    ("complex", "contribution_complex"),
    ("w_R", "total_weight_real"),
    ("D_R_tw", "twisted_index"),
    ("A_R", "constraint_real_product"),
    ("real", "contribution_real"),
    ("mult_R", "welschinger_mult"),
)


class InputError(ValueError):
    pass


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_rat(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise InputError("not a rational number: %r" % (s,))


def _parse_int(x) -> int:
    """A JSON integer; bools, floats and strings are not integers."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("not an integer: %r" % (x,))
    return x


def _parse_points(raw) -> list:
    """Plane points from a JSON list of [x, y] pairs of rationals."""
    if not isinstance(raw, list):
        raise InputError("'points' must be a list of [x, y] pairs, got %r" % (raw,))
    for p in raw:
        if not isinstance(p, list) or len(p) != 2:
            raise InputError("a point must be a pair [x, y], got %r" % (p,))
    return [tuple(_parse_rat(c) for c in p) for p in raw]


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc))


def _load_points_file(path: str):
    data = _read_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise InputError("points file needs a top-level 'points' array")
    points = _parse_points(data["points"])
    signs = data.get("signs")
    if signs is not None and not (
        isinstance(signs, list) and all(isinstance(x, str) for x in signs)
    ):
        raise InputError("'signs' must be a list of strings, got %r" % (signs,))
    return points, signs


def _config_from_args(args, ell: int) -> Tuple[PointConfiguration, Optional[list]]:
    """The point configuration, and its points file's signs or None."""
    if args.points is not None:
        if args.mikhalkin_seed is not None:
            raise InputError("give --points or --mikhalkin-seed, not both")
        points, signs = _load_points_file(args.points)
        if len(points) != ell:
            raise InputError("degree %d needs %d points, got %d" % (args.degree, ell, len(points)))
        try:
            return PointConfiguration.explicit(points), signs
        except ValueError as exc:  # repeated points
            raise InputError(str(exc))
    return PointConfiguration.mikhalkin(ell, _mikhalkin_seed(args)), None


def _mikhalkin_seed(args) -> int:
    return 7 if args.mikhalkin_seed is None else args.mikhalkin_seed


def _signs_from_args(args, ell: int, file_signs: Optional[list]) -> RealPointConfig:
    raw = args.signs
    if raw is None and file_signs is not None:
        raw = ",".join(file_signs)
    if raw is None:
        raise InputError("--real needs --signs (or a points file with signs)")
    if raw == "all-positive":
        return RealPointConfig.all_positive(ell, 2)
    parts = raw.split(",") if "," in raw else list(raw.split())
    if len(parts) == 1 and len(parts[0]) == 2 * ell:
        parts = [parts[0][i : i + 2] for i in range(0, 2 * ell, 2)]
    if len(parts) != ell:
        raise InputError("need %d sign pairs, got %d" % (ell, len(parts)))
    for part in parts:
        if len(part) != 2:
            raise InputError("a sign pair needs one sign per coordinate, got %r" % (part,))
    try:
        return RealPointConfig.from_strings(parts)
    except ValueError as exc:
        raise InputError(str(exc))


def _sign_t_from_args(args) -> int:
    raw = args.sign_t
    if raw in (None, "+", "+1", "1"):
        return 1
    if raw in ("-", "-1"):
        return -1
    raise InputError("--sign-t must be + or -")


def curve_to_json(curve: TropicalCurve, marks: Sequence[str]) -> Dict:
    complex_mult, mikhalkin_real = curve_mikhalkin_mults(curve)
    graph = curve.graph
    return {
        "vertices": {
            v: [_rat(x) for x in p] for v, p in sorted(curve.positions.items())
        },
        "bounded_edges": [
            {"id": eid, "tail": tail, "head": head, "weight": curve.weight(eid)}
            for eid, (tail, head) in zip(graph.bounded_ids(), graph.bounded_edges)
        ],
        "unbounded_edges": [
            {"id": eid, "vertex": vertex, "direction": list(direction), "weight": curve.weight(eid)}
            for eid, (vertex, direction) in zip(graph.unbounded_ids(), graph.unbounded_edges)
        ],
        "marks": list(marks),
        "multiplicities": {
            "complex": complex_mult,
            "welschinger": curve_welschinger_mult(curve),
            "mikhalkin_real": mikhalkin_real,
        },
    }


def curve_from_json(data: Dict) -> Tuple[TropicalCurve, Tuple[str, ...]]:
    vertices = data.get("vertices") if isinstance(data, dict) else None
    if not isinstance(vertices, dict) or not vertices:
        raise InputError("malformed curve record: needs a nonempty 'vertices' object")
    try:
        weights = {}
        bounded = []
        for i, e in enumerate(data["bounded_edges"]):
            _check_edge_id(e, "b%d" % i)
            bounded.append((e["tail"], e["head"]))
            weights[e["id"]] = _parse_int(e["weight"])
        unbounded = []
        for i, e in enumerate(data["unbounded_edges"]):
            _check_edge_id(e, "u%d" % i)
            unbounded.append((e["vertex"], tuple(_parse_int(x) for x in e["direction"])))
            weights[e["id"]] = _parse_int(e["weight"])
        marks = tuple(data.get("marks", ()))
        graph = TropicalGraph(
            vertices=tuple(sorted(vertices)),
            bounded_edges=tuple(bounded),
            unbounded_edges=tuple(unbounded),
            weights=weights,
            marked=marks,
        )
        positions = {
            v: tuple(_parse_rat(c) for c in p) for v, p in vertices.items()
        }
        curve = TropicalCurve(graph=graph, positions=positions, n=2)
        for eid in graph.bounded_ids():
            curve.edge_direction(eid)  # DegenerateEdge on a zero length
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed curve record: %s" % exc)
    return curve, marks


def _check_edge_id(edge, expected: str):
    """An edge's id is its position in its list, as ``curve_to_json`` writes
    it; the weights and marks are keyed by that id."""
    if edge["id"] != expected:
        raise InputError("edge %r is listed where %r belongs" % (edge["id"], expected))


def _enumerate_from_args(args):
    try:
        degree = Degree.projective(args.degree)
    except ValueError as exc:
        raise InputError(str(exc))
    ell = degree.total() - 1
    config, file_signs = _config_from_args(args, ell)
    curves = enumerate_curves(0, degree, config)
    return config, curves, file_signs


def _curve_set_json(args, config, curves) -> Dict:
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
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (path, exc))


def cmd_enumerate(args) -> int:
    config, curves, _ = _enumerate_from_args(args)
    payload = _curve_set_json(args, config, curves)
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_count(args) -> int:
    if not args.real and (args.signs is not None or args.sign_t is not None):
        raise InputError("--signs and --sign-t need --real")
    config, curves, file_signs = _enumerate_from_args(args)
    constraints = config.constraints()
    complex_report = real_report = None
    if args.complex or not args.real:
        complex_report = count_complex(curves, constraints)
    if args.real:
        signs = _signs_from_args(args, len(config.points), file_signs)
        real_report = count_real(curves, constraints, signs, _sign_t_from_args(args))
    reports = [r for r in (complex_report, real_report) if r is not None]
    rows = []
    for cid, (curve, _) in enumerate(curves):
        row = {"curve_id": cid}
        for report in reports:
            row.update(asdict(report.rows[cid]))
        row["welschinger_mult"] = curve_welschinger_mult(curve)
        rows.append(row)
    totals = {
        "complex": complex_report.n_trop if complex_report else None,
        "real": real_report.n_real_trop if real_report else None,
        "welschinger": welschinger_total([c for c, _ in curves]),
    }
    parity_ok = None
    if complex_report is not None and real_report is not None:
        parity_ok = (totals["complex"] - totals["real"]) % 2 == 0
    if args.format == "table":
        lines = ["\t".join(label for label, _ in COUNT_COLUMNS)]
        for row in rows:
            lines.append("\t".join(str(row.get(key, "")) for _, key in COUNT_COLUMNS))
        labels = {"complex": "N", "real": "N_R", "welschinger": "W_R"}
        shown = ["%s=%s" % (labels[k], v) for k, v in totals.items() if v is not None]
        lines.append("\t".join(["totals"] + shown))
        if parity_ok is not None:
            lines.append("parity\t%s" % ("ok" if parity_ok else "VIOLATED"))
        _write_output("\n".join(lines), args.output)
    else:
        payload = {
            "schema": SCHEMA,
            "kind": "count-report",
            "degree": args.degree,
            "points": [[_rat(x) for x in p] for p in config.points],
            "rows": rows,
            "totals": totals,
            "parity_ok": parity_ok,
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_welschinger(args) -> int:
    curves = _enumerate_from_args(args)[1]
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
    data = _read_json(args.input)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise InputError("input is not a %s document" % SCHEMA)
    if data.get("kind") != "curve-set":
        raise InputError("render expects a curve-set document")
    records = data.get("curves", [])
    if not isinstance(records, list):
        raise InputError("'curves' must be a list of curve records, got %r" % (records,))
    curves = [curve_from_json(c)[0] for c in records]
    for i, curve in enumerate(curves):
        violations = check_balancing(curve)
        if violations:
            v, total = violations[0]
            raise InputError("curve %d is not balanced at vertex %s (sum %s)" % (i, v, total))
        if args.dual:
            # the dual panel glues cells at the crossings
            try:
                list(plane_crossings(curve))
            except NonGenericCrossing as exc:
                raise InputError("curve %d has no dual subdivision: %s" % (i, exc))
    points = _parse_points(data.get("points", []))
    from .svg import render_curves

    text = render_curves(curves, points, dual=args.dual)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run

    if not 1 <= args.max_degree <= 3:
        raise InputError("--max-degree must be 1, 2 or 3, got %d" % args.max_degree)
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

    def common(p):
        p.add_argument("--degree", "-d", type=int, required=True)
        p.add_argument("--mikhalkin-seed", type=int, default=None)
        p.add_argument("--points", help="JSON file with explicit points")
        p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("enumerate", help="list matched curves as JSON")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="complex and real counts")
    common(p)
    p.add_argument(
        "--signs",
        help="with --real: per-point sign pairs, e.g. '++,+-' or all-positive; "
        "write a list starting with '-' as --signs=-+,...",
    )
    p.add_argument("--sign-t", help="with --real: sign of the deformation parameter (default +)")
    p.add_argument("--complex", action="store_true")
    p.add_argument("--real", action="store_true")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("welschinger", help="Welschinger total with census cross-check")
    common(p)
    p.add_argument("--sign-t", help="sign of the deformation parameter (default +)")
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
    except InputError as exc:
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
