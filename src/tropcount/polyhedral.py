"""Integral polyhedral decompositions of the plane.

Validation of decompositions that are good for a set of matched curves,
minimal rescaling, and a planar constructor that overlays curve images and
constraint points.  All coordinates are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from .tropical import (
    Point,
    TropicalCurve,
    Vec,
    angle_key,
    as_point,
    check_balancing,
    rational_primitive,
)


class NonGenericInput(ValueError):
    """Two curves share a one-dimensional locus; the overlay is ill-posed."""


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron in V-representation: convex hull of vertices plus
    nonnegative combinations of rays."""

    vertices: Tuple[Point, ...]
    rays: Tuple[Vec, ...]
    dim: int


@dataclass(frozen=True)
class PolyhedralDecomposition:
    """Cells of a decomposition with their face-lattice incidence.

    ``incidence`` maps a cell index to the indices of its proper boundary
    cells of one dimension lower.
    """

    cells: Tuple[Polyhedron, ...]
    incidence: Mapping[int, Tuple[int, ...]]

    def cells_of_dim(self, d: int) -> List[Polyhedron]:
        return [c for c in self.cells if c.dim == d]

    def zero_cell_points(self) -> set:
        return {c.vertices[0] for c in self.cells if c.dim == 0}


@dataclass(frozen=True)
class GoodnessViolation:
    clause: str
    message: str


@dataclass(frozen=True)
class GoodnessReport:
    violations: Tuple[GoodnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def scale_curve(curve: TropicalCurve, s: int) -> TropicalCurve:
    positions = {v: tuple(Fraction(s) * x for x in p) for v, p in curve.positions.items()}
    return TropicalCurve(graph=curve.graph, positions=positions, n=curve.n)


def scale_point(point: Sequence, s: int) -> Point:
    return tuple(Fraction(s) * Fraction(x) for x in point)


def rescale_for_goodness(curves: Sequence[TropicalCurve], constraints: Sequence) -> int:
    """Minimal positive integer s such that, after scaling by s, all vertex
    positions and constraint points are integral and every bounded edge
    image has lattice length divisible by its weight."""
    s = lcm(*(Fraction(x).denominator for point in constraints for x in point))
    for curve in curves:
        s = lcm(s, *(Fraction(x).denominator for p in curve.positions.values() for x in p))
        for i, eid in enumerate(curve.graph.bounded_ids()):
            w = curve.weight(eid)
            length = curve.lattice_length(i)
            # need s * length in w * Z
            num, den = length.numerator, length.denominator
            s = lcm(s, w * den // gcd(abs(num), w * den))
    return s


def _curve_strokes(curve: TropicalCurve):
    """Segments and rays of the curve image, as (kind, data) tuples."""
    strokes = []
    for i, (tail, head) in enumerate(curve.graph.bounded_edges):
        strokes.append(("segment", curve.positions[tail], curve.positions[head]))
    for i, (vertex, direction) in enumerate(curve.graph.unbounded_edges):
        strokes.append(("ray", curve.positions[vertex], tuple(direction)))
    return strokes


def validate_good(
    decomposition: PolyhedralDecomposition,
    curves: Sequence[TropicalCurve],
    constraints: Sequence,
) -> GoodnessReport:
    """Check the three goodness clauses for every curve.

    (i) curve vertices at 0-cells and edges inside the 1-skeleton,
    (ii) curve/constraint intersections at 0-cells,
    (iii) bounded-edge weights divide the lattice lengths of their images.
    Violations are returned as data, never raised.
    """
    violations: List[GoodnessViolation] = []
    zero_cells = decomposition.zero_cell_points()
    one_cells = decomposition.cells_of_dim(1)

    for ci, curve in enumerate(curves):
        for v in curve.graph.vertices:
            if curve.positions[v] not in zero_cells:
                violations.append(
                    GoodnessViolation("i", "curve %d vertex %s not a 0-cell" % (ci, v))
                )
        for kind, a, extra in _curve_strokes(curve):
            if not _stroke_in_skeleton(kind, a, extra, one_cells):
                violations.append(
                    GoodnessViolation(
                        "i", "curve %d edge at %s not in the 1-skeleton" % (ci, a)
                    )
                )
        for j, constraint in enumerate(constraints):
            p = as_point(constraint)
            meets = any(curve.edge_param(eid, p) is not None for eid in curve.graph.edge_ids())
            if meets and p not in zero_cells:
                violations.append(
                    GoodnessViolation(
                        "ii",
                        "curve %d meets constraint %d at %s, not a 0-cell" % (ci, j, p),
                    )
                )
        for i, eid in enumerate(curve.graph.bounded_ids()):
            w = curve.weight(eid)
            length = curve.lattice_length(i)
            if (length / w).denominator != 1:
                violations.append(
                    GoodnessViolation(
                        "iii",
                        "curve %d edge %s: weight %d does not divide length %s"
                        % (ci, eid, w, length),
                    )
                )
    return GoodnessReport(violations=tuple(violations))


def _stroke_in_skeleton(kind, a, extra, one_cells) -> bool:
    """Is the stroke covered by the decomposition's 1-cells?"""
    if kind == "segment":
        key = _line_key_through(a, extra)
        ta, tb = _line_param(key, a), _line_param(key, extra)
        lo, hi = min(ta, tb), max(ta, tb)
    else:
        direction = extra
        b = tuple(x + d for x, d in zip(a, direction))
        key = _line_key_through(a, b)
        ta = _line_param(key, a)
        forward = _line_param(key, b) > ta
        lo, hi = (ta, None) if forward else (None, ta)
    intervals = []
    for cell in one_cells:
        cl, ch = _one_cell_interval_on_line(cell, key)
        if cl is False:
            continue
        intervals.append((cl, ch))
    return _interval_covered(lo, hi, intervals)


def _one_cell_interval_on_line(cell: Polyhedron, key):
    """Interval of a 1-cell on the line with this key, or (False, False)."""
    pts = list(cell.vertices)
    if not pts:
        return False, False
    for p in pts:
        if not _on_line(key, p):
            return False, False
    params = [_line_param(key, p) for p in pts]
    if cell.rays:
        if len(cell.rays) == 1 and len(pts) == 1:
            d = cell.rays[0]
            q = tuple(x + dd for x, dd in zip(pts[0], d))
            if not _on_line(key, q):
                return False, False
            if _line_param(key, q) > params[0]:
                return params[0], None
            return None, params[0]
        return False, False
    return min(params), max(params)


def _interval_covered(lo, hi, intervals) -> bool:
    """Is [lo, hi] (None = unbounded side) covered by the union of the
    closed intervals?"""
    if not intervals:
        return False
    if lo is None:
        reach = None
        for cl, ch in intervals:
            if cl is None:
                if ch is None:
                    return True
                if reach is None or ch > reach:
                    reach = ch
        if reach is None:
            return False
        cursor = reach
    else:
        cursor = lo
    while True:
        if hi is not None and cursor >= hi:
            return True
        reach = None
        unbounded = False
        for cl, ch in intervals:
            if cl is None or cl <= cursor:
                if ch is None:
                    unbounded = True
                    break
                if reach is None or ch > reach:
                    reach = ch
        if unbounded:
            return True
        if reach is None or reach <= cursor:
            return False
        cursor = reach


def _line_key_through(p: Point, q: Point):
    """Normalized (a, b, c) with a*x + b*y == c through two points."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0 and dy == 0:
        raise ValueError("coincident points do not define a line")
    # normal (a, b) = rot90 of direction, cleared to primitive integers
    denom = lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * denom), int(dy * denom)
    a, b = -iy, ix
    g = gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    c = a * p[0] + b * p[1]
    return (a, b, c)


def _on_line(key, p: Point) -> bool:
    a, b, c = key
    return a * p[0] + b * p[1] == c


def _line_param(key, p: Point) -> Fraction:
    a, b, _ = key
    d = (b, -a)
    return d[0] * p[0] + d[1] * p[1]


def _line_point_at(key, t: Fraction) -> Point:
    a, b, c = key
    if b != 0:
        p0 = (Fraction(0), Fraction(c, 1) / b)
    else:
        p0 = (Fraction(c, 1) / a, Fraction(0))
    d = (Fraction(b), Fraction(-a))
    t0 = d[0] * p0[0] + d[1] * p0[1]
    norm = d[0] * d[0] + d[1] * d[1]
    f = (t - t0) / norm
    return (p0[0] + f * d[0], p0[1] + f * d[1])


_INF = "INF"


class _Arrangement:
    """Planar arrangement of segments and rays with exact coordinates."""

    def __init__(self):
        # line key -> {"intervals": [(lo, hi, src)], "cuts": set of t}
        self.lines: Dict[tuple, dict] = {}

    def add_stroke(self, kind, a, extra, src):
        if kind == "segment":
            key = _line_key_through(a, extra)
            ta, tb = _line_param(key, a), _line_param(key, extra)
            lo, hi = (ta, tb) if ta <= tb else (tb, ta)
        else:
            b = tuple(x + d for x, d in zip(a, extra))
            key = _line_key_through(a, b)
            ta = _line_param(key, a)
            lo, hi = (ta, None) if _line_param(key, b) > ta else (None, ta)
        entry = self.lines.setdefault(key, {"intervals": [], "cuts": set()})
        entry["intervals"].append((lo, hi, src))
        if lo is not None:
            entry["cuts"].add(lo)
        if hi is not None:
            entry["cuts"].add(hi)

    def add_cut_point(self, p: Point):
        for key, entry in self.lines.items():
            if _on_line(key, p):
                t = _line_param(key, p)
                if _t_occupied(entry["intervals"], t):
                    entry["cuts"].add(t)

    def check_overlaps(self):
        """Reject positive-length overlaps between curve strokes."""
        for key, entry in self.lines.items():
            ivs = entry["intervals"]
            for i in range(len(ivs)):
                for j in range(i + 1, len(ivs)):
                    lo1, hi1, s1 = ivs[i]
                    lo2, hi2, s2 = ivs[j]
                    lo = max((x for x in (lo1, lo2) if x is not None), default=None)
                    hi = min((x for x in (hi1, hi2) if x is not None), default=None)
                    if lo is None or hi is None or lo < hi:
                        raise NonGenericInput(
                            "strokes from inputs %s and %s overlap on line %s" % (s1, s2, key)
                        )

    def compute_crossings(self):
        keys = list(self.lines)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                k1, k2 = keys[i], keys[j]
                a1, b1, c1 = k1
                a2, b2, c2 = k2
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                x = Fraction(c1 * b2 - c2 * b1, 1) / det
                y = Fraction(a1 * c2 - a2 * c1, 1) / det
                p = (x, y)
                t1, t2 = _line_param(k1, p), _line_param(k2, p)
                if _t_occupied(self.lines[k1]["intervals"], t1) and _t_occupied(
                    self.lines[k2]["intervals"], t2
                ):
                    self.lines[k1]["cuts"].add(t1)
                    self.lines[k2]["cuts"].add(t2)

    def atomic_cells(self):
        """Vertices, finite segments, and rays after cutting."""
        vertices = set()
        segments = []
        rays = []
        for key, entry in self.lines.items():
            merged = _merge_intervals(entry["intervals"])
            for lo, hi in merged:
                cuts = sorted(t for t in entry["cuts"] if _t_in(lo, hi, t))
                if not cuts:
                    raise AssertionError("occupied interval with no anchor point")
                pts = [_line_point_at(key, t) for t in cuts]
                for p in pts:
                    vertices.add(p)
                d = rational_primitive((Fraction(key[1]), Fraction(-key[0])))
                if lo is None:
                    rays.append((pts[0], tuple(-x for x in d)))
                elif cuts[0] != lo:
                    raise AssertionError("interval endpoint missing from cuts")
                for pa, pb in zip(pts, pts[1:]):
                    segments.append((pa, pb))
                if hi is None:
                    rays.append((pts[-1], d))
                elif cuts[-1] != hi:
                    raise AssertionError("interval endpoint missing from cuts")
        return vertices, segments, rays


def _t_occupied(intervals, t) -> bool:
    for lo, hi, _ in intervals:
        if (lo is None or lo <= t) and (hi is None or t <= hi):
            return True
    return False


def _t_in(lo, hi, t) -> bool:
    return (lo is None or lo <= t) and (hi is None or t <= hi)


def _merge_intervals(intervals):
    ivs = sorted(
        ((lo, hi) for lo, hi, _ in intervals),
        key=lambda iv: (iv[0] is not None, iv[0] if iv[0] is not None else 0),
    )
    merged = []
    for lo, hi in ivs:
        if merged:
            plo, phi = merged[-1]
            touches = (lo is None) or (phi is None) or (lo <= phi)
            if touches:
                if phi is not None and (hi is None or hi > phi):
                    merged[-1] = (plo, hi)
                continue
        merged.append((lo, hi))
    return merged


@dataclass
class _Face:
    vertex_walk: List
    ray_dirs: List
    edge_labels: List  # ("s", idx) / ("r", idx) of the boundary walk


def _extract_faces(vertices, segments, rays):
    """Faces of the arrangement via half-edge traversal.

    Unbounded edges meet at a single vertex at infinity whose rotation
    order is the reversed circular order of ray directions, parallel rays
    tie-broken by their transverse offset.
    """
    out: Dict[object, list] = {p: [] for p in vertices}
    out[_INF] = []
    halfedges = {}

    def add_pair(u, v, du, dv, label):
        h1 = (label, 0)
        h2 = (label, 1)
        halfedges[h1] = (u, v, du)
        halfedges[h2] = (v, u, dv)
        out[u].append((h1, du))
        out[v].append((h2, dv))
        return h1, h2

    for idx, (pa, pb) in enumerate(segments):
        d = tuple(b - a for a, b in zip(pa, pb))
        dprim = rational_primitive(d)
        add_pair(pa, pb, dprim, tuple(-x for x in dprim), ("s", idx))
    for idx, (p, d) in enumerate(rays):
        add_pair(p, _INF, d, tuple(-x for x in d), ("r", idx))

    for p in out:
        if p == _INF:
            def inf_key(item):
                h, d = item
                # h is (INF -> q); underlying ray has direction -d
                ray_dir = tuple(-x for x in d)
                u, v, _ = halfedges[h]
                q = v
                a, b = -ray_dir[1], ray_dir[0]
                c = a * q[0] + b * q[1]
                return (ray_dir, c)

            # reversed circular order at infinity; ties by decreasing offset
            grouped: Dict[Vec, list] = {}
            for it in out[p]:
                grouped.setdefault(inf_key(it)[0], []).append(it)
            ordered = []
            for d in sorted(grouped, key=angle_key, reverse=True):
                ordered.extend(sorted(grouped[d], key=lambda it: inf_key(it)[1], reverse=True))
            out[p] = ordered
        else:
            out[p] = sorted(out[p], key=lambda it: angle_key(it[1]))

    position = {}
    for p, items in out.items():
        for i, (h, _) in enumerate(items):
            position[h] = (p, i)

    def twin(h):
        label, side = h
        return (label, 1 - side)

    def next_halfedge(h):
        u, v, _ = halfedges[h]
        t = twin(h)
        p, i = position[t]
        items = out[p]
        return items[(i - 1) % len(items)][0]

    faces = []
    used = set()
    for h0 in halfedges:
        if h0 in used:
            continue
        walk = []
        h = h0
        while h not in used:
            used.add(h)
            walk.append(h)
            h = next_halfedge(h)
        face = _Face(vertex_walk=[], ray_dirs=[], edge_labels=[])
        for h in walk:
            u, v, d = halfedges[h]
            face.edge_labels.append(h[0])
            if u != _INF:
                face.vertex_walk.append(u)
            if v == _INF:
                face.ray_dirs.append(d)
            if u == _INF:
                face.ray_dirs.append(tuple(-x for x in d))
        faces.append(face)
    return faces


def build_decomposition_2d(
    curves: Sequence[TropicalCurve], constraints: Sequence = ()
) -> PolyhedralDecomposition:
    """Overlay of all curve images and constraint points as a polyhedral
    decomposition of Q^2.

    Every curve must be balanced.  A balanced plane curve is the corner
    locus of a tropical polynomial, so each region of its complement is
    convex, and so is each region of an overlay of such curves: the overlay
    needs no completion to have convex cells.
    """
    for curve in curves:
        if curve.n != 2:
            raise ValueError("build_decomposition_2d is specified only for n == 2")
        violations = check_balancing(curve)
        if violations:
            raise ValueError("curve is not balanced at %s" % (violations,))
    if not curves:
        plane = Polyhedron(
            vertices=(as_point((0, 0)),),
            rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
            dim=2,
        )
        return PolyhedralDecomposition(cells=(plane,), incidence={0: ()})

    arr = _Arrangement()
    for ci, curve in enumerate(curves):
        for kind, a, extra in _curve_strokes(curve):
            arr.add_stroke(kind, a, extra, "curve%d" % ci)
    arr.check_overlaps()
    arr.compute_crossings()
    for point in constraints:
        arr.add_cut_point(as_point(point))
    vertices, segments, rays = arr.atomic_cells()
    faces = _extract_faces(vertices, segments, rays)
    return _assemble_decomposition(vertices, segments, rays, faces)


def _assemble_decomposition(vertices, segments, rays, faces) -> PolyhedralDecomposition:
    cells: List[Polyhedron] = []
    vertex_index: Dict = {}
    for p in sorted(vertices):
        vertex_index[p] = len(cells)
        cells.append(Polyhedron(vertices=(p,), rays=(), dim=0))
    incidence: Dict[int, Tuple[int, ...]] = {i: () for i in range(len(cells))}
    label_index: Dict = {}
    for i, (pa, pb) in enumerate(segments):
        idx = len(cells)
        label_index[("s", i)] = idx
        cells.append(Polyhedron(vertices=(pa, pb), rays=(), dim=1))
        incidence[idx] = (vertex_index[pa], vertex_index[pb])
    for i, (p, d) in enumerate(rays):
        idx = len(cells)
        label_index[("r", i)] = idx
        cells.append(Polyhedron(vertices=(p,), rays=(d,), dim=1))
        incidence[idx] = (vertex_index[p],)
    for face in faces:
        verts = []
        for p in face.vertex_walk:
            if p not in verts:
                verts.append(p)
        ray_dirs = sorted(set(face.ray_dirs))
        idx = len(cells)
        cells.append(Polyhedron(vertices=tuple(verts), rays=tuple(ray_dirs), dim=2))
        incidence[idx] = tuple(sorted({label_index[lab] for lab in face.edge_labels}))
    return PolyhedralDecomposition(cells=tuple(cells), incidence=incidence)
