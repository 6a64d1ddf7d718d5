"""Integral polyhedral decompositions of the plane, good for one curve.

A decomposition is good for a curve when its vertices sit at 0-cells, its
edges lie in the 1-skeleton, the constraint points on it are 0-cells, and
its bounded-edge weights divide their lattice lengths.  This module checks
those clauses, finds the minimal rescaling that makes them satisfiable (the
curve's ``goodness_scale`` with the constraint denominators), and builds
the decomposition cut out by the curve and the constraint points: each edge
image is cut at its crossings with the others and at the points on it,
using the segment kernel of ``tropical``, and the faces are traced from the
pieces.  All coordinates are exact rationals.  Only the embedded acceptance
suite uses it; the counts read the scale off the curve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Sequence, Tuple

from .tropical import (
    Point,
    Segment,
    TropicalCurve,
    Vec,
    angle_key,
    as_point,
    check_balancing,
    rational_primitive,
    segment_crossing,
    segment_param,
    segments_overlap,
)


class NonGenericInput(ValueError):
    """Two edges of the curve share a one-dimensional locus; the
    decomposition is ill-posed."""


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


def rescale_for_goodness(curve: TropicalCurve, constraints: Sequence) -> int:
    """Minimal positive integer s such that, after scaling by s, the curve's
    vertex positions and the constraint points are integral and every
    bounded edge image has lattice length divisible by its weight."""
    return lcm(
        curve.goodness_scale,
        *(Fraction(x).denominator for point in constraints for x in point),
    )


def _cuts(segment: Segment, points, ts=()) -> List[Fraction]:
    """Sorted parameters on a segment of its ends (its origin for a ray), of
    ``ts`` and of the points that lie on it."""
    cuts = {Fraction(0), Fraction(int(segment[2]))}
    cuts.update(ts)
    cuts.update(t for t in (segment_param(segment, p) for p in points) if t is not None)
    return sorted(cuts)


def _point_at(segment: Segment, t) -> Point:
    origin, vector, _ = segment
    return tuple(o + t * v for o, v in zip(origin, vector))


def _cell_segment(cell: Polyhedron) -> Segment:
    """A 1-cell as a segment or a ray."""
    p = cell.vertices[0]
    if cell.rays:
        return p, cell.rays[0], False
    return p, tuple(b - a for a, b in zip(p, cell.vertices[1])), True


def validate_good(
    decomposition: PolyhedralDecomposition,
    curve: TropicalCurve,
    constraints: Sequence,
) -> GoodnessReport:
    """Check the three goodness clauses for a curve.

    (i) curve vertices at 0-cells and edges inside the 1-skeleton: each edge
    is split at the 0-cells on it that end 1-cells parallel to it, and each
    piece must have two interior points on one of those 1-cells,
    (ii) curve/constraint intersections at 0-cells,
    (iii) bounded-edge weights divide the lattice lengths of their images.
    Violations are returned as data, never raised.
    """
    violations: List[GoodnessViolation] = []
    zero_cells = decomposition.zero_cell_points()
    one_cells = []
    for cell in decomposition.cells_of_dim(1):
        segment = _cell_segment(cell)
        one_cells.append((segment, cell.vertices, rational_primitive(segment[1])))

    for v in curve.graph.vertices:
        if curve.positions[v] not in zero_cells:
            violations.append(GoodnessViolation("i", "vertex %s not a 0-cell" % v))
    for eid in curve.graph.edge_ids():
        segment = curve.edge_segment(eid)
        u = curve.edge_direction(eid)
        directions = (u, tuple(-x for x in u))
        parallel = [(c, ends) for c, ends, w in one_cells if w in directions]
        ts = _cuts(segment, {p for _, ends in parallel for p in ends})
        if not segment[2]:
            ts.append(ts[-1] + 3)  # a piece of the ray past its last cut
        for ta, tb in zip(ts, ts[1:]):
            inner = [_point_at(segment, ta + k * (tb - ta) / 3) for k in (1, 2)]
            if not any(
                all(segment_param(c, q) is not None for q in inner) for c, _ in parallel
            ):
                violations.append(GoodnessViolation("i", "edge %s not in the 1-skeleton" % eid))
                break
    for j, constraint in enumerate(constraints):
        p = as_point(constraint)
        meets = any(curve.edge_param(eid, p) is not None for eid in curve.graph.edge_ids())
        if meets and p not in zero_cells:
            violations.append(
                GoodnessViolation("ii", "curve meets constraint %d at %s, not a 0-cell" % (j, p))
            )
    for i, eid in enumerate(curve.graph.bounded_ids()):
        w = curve.weight(eid)
        length = curve.lattice_length(i)
        if (length / w).denominator != 1:
            violations.append(
                GoodnessViolation(
                    "iii", "edge %s: weight %d does not divide length %s" % (eid, w, length)
                )
            )
    return GoodnessReport(violations=tuple(violations))


_INF = "INF"


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
    curve: TropicalCurve, constraints: Sequence = ()
) -> PolyhedralDecomposition:
    """The curve image and the constraint points as a polyhedral
    decomposition of Q^2.

    Each edge image is cut at its crossings with the other edge images and
    at the constraint points on it; two edge images that share a piece of
    positive length raise NonGenericInput.  The curve must be balanced.  A
    balanced plane curve is the corner locus of a tropical polynomial, so
    each region of its complement is convex: the decomposition needs no
    completion to have convex cells.
    """
    if curve.n != 2:
        raise ValueError("build_decomposition_2d is specified only for n == 2")
    violations = check_balancing(curve)
    if violations:
        raise ValueError("curve is not balanced at %s" % (violations,))

    strokes = [(eid, curve.edge_segment(eid)) for eid in curve.graph.edge_ids()]
    crossings = [[] for _ in strokes]
    for (i, (e1, s1)), (j, (e2, s2)) in itertools.combinations(enumerate(strokes), 2):
        if segments_overlap(s1, s2):
            raise NonGenericInput("edges %s and %s overlap" % (e1, e2))
        crossing = segment_crossing(s1, s2)
        if crossing is not None:
            crossings[i].append(crossing[0])
            crossings[j].append(crossing[1])
    points = [as_point(p) for p in constraints]
    vertices = set()
    segments = []
    rays = []
    for (_, stroke), ts in zip(strokes, crossings):
        pts = [_point_at(stroke, t) for t in _cuts(stroke, points, ts)]
        vertices.update(pts)
        segments.extend(zip(pts, pts[1:]))
        if not stroke[2]:
            rays.append((pts[-1], tuple(stroke[1])))
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
