"""Data model and local invariants of parameterized tropical curves.

A curve is a weighted graph mapped to Q^n: balancing at every vertex,
degree as the multiset of weighted unbounded directions, the least scale
that makes a curve's positions integral and its weights divide its edge
lengths, the angle order of plane vectors, and the dual-triangle
multiplicities used by the counting and Welschinger modules.  Edges are
addressed by id through one table per graph, built here; every other
module reads edges by those ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from .exact_lattice import primitive_vector, vector_gcd

Vec = Tuple[int, ...]
Point = Tuple[Fraction, ...]
EdgeId = str  # "b<i>" for bounded edges, "u<i>" for unbounded ones
# (origin, vector, bounded): the points origin + t * vector, t in [0, 1] when
# bounded and t >= 0 otherwise
Segment = Tuple[Point, Sequence, bool]


class DegenerateEdge(ValueError):
    """A bounded edge whose endpoints map to the same point."""


class NonTrivalent(ValueError):
    """Vertex multiplicity requested at a vertex that is not trivalent."""


class NonGenericCrossing(ValueError):
    """An edge image passes through a vertex image; crossings are ill-defined."""


def as_point(coords: Sequence) -> Point:
    return tuple(Fraction(c) for c in coords)


def point_str(p: Sequence) -> str:
    """A point as ``(x, y)`` with exact rational coordinates, for messages."""
    return "(%s)" % ", ".join(str(x) for x in p)


@dataclass(frozen=True)
class TropicalGraph:
    """Weighted graph with marked edges, combinatorial part of a curve."""

    vertices: Tuple[str, ...]
    bounded_edges: Tuple[Tuple[str, str], ...]
    unbounded_edges: Tuple[Tuple[str, Vec], ...]
    weights: Mapping[EdgeId, int]
    marked: Tuple[EdgeId, ...] = ()

    def __post_init__(self):
        ids = set(self.vertices)
        if len(ids) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        for tail, head in self.bounded_edges:
            if tail not in ids or head not in ids:
                raise ValueError("bounded edge endpoint not a vertex")
        for vertex, direction in self.unbounded_edges:
            if vertex not in ids:
                raise ValueError("unbounded edge vertex not a vertex")
            if vector_gcd(direction) != 1:
                raise ValueError("unbounded direction %s is not primitive" % (direction,))
        for eid in self.edge_ids():
            w = self.weights.get(eid)
            if w is None or w < 1:
                raise ValueError("edge %s needs a weight >= 1" % eid)
        for eid in self.marked:
            if eid not in self.weights:
                raise ValueError("marked edge %s does not exist" % eid)
        self._check_connected_and_valences()

    def _check_connected_and_valences(self):
        adjacency: Dict[str, list] = {v: [] for v in self.vertices}
        for tail, head in self.bounded_edges:
            adjacency[tail].append(head)
            adjacency[head].append(tail)
        valence = {v: len(adjacency[v]) for v in self.vertices}
        for vertex, _ in self.unbounded_edges:
            valence[vertex] += 1
        for v, k in valence.items():
            if k < 3:
                raise ValueError("vertex %s has valence %d < 3" % (v, k))
        if self.vertices:
            seen = {self.vertices[0]}
            stack = [self.vertices[0]]
            while stack:
                for w in adjacency[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(self.vertices):
                raise ValueError("graph is not connected")

    @functools.cached_property
    def _edges(self) -> Dict[EdgeId, Tuple[str, Optional[str], Optional[Vec]]]:
        """Edge id -> (tail, head, fixed direction), bounded edges first: the
        one place that makes the ids.  A bounded edge gives (tail, head,
        None), its direction depending on the positions; an unbounded edge
        gives (vertex, None, direction)."""
        table = {"b%d" % i: (tail, head, None) for i, (tail, head) in enumerate(self.bounded_edges)}
        for i, (vertex, direction) in enumerate(self.unbounded_edges):
            table["u%d" % i] = vertex, None, direction
        return table

    def edge_ids(self) -> Tuple[EdgeId, ...]:
        return tuple(self._edges)

    def bounded_ids(self) -> Tuple[EdgeId, ...]:
        return self.edge_ids()[: len(self.bounded_edges)]

    def unbounded_ids(self) -> Tuple[EdgeId, ...]:
        return self.edge_ids()[len(self.bounded_edges) :]

    def edge(self, eid: EdgeId) -> Tuple[str, Optional[str], Optional[Vec]]:
        """Tail, head and fixed direction of an edge (see ``_edges``)."""
        return self._edges[eid]

    def edges_at(self, vertex: str) -> Tuple[EdgeId, ...]:
        return tuple(eid for eid, (tail, head, _) in self._edges.items() if vertex in (tail, head))


@dataclass(frozen=True)
class TropicalCurve:
    """Embedded tropical curve: graph plus vertex positions in Q^n."""

    graph: TropicalGraph
    positions: Mapping[str, Point]
    n: int

    def __post_init__(self):
        for v in self.graph.vertices:
            p = self.positions.get(v)
            if p is None or len(p) != self.n:
                raise ValueError("vertex %s needs a position in Q^%d" % (v, self.n))
        for _, direction in self.graph.unbounded_edges:
            if len(direction) != self.n:
                raise ValueError("unbounded direction has wrong dimension")

    @functools.cached_property
    def _bounded_geometry(self) -> Dict[EdgeId, Optional[Tuple[Vec, Fraction]]]:
        """Bounded edge id -> (primitive direction from tail to head, lattice
        length), or None when the edge's endpoints coincide."""
        table = {}
        for eid in self.graph.bounded_ids():
            disp = self.edge_segment(eid)[1]
            if all(x == 0 for x in disp):
                table[eid] = None
                continue
            u = rational_primitive(disp)
            table[eid] = u, next(Fraction(a) / b for a, b in zip(disp, u) if b != 0)
        return table

    @functools.cached_property
    def goodness_scale(self) -> int:
        """Least s > 0 such that s times every position is integral and every
        bounded edge's weight divides its lattice length after scaling by s."""
        s = lcm(*(Fraction(x).denominator for p in self.positions.values() for x in p))
        for eid in self.graph.bounded_ids():
            w = self.weight(eid)
            length = self.lattice_length(eid)
            # need s * length in w * Z
            num, den = length.numerator, length.denominator
            s = lcm(s, w * den // gcd(abs(num), w * den))
        return s

    @functools.cached_property
    def lattice_records(self) -> Dict[Tuple, object]:
        """``counting.curve_lattice``'s records, keyed by (constraints, marks),
        kept here so that they die with the curve."""
        return {}

    @functools.cached_property
    def _multiplicities(self) -> Dict[str, VertexMultiplicities]:
        """``vertex_multiplicities``' values, filled per vertex as asked."""
        return {}

    def _geometry(self, eid: EdgeId) -> Tuple[Vec, Fraction]:
        geometry = self._bounded_geometry[eid]
        if geometry is None:
            raise DegenerateEdge("bounded edge %s has equal endpoints" % eid)
        return geometry

    def edge_direction(self, eid: EdgeId, at_vertex: Optional[str] = None) -> Vec:
        """Primitive direction of an edge, outgoing from ``at_vertex``.

        A bounded edge whose endpoints coincide raises DegenerateEdge.
        """
        tail, head, direction = self.graph.edge(eid)
        if head is None:
            return tuple(direction)
        u = self._geometry(eid)[0]
        if at_vertex is None or at_vertex == tail:
            return u
        if at_vertex == head:
            return tuple(-x for x in u)
        raise ValueError("vertex %s is not an endpoint of %s" % (at_vertex, eid))

    def edge_segment(self, eid: EdgeId) -> Segment:
        """(origin, vector, bounded): the edge image is origin + t * vector,
        with t in [0, 1] for a bounded edge and t >= 0 for a ray."""
        tail, head, direction = self.graph.edge(eid)
        origin = self.positions[tail]
        if head is None:
            return origin, direction, False
        return origin, tuple(b - a for a, b in zip(origin, self.positions[head])), True

    def lattice_length(self, eid: EdgeId) -> Fraction:
        """Integral affine length of a bounded edge: the factor k with
        head - tail == k * primitive_direction."""
        return self._geometry(eid)[1]

    def weight(self, eid: EdgeId) -> int:
        return self.graph.weights[eid]


def segment_param(segment: Segment, point: Sequence) -> Optional[Fraction]:
    """Parameter t of a point on a segment (see ``TropicalCurve.edge_segment``),
    or None when the point is off the closed segment in any coordinate."""
    origin, vector, bounded = segment
    for o, v, p in zip(origin, vector, point):
        if v != 0:
            t = Fraction(p - o) / v
            break
    else:
        raise DegenerateEdge("segment from %s has a zero vector" % point_str(origin))
    if t < 0 or (bounded and t > 1):
        return None
    if any(o + t * v != p for o, v, p in zip(origin, vector, point)):
        return None
    return t


def segment_crossing(s1: Segment, s2: Segment) -> Optional[Tuple[Fraction, Fraction]]:
    """Parameters (t1, t2) of the point where two non-parallel plane segments
    meet, ends included; None for parallel segments or when they miss."""
    (a1, v1, bounded1), (a2, v2, bounded2) = s1, s2
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det == 0:
        return None
    rx, ry = a2[0] - a1[0], a2[1] - a1[1]
    # t1 = n1 / det and t2 = n2 / det, compared before dividing
    n1 = rx * v2[1] - ry * v2[0]
    n2 = rx * v1[1] - ry * v1[0]
    if det < 0:
        det, n1, n2 = -det, -n1, -n2
    if n1 < 0 or (bounded1 and n1 > det) or n2 < 0 or (bounded2 and n2 > det):
        return None
    return Fraction(n1) / det, Fraction(n2) / det


def rational_primitive(disp: Sequence[Fraction]) -> Vec:
    """Primitive integer vector parallel to a rational displacement."""
    denom = lcm(*(Fraction(x).denominator for x in disp))
    ints = [int(Fraction(x) * denom) for x in disp]
    return primitive_vector(ints)


@dataclass(frozen=True)
class Degree:
    """Multiset of weighted unbounded directions, v -> multiplicity."""

    entries: Mapping[Vec, int]

    def __post_init__(self):
        for v, k in self.entries.items():
            if all(x == 0 for x in v):
                raise ValueError("degree entries must be nonzero vectors")
            if k < 0:
                raise ValueError("degree multiplicities must be nonnegative")

    def total(self) -> int:
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def is_balanced(self) -> bool:
        if not self.entries:
            return True
        n = len(next(iter(self.entries)))
        return all(
            sum(v[k] * c for v, c in self.entries.items()) == 0 for k in range(n)
        )

    @staticmethod
    def projective(d: int) -> "Degree":
        """Degree of plane projective curves of degree d: d copies each of
        (-1,0), (0,-1), (1,1)."""
        if d < 1:
            raise ValueError("degree must be positive")
        return Degree({(-1, 0): d, (0, -1): d, (1, 1): d})


@dataclass(frozen=True)
class DualTriangle:
    """Side data of the triangle dual to a trivalent plane vertex.

    Stored by (direction, weight) sides only; lattice point counts are all
    that downstream formulas consume.
    """

    sides: Tuple[Tuple[Vec, int], ...]
    twice_area: int
    boundary_points: int
    interior_points: int

    def explicit_vertices(self) -> Tuple[Vec, Vec, Vec]:
        """One concrete placement: corners obtained by walking the rotated
        side vectors from the origin."""
        corners = [(0, 0)]
        x, y = 0, 0
        for (ux, uy), w in self.sides[:2]:
            x, y = x + w * (-uy), y + w * ux
            corners.append((x, y))
        return tuple(corners)

    def interior_points_bruteforce(self) -> int:
        """Row-by-row lattice count inside the explicit triangle; used as an
        independent check of the Pick-formula value."""
        return _interior_points_of_triangle(self.explicit_vertices())


def _interior_points_of_triangle(corners) -> int:
    (x0, y0), (x1, y1), (x2, y2) = corners
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area2 == 0:
        return 0
    if area2 < 0:
        (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
    count = 0
    ymin = min(y0, y1, y2)
    ymax = max(y0, y1, y2)
    edges = [((x0, y0), (x1, y1)), ((x1, y1), (x2, y2)), ((x2, y2), (x0, y0))]
    for y in range(ymin + 1, ymax):
        xs = []
        for (ax, ay), (bx, by) in edges:
            if ay == by:
                continue
            if min(ay, by) <= y <= max(ay, by):
                xs.append(Fraction(ax) + Fraction((y - ay) * (bx - ax), by - ay))
        lo, hi = min(xs), max(xs)
        # strict interior: integer x in (lo, hi)
        first = int(lo) + 1 if lo.denominator == 1 else -(-lo.numerator // lo.denominator)
        last = int(hi) - 1 if hi.denominator == 1 else hi.numerator // hi.denominator
        if last >= first:
            count += last - first + 1
    return count


def check_balancing(curve: TropicalCurve) -> list:
    """Violations of the balancing condition, one (vertex, sum) per bad vertex."""
    violations = []
    for v in curve.graph.vertices:
        total = [0] * curve.n
        for eid in curve.graph.edges_at(v):
            u = curve.edge_direction(eid, at_vertex=v)
            w = curve.weight(eid)
            total = [t + w * x for t, x in zip(total, u)]
        if any(t != 0 for t in total):
            violations.append((v, tuple(total)))
    return violations


def plane_crossings(
    curve: TropicalCurve,
) -> Iterator[Tuple[EdgeId, EdgeId, Fraction, Fraction]]:
    """Transversal crossings of the images of non-adjacent edges.

    Yields (e1, e2, t1, t2), e1 before e2 in ``edge_ids`` order, with t1 and
    t2 the crossing's parameters on ``edge_segment`` of each edge.  Parallel
    edges never cross.  A crossing at an end of either edge means an edge
    image passes through a vertex image and raises NonGenericCrossing.
    """
    if curve.n != 2:
        raise ValueError("crossings are defined for plane curves")
    edges = []
    for eid in curve.graph.edge_ids():
        tail, head, _ = curve.graph.edge(eid)
        ends = {tail} if head is None else {tail, head}
        edges.append((eid, ends, curve.edge_segment(eid)))
    for i, (e1, ends1, s1) in enumerate(edges):
        for e2, ends2, s2 in edges[i + 1 :]:
            if ends1 & ends2:
                continue
            crossing = segment_crossing(s1, s2)
            if crossing is None:
                continue
            t1, t2 = crossing
            if 0 in crossing or (s1[2] and t1 == 1) or (s2[2] and t2 == 1):
                raise NonGenericCrossing("edge %s meets a vertex of edge %s" % (e2, e1))
            yield e1, e2, t1, t2


def _angle_cmp(u, v) -> int:
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


# Sort key for nonzero plane vectors: counterclockwise order starting at the
# positive x-axis; parallel vectors compare equal.
angle_key = functools.cmp_to_key(_angle_cmp)


@dataclass(frozen=True)
class VertexMultiplicities:
    mult: int
    mult_r: int
    mult_m: int
    triangle: DualTriangle


def dual_triangle(sides: Sequence[Tuple[Vec, int]]) -> DualTriangle:
    """Dual triangle of a balanced trivalent direction/weight triple."""
    if len(sides) != 3:
        raise NonTrivalent("a dual triangle needs exactly three sides")
    (u1, w1), (u2, w2), (u3, w3) = sides
    balance = tuple(
        w1 * u1[k] + w2 * u2[k] + w3 * u3[k] for k in range(2)
    )
    if any(x != 0 for x in balance):
        raise ValueError("sides are not balanced: weighted sum %s" % (balance,))
    mult = abs(w1 * w2 * (u1[0] * u2[1] - u1[1] * u2[0]))
    if mult == 0:
        raise ValueError("degenerate vertex: all directions parallel")
    boundary = w1 + w2 + w3
    interior2 = mult - boundary + 2
    if interior2 % 2 != 0:
        raise AssertionError("Pick parity violated for sides %s" % (sides,))
    interior = interior2 // 2
    return DualTriangle(
        sides=tuple((tuple(u), int(w)) for u, w in sides),
        twice_area=mult,
        boundary_points=boundary,
        interior_points=interior,
    )


def vertex_multiplicities(curve: TropicalCurve, vertex: str) -> VertexMultiplicities:
    """Complex, Welschinger, and Mikhalkin multiplicities of a trivalent vertex,
    computed once per vertex and kept on the curve."""
    found = curve._multiplicities.get(vertex)
    if found is None:
        found = curve._multiplicities[vertex] = _vertex_multiplicities(curve, vertex)
    return found


def _vertex_multiplicities(curve: TropicalCurve, vertex: str) -> VertexMultiplicities:
    if curve.n != 2:
        raise ValueError("vertex multiplicities are defined for plane curves")
    eids = curve.graph.edges_at(vertex)
    if len(eids) != 3:
        raise NonTrivalent("vertex %s has valence %d" % (vertex, len(eids)))
    sides = []
    for eid in eids:
        u = curve.edge_direction(eid, at_vertex=vertex)
        sides.append((u, curve.weight(eid)))
    tri = dual_triangle(sides)
    mult = tri.twice_area
    mult_r = -1 if tri.interior_points % 2 else 1
    if mult % 2 == 0:
        mult_m = 0
    else:
        mult_m = -1 if ((mult - 1) // 2) % 2 else 1
    return VertexMultiplicities(mult=mult, mult_r=mult_r, mult_m=mult_m, triangle=tri)


def curve_welschinger_mult(curve: TropicalCurve) -> int:
    """Mult_R: zero with any even bounded weight, else the product of vertex signs."""
    for eid in curve.graph.bounded_ids():
        if curve.weight(eid) % 2 == 0:
            return 0
    sign = 1
    for v in curve.graph.vertices:
        sign *= vertex_multiplicities(curve, v).mult_r
    return sign


def curve_mikhalkin_mults(curve: TropicalCurve) -> Tuple[int, int]:
    """(complex multiplicity, Mikhalkin real multiplicity) as vertex products."""
    complex_mult = 1
    real_m = 1
    for v in curve.graph.vertices:
        vm = vertex_multiplicities(curve, v)
        complex_mult *= vm.mult
        real_m *= vm.mult_m
    return complex_mult, real_m
