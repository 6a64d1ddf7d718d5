"""Deterministic SVG rendering of tropical curves.

The viewport is computed from the curve extent plus a 10% margin; rays are
clipped to the viewport boundary.  Coordinates are formatted from exact
rationals with fixed precision, so equal inputs give byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .tropical import TropicalCurve, Vec, angle_key, plane_crossings


def _fmt(x: Fraction, scale: Fraction, offset: Fraction) -> str:
    """Fixed-point decimal with three digits, computed in exact arithmetic."""
    value = (Fraction(x) - offset) * scale
    scaled = value * 1000
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 and q != 0 else ""
    text = "%s%d.%03d" % (sign, q // 1000, q % 1000)
    return text


class _Canvas:
    def __init__(self, xmin, xmax, ymin, ymax, width=420):
        span_x = xmax - xmin
        span_y = ymax - ymin
        margin_x = span_x / 10 if span_x else Fraction(1)
        margin_y = span_y / 10 if span_y else Fraction(1)
        self.xmin = xmin - margin_x
        self.xmax = xmax + margin_x
        self.ymin = ymin - margin_y
        self.ymax = ymax + margin_y
        self.scale = Fraction(width) / (self.xmax - self.xmin)
        self.height_f = (self.ymax - self.ymin) * self.scale
        self.elements: List[str] = []

    def x(self, value) -> str:
        return _fmt(value, self.scale, self.xmin)

    def y(self, value) -> str:
        # svg y grows downward
        return _fmt(self.ymax - Fraction(value), self.scale, Fraction(0))

    def line(self, a, b, stroke="#1f3d7a", width="1.5"):
        self.elements.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>'
            % (self.x(a[0]), self.y(a[1]), self.x(b[0]), self.y(b[1]), stroke, width)
        )

    def dot(self, p, radius="3", fill="#b02a2a"):
        self.elements.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
            % (self.x(p[0]), self.y(p[1]), radius, fill)
        )

    def label(self, p, text, dx="4", dy="-4"):
        self.elements.append(
            '<text x="%s" y="%s" dx="%s" dy="%s" font-size="11" '
            'font-family="monospace" fill="#333333">%s</text>'
            % (self.x(p[0]), self.y(p[1]), dx, dy, text)
        )

    def polygon(self, corners, fill="none", stroke="#555555"):
        pts = " ".join("%s,%s" % (self.x(c[0]), self.y(c[1])) for c in corners)
        self.elements.append(
            '<polygon points="%s" fill="%s" stroke="%s" stroke-width="1"/>'
            % (pts, fill, stroke)
        )

    def svg(self, x_offset=0) -> str:
        body = "\n".join("  " + e for e in self.elements)
        return (
            '<g transform="translate(%d,0)">\n%s\n</g>' % (x_offset, body),
            self.height_f,
        )


def _clip_ray(origin, direction: Vec, xmin, xmax, ymin, ymax):
    """Endpoint of the ray clipped to the viewport rectangle."""
    best: Optional[Fraction] = None
    ox, oy = Fraction(origin[0]), Fraction(origin[1])
    dx, dy = direction
    for bound, coord, delta in ((xmin, ox, dx), (xmax, ox, dx), (ymin, oy, dy), (ymax, oy, dy)):
        if delta == 0:
            continue
        t = (Fraction(bound) - coord) / delta
        if t > 0:
            inter_x = ox + t * dx
            inter_y = oy + t * dy
            if xmin <= inter_x <= xmax and ymin <= inter_y <= ymax:
                if best is None or t > best:
                    best = t
    if best is None:
        best = Fraction(1)
    return (ox + best * dx, oy + best * dy)


def curve_extent(curve: TropicalCurve, extra_points=()):
    xs = [p[0] for p in curve.positions.values()]
    ys = [p[1] for p in curve.positions.values()]
    for p in extra_points:
        xs.append(Fraction(p[0]))
        ys.append(Fraction(p[1]))
    return min(xs), max(xs), min(ys), max(ys)


def draw_curve(
    curve: TropicalCurve,
    marked_points: Sequence = (),
    width: int = 420,
) -> Tuple[str, Fraction]:
    xmin, xmax, ymin, ymax = curve_extent(curve, marked_points)
    canvas = _Canvas(xmin, xmax, ymin, ymax, width=width)
    for i, (tail, head) in enumerate(curve.graph.bounded_edges):
        a, b = curve.positions[tail], curve.positions[head]
        canvas.line(a, b)
        w = curve.weight("b%d" % i)
        if w > 1:
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            canvas.label(mid, "w=%d" % w)
    for i, (vertex, direction) in enumerate(curve.graph.unbounded_edges):
        a = curve.positions[vertex]
        b = _clip_ray(a, direction, canvas.xmin, canvas.xmax, canvas.ymin, canvas.ymax)
        canvas.line(a, b)
        w = curve.weight("u%d" % i)
        if w > 1:
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            canvas.label(mid, "w=%d" % w)
    for p in marked_points:
        canvas.dot(p)
    return canvas.svg()


def dual_subdivision_cells(curve: TropicalCurve):
    """Cells of the Newton-polygon subdivision dual to the curve image.

    Trivalent vertices give triangles, transverse crossings parallelograms;
    cells are glued by walking the image graph and translated so the lowest
    corner sits at the origin.
    """
    # nodes: curve vertices and crossings, keyed by edge pair with the
    # crossing's parameter on each edge
    crossings = {(e1, e2): (t1, t2) for e1, e2, t1, t2 in plane_crossings(curve)}
    weighted = {}
    for eid in curve.graph.edge_ids():
        w, u = curve.weight(eid), curve.edge_direction(eid)
        weighted[eid] = (w * u[0], w * u[1])

    # a cell per curve vertex, of its outward directions, and per crossing
    cells = {}
    for v in curve.graph.vertices:
        outward = []
        for eid in curve.graph.edges_at(v):
            u, w = curve.edge_direction(eid, at_vertex=v), curve.weight(eid)
            outward.append((w * u[0], w * u[1]))
        cells[("v", v)] = _cell(outward)
    for e1, e2 in crossings:
        (a, b), (c, d) = weighted[e1], weighted[e2]
        cells[("x", e1, e2)] = _cell([(a, b), (-a, -b), (c, d), (-c, -d)])

    # glue along image pieces with a BFS from an arbitrary cell
    if not cells:
        return []
    adjacency = _image_adjacency(curve, crossings, weighted)
    offsets = {}
    start_key = next(iter(sorted(cells)))
    offsets[start_key] = (0, 0)
    frontier = [start_key]
    while frontier:
        key = frontier.pop()
        for other, shared_vec in adjacency.get(key, []):
            if other in offsets:
                continue
            side_a = _find_side(cells[key][1], shared_vec)
            side_b = _find_side(cells[other][1], (-shared_vec[0], -shared_vec[1]))
            if side_a is None or side_b is None:
                continue
            # side_a runs p -> p + rot(vec); side_b runs q -> q - rot(vec)
            oa = offsets[key]
            pa = (side_a[0][0] + oa[0], side_a[0][1] + oa[1])
            target_end = (pa[0] + side_a[1][0] - side_a[0][0], pa[1] + side_a[1][1] - side_a[0][1])
            offsets[other] = (target_end[0] - side_b[0][0], target_end[1] - side_b[0][1])
            frontier.append(other)
    polygons = []
    minx = miny = None
    for key in sorted(offsets):
        off = offsets[key]
        poly = [(c[0] + off[0], c[1] + off[1]) for c in cells[key][0]]
        polygons.append(poly)
        for c in poly:
            if minx is None or c[0] < minx:
                minx = c[0]
            if miny is None or c[1] < miny:
                miny = c[1]
    return [
        [(c[0] - minx, c[1] - miny) for c in poly] for poly in polygons
    ]


def _image_adjacency(curve, crossings, weighted):
    """Neighbouring dual cells along each image piece, with the weighted
    direction of the piece as seen from the first cell."""
    adjacency: Dict[Tuple, List] = {}

    def add(a, b, vec):
        adjacency.setdefault(a, []).append((b, vec))
        adjacency.setdefault(b, []).append((a, (-vec[0], -vec[1])))

    for eid in curve.graph.edge_ids():
        tail, head, _ = curve.graph.edge(eid)
        stops = [(Fraction(0), ("v", tail))]
        for (e1, e2), (t1, t2) in crossings.items():
            if eid in (e1, e2):
                stops.append((t1 if eid == e1 else t2, ("x", e1, e2)))
        if head is not None:
            stops.append((Fraction(1), ("v", head)))
        stops.sort(key=lambda s: s[0])
        for (_, a), (_, b) in zip(stops, stops[1:]):
            add(a, b, weighted[eid])
    return adjacency


def _clockwise(v: Vec) -> Vec:
    return (v[1], -v[0])


def _cell(vecs: Sequence[Vec]):
    """(corners, sides) of the polygon whose sides are the weighted
    vectors turned clockwise, walked in angle order from the origin; each
    side is a (start, end) pair."""
    corners = [(0, 0)]
    sides = []
    for vec in sorted(vecs, key=angle_key):
        s = _clockwise(vec)
        start = corners[-1]
        corners.append((start[0] + s[0], start[1] + s[1]))
        sides.append((start, corners[-1]))
    corners.pop()
    return corners, sides


def _find_side(sides, vec):
    """The side of a cell that runs along ``vec`` turned clockwise."""
    target = _clockwise(vec)
    for start, end in sides:
        if (end[0] - start[0], end[1] - start[1]) == target:
            return (start, end)
    return None


def render_curves(
    curves: Sequence[TropicalCurve],
    marked_points: Sequence = (),
    dual: bool = False,
    width: int = 420,
) -> str:
    """Standalone SVG document with one row per curve; the dual subdivision
    is drawn in a second column when requested."""
    rows = []
    total_height = Fraction(0)
    total_width = width if not dual else 2 * width + 40
    for curve in curves:
        group, height = draw_curve(curve, marked_points, width=width)
        row_height = height
        parts = [group]
        if dual:
            polys = dual_subdivision_cells(curve)
            if polys:
                xs = [c[0] for poly in polys for c in poly]
                ys = [c[1] for poly in polys for c in poly]
                canvas = _Canvas(
                    Fraction(min(xs)), Fraction(max(xs)), Fraction(min(ys)), Fraction(max(ys)),
                    width=width,
                )
                for poly in polys:
                    canvas.polygon(poly, fill="#eef2fa")
                dual_group, dual_height = canvas.svg(x_offset=width + 40)
                parts.append(dual_group)
                if dual_height > row_height:
                    row_height = dual_height
        rows.append((parts, row_height))
        total_height += row_height + 20
    body_parts = []
    y_cursor = Fraction(10)
    for parts, row_height in rows:
        inner = "\n".join(parts)
        body_parts.append(
            '<g transform="translate(10,%s)">\n%s\n</g>'
            % (_fmt(y_cursor, Fraction(1), Fraction(0)), inner)
        )
        y_cursor += row_height + 20
    height_attr = _fmt(total_height + 20, Fraction(1), Fraction(0))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%s" viewBox="0 0 %d %s">\n'
        '<rect width="100%%" height="100%%" fill="white"/>\n'
        "%s\n</svg>\n"
        % (total_width + 20, height_attr, total_width + 20, height_attr, "\n".join(body_parts))
    )
