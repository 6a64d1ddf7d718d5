"""Independent oracles for plane enumerative totals.

Two deliberately separate routes to the same numbers as the curve
enumeration: the degree-recursion for complex counts, and Mikhalkin's
lattice paths over the degree-d triangle, whose dual subdivisions count
when their dual curve is a tree, with complex and Welschinger
multiplicities read off the cells.  Neither shares code with the normative
enumeration pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


def kontsevich_number(d: int) -> int:
    """Number of rational plane curves of degree d through 3d-1 points."""
    if d < 1:
        raise ValueError("degree must be positive")
    memo = {1: 1}

    def n(k: int) -> int:
        if k in memo:
            return memo[k]
        total = 0
        for a in range(1, k):
            b = k - a
            total += (
                n(a)
                * n(b)
                * a * a * b
                * (b * comb(3 * k - 4, 3 * a - 2) - a * comb(3 * k - 4, 3 * a - 1))
            )
        memo[k] = total
        return total

    return n(d)


# --- lattice path oracle -------------------------------------------------

Cell = Tuple[str, Tuple[Tuple[int, int], ...]]  # ("t", corners) / ("p", corners)


def _triangle_points(d: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class _PathProblem:
    """Degree-d triangle with a generic linear order on its lattice points.

    ``direction`` pairs the order with a point configuration: the dual order
    of the regions crossed by a line with that direction.  The two boundary
    chains from the minimal to the maximal lattice point are kept as sets of
    triangle sides; left path bends fill the clockwise side.
    """

    d: int
    direction: Tuple[int, int]
    start: Tuple[int, int]
    end: Tuple[int, int]
    left_sides: Tuple[str, ...]
    right_sides: Tuple[str, ...]

    def lam(self, p: Tuple[int, int]) -> int:
        return self.direction[0] * p[0] + self.direction[1] * p[1]


def _side_of(d: int, edge) -> Optional[str]:
    """The side of the degree-d triangle that holds the edge, if any."""
    (ax, ay), (bx, by) = edge
    if ax == 0 and bx == 0:
        return "x0"
    if ay == 0 and by == 0:
        return "y0"
    if ax + ay == d and bx + by == d:
        return "hyp"
    return None


def _make_problem(d: int, direction: Tuple[int, int]) -> _PathProblem:
    pts = _triangle_points(d)
    values = {}
    for p in pts:
        v = direction[0] * p[0] + direction[1] * p[1]
        if v in values:
            raise ValueError("direction %s is not generic for degree %d" % (direction, d))
        values[v] = p
    start = values[min(values)]
    end = values[max(values)]
    corners_ccw = [(0, 0), (d, 0), (0, d)]

    def chain(corners) -> Tuple[str, ...]:
        # the sides met walking the corners in the given cyclic order from
        # start's to end's; for a generic direction both are corners
        i = corners.index(start)
        walk = [corners[(i + k) % 3] for k in range((corners.index(end) - i) % 3 + 1)]
        return tuple(_side_of(d, edge) for edge in zip(walk, walk[1:]))

    # left turns (positive cross) bend toward the clockwise chain
    return _PathProblem(
        d=d,
        direction=direction,
        start=start,
        end=end,
        left_sides=chain(corners_ccw[::-1]),
        right_sides=chain(corners_ccw),
    )


def _on_chain(problem: _PathProblem, sides: Tuple[str, ...], a, b) -> bool:
    s = _side_of(problem.d, (a, b))
    return s is not None and s in sides


def _paths(problem: _PathProblem) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Strictly lambda-increasing lattice paths from the minimal to the
    maximal lattice point with exactly 3d - 1 steps inside the triangle."""
    d = problem.d
    points = sorted(_triangle_points(d), key=problem.lam)
    start, end = problem.start, problem.end
    steps = 3 * d - 1
    order = {p: i for i, p in enumerate(points)}

    def extend(path: List[Tuple[int, int]], remaining: int) -> Iterator:
        last = path[-1]
        if remaining == 0:
            if last == end:
                yield tuple(path)
            return
        for p in points[order[last] + 1 :]:
            if p == end and remaining > 1:
                continue
            # enough points left to finish?
            if len(points) - order[p] - 1 < remaining - 1:
                continue
            path.append(p)
            yield from extend(path, remaining - 1)
            path.pop()

    yield from extend([start], steps)


def _subdivisions(
    problem: _PathProblem, path: Tuple[Tuple[int, int], ...], side: int, memo: Dict
) -> List[Tuple[Cell, ...]]:
    """All subdivisions of the region between the path and the boundary.

    side +1: the region filled by left bends (positive cross products);
    side -1: the other one.  Each subdivision is the multiset of
    triangle/parallelogram cells cut off by the standard first-bend
    reduction.  A cell with a boundary edge of lattice length >= 2 is never
    cut off: it would be dual to a multiple unbounded edge, which gives a
    curve of the wrong degree.  The rule looks at single cells, so pruning
    here drops exactly the subdivisions that hold such a cell, and leaves
    every unbounded end the weight 1 that the Welschinger rule needs.
    """
    d = problem.d
    key = (path, side)
    if key in memo:
        return memo[key]
    sides = problem.left_sides if side == 1 else problem.right_sides
    if all(_on_chain(problem, sides, a, b) for a, b in zip(path, path[1:])):
        memo[key] = [()]
        return [()]
    pivot = None
    for i in range(1, len(path) - 1):
        turn = _cross(
            (path[i][0] - path[i - 1][0], path[i][1] - path[i - 1][1]),
            (path[i + 1][0] - path[i][0], path[i + 1][1] - path[i][1]),
        )
        if side * turn > 0:
            pivot = i
            break
    if pivot is None:
        memo[key] = []
        return []
    a, b, c = path[pivot - 1], path[pivot], path[pivot + 1]
    results: List[Tuple[Cell, ...]] = []
    shortcut = path[:pivot] + path[pivot + 1 :]
    tri: Cell = ("t", (a, b, c))
    if not _cell_geometry(d, tri).multiple_boundary_edge:
        for sub in _subdivisions(problem, shortcut, side, memo):
            results.append(sub + (tri,))
    w = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
    par: Cell = ("p", (a, b, c, w))
    inside = 0 <= w[0] and 0 <= w[1] and w[0] + w[1] <= d
    if inside and not _cell_geometry(d, par).multiple_boundary_edge:
        replaced = path[:pivot] + (w,) + path[pivot + 1 :]
        for sub in _subdivisions(problem, replaced, side, memo):
            results.append(sub + (par,))
    memo[key] = results
    return results


def _cell_edges(cell: Cell) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    corners = cell[1]
    return [tuple(sorted((corners[i], corners[(i + 1) % len(corners)]))) for i in range(len(corners))]


def _lattice_length(edge) -> int:
    (ax, ay), (bx, by) = edge
    return gcd(abs(bx - ax), abs(by - ay))


class _CellGeometry(NamedTuple):
    edges: Tuple  # (edge, lies on the boundary, lattice length) per side
    twice_area: int
    multiple_boundary_edge: bool  # a boundary edge of lattice length >= 2
    odd_interior: bool  # an odd number of interior lattice points


@lru_cache(maxsize=None)
def _cell_geometry(d: int, cell: Cell) -> _CellGeometry:
    """The geometry of one cell of a subdivision of the degree-d triangle."""
    a, b, c = cell[1][:3]
    twice_area = abs(_cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1])))
    if cell[0] == "p":
        twice_area *= 2
    edges = tuple((e, _side_of(d, e) is not None, _lattice_length(e)) for e in _cell_edges(cell))
    boundary = sum(length for _, _, length in edges)
    return _CellGeometry(
        edges,
        twice_area,
        any(on_boundary and length != 1 for _, on_boundary, length in edges),
        (twice_area - boundary + 2) // 2 % 2 == 1,  # Pick's theorem
    )


def _subdivision_multiplicities(d: int, cells: Sequence[Cell]) -> Tuple[int, int]:
    """(complex, Welschinger) multiplicity of one dual subdivision, once its
    cells are checked to tile the degree-d triangle: their areas add up, and
    a boundary edge lies in one cell and an interior edge in two.

    The dual curve is cut into pieces, the vertex of a triangle and the two
    strands that cross in a parallelogram (sides 0 and 2, sides 1 and 3),
    and an interior edge joins the pieces on its two sides.  Each end of a
    curve edge is a triangle side or a boundary edge, so with T triangles
    and B boundary edges a connected curve has T vertices and (3T - B) / 2
    bounded edges: it is a tree exactly when T == B - 2, and otherwise
    counts 0.  An edge of even lattice length makes W zero: as
    ``_subdivisions`` builds no multiple boundary edge, it lies on a
    bounded edge of even weight.
    """
    sides: Dict[Tuple, List[int]] = {}  # (edge, on the boundary, length) -> pieces
    twice_area = 0
    triangles = 0
    pieces = 0
    complex_mult = 1
    odd = 0  # triangles with an odd number of interior points
    for cell in cells:
        g = _cell_geometry(d, cell)
        twice_area += g.twice_area
        if cell[0] == "t":
            side_pieces = (pieces, pieces, pieces)
            pieces += 1
            triangles += 1
            complex_mult *= g.twice_area
            odd += g.odd_interior
        else:
            side_pieces = (pieces, pieces + 1, pieces, pieces + 1)
            pieces += 2
        for side, piece in zip(g.edges, side_pieces):
            sides.setdefault(side, []).append(piece)
    if twice_area != d * d:
        raise AssertionError("subdivision does not tile the triangle")
    joined: List[List[int]] = [[] for _ in range(pieces)]
    boundary = 0
    even = False
    for (e, on_boundary, length), held in sides.items():
        if len(held) != 2 - on_boundary:
            raise AssertionError("edge %s lies in %d cells" % (e, len(held)))
        boundary += on_boundary
        even |= length % 2 == 0
        if not on_boundary:
            a, b = held
            joined[a].append(b)
            joined[b].append(a)
    reached = {0}
    frontier = [0]
    while frontier:
        for piece in joined[frontier.pop()]:
            if piece not in reached:
                reached.add(piece)
                frontier.append(piece)
    if triangles != boundary - 2 or len(reached) != pieces:
        return 0, 0
    return complex_mult, 0 if even else (-1) ** odd


def _direction_from_points(points) -> Tuple[int, int]:
    p0 = points[0]
    p1 = points[1]
    dx = Fraction(p1[0]) - Fraction(p0[0])
    dy = Fraction(p1[1]) - Fraction(p0[1])
    denom = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    ix, iy = int(dx * denom), int(dy * denom)
    g = gcd(abs(ix), abs(iy))
    return ix // g, iy // g


def path_problem(d: int, points=None) -> _PathProblem:
    """The lattice-path problem for degree d, with the order functional
    taken from the direction of the (collinear) point configuration."""
    if d < 1:
        raise ValueError("degree must be positive")
    if points is not None:
        if len(points) != 3 * d - 1:
            raise ValueError("a degree-%d count needs %d points" % (d, 3 * d - 1))
        first: Dict[Tuple, int] = {}
        for i, p in enumerate(points):
            j = first.setdefault(tuple(p), i)
            if j != i:
                raise ValueError("points %d and %d coincide at (%s, %s)" % (j, i, p[0], p[1]))
        direction = _direction_from_points(list(points))
    else:
        direction = (101, 157)
    return _make_problem(d, direction)


def lattice_path_subdivisions(
    d: int, points=None
) -> Iterator[Tuple[Tuple[Cell, ...], Tuple[Tuple[int, int], ...], int, int]]:
    """(cells, path, complex multiplicity, Welschinger multiplicity) of
    every dual subdivision of a lambda-increasing lattice path with nonzero
    complex multiplicity.  The path is its lattice points in order.

    With the point configuration passed, in Mikhalkin position these are
    the subdivisions dual to the curves through the points, one per curve
    (Mikhalkin, JAMS 2005, Theorem 2), and the i-th step of the path is
    dual to the edge through the i-th point.
    """
    problem = path_problem(d, points)
    memo: Dict = {}
    for path in _paths(problem):
        left = _subdivisions(problem, path, 1, memo)
        # a path with no left subdivision has no pair: leave its right unbuilt
        right = _subdivisions(problem, path, -1, memo) if left else []
        for sub_l in left:
            for sub_r in right:
                cells = sub_l + sub_r
                cm, wm = _subdivision_multiplicities(d, cells)
                if cm:
                    yield cells, path, cm, wm


def lattice_path_oracle(d: int, points=None) -> Tuple[int, int]:
    """(complex total, Welschinger total) for degree-d plane curves via
    lambda-increasing lattice paths and their dual subdivisions.

    The totals do not depend on which generic order functional is used;
    passing the point configuration fixes the functional that makes the
    per-path data match the curves through those points.
    """
    complex_total = 0
    welschinger_total = 0
    for _, _, cm, wm in lattice_path_subdivisions(d, points):
        complex_total += cm
        welschinger_total += wm
    return complex_total, welschinger_total
