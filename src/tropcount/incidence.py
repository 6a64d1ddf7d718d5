"""Affine constraints and the lattice map attached to a matched curve.

Builds the block matrix sending vertex positions to bounded-edge quotients
and constraint quotients, the per-constraint lattice inclusions, and the
sign classes of real constraint data.  The lattice map keeps its blocks as
the number of edge rows and one quotient projection per constraint; a sign
class is read in the coordinates of the map it is given.  Sign classes live
in F2 because the positive factor of R^x is divisible and vanishes against
finite cokernels; only the +-1 part of every real datum matters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact_lattice import (
    IntMatrix,
    quotient_basis,
    saturate,
    smith_normal_form,
    solve_unique_rational,
)
from .tropical import EdgeId, Point, TropicalCurve, Vec, as_point, point_str


class ConstraintMissed(ValueError):
    """A constraint meets no edge of the curve."""


class ConstraintOnVertex(ValueError):
    """A constraint passes through the image of a vertex."""


class AmbiguousConstraint(ValueError):
    """A constraint meets more than one edge; the configuration is not general."""


class NonIntegralBase(ValueError):
    """Sign classes need integral constraint base points; rescale first."""


@dataclass(frozen=True)
class AffineConstraint:
    """Affine subspace A = base + span(directions).

    The directions are replaced by a basis of their saturation, which is not
    canonical: two constraints with one span may hold different bases.
    """

    base: Point
    directions: IntMatrix

    def __post_init__(self):
        if self.directions.rows != len(self.base):
            raise ValueError("direction columns must live in the ambient space")
        sat = saturate(self.directions, self.directions.rows)
        if sat.cols != self.directions.cols:
            raise ValueError("direction columns must be linearly independent")
        object.__setattr__(self, "directions", sat)

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def codim(self) -> int:
        return self.n - self.directions.cols

    @staticmethod
    def point(coords: Sequence) -> "AffineConstraint":
        return AffineConstraint.through(coords, ())

    @staticmethod
    def through(coords: Sequence, directions: Sequence[Sequence[int]]) -> "AffineConstraint":
        base = as_point(coords)
        return AffineConstraint(
            base=base, directions=IntMatrix.from_columns(directions, rows=len(base))
        )


@dataclass(frozen=True)
class RealPointConfig:
    """Per-constraint sign vectors of real points in the big torus.

    Magnitudes are irrelevant for every formula here: the positive reals are
    divisible.
    """

    signs: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        for s in self.signs:
            if any(x not in (1, -1) for x in s):
                raise ValueError("signs must be +-1 in every coordinate")

    @staticmethod
    def all_positive(ell: int, n: int) -> "RealPointConfig":
        return RealPointConfig(signs=tuple(tuple(1 for _ in range(n)) for _ in range(ell)))

    @staticmethod
    def from_strings(strings: Sequence[str]) -> "RealPointConfig":
        table = {"+": 1, "-": -1}
        try:
            signs = tuple(tuple(table[ch] for ch in s) for s in strings)
        except KeyError:
            raise ValueError("sign strings may only contain '+' and '-'")
        return RealPointConfig(signs=signs)


@dataclass(frozen=True)
class SignClass:
    """Element of (Z/2)^k in the coordinates of a stated quotient basis."""

    bits: Tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")


@dataclass(frozen=True)
class LatticeMapTh:
    """The lattice map from vertex positions to edge and constraint quotients.

    Rows come in blocks: ``edge_rows`` rows, n-1 per bounded edge, then
    codim-1 rows per constraint.  ``constraint_projections`` holds the
    projection behind each constraint block, in constraint order, so sign
    classes can be expressed in matching coordinates; their edge blocks are
    zero.
    """

    matrix: IntMatrix
    edge_rows: int
    constraint_projections: Tuple[IntMatrix, ...]
    vertex_order: Tuple[str, ...]
    marked_directions: Tuple[Vec, ...]


def _constraint_meets_edge(curve: TropicalCurve, eid: EdgeId, constraint: AffineConstraint):
    """Whether the edge image meets the constraint, in any ambient dimension.

    Solves the joint affine system; the edge parameter it pins must lie in
    the edge's range.  A point constraint has no direction columns, and
    the system is then the edge's line through the point.
    """
    a, e, bounded = curve.edge_segment(eid)
    # a + t e == base + L s: columns (t, s_1, ..., s_k)
    k = constraint.directions.cols
    rows = [[e[i]] + [-constraint.directions.at(i, j) for j in range(k)] for i in range(curve.n)]
    solution = solve_unique_rational(rows, [b - x for b, x in zip(constraint.base, a)])
    # None also when e lies in the constraint span: such an edge meets the
    # constraint along its whole line, vertex included, and match_marked_edges
    # rejects a vertex on a constraint before it tests any edge.
    if solution is None:
        return False
    t = solution[0]
    return t >= 0 and (not bounded or t <= 1)


def match_marked_edges(
    curve: TropicalCurve, constraints: Sequence[AffineConstraint]
) -> Tuple[EdgeId, ...]:
    """The unique edge meeting each constraint.

    Raises ConstraintOnVertex when a constraint passes through a vertex
    image, ConstraintMissed when it meets no edge, AmbiguousConstraint when
    it meets several (the configuration is then not general).
    """
    marks: List[EdgeId] = []
    for j, constraint in enumerate(constraints):
        for v in curve.graph.vertices:
            if _vertex_on_constraint(curve.positions[v], constraint):
                raise ConstraintOnVertex(
                    "%s meets vertex %s at %s"
                    % (_describe(j, constraint), v, point_str(curve.positions[v]))
                )
        hits = [
            eid for eid in curve.graph.edge_ids() if _constraint_meets_edge(curve, eid, constraint)
        ]
        if not hits:
            raise ConstraintMissed("%s meets no edge" % _describe(j, constraint))
        if len(hits) > 1:
            raise AmbiguousConstraint(
                "%s meets edges %s" % (_describe(j, constraint), ", ".join(hits))
            )
        marks.append(hits[0])
    return tuple(marks)


def _describe(j: int, constraint: AffineConstraint) -> str:
    if constraint.codim == constraint.n:
        return "point %d %s" % (j, point_str(constraint.base))
    return "constraint %d through %s" % (j, point_str(constraint.base))


def _vertex_on_constraint(position: Point, constraint: AffineConstraint) -> bool:
    diff = [p - b for p, b in zip(position, constraint.base)]
    # the directions are independent, so diff is in their span iff the
    # system has a (then unique) solution; with no directions, iff diff == 0
    return solve_unique_rational(constraint.directions.to_rows(), diff) is not None


def _oriented_endpoints(curve: TropicalCurve, eid: EdgeId) -> Tuple[str, Optional[str]]:
    """(tail, head) with the tail at the lexicographically smaller position."""
    tail, head, _ = curve.graph.edge(eid)
    if head is not None and curve.positions[head] < curve.positions[tail]:
        return head, tail
    return tail, head


def marked_direction(curve: TropicalCurve, eid: EdgeId) -> Tuple[str, Vec]:
    """Tail vertex and primitive direction of a marked edge, tail first."""
    tail, head = _oriented_endpoints(curve, eid)
    return tail, curve.edge_direction(eid, at_vertex=tail)


def _generator_columns(u: Vec, constraint: AffineConstraint) -> Tuple[Vec, ...]:
    """u followed by the constraint's directions: the generators of
    Zu + L(A)."""
    directions = constraint.directions
    return (u,) + tuple(directions.column(c) for c in range(directions.cols))


# The blocks of T_h depend only on their generator columns, an edge direction
# and for a marked edge its constraint's directions, never on the curve or the
# points, so each is built once per process.  Quotient bases are not canonical: the memo keeps
# the exact calls that built them, and T_h stays the same matrix.
@functools.lru_cache(maxsize=None)
def _projection(columns: Tuple[Vec, ...]) -> IntMatrix:
    """Projection of Z^n onto its quotient by the saturation of the span of
    ``columns``: the block of a bounded edge of primitive direction u for
    ``(u,)``, of a marked edge for u and its constraint's directions."""
    n = len(columns[0])
    return quotient_basis(IntMatrix.from_columns(columns, rows=n), n)


def build_T_h(
    curve: TropicalCurve,
    constraints: Sequence[AffineConstraint],
    marks: Sequence[EdgeId],
) -> LatticeMapTh:
    """Assemble the lattice map from vertex positions to the edge and
    constraint quotient blocks."""
    n = curve.n
    vertex_order = tuple(sorted(curve.graph.vertices))
    col_of_vertex = {v: i for i, v in enumerate(vertex_order)}
    ncols = len(vertex_order) * n

    rows: List[List[int]] = []
    for eid in curve.graph.bounded_ids():
        tail, head = _oriented_endpoints(curve, eid)
        projection = _projection((curve.edge_direction(eid, at_vertex=tail),))
        for r in range(projection.rows):
            row = [0] * ncols
            for k in range(n):
                coeff = projection.at(r, k)
                row[col_of_vertex[head] * n + k] += coeff
                row[col_of_vertex[tail] * n + k] -= coeff
            rows.append(row)
    edge_rows = len(rows)

    projections: List[IntMatrix] = []
    marked_dirs: List[Vec] = []
    for eid, constraint in zip(marks, constraints):
        tail, u = marked_direction(curve, eid)
        marked_dirs.append(u)
        projection = _projection(_generator_columns(u, constraint))
        projections.append(projection)
        for r in range(projection.rows):
            row = [0] * ncols
            for k in range(n):
                row[col_of_vertex[tail] * n + k] += projection.at(r, k)
            rows.append(row)

    return LatticeMapTh(
        matrix=IntMatrix.from_rows(rows, cols=ncols),
        edge_rows=edge_rows,
        constraint_projections=tuple(projections),
        vertex_order=vertex_order,
        marked_directions=tuple(marked_dirs),
    )


def build_constraint_inclusion(u: Vec, constraint: AffineConstraint) -> IntMatrix:
    """Matrix of Zu + (L(A) cap M) inside the saturation of Qu + L(A).

    With ``left @ G @ right == D`` for the generator columns G, the first
    rank rows of the unimodular ``left`` are coordinates on the saturation,
    so ``left @ G`` cut to them expresses G in a basis of it; its Smith
    normal form drives the complex and real indices of the marked-point
    count.
    """
    generators = IntMatrix.from_columns(_generator_columns(u, constraint), rows=len(u))
    snf = smith_normal_form(generators)
    head = [snf.left_transform.row(i) for i in range(snf.rank)]
    return IntMatrix.from_rows(head, cols=len(u)) @ generators


def sigma_sign_class(
    th: LatticeMapTh,
    constraints: Sequence[AffineConstraint],
    points: RealPointConfig,
    sign_t: int,
) -> SignClass:
    """Sign class of the twisted real gluing problem, in the coordinates of
    the lattice map ``th`` built for these constraints.

    Edge blocks are zero; the block of constraint j is the mod-2 projection
    of the coordinatewise sign exponents of s_j * sign_t^(a_j), where a_j is
    the integral base point of A_j.
    """
    if sign_t not in (1, -1):
        raise ValueError("sign_t must be +-1")
    if len(points.signs) != len(constraints):
        raise ValueError("one sign vector per constraint required")
    bits = [0] * th.edge_rows
    for j, (constraint, projection) in enumerate(
        zip(constraints, th.constraint_projections, strict=True)
    ):
        signs = points.signs[j]
        if len(signs) != constraint.n:
            raise ValueError("constraint %d needs %d signs, not %d" % (j, constraint.n, len(signs)))
        exponents = []
        for k, coord in enumerate(constraint.base):
            a = Fraction(coord)
            if a.denominator != 1:
                raise NonIntegralBase(
                    "constraint %d base point is not integral; rescale first" % j
                )
            sign = signs[k] * (sign_t ** (int(a) % 2))
            exponents.append(0 if sign > 0 else 1)
        bits.extend(x & 1 for x in projection.apply(exponents))
    return SignClass(bits=tuple(bits))
