"""Index arithmetic and the global tropical count formulas.

The complex count of a matched curve is the order of the cokernel of its
lattice map; the real count replaces it by the twisted real index, which is
2 to the number of even invariant factors when the sign class of the real
constraint data lies in the mod-2 image, and 0 otherwise.  ``count_complex``
and ``count_real`` each return one row per curve, in curve order, with
every field set and named as its key in the CLI's count JSON, and their
total.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, Sequence, Tuple

from .exact_lattice import IntMatrix, f2_solve, smith_normal_form
from .incidence import (
    AffineConstraint,
    LatticeMapTh,
    RealPointConfig,
    SignClass,
    build_constraint_inclusion,
    build_T_h,
    sigma_sign_class,
)
from .tropical import TropicalCurve, Vec, curve_mikhalkin_mults


class InfiniteCokernel(AssertionError):
    """The lattice map is not of finite index (zero determinant).

    Every matched curve through generic points has a finite-index map, so
    this is an internal fault, not an input error.
    """


class CrossCheckError(AssertionError):
    """The lattice-index route disagrees with the vertex-multiplicity route."""


@dataclass(frozen=True)
class IndexBundle:
    """Complex and real index of a finite-index lattice map, with its
    invariant factors."""

    complex_index: int
    real_index: int
    factors: Tuple[int, ...]


@dataclass(frozen=True)
class ComplexRow:
    """One curve's complex contribution and its factors."""

    total_weight_complex: int
    complex_index: int
    constraint_complex_product: int
    contribution_complex: int


@dataclass(frozen=True)
class RealRow:
    """One curve's real contribution and its factors."""

    total_weight_real: int
    twisted_index: int
    constraint_real_product: int
    contribution_real: int


@dataclass(frozen=True)
class ComplexReport:
    """One row per curve, in curve order, and their total N^trop."""

    rows: Tuple[ComplexRow, ...]
    n_trop: int


@dataclass(frozen=True)
class RealReport:
    """One row per curve, in curve order, and their total N^{R,trop}."""

    rows: Tuple[RealRow, ...]
    n_real_trop: int


def real_index(m: IntMatrix) -> IndexBundle:
    """Complex and real lattice indices of a finite-index inclusion."""
    if m.rows != m.cols:
        raise InfiniteCokernel("lattice map must be square for a finite index")
    det = m.det()
    if det == 0:
        raise InfiniteCokernel("lattice map has zero determinant")
    snf = smith_normal_form(m)
    complex_index = prod(snf.invariant_factors)
    if complex_index != abs(det):
        raise CrossCheckError(
            "invariant factor product %d != |det| %d" % (complex_index, abs(det))
        )
    evens = sum(1 for f in snf.invariant_factors if f % 2 == 0)
    return IndexBundle(
        complex_index=complex_index, real_index=2 ** evens, factors=snf.invariant_factors
    )


def twisted_real_index(th: LatticeMapTh, base: IndexBundle, sigma: SignClass) -> int:
    """Real index of the lattice map twisted by a sign class.

    ``base`` is ``real_index(th.matrix)``.  The twist is the real index when
    sigma lies in the mod-2 column space of the map, else zero; solvability
    over F2 is exactly solvability of the real gluing problem for the given
    sign data.
    """
    if len(sigma.bits) != th.matrix.rows:
        raise ValueError("sign class length does not match the lattice map")
    return base.real_index if f2_solve(th.matrix, sigma.bits) is not None else 0


def total_real_weight(curve: TropicalCurve) -> int:
    """Product of w^R over bounded edges times the marked-edge weights;
    w^R(E) is 2 for even weight and 1 for odd weight."""
    evens = sum(curve.weight(eid) % 2 == 0 for eid in curve.graph.bounded_ids())
    return 2 ** evens * prod(curve.weight(eid) for eid in curve.graph.marked)


def total_complex_weight(curve: TropicalCurve) -> int:
    return prod(curve.weight(eid) for eid in curve.graph.bounded_ids() + curve.graph.marked)


# (marked direction, constraint directions) -> the inclusion's IndexBundle.
# An inclusion reads only these two, so it is kept for the process; keyed on
# a base point, the memo would grow with every problem.
_inclusion_indices: Dict[Tuple[Vec, IntMatrix], IndexBundle] = {}


def constraint_indices(
    th: LatticeMapTh, constraints: Sequence[AffineConstraint]
) -> Tuple[IndexBundle, ...]:
    """Lattice indices of the per-constraint inclusions at the marked edges."""
    bundles = []
    for u, c in zip(th.marked_directions, constraints):
        key = (u, c.directions)
        bundle = _inclusion_indices.get(key)
        if bundle is None:
            bundle = _inclusion_indices[key] = real_index(build_constraint_inclusion(u, c))
        bundles.append(bundle)
    return tuple(bundles)


@dataclass(frozen=True)
class CurveLattice:
    """The sign-independent lattice data of a matched curve: its lattice
    map, the map's indices, and the indices of the constraint inclusions."""

    th: LatticeMapTh
    index: IndexBundle
    constraint_bundles: Tuple[IndexBundle, ...]


def curve_lattice(
    curve: TropicalCurve, constraints: Sequence[AffineConstraint], marks: Tuple[str, ...]
) -> CurveLattice:
    """The curve's lattice data, built once per (constraints, marks) and kept
    on the curve; only the sign class and its F2 solve depend on the signs."""
    key = (tuple(constraints), tuple(marks))
    record = curve.lattice_records.get(key)
    if record is None:
        th = build_T_h(curve, constraints, marks)
        record = CurveLattice(th, real_index(th.matrix), constraint_indices(th, constraints))
        curve.lattice_records[key] = record
    return record


def count_complex(
    curves_with_marks: Sequence[Tuple[TropicalCurve, Tuple[str, ...]]],
    constraints: Sequence[AffineConstraint],
) -> ComplexReport:
    """Complex tropical count: weights times lattice index times the
    per-constraint inclusion indices, summed over matched curves.

    For plane point constraints the per-curve contribution is cross-checked
    against the product of vertex multiplicities; a mismatch raises
    CrossCheckError with a diagnostic dump.
    """
    rows = []
    total = 0
    for cid, (curve, marks) in enumerate(curves_with_marks):
        lattice = curve_lattice(curve, constraints, marks)
        bundle = lattice.index
        weight = total_complex_weight(curve)
        a_product = prod(b.complex_index for b in lattice.constraint_bundles)
        contribution = weight * bundle.complex_index * a_product
        if curve.n == 2 and all(c.codim == 2 for c in constraints):
            vertex_product = curve_mikhalkin_mults(curve)[0]
            if contribution != vertex_product:
                raise CrossCheckError(
                    "curve %d: lattice route %d != vertex route %d "
                    "(weights %d, index %d, constraint product %d, factors %s)"
                    % (
                        cid,
                        contribution,
                        vertex_product,
                        weight,
                        bundle.complex_index,
                        a_product,
                        bundle.factors,
                    )
                )
        rows.append(ComplexRow(weight, bundle.complex_index, a_product, contribution))
        total += contribution
    return ComplexReport(rows=tuple(rows), n_trop=total)


def count_real(
    curves_with_marks: Sequence[Tuple[TropicalCurve, Tuple[str, ...]]],
    constraints: Sequence[AffineConstraint],
    points: RealPointConfig,
    sign_t: int,
) -> RealReport:
    """Real tropical count: total real weight times the twisted real index
    times the real indices of the constraint inclusions."""
    rows = []
    total = 0
    for curve, marks in curves_with_marks:
        lattice = curve_lattice(curve, constraints, marks)
        sigma = sigma_sign_class(lattice.th, constraints, points, sign_t)
        twisted = twisted_real_index(lattice.th, lattice.index, sigma)
        weight = total_real_weight(curve)
        a_product = prod(b.real_index for b in lattice.constraint_bundles)
        contribution = weight * twisted * a_product
        rows.append(RealRow(weight, twisted, a_product, contribution))
        total += contribution
    return RealReport(rows=tuple(rows), n_real_trop=total)

