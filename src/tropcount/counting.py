"""Index arithmetic and the global tropical count formulas.

The complex count of a matched curve is the order of the cokernel of its
lattice map; the real count replaces it by the twisted real index, which is
2 to the number of even invariant factors when the sign class of the real
constraint data lies in the mod-2 image, and 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod
from typing import Dict, Optional, Sequence, Tuple

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
from .tropical import TropicalCurve, vertex_multiplicities


class InfiniteCokernel(AssertionError):
    """The lattice map is not of finite index (zero determinant).

    Every matched curve through generic points has a finite-index map, so
    this is an internal fault, not an input error.
    """


class CrossCheckError(AssertionError):
    """The lattice-index route disagrees with the vertex-multiplicity route."""


@dataclass(frozen=True)
class IndexBundle:
    """Complex index, real index, and (optionally) the twisted real index."""

    complex_index: int
    real_index: int
    twisted_real: Optional[int]
    factors: Tuple[int, ...]


@dataclass(frozen=True)
class CurveRow:
    """Per-curve breakdown used in count reports."""

    curve_id: int
    total_weight_real: Optional[int] = None
    twisted_index: Optional[int] = None
    constraint_real_product: Optional[int] = None
    contribution_real: Optional[int] = None
    total_weight_complex: Optional[int] = None
    complex_index: Optional[int] = None
    constraint_complex_product: Optional[int] = None
    contribution_complex: Optional[int] = None
    welschinger_mult: Optional[int] = None


@dataclass(frozen=True)
class CountReport:
    rows: Tuple[CurveRow, ...]
    n_real_trop: Optional[int] = None
    n_trop: Optional[int] = None
    w_real_trop: Optional[int] = None


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
        complex_index=complex_index,
        real_index=2 ** evens,
        twisted_real=None,
        factors=snf.invariant_factors,
    )


def twisted_real_index(th: LatticeMapTh, base: IndexBundle, sigma: SignClass) -> IndexBundle:
    """Real index of the lattice map twisted by a sign class.

    ``base`` is ``real_index(th.matrix)``.  The twist is the real index when
    sigma lies in the mod-2 column space of the map, else zero; solvability
    over F2 is exactly solvability of the real gluing problem for the given
    sign data.
    """
    if len(sigma.bits) != th.matrix.rows:
        raise ValueError("sign class length does not match the lattice map")
    solvable = f2_solve(th.matrix, sigma.bits) is not None
    return replace(base, twisted_real=base.real_index if solvable else 0)


def total_real_weight(curve: TropicalCurve) -> int:
    """Product of w^R over bounded edges times the marked-edge weights;
    w^R(E) is 2 for even weight and 1 for odd weight."""
    evens = sum(curve.weight(eid) % 2 == 0 for eid in curve.graph.bounded_ids())
    return 2 ** evens * prod(curve.weight(eid) for eid in curve.graph.marked)


def total_complex_weight(curve: TropicalCurve) -> int:
    return prod(curve.weight(eid) for eid in curve.graph.bounded_ids() + curve.graph.marked)


def constraint_indices(
    th: LatticeMapTh, constraints: Sequence[AffineConstraint]
) -> Tuple[IndexBundle, ...]:
    """Lattice indices of the per-constraint inclusions at the marked edges."""
    return tuple(
        real_index(build_constraint_inclusion(u, c))
        for u, c in zip(th.marked_directions, constraints)
    )


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
) -> CountReport:
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
            vertex_product = prod(
                vertex_multiplicities(curve, v).mult for v in curve.graph.vertices
            )
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
        rows.append(
            CurveRow(
                curve_id=cid,
                total_weight_complex=weight,
                complex_index=bundle.complex_index,
                constraint_complex_product=a_product,
                contribution_complex=contribution,
            )
        )
        total += contribution
    return CountReport(rows=tuple(rows), n_trop=total)


def count_real(
    curves_with_marks: Sequence[Tuple[TropicalCurve, Tuple[str, ...]]],
    constraints: Sequence[AffineConstraint],
    points: RealPointConfig,
    sign_t: int,
) -> CountReport:
    """Real tropical count: total real weight times the twisted real index
    times the real indices of the constraint inclusions."""
    rows = []
    total = 0
    for cid, (curve, marks) in enumerate(curves_with_marks):
        lattice = curve_lattice(curve, constraints, marks)
        sigma = sigma_sign_class(curve, constraints, points, marks, sign_t, th=lattice.th)
        bundle = twisted_real_index(lattice.th, lattice.index, sigma)
        weight = total_real_weight(curve)
        a_product = prod(b.real_index for b in lattice.constraint_bundles)
        contribution = weight * bundle.twisted_real * a_product
        rows.append(
            CurveRow(
                curve_id=cid,
                total_weight_real=weight,
                twisted_index=bundle.twisted_real,
                constraint_real_product=a_product,
                contribution_real=contribution,
            )
        )
        total += contribution
    return CountReport(rows=tuple(rows), n_real_trop=total)


def merge_reports(
    complex_report: Optional[CountReport],
    real_report: Optional[CountReport],
    welschinger: Optional[Dict] = None,
) -> CountReport:
    """Combine per-curve rows from the complex/real/Welschinger routes."""
    by_id: Dict[int, Dict] = {}
    for report in (complex_report, real_report):
        if report is None:
            continue
        for row in report.rows:
            d = by_id.setdefault(row.curve_id, {})
            for key, value in row.__dict__.items():
                if key != "curve_id" and value is not None:
                    d[key] = value
    if welschinger:
        for cid, mult in welschinger.get("mults", {}).items():
            by_id.setdefault(cid, {})["welschinger_mult"] = mult
    rows = tuple(
        CurveRow(curve_id=cid, **fields) for cid, fields in sorted(by_id.items())
    )
    return CountReport(
        rows=rows,
        n_trop=complex_report.n_trop if complex_report else None,
        n_real_trop=real_report.n_real_trop if real_report else None,
        w_real_trop=welschinger.get("total") if welschinger else None,
    )
