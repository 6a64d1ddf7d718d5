"""Welschinger aggregation and the node census of real log lifts.

Every node of a deformed real curve is classified as elliptic, hyperbolic,
or one of a conjugate imaginary pair.  Nodes come from three sources:
smoothing a bounded edge of weight mu contributes mu-1 nodes whose types
depend on the chosen real root of unity and the sign of t, crossings of
distinct edges contribute hyperbolic nodes, and the interior lattice points
of a vertex's dual triangle contribute nodes whose real members are all
elliptic.  Summing signs over all lifts reproduces the tropical Welschinger
multiplicity of the curve; the census is kept as an independent cross-check
of that identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .tropical import (
    EdgeId,
    TropicalCurve,
    curve_welschinger_mult,
    plane_crossings,
    vertex_multiplicities,
)


class InvalidZeta(ValueError):
    """An odd-weight edge admits only the trivial real root of unity."""


@dataclass(frozen=True)
class NodeCensus:
    elliptic: int
    hyperbolic: int
    imaginary_pairs: int

    def __post_init__(self):
        if min(self.elliptic, self.hyperbolic, self.imaginary_pairs) < 0:
            raise ValueError("census counts must be nonnegative")

    def total(self) -> int:
        return self.elliptic + self.hyperbolic + 2 * self.imaginary_pairs


@dataclass(frozen=True)
class LiftAssignment:
    """Choice of real root of unity for every even-weight bounded edge."""

    zeta: Mapping[EdgeId, int]

    def __post_init__(self):
        if any(z not in (1, -1) for z in self.zeta.values()):
            raise ValueError("zeta values must be +-1")


def edge_census(mu: int, zeta: int, sign_t_pow: int) -> NodeCensus:
    """Node types created by smoothing a weight-mu node with root zeta.

    ``sign_t_pow`` is the sign of t^(e/mu).  Odd mu forces zeta == 1 and
    gives mu-1 elliptic nodes; even mu gives all-elliptic when zeta and
    t^(e/mu) share a sign, else one hyperbolic node and (mu-2)/2 imaginary
    pairs.
    """
    if mu < 1:
        raise ValueError("weights are positive")
    if zeta not in (1, -1) or sign_t_pow not in (1, -1):
        raise ValueError("zeta and sign_t_pow must be +-1")
    if mu % 2 == 1:
        if zeta == -1:
            raise InvalidZeta("odd weight admits only zeta == 1")
        return NodeCensus(elliptic=mu - 1, hyperbolic=0, imaginary_pairs=0)
    if zeta * sign_t_pow > 0:
        return NodeCensus(elliptic=mu - 1, hyperbolic=0, imaginary_pairs=0)
    return NodeCensus(elliptic=0, hyperbolic=1, imaginary_pairs=(mu - 2) // 2)


def crossing_count(curve: TropicalCurve) -> int:
    """Transverse crossings between images of non-adjacent edges.

    Each crossing is a hyperbolic node of the image curve.  An edge image
    passing through a vertex image raises NonGenericCrossing.
    """
    return sum(1 for _ in plane_crossings(curve))


def lift_sign(curve: TropicalCurve, lift: LiftAssignment, sign_t: int) -> int:
    """Welschinger sign of one real log lift.

    (-1) to the number of elliptic nodes: interior dual-triangle nodes
    contribute their count's parity, each bounded edge contributes its
    census under the lift's root of unity, crossings are hyperbolic and
    contribute nothing.  Edge lengths enter only through the parity of
    e/mu, computed after rescaling by the curve's ``goodness_scale``.
    """
    if sign_t not in (1, -1):
        raise ValueError("sign_t must be +-1")
    if curve.n != 2:
        raise ValueError("lift signs are defined for plane curves")
    bounded = curve.graph.bounded_ids()
    even_edges = {eid for eid in bounded if curve.weight(eid) % 2 == 0}
    if set(lift.zeta) != even_edges:
        extra = set(lift.zeta) - even_edges
        stray = sorted(map(str, extra - set(bounded)))
        if stray:
            raise ValueError("lift key %s is not a bounded edge of the curve" % ", ".join(stray))
        for eid in extra:
            if lift.zeta[eid] == -1:
                raise InvalidZeta("edge %s has odd weight, zeta must be 1" % eid)
        if even_edges - set(lift.zeta):
            raise ValueError("lift must fix zeta for every even bounded edge")
    s = curve.goodness_scale
    elliptic = 0
    for v in curve.graph.vertices:
        elliptic += vertex_multiplicities(curve, v).triangle.interior_points
    for i, eid in enumerate(curve.graph.bounded_ids()):
        mu = curve.weight(eid)
        e = curve.lattice_length(i) * s
        steps = e / mu
        if steps.denominator != 1:
            raise AssertionError("rescaling failed to make e/mu integral")
        sign_t_pow = sign_t if int(steps) % 2 else 1
        zeta = lift.zeta.get(eid, 1)
        elliptic += edge_census(mu, zeta, sign_t_pow).elliptic
    return -1 if elliptic % 2 else 1


def census_sum(curve: TropicalCurve, sign_t: int) -> int:
    """Sum of lift signs over all real log lifts of the curve.

    Equals the tropical Welschinger multiplicity: lifts differing at an
    even edge cancel in pairs, and all-odd curves have a single lift whose
    sign is the product of the vertex signs.
    """
    even_edges = [
        eid for eid in curve.graph.bounded_ids() if curve.weight(eid) % 2 == 0
    ]
    total = 0
    for choice in itertools.product((1, -1), repeat=len(even_edges)):
        lift = LiftAssignment(zeta=dict(zip(even_edges, choice)))
        total += lift_sign(curve, lift, sign_t)
    return total


def welschinger_total(curves: Sequence[TropicalCurve]) -> int:
    """Tropical Welschinger number: sum of Mult_R over the matched curves."""
    return sum(curve_welschinger_mult(c) for c in curves)


def census_report(curves: Sequence[TropicalCurve], sign_t: int) -> List[Dict]:
    """Per-curve census cross-check rows: census_sum versus Mult_R."""
    rows = []
    for cid, curve in enumerate(curves):
        mult_r = curve_welschinger_mult(curve)
        census = census_sum(curve, sign_t)
        rows.append(
            {
                "curve_id": cid,
                "mult_r": mult_r,
                "census_sum": census,
                "agrees": census == mult_r,
            }
        )
    return rows
