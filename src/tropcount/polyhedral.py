"""Goodness scaling of one curve and its constraint points.

A polyhedral decomposition good for a curve (Nishinou-Siebert) exists
after scaling by s exactly when s makes the curve's vertex positions and
the constraint points integral and every bounded weight divide its lattice
length.  ``rescale_for_goodness`` finds the least such s (the curve's
``goodness_scale`` with the constraint denominators) and ``is_good_scale``
checks a given s against that definition.  All coordinates are exact
rationals.  The counts read the scale off the curve; only the embedded
acceptance suite calls this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .tropical import Point, TropicalCurve


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


def is_good_scale(curve: TropicalCurve, s: int, constraints: Sequence = ()) -> bool:
    """Whether scaling by s makes the positions and constraint points
    integral and every bounded weight divide its lattice length."""
    scaled = scale_curve(curve, s)
    points = list(scaled.positions.values()) + [scale_point(p, s) for p in constraints]
    return all(x.denominator == 1 for p in points for x in p) and all(
        (scaled.lattice_length(eid) / scaled.weight(eid)).denominator == 1
        for eid in scaled.graph.bounded_ids()
    )
