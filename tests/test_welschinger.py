from fractions import Fraction

import pytest

from tropcount.tropical import (
    NonGenericCrossing,
    TropicalCurve,
    TropicalGraph,
    as_point,
    curve_welschinger_mult,
)
from tropcount.welschinger import (
    InvalidZeta,
    LiftAssignment,
    NodeCensus,
    census_sum,
    crossing_count,
    edge_census,
    lift_sign,
    welschinger_total,
)


def standard_line():
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)


def even_edge_curve(weight=2, length=1):
    leg = weight // 2
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (1, -1)),
        ),
        weights={"b0": weight, "u0": leg, "u1": leg, "u2": leg, "u3": leg},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((length, 0))},
        n=2,
    )


def odd_edge_curve(weight=3, length=3):
    """Bounded edge of odd weight 3 between two trivalent vertices."""
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-2, -1)),
            ("v1", (1, -1)),
            ("v1", (2, 1)),
        ),
        weights={"b0": weight, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((length, 0))},
        n=2,
    )


def crossing_curve():
    """Three-vertex curve whose (-1,2) leg crosses the (0,1) leg at (0,8)."""
    graph = TropicalGraph(
        vertices=("v0", "v1", "v2"),
        bounded_edges=(("v0", "v1"), ("v1", "v2")),
        unbounded_edges=(
            ("v0", (-1, 0)),
            ("v0", (0, 1)),
            ("v1", (0, -1)),
            ("v2", (-1, 2)),
            ("v2", (1, -1)),
        ),
        weights={"b0": 1, "b1": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1, "u4": 2},
    )
    return TropicalCurve(
        graph=graph,
        positions={
            "v0": as_point((0, 0)),
            "v1": as_point((2, -2)),
            "v2": as_point((5, -2)),
        },
        n=2,
    )


def test_edge_census_odd():
    assert edge_census(3, 1, 1) == NodeCensus(2, 0, 0)
    assert edge_census(3, 1, -1) == NodeCensus(2, 0, 0)


def test_edge_census_even_matching_signs():
    assert edge_census(4, 1, 1) == NodeCensus(3, 0, 0)
    assert edge_census(4, -1, -1) == NodeCensus(3, 0, 0)


def test_edge_census_even_opposite_signs():
    assert edge_census(4, -1, 1) == NodeCensus(0, 1, 1)
    assert edge_census(2, -1, 1) == NodeCensus(0, 1, 0)


def test_edge_census_budget_invariant():
    for mu in range(1, 9):
        for zeta in ((1,) if mu % 2 else (1, -1)):
            for st in (1, -1):
                census = edge_census(mu, zeta, st)
                assert census.elliptic + census.hyperbolic + 2 * census.imaginary_pairs == mu - 1


def test_edge_census_weight_one():
    assert edge_census(1, 1, 1) == NodeCensus(0, 0, 0)


def test_edge_census_invalid_zeta():
    with pytest.raises(InvalidZeta):
        edge_census(3, -1, 1)


def test_crossing_count_line():
    assert crossing_count(standard_line()) == 0


def test_crossing_count_transverse():
    c = crossing_curve()
    assert check_balancing_empty(c)
    assert crossing_count(c) == 1


def check_balancing_empty(c):
    from tropcount.tropical import check_balancing

    return check_balancing(c) == []


def test_crossing_through_vertex_raises():
    # vertex b sits on the (1,0) ray of a; balancing is irrelevant here
    graph = TropicalGraph(
        vertices=("a", "b"),
        bounded_edges=(("a", "b"),),
        unbounded_edges=(
            ("a", (1, 0)),
            ("a", (0, 1)),
            ("a", (-1, -1)),
            ("b", (0, 1)),
            ("b", (0, -1)),
        ),
        weights={"b0": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1, "u4": 1},
    )
    c = TropicalCurve(
        graph=graph,
        positions={"a": as_point((0, 0)), "b": as_point((2, 0))},
        n=2,
    )
    with pytest.raises(NonGenericCrossing):
        crossing_count(c)


def test_lift_sign_all_odd_equals_mult_r():
    c = odd_edge_curve(weight=3, length=3)
    lift = LiftAssignment(zeta={})
    for sign_t in (1, -1):
        assert lift_sign(c, lift, sign_t) == curve_welschinger_mult(c)


def test_lift_sign_line():
    assert lift_sign(standard_line(), LiftAssignment(zeta={}), 1) == 1


def test_lift_signs_differ_at_even_edge():
    c = even_edge_curve(weight=2, length=2)
    plus = lift_sign(c, LiftAssignment(zeta={"b0": 1}), 1)
    minus = lift_sign(c, LiftAssignment(zeta={"b0": -1}), 1)
    assert plus == -minus


def test_lift_sign_rejects_minus_zeta_on_an_odd_edge():
    c = odd_edge_curve(weight=3, length=3)
    for sign_t in (1, -1):
        with pytest.raises(InvalidZeta):
            lift_sign(c, LiftAssignment(zeta={"b0": -1}), sign_t)


@pytest.mark.parametrize("zeta", [1, -1])
def test_lift_sign_rejects_a_key_that_is_not_a_bounded_edge(zeta):
    # u0 is an end, and b7 no edge of the curve
    for key in ("u0", "b7"):
        with pytest.raises(ValueError, match="lift key %s is not a bounded edge" % key) as info:
            lift_sign(even_edge_curve(), LiftAssignment(zeta={"b0": 1, key: zeta}), 1)
        assert not isinstance(info.value, InvalidZeta)


def test_census_sum_even_edge_cancels():
    for sign_t in (1, -1):
        assert census_sum(even_edge_curve(weight=2, length=2), sign_t) == 0
        assert census_sum(even_edge_curve(weight=4, length=4), sign_t) == 0


def test_census_sum_all_odd():
    c = odd_edge_curve(weight=3, length=3)
    for sign_t in (1, -1):
        assert census_sum(c, sign_t) == curve_welschinger_mult(c)


def test_census_sum_line():
    assert census_sum(standard_line(), 1) == 1


def test_census_sum_handles_fractional_lengths():
    # e/mu parity is taken after the minimal rescaling
    c = even_edge_curve(weight=2, length=Fraction(1, 2))
    for sign_t in (1, -1):
        assert census_sum(c, sign_t) == 0


def test_welschinger_total():
    assert welschinger_total([standard_line()]) == 1
    assert welschinger_total([standard_line(), even_edge_curve()]) == 1
