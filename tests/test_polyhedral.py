from fractions import Fraction

from tropcount.polyhedral import is_good_scale, rescale_for_goodness
from tropcount.tropical import TropicalCurve, TropicalGraph, as_point


def standard_line(vertex=(0, 0)):
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point(vertex)}, n=2)


def weighted_two_vertex(weight=2, length=1):
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (1, -1)),
        ),
        weights={"b0": weight, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((length, 0))},
        n=2,
    )


def test_rescale_already_integral():
    line = standard_line()
    points = [as_point((-3, 0))]
    assert rescale_for_goodness(line, points) == 1
    assert is_good_scale(line, 1, points)


def test_rescale_half_integer_vertex():
    line = standard_line(vertex=(Fraction(1, 2), 0))
    assert rescale_for_goodness(line, []) == 2
    assert is_good_scale(line, 2) and not is_good_scale(line, 1)


def test_rescale_weight_three_edge():
    c = weighted_two_vertex(weight=3, length=1)
    assert rescale_for_goodness(c, []) == 3
    assert is_good_scale(c, 3) and not is_good_scale(c, 1)


def test_rescale_is_minimal():
    c = weighted_two_vertex(weight=3, length=1)
    half = [as_point((Fraction(1, 2), 0))]
    s = rescale_for_goodness(c, half)
    assert s == 6
    assert is_good_scale(c, s, half)
    for p in (2, 3):
        assert not is_good_scale(c, s // p, half)
