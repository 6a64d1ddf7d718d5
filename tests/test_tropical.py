import random
from fractions import Fraction

import pytest

from tropcount.tropical import (
    DegenerateEdge,
    Degree,
    NonTrivalent,
    TropicalCurve,
    TropicalGraph,
    as_point,
    check_balancing,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
    degree_of,
    dual_triangle,
    segment_crossing,
    segments_overlap,
    vertex_multiplicities,
)


def standard_line(marks=()):
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
        marked=tuple(marks),
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)


def weighted_star(rays):
    """Single vertex at the origin with the given (direction, weight) rays."""
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=tuple(("v0", tuple(u)) for u, _ in rays),
        weights={"u%d" % i: w for i, (_, w) in enumerate(rays)},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)


def two_vertex_even_edge():
    """Weight-2 bounded edge between two trivalent vertices."""
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (1, -1)),
        ),
        weights={"b0": 2, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((1, 0))},
        n=2,
    )


def test_balanced_line():
    assert check_balancing(standard_line()) == []


def test_balanced_weighted_star():
    c = weighted_star([((-1, 0), 3), ((1, 2), 1), ((1, -1), 2)])
    assert check_balancing(c) == []


def test_unbalanced_vertex_reports_sum():
    c = weighted_star([((-1, 0), 1), ((0, -1), 1), ((1, 1), 2)])
    violations = check_balancing(c)
    assert violations == [("v0", (1, 1))]


def test_degenerate_edge_raises():
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (1, -1)),
        ),
        weights={"b0": 2, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    c = TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((0, 0))},
        n=2,
    )
    with pytest.raises(DegenerateEdge):
        check_balancing(c)


def test_degenerate_edge_raises_only_for_that_edge():
    graph = TropicalGraph(
        vertices=("v0", "v1", "v2"),
        bounded_edges=(("v0", "v1"), ("v1", "v2")),
        unbounded_edges=(
            ("v0", (-1, 0)),
            ("v0", (0, -1)),
            ("v1", (0, 1)),
            ("v2", (1, 1)),
            ("v2", (0, -1)),
        ),
        weights={"b0": 1, "b1": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1, "u4": 1},
    )
    c = TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((0, 0)), "v2": as_point((4, 2))},
        n=2,
    )
    assert c.edge_direction("b1") == (2, 1)
    assert c.edge_direction("b1", at_vertex="v2") == (-2, -1)
    assert c.lattice_length(1) == 2
    with pytest.raises(DegenerateEdge, match="b0"):
        c.edge_direction("b0")
    with pytest.raises(DegenerateEdge, match="b0"):
        c.lattice_length(0)


def test_degree_of_line():
    d = degree_of(standard_line())
    assert d.entries == {(-1, 0): 1, (0, -1): 1, (1, 1): 1}
    assert d.total() == 3


def test_degree_weight_two_ray():
    c = weighted_star([((1, 0), 2), ((-1, 1), 1), ((-1, -1), 1)])
    d = degree_of(c)
    assert (2, 0) in d.entries and (1, 0) not in d.entries


def test_degree_projective():
    d = Degree.projective(3)
    assert d.total() == 9
    assert d.is_balanced()


def test_vertex_multiplicities_unit_triangle():
    c = standard_line()
    vm = vertex_multiplicities(c, "v0")
    assert (vm.mult, vm.mult_r, vm.mult_m) == (1, 1, 1)
    assert vm.triangle.interior_points == 0
    assert vm.triangle.boundary_points == 3


def test_vertex_multiplicities_mult_two():
    c = weighted_star([((-1, 0), 2), ((1, -1), 1), ((1, 1), 1)])
    vm = vertex_multiplicities(c, "v0")
    assert (vm.mult, vm.mult_r, vm.mult_m) == (2, 1, 0)
    assert vm.triangle.interior_points == 0
    assert vm.triangle.boundary_points == 4


def test_vertex_multiplicities_mult_six():
    c = weighted_star([((-1, 0), 3), ((1, 2), 1), ((1, -1), 2)])
    vm = vertex_multiplicities(c, "v0")
    assert (vm.mult, vm.mult_r, vm.mult_m) == (6, -1, 0)
    assert vm.triangle.interior_points == 1
    assert vm.triangle.boundary_points == 6


def test_vertex_multiplicities_requires_trivalent():
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(
            ("v0", (-1, 0)),
            ("v0", (0, -1)),
            ("v0", (1, 0)),
            ("v0", (0, 1)),
        ),
        weights={"u%d" % i: 1 for i in range(4)},
    )
    c = TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)
    with pytest.raises(NonTrivalent):
        vertex_multiplicities(c, "v0")


def test_curve_welschinger_mult_even_edge_is_zero():
    assert curve_welschinger_mult(two_vertex_even_edge()) == 0


def test_curve_welschinger_mult_line():
    assert curve_welschinger_mult(standard_line()) == 1


def test_curve_mikhalkin_mults():
    assert curve_mikhalkin_mults(standard_line()) == (1, 1)
    complex_mult, real_m = curve_mikhalkin_mults(two_vertex_even_edge())
    assert complex_mult == 4  # two vertices of multiplicity 2
    assert real_m == 0


def test_pick_identity_sample():
    # Brute-force interior counts agree with the Pick-formula value on a
    # random sample of balanced triples (the full sweep runs in acceptance).
    rng = random.Random(41)
    from math import gcd

    def primitive_candidates():
        out = []
        for x in range(-5, 6):
            for y in range(-5, 6):
                if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1:
                    out.append((x, y))
        return out

    prims = primitive_candidates()
    found = 0
    while found < 60:
        u1 = rng.choice(prims)
        u2 = rng.choice(prims)
        w1 = rng.randint(1, 4)
        w2 = rng.randint(1, 4)
        w3 = rng.randint(1, 4)
        v3 = (-(w1 * u1[0] + w2 * u2[0]), -(w1 * u1[1] + w2 * u2[1]))
        if v3 == (0, 0):
            continue
        g = gcd(abs(v3[0]), abs(v3[1]))
        if g != w3:
            continue
        u3 = (v3[0] // w3, v3[1] // w3)
        if max(abs(u3[0]), abs(u3[1])) > 5:
            continue
        if u1[0] * u2[1] - u1[1] * u2[0] == 0:
            continue
        tri = dual_triangle([(u1, w1), (u2, w2), (u3, w3)])
        assert tri.interior_points == tri.interior_points_bruteforce()
        found += 1


def test_divalent_vertex_rejected():
    with pytest.raises(ValueError):
        TropicalGraph(
            vertices=("v0",),
            bounded_edges=(),
            unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1))),
            weights={"u0": 1, "u1": 1},
        )


def test_nonprimitive_direction_rejected():
    with pytest.raises(ValueError):
        TropicalGraph(
            vertices=("v0",),
            bounded_edges=(),
            unbounded_edges=(("v0", (-2, 0)), ("v0", (0, -1)), ("v0", (2, 1))),
            weights={"u0": 1, "u1": 1, "u2": 1},
        )


def test_degree_translation_invariance():
    c = two_vertex_even_edge()
    shifted = TropicalCurve(
        graph=c.graph,
        positions={v: tuple(x + 7 for x in p) for v, p in c.positions.items()},
        n=2,
    )
    assert degree_of(c).entries == degree_of(shifted).entries


def test_all_mult_three_curve_real_m():
    # every vertex of multiplicity 3 contributes (-1)^((3-1)/2) = -1
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-2, -1)),
            ("v1", (1, -1)),
            ("v1", (2, 1)),
        ),
        weights={"b0": 3, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    c = TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((3, 0))},
        n=2,
    )
    complex_mult, real_m = curve_mikhalkin_mults(c)
    assert complex_mult == 9
    assert real_m == (-1) ** 2 == 1
    for v in ("v0", "v1"):
        assert vertex_multiplicities(c, v).mult == 3
        assert vertex_multiplicities(c, v).mult_m == -1


def test_mult_r_vs_mult_m_sign_rule():
    # all unbounded weights odd: the two real multiplicities agree up to
    # (-1) to the number of legs with weight 3 mod 4
    def star(rays):
        graph = TropicalGraph(
            vertices=("v0",),
            bounded_edges=(),
            unbounded_edges=tuple(("v0", tuple(u)) for u, _ in rays),
            weights={"u%d" % i: w for i, (_, w) in enumerate(rays)},
        )
        return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)

    # one weight-3 leg: strict sign flip
    c = star([((-1, 0), 3), ((1, 1), 1), ((2, -1), 1)])
    mult_r = curve_welschinger_mult(c)
    mult_m = curve_mikhalkin_mults(c)[1]
    legs_3_mod_4 = sum(1 for eid in c.graph.unbounded_ids() if c.weight(eid) % 4 == 3)
    assert legs_3_mod_4 == 1
    assert mult_r == -mult_m != 0

    # all weight-1 legs: strict equality
    line = star([((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)])
    assert curve_welschinger_mult(line) == curve_mikhalkin_mults(line)[1]


def test_segments_overlap():
    # b0 runs from (0,0) to (2,0); u0, u1 leave (0,0) left and right, u2
    # leaves (2,0) to the left and u3 upwards (balancing is not needed here)
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (1, 0)), ("v1", (-1, 0)), ("v1", (0, 1))),
        weights={"b0": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    curve = TropicalCurve(
        graph=graph, positions={"v0": as_point((0, 0)), "v1": as_point((2, 0))}, n=2
    )
    overlapping = {("b0", "u1"), ("b0", "u2"), ("u0", "u2"), ("u1", "u2")}
    eids = graph.edge_ids()
    for i, e1 in enumerate(eids):
        for e2 in eids[i + 1 :]:
            overlap = segments_overlap(curve.edge_segment(e1), curve.edge_segment(e2))
            assert overlap == ((e1, e2) in overlapping), (e1, e2)


def segment(origin, vector, bounded=True):
    return as_point(origin), vector, bounded


@pytest.mark.parametrize(
    "s1,s2,expected",
    [
        # parallel, on one line or not
        (segment((0, 0), (2, 0)), segment((1, 0), (3, 0)), None),
        (segment((0, 0), (2, 0)), segment((0, 1), (1, 0), False), None),
        # an interior crossing
        (segment((0, 0), (2, 2)), segment((0, 2), (2, -2)), (Fraction(1, 2), Fraction(1, 2))),
        # meetings at an end of one segment or the other
        (segment((0, 0), (2, 0)), segment((1, 0), (0, 1), False), (Fraction(1, 2), 0)),
        (segment((0, 0), (2, 0)), segment((2, -1), (0, 2)), (1, Fraction(1, 2))),
        # misses beyond the range of one segment: past the end, before the
        # origin of a ray, and past a bounded segment's t = 1
        (segment((0, 0), (2, 0)), segment((3, -1), (0, 2)), None),
        (segment((0, 0), (2, 0)), segment((1, 1), (0, 1), False), None),
        (segment((0, 0), (1, 0), False), segment((-1, -1), (0, 2)), None),
    ],
)
def test_segment_crossing(s1, s2, expected):
    assert segment_crossing(s1, s2) == expected
    flipped = None if expected is None else expected[::-1]
    assert segment_crossing(s2, s1) == flipped
