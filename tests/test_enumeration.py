import json
from fractions import Fraction
from pathlib import Path

import pytest

from tropcount.enumeration import (
    PointConfiguration,
    UnsupportedGenus,
    enumerate_curves,
    enumerate_types,
    solve_positions,
    _edges_overlap,
    _trees,
)
from tropcount.incidence import match_marked_edges
from tropcount.tropical import (
    Degree,
    TropicalCurve,
    TropicalGraph,
    as_point,
    check_balancing,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
    expected_dimension,
)


GOLDEN = Path(__file__).parent / "golden"


def test_tree_counts():
    assert sum(1 for _ in _trees(6)) == 105


def test_enumerate_types_degree_three_matches_golden():
    # Curve names come from each type's representative tree, so the d = 3
    # types must keep their order and numbering, not only their count.
    expected = json.loads((GOLDEN / "types-d3.json").read_text())
    types = enumerate_types(0, Degree.projective(3))
    assert [
        {
            "num_vertices": t.num_vertices,
            "edges": [[e.tail, e.head, list(e.vec)] for e in t.edges],
        }
        for t in types
    ] == expected
    assert len(expected) == 80


def test_enumerate_types_rejects_flat_vertices():
    assert len(enumerate_types(0, Degree.projective(2))) == 4
    assert enumerate_types(0, Degree({(1, 0): 2, (-1, 0): 2})) == []


def test_enumerate_types_line():
    types = enumerate_types(0, Degree.projective(1))
    assert len(types) == 1
    assert types[0].num_vertices == 1
    assert not types[0].has_flat_vertex


def test_enumerate_types_two_leaves_empty():
    assert enumerate_types(0, Degree({(1, 0): 1, (-1, 0): 1})) == []


def test_enumerate_types_genus_gated():
    with pytest.raises(UnsupportedGenus):
        enumerate_types(1, Degree.projective(2))


def test_solve_positions_line_fixture():
    types = enumerate_types(0, Degree.projective(1))
    config = PointConfiguration.explicit([(-3, 0), (0, -5)])
    # marks: point 0 on the (-1,0) leaf, point 1 on the (0,-1) leaf
    by_vec = {tuple(e.vec): i for i, e in enumerate(types[0].edges)}
    plan = {0: by_vec[(-1, 0)], 1: by_vec[(0, -1)]}
    solved = solve_positions(types[0], config, plan)
    assert solved is not None
    curve, marks = solved
    assert curve.positions["v0"] == (Fraction(0), Fraction(0))


def test_solve_positions_rejects_wrong_ray():
    types = enumerate_types(0, Degree.projective(1))
    config = PointConfiguration.explicit([(-3, 0), (0, -5)])
    by_vec = {tuple(e.vec): i for i, e in enumerate(types[0].edges)}
    # both points on the same ray: injectivity is the caller's job, but the
    # solver itself must reject the second point being off its line
    plan = {0: by_vec[(-1, 0)], 1: by_vec[(1, 1)]}
    assert solve_positions(types[0], config, plan) is None


def test_enumerate_curves_degree_one():
    config = PointConfiguration.mikhalkin(2, 7)
    curves = enumerate_curves(0, Degree.projective(1), config)
    assert len(curves) == 1
    curve, marks = curves[0]
    assert check_balancing(curve) == []
    assert match_marked_edges(curve, config.constraints()) == marks


def test_enumerate_curves_degree_two_totals():
    config = PointConfiguration.mikhalkin(5, 7)
    curves = enumerate_curves(0, Degree.projective(2), config)
    total = sum(curve_mikhalkin_mults(c)[0] for c, _ in curves)
    w_total = sum(curve_welschinger_mult(c) for c, _ in curves)
    assert (total, w_total) == (1, 1)
    for curve, _ in curves:
        # a tree moves by the position of one vertex and its edge lengths
        assert 2 + len(curve.graph.bounded_edges) == expected_dimension(2, 0, 6)


def test_enumerate_curves_seed_invariance_degree_two():
    totals = []
    for seed in (7, 101):
        config = PointConfiguration.mikhalkin(5, seed)
        curves = enumerate_curves(0, Degree.projective(2), config)
        totals.append(
            (
                sum(curve_mikhalkin_mults(c)[0] for c, _ in curves),
                sum(curve_welschinger_mult(c) for c, _ in curves),
            )
        )
    assert totals[0] == totals[1]


def test_enumerate_curves_wrong_point_count():
    config = PointConfiguration.mikhalkin(4, 7)
    with pytest.raises(ValueError):
        enumerate_curves(0, Degree.projective(2), config)


def test_mikhalkin_points_collinear_and_spread():
    config = PointConfiguration.mikhalkin(8, 3)
    pts = config.points
    (x0, y0), (x1, y1) = pts[0], pts[1]
    slope = (y1 - y0) / (x1 - x0)
    for a, b in zip(pts, pts[1:]):
        assert (b[1] - a[1]) / (b[0] - a[0]) == slope
        assert b[0] > 8 * a[0]


def test_explicit_config_rejects_duplicates():
    with pytest.raises(ValueError):
        PointConfiguration.explicit([(0, 0), (0, 0)])


def test_enumerate_curves_rational_points():
    config = PointConfiguration.explicit([(Fraction(-7, 2), 0), (0, Fraction(-11, 3))])
    curves = enumerate_curves(0, Degree.projective(1), config)
    assert len(curves) == 1
    curve, marks = curves[0]
    assert check_balancing(curve) == []
    assert curve.positions["v0"] == (Fraction(0), Fraction(0))
    assert match_marked_edges(curve, config.constraints()) == marks


def test_edges_overlap():
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
            assert _edges_overlap(curve, e1, e2) == ((e1, e2) in overlapping), (e1, e2)
