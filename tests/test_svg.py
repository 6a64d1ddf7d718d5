from fractions import Fraction

import pytest

from tropcount import svg
from tropcount.cli import main
from tropcount.svg import _clip_ray, dual_subdivision_cells, render_curves
from tropcount.tropical import TropicalCurve, TropicalGraph, as_point


def standard_line():
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)


def crossing_curve():
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


def polygon_twice_area(poly):
    total = 0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        total += x0 * y1 - x1 * y0
    return abs(total)


def test_line_dual_is_unit_triangle():
    cells = dual_subdivision_cells(standard_line())
    assert len(cells) == 1
    assert polygon_twice_area(cells[0]) == 1


def test_crossing_curve_dual_tiles():
    cells = dual_subdivision_cells(crossing_curve())
    # three vertices and one crossing: three triangles and a parallelogram
    assert len(cells) == 4
    sizes = sorted(len(c) for c in cells)
    assert sizes == [3, 3, 3, 4]
    # cells are lattice polygons with nonnegative normalized corners
    for poly in cells:
        for x, y in poly:
            assert x >= 0 and y >= 0
            assert Fraction(x).denominator == 1


def test_render_is_pure():
    curve = standard_line()
    a = render_curves([curve], [(-3, 0)])
    b = render_curves([curve], [(-3, 0)])
    assert a == b
    assert a.startswith("<svg")
    assert '<circle' in a


def test_render_labels_heavy_weights():
    text = render_curves([crossing_curve()])
    assert "w=2" in text


def test_dual_panel_raises_rather_than_drop_a_cell(tmp_path, monkeypatch):
    # a neighbour with no side matching the shared piece would be left out
    # of the panel; on a balanced curve that is an internal fault
    curves = tmp_path / "curves.json"
    assert main(["enumerate", "-d", "2", "--mikhalkin-seed", "7", "-o", str(curves)]) == 0
    monkeypatch.setattr(svg, "_find_side", lambda sides, vec: None)
    out = tmp_path / "dual.svg"
    with pytest.raises(AssertionError, match="share no side"):
        main(["render", str(curves), "--dual", "-o", str(out)])
    assert not out.exists()


def test_a_ray_missing_the_viewport_raises():
    # rays start inside the viewport; one that meets none of its sides has
    # no endpoint to draw
    with pytest.raises(AssertionError, match="meets no side of the viewport"):
        _clip_ray((5, 5), (1, 0), 0, 1, 0, 1)
