import json
from fractions import Fraction
from pathlib import Path

import pytest

from tropcount.cli import curve_from_json

from tropcount.polyhedral import (
    NonGenericInput,
    build_decomposition_2d,
    rescale_for_goodness,
    scale_curve,
    scale_point,
    validate_good,
)
from tropcount.tropical import TropicalCurve, TropicalGraph, as_point, point_str


def standard_line(vertex=(0, 0)):
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point(vertex)}, n=2)


def conic():
    """Balanced curve of bidegree (1, 1): a conic in P^1 x P^1."""
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 0)),
            ("v0", (0, -1)),
            ("v1", (0, 1)),
            ("v1", (1, 0)),
        ),
        weights={"b0": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((1, 1))},
        n=2,
    )


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


def test_build_line_decomposition_shape():
    decomp = build_decomposition_2d(standard_line())
    assert len(decomp.cells_of_dim(0)) == 1
    assert len(decomp.cells_of_dim(1)) == 3
    assert len(decomp.cells_of_dim(2)) == 3


def test_build_line_with_constraint_point_splits_ray():
    line = standard_line()
    decomp = build_decomposition_2d(line, [as_point((-3, 0))])
    points = decomp.zero_cell_points()
    assert as_point((-3, 0)) in points
    assert len(decomp.cells_of_dim(1)) == 4  # split ray becomes segment + ray


def _sides(decomp, edge_idx):
    """Side of the line through a 1-cell on which each adjacent 2-cell lies:
    1 or -1, or 0 when the 2-cell has points on both sides."""
    edge = decomp.cells[edge_idx]
    p = edge.vertices[0]
    d = edge.rays[0] if edge.rays else tuple(q - r for q, r in zip(edge.vertices[1], p))
    sides = []
    for idx, bounds in decomp.incidence.items():
        cell = decomp.cells[idx]
        if cell.dim != 2 or edge_idx not in bounds:
            continue
        offsets = [tuple(x - y for x, y in zip(v, p)) for v in cell.vertices] + list(cell.rays)
        crosses = [d[0] * w[1] - d[1] * w[0] for w in offsets]
        sides.append((min(crosses) >= 0) - (max(crosses) <= 0))
    return sorted(sides)


def test_build_conic_cells_are_convex():
    # A 2-cell is stored as the convex hull of its corners and rays, which is
    # its face only when the face is convex; then the two faces at every
    # 1-cell lie on opposite sides of it.
    decomp = build_decomposition_2d(conic())
    assert len(decomp.cells_of_dim(2)) == 4
    for idx, cell in enumerate(decomp.cells):
        if cell.dim == 1:
            assert _sides(decomp, idx) == [-1, 1]
    # Euler characteristic of the compactified plane
    v = len(decomp.cells_of_dim(0)) + 1
    e = len(decomp.cells_of_dim(1))
    f = len(decomp.cells_of_dim(2))
    assert v - e + f == 2


def test_build_rejects_unbalanced_curve():
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 0))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    curve = TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)
    with pytest.raises(ValueError, match="not balanced"):
        build_decomposition_2d(curve)


def test_build_rejects_a_ray_along_its_own_edge():
    # the ray from v0 in direction (1, 0) runs along the bounded edge to v1
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (1, 0)),
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (0, -1)),
        ),
        weights={"b0": 1, "u0": 1, "u1": 1, "u2": 1, "u3": 1, "u4": 1},
    )
    curve = TropicalCurve(
        graph=graph, positions={"v0": as_point((0, 0)), "v1": as_point((1, 0))}, n=2
    )
    with pytest.raises(NonGenericInput, match="edges b0 and u0 overlap"):
        build_decomposition_2d(curve)


def test_incidence_face_lattice():
    decomp = build_decomposition_2d(standard_line())
    for idx, cell in enumerate(decomp.cells):
        for b in decomp.incidence[idx]:
            assert decomp.cells[b].dim == cell.dim - 1


def test_rescale_already_integral():
    line = standard_line()
    assert rescale_for_goodness(line, [as_point((-3, 0))]) == 1


def test_rescale_half_integer_vertex():
    line = standard_line(vertex=(Fraction(1, 2), 0))
    assert rescale_for_goodness(line, []) == 2


def test_rescale_weight_three_edge():
    c = weighted_two_vertex(weight=3, length=1)
    assert rescale_for_goodness(c, []) == 3


def _is_good_scale(curve, s, constraints=()):
    """Whether scaling by s makes the positions and constraint points
    integral and every bounded weight divide its lattice length."""
    scaled = scale_curve(curve, s)
    points = list(scaled.positions.values()) + [scale_point(p, s) for p in constraints]
    return all(x.denominator == 1 for p in points for x in p) and all(
        (scaled.lattice_length(i) / scaled.weight(eid)).denominator == 1
        for i, eid in enumerate(scaled.graph.bounded_ids())
    )


def test_rescale_is_minimal():
    c = weighted_two_vertex(weight=3, length=1)
    half = [as_point((Fraction(1, 2), 0))]
    s = rescale_for_goodness(c, half)
    assert s == 6
    assert _is_good_scale(c, s, half)
    for p in (2, 3):
        assert not _is_good_scale(c, s // p, half)


def test_goodness_scale_is_the_least_good_scale():
    curves = [standard_line(), standard_line(vertex=(Fraction(1, 2), 0)), conic()] + [
        weighted_two_vertex(weight=w, length=length)
        for w in (1, 2, 3)
        for length in (1, 3, Fraction(2, 3))
    ]
    for path in sorted(DATA.glob("d3-*.json")):
        curves += [curve_from_json(c)[0] for c in json.loads(path.read_text())["curves"]]
    assert len(curves) > 30
    for curve in curves:
        s = curve.goodness_scale
        assert _is_good_scale(curve, s)
        for p in range(2, s + 1):
            if s % p == 0:
                assert not _is_good_scale(curve, s // p), (s, p)


def test_validate_good_clean_line_fixture():
    line = standard_line()
    points = [as_point((-3, 0)), as_point((0, -5))]
    s = rescale_for_goodness(line, points)
    scaled = scale_curve(line, s)
    scaled_points = [scale_point(p, s) for p in points]
    decomp = build_decomposition_2d(scaled, scaled_points)
    report = validate_good(decomp, scaled, scaled_points)
    assert report.ok, report.violations


def test_validate_good_weight_divides_length_violation():
    c = weighted_two_vertex(weight=2, length=3)
    decomp = build_decomposition_2d(c)
    report = validate_good(decomp, c, [])
    assert any(v.clause == "iii" for v in report.violations)


def test_validate_good_constraint_in_cell_interior():
    line = standard_line()
    # constraint on the curve but not made a 0-cell: build without it
    decomp = build_decomposition_2d(line)
    report = validate_good(decomp, line, [as_point((-3, 0))])
    assert any(v.clause == "ii" for v in report.violations)


def test_validate_good_vertex_not_zero_cell():
    line = standard_line()
    other = standard_line(vertex=(7, 7))
    decomp = build_decomposition_2d(line)
    report = validate_good(decomp, other, [])
    assert any(v.clause == "i" for v in report.violations)


def test_goodness_pipeline_after_rescale():
    c = weighted_two_vertex(weight=2, length=1)
    s = rescale_for_goodness(c, [])
    assert s == 2
    scaled = scale_curve(c, s)
    decomp = build_decomposition_2d(scaled)
    report = validate_good(decomp, scaled, [])
    assert report.ok, report.violations


GOLDEN = Path(__file__).parent / "golden" / "decompositions-d3.json"
DATA = Path(__file__).parent.parent / "bench" / "data"


def canonical(decomp):
    """The decomposition in a form that does not depend on the order in which
    the cells were built: per dimension, the cells as sorted vertices and
    rays, sorted; the faces of a cell as positions in the sorted list one
    dimension lower."""

    def content(cell):
        return json.dumps(
            [sorted(point_str(p) for p in cell.vertices), sorted(list(r) for r in cell.rays)]
        )

    out = {}
    position = {}
    for dim in range(3):
        cells = sorted(
            (content(cell), [content(decomp.cells[j]) for j in decomp.incidence[i]])
            for i, cell in enumerate(decomp.cells)
            if cell.dim == dim
        )
        out[str(dim)] = [
            dict(zip(("vertices", "rays"), json.loads(c)), faces=sorted(position[f] for f in faces))
            for c, faces in cells
        ]
        position = {c: k for k, (c, _) in enumerate(cells)}
    return out


def golden_cases():
    """Name -> (curve, constraints): every curve of the stored generic d = 3
    set, rescaled with its points as the goodness check does."""
    doc = json.loads((DATA / "d3-generic-1.json").read_text())
    points = [as_point(p) for p in doc["points"]]
    cases = {}
    for i, record in enumerate(doc["curves"]):
        curve = curve_from_json(record)[0]
        s = rescale_for_goodness(curve, points)
        cases["curve %d" % i] = (scale_curve(curve, s), [scale_point(p, s) for p in points])
    return cases


def test_decompositions_match_golden():
    expected = json.loads(GOLDEN.read_text())
    cases = golden_cases()
    assert sorted(cases) == sorted(expected)
    for name, (curve, constraints) in cases.items():
        assert canonical(build_decomposition_2d(curve, constraints)) == expected[name], name
