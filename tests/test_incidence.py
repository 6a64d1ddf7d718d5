import random
from fractions import Fraction

import pytest

from tropcount.exact_lattice import IntMatrix, smith_normal_form
from tropcount.incidence import (
    AffineConstraint,
    AmbiguousConstraint,
    ConstraintMissed,
    ConstraintOnVertex,
    NonIntegralBase,
    RealPointConfig,
    _constraint_meets_edge,
    _vertex_on_constraint,
    build_constraint_inclusion,
    build_T_h,
    match_marked_edges,
    sigma_sign_class,
)
from tropcount.tropical import Degree, TropicalCurve, TropicalGraph, as_point, segment_param


def line_through(points):
    """The tropical line whose horizontal/vertical rays pass through the
    two given points (first on the (-1,0) ray, second on the (0,-1) ray)."""
    (x1, y1), (x2, y2) = points
    vertex = (x2, y1)
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point(vertex)}, n=2)


def test_through_rejects_a_direction_that_is_not_integral():
    # a direction is integral or an error, never truncated to (0, 1)
    with pytest.raises(TypeError, match="must be int"):
        AffineConstraint.through((0, 0), [(Fraction(1, 2), 1)])


def test_match_marked_edges_line():
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    assert match_marked_edges(curve, constraints) == ("u0", "u1")


def test_match_marked_edges_diagonal():
    curve = line_through([(-3, 0), (0, -5)])  # vertex (0,0)
    assert match_marked_edges(curve, [AffineConstraint.point((1, 1))]) == ("u2",)


def test_match_marked_edges_missed():
    curve = line_through([(-3, 0), (0, -5)])
    with pytest.raises(ConstraintMissed):
        match_marked_edges(curve, [AffineConstraint.point((5, 7))])


def test_match_marked_edges_vertex_hit():
    curve = line_through([(-3, 0), (0, -5)])
    with pytest.raises(ConstraintOnVertex):
        match_marked_edges(curve, [AffineConstraint.point((0, 0))])


def test_match_marked_edges_line_constraint_ambiguous():
    curve = line_through([(-3, 0), (0, -5)])
    # a vertical line through x = -1 crosses only the (-1,0) ray
    assert match_marked_edges(curve, [AffineConstraint.through((-1, 7), [(0, 1)])]) == ("u0",)
    with pytest.raises(AmbiguousConstraint):
        # x = y - 1 style diagonal crossing two rays
        match_marked_edges(curve, [AffineConstraint.through((-1, 0), [(1, -1)])])


def test_match_marked_edges_line_constraint_ranges():
    curve = line_through([(-3, 0), (0, -5)])  # vertex (0,0)
    # y = 3: parallel to u0 (no meeting), behind the ray u1 (t < 0), on u2
    assert match_marked_edges(curve, [AffineConstraint.through((5, 3), [(1, 0)])]) == ("u2",)


def tropical_line_in_space():
    """The tropical line in Q^3: four rays from the origin."""
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(
            ("v0", (-1, 0, 0)),
            ("v0", (0, -1, 0)),
            ("v0", (0, 0, -1)),
            ("v0", (1, 1, 1)),
        ),
        weights={"u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(graph=graph, positions={"v0": as_point((0, 0, 0))}, n=3)


def test_match_marked_edges_line_constraint_in_space():
    curve = tropical_line_in_space()
    # x = 1, z = 5 is inconsistent with every ray
    with pytest.raises(ConstraintMissed):
        match_marked_edges(curve, [AffineConstraint.through((1, 0, 5), [(0, 1, 0)])])
    # x = z = 2 meets only the ray (1, 1, 1), at t = 2
    assert match_marked_edges(
        curve, [AffineConstraint.through((2, 0, 2), [(0, 1, 0)])]
    ) == ("u3",)


def test_point_constraint_meets_an_edge_where_segment_param_finds_it():
    # b0 runs from (0, 0) to (3, 0); u0 leaves (0, 0) along (-1, 1) and u2
    # leaves (3, 0) along (1, 1)
    curve = two_vertex_curve()
    points = {
        "inside b0": (1, 0),
        "inside b0, off the grid": (Fraction(3, 2), 0),
        "tail of b0": (0, 0),
        "head of b0": (3, 0),
        "beyond the tail of b0": (-1, 0),
        "beyond the head of b0": (4, 0),
        "on u0": (-2, 2),
        "behind the origin of u0": (1, -1),
        "behind the origin of u2": (2, -1),
        "off every edge": (1, 1),
    }
    hits = {}
    for name, p in points.items():
        constraint = AffineConstraint.point(p)
        hits[name] = set()
        for eid in curve.graph.edge_ids():
            expected = segment_param(curve.edge_segment(eid), as_point(p)) is not None
            assert _constraint_meets_edge(curve, eid, constraint) == expected, (name, eid)
            if expected:
                hits[name].add(eid)
        for v, position in curve.positions.items():
            on = _vertex_on_constraint(position, constraint)
            assert on == (position == as_point(p)), (name, v)
    assert hits["inside b0"] == hits["inside b0, off the grid"] == {"b0"}
    assert hits["tail of b0"] == {"b0", "u0", "u1"}
    assert hits["head of b0"] == {"b0", "u2", "u3"}
    assert hits["on u0"] == {"u0"}
    missed = [name for name, eids in hits.items() if not eids]
    assert missed == [
        "beyond the tail of b0",
        "beyond the head of b0",
        "behind the origin of u0",
        "behind the origin of u2",
        "off every edge",
    ]


def test_build_T_h_line_unimodular():
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    assert th.matrix.rows == th.matrix.cols == 2
    assert abs(th.matrix.det()) == 1


def test_T_h_image_of_true_positions():
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    image = _image_of_positions(th, curve)
    # constraint-block classes equal the projected base points
    offset = th.edge_rows
    for constraint, projection in zip(constraints, th.constraint_projections):
        base = [int(x) for x in constraint.base]
        expected = projection.apply(base)
        got = image[offset : offset + projection.rows]
        assert tuple(got) == tuple(expected)
        offset += projection.rows


def _image_of_positions(th, curve):
    """T_h applied to the curve's own position vector, which must be integral."""
    vec = [x for v in th.vertex_order for x in curve.positions[v]]
    assert all(x.denominator == 1 for x in vec)
    return th.matrix.apply([int(x) for x in vec])


def test_T_h_translation_invariance():
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    shifted = TropicalCurve(
        graph=curve.graph,
        positions={v: tuple(x + 11 for x in p) for v, p in curve.positions.items()},
        n=2,
    )
    th2 = build_T_h(shifted, constraints, marks)
    assert th.matrix.entries == th2.matrix.entries


def two_vertex_curve():
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
        positions={"v0": as_point((0, 0)), "v1": as_point((3, 0))},
        n=2,
    )


def test_T_h_orientation_and_labelling_invariance():
    # relabelling vertices (hence flipping the stored edge order) must not
    # change the cokernel invariant factors
    c1 = two_vertex_curve()
    graph2 = TropicalGraph(
        vertices=("w1", "w0"),
        bounded_edges=(("w1", "w0"),),
        unbounded_edges=(
            ("w0", (-1, 1)),
            ("w0", (-1, -1)),
            ("w1", (1, 1)),
            ("w1", (1, -1)),
        ),
        weights={"b0": 2, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    c2 = TropicalCurve(
        graph=graph2,
        positions={"w0": as_point((0, 0)), "w1": as_point((3, 0))},
        n=2,
    )
    constraints = [
        AffineConstraint.point((-1, 1)),
        AffineConstraint.point((-1, -1)),
        AffineConstraint.point((4, 1)),
    ]
    m1 = match_marked_edges(c1, constraints)
    m2 = match_marked_edges(c2, constraints)
    th1 = build_T_h(c1, constraints, m1)
    th2 = build_T_h(c2, constraints, m2)
    f1 = smith_normal_form(th1.matrix).invariant_factors
    f2 = smith_normal_form(th2.matrix).invariant_factors
    assert f1 == f2


def test_constraint_inclusion_primitive_ray():
    m = build_constraint_inclusion((-1, 0), AffineConstraint.point((0, 0)))
    snf = smith_normal_form(m)
    prod = 1
    for f in snf.invariant_factors:
        prod *= f
    assert prod == 1


def test_constraint_inclusion_three_dim():
    constraint = AffineConstraint.through((0, 0, 0), [(0, 0, 1)])
    m = build_constraint_inclusion((1, 1, 0), constraint)
    snf = smith_normal_form(m)
    prod = 1
    for f in snf.invariant_factors:
        prod *= f
    assert prod == 1


def test_constraint_inclusion_index_two():
    constraint = AffineConstraint.through((0, 0), [(1, -1)])
    m = build_constraint_inclusion((1, 1), constraint)
    snf = smith_normal_form(m)
    prod = 1
    for f in snf.invariant_factors:
        prod *= f
    assert prod == 2
    evens = sum(1 for f in snf.invariant_factors if f % 2 == 0)
    assert 2 ** evens == 2


def test_sigma_all_positive_is_zero():
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    sigma = sigma_sign_class(th, constraints, RealPointConfig.all_positive(2, 2), 1)
    assert not any(sigma.bits)


@pytest.mark.parametrize("signs", [["+", "++"], ["++", "+-+"]])
def test_sigma_needs_one_sign_per_coordinate(signs):
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    th = build_T_h(curve, constraints, match_marked_edges(curve, constraints))
    with pytest.raises(ValueError, match="needs 2 signs"):
        sigma_sign_class(th, constraints, RealPointConfig.from_strings(signs), 1)


def test_sigma_projection_drops_along_edge_sign():
    # mark on the (-1,0) ray: the quotient keeps only the y-coordinate, so a
    # sign flip in x is invisible and a flip in y shows up as bit 1
    curve = line_through([(-4, 0), (0, -6)])
    constraints = [AffineConstraint.point((-4, 0)), AffineConstraint.point((0, -6))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    sigma_x = sigma_sign_class(th, constraints, RealPointConfig.from_strings(["-+", "++"]), 1)
    assert sigma_x.bits[0] == 0
    sigma_y = sigma_sign_class(th, constraints, RealPointConfig.from_strings(["+-", "++"]), 1)
    assert sigma_y.bits[0] == 1


def test_sigma_twist_uses_base_point_parity():
    # vertex (0,1): the horizontal ray lives at odd height, so its quotient
    # coordinate (y) picks up the sign_t twist
    curve = line_through([(-3, 1), (0, -5)])
    constraints = [AffineConstraint.point((-3, 1)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    plus = sigma_sign_class(th, constraints, RealPointConfig.all_positive(2, 2), 1)
    minus = sigma_sign_class(th, constraints, RealPointConfig.all_positive(2, 2), -1)
    assert not any(plus.bits)
    assert minus.bits[0] == 1 and minus.bits[1] == 0


def test_sigma_requires_integral_base():
    curve = line_through([(Fraction(-7, 2), 0), (0, -5)])
    constraints = [
        AffineConstraint.point((Fraction(-7, 2), 0)),
        AffineConstraint.point((0, -5)),
    ]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    with pytest.raises(NonIntegralBase):
        sigma_sign_class(th, constraints, RealPointConfig.all_positive(2, 2), -1)


def test_sigma_invariant_under_quotiented_subtorus_signs():
    # multiplying P_j by sign vectors along the marked direction or the
    # constraint directions must not change the class
    curve = line_through([(-3, 0), (0, -5)])
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    base = RealPointConfig.from_strings(["+-", "-+"])
    sigma0 = sigma_sign_class(th, constraints, base, 1)
    # mark 0 is the (-1,0) ray: flipping the x-sign of P_0 acts by the
    # quotiented subtorus
    flipped = RealPointConfig.from_strings(["--", "-+"])
    sigma1 = sigma_sign_class(th, constraints, flipped, 1)
    assert sigma0.bits == sigma1.bits


def test_T_h_factors_invariant_under_unimodular_block_changes():
    # the cokernel only depends on the map up to unimodular changes of the
    # quotient coordinates; conjugating row blocks must keep the factors
    rng = random.Random(53)
    c = two_vertex_curve()
    constraints = [
        AffineConstraint.point((-1, 1)),
        AffineConstraint.point((-1, -1)),
        AffineConstraint.point((4, 1)),
    ]
    marks = match_marked_edges(c, constraints)
    th = build_T_h(c, constraints, marks)
    base_factors = smith_normal_form(th.matrix).invariant_factors

    rows = th.matrix.to_rows()
    # row blocks: n-1 rows per bounded edge, then one block per constraint
    edge_blocks = len(c.graph.bounded_edges)
    assert th.edge_rows == (c.n - 1) * edge_blocks
    sizes = [c.n - 1] * edge_blocks + [p.rows for p in th.constraint_projections]
    assert sum(sizes) == len(rows)
    for _ in range(10):
        new_rows = [list(r) for r in rows]
        i = 0
        for size in sizes:
            u = _random_unimodular(rng, size)
            for r in range(size):
                combined = [0] * len(new_rows[0])
                for k in range(size):
                    coef = u[r][k]
                    for col, x in enumerate(rows[i + k]):
                        combined[col] += coef * x
                new_rows[i + r] = combined
            i += size
        transformed = IntMatrix.from_rows(new_rows)
        assert smith_normal_form(transformed).invariant_factors == base_factors


def _random_unimodular(rng, n):
    # product of elementary row operations
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        f = rng.randint(-2, 2)
        for j in range(n):
            m[a][j] += f * m[b][j]
    return m


def two_vertex_curve():
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
        positions={"v0": as_point((0, 0)), "v1": as_point((3, 0))},
        n=2,
    )


def test_evaluate_T_h_edge_block_vanishes_on_true_positions():
    from tropcount.enumeration import PointConfiguration, enumerate_curves
    from tropcount.polyhedral import rescale_for_goodness, scale_curve, scale_point

    config = PointConfiguration.mikhalkin(5, 7)
    curves = enumerate_curves(0, Degree.projective(2), config)
    for curve, marks in curves:
        s = rescale_for_goodness(curve, config.points)
        scaled = scale_curve(curve, s)
        constraints = [
            AffineConstraint.point(scale_point(p, s)) for p in config.points
        ]
        th = build_T_h(scaled, constraints, marks)
        image = _image_of_positions(th, scaled)
        assert image[: th.edge_rows] == (0,) * th.edge_rows
        # constraint block rows carry the classes of the base points
        offset = th.edge_rows
        for constraint, projection in zip(constraints, th.constraint_projections):
            expected = projection.apply([int(x) for x in constraint.base])
            got = image[offset : offset + projection.rows]
            assert tuple(got) == tuple(expected)
            offset += projection.rows


def spatial_line():
    """Balanced line in Q^3 (planar image, ambient dimension three)."""
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(
            ("v0", (-1, 0, 0)),
            ("v0", (0, -1, 0)),
            ("v0", (1, 1, 0)),
        ),
        weights={"u0": 1, "u1": 1, "u2": 1},
    )
    return TropicalCurve(
        graph=graph, positions={"v0": as_point((0, 0, 0))}, n=3
    )


def test_spatial_line_constraint_matching_and_T_h():
    curve = spatial_line()
    constraints = [
        AffineConstraint.through((-3, 0, 0), [(0, 0, 1)]),
        AffineConstraint.through((0, -5, 0), [(0, 0, 1)]),
    ]
    marks = match_marked_edges(curve, constraints)
    assert marks == ("u0", "u1")
    th = build_T_h(curve, constraints, marks)
    # codim 2 constraints with a common vertical direction: one row each
    assert th.matrix.rows == 2 and th.matrix.cols == 3
    # constraint block kills the marked direction and the constraint line
    projection = th.constraint_projections[0]
    assert projection.apply((-1, 0, 0)) == (0,)
    assert projection.apply((0, 0, 1)) == (0,)
    assert projection.apply((0, 1, 0)) in ((1,), (-1,))


def test_spatial_point_constraint_checks_every_coordinate():
    curve = spatial_line()
    assert match_marked_edges(curve, [AffineConstraint.point((-5, 0, 0))]) == ("u0",)
    # over the ray u0 in the first two coordinates, off it in the third
    with pytest.raises(ConstraintMissed):
        match_marked_edges(curve, [AffineConstraint.point((-5, 0, 7))])


def test_sigma_invariance_along_constraint_directions_3d():
    curve = spatial_line()
    constraints = [
        AffineConstraint.through((-3, 0, 0), [(0, 0, 1)]),
        AffineConstraint.through((0, -5, 0), [(0, 0, 1)]),
    ]
    marks = match_marked_edges(curve, constraints)
    th = build_T_h(curve, constraints, marks)
    base = RealPointConfig(signs=((1, -1, 1), (-1, 1, 1)))
    sigma0 = sigma_sign_class(th, constraints, base, 1)
    # flipping the sign along the constraint's own direction (z) or along
    # the marked edge's direction is quotiented away
    flipped_z = RealPointConfig(signs=((1, -1, -1), (-1, 1, -1)))
    assert sigma_sign_class(th, constraints, flipped_z, 1) == sigma0
    flipped_marked = RealPointConfig(signs=((-1, -1, 1), (-1, -1, 1)))
    sigma2 = sigma_sign_class(th, constraints, flipped_marked, 1)
    assert sigma2.bits[0] == sigma0.bits[0]  # x-flip invisible for mark u0
    # a y-flip for the first constraint must show up
    flipped_y = RealPointConfig(signs=((1, 1, 1), (-1, 1, 1)))
    assert sigma_sign_class(th, constraints, flipped_y, 1) != sigma0
