import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from tropcount import counting, exact_lattice, incidence
from tropcount.cli import curve_from_json
from tropcount.counting import (
    InfiniteCokernel,
    RealRow,
    constraint_indices,
    count_complex,
    count_real,
    curve_lattice,
    real_index,
    total_real_weight,
    twisted_real_index,
)
from tropcount.enumeration import GenericityFailure, PointConfiguration, enumerate_curves
from tropcount.exact_lattice import IntMatrix, f2_rank, f2_solve
from tropcount.incidence import (
    AffineConstraint,
    RealPointConfig,
    SignClass,
    build_T_h,
    sigma_sign_class,
)
from tropcount.tropical import (
    Degree,
    TropicalCurve,
    TropicalGraph,
    as_point,
    vertex_multiplicities,
)


def line_fixture():
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(("v0", (-1, 0)), ("v0", (0, -1)), ("v0", (1, 1))),
        weights={"u0": 1, "u1": 1, "u2": 1},
        marked=("u0", "u1"),
    )
    curve = TropicalCurve(graph=graph, positions={"v0": as_point((0, 0))}, n=2)
    constraints = [AffineConstraint.point((-3, 0)), AffineConstraint.point((0, -5))]
    return curve, ("u0", "u1"), constraints


def test_real_index_examples():
    b = real_index(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert (b.complex_index, b.real_index) == (6, 2)
    b = real_index(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert (b.complex_index, b.real_index) == (1, 1)
    b = real_index(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert (b.complex_index, b.real_index) == (4, 4)


def test_real_index_rejects_singular():
    with pytest.raises(InfiniteCokernel):
        real_index(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_kernel_lemma_at_scale():
    rng = random.Random(37)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        if m.det() == 0:
            continue
        assert real_index(m).real_index == 2 ** (n - f2_rank(m))
        checked += 1


def test_twisted_real_index_toy():
    curve, marks, constraints = line_fixture()
    th = build_T_h(curve, constraints, marks)
    base = real_index(th.matrix)
    assert twisted_real_index(th, base, SignClass(bits=(0, 0))) == base.real_index == 1
    # odd invariant factors: every sign class is solvable
    assert twisted_real_index(th, base, SignClass(bits=(1, 1))) == 1


def test_total_real_weight():
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
        marked=("u0",),
    )
    curve = TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((1, 0))},
        n=2,
    )
    assert total_real_weight(curve) == 2
    graph3 = TropicalGraph(
        vertices=graph.vertices,
        bounded_edges=graph.bounded_edges,
        unbounded_edges=graph.unbounded_edges,
        weights={"b0": 3, "u0": 2, "u1": 2, "u2": 2, "u3": 2},
        marked=("u0",),
    )
    curve3 = TropicalCurve(graph=graph3, positions=curve.positions, n=2)
    assert total_real_weight(curve3) == 2  # odd bounded edge, marked weight 2


def test_count_complex_line():
    curve, marks, constraints = line_fixture()
    report = count_complex([(curve, marks)], constraints)
    assert report.n_trop == 1
    assert report.rows[0].contribution_complex == 1


def test_count_real_line_any_signs():
    curve, marks, constraints = line_fixture()
    for signs in ("++ ++", "+- -+", "-- --"):
        config = RealPointConfig.from_strings(signs.split())
        for sign_t in (1, -1):
            report = count_real([(curve, marks)], constraints, config, sign_t)
            assert report.n_real_trop == 1


def test_counts_degree_two_parity_and_domination():
    config = PointConfiguration.mikhalkin(5, 7)
    curves = enumerate_curves(0, Degree.projective(2), config)
    constraints = config.constraints()
    complex_report = count_complex(curves, constraints)
    assert complex_report.n_trop == 1
    rng = random.Random(5)
    for _ in range(10):
        signs = RealPointConfig(
            signs=tuple(
                tuple(rng.choice((1, -1)) for _ in range(2)) for _ in range(5)
            )
        )
        for sign_t in (1, -1):
            real_report = count_real(curves, constraints, signs, sign_t)
            assert real_report.n_real_trop % 2 == complex_report.n_trop % 2
            assert real_report.n_real_trop <= complex_report.n_trop


def test_all_positive_untwisted():
    config = PointConfiguration.mikhalkin(5, 7)
    curves = enumerate_curves(0, Degree.projective(2), config)
    constraints = config.constraints()
    report = count_real(
        curves, constraints, RealPointConfig.all_positive(5, 2), 1
    )
    for row, (curve, marks) in zip(report.rows, curves):
        th = build_T_h(curve, constraints, marks)
        assert row.twisted_index == real_index(th.matrix).real_index


def test_vertex_product_identity_degree_two():
    config = PointConfiguration.mikhalkin(5, 7)
    curves = enumerate_curves(0, Degree.projective(2), config)
    # count_complex raises CrossCheckError if the identity fails
    report = count_complex(curves, config.constraints())
    assert report.n_trop == 1


def test_twisted_index_matches_sign_torus_bruteforce():
    # the twisted real index counts solutions of the monomial sign map
    # x -> (prod_j x_j^(m_ij))_i over {+-1}^n; brute force for small n
    import itertools

    from tropcount.incidence import SignClass

    class FakeTh:
        def __init__(self, matrix):
            self.matrix = matrix

    rng = random.Random(71)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        if m.det() == 0:
            continue
        sigma_bits = tuple(rng.randint(0, 1) for _ in range(n))
        target = tuple(-1 if b else 1 for b in sigma_bits)
        solutions = 0
        for signs in itertools.product((1, -1), repeat=n):
            image = tuple(
                1 - 2 * (sum(m.at(i, j) for j in range(n) if signs[j] < 0) % 2)
                for i in range(n)
            )
            if image == target:
                solutions += 1
        assert twisted_real_index(FakeTh(m), real_index(m), SignClass(bits=sigma_bits)) == solutions
        checked += 1


def spatial_line_fixture(direction=(1, -1, 2)):
    """A planar tropical line in Q^3 and three affine lines, the third one
    with the given direction."""
    graph = TropicalGraph(
        vertices=("v0",),
        bounded_edges=(),
        unbounded_edges=(
            ("v0", (-1, 0, 0)),
            ("v0", (0, -1, 0)),
            ("v0", (1, 1, 0)),
        ),
        weights={"u0": 1, "u1": 1, "u2": 1},
        marked=("u0", "u1", "u2"),
    )
    curve = TropicalCurve(graph=graph, positions={"v0": as_point((0, 0, 0))}, n=3)
    constraints = [
        AffineConstraint.through((-3, 0, 0), [(0, 1, 1)]),
        AffineConstraint.through((0, -5, 0), [(1, 0, 1)]),
        AffineConstraint.through((2, 2, 0), [direction]),
    ]
    return curve, constraints


def test_count_pipeline_spatial_line_with_line_constraints():
    # planar tropical line in Q^3 matched against three affine lines; the
    # counting formulas are dimension generic even though enumeration is not
    curve, constraints = spatial_line_fixture()
    from tropcount.incidence import match_marked_edges

    marks = match_marked_edges(curve, constraints)
    assert marks == ("u0", "u1", "u2")

    complex_report = count_complex([(curve, marks)], constraints)
    assert complex_report.n_trop >= 1
    for sign_t in (1, -1):
        signs = RealPointConfig(signs=((1, 1, -1), (-1, 1, 1), (1, -1, 1)))
        real_report = count_real([(curve, marks)], constraints, signs, sign_t)
        assert real_report.n_real_trop % 2 == complex_report.n_trop % 2
        assert 0 <= real_report.n_real_trop <= complex_report.n_trop


DATA = Path(__file__).parent.parent / "bench" / "data"


def stored_d3_set(path):
    """A stored d=3 curve set: its curves with their marks, and its point
    constraints."""
    doc = json.loads(path.read_text())
    config = PointConfiguration.explicit([[Fraction(x) for x in p] for p in doc["points"]])
    return [curve_from_json(c) for c in doc["curves"]], config.constraints()


def generic_d3_set():
    """The stored generic d=3 set: 9 curves, one of them with a weight-2
    edge whose lattice map has invariant factor 2."""
    return stored_d3_set(DATA / "d3-generic-1.json")


def lattice_route_digest():
    """sha256 of every T_h matrix, its constraint projections and the
    constraint inclusion indices, over the four stored d=3 sets and the
    Mikhalkin seeds 0, 3 and 7 at d = 1..3, each curve built fresh."""
    problems = [stored_d3_set(path) for path in sorted(DATA.glob("d3-*.json"))]
    for seed in (0, 3, 7):
        for d in (1, 2, 3):
            config = PointConfiguration.mikhalkin(3 * d - 1, seed)
            curves = enumerate_curves(0, Degree.projective(d), config)
            problems.append((curves, config.constraints()))
    outputs = []
    for curves, constraints in problems:
        for curve, marks in curves:
            th = build_T_h(curve, constraints, marks)
            bundles = curve_lattice(curve, constraints, marks).constraint_bundles
            outputs.append((th.matrix, th.constraint_projections, bundles))
    return len(outputs), hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_lattice_route_is_pinned():
    """The lattice route's exact outputs, not only their indices: the T_h
    blocks are read off Smith-form witnesses, so a change to which
    projection the memos keep shows here even when every count holds.
    The digest was taken before the Hermite form was deleted."""
    assert lattice_route_digest() == (
        72,
        "640fb3ccc8a35205f925068a630aee193b71246c786a1ee8c9fe8a3b0956487a",
    )


def test_sign_sweep_builds_each_lattice_map_once(monkeypatch):
    curves, constraints = generic_d3_set()
    reference = []
    for curve, marks in curves:
        th = build_T_h(curve, constraints, marks)
        a_product = prod(b.real_index for b in constraint_indices(th, constraints))
        reference.append((th, real_index(th.matrix).real_index, a_product))
    built = []
    monkeypatch.setattr(
        counting, "build_T_h", lambda *args: built.append(args) or build_T_h(*args)
    )
    rng = random.Random(3)
    sweep = [RealPointConfig.all_positive(len(constraints), 2)] + [
        RealPointConfig(
            signs=tuple(tuple(rng.choice((1, -1)) for _ in range(2)) for _ in constraints)
        )
        for _ in range(8)
    ]
    twisted = set()
    for signs in sweep:
        for sign_t in (1, -1):
            expected = []
            for (curve, _), (th, index, a_product) in zip(curves, reference):
                sigma = sigma_sign_class(th, constraints, signs, sign_t)
                t = index if f2_solve(th.matrix, sigma.bits) is not None else 0
                weight = total_real_weight(curve)
                expected.append(RealRow(weight, t, a_product, weight * t * a_product))
                twisted.add(t)
            report = count_real(curves, constraints, signs, sign_t)
            assert report.rows == tuple(expected)
    assert twisted >= {0, 2}
    assert len(built) == len(curves)


class CurveOnlyRecords(dict):
    """A record store that ignores (constraints, marks): one record per curve."""

    def get(self, key, default=None):
        return super().get(None, default)

    def __setitem__(self, key, value):
        super().__setitem__(None, value)


def shared_and_fresh_answers(records=None):
    """Complex and real counts of one curve object against two sets of line
    constraints, each beside the counts of a fresh curve."""
    shared = spatial_line_fixture()[0]
    if records is not None:
        object.__setattr__(shared, "lattice_records", records)
    signs = RealPointConfig(signs=((1, 1, -1), (-1, 1, 1), (1, -1, 1)))
    out = []
    for direction in ((1, -1, 2), (1, -3, 2)):
        fresh, constraints = spatial_line_fixture(direction)
        answers = []
        for curve in (shared, fresh):
            pair = [(curve, ("u0", "u1", "u2"))]
            answers.append(
                (count_complex(pair, constraints),)
                + tuple(count_real(pair, constraints, signs, t) for t in (1, -1))
            )
        out.append(answers)
    return out


def test_lattice_records_are_keyed_by_constraints_and_marks():
    (a_shared, a_fresh), (b_shared, b_fresh) = shared_and_fresh_answers()
    assert a_fresh[0].n_trop != b_fresh[0].n_trop  # different lattice data
    assert a_shared == a_fresh and b_shared == b_fresh
    # negative control: a record keyed on the curve alone answers the second
    # input with the first one's lattice data
    (a_shared, a_fresh), (b_shared, b_fresh) = shared_and_fresh_answers(CurveOnlyRecords())
    assert a_shared == a_fresh and b_shared != b_fresh


def test_lattice_records_leave_no_cycle():
    # the record lives on the curve and must not refer back to it, or every
    # counted curve would wait for the cyclic collector
    curve, constraints = spatial_line_fixture()
    gc.disable()
    try:
        count_complex([(curve, ("u0", "u1", "u2"))], constraints)
        assert len(curve.lattice_records) == 1
        ref = weakref.ref(curve)
        del curve
        assert ref() is None
    finally:
        gc.enable()


def lattice_answers(problem):
    """count_complex's report on fresh curves of a problem, and each curve's
    T_h built anew."""
    curves, constraints = problem()
    report = count_complex(curves, constraints)
    return report, [build_T_h(curve, constraints, marks) for curve, marks in curves]


def spatial_line_problem():
    curve, constraints = spatial_line_fixture()
    return [(curve, ("u0", "u1", "u2"))], constraints


def memo_sizes():
    return (
        incidence._projection.cache_info().currsize,
        len(counting._inclusion_indices),
    )


def test_warm_lattice_memos_answer_as_cold_ones(fresh_lattice_memos):
    # quotient bases are not canonical: a block read from the memo must be
    # the very matrix a cold build gives, on point and on line constraints
    problems = [lambda p=p: stored_d3_set(p) for p in sorted(DATA.glob("d3-*.json"))]
    problems.append(spatial_line_problem)
    assert len(problems) == 5
    cold = []
    for problem in problems:
        fresh_lattice_memos()
        cold.append(lattice_answers(problem))
    for problem in problems:
        lattice_answers(problem)
    warm = memo_sizes()
    for problem, answers in zip(problems, cold):
        assert lattice_answers(problem) == answers
    assert memo_sizes() == warm  # every block came from the memos
    assert incidence._projection.cache_info().hits > 0


def d3_direction_bound(types):
    """The edge directions T_h can read on a d=3 curve: each bounded edge of
    a type as T_h orients it, towards the lexicographically larger end, and
    each ray."""
    directions = set()
    for t in types:
        for e in t.edges:
            if e.head is None:
                directions.add(e.prim)
            else:
                directions.add(max(e.prim, tuple(-x for x in e.prim)))
    return directions


def test_lattice_memos_are_bounded_by_the_degree(monkeypatch, fresh_lattice_memos, d3_types):
    # the memos are keyed on directions only, never on a base point, so
    # however many problems they serve they hold no more than the degree's
    # directions; a problem that brings no new direction runs one Smith form
    # per curve, its T_h's
    calls = []
    snf = exact_lattice.smith_normal_form
    for module in (exact_lattice, incidence, counting):
        monkeypatch.setattr(module, "smith_normal_form", lambda m: calls.append(m) or snf(m))
    rng = random.Random(35)
    solved = settled = 0
    while solved < 20:
        points = [tuple(rng.randint(-(10**6), 10**6) for _ in range(2)) for _ in range(8)]
        config = PointConfiguration.explicit(points)
        try:
            curves = enumerate_curves(0, Degree.projective(3), config)
        except GenericityFailure:
            continue
        constraints = config.constraints()
        before = memo_sizes()
        calls.clear()
        count_complex(curves, constraints)
        new_blocks, new_indices = (b - a for a, b in zip(before, memo_sizes()))
        # a new block costs the Smith form of its generators; a new inclusion
        # index costs that of its generators and that of the inclusion
        assert len(calls) == len(curves) + new_blocks + 2 * new_indices
        solved += 1
        settled += memo_sizes() == before
    assert settled >= 10
    directions = d3_direction_bound(d3_types)
    point = IntMatrix.from_columns([], rows=2)
    assert set(counting._inclusion_indices) <= {(u, point) for u in directions}
    assert memo_sizes()[0] <= len(directions)


def test_vertex_multiplicities_are_computed_once_per_vertex(monkeypatch):
    from tropcount import tropical

    curve, _, _ = line_fixture()
    computed = []
    compute = tropical._vertex_multiplicities
    monkeypatch.setattr(
        tropical, "_vertex_multiplicities", lambda c, v: computed.append(v) or compute(c, v)
    )
    first = vertex_multiplicities(curve, "v0")
    assert vertex_multiplicities(curve, "v0") is first and computed == ["v0"]
    assert first.mult == 1
    # errors are raised per vertex, on every call, and never kept
    spatial = spatial_line_fixture()[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="plane curves"):
            vertex_multiplicities(spatial, "v0")
    assert spatial._multiplicities == {}
