import functools
import gc
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from tropcount import enumeration
from tropcount.cli import curve_from_json
from tropcount.counting import count_real
from tropcount.enumeration import (
    CombinatorialType,
    PointConfiguration,
    TypeEdge,
    UnsupportedGenus,
    _last_leaf_fits,
    _rooted,
    _type_from_tree,
    enumerate_curves,
    enumerate_types,
    solve_positions,
)
from tropcount.exact_lattice import solve_unique_rational, vector_gcd
from tropcount.incidence import RealPointConfig, match_marked_edges
from tropcount.tropical import (
    Degree,
    TropicalCurve,
    TropicalGraph,
    as_point,
    check_balancing,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
    segment_param,
)

from conftest import watch


GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "bench" / "data"


def _trees(num_leaves, stop=None):
    """All trivalent trees on leaves 0..n-1, or on leaves 0..stop-1 if
    given; internal nodes are n, n+1, ...

    Iterative leaf insertion: each tree on k leaves arises from a unique
    (tree on k-1 leaves, edge) pair, so every tree is produced exactly once.
    enumerate_types walks the same trees in the same order, pruned.
    """

    def insert(edges, leaf, internal):
        if leaf == (num_leaves if stop is None else stop):
            yield edges
            return
        for i, (a, b) in enumerate(edges):
            new_edges = (
                edges[:i] + ((a, internal), (internal, b), (internal, leaf)) + edges[i + 1 :]
            )
            yield from insert(new_edges, leaf + 1, internal + 1)

    base = ((0, num_leaves), (1, num_leaves), (2, num_leaves))
    yield from insert(base, 3, num_leaves + 1)


def test_tree_counts():
    # (2n - 5)!! trivalent trees on n labelled leaves
    double_factorial = 1
    for num_leaves in range(3, 9):
        assert sum(1 for _ in _trees(num_leaves)) == double_factorial
        double_factorial *= 2 * num_leaves - 3


# --- reference: build every non-flat tree, then key the built type ----------
#
# A type is built from every non-flat labelled tree and keyed by the AHU form
# of the built type.  enumerate_types, which keys a tree before building it,
# must give the same types in the same order with the same numbering.


def _reference_type_from_tree(tree_edges, leaf_vecs, num_leaves):
    nodes = {a for e in tree_edges for a in e}
    internal = sorted(n for n in nodes if n >= num_leaves)
    vertex_index = {n: i for i, n in enumerate(internal)}

    adjacency = {n: [] for n in nodes}
    for i, (a, b) in enumerate(tree_edges):
        adjacency[a].append((b, i))
        adjacency[b].append((a, i))

    root = internal[0]
    order = []
    parent_of = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child, _ in adjacency[node]:
            if child != parent_of.get(node):
                parent_of[child] = node
                stack.append(child)
    below = {}
    for node in reversed(order):
        if node < num_leaves:
            below[node] = leaf_vecs[node]
            continue
        sums = [below[child] for child, _ in adjacency[node] if child != parent_of[node]]
        (ax, ay), (bx, by) = sums[0], sums[1]
        if ax * by - ay * bx == 0:
            return None
        below[node] = (sum(v[0] for v in sums), sum(v[1] for v in sums))

    edges = []
    for a, b in tree_edges:
        if a < num_leaves or b < num_leaves:
            leaf, vert = (a, b) if a < num_leaves else (b, a)
            tail, head, vec = vertex_index[vert], None, leaf_vecs[leaf]
        else:
            child = b if parent_of[b] == a else a
            tail, head = (a, b) if child == b else (b, a)
            tail, head, vec = vertex_index[tail], vertex_index[head], below[child]
        w = vector_gcd(vec)
        edges.append(TypeEdge(tail, head, vec, w, tuple(x // w for x in vec)))
    return CombinatorialType(len(internal), tuple(edges), False)


def _reference_key(ctype):
    adjacency = {v: [] for v in range(ctype.num_vertices)}
    internal_neighbors = {v: [] for v in range(ctype.num_vertices)}
    for e in ctype.edges:
        if e.head is None:
            adjacency[e.tail].append((e.vec, -1))
        else:
            adjacency[e.tail].append((e.vec, e.head))
            adjacency[e.head].append((tuple(-x for x in e.vec), e.tail))
            internal_neighbors[e.tail].append(e.head)
            internal_neighbors[e.head].append(e.tail)

    remaining = set(range(ctype.num_vertices))
    degree = {v: len(internal_neighbors[v]) for v in remaining}
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for w in internal_neighbors[v]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt

    def canon(node, parent):
        parts = []
        for vec, other in adjacency[node]:
            if other != parent:
                parts.append((vec, () if other == -1 else canon(other, node)))
        return tuple(sorted(parts))

    return min(canon(root, -2) for root in sorted(remaining))


def _bidegree(a, b):
    return Degree({(-1, 0): a, (1, 0): a, (0, -1): b, (0, 1): b})


# name -> (degree, number of types)
EQUIVALENCE_DEGREES = {
    "P2-d1": (Degree.projective(1), 1),
    "P2-d2": (Degree.projective(2), 4),
    "P1xP1-(1,1)": (_bidegree(1, 1), 2),
    "P1xP1-(1,2)": (_bidegree(1, 2), 6),
    "P1xP1-(2,2)": (_bidegree(2, 2), 98),
    "cut-triangle": (Degree({(0, -1): 3, (-1, 0): 2, (0, 1): 1, (1, 1): 2}), 74),
    "weight-2-end": (Degree({(-1, 0): 2, (0, -1): 2, (2, 2): 1}), 2),
}


@functools.lru_cache(maxsize=None)
def _reference_types(name):
    degree, _ = EQUIVALENCE_DEGREES[name]
    leaf_vecs = [tuple(v) for v, count in degree.items() for _ in range(count)]
    seen = set()
    out = []
    for tree_edges in _trees(len(leaf_vecs)):
        ctype = _reference_type_from_tree(tree_edges, leaf_vecs, len(leaf_vecs))
        if ctype is None:
            continue
        key = _reference_key(ctype)
        if key not in seen:
            seen.add(key)
            out.append(ctype)
    return out


@pytest.mark.parametrize("name", EQUIVALENCE_DEGREES)
def test_enumerate_types_equals_building_every_tree(name):
    # same types, order, representatives and numbering as building each
    # non-flat tree and keying the built type
    degree, count = EQUIVALENCE_DEGREES[name]
    expected = _reference_types(name)
    assert len(expected) == count
    assert enumerate_types(0, degree) == expected


@pytest.mark.parametrize("name", ["P2-d2", "P1xP1-(2,2)", "cut-triangle", "weight-2-end"])
def test_last_leaf_fits_are_the_leaf_sums_test(name):
    """On every tree on all leaves but the last, ``_last_leaf_fits`` names
    exactly the edges where inserting the last leaf gives a tree that
    ``_type_from_tree`` builds, one with no flat vertex and no zero edge;
    trees with and without such an edge both occur."""
    degree, _ = EQUIVALENCE_DEGREES[name]
    leaf_vecs = [tuple(v) for v, count in degree.items() for _ in range(count)]
    n = len(leaf_vecs)
    internal = 2 * n - 3
    kinds = set()
    for tree_edges in _trees(n, n - 1):
        expected = [
            i
            for i, (a, b) in enumerate(tree_edges)
            for child in [tree_edges[:i] + ((a, internal), (internal, b), (internal, n - 1))]
            for whole in [child + tree_edges[i + 1 :]]
            if _type_from_tree(whole, _rooted(whole, n), leaf_vecs) is not None
        ]
        assert _last_leaf_fits(tree_edges, _rooted(tree_edges, n), leaf_vecs) == expected
        kinds.add(bool(expected))
    assert kinds == {False, True}


def test_last_leaf_prune_bites(monkeypatch):
    """The d=3 walk keys fewer trees with the prune than with every edge
    fitting, and builds the same types."""
    keyed = []
    watch(monkeypatch, "_tree_key", lambda key, *args: keyed.append(key))
    test_enumerate_types_degree_three_matches_golden()
    pruned = len(keyed)
    keyed.clear()
    monkeypatch.setattr(
        enumeration, "_last_leaf_fits", lambda tree_edges, *args: list(range(len(tree_edges)))
    )
    test_enumerate_types_degree_three_matches_golden()
    assert pruned < len(keyed)


def test_equivalence_fails_when_the_key_drops_its_labels(monkeypatch):
    tree_key = enumeration._tree_key

    def unlabelled(rooted, leaf_chars):
        return tree_key(rooted, "a" * len(leaf_chars))

    monkeypatch.setattr(enumeration, "_tree_key", unlabelled)
    # distinct classes of the same shape now merge
    with pytest.raises(AssertionError):
        test_enumerate_types_equals_building_every_tree("P1xP1-(2,2)")


def test_orderly_prune_bites(monkeypatch):
    tree_key = enumeration._tree_key
    keyed = []
    watch(monkeypatch, "_tree_key", lambda key, *args: keyed.append(key))
    assert len(enumerate_types(0, Degree.projective(3))) == 80
    # the walk keys a few partial trees, not all 13!! = 135,135 labelled trees
    assert len(keyed) < 2_000

    def never_prunes(rooted, leaf_chars):
        _, _, internal = rooted
        if len(internal) < len(leaf_chars) - 2:
            return object()  # equal to no other key
        return tree_key(rooted, leaf_chars)

    # walking every labelled tree and keying only whole ones gives the same types
    monkeypatch.setattr(enumeration, "_tree_key", never_prunes)
    test_enumerate_types_degree_three_matches_golden()


def test_enumerate_types_builds_each_type_once(monkeypatch):
    calls = []
    watch(monkeypatch, "_type_from_tree", lambda ctype, *args: calls.append(ctype))
    types = enumerate_types(0, _bidegree(2, 2))
    assert len(calls) == len(types) == 98


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


def _flat_vertices(ctype):
    directions = {v: [] for v in range(ctype.num_vertices)}
    for e in ctype.edges:
        directions[e.tail].append(e.vec)
        if e.head is not None:
            directions[e.head].append(tuple(-x for x in e.vec))
    return [
        v
        for v, vecs in directions.items()
        if all(a[0] * b[1] - a[1] * b[0] == 0 for a in vecs for b in vecs)
    ]


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of a degree's build: of the repr of its kept systems' tables (each
# system's type included), in type order, and of the dual cones of their
# distinct cone entries, in sorted order
BUILD_PINS = {
    3: (
        "e03eab6fc0c8f064a8b2fdff6c31555c5dc431678cf3842ff4f19b8bbe7c72df",
        "2d0617767434d13beb6e7f99e028cab101832869d73005ea02af68d4eaae21c7",
    ),
    4: (
        "34c34979067a90736b79c4178c7c48f5d7c1a5b0ccf96c97b3a365b16c9fc49f",
        "a92b1a3a132ece9819e95f0dd6d125f998ce6b1443fb6e3b34f2c7142f5d528d",
    ),
}


def _build_digests(degree):
    systems = enumeration._degree_systems(degree)
    cones = sorted({dirs for system in systems for row in system.cones for dirs in row})
    return _sha256([vars(system) for system in systems]), _sha256(
        [enumeration._dual_cone(dirs) for dirs in cones]
    )


def test_degree_three_build_is_pinned(fresh_systems):
    """The d = 3 build, types, tables and dual cones, is the one pinned:
    a change to how it is built must not change what it builds."""
    assert _build_digests(Degree.projective(3)) == BUILD_PINS[3]


@pytest.mark.slow
def test_enumerate_types_degree_four(fresh_systems):
    types = enumerate_types(0, Degree.projective(4))
    assert len(types) == 2818
    assert not any(_flat_vertices(t) for t in types)
    assert len({_reference_key(t) for t in types}) == len(types)
    # the types in order, with their numbering, then their systems
    assert _sha256(types) == "1319f7839f0cc9d06fb3aaebd3c433abf13fbbf116beb894238be040419d9b94"
    assert _build_digests(Degree.projective(4)) == BUILD_PINS[4]


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


def test_solve_positions_rejects_a_flat_vertex():
    """A vertex with ends (2, 0), (-1, 0), (-1, 0) has no two independent
    normals, so no solving pair: with both points on its line the values
    exist, and every plan still gives None."""
    ends = [TypeEdge(0, None, (2, 0), 2, (1, 0))] + [TypeEdge(0, None, (-1, 0), 1, (-1, 0))] * 2
    ctype = CombinatorialType(1, tuple(ends), True)
    system = enumeration._TypeSystem(ctype)
    assert system.solve_pairs == (None,)
    config = PointConfiguration.explicit([(5, 0), (-4, 0)])
    pins = [[m1 * x + m2 * y for m1, m2 in system.normals] for x, y in config.points]
    for a, b in itertools.combinations(range(3), 2):
        plan = {0: a, 1: b}
        assert enumeration._cascade_values(system, pins, plan) == [0, 0, 0]
        assert solve_positions(ctype, config, plan) is None


def quota_edges(rng, system, count):
    """``count`` distinct edges such that every part of the type cut at
    them keeps an end and, at ell = ends - 1 edges, has exactly one: a
    plan with a unique solution for generic points.  Each edge is drawn
    from a part with an end to spare, and never leaves a side without one."""
    parts, edges = [(1 << system.num_edges) - 1], []

    def ends(part):
        return (part & system.ends).bit_count()

    while len(edges) < count:
        spare = [part for part in parts if ends(part) > 1]
        if not spare:
            break
        part = rng.choice(spare)
        edge = rng.choice([e for e in range(system.num_edges) if part >> e & 1])
        sides = [part & side for side in system.cuts[edge]]
        if all(ends(side) for side in sides):
            parts.remove(part)
            parts += sides
            edges.append(edge)
    return edges


def random_plan(rng, system, ell):
    """Points and a plan for one random system: one point too few, just
    enough or one too many, on edges with one end per part of the cut
    type, on distinct edges, or on edges that may repeat; a repeated
    edge's second point is half the time on the first one's line."""
    size = ell + rng.choice((-1, 0, 1))
    kind = rng.randrange(3)
    if kind == 0:
        edges = quota_edges(rng, system, size)
        edges += [rng.randrange(system.num_edges) for _ in range(size - len(edges))]
    elif kind == 1:
        edges = rng.sample(range(system.num_edges), size)
    else:
        edges = [rng.randrange(system.num_edges) for _ in range(size)]
    points, plan = [], {}
    for j, edge in enumerate(edges):
        while True:
            if edge in edges[:j] and rng.random() < 0.5:
                x, y = points[edges.index(edge)]
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                u = system.ctype.edges[edge].prim
                p = (x + t * u[0], y + t * u[1])
            else:
                p = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 3)) for _ in range(2))
            if p not in points:
                break
        points.append(p)
        plan[j] = edge
    return PointConfiguration(tuple(points)), plan


def _unique_values(system, config, plan):
    """The unique rational solution of the vertex equations and the pins
    of the plan, or None."""
    edges = range(system.num_edges)
    rows = [[dict(terms).get(i, 0) for i in edges] for terms in system.vertex_eqs]
    rhs = [0] * len(rows)
    for j, edge in plan.items():
        rows.append([int(i == edge) for i in edges])
        (m1, m2), (x, y) = system.normals[edge], config.points[j]
        rhs.append(m1 * x + m2 * y)
    return solve_unique_rational(rows, rhs)


def test_cascade_values_equal_the_unique_rational_solve(d3_types):
    """On random systems at d <= 3 the vertex cascade finds a solution
    exactly when the linear system of the vertex equations and the pins
    has a unique one, and it is that one."""
    rng = random.Random(5)
    types = {d: enumerate_types(0, Degree.projective(d)) for d in (1, 2)}
    types[3] = rng.sample(d3_types, 12)
    systems = {d: [enumeration._TypeSystem(t) for t in ts] for d, ts in types.items()}
    unique = {1: 0, 2: 0, 3: 0}
    for _ in range(240):
        d = rng.choice((1, 2, 3))
        system = rng.choice(systems[d])
        config, plan = random_plan(rng, system, 3 * d - 1)
        expected = _unique_values(system, config, plan)
        pins = [[m1 * x + m2 * y for m1, m2 in system.normals] for x, y in config.points]
        found = enumeration._cascade_values(system, pins, plan)
        assert (found is None) == (expected is None), (system.ctype, plan)
        if found is not None:
            assert tuple(found) == expected
            unique[d] += 1
    assert min(unique.values()) >= 10


def _fraction_rule(system, config, plan):
    """The acceptance rule on Fractions, as ``solve_positions`` once ran
    it: the unique values of the vertex equations and the pins, each vertex
    where its edges' lines meet, and ``segment_param`` along each bounded
    edge and each point's edge, rejecting a length or parameter <= 0 and a
    parameter >= its edge's length.  The positions by vertex id and the
    marks, or None."""
    ctype = system.ctype
    values = _unique_values(system, config, plan)
    if values is None:
        return None
    positions = [
        solve_unique_rational([system.normals[i] for i, _ in terms], [values[i] for i, _ in terms])
        for terms in system.vertex_eqs
    ]
    lengths = {}
    for i in ctype.bounded_indices():
        e = ctype.edges[i]
        lengths[i] = segment_param((positions[e.tail], e.prim, False), positions[e.head])
        if lengths[i] is None or lengths[i] <= 0:
            return None
    for j, edge in plan.items():
        e = ctype.edges[edge]
        t = segment_param((positions[e.tail], e.prim, False), config.points[j])
        if t is None or t <= 0 or (e.head is not None and t >= lengths[edge]):
            return None
    ids = {i: "b%d" % n for n, i in enumerate(ctype.bounded_indices())}
    ids.update((i, "u%d" % n) for n, i in enumerate(ctype.unbounded_indices()))
    marks = tuple(ids[plan[j]] for j in sorted(plan))
    return {"v%d" % v: p for v, p in enumerate(positions)}, marks


def _points_on(system, lengths, params):
    """The configuration of the points at ``params`` (edge, t) along their
    edges, from the tail, on the type's curve with vertex 0 at the origin
    and bounded edge i of length ``lengths[i]``."""
    edges = system.ctype.edges
    where = {0: (0, 0)}
    while len(where) < system.ctype.num_vertices:
        for i, e in enumerate(edges):
            if e.head is None or (e.tail in where) == (e.head in where):
                continue
            (u1, u2), t = e.prim, lengths[i]
            if e.tail in where:
                x, y = where[e.tail]
                where[e.head] = (x + t * u1, y + t * u2)
            else:
                x, y = where[e.head]
                where[e.tail] = (x - t * u1, y - t * u2)
    points = []
    for i, t in params:
        (x, y), (u1, u2) = where[edges[i].tail], edges[i].prim
        points.append(as_point((x + t * u1, y + t * u2)))
    return PointConfiguration(tuple(points))


def _curve_plan(rng, system, ell):
    """Points on a curve of the type, or None: a plan of ``ell`` edges with
    one end per part of the cut type, bounded lengths from 0 to 3, and each
    point inside its edge, or a tenth of the time behind, at an end of or
    beyond its edge."""
    plan_edges = quota_edges(rng, system, ell)
    if len(plan_edges) < ell:
        return None
    lengths = {
        i: Fraction(rng.randint(1, 6), 2) if rng.random() < 0.9 else 0
        for i in system.ctype.bounded_indices()
    }
    params = []
    for i in plan_edges:
        length = lengths.get(i, Fraction(rng.randint(1, 6), 2))
        if rng.random() < 0.1:
            params.append((i, rng.choice((-1, 0, length, length + 1))))
        else:
            params.append((i, length * Fraction(rng.randint(1, 9), 10)))
    try:
        return _points_on(system, lengths, params), dict(enumerate(plan_edges))
    except ValueError:  # two points at one place
        return None


def test_integer_solve_accepts_as_the_fraction_rule(d3_types):
    """On random plans and random points on curves at d <= 3, and on d = 2
    curves with a zero bounded edge or a point at an end of its edge,
    ``solve_positions`` accepts exactly the plans the Fraction rule
    accepts, with its positions and marks."""
    rng = random.Random(34)
    types = {d: enumerate_types(0, Degree.projective(d)) for d in (1, 2)}
    types[3] = rng.sample(d3_types, 12)
    systems = {d: [enumeration._TypeSystem(t) for t in ts] for d, ts in types.items()}
    cases = []
    for draw in range(480):
        d = rng.choice((1, 2, 3))
        system = rng.choice(systems[d])
        drawn = (random_plan if draw % 2 else _curve_plan)(rng, system, 3 * d - 1)
        if drawn is not None:
            cases.append((system,) + drawn)
    # a d = 2 curve with its points inside their edges, then with a bounded
    # edge off the plan shrunk to 0, a point at its edge's tail, and a
    # bounded edge's point at its head
    system = systems[2][0]
    plan_edges = quota_edges(random.Random(1), system, 5)
    plan = dict(enumerate(plan_edges))
    bounded = system.ctype.bounded_indices()
    lengths = {i: Fraction(n + 2) for n, i in enumerate(bounded)}
    mid = [(i, lengths.get(i, 1) / 2) for i in plan_edges]
    cut = next(i for i in bounded if i not in plan_edges)
    k = next(n for n, i in enumerate(plan_edges) if i in bounded)
    assert solve_positions(system.ctype, _points_on(system, lengths, mid), plan) is not None
    for case_lengths, params in [
        ({**lengths, cut: 0}, mid),
        (lengths, [(plan_edges[0], 0)] + mid[1:]),
        (lengths, mid[:k] + [(plan_edges[k], lengths[plan_edges[k]])] + mid[k + 1 :]),
    ]:
        config = _points_on(system, case_lengths, params)
        assert _fraction_rule(system, config, plan) is None
        cases.append((system, config, plan))
    accepted = 0
    for system, config, plan in cases:
        expected = _fraction_rule(system, config, plan)
        solved = solve_positions(system.ctype, config, plan)
        assert (solved is None) == (expected is None), (system.ctype, config, plan)
        if solved is not None:
            curve, marks = solved
            assert (curve.positions, marks) == expected
            accepted += 1
    assert accepted >= 100 and len(cases) - accepted >= 100


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
        # a tree moves by the position of one vertex and its edge lengths,
        # the expected dimension (n - 3)(1 - genus) + |degree| = -1 + 6
        assert 2 + len(curve.graph.bounded_edges) == -1 + 6


def test_enumerate_curves_leaves_no_reference_cycles():
    # A self-calling closure in the type walk or the search would leave its
    # state for the cyclic collector after every call; count what it finds.
    config = PointConfiguration.mikhalkin(5, 7)
    enumerate_curves(0, Degree.projective(2), config)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        enumerate_curves(0, Degree.projective(2), config)
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert found == 0


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


# The lattice maps that permute the ends of P^2 map the curves through some
# points onto the curves through their images; a search or prune that
# favoured one direction would miss some image.
P2_ENDS = ((-1, 0), (0, -1), (1, 1))
GENERIC_P2_POINTS = {
    1: [(276, -476), (520, -265)],
    2: [(629, 415), (931, 724), (516, 336), (889, 86), (-940, 722)],
}


def _apply(matrix, p):
    return (matrix[0][0] * p[0] + matrix[0][1] * p[1], matrix[1][0] * p[0] + matrix[1][1] * p[1])


def _shape(curve, marks, matrix=((1, 0), (0, 1))):
    """Vertex positions, edges and the edge of each point, mapped by the
    matrix, in a form that forgets vertex and edge names."""
    pos = {v: _apply(matrix, p) for v, p in curve.positions.items()}
    edges = {}
    for i, (t, h) in enumerate(curve.graph.bounded_edges):
        edges["b%d" % i] = (tuple(sorted((pos[t], pos[h]))), curve.weight("b%d" % i))
    for i, (v, d) in enumerate(curve.graph.unbounded_edges):
        edges["u%d" % i] = ((pos[v], _apply(matrix, d)), curve.weight("u%d" % i))
    return sorted(pos.values()), sorted(edges.values()), [edges[e] for e in marks]


@pytest.mark.parametrize("d", sorted(GENERIC_P2_POINTS))
@pytest.mark.parametrize("ends", list(itertools.permutations(P2_ENDS)), ids=str)
def test_enumerate_curves_commutes_with_permuting_the_ends(d, ends):
    # the lattice map sending (-1, 0) to ends[0] and (0, -1) to ends[1]
    # sends (1, 1), their negated sum, to ends[2]
    (ax, ay), (bx, by), _ = ends
    matrix = ((-ax, -bx), (-ay, -by))
    points = GENERIC_P2_POINTS[d]
    curves = enumerate_curves(0, Degree.projective(d), PointConfiguration.explicit(points))
    images = enumerate_curves(
        0, Degree.projective(d), PointConfiguration.explicit([_apply(matrix, p) for p in points])
    )
    for found in (curves, images):
        assert sum(curve_mikhalkin_mults(c)[0] for c, _ in found) == 1
        assert sum(curve_welschinger_mult(c) for c, _ in found) == 1
    mapped = sorted(_shape(c, m, matrix) for c, m in curves)
    assert mapped == sorted(_shape(c, m) for c, m in images)


@pytest.mark.slow
def test_enumerate_curves_commutes_with_permuting_the_ends_d3():
    """The same at d=3, on the stored generic points of
    bench/data/d3-generic-1, whose curves have a weight-2 bounded edge:
    each of the six images has N/W = 12/8 and the mapped curves."""
    doc = json.loads((DATA / "d3-generic-1.json").read_text())
    points = [as_point(p) for p in doc["points"]]
    curves = enumerate_curves(0, Degree.projective(3), PointConfiguration.explicit(points))
    for ends in itertools.permutations(P2_ENDS):
        (ax, ay), (bx, by), _ = ends
        matrix = ((-ax, -bx), (-ay, -by))
        image = PointConfiguration.explicit([_apply(matrix, p) for p in points])
        images = enumerate_curves(0, Degree.projective(3), image)
        assert sum(curve_mikhalkin_mults(c)[0] for c, _ in images) == 12, ends
        assert sum(curve_welschinger_mult(c) for c, _ in images) == 8, ends
        mapped = sorted(_shape(c, m, matrix) for c, m in curves)
        assert mapped == sorted(_shape(c, m) for c, m in images), ends


def test_real_counts_commute_with_permuting_the_ends_d3():
    """The monomial map z -> z^M of an end-permuting M is an automorphism
    of P^2, so it maps the real curves through real points of signs s_j onto
    those through the image points, of signs s'_k = prod_l s_l^(M_kl mod 2)
    and the same sign of t: N_R agrees on a seeded sample of settings for
    the points of bench/data/d3-generic-1 and each of the six images.

    The check bites on a fault that reads coordinates in the wrong frame,
    such as a sign class with each point's sign pair swapped.  A fault the
    map commutes with, such as a flipped bit of every sign class or a
    dropped sign of t, errs alike on both sides and stays green."""
    doc = json.loads((DATA / "d3-generic-1.json").read_text())
    points = [as_point(p) for p in doc["points"]]
    config = PointConfiguration.explicit(points)
    curves = enumerate_curves(0, Degree.projective(3), config)
    rng = random.Random(10)
    counts = set()
    for ends in itertools.permutations(P2_ENDS):
        (ax, ay), (bx, by), _ = ends
        matrix = ((-ax, -bx), (-ay, -by))
        image = PointConfiguration.explicit([_apply(matrix, p) for p in points])
        images = enumerate_curves(0, Degree.projective(3), image)
        for _ in range(48):
            signs = tuple(tuple(rng.choice((1, -1)) for _ in range(2)) for _ in points)
            mapped = tuple(
                tuple(prod(s[l] ** (row[l] % 2) for l in range(2)) for row in matrix)
                for s in signs
            )
            sign_t = rng.choice((1, -1))
            n_real = count_real(curves, config.constraints(), RealPointConfig(signs), sign_t)
            n_image = count_real(images, image.constraints(), RealPointConfig(mapped), sign_t)
            assert n_real.n_real_trop == n_image.n_real_trop, (ends, signs, sign_t)
            counts.add(n_real.n_real_trop)
    assert len(counts) > 1, counts


# generic integer points beyond P^2, and (N, number of curves) through them
NO_DROP_POINTS = {
    "P1xP1-(1,1)": ([(958, 768), (942, 739), (-884, -812)], 1, 1),
    "P1xP1-(1,2)": ([(-826, -260), (712, -653), (508, 657), (372, 749), (-368, -484)], 1, 1),
    "P1xP1-(2,2)": (
        [(-926, 784), (-943, -254), (-47, 909), (-347, 860), (-221, -132), (827, 811), (77, -663)],
        12,
        9,
    ),
    "cut-triangle": (
        [(241, -565), (243, -926), (191, 396), (-675, -117), (308, -194), (646, 481), (762, 43)],
        12,
        9,
    ),
    "weight-2-end": ([(945, -238), (115, 917), (-88, 29), (-450, 846)], 2, 1),
}


@pytest.mark.parametrize("name", list(NO_DROP_POINTS))
def test_part_quotas_drop_no_curve(name, relax_quotas):
    degree, _ = EQUIVALENCE_DEGREES[name]
    points, total, count = NO_DROP_POINTS[name]
    config = PointConfiguration.explicit(points)
    curves = enumerate_curves(0, degree, config)
    assert (sum(curve_mikhalkin_mults(c)[0] for c, _ in curves), len(curves)) == (total, count)
    relax_quotas()
    assert enumerate_curves(0, degree, config) == curves


def test_second_problem_of_a_degree_reads_the_memo(monkeypatch, fresh_systems):
    """A second problem of one degree builds no types and no systems, and
    finds the curves a process with an empty memo finds."""
    degree = Degree.projective(2)
    first, second = PointConfiguration.mikhalkin(5, 7), PointConfiguration.mikhalkin(5, 101)
    enumerate_curves(0, degree, first)
    calls = {"types": 0, "systems": 0}
    types, system = enumeration.enumerate_types, enumeration._TypeSystem

    def counted_types(*args):
        calls["types"] += 1
        return types(*args)

    def counted_system(*args):
        calls["systems"] += 1
        return system(*args)

    monkeypatch.setattr(enumeration, "enumerate_types", counted_types)
    monkeypatch.setattr(enumeration, "_TypeSystem", counted_system)
    warm = enumerate_curves(0, degree, second)
    assert calls == {"types": 0, "systems": 0}
    enumeration._SYSTEMS.clear()
    assert enumerate_curves(0, degree, second) == warm
    assert calls == {"types": 1, "systems": 4}


def test_each_degree_has_its_own_memo_entry(fresh_systems):
    configs = {
        "P2-d2": PointConfiguration.mikhalkin(5, 7),
        "P1xP1-(1,1)": PointConfiguration.explicit(NO_DROP_POINTS["P1xP1-(1,1)"][0]),
        "weight-2-end": PointConfiguration.explicit(NO_DROP_POINTS["weight-2-end"][0]),
    }
    for name, config in configs.items():
        assert enumerate_curves(0, EQUIVALENCE_DEGREES[name][0], config)
    assert len(enumeration._SYSTEMS) == len(configs)
    for name in configs:
        systems = enumeration._SYSTEMS[tuple(EQUIVALENCE_DEGREES[name][0].items())]
        assert [system.ctype for system in systems] == _reference_types(name)


def test_memo_systems_stay_as_built(fresh_systems):
    """After a d = 3 search, which reads the kept systems, every system's
    tables equal those of one built afresh from its type."""
    doc = json.loads((DATA / "d3-generic-1.json").read_text())
    config = PointConfiguration.explicit([[Fraction(x) for x in p] for p in doc["points"]])
    assert len(enumerate_curves(0, Degree.projective(3), config)) == len(doc["curves"])
    (systems,) = enumeration._SYSTEMS.values()
    assert len(systems) == 80
    for system in systems:
        assert vars(system) == vars(enumeration._TypeSystem(system.ctype))


def _certificate_sweep(degree, draws, bound, seed):
    """Check every curve the integer certificate clears, over seeded draws
    of distinct integer points in [-bound, bound]^2: it passes the Fraction
    checks, and its rematch gives its marks.  Returns the number of curves
    cleared, flagged, and flagged that then fail the checks."""
    rng = random.Random(seed)
    systems = enumeration._degree_systems(degree)
    ell = degree.total() - 1
    cleared = flagged = failed = 0
    for _ in range(draws):
        points = set()
        while len(points) < ell:
            points.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
        points = sorted(points)
        config = PointConfiguration.explicit(points)
        for system in systems:
            for assignment in enumeration._search_assignments(system, points):
                plan = dict(enumerate(assignment))
                solved = enumeration._solve(system, points, 1, plan)
                if solved is None:
                    continue
                curve, marks, certified = solved
                if certified:
                    cleared += 1
                    assert match_marked_edges(curve, config.constraints()) == marks
                    enumeration._genericity_checks(curve, config)
                else:
                    flagged += 1
                    try:
                        enumeration._genericity_checks(curve, config)
                    except enumeration.GenericityFailure:
                        failed += 1
    return cleared, flagged, failed


def test_certificate_clears_only_curves_that_pass_the_checks():
    cleared, flagged, _ = _certificate_sweep(Degree.projective(2), 300, 10, 33)
    assert cleared and flagged


@pytest.mark.slow
def test_certificate_clears_only_curves_that_pass_the_checks_d3():
    """At d = 3 in [-30, 30] some flagged curves also fail the checks."""
    cleared, flagged, failed = _certificate_sweep(Degree.projective(3), 40, 30, 33)
    assert cleared and flagged > failed > 0


def test_genericity_checks_reject_two_vertices_at_one_place():
    """v0 -> v1 -> v2 -> v3 runs (1, 0), (0, 1), (-1, -1) and closes up:
    v0 and v3, three edges apart, both sit at the origin.  The curve is
    balanced and trivalent with no flat vertex, and each point lies inside
    one edge only, so only the vertex clause can fail."""
    graph = TropicalGraph(
        vertices=("v0", "v1", "v2", "v3"),
        bounded_edges=(("v0", "v1"), ("v1", "v2"), ("v2", "v3")),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (0, -1)),
            ("v1", (1, -1)),
            ("v2", (1, 2)),
            ("v3", (0, 1)),
            ("v3", (-1, -2)),
        ),
        weights=dict.fromkeys(("b0", "b1", "b2", "u0", "u1", "u2", "u3", "u4", "u5"), 1),
    )
    positions = {"v0": (0, 0), "v1": (1, 0), "v2": (1, 1), "v3": (0, 0)}
    curve = TropicalCurve(graph, {v: as_point(p) for v, p in positions.items()}, n=2)
    assert check_balancing(curve) == []
    config = PointConfiguration.explicit([(Fraction(1, 2), 0), (1, Fraction(1, 2)), (2, 3)])
    assert match_marked_edges(curve, config.constraints()) == ("b0", "b1", "u3")
    message = "vertices v0 and v3 share the position"
    with pytest.raises(enumeration.GenericityFailure, match=message):
        enumeration._genericity_checks(curve, config)


@pytest.mark.parametrize("name", ["d3-generic-1", "d3-mikhalkin-7"])
def test_generic_problems_skip_the_fraction_checks(monkeypatch, name):
    """The stored generic d = 3 problems clear every curve, so they run no
    rematch and no crossing scan, and give the stored curves; with every
    curve flagged, the same curves come after both checks run."""
    doc = json.loads((DATA / (name + ".json")).read_text())
    if doc["mode"] == "mikhalkin":
        config = PointConfiguration.mikhalkin(len(doc["points"]), doc["seed"])
    else:
        config = PointConfiguration.explicit([as_point(p) for p in doc["points"]])
    stored = [curve_from_json(c) for c in doc["curves"]]
    calls = {"match_marked_edges": 0, "plane_crossings": 0}

    def counted(fn, inner):
        def call(*args):
            calls[fn] += 1
            return inner(*args)

        return call

    for fn in calls:
        monkeypatch.setattr(enumeration, fn, counted(fn, getattr(enumeration, fn)))
    assert enumerate_curves(0, Degree.projective(3), config) == stored
    assert calls == {"match_marked_edges": 0, "plane_crossings": 0}
    solve = enumeration._solve

    def flagged(*args):
        solved = solve(*args)
        return None if solved is None else solved[:2] + (False,)

    monkeypatch.setattr(enumeration, "_solve", flagged)
    assert enumerate_curves(0, Degree.projective(3), config) == stored
    assert calls == {"match_marked_edges": len(stored), "plane_crossings": len(stored)}


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
