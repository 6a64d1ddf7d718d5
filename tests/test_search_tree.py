"""The assignment search's tree, pinned against tests/golden/search-tree.json.

For each configuration the file holds the (type index, assignment) pairs
that ``_search_assignments`` yields, in order, together with the number of
``_propagate`` calls and how many of them found a contradiction.  A
change to the search that keeps these keeps the nodes it visits and the
candidates it prunes, not only the curves it finally accepts.  Only the
box test filters the edges the branching reads, so the yielded sequences
are its own; the prunes that skip a child before it is propagated (the
cone test, its consistency step, the quotas and the root pass) move only
the counts, and the tests below that patch one off find the same
sequence.
"""

import collections
import json
import random
from pathlib import Path

import pytest

from tropcount import enumeration
from tropcount.cli import curve_from_json
from tropcount.enumeration import (
    PointConfiguration,
    _apply_point,
    _cone_consistency,
    _direction_bit,
    _dual_cone,
    _has_quota_matching,
    _line_steps,
    _partners,
    _point_feasible,
    _propagate,
    _reach_masks,
    _search_assignments,
    _singleton_consistency,
    _SWEEPS,
    _tighten,
    _TypeSystem,
    _vertex_sweep,
    enumerate_curves,
    enumerate_types,
)
from tropcount.exact_lattice import primitive_vector
from tropcount.tropical import Degree, as_point

from conftest import watch

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "bench" / "data"


def configurations():
    """Name -> (degree, integer points); the last one is the case whose
    bite tests with the cone test or its consistency step off run under
    slow."""
    out = {}
    for seed in range(10):
        points = PointConfiguration.mikhalkin(5, seed).points
        out["d2-mikhalkin-%d" % seed] = (2, [(int(x), int(y)) for x, y in points])
    for name in ("d3-generic-1", "d3-generic-2"):
        generic = json.loads((DATA / (name + ".json")).read_text())["points"]
        out[name] = (3, [(int(x), int(y)) for x, y in generic])
    points = PointConfiguration.mikhalkin(8, 7).points
    out["d3-mikhalkin-7"] = (3, [(int(x), int(y)) for x, y in points])
    return out


SLOW = "d3-mikhalkin-7"


def fingerprint(types, points, monkeypatch):
    calls = failed = 0

    def counted(holds, *args):
        nonlocal calls, failed
        calls += 1
        # False marks a contradiction
        failed += holds is False

    watch(monkeypatch, "_propagate", counted)
    yielded = []
    for index, ctype in enumerate(types):
        for assignment in _search_assignments(_TypeSystem(ctype), points):
            yielded.append([index, list(assignment)])
    return {"yielded": yielded, "propagate_calls": calls, "propagate_failed": failed}


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "search-tree.json").read_text())


@pytest.fixture(scope="module")
def types_by_degree(d3_types):
    return {2: enumerate_types(0, Degree.projective(2)), 3: d3_types}


def check(name, expected, types_by_degree, monkeypatch):
    degree, points = configurations()[name]
    assert fingerprint(types_by_degree[degree], points, monkeypatch) == expected[name]


FAST = [name for name in configurations() if name != SLOW]


@pytest.mark.parametrize("name", FAST)
def test_search_tree_matches_golden(name, expected, types_by_degree, monkeypatch):
    check(name, expected, types_by_degree, monkeypatch)


def test_search_tree_matches_golden_d3_mikhalkin(expected, types_by_degree, monkeypatch):
    check(SLOW, expected, types_by_degree, monkeypatch)


# A row is the bitmask of its edges, and takes its lowest free edge first.


def _plain_matching(rows):
    # one part of edges 0..3 with an end more than the rows: no quota binds
    return _has_quota_matching(rows, (0b1111,), (1 << len(rows) + 1) - 1, 4)


def test_matching_finds_hall_violations():
    # two points whose only candidate is edge 3
    assert not _plain_matching([0b1000, 0b1000])
    assert not _plain_matching([0b0110, 0b1000, 0b1000])
    # the first row must give up its first choice, edge 1, for the second
    assert _plain_matching([0b1010, 0b0010])
    assert _plain_matching([0b0111, 0b0010, 0b0011])
    assert _plain_matching([])


# parts {0, 1, 2} and {3, 4, 5} with ends {0, 1} and {3, 4}: one row each
TWO_PARTS = ((0b000111, 0b111000), 0b011011, 6)


def test_matching_meets_part_quotas():
    # distinct edges exist, but both rows would land in the first part
    assert _plain_matching([0b0011, 0b0101])
    assert not _has_quota_matching([0b000011, 0b000101], *TWO_PARTS)
    assert _has_quota_matching([0b001001, 0b011000], *TWO_PARTS)
    # the second row needs edge 0 in the full first part, whose row moves on
    assert _has_quota_matching([0b001010, 0b000001], *TWO_PARTS)
    assert not _has_quota_matching([0b000010, 0b000001], *TWO_PARTS)


def test_matching_rejects_a_part_without_an_end():
    # edges {0, 1} hold no end; edges {2, 3, 4} hold three, room for two rows
    parts, ends = (0b00011, 0b11100), 0b11100
    assert not _has_quota_matching([0b00100, 0b01000], parts, ends, 5)
    assert _has_quota_matching([0b00100, 0b01000], (0b11111,), ends, 5)


def coneless(name, types_by_degree, monkeypatch):
    """The fingerprint with the cone test off (no generators, so every
    cone is the whole plane)."""
    monkeypatch.setattr(enumeration, "_dual_cone", lambda dirs: ())
    degree, points = configurations()[name]
    return fingerprint(types_by_degree[degree], points, monkeypatch)


@pytest.fixture(scope="module")
def coneless_runs(types_by_degree):
    """Name -> ``coneless`` fingerprint with every other check on, found
    once for the tests that compare against it."""
    runs = {}

    def run(name):
        if name not in runs:
            with pytest.MonkeyPatch.context() as monkeypatch:
                runs[name] = coneless(name, types_by_degree, monkeypatch)
        return runs[name]

    return run


def bite_run(name, types_by_degree, monkeypatch):
    """A function that finds a case's fingerprint with whatever the caller
    has patched.  A d=3 case runs with the cone test on; a d=2 case with
    it off, since with it on a d=2 search places each point once and
    leaves the other checks nothing to prune."""
    if name.startswith("d3"):
        degree, points = configurations()[name]
        return lambda: fingerprint(types_by_degree[degree], points, monkeypatch)
    return lambda: coneless(name, types_by_degree, monkeypatch)


def bite_runs(name, expected, types_by_degree, monkeypatch, coneless_runs):
    """(the fingerprint a check is taken from, ``bite_run``'s function):
    a d=3 case's pinned tree, a d=2 case's ``coneless`` one."""
    base = expected[name] if name.startswith("d3") else coneless_runs(name)
    return base, bite_run(name, types_by_degree, monkeypatch)


def without_root_pass(monkeypatch):
    """Patch the root's ``_singleton_consistency`` off: the root keeps the
    rows its ``closed`` call leaves."""
    monkeypatch.setattr(enumeration, "_singleton_consistency", lambda rows, *args: rows)


@pytest.mark.parametrize("name", FAST + [SLOW])
def test_matching_prune_bites(name, expected, types_by_degree, monkeypatch, relax_quotas):
    """With the quotas relaxed, so that any part takes any number of
    points, the search yields the same sequence, so the quotas drop only
    nodes with no completion, and it tries strictly more children.  The
    root pass is off in both runs: it runs the quota test of every first
    placement at the root, and on d3-mikhalkin-7 that leaves the quotas
    nothing to prune below it (56 calls either way)."""
    without_root_pass(monkeypatch)
    run = bite_run(name, types_by_degree, monkeypatch)
    base = run()
    relax_quotas()
    relaxed = run()
    assert base["yielded"] == relaxed["yielded"] == expected[name]["yielded"]
    assert relaxed["propagate_calls"] > base["propagate_calls"]


@pytest.mark.parametrize("name", FAST)
def test_box_test_bites(name, expected, types_by_degree, monkeypatch, coneless_runs):
    """With every edge passing the box test the search yields the same
    assignments, so the test drops only candidates with no completion, and
    it tries strictly more children.  The order within a type may change:
    more candidate edges can change which point is placed first, and do so
    on d3-generic-1.  (On d3-mikhalkin-7 the cone and quota tests leave
    the box test nothing to prune.)"""
    base, run = bite_runs(name, expected, types_by_degree, monkeypatch, coneless_runs)
    monkeypatch.setattr(enumeration, "_point_feasible", lambda system, box, edge, point: True)
    unboxed = run()
    assert base["yielded"] == expected[name]["yielded"]
    assert sorted(unboxed["yielded"]) == sorted(expected[name]["yielded"])
    assert unboxed["propagate_calls"] > base["propagate_calls"]


@pytest.mark.parametrize("name", ["d2-mikhalkin-0", "d3-generic-1", SLOW])
def test_rows_are_tested_before_propagating(name, expected, types_by_degree, monkeypatch):
    """A child's rows pass cone consistency and the quota flow before its
    state is touched: every ``_propagate`` call follows a
    ``_cone_consistency`` call that returned rows, and the tree is the
    pinned one."""
    last = [None]

    def watched(rows, *args):
        last[0] = rows

    def checked(holds, *args):
        assert last[0] is not None

    watch(monkeypatch, "_cone_consistency", watched)
    watch(monkeypatch, "_propagate", checked)
    degree, points = configurations()[name]
    assert fingerprint(types_by_degree[degree], points, monkeypatch) == expected[name]


@pytest.mark.parametrize("name", ["d2-mikhalkin-0", "d3-generic-1", SLOW])
def test_points_are_applied_on_feasible_boxes(name, expected, types_by_degree, monkeypatch):
    """``_apply_point`` has no contradiction to report: the point it
    applies passed ``_point_feasible`` on the same boxes, which is the
    same test (``test_point_feasible_is_the_tighten_test``), and the tree
    is the pinned one."""
    applied = [0]

    def checked(fits, system, box, edge, point):
        assert fits, (edge, point)
        applied[0] += 1

    watch(monkeypatch, "_apply_point", checked)
    degree, points = configurations()[name]
    assert fingerprint(types_by_degree[degree], points, monkeypatch) == expected[name]
    assert applied[0] == expected[name]["propagate_calls"]


def test_point_feasible_is_the_tighten_test(d3_types):
    """On random boxes, for every d=3 type and edge, a point passes the box
    test exactly when applying it to a copy of the boxes empties no range:
    each ray entry's check slot is the other end of its set slot's range."""
    rng = random.Random(3)
    outcomes = collections.Counter()
    for ctype in d3_types:
        system = _TypeSystem(ctype)
        for edge in range(system.num_edges):
            for _ in range(10):
                box = []
                for _ in range(2 * ctype.num_vertices):
                    lo, hi = sorted(rng.randint(-3, 3) for _ in range(2))
                    box += [rng.choice((lo, None)), rng.choice((hi, None))]
                point = (rng.randint(-4, 4), rng.randint(-4, 4))
                fits = _point_feasible(system, box, edge, point)
                assert _apply_point(system, box[:], edge, point) == fits, (ctype, edge, box)
                outcomes[fits] += 1
    assert min(outcomes[True], outcomes[False]) > 1000


def flat_steps(system):
    """The bound steps as one flat list of (edge, read, write, a, m), built
    from the type: each edge's ``_line_steps`` at its tail and then at its
    head, in edge order, then the transfers of each bounded edge as
    edge-less steps (edge -1, with c = 0, a = -1 and m = 1)."""
    steps = []
    edges = system.ctype.edges
    for i, e in enumerate(edges):
        for vertex in (e.tail, e.head):
            if vertex is not None:
                steps += [(i,) + step for step in _line_steps(system.normals[i], 4 * vertex)]
    for e in edges:
        if e.head is None:
            continue
        ta, he = e.tail, e.head
        for k, uk in enumerate(e.prim):
            lo, hi = 2 * k, 2 * k + 1
            if uk > 0:
                pairs = [(ta, he, lo), (he, ta, hi)]
            elif uk < 0:
                pairs = [(he, ta, lo), (ta, he, hi)]
            else:
                pairs = [(ta, he, lo), (he, ta, lo), (ta, he, hi), (he, ta, hi)]
            steps += [(-1, 4 * s + slot, 4 * t + slot, -1, 1) for s, t, slot in pairs]
    return steps


def flat_propagate(system, steps, val, box):
    """``_propagate`` as one sweep over ``flat_steps``, skipping a step
    whose edge has no value: (its return, how it stopped)."""
    for _ in range(_SWEEPS):
        changed = _vertex_sweep(system.vertex_eqs, val)
        if changed is None:
            return False, "values"
        for edge, read, slot, a, m in steps:
            if edge < 0:
                num = 0
            else:
                num = val[edge]
                if num is None:
                    continue
            if read >= 0:
                other = box[read]
                if other is None:
                    continue
                num -= a * other
            moved = _tighten(box, slot, -(-num // m) if slot & 1 else num // m)
            if moved is None:
                return False, "box"
            changed = changed or moved
        if not changed:
            return True, "fixpoint"
    return True, "cap"


def test_grouped_sweeps_match_the_flat_sweep(d3_types):
    """``_propagate`` runs each edge's line steps as a group, skipped whole
    while the edge has no value, and the transfers after them.  On every
    d=3 type it returns, and leaves in the values and boxes, what a sweep
    over the flat list of steps does (``flat_propagate``).  The states
    come from up to eight random points placed one by one, each pinning
    its edge and, four times in five, applied to the boxes, with a
    propagation after each, so later calls go on from earlier ones,
    capped ones included."""
    rng = random.Random(1)
    outcomes = collections.Counter()
    for ctype in d3_types:
        system = _TypeSystem(ctype)
        steps = flat_steps(system)
        for _ in range(10):
            val = [None] * system.num_edges
            box = [None] * (4 * ctype.num_vertices)
            for _ in range(8):
                edge = rng.randrange(system.num_edges)
                if val[edge] is not None:
                    continue
                point = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                m1, m2 = system.normals[edge]
                val[edge] = m1 * point[0] + m2 * point[1]
                if rng.random() < 0.8 and not _apply_point(system, box, edge, point):
                    break
                flat_val, flat_box = val[:], box[:]
                holds, how = flat_propagate(system, steps, flat_val, flat_box)
                assert _propagate(system, val, box) == holds, (ctype, how)
                assert (val, box) == (flat_val, flat_box), (ctype, how)
                outcomes[how] += 1
                if not holds:
                    break
    assert outcomes["cap"] >= 10 and outcomes["box"] >= 100 and outcomes["fixpoint"] >= 1000


def bench_points(name):
    doc = json.loads((DATA / (name + ".json")).read_text())
    return [(int(x), int(y)) for x, y in doc["points"]]


# generic_points(random.Random(10), 8) of bench/workloads.py: three of its
# doomed nodes break the quotas, where d3-generic-2 has none
GENERIC_D3_SEED_10 = [
    (198318, -931665), (-100555, 12005), (212345, -968895), (-567781, -29899),
    (705658, 30323), (727191, -417997), (370431, 699990), (-663975, -927851),
]


@pytest.mark.parametrize(
    "name, doomed",
    [
        ("d3-generic-1", (84, 3)),
        ("d3-generic-2", (75, 0)),
        (SLOW, (0, 0)),
        ("d3-generic-seed-10", (69, 3)),
    ],
)
def test_nodes_the_box_pass_dooms_reach_no_propagate(
    name, doomed, expected, d3_types, monkeypatch
):
    """The box pass only filters, and the row test of the children is the
    one prune gate.  A node whose box pass empties a row, or leaves rows
    that meet no quotas, has no child that reaches ``_propagate``: a child's
    rows are a subset of the node's, and its quota matching plus its
    placed point is one of the node's.  ``doomed`` counts such nodes of
    either kind, so the check is not vacuous on the generic cases.

    Each node is read off the calls.  The last ``_cone_consistency`` and
    ``_has_quota_matching`` calls before a ``_propagate`` call hold the
    node's unplaced points, rows and parts, and the ``_point_feasible``
    calls after it holds, up to the next ``_cone_consistency`` call, are
    the node's box pass.
    """
    if name == SLOW:
        points = configurations()[name][1]
    elif name == "d3-generic-seed-10":
        points = GENERIC_D3_SEED_10
    else:
        points = bench_points(name)
    quota_matching = enumeration._has_quota_matching
    last = {"boxing": None}
    at_depth = {}
    nodes = []

    def watched_consistency(out, rows, unplaced, partners, num_edges, guards):
        last.update(unplaced=list(unplaced), rows=out, boxing=None)

    def watched_quotas(matched, rows, parts, ends, num_edges):
        last["quotas"] = (parts, ends, num_edges)

    def watched_propagate(holds, system, val, box):
        depth = len(points) - len(last["unplaced"])
        parent = at_depth.get(depth - 1)
        if parent is not None:
            parent["children"] += 1
        if holds:
            node = {"children": 0, "boxed": [0] * len(points), "quotas": last["quotas"]}
            node.update(unplaced=last["unplaced"], rows=last["rows"])
            nodes.append(node)
            at_depth[depth] = last["boxing"] = node

    def watched_feasible(fits, system, box, edge, point):
        if fits and last["boxing"] is not None:
            last["boxing"]["boxed"][points.index(point)] |= 1 << edge

    watch(monkeypatch, "_cone_consistency", watched_consistency)
    watch(monkeypatch, "_has_quota_matching", watched_quotas)
    watch(monkeypatch, "_propagate", watched_propagate)
    watch(monkeypatch, "_point_feasible", watched_feasible)
    found = fingerprint(d3_types, points, monkeypatch)
    if name in expected:
        assert found == expected[name]
    assert len(found["yielded"]) == 9

    emptied = broken = 0
    for node in nodes:
        parts, ends, num_edges = node["quotas"]
        full = (1 << num_edges) - 1
        packed = node["rows"]
        rows = [packed >> j * (num_edges + 1) & full & node["boxed"][j] for j in node["unplaced"]]
        if not all(rows):
            emptied += 1
        elif not quota_matching(rows, parts, ends, num_edges):
            broken += 1
        else:
            continue
        assert node["children"] == 0
    assert (emptied, broken) == doomed


def direction_bits(dirs):
    return sum({_direction_bit(w) for w in dirs})


def in_cone(generators, d):
    return all(a * d[0] + b * d[1] >= 0 for a, b in generators)


@pytest.mark.parametrize(
    "dirs, generators",
    [
        # quadrant
        ({(1, 0), (0, 1)}, ((0, 1), (1, 0))),
        # a pointed cone with a direction inside it: (1, 1) is redundant
        ({(1, 0), (1, 1)}, ((0, 1), (1, -1), (1, 0), (1, 1))),
        # half-plane y >= 0
        ({(1, 0), (-1, 0), (0, 1)}, ((0, 1),)),
        # line
        ({(1, 1), (-1, -1)}, ((-1, 1), (1, -1))),
        # ray
        ({(1, 2)}, ((-2, 1), (1, 2), (2, -1))),
        # whole plane: no test
        ({(1, 0), (0, 1), (-1, -1)}, ()),
    ],
)
def test_dual_cone(dirs, generators):
    assert _dual_cone(direction_bits(dirs)) == generators
    for d in [(x, y) for x in range(-3, 4) for y in range(-3, 4)]:
        assert in_cone(generators, d) == spans(dirs, d), d


def spans(dirs, d):
    """Whether d is a non-negative combination of at most two of ``dirs``,
    which in the plane means of any of them (Caratheodory)."""
    if d == (0, 0):
        return True
    for u in dirs:
        if u[0] * d[1] == u[1] * d[0] and u[0] * d[0] + u[1] * d[1] > 0:
            return True
        for v in dirs:
            det = u[0] * v[1] - u[1] * v[0]
            # d = (d x v / det) u + (u x d / det) v
            if det and (d[0] * v[1] - d[1] * v[0]) * det >= 0 <= (u[0] * d[1] - u[1] * d[0]) * det:
                return True
    return False


def test_direction_bits_read_back():
    vectors = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    assert len({_direction_bit(v) for v in vectors}) == len(vectors)
    for v in vectors:
        # a ray's dual cone is the half-plane of rot90(v), -rot90(v) and v
        assert _dual_cone(_direction_bit(v)) == tuple(sorted({(-v[1], v[0]), (v[1], -v[0]), v}))


def test_reach_masks_keep_the_cone_boundary():
    # the quadrant x >= 0, y >= 0 from point 0: point 1 on its boundary
    # ray, point 2 inside, point 3 outside; at width 1 point a's row is
    # the 4 bits from bit 4a
    points = [(0, 0), (5, 0), (2, 7), (-1, 3)]
    pack = _reach_masks(direction_bits({(1, 0), (0, 1)}), points, 1, {})
    assert pack & 0b1111 == 0b0111
    # no directions: no test
    assert _reach_masks(0, points, 1, {}) == (1 << 16) - 1
    # at width 3 point b's bit is 3b in each row
    pack = _reach_masks(direction_bits({(1, 0), (0, 1)}), points, 3, {})
    assert pack & (1 << 12) - 1 == 0b1001001


def test_search_keeps_a_point_on_the_cone_boundary(monkeypatch):
    """A line through (0, 0) on its left end and (3, 0) on its lower end
    has its vertex at (3, 0): the second point is degenerate, exactly on
    the cone's boundary, and the search must still reach it."""
    (ctype,) = enumerate_types(0, Degree.projective(1))
    system = _TypeSystem(ctype)
    left, down = ([e.prim for e in ctype.edges].index(d) for d in ((-1, 0), (0, -1)))
    points = [(0, 0), (3, 0)]
    assert min(a * 3 + b * 0 for a, b in _dual_cone(system.cones[left][down])) == 0
    yielded = list(_search_assignments(system, points))
    assert (left, down) in yielded
    monkeypatch.setattr(enumeration, "_dual_cone", lambda dirs: ())
    assert list(_search_assignments(_TypeSystem(ctype), points)) == yielded


@pytest.mark.parametrize("name", FAST + [pytest.param(SLOW, marks=pytest.mark.slow)])
def test_cone_test_bites(name, expected, coneless_runs):
    """With the cone test off (no generators, so every cone is the whole
    plane) the search yields the same sequence, so the test drops only
    pairs with no completion, and it tries strictly more children."""
    unconed = coneless_runs(name)
    assert unconed["yielded"] == expected[name]["yielded"]
    assert unconed["propagate_calls"] > expected[name]["propagate_calls"]


@pytest.mark.parametrize("name", FAST + [pytest.param(SLOW, marks=pytest.mark.slow)])
def test_cone_consistency_bites(name, expected, types_by_degree, monkeypatch):
    """With the consistency step off, so that a row keeps every edge that
    passes the cone test with the placed points, the search yields the same
    sequence, so the step drops only pairs with no completion, and it tries
    strictly more children.  The root pass is off in both runs: it tests
    every first placement against every other point's row, and at d=2 that
    leaves the step nothing to prune (5 calls either way)."""
    without_root_pass(monkeypatch)
    degree, points = configurations()[name]
    base = fingerprint(types_by_degree[degree], points, monkeypatch)
    monkeypatch.setattr(
        enumeration, "_cone_consistency", lambda rows, unplaced, partners, num_edges, guards: rows
    )
    unchecked = fingerprint(types_by_degree[degree], points, monkeypatch)
    assert base["yielded"] == unchecked["yielded"] == expected[name]["yielded"]
    assert unchecked["propagate_calls"] > base["propagate_calls"]


@pytest.mark.parametrize("name", FAST + [SLOW])
def test_root_pass_drops_only_pairs_with_no_completion(
    name, expected, types_by_degree, monkeypatch
):
    """With the root pass off the search yields the same sequence, so the
    pass drops only pairs that no completion holds, and on the d=3 cases
    it makes strictly more ``_propagate`` calls, so the pass bites."""
    degree, points = configurations()[name]
    with_pass = fingerprint(types_by_degree[degree], points, monkeypatch)
    without_root_pass(monkeypatch)
    found = fingerprint(types_by_degree[degree], points, monkeypatch)
    assert found["yielded"] == with_pass["yielded"] == expected[name]["yielded"]
    assert found["propagate_calls"] >= with_pass["propagate_calls"]
    if name.startswith("d3"):
        assert found["propagate_calls"] > with_pass["propagate_calls"]


def kept_failures(rows, closed, partners, cuts, width):
    """The root pass with its child test read backwards: it keeps the edges
    whose child fails ``closed`` and drops those whose child passes.  A
    child test holds one point fewer than the whole-row reruns."""

    def backwards(tested, unplaced, guards, parts):
        passed = closed(tested, unplaced, guards, parts)
        if len(unplaced) == len(partners):
            return passed
        return tested if passed is None else None

    return _singleton_consistency(rows, backwards, partners, cuts, width)


def first_point_tables(rows, closed, partners, cuts, width):
    """The root pass testing every point's edges with point 0's partner
    tables."""
    first = [partners[0]] * len(partners)
    return _singleton_consistency(rows, closed, first, cuts, width)


@pytest.mark.parametrize("faulted", [kept_failures, first_point_tables])
def test_faulted_root_pass_changes_the_yields(faulted, expected, types_by_degree, monkeypatch):
    """Negative controls: a root pass that keeps the wrong edges, or reads
    the wrong point's partner tables, drops pairs that lead to curves."""
    monkeypatch.setattr(enumeration, "_singleton_consistency", faulted)
    changed = []
    for name in FAST + [SLOW]:
        degree, points = configurations()[name]
        found = fingerprint(types_by_degree[degree], points, monkeypatch)
        changed += [name] if found["yielded"] != expected[name]["yielded"] else []
    assert changed


def flipped(partners, num_edges):
    """The partner tables of the relation read the wrong way round, p_a
    reachable from p_b: point a's table of edge e takes, at point b's
    bits, point b's table of edge e at point a's bits."""
    width = num_edges + 1
    full = (1 << num_edges) - 1
    return [
        [
            sum((table[e] >> a * width & full) << b * width for b, table in enumerate(partners))
            for e in range(num_edges)
        ]
        for a in range(len(partners))
    ]


def test_faulted_consistency_changes_the_yields(expected, types_by_degree, monkeypatch):
    """A negative control: a consistency step that reads the packed
    relation the wrong way round, p_a reachable from p_b, drops pairs that
    lead to curves."""
    consistency = enumeration._cone_consistency
    backwards = {}

    def faulted(rows, unplaced, partners, num_edges, guards):
        # one faulted table per search, kept beside the search's own so
        # that its id is not reused
        if id(partners) not in backwards:
            backwards[id(partners)] = (partners, flipped(partners, num_edges))
        return consistency(rows, unplaced, backwards[id(partners)][1], num_edges, guards)

    monkeypatch.setattr(enumeration, "_cone_consistency", faulted)

    def changes(name):
        degree, points = configurations()[name]
        found = fingerprint(types_by_degree[degree], points, monkeypatch)
        return found["yielded"] != expected[name]["yielded"]

    assert any(changes(name) for name in FAST)


def pack(*rows):
    """Edge bitmasks of points 0, 1, ... as ``_cone_consistency`` reads
    them when there are two edges: point b's at bit 3b."""
    return sum(row << 3 * b for b, row in enumerate(rows))


def hand_made_partners(reach):
    """The partner tables of two points on two edges, where
    ``reach[e][f][a]`` has bit b when point b on edge f is reachable from
    point a on edge e.  Each (e, f) relation is packed at width 3, point
    a's row at bit 6a, and stored under a key of its own in the packs that
    ``_partners`` reads."""
    known = {
        1 + 2 * e + f: sum(
            (m >> b & 1) << 6 * a + 3 * b for a, m in enumerate(masks) for b in (0, 1)
        )
        for e, row in enumerate(reach)
        for f, masks in enumerate(row)
    }
    return _partners([[1, 2], [3, 4]], [(0, 0)] * 2, 3, known)


def consistent(reach, rows, unplaced=(0, 1)):
    # the guard bit of point b's row is bit 3b + 2
    guards = sum(1 << 3 * b + 2 for b in unplaced)
    return _cone_consistency(pack(*rows), list(unplaced), hand_made_partners(reach), 2, guards)


def test_cone_consistency_on_a_hand_made_relation():
    """Two points and two edges; ``reach[e][f][a]`` has bit b when point b
    on edge f is reachable from point a on edge e."""
    everywhere = [[[0b11, 0b11], [0b11, 0b11]] for _ in range(2)]
    # an edge is never its own partner: point 0 on edge 0 needs point 1 on
    # edge 1, though every pair is reachable
    assert hand_made_partners(everywhere)[0][0] == pack(0b10, 0b10)
    assert consistent(everywhere, (0b01, 0b01)) is None
    assert consistent(everywhere, (0b01, 0b11)) == pack(0b01, 0b10)
    # a placed point, whose row is empty, is not tested
    assert consistent(everywhere, (0b01, 0), unplaced=(0,)) == pack(0b01, 0)
    # point 1 on edge 1 is out of reach of point 0 on edge 0, and so,
    # read back, is point 0 on edge 0 from point 1 on edge 1
    one_way = [[[0b11, 0b11], [0b01, 0b11]], [[0b11, 0b10], [0b11, 0b11]]]
    assert consistent(one_way, (0b01, 0b10)) is None
    assert consistent(one_way, (0b11, 0b11)) == pack(0b10, 0b01)


def search_partners(system, points, monkeypatch):
    """The partner tables a search over the points hands its root's
    ``_cone_consistency`` call."""
    consistency = enumeration._cone_consistency
    seen = []

    def watched(rows, unplaced, partners, num_edges, guards):
        seen.append(partners)
        return consistency(rows, unplaced, partners, num_edges, guards)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_cone_consistency", watched)
        next(_search_assignments(system, points), None)
    return seen[0]


@pytest.mark.parametrize(
    "degree, name, sample", [(2, "d2-mikhalkin-%d" % seed, 1) for seed in (0, 7)]
    + [(3, "d3-generic-1", 8), (3, "d3-mikhalkin-7", 8)]
)
def test_partner_tables_are_the_cone_test(degree, name, sample, types_by_degree, monkeypatch):
    """Every d=2 type and a sample of the d=3 ones on pinned points: point
    a's table of edge e has bit b * width + f exactly when f != e and p_b
    is reachable from p_a along ``cones[e][f]``, by the definition of the
    cone test (phi . p_b >= phi . p_a for each generator phi of the dual
    cone).  So no bit lands on another point's slot or a guard bit."""
    points = configurations()[name][1]
    checked = 0
    for ctype in types_by_degree[degree][::sample]:
        system = _TypeSystem(ctype)
        width = system.num_edges + 1
        partners = search_partners(system, points, monkeypatch)
        for a, (xa, ya) in enumerate(points):
            for e, row in enumerate(system.cones):
                expect = sum(
                    1 << b * width + f
                    for f, dirs in enumerate(row)
                    if f != e
                    for b, (xb, yb) in enumerate(points)
                    if all(u * (xb - xa) + v * (yb - ya) >= 0 for u, v in _dual_cone(dirs))
                )
                assert partners[a][e] == expect, (name, a, e)
                checked += 1
    assert checked == {2: 4 * 5 * 9, 3: 10 * 8 * 15}[degree]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cones_are_antisymmetric(degree, d3_types):
    """The path from edge f to edge e is the path from e to f run
    backwards, so its dual cone is the negated one: the cone test reads the
    same from either point, which makes a pair that the consistency step
    drops one that no completion holds."""
    types = d3_types if degree == 3 else enumerate_types(0, Degree.projective(degree))
    pairs = 0
    for ctype in types:
        cones = _TypeSystem(ctype).cones
        for e, row in enumerate(cones):
            for f, dirs in enumerate(row):
                if e != f:
                    negated = tuple(sorted((-a, -b) for a, b in _dual_cone(dirs)))
                    assert _dual_cone(cones[f][e]) == negated, (e, f)
                    pairs += 1
    assert pairs == {1: 6, 2: 288, 3: 16800}[degree]


def test_faulted_cone_changes_the_yields(expected, types_by_degree, monkeypatch):
    """A negative control: with one sign of each first generator flipped,
    the cone test skips children that lead to curves."""

    def faulted(dirs):
        generators = _dual_cone(dirs)
        if not generators:
            return generators
        (a, b), rest = generators[0], generators[1:]
        return ((-a, b),) + rest

    monkeypatch.setattr(enumeration, "_dual_cone", faulted)
    changed = []
    for name in FAST:
        degree, points = configurations()[name]
        found = fingerprint(types_by_degree[degree], points, monkeypatch)
        changed += [name] if found["yielded"] != expected[name]["yielded"] else []
    assert changed


def path_directions(curve, e, f):
    """The directions of the tree path from a point on edge e to one on
    edge f of the curve, read off its graph and its vertex positions."""
    graph, at = curve.graph, curve.positions
    # per vertex: (edge, far vertex or None, direction away from the vertex)
    away = {v: [] for v in graph.vertices}
    for i, (tail, head) in enumerate(graph.bounded_edges):
        step = [b - a for a, b in zip(at[tail], at[head])]
        denom = step[0].denominator * step[1].denominator
        u = primitive_vector([int(x * denom) for x in step])
        away[tail].append(("b%d" % i, head, u))
        away[head].append(("b%d" % i, tail, (-u[0], -u[1])))
    for i, (vertex, u) in enumerate(graph.unbounded_edges):
        away[vertex].append(("u%d" % i, None, tuple(u)))
    # from the point on e to each of e's vertices: against e's direction away from it
    walk = [(v, e, {(-u[0], -u[1])}) for v in graph.vertices for edge, _, u in away[v] if edge == e]
    for v, came, dirs in walk:
        for edge, far, u in away[v]:
            if edge == came:
                continue
            if edge == f:
                return dirs | {u}
            if far is not None:
                walk.append((far, edge, dirs | {u}))
    raise AssertionError("no path from %s to %s" % (e, f))


def stored_and_pinned_curves():
    """(name, points, curves with their marks): the four curve sets in
    bench/data and the curves through the pinned d = 2 configurations."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        curves = [curve_from_json(c) for c in doc["curves"]]
        out.append((path.stem, [as_point(p) for p in doc["points"]], curves))
    for seed in range(10):
        config = PointConfiguration.mikhalkin(5, seed)
        curves = enumerate_curves(0, Degree.projective(2), config)
        out.append(("d2-mikhalkin-%d" % seed, list(config.points), curves))
    return out


def test_every_curve_passes_the_cone_test():
    """Soundness without the search: on each curve every ordered pair of
    marked points passes the test, with the cone of the path between them."""
    pairs = 0
    for name, points, curves in stored_and_pinned_curves():
        assert curves, name
        known = {}
        for curve, marks in curves:
            for j, e in enumerate(marks):
                for k, f in enumerate(marks):
                    if j != k:
                        dirs = direction_bits(path_directions(curve, e, f))
                        reached = _reach_masks(dirs, points, 1, known) >> j * len(points) + k
                        assert reached & 1, (name, j, k)
                        pairs += 1
    assert pairs > 2000
