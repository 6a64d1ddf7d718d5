"""The assignment search's tree, pinned against tests/golden/search-tree.json.

For each configuration the file holds the (type index, assignment) pairs
that ``_search_assignments`` yields, in order, together with the number of
``_Solver.propagate`` calls and how many of them found a contradiction.  A
change to the search that keeps these keeps the nodes it visits and the
candidates it prunes, not only the curves it finally accepts.  The yielded
sequences were written before the propagation became a worklist; the
counts were rewritten when nodes with no one-to-one completion (no
matching of unplaced points to candidate edges) began to be dropped, and
again when that matching had to give each part of the type, cut at the
placed points, one point fewer than it has ends.
"""

import json
from pathlib import Path

import pytest

from tropcount.enumeration import (
    PointConfiguration,
    _has_quota_matching,
    _search_assignments,
    _Solver,
    _TypeSystem,
    enumerate_types,
)
from tropcount.tropical import Degree

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent.parent / "bench" / "data"


def configurations():
    """Name -> (degree, integer points); the last one is the slow case."""
    out = {}
    for seed in range(10):
        points = PointConfiguration.mikhalkin(5, seed).points
        out["d2-mikhalkin-%d" % seed] = (2, [(int(x), int(y)) for x, y in points])
    generic = json.loads((DATA / "d3-generic-1.json").read_text())["points"]
    out["d3-generic-1"] = (3, [(int(x), int(y)) for x, y in generic])
    points = PointConfiguration.mikhalkin(8, 7).points
    out["d3-mikhalkin-7"] = (3, [(int(x), int(y)) for x, y in points])
    return out


SLOW = "d3-mikhalkin-7"


def fingerprint(types, points, monkeypatch):
    calls = failed = 0
    original = _Solver.propagate

    def counted(self, *args):
        nonlocal calls, failed
        result = original(self, *args)
        calls += 1
        # None marks a contradiction; so did False when propagate ran every
        # rule in every sweep, and the file must pass against that code too
        failed += result is None or result is False
        return result

    monkeypatch.setattr(_Solver, "propagate", counted)
    yielded = []
    for index, ctype in enumerate(types):
        system = _TypeSystem(ctype)
        pins = [[m1 * x + m2 * y for m1, m2 in system.normals] for x, y in points]
        for assignment in _search_assignments(system, pins, points):
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


@pytest.mark.slow
def test_search_tree_matches_golden_d3_mikhalkin(expected, types_by_degree, monkeypatch):
    check(SLOW, expected, types_by_degree, monkeypatch)


def _plain_matching(rows):
    # one part of edges 0..3 with an end more than the rows: no quota binds
    return _has_quota_matching(rows, (0b1111,), (1 << len(rows) + 1) - 1, 4)


def test_matching_finds_hall_violations():
    # two points whose only candidate is the same edge
    assert not _plain_matching([[3], [3]])
    assert not _plain_matching([[1, 2], [3], [3]])
    # the first row must give up its first choice for the second
    assert _plain_matching([[3, 1], [3]])
    assert _plain_matching([[0, 1, 2], [1], [0, 1]])
    assert _plain_matching([])


# parts {0, 1, 2} and {3, 4, 5} with ends {0, 1} and {3, 4}: one row each
TWO_PARTS = ((0b000111, 0b111000), 0b011011, 6)


def test_matching_meets_part_quotas():
    # distinct edges exist, but both rows would land in the first part
    assert _plain_matching([[0, 1], [2, 0]])
    assert not _has_quota_matching([[0, 1], [2, 0]], *TWO_PARTS)
    assert _has_quota_matching([[0, 3], [3, 4]], *TWO_PARTS)
    # the second row needs edge 0 in the full first part, whose row moves on
    assert _has_quota_matching([[1, 3], [0]], *TWO_PARTS)
    assert not _has_quota_matching([[1], [0]], *TWO_PARTS)


def test_matching_rejects_a_part_without_an_end():
    # edges {0, 1} hold no end; edges {2, 3, 4} hold three, room for two rows
    parts, ends = (0b00011, 0b11100), 0b11100
    assert not _has_quota_matching([[2], [3]], parts, ends, 5)
    assert _has_quota_matching([[2], [3]], (0b11111,), ends, 5)


@pytest.mark.parametrize("name", FAST)
def test_matching_prune_bites(name, expected, types_by_degree, monkeypatch, relax_quotas):
    """With the quotas relaxed, so that any part takes any number of
    points, the search yields the same sequence, so the quotas drop only
    nodes with no completion, and it tries strictly more children."""
    relax_quotas()
    degree, points = configurations()[name]
    relaxed = fingerprint(types_by_degree[degree], points, monkeypatch)
    assert relaxed["yielded"] == expected[name]["yielded"]
    assert relaxed["propagate_calls"] > expected[name]["propagate_calls"]


# without the box test d3-generic-1 takes seconds, so it runs under slow
@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n.startswith("d3") else n for n in FAST]
)
def test_box_test_bites(name, expected, types_by_degree, monkeypatch):
    """With every edge passing the box test the search yields the same
    assignments, so the test drops only candidates with no completion, and
    it tries strictly more children.  The order within a type may change:
    longer candidate lists can change which point is placed first, and do
    so on d3-generic-1."""
    monkeypatch.setattr(_Solver, "point_feasible", lambda self, edge, point, pin: True)
    degree, points = configurations()[name]
    unboxed = fingerprint(types_by_degree[degree], points, monkeypatch)
    assert sorted(unboxed["yielded"]) == sorted(expected[name]["yielded"])
    assert unboxed["propagate_calls"] > expected[name]["propagate_calls"]
