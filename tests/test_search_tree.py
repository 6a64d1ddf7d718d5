"""The assignment search's tree, pinned against tests/golden/search-tree.json.

For each configuration the file holds the (type index, assignment) pairs
that ``_search_assignments`` yields, in order, together with the number of
``_Solver.propagate`` calls and how many of them found a contradiction.  A
change to the search that keeps these keeps the nodes it visits and the
candidates it prunes, not only the curves it finally accepts.  The stored
file was written before the propagation became a worklist.
"""

import json
from pathlib import Path

import pytest

from tropcount.enumeration import (
    PointConfiguration,
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
