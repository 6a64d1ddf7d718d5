import functools
import json
from pathlib import Path

import pytest

from tropcount.enumeration import CombinatorialType, TypeEdge
from tropcount.exact_lattice import vector_gcd

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def acceptance_results():
    """One full acceptance run shared by the per-criterion tests."""
    from tropcount.selftest import run

    lines = []
    results = run(echo=lines.append)
    return results, lines


def watch(monkeypatch, name, observe):
    """Patch ``enumeration.<name>`` with a wrapper that calls it and then
    hands ``observe`` the result and the call's arguments, for the caller
    to record or check; the wrapper returns the result."""
    from tropcount import enumeration

    original = getattr(enumeration, name)

    def watched(*args):
        result = original(*args)
        observe(result, *args)
        return result

    monkeypatch.setattr(enumeration, name, watched)


@pytest.fixture
def relax_quotas(monkeypatch):
    """Call to give the search's matching test one part, every edge of it
    an end: the unused edges, the union of the parts, which holds every
    edge of every row (each row an edge bitmask).  The search leaves at
    least n - 2 more unused edges than unplaced points (n ends), so no
    quota binds: a plain matching of the rows to distinct edges."""
    from tropcount import enumeration

    quota_matching = enumeration._has_quota_matching

    def relaxed(rows, parts, ends, num_edges):
        unused = sum(parts)
        return quota_matching(rows, (unused,), unused, num_edges)

    return lambda: monkeypatch.setattr(enumeration, "_has_quota_matching", relaxed)


@pytest.fixture
def fresh_systems(monkeypatch):
    """An empty per-degree memo of type systems for this test; the
    process's memo comes back after it, so systems built under a patch
    serve no later test."""
    from tropcount import enumeration

    monkeypatch.setattr(enumeration, "_SYSTEMS", {})


@pytest.fixture
def fresh_lattice_memos(monkeypatch):
    """Empty memos of T_h's blocks and of the inclusion indices for this
    test, as ``fresh_systems`` does for the type systems; returns a call
    that empties them again."""
    from tropcount import counting, incidence

    built = incidence._projection.__wrapped__
    monkeypatch.setattr(incidence, "_projection", functools.lru_cache(maxsize=None)(built))
    monkeypatch.setattr(counting, "_inclusion_indices", {})

    def clear():
        incidence._projection.cache_clear()
        counting._inclusion_indices.clear()

    return clear


@pytest.fixture(scope="session")
def d3_types():
    """The 80 non-flat d = 3 types, read back from their golden file
    without paying for ``enumerate_types``."""
    types = []
    for t in json.loads((GOLDEN / "types-d3.json").read_text()):
        edges = []
        for tail, head, vec in t["edges"]:
            w = vector_gcd(vec)
            edges.append(TypeEdge(tail, head, tuple(vec), w, tuple(x // w for x in vec)))
        types.append(CombinatorialType(t["num_vertices"], tuple(edges), False))
    return types
