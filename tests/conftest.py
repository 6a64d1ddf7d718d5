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
        types.append(CombinatorialType(0, t["num_vertices"], tuple(edges), False))
    return types
