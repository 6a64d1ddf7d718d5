"""Route-against-route validation.

Every configuration produced by the lattice-path enumeration is dualized
into a combinatorial type with a mark plan and handed to the exact position
solver; conversely the multiplicity totals of the realizable configurations
must reproduce the expected counts.  This ties the two independently coded
routes together curve by curve, not just at the level of totals.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from tropcount import enumeration
from tropcount.cli import curve_from_json
from tropcount.counting import count_complex, count_real
from tropcount.enumeration import (
    CombinatorialType,
    PointConfiguration,
    TypeEdge,
    enumerate_curves,
    solve_positions,
)
from tropcount.exact_lattice import primitive_vector
from tropcount.incidence import RealPointConfig
from tropcount.oracles import (
    _cell_edges,
    _lattice_length,
    _side_of,
    lattice_path_subdivisions,
)
from tropcount.svg import dual_subdivision_cells
from tropcount.tropical import Degree, as_point, curve_mikhalkin_mults, curve_welschinger_mult
from tropcount.welschinger import census_report, welschinger_total

from conftest import watch

DATA = Path(__file__).parent.parent / "bench" / "data"


def _tri_ccw_sides(cell):
    a, b, c = cell[1]
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    pts = [a, b, c] if area2 > 0 else [a, c, b]
    return [
        (
            tuple(sorted((pts[i], pts[(i + 1) % 3]))),
            (pts[(i + 1) % 3][0] - pts[i][0], pts[(i + 1) % 3][1] - pts[i][1]),
        )
        for i in range(3)
    ]


def dual_type_and_plan(d, cells, path):
    """Curve type dual to a subdivision, plus the point-to-edge plan read
    off the path's steps.  Returns None for malformed chain structure."""
    tris = [c for c in cells if c[0] == "t"]
    tri_index = {c: i for i, c in enumerate(tris)}
    links = {}
    for cell in cells:
        if cell[0] != "p":
            continue
        a, b, c, w = cell[1]
        for e1, e2 in (
            (tuple(sorted((a, b))), tuple(sorted((w, c)))),
            (tuple(sorted((b, c))), tuple(sorted((a, w)))),
        ):
            links.setdefault(e1, []).append(e2)
            links.setdefault(e2, []).append(e1)
    edge_cells = {}
    for ci, cell in enumerate(cells):
        for e in _cell_edges(cell):
            edge_cells.setdefault(e, []).append(ci)
    chain_of = {}
    chains = []
    for e in sorted(edge_cells):
        if e in chain_of:
            continue
        cid = len(chains)
        members = [e]
        chain_of[e] = cid
        frontier = [e]
        while frontier:
            cur = frontier.pop()
            for nxt in links.get(cur, []):
                if nxt not in chain_of:
                    chain_of[nxt] = cid
                    members.append(nxt)
                    frontier.append(nxt)
        chains.append(members)
    edges = []
    chain_edge_idx = {}
    for cid, members in enumerate(chains):
        ends = []
        boundary_end = False
        for e in members:
            for ci in edge_cells[e]:
                cell = cells[ci]
                if cell[0] != "t":
                    continue
                for se, svec in _tri_ccw_sides(cell):
                    if se == e:
                        ends.append((tri_index[cell], (svec[1], -svec[0])))
            if _side_of(d, e) is not None and len(edge_cells[e]) == 1:
                boundary_end = True
        w = _lattice_length(members[0])
        if len(ends) == 2 and not boundary_end:
            (t1, v1), (t2, v2) = ends
            edges.append(
                TypeEdge(tail=t1, head=t2, vec=v1, weight=w, prim=primitive_vector(v1))
            )
        elif len(ends) == 1 and boundary_end:
            t1, v1 = ends[0]
            edges.append(
                TypeEdge(tail=t1, head=None, vec=v1, weight=w, prim=primitive_vector(v1))
            )
        else:
            return None
        chain_edge_idx[cid] = len(edges) - 1
    ctype = CombinatorialType(num_vertices=len(tris), edges=tuple(edges), has_flat_vertex=False)
    steps = [tuple(sorted(step)) for step in zip(path, path[1:])]
    plan = {j: chain_edge_idx[chain_of[s]] for j, s in enumerate(steps)}
    return ctype, plan


def test_every_oracle_configuration_is_realizable_d3():
    d = 3
    config = PointConfiguration.mikhalkin(3 * d - 1, 11)
    total_c = total_w = 0
    count = 0
    for cells, path, cm, wm in lattice_path_subdivisions(d, config.points):
        built = dual_type_and_plan(d, cells, path)
        assert built is not None
        ctype, plan = built
        solved = solve_positions(ctype, config, plan)
        assert solved is not None, "unrealizable oracle configuration"
        total_c += cm
        total_w += wm
        count += 1
    assert (total_c, total_w) == (12, 8)
    assert count == 9  # one configuration per matched curve


def test_oracle_configurations_match_enumeration_d2():
    d = 2
    config = PointConfiguration.mikhalkin(3 * d - 1, 11)
    configs = list(lattice_path_subdivisions(d, config.points))
    assert len(configs) == 1
    cells, path, cm, wm = configs[0]
    assert (cm, wm) == (1, 1)
    ctype, plan = dual_type_and_plan(d, cells, path)
    assert solve_positions(ctype, config, plan) is not None


def pipeline_subdivisions(d, curves):
    """Per curve, its dual cells as sorted corner tuples in the oracle's
    triangle, (x, y) -> (d - x, d - y), with its complex and Welschinger
    multiplicities."""
    return Counter(
        (
            tuple(sorted(tuple(sorted((d - x, d - y) for x, y in cell)) for cell in dual_subdivision_cells(c))),
            curve_mikhalkin_mults(c)[0],
            curve_welschinger_mult(c),
        )
        for c in curves
    )


def oracle_subdivisions(d, points):
    return Counter(
        (tuple(sorted(tuple(sorted(corners)) for _, corners in cells)), cm, wm)
        for cells, _, cm, wm in lattice_path_subdivisions(d, points)
    )


@pytest.mark.parametrize("name", ["d3-mikhalkin-7", "d3-mikhalkin-3"])
def test_stored_curves_match_oracle_subdivisions(name):
    doc = json.loads((DATA / (name + ".json")).read_text())
    curves = [curve_from_json(c)[0] for c in doc["curves"]]
    expected = oracle_subdivisions(3, [as_point(p) for p in doc["points"]])
    assert pipeline_subdivisions(3, curves) == expected
    # faults: a curve dropped, and a curve swapped for a copy of another
    # with the same multiplicities, which leaves both totals unchanged
    assert pipeline_subdivisions(3, curves[1:]) != expected
    mults = [(curve_mikhalkin_mults(c)[0], curve_welschinger_mult(c)) for c in curves]
    i, j = next((i, j) for j in range(len(curves)) for i in range(j) if mults[i] == mults[j])
    assert pipeline_subdivisions(3, curves[:i] + [curves[j]] + curves[i + 1 :]) != expected


def count_search(monkeypatch):
    """A dict whose "yields" and "propagate" entries count, from now on,
    the assignments ``_search_assignments`` yields and the ``_propagate``
    calls, which pin the size of a search tree."""
    search = enumeration._search_assignments
    counts = {"yields": 0, "propagate": 0}

    def counted_search(*args):
        for assignment in search(*args):
            counts["yields"] += 1
            yield assignment

    def counted_propagate(holds, *args):
        counts["propagate"] += 1

    monkeypatch.setattr(enumeration, "_search_assignments", counted_search)
    watch(monkeypatch, "_propagate", counted_propagate)
    return counts


@pytest.mark.slow
def test_pipeline_matches_oracle_subdivisions_d4(monkeypatch):
    """The normative pipeline at d = 4: 307 curves, N/W = 620/240, each
    curve dual to one of the lattice-path oracle's subdivisions.  Its
    search tree is pinned by its size: 307 yielded assignments over the
    2,818 types, each one a curve, and 2,118 ``_propagate`` calls (26,009
    before each type's root ran ``_singleton_consistency``)."""
    counts = count_search(monkeypatch)
    config = PointConfiguration.mikhalkin(11, 7)
    curves = [c for c, _ in enumerate_curves(0, Degree.projective(4), config)]
    assert counts == {"yields": 307, "propagate": 2118}
    assert len(curves) == 307
    assert sum(curve_mikhalkin_mults(c)[0] for c in curves) == 620
    assert sum(curve_welschinger_mult(c) for c in curves) == 240
    assert pipeline_subdivisions(4, curves) == oracle_subdivisions(4, config.points)


# generic_points(random.Random(3), 11) of bench/workloads.py
GENERIC_D4_POINTS = [
    (-500953, 242858), (141331, -726484), (-224148, 920875), (266512, -5838),
    (312230, 218135), (-862577, 270034), (-972385, 905930), (756299, -15949),
    (-456096, 155079), (-508573, -597884), (503968, -13786),
]


@pytest.mark.slow
def test_generic_d4_counts(monkeypatch):
    """The pipeline at d = 4 in generic position: N/W = 620/240, N through
    ``count_complex`` (whose lattice route is cross-checked against the
    vertex product), and on two sign vectors, each with both signs of t,
    a real count of the parity of N with |W| <= N_R <= N and a census
    that agrees curve by curve.  Its search tree is pinned by its size:
    310 yielded assignments, each one a curve, and 27,223 ``_propagate``
    calls.  Runs after the Mikhalkin d = 4 test, so it reads the d = 4
    systems that test built."""
    counts = count_search(monkeypatch)
    config = PointConfiguration.explicit(GENERIC_D4_POINTS)
    constraints = config.constraints()
    curves = enumerate_curves(0, Degree.projective(4), config)
    assert counts == {"yields": 310, "propagate": 27223}
    assert len(curves) == 310
    plain = [c for c, _ in curves]
    n = count_complex(curves, constraints).n_trop
    w = welschinger_total(plain)
    assert (n, w) == (620, 240)
    for signs in (["++"] * 11, ["+-", "--", "-+", "++"] * 2 + ["-+", "+-", "--"]):
        real_config = RealPointConfig.from_strings(signs)
        for sign_t in (1, -1):
            n_r = count_real(curves, constraints, real_config, sign_t).n_real_trop
            assert (n - n_r) % 2 == 0 and abs(w) <= n_r <= n, (signs, sign_t, n_r)
    for sign_t in (1, -1):
        assert all(row["agrees"] for row in census_report(plain, sign_t))
