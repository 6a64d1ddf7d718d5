import ast
import collections
from pathlib import Path

import pytest

import tropcount

from tropcount import oracles
from tropcount.enumeration import PointConfiguration
from tropcount.oracles import (
    kontsevich_number,
    lattice_path_oracle,
    lattice_path_subdivisions,
    path_problem,
)


def test_kontsevich_small_degrees():
    assert [kontsevich_number(d) for d in (1, 2, 3, 4, 5)] == [1, 1, 12, 620, 87304]


def test_lattice_paths_low_degrees():
    assert lattice_path_oracle(1) == (1, 1)
    assert lattice_path_oracle(2) == (1, 1)
    assert lattice_path_oracle(3) == (12, 8)


def test_lattice_paths_degree_four():
    # complex total matches the recursion; the signed total is the classical
    # degree-4 plane Welschinger number
    assert lattice_path_oracle(4) == (kontsevich_number(4), 240)


def test_totals_independent_of_order_functional():
    for d in (1, 2, 3):
        config = PointConfiguration.mikhalkin(3 * d - 1, 23)
        assert lattice_path_oracle(d, config.points) == lattice_path_oracle(d)


def test_path_problem_rejects_wrong_point_count():
    config = PointConfiguration.mikhalkin(5, 3)
    with pytest.raises(ValueError):
        lattice_path_oracle(3, config.points)


def test_path_problem_rejects_coincident_points():
    with pytest.raises(ValueError, match=r"points 0 and 1 coincide at \(0, 0\)"):
        lattice_path_oracle(2, [(0, 0), (0, 0), (1, 2), (3, 4), (5, 6)])
    with pytest.raises(ValueError, match="points 1 and 4 coincide"):
        lattice_path_oracle(2, [(0, 0), (1, 2), (3, 4), (5, 6), (1, 2)])


@pytest.mark.slow
def test_lattice_paths_degree_five():
    config = PointConfiguration.mikhalkin(14, 7)
    assert lattice_path_oracle(5, config.points) == (kontsevich_number(5), 18264)
    # one subdivision per curve through the points
    assert sum(1 for _ in lattice_path_subdivisions(5, config.points)) == 26891


# the 9 unit triangles of the degree-3 triangle: dual to a connected cubic
# of genus 1 (T = 9 triangles, B = 9 boundary edges)
CUBIC_OF_GENUS_ONE = [
    ("t", ((i, j), (i + 1, j), (i, j + 1))) for i in range(3) for j in range(3 - i)
] + [("t", ((i + 1, j), (i + 1, j + 1), (i, j + 1))) for i in range(2) for j in range(2 - i)]

# one of the 55 subdivisions of path_problem(4, mikhalkin(11, 7).points) dual
# to a line (the strip of parallelograms) and a cubic of genus 1: with
# T = 10 and B = 12 it passes the count of a tree, but is not connected
LINE_AND_CUBIC = [
    ("t", ((0, 3), (1, 3), (0, 4))),
    ("t", ((0, 2), (1, 2), (0, 3))),
    ("t", ((0, 2), (2, 1), (1, 2))),
    ("t", ((0, 2), (3, 0), (2, 1))),
    ("t", ((0, 1), (1, 1), (0, 2))),
    ("t", ((0, 1), (2, 0), (1, 1))),
    ("t", ((0, 0), (1, 0), (0, 1))),
    ("p", ((3, 0), (2, 1), (3, 1), (4, 0))),
    ("p", ((2, 1), (1, 2), (2, 2), (3, 1))),
    ("p", ((1, 2), (0, 3), (1, 3), (2, 2))),
    ("t", ((2, 0), (1, 1), (3, 0))),
    ("t", ((1, 1), (0, 2), (3, 0))),
    ("t", ((1, 0), (0, 1), (2, 0))),
]


def test_curve_with_a_cycle_counts_zero():
    assert len(CUBIC_OF_GENUS_ONE) == 9
    assert oracles._subdivision_multiplicities(3, CUBIC_OF_GENUS_ONE) == (0, 0)


def test_disconnected_curve_counts_zero():
    assert oracles._subdivision_multiplicities(4, LINE_AND_CUBIC) == (0, 0)


def test_cells_that_do_not_tile_are_rejected():
    cells = CUBIC_OF_GENUS_ONE
    for i in range(len(cells)):
        with pytest.raises(AssertionError, match="does not tile"):
            oracles._subdivision_multiplicities(3, cells[:i] + cells[i + 1 :])
        swapped = cells[:i] + [cells[i - 1]] + cells[i + 1 :]  # same area
        with pytest.raises(AssertionError, match=r"lies in \d cells"):
            oracles._subdivision_multiplicities(3, swapped)


def _half_subdivisions(d, points):
    problem = path_problem(d, points)
    memo = {}
    return [
        sub
        for path in oracles._paths(problem)
        for side in (1, -1)
        for sub in oracles._subdivisions(problem, path, side, memo)
    ]


def _has_multiple_boundary_edge(d, cells):
    return any(
        oracles._side_of(d, e) is not None and oracles._lattice_length(e) >= 2
        for cell in cells
        for e in oracles._cell_edges(cell)
    )


def test_boundary_rule_prune_is_exact(monkeypatch):
    # _subdivisions drops cells with a boundary edge of lattice length >= 2;
    # building every cell and filtering whole subdivisions afterwards must
    # give the same halves and the same yielded sequence
    cases = [
        (d, points)
        for d in (2, 3, 4)
        for points in [None] + [PointConfiguration.mikhalkin(3 * d - 1, s).points for s in (7, 23)]
    ]
    pruned = [(_half_subdivisions(d, p), list(lattice_path_subdivisions(d, p))) for d, p in cases]
    geometry = oracles._cell_geometry
    monkeypatch.setattr(
        oracles,
        "_cell_geometry",
        lambda d, cell: geometry(d, cell)._replace(multiple_boundary_edge=False),
    )
    for (d, p), (halves, yielded) in zip(cases, pruned):
        unpruned = _half_subdivisions(d, p)
        assert [h for h in unpruned if not _has_multiple_boundary_edge(d, h)] == halves
        if d == 4:
            assert len(unpruned) > len(halves)  # the prune bites
        reference = [
            item
            for item in lattice_path_subdivisions(d, p)
            if not _has_multiple_boundary_edge(d, item[0])
        ]
        assert reference == yielded


def test_path_problem_endpoints_are_lambda_extremes():
    problem = path_problem(3)
    lam = problem.lam
    pts = [(i, j) for i in range(4) for j in range(4 - i)]
    assert lam(problem.start) == min(lam(p) for p in pts)
    assert lam(problem.end) == max(lam(p) for p in pts)


PIPELINE = (
    "exact_lattice", "tropical", "polyhedral", "incidence", "counting",
    "welschinger", "enumeration",
)


def _imported_parts(name):
    """Every dotted part of every name a package module imports, at any
    depth of the module."""
    tree = ast.parse((Path(tropcount.__file__).parent / (name + ".py")).read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported = [base] + [base + "." + alias.name for alias in node.names]
        else:
            continue
        parts.update(part for mod in imported for part in mod.split("."))
    return parts


def test_pipeline_does_not_import_oracles():
    # the oracles cross-check the normative pipeline, so it must not use them
    for name in PIPELINE:
        assert "oracles" not in _imported_parts(name), "%s imports oracles" % name


def test_only_selftest_imports_polyhedral():
    # the counts read the goodness scale off the curve; only the acceptance
    # suite checks it against its definition, and enumeration counts no
    # nodes.  polyhedral stays a leaf over tropical.
    package = Path(tropcount.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    for name in modules:
        if name != "selftest":
            assert "polyhedral" not in _imported_parts(name), "%s imports polyhedral" % name
    assert "welschinger" not in _imported_parts("enumeration")
    imported = _imported_parts("polyhedral") & set(modules)
    assert imported <= {"tropical"}, "polyhedral imports %s" % sorted(imported)


def test_no_private_imports_between_modules():
    # a name with a leading underscore is internal to its module
    package = Path(tropcount.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("tropcount"):
                continue
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, "%s imports %s from %s" % (path.name, private, node.module)


def _unread_private_names(tree):
    """The module-level private names (a ``_``-prefixed def, class or
    constant) that the module reads nowhere outside their own definition,
    and, as ``Class.attr``, the attributes a private class's ``__init__``
    sets on ``self`` that no attribute read in the module names; no module
    imports another's private names, so no other module reads them
    either."""
    attributes_read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    reads = [
        {
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in tree.body
    ]
    # the number of top-level statements that read each name
    readers = collections.Counter(name for read in reads for name in read)
    unread = []
    for stmt, read in zip(tree.body, reads):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        unread += [
            n
            for n in defined
            if n.startswith("_") and not n.startswith("__") and readers[n] == (n in read)
        ]
        if isinstance(stmt, ast.ClassDef) and stmt.name.startswith("_"):
            inits = [f for f in stmt.body if getattr(f, "name", None) == "__init__"]
            unread += sorted(
                {
                    "%s.%s" % (stmt.name, node.attr)
                    for init in inits
                    for node in ast.walk(init)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in attributes_read
                }
            )
    return unread


def test_no_unused_imports():
    # an imported name is read in its module or re-exported through __all__,
    # and every module-level private name is read; no linter is installed,
    # so this walk stands in for one
    package = Path(tropcount.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        unread = _unread_private_names(tree)
        assert not unread, "%s defines %s and never reads them" % (path.name, unread)
        imported = set()
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        unused = sorted(imported - read)
        assert not unused, "%s imports %s and never reads them" % (path.name, unused)


# Public src names that no src or bench code reads, each kept as an
# independent reference for the tests named beside it.
TEST_ONLY_NAMES = {
    "rational_rank": "test_exact_lattice: test_saturate_is_the_saturation",
    "segment_param": "test_enumeration: _fraction_rule; "
    "test_incidence: test_point_constraint_meets_an_edge_where_segment_param_finds_it",
}


def test_every_public_name_is_read_outside_the_tests():
    # a public module-level def or class, or a public method, of the package
    # is read somewhere in src/ or bench/; names match by identifier, as in
    # the private-name walk above, so each public name is defined once: a
    # method only tests call would hide behind a namesake that src reads
    package = Path(tropcount.__file__).parent
    bench = Path(__file__).resolve().parent.parent / "bench"
    defined = collections.Counter()
    read = set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # __all__ entries and the (module, name) pairs bench traces
                read.add(node.value)
        if path.parent != package:
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] += 1
            if isinstance(stmt, ast.ClassDef):
                defined.update(f.name for f in stmt.body if isinstance(f, ast.FunctionDef))
    twice = sorted(n for n, count in defined.items() if count > 1 and not n.startswith("_"))
    assert not twice, "public names defined more than once: %s" % twice
    unread = sorted(
        n for n in defined.keys() - read - set(TEST_ONLY_NAMES) if not n.startswith("_")
    )
    assert not unread, "only tests read %s" % unread
    assert not set(TEST_ONLY_NAMES) & read, "allow-listed names are read in src or bench"
