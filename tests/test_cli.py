import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropcount
from tropcount.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_degree_one(tmp_path, capsys):
    out = tmp_path / "curves.json"
    code, _, _ = run_cli(
        ["enumerate", "--degree", "1", "--mikhalkin-seed", "7", "-o", str(out)],
        capsys,
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "tropcount/1"
    assert len(data["curves"]) == 1


def test_count_real_line(capsys):
    code, out, _ = run_cli(
        ["count", "--degree", "1", "--real", "--signs", "++,++", "--sign-t", "+"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["real"] == 1


def test_count_complex_degree_two(capsys):
    code, out, _ = run_cli(["count", "--degree", "2", "--complex"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["complex"] == 1
    assert data["totals"]["welschinger"] == 1


def test_count_table_format(capsys):
    code, out, _ = run_cli(
        ["count", "--degree", "1", "--complex", "--format", "table"], capsys
    )
    assert code == 0
    assert "N=1" in out


def test_count_table_prints_only_computed_totals(capsys):
    code, out, _ = run_cli(
        ["count", "--degree", "2", "--real", "--signs=all-positive", "--format", "table"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[-1] == "totals\tN_R=1\tW_R=1"


def test_output_to_unwritable_path_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "curves.json"
    code, out, err = run_cli(["enumerate", "--degree", "1", "--output", str(target)], capsys)
    assert code == 2
    assert "cannot write" in err
    assert out == ""


@pytest.mark.parametrize("max_degree", ["0", "-3", "4"])
def test_selftest_rejects_max_degree_out_of_range(max_degree, monkeypatch, capsys):
    from tropcount import selftest

    def run(**kwargs):
        raise AssertionError("selftest ran with --max-degree %s" % max_degree)

    monkeypatch.setattr(selftest, "run", run)
    code, _, err = run_cli(["selftest", "--max-degree=" + max_degree], capsys)
    assert code == 2
    assert "--max-degree" in err


def test_count_real_requires_signs(capsys):
    code, _, err = run_cli(["count", "--degree", "1", "--real"], capsys)
    assert code == 2
    assert "signs" in err


@pytest.mark.parametrize("option", ["--signs=garbage", "--sign-t=x", "--sign-t=-"])
def test_count_sign_options_need_real(option, capsys):
    # without --real nothing reads them, so they are an input error
    code, _, err = run_cli(["count", "--degree", "1", option], capsys)
    assert code == 2
    assert "need --real" in err


def _count_points(doc):
    """The argv of a d=1 count over a points file holding ``doc``."""

    def argv(tmp_path, monkeypatch):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        return ["count", "-d", "1", "--points", str(path)]

    return argv


def _argv(*args):
    return lambda tmp_path, monkeypatch: list(args)


def _unreadable_points(tmp_path, monkeypatch):
    return ["count", "-d", "1", "--points", str(tmp_path / "missing.json")]


def _render_count_report(tmp_path, monkeypatch):
    doc = tmp_path / "report.json"
    doc.write_text(json.dumps({"schema": "tropcount/1", "kind": "count-report", "rows": []}))
    return ["render", str(doc)]


def _failing_census(tmp_path, monkeypatch):
    from tropcount import cli

    monkeypatch.setattr(cli, "census_report", lambda curves, sign_t: [{"agrees": False}])
    return ["welschinger", "-d", "1"]


def _failing_criterion(tmp_path, monkeypatch):
    from tropcount import selftest

    ident, name, _ = selftest.CRITERIA[0]
    monkeypatch.setattr(selftest, "CRITERIA", [(ident, name, lambda ctx: (False, "patched"))])
    return ["selftest", "--max-degree", "1"]


# case: (argv given tmp_path and monkeypatch, exit code, stderr prefix)
EXITS = {
    "non-rational-coordinate": (
        _count_points({"points": [["1/x", "0"], ["3", "1"]]}),
        2,
        "input error: not a rational number: '1/x'",
    ),
    "unreadable-points-path": (_unreadable_points, 2, "input error: cannot read "),
    "points-file-without-points": (
        _count_points({"signs": ["++", "++"]}),
        2,
        "input error: points file needs a top-level 'points' array",
    ),
    "wrong-number-of-sign-pairs": (
        _argv("count", "-d", "1", "--real", "--signs", "++,++,++"),
        2,
        "input error: need 2 sign pairs, got 3",
    ),
    "sign-not-plus-or-minus": (
        _argv("count", "-d", "1", "--real", "--signs", "+x,++"),
        2,
        "input error: sign strings may only contain '+' and '-'",
    ),
    "sign-t-x": (
        _argv("count", "-d", "1", "--real", "--signs", "all-positive", "--sign-t", "x"),
        2,
        "input error: --sign-t must be + or -",
    ),
    "render-a-count-report": (_render_count_report, 2, "input error: render expects a curve-set"),
    "census-mismatch": (_failing_census, 4, "census/Mult_R mismatch"),
    "failing-selftest": (_failing_criterion, 1, "failing criteria: A1"),
}


@pytest.mark.parametrize("case", sorted(EXITS))
def test_exit_codes_and_messages(case, tmp_path, monkeypatch, capsys):
    argv_of, expected, prefix = EXITS[case]
    code, _, err = run_cli(argv_of(tmp_path, monkeypatch), capsys)
    assert code == expected
    assert err.startswith(prefix), err


def test_concatenated_signs_print_as_the_comma_form(capsys):
    signs = ["++", "-+", "+-", "--", "-+"]
    outputs = []
    for form in (",".join(signs), "".join(signs)):
        code, out, _ = run_cli(["count", "-d", "2", "--real", "--signs=" + form], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_points_and_mikhalkin_seed_exclude_each_other(command, tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[0, 0], [3, 1]]}))
    args = [command, "--degree", "1", "--points", str(points), "--mikhalkin-seed", "99"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "not both" in err
    assert out == ""
    # each alone is still accepted
    assert run_cli(args[:-2], capsys)[0] == 0
    assert run_cli(args[:3] + args[-2:], capsys)[0] == 0


def test_count_signs_starting_with_minus_joined_with_equals(capsys):
    # "--signs -+,++" reads as an option to the argument parser (exit 2);
    # the help text and the README say to join such a value with "="
    code, out, _ = run_cli(["count", "--degree", "1", "--real", "--signs=-+,++"], capsys)
    assert code == 0
    assert json.loads(out)["totals"]["real"] == 1


def test_count_parity_field(capsys):
    code, out, _ = run_cli(
        ["count", "--degree", "2", "--complex", "--real", "--signs", "all-positive"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["parity_ok"] is True


def test_welschinger_degree_one(capsys):
    code, out, _ = run_cli(["welschinger", "--degree", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["w_real_trop"] == 1
    assert all(r["agrees"] for r in data["rows"])


def test_welschinger_has_no_signs_option():
    with pytest.raises(SystemExit) as exc:
        main(["welschinger", "--degree", "1", "--signs", "garbage"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"points": [[-3, 0, 9], [0, -5, 4]]}),
        json.dumps({"points": [1, 2]}),
        json.dumps({"points": None}),
        json.dumps({"points": [["-3", "0"], ["0", "-5"]], "signs": 5}),
        json.dumps({"points": [["-3", "0"], ["0", "-5"]], "signs": [1, 2]}),
    ],
    ids=["not-json", "three-coordinates", "bare-numbers", "null", "signs-number", "signs-ints"],
)
def test_malformed_points_file(tmp_path, capsys, text):
    bad = tmp_path / "pts.json"
    bad.write_text(text)
    code, _, err = run_cli(["count", "--degree", "1", "--points", str(bad)], capsys)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "signs, file_signs",
    [("+,++", None), ("+++,++", None), (None, ["+-+", "++"]), (None, ["+", "--"])],
    ids=["short", "long", "file-long", "file-short"],
)
def test_sign_pairs_of_the_wrong_length(tmp_path, capsys, signs, file_signs):
    doc = {"points": [["-3", "0"], ["0", "-5"]]}
    if file_signs is not None:
        doc["signs"] = file_signs
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(doc))
    args = ["count", "--degree", "1", "--points", str(pts), "--real"]
    code, out, err = run_cli(args + (["--signs", signs] if signs else []), capsys)
    assert code == 2
    assert out == ""
    assert "one sign per coordinate" in err


def test_points_file_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [["-3", "0"], ["0", "-5"]], "signs": ["++", "++"]}))
    code, out, _ = run_cli(
        ["count", "--degree", "1", "--points", str(pts), "--real"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["real"] == 1


def test_render_deterministic(tmp_path, capsys):
    curves = tmp_path / "curves.json"
    run_cli(["enumerate", "--degree", "1", "--mikhalkin-seed", "7", "-o", str(curves)], capsys)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run_cli(["render", str(curves), "-o", str(a)], capsys)[0] == 0
    assert run_cli(["render", str(curves), "-o", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.count("<line") == 3  # three rays from one vertex


def test_render_dual_panel(tmp_path, capsys):
    curves = tmp_path / "curves.json"
    run_cli(["enumerate", "--degree", "1", "--mikhalkin-seed", "7", "-o", str(curves)], capsys)
    out = tmp_path / "dual.svg"
    assert run_cli(["render", str(curves), "--dual", "-o", str(out)], capsys)[0] == 0
    assert "<polygon" in out.read_text()


def test_render_names_a_malformed_input_file(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text('{"schema": ')
    code, _, err = run_cli(["render", str(doc)], capsys)
    assert code == 2
    assert "malformed JSON in %s" % doc in err


def test_render_rejects_wrong_schema(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"schema": "other/9", "kind": "curve-set"}))
    code, _, _ = run_cli(["render", str(doc)], capsys)
    assert code == 2


def _star(directions, weight=1):
    """A one-vertex curve record with the given ray directions."""
    return {
        "vertices": {"v0": ["0", "0"]},
        "bounded_edges": [],
        "unbounded_edges": [
            {"id": "u%d" % i, "vertex": "v0", "direction": list(u), "weight": weight}
            for i, u in enumerate(directions)
        ],
    }


def _reordered_rays():
    """A line record whose rays are listed as u1, u0, u2, marked on u1."""
    record = _star([(-1, 0), (0, -1), (1, 1)])
    rays = record["unbounded_edges"]
    record["unbounded_edges"] = [rays[1], rays[0], rays[2]]
    record["marks"] = ["u1"]
    return record


def _degenerate_edge():
    """Two vertices at one position, joined by a bounded edge."""
    record = _star([(-1, 0), (0, -1)])
    record["vertices"]["v1"] = ["0", "0"]
    record["bounded_edges"] = [{"id": "b0", "tail": "v0", "head": "v1", "weight": 1}]
    record["unbounded_edges"] += [
        {"id": "u2", "vertex": "v1", "direction": [1, 0], "weight": 1},
        {"id": "u3", "vertex": "v1", "direction": [0, 1], "weight": 1},
    ]
    return record


def test_curve_from_json_rejects_edges_out_of_position():
    # an edge's id is its position in its list; a record listing them in
    # another order would move its weights and marks to other edges
    from tropcount.cli import InputError, curve_from_json

    with pytest.raises(InputError, match="'u1' is listed where 'u0' belongs"):
        curve_from_json(_reordered_rays())
    record = _star([(-1, 0), (0, -1), (1, 1)])
    record["vertices"]["v1"] = ["1", "1"]
    record["bounded_edges"] = [{"id": "b1", "tail": "v0", "head": "v1", "weight": 1}]
    with pytest.raises(InputError, match="'b1' is listed where 'b0' belongs"):
        curve_from_json(record)


@pytest.mark.parametrize(
    "curves, message",
    [
        (5, "'curves' must be a list"),
        ([{"vertices": [], "bounded_edges": [], "unbounded_edges": []}], "malformed curve record"),
        ([{"vertices": {}, "bounded_edges": [], "unbounded_edges": []}], "malformed curve record"),
        ([_star([(-1, 0), (0, -1), (1, 0)])], "curve 0 is not balanced at vertex v0"),
        ([_star([(-1, 0), (0, -1), (1, 1)], weight=1.7)], "malformed curve record: not an integer: 1.7"),
        ([_star([(-1, 0), (0, -1), (1, 1)], weight=True)], "malformed curve record: not an integer: True"),
        ([_star([(-1, 0), (0, -1), (1.0, 1)])], "malformed curve record: not an integer: 1.0"),
        ([_reordered_rays()], "malformed curve record: edge 'u1' is listed where 'u0' belongs"),
        ([_degenerate_edge()], "malformed curve record: bounded edge b0 has equal endpoints"),
    ],
    ids=[
        "curves-number",
        "vertices-list",
        "vertices-empty",
        "unbalanced",
        "weight-float",
        "weight-bool",
        "direction-float",
        "edge-out-of-position",
        "degenerate-edge",
    ],
)
def test_render_rejects_malformed_curves(tmp_path, capsys, curves, message):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"schema": "tropcount/1", "kind": "curve-set", "curves": curves}))
    code, _, err = run_cli(["render", str(doc)], capsys)
    assert code == 2
    assert "input error: " + message in err


def test_points_file_is_read_once(tmp_path, capsys, monkeypatch):
    from tropcount import cli

    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [["-3", "0"], ["0", "-5"]], "signs": ["++", "++"]}))
    reads = []
    load = cli._load_points_file
    monkeypatch.setattr(cli, "_load_points_file", lambda path: reads.append(path) or load(path))
    code, _, _ = run_cli(["count", "--degree", "1", "--points", str(pts), "--real"], capsys)
    assert code == 0
    assert reads == [str(pts)]


def test_json_roundtrip_exact(tmp_path, capsys):
    """Re-ingesting emitted curves reproduces the same count report."""
    curves_path = tmp_path / "curves.json"
    run_cli(
        ["enumerate", "--degree", "2", "--mikhalkin-seed", "7", "-o", str(curves_path)],
        capsys,
    )
    data = json.loads(curves_path.read_text())
    from tropcount.cli import curve_from_json
    from tropcount.counting import count_complex
    from tropcount.incidence import AffineConstraint
    from fractions import Fraction

    curves = [curve_from_json(c) for c in data["curves"]]
    constraints = [
        AffineConstraint.point([Fraction(x) for x in p]) for p in data["points"]
    ]
    report = count_complex(curves, constraints)
    assert report.n_trop == 1

    # identical rows when counting the freshly enumerated curves directly
    from tropcount.enumeration import PointConfiguration, enumerate_curves
    from tropcount.tropical import Degree

    config = PointConfiguration.explicit(
        [[Fraction(x) for x in p] for p in data["points"]]
    )
    direct = enumerate_curves(0, Degree.projective(2), config)
    direct_report = count_complex(direct, constraints)
    assert direct_report.rows == report.rows


def test_genericity_failure_exit_code(monkeypatch, capsys):
    import tropcount.cli as cli
    from tropcount.enumeration import GenericityFailure

    def boom(*args, **kwargs):
        raise GenericityFailure("synthetic")

    monkeypatch.setattr(cli, "enumerate_curves", boom)
    code, _, err = run_cli(["enumerate", "--degree", "1"], capsys)
    assert code == 3
    assert "reseed" in err
    assert err.count("reseed") == 1
    assert "Mikhalkin seed 7" in err


# integer points in [-30, 30]^2 whose d = 3 curves break a generality
# clause, and the message naming it, filled in with the named point.  The
# last two fail only the integer certificate's vertex half and point half
# (``enumeration._solve``): without either, they give curves.
NON_GENERIC_D3 = {
    "point-on-two-ends": (
        [(7, 27), (28, -17), (2, -22), (-12, -22), (18, -24), (9, 21), (-14, 28), (4, 15)],
        3,
        "point 3 (%s, %s) meets edges",
    ),
    "edge-through-a-vertex": (
        [(-4, 4), (-7, 9), (6, -10), (30, -22), (14, 24), (2, 30), (9, 11), (13, 17)],
        None,
        "edge u0 meets a vertex of edge b5",
    ),
    "point-on-two-edges": (
        [(-3, 4), (3, -2), (11, 2), (-3, 7), (-10, -9), (4, 1), (-7, 12), (-2, -8)],
        0,
        "point 0 (%s, %s) meets edges b5, u0",
    ),
}


@pytest.mark.parametrize(
    "case, scale",
    [
        # the first case keeps the bare scale ids it has always had
        pytest.param(case, scale, id=name if i == 0 else "%s-%s" % (case, name))
        for i, case in enumerate(NON_GENERIC_D3)
        for name, scale in (("integer", Fraction(1)), ("halved", Fraction(1, 2)))
    ],
)
def test_genericity_failure_names_the_point(
    tmp_path, monkeypatch, capsys, d3_types, scale, case, fresh_systems
):
    from tropcount import enumeration

    # the systems built on the patched types stay in this test's memo
    monkeypatch.setattr(enumeration, "enumerate_types", lambda genus, degree: d3_types)
    # halved, the message must still name the point as given
    points, named, message = NON_GENERIC_D3[case]
    points = [(x * scale, y * scale) for x, y in points]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[str(x), str(y)] for x, y in points]}))
    code, out, err = run_cli(["enumerate", "--degree", "3", "--points", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert (message if named is None else message % points[named]) in err
    assert err.count("reseed") == 1
    assert "Mikhalkin" not in err


def test_render_dual_names_an_edge_through_a_vertex(
    tmp_path, monkeypatch, capsys, d3_types, fresh_systems
):
    # with the genericity checks off, the edge-through-a-vertex set yields a
    # curve whose ray u0 passes through an end of b5: it can be drawn, but
    # its dual subdivision is not defined
    from tropcount import enumeration
    from tropcount.cli import curve_to_json
    from tropcount.tropical import Degree

    monkeypatch.setattr(enumeration, "enumerate_types", lambda genus, degree: d3_types)
    monkeypatch.setattr(enumeration, "_genericity_checks", lambda *args: None)
    points, _, message = NON_GENERIC_D3["edge-through-a-vertex"]
    config = enumeration.PointConfiguration.explicit(points)
    curves = enumeration.enumerate_curves(0, Degree.projective(3), config)
    doc = tmp_path / "curves.json"
    records = [curve_to_json(curve, marks) for curve, marks in curves]
    doc.write_text(json.dumps({"schema": "tropcount/1", "kind": "curve-set", "curves": records}))
    out = tmp_path / "curves.svg"
    assert run_cli(["render", str(doc), "-o", str(out)], capsys)[0] == 0
    code, _, err = run_cli(["render", str(doc), "--dual", "-o", str(out)], capsys)
    assert code == 2
    assert "input error: curve 0 has no dual subdivision: " + message in err


def test_selftest_passes_seed_zero(monkeypatch):
    from tropcount import selftest

    seen = {}

    def run(degrees, seed):
        seen["seed"] = seed
        return []

    monkeypatch.setattr(selftest, "run", run)
    assert main(["selftest", "--max-degree", "1", "--mikhalkin-seed", "0"]) == 0
    assert seen["seed"] == 0


def test_crosscheck_failure_exit_code(monkeypatch, capsys):
    import tropcount.cli as cli
    from tropcount.counting import CrossCheckError

    def boom(*args, **kwargs):
        raise CrossCheckError("synthetic")

    monkeypatch.setattr(cli, "count_complex", boom)
    code, _, err = run_cli(["count", "--degree", "1", "--complex"], capsys)
    assert code == 4


def test_infinite_cokernel_is_not_an_input_error(monkeypatch, capsys):
    import tropcount.cli as cli
    from tropcount.counting import InfiniteCokernel

    def boom(*args, **kwargs):
        raise InfiniteCokernel("synthetic")

    monkeypatch.setattr(cli, "count_complex", boom)
    with pytest.raises(InfiniteCokernel):
        main(["count", "--degree", "1", "--complex"])
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, points, message",
    [
        (["-d", "0"], None, "degree must be positive"),
        (["-d", "1"], [["1", "2"], ["1", "2"]], "constraint points must be pairwise distinct"),
        (["-d", "1"], [["1", "2"], ["3", "5"], ["0", "7"]], "degree 1 needs 2 points, got 3"),
    ],
    ids=["degree-zero", "duplicate-points", "point-count"],
)
def test_user_value_errors_are_input_errors(tmp_path, capsys, args, points, message):
    if points is not None:
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": points}))
        args = args + ["--points", str(path)]
    code, out, err = run_cli(["count"] + args, capsys)
    assert code == 2
    assert out == ""
    assert "input error: " + message in err


def test_internal_value_error_is_not_an_input_error(monkeypatch, capsys):
    """An invariant failure inside the pipeline, here an ``IntMatrix``
    shape error, is a fault of the program: it leaves ``main`` as it is
    instead of exiting 2."""
    import tropcount.cli as cli
    from tropcount.exact_lattice import IntMatrix

    monkeypatch.setattr(cli, "count_complex", lambda *args: IntMatrix.from_rows([[1, 2], [3]]))
    with pytest.raises(ValueError, match="ragged rows"):
        main(["count", "--degree", "1", "--complex"])
    assert "input error" not in capsys.readouterr().err


def test_a_count_imports_no_oracle_selftest_or_svg():
    """A fresh ``tropcount count`` process imports only the modules a count
    runs: with no cached bytecode each module it imports is compiled, and
    the oracles, the self-test and the renderer are not among them."""
    script = (
        "import sys\n"
        "from tropcount.cli import main\n"
        "code = main(['count', '-d', '1', '--complex'])\n"
        "print(code, sorted(name for name in sys.modules if name.startswith('tropcount')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tropcount.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    code, modules = done.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert "tropcount.enumeration" in modules
    for name in ("tropcount.oracles", "tropcount.selftest", "tropcount.svg"):
        assert repr(name) not in modules
