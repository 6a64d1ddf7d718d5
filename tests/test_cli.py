import json
from fractions import Fraction

import pytest

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


def test_count_real_requires_signs(capsys):
    code, _, err = run_cli(["count", "--degree", "1", "--real"], capsys)
    assert code == 2
    assert "signs" in err


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


def test_render_rejects_wrong_schema(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"schema": "other/9", "kind": "curve-set"}))
    code, _, _ = run_cli(["render", str(doc)], capsys)
    assert code == 2


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


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2)], ids=["integer", "halved"])
def test_genericity_failure_names_the_point(tmp_path, monkeypatch, capsys, d3_types, scale):
    from tropcount import enumeration

    monkeypatch.setattr(enumeration, "enumerate_types", lambda genus, degree: d3_types)
    # integer points in [-30, 30]^2: point 3 lies on two ends of one curve;
    # halved, the message must still name the point as given
    points = [(7, 27), (28, -17), (2, -22), (-12, -22), (18, -24), (9, 21), (-14, 28), (4, 15)]
    points = [(x * scale, y * scale) for x, y in points]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[str(x), str(y)] for x, y in points]}))
    code, out, err = run_cli(["enumerate", "--degree", "3", "--points", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert "point 3 (%s, %s) meets edges" % points[3] in err
    assert err.count("reseed") == 1
    assert "Mikhalkin" not in err


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
