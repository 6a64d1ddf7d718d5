"""Byte-for-byte CLI output on fixed inputs, against files in tests/golden/.

The stored files were written by the CLI before the edge-geometry code was
consolidated; a refactor that changes any byte of them changes behaviour.
"""

import json
from pathlib import Path

import pytest

from tropcount.cli import main

GOLDEN = Path(__file__).parent / "golden"
CURVE_SET = Path(__file__).parent.parent / "bench" / "data" / "d3-mikhalkin-7.json"

CASES = []
for d in (1, 2):
    seed = ["--degree", str(d), "--mikhalkin-seed", "7"]
    CASES += [
        ("enumerate-d%d-seed7.json" % d, ["enumerate"] + seed),
        (
            "count-d%d-seed7.tsv" % d,
            ["count"] + seed
            + ["--complex", "--real", "--signs=all-positive", "--sign-t=-", "--format", "table"],
        ),
        ("welschinger-d%d-seed7.json" % d, ["welschinger"] + seed + ["--sign-t=-"]),
    ]
CASES.append(("render-dual-d3-mikhalkin-7.svg", ["render", "--dual", str(CURVE_SET)]))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


COUNT_POINTS = Path(__file__).parent.parent / "bench" / "data" / "d3-generic-1.json"


def test_count_json_matches_golden(tmp_path, capsys):
    """Count JSON at both signs of t on the stored d=3 set with an even
    invariant factor: its curve 0 has twisted index 2 at t > 0 and 0 at
    t < 0, so the real count route is pinned on both outcomes."""
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": json.loads(COUNT_POINTS.read_text())["points"]}))
    twisted = set()
    for name, sign_t in (("plus", "+"), ("minus", "-")):
        argv = ["count", "--degree", "3", "--points", str(points), "--complex", "--real",
                "--signs=all-positive", "--sign-t=" + sign_t]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / ("count-d3-generic-1-t-%s.json" % name)).read_bytes()
        twisted.add(json.loads(out)["rows"][0]["twisted_index"])
    assert twisted == {0, 2}
