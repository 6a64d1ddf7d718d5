"""Byte-for-byte CLI output on fixed inputs, against files in tests/golden/.

The stored files were written by the CLI before the edge-geometry code was
consolidated; a refactor that changes any byte of them changes behaviour.
"""

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
