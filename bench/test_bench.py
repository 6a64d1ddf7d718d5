"""Tests of the benchmark itself: the answer checks bite, traced counts
repeat, and the stored curve sets are what ``tropcount enumerate`` writes.

Run from the repository root:  python3 -m pytest -q bench
Set BENCH_REGEN=1 to also regenerate the stored curve sets (minutes).
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tropcount import counting, enumeration, oracles, welschinger  # noqa: E402
from tropcount.enumeration import GenericityFailure  # noqa: E402
from tropcount.tropical import Degree  # noqa: E402


@pytest.fixture(scope="module")
def d3_types():
    return enumeration.enumerate_types(0, Degree.projective(3))


@pytest.fixture
def cached_types(monkeypatch, d3_types):
    """Types do not depend on the points; build them once for these tests."""
    monkeypatch.setattr(enumeration, "enumerate_types", lambda genus, degree: d3_types)


def wrong_n(monkeypatch):
    original = counting.count_complex
    monkeypatch.setattr(
        counting, "count_complex",
        lambda *a, **k: dataclasses.replace(original(*a, **k), n_trop=original(*a, **k).n_trop + 2),
    )


def census_disagrees(monkeypatch):
    original = welschinger.census_report

    def report(curves, sign_t):
        rows = original(curves, sign_t)
        return [dict(rows[0], agrees=False)] + rows[1:]

    monkeypatch.setattr(welschinger, "census_report", report)


def parity_break(monkeypatch):
    original = counting.count_real
    monkeypatch.setattr(
        counting, "count_real",
        lambda *a, **k: dataclasses.replace(original(*a, **k), n_real_trop=original(*a, **k).n_real_trop - 1),
    )


FAULTS = [wrong_n, census_disagrees, parity_break]


def run_checked(workload):
    return worker.checked(workload.op)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
def test_lib_fault_is_a_failed_operation(fault, monkeypatch, cached_types):
    fault(monkeypatch)
    outcome = run_checked(workloads.LibD3Generic(1))
    assert outcome.problems and outcome.reseeds == 0


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
def test_counts_fault_is_a_failed_operation(fault, monkeypatch):
    fault(monkeypatch)
    outcome = run_checked(workloads.CountsD3Signs(1))
    assert outcome.problems and outcome.reseeds == 0


def test_oracle_wrong_n_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(oracles, "lattice_path_oracle", lambda d, points: (618, 240))
    assert run_checked(workloads.OracleD4(1)).problems


def test_cli_checker_bites():
    good = {"degree": 3, "totals": {"complex": 12, "real": 10, "welschinger": 8}}
    assert workloads.check_count_report(good) == []
    for key, value in (("complex", 14), ("real", 11), ("real", 6), ("welschinger", 6)):
        bad = {"degree": 3, "totals": dict(good["totals"], **{key: value})}
        assert workloads.check_count_report(bad), (key, value)


def test_degenerate_points_fail_in_every_d3_checker(monkeypatch, cached_types):
    draws = iter([list(workloads.DEGENERATE_D3)])
    real_draw = workloads.generic_points
    monkeypatch.setattr(workloads, "generic_points", lambda rng: next(draws, None) or real_draw(rng))
    outcome = run_checked(workloads.LibD3Generic(1))
    assert outcome.problems and outcome.reseeds == 0

    config = workloads.PointConfiguration.explicit(workloads.DEGENERATE_D3)
    curves = enumeration.enumerate_curves(0, workloads.DEGREE3, config)
    counts = workloads.CountsD3Signs(1)
    counts.sets = [workloads.CurveSet(curves=curves, constraints=config.constraints())]
    outcome = run_checked(counts)
    assert outcome.problems and outcome.reseeds == 0


def test_degenerate_points_fail_the_cli_operation(tmp_path, monkeypatch):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[str(x), str(y)] for x, y in workloads.DEGENERATE_D3]}))
    argv = ["count", "--degree", "3", "--complex", "--real", "--signs", "all-positive",
            "--points", str(points)]
    cli = workloads.CliD3Mikhalkin(1)
    monkeypatch.setattr(cli, "next_argv", lambda: argv)
    outcome = run_checked(cli)
    assert outcome.problems and outcome.reseeds == 0


def test_genericity_failure_is_a_reseed_and_other_errors_fail(monkeypatch):
    calls = []

    def solve(points, signs):
        calls.append(points)
        if len(calls) == 1:
            raise GenericityFailure("test")
        return []

    monkeypatch.setattr(workloads, "solve_d3", solve)
    outcome = run_checked(workloads.LibD3Generic(1))
    assert outcome.problems == [] and outcome.reseeds == 1 and calls[0] != calls[1]

    def broken(points, signs):
        calls.append(points)
        if len(calls) == 3:
            raise ValueError("internal")
        return []

    monkeypatch.setattr(workloads, "solve_d3", broken)
    outcome = run_checked(workloads.LibD3Generic(1))
    assert outcome.problems and outcome.reseeds == 0


# largest share of an operation's wall time that no traced layer may cover
UNTRACED_MAX = {"cli-d3-mikhalkin": 0.05, "lib-d3-generic": 0.02, "counts-d3-signs": 0.02, "oracle-d4": 0.02}


def traced(name, seed):
    tracer = tracing.Tracer()
    _, outcomes = worker.fixed_pass(name, seed, tracer)
    assert not [p for o in outcomes for p in o.problems]
    return tracer


def exact_counts(tracer):
    metrics = tracing.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_add_up(name):
    first, second = traced(name, 5), traced(name, 5)
    assert exact_counts(first) == exact_counts(second)
    spans = first.spans
    assert all(s[2] is not None for s in spans)
    for span in spans:
        if span[3] is not None:
            parent = spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2] and parent[4] == span[4]
    self_s = tracing.self_times(spans)
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["op"] * (worker.TRACE_OPS[name] + 1)
    for root in roots[1:]:  # roots[0] is the set-up
        wall = root[2] - root[1]
        layers = sum(t for t, s in zip(self_s, spans) if s[4] == root[4] and s[3] is not None)
        # what no layer covers: the benchmark's own input generation and
        # checks, and for the CLI workload the child's interpreter start
        assert layers <= wall and layers >= (1 - UNTRACED_MAX[name]) * wall, (root[4], layers, wall)


def test_layer_metrics_are_the_declared_ones():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    produced = set(tracing.layer_metrics(tracing.Tracer()))
    assert produced == declared | set(tracing.ANSWER_COUNTS)
    assert not declared & set(tracing.ANSWER_COUNTS)


def test_uninstall_restores_every_function():
    before = {m: dict(vars(sys.modules["tropcount." + m])) for m in tracing.MODULES}
    tracer = tracing.Tracer()
    tracer.install()
    assert counting.smith_normal_form is not before["counting"]["smith_normal_form"]
    tracer.uninstall()
    after = {m: dict(vars(sys.modules["tropcount." + m])) for m in tracing.MODULES}
    assert after == before


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-d4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


@pytest.mark.skipif(os.environ.get("BENCH_REGEN") != "1", reason="set BENCH_REGEN=1")
@pytest.mark.parametrize("path", workloads.stored_curve_sets(), ids=lambda p: p.name)
def test_stored_curve_set_regenerates(path, tmp_path):
    doc = json.loads(path.read_text())
    argv = [sys.executable, "-m", "tropcount.cli", "enumerate", "--degree", str(doc["degree"])]
    if doc["mode"] == "mikhalkin":
        argv += ["--mikhalkin-seed", str(doc["seed"])]
    else:
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": doc["points"]}))
        argv += ["--points", str(points)]
    proc = subprocess.run(argv, capture_output=True, env=workloads.child_env(), timeout=600)
    assert proc.returncode == 0
    assert proc.stdout == path.read_bytes()


def test_timed_loop_counts_failed_operations():
    class Failing:
        def op(self, tracer=None):
            return workloads.Outcome(["wrong"])

    raw = worker.timed_loop(Failing(), 0.05, warm_up=1)
    assert raw["attempted"] == raw["failed"] == len(raw["op_spans"]) + 1 >= 2
    assert raw["problems"] == ["wrong"] * min(10, raw["failed"])
