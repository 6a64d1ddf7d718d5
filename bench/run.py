"""tropcount benchmark runner.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-d3-mikhalkin, lib-d3-generic, counts-d3-signs,
oracle-d4, or ``all`` to run the four in turn.  run.py never imports
tropcount itself: each workload runs in one worker process (``worker.py``),
and the CLI workload's worker starts one ``tropcount`` process per
operation, so at most one process computes beside run.py.

Output: the metrics by name and unit, the run metadata, and as the last line
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-d3-mikhalkin", "lib-d3-generic", "counts-d3-signs", "oracle-d4")
SETUP_SAMPLES = 5  # set-ups timed per run; the worker's own is the last
RUN_LIMIT_S = 175  # a run must end within 180 s

with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def metadata(seed, threads):
    """What a result needs to be compared with another one."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gil_build": not sysconfig.get_config_var("Py_GIL_DISABLED"),
        "TROPCOUNT_THREADS": threads,
    }


def start_worker(name, seed, seconds, trace, setup_only=False):
    argv = [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(seconds), str(trace)]
    if setup_only:
        argv.append("--setup-only")
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def stop(proc):
    """SIGTERM first: the worker then stops its own child before exiting."""
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def finish(proc, deadline):
    """Wait for a worker and return its stdout; stop it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise SystemExit("worker %s did not finish in time" % proc.args[2:4])
    if proc.returncode != 0:
        raise SystemExit("worker %s exited with %d" % (proc.args[2:4], proc.returncode))
    return out


def timed_setup(name, seed, seconds, setup_only):
    """Start a worker; return it and its (start, ready) perf_counter times."""
    start = time.perf_counter()
    proc = start_worker(name, seed, seconds, 0, setup_only)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "ready":
        stop(proc)
        raise SystemExit("worker %s failed during set-up" % name)
    return proc, (start, ready)


def p90(values):
    # meaningful only with >= 100 values (counts-d3-signs); with fewer it is
    # the highest of few samples
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(name, seed, seconds, deadline):
    """Returns the raw worker result and a function that computes the
    metrics once the sampler has stopped."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, span = timed_setup(name, seed, seconds, setup_only=True)
        finish(proc, deadline)
        setups.append(span)
    proc, span = timed_setup(name, seed, seconds, setup_only=False)
    setups.append(span)
    raw = json.loads(finish(proc, deadline).splitlines()[-1])

    def metrics(scale):
        setup = [(t1 - t0) * scale(t0, t1) for t0, t1 in setups]
        ops = [(t1 - t0) * scale(t0, t1) for t0, t1 in raw["op_spans"]]
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ops) / sum(ops),
            "op_s.p50": statistics.median(ops),
            "op_s.p90": p90(ops),
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }

    raw["extra"] = {"failed_frac": raw["failed"] / raw["attempted"], "reseeds": raw["reseeds"]}
    raw["setup_spans"] = setups
    return raw, metrics


def per_layer(name, seed, deadline):
    proc = start_worker(name, seed, 0, 1)
    raw = json.loads(finish(proc, deadline).splitlines()[-1])

    layers = {k: v for k, v in raw["layers"].items() if k not in tracing.ANSWER_COUNTS}

    def metrics(scale):
        (p0, p1), (t0, t1) = raw["pass_spans"]["plain"], raw["pass_spans"]["traced"]
        overhead = ((t1 - t0) * scale(t0, t1)) / ((p1 - p0) * scale(p0, p1)) - 1
        return dict(layers, **{"trace.overhead_frac": overhead})

    raw["extra"] = {
        "answer_counts": {k: raw["layers"][k] for k in tracing.ANSWER_COUNTS},
        "spans_file": raw["spans_file"],
    }
    return raw, metrics


def run_one(name, seed, seconds, trace, meta):
    deadline = time.perf_counter() + RUN_LIMIT_S
    with speed.Sampler() as sampler:
        if trace:
            raw, metrics = per_layer(name, seed, deadline)
        else:
            raw, metrics = end_to_end(name, seed, seconds, deadline)
    scaled = metrics(sampler.scale)
    wall = metrics(lambda t0, t1: 1.0)
    print("== %s  seed %d  %s" % (name, seed, "traced" if trace else "%g s closed loop" % seconds))
    print("  %-40s %-14s %-14s %s" % ("metric", "value", "wall", "unit"))
    for key, value in scaled.items():
        print("  %-40s %-14.6g %-14.6g %s" % (key, value, wall[key], UNITS[key]))
    if "setup_spans" in raw:
        # the worker's own set-up is the last sample
        samples = [(t1 - t0) * sampler.scale(t0, t1) for t0, t1 in raw["setup_spans"]]
        print("  setup_s samples %s" % " ".join("%.6g" % v for v in samples))
    print("  attempted %d  failed %d  %s" % (raw["attempted"], raw["failed"], json.dumps(raw["extra"])))
    for problem in raw["problems"]:
        print("  FAILED: %s" % problem)
    print("  meta %s" % json.dumps(meta, sort_keys=True))
    return raw, scaled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(_SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropcount" / "__init__.py").is_file():
        raise SystemExit("no tropcount sources under %s" % SRC)
    # every run is the single-threaded baseline; the value found is recorded
    threads = os.environ.pop("TROPCOUNT_THREADS", None)
    meta = metadata(args.seed, threads)
    # the speed sampler must share its CPU with the work it calibrates
    meta["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [(name, *run_one(name, args.seed, args.seconds, args.trace, meta)) for name in names]
    attempted = sum(raw["attempted"] for _, raw, _ in results)
    failed = sum(raw["failed"] for _, raw, _ in results)
    prefix = len(results) > 1
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (name + "/" + key if prefix else key): {"value": value, "unit": UNITS[key]}
            for name, _, metrics in results
            for key, value in metrics.items()
        },
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
