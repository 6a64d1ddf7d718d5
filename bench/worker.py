"""One benchmark worker: set up a workload, run it, print the raw result.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Started by ``run.py``, one worker at a time.  The worker prints ``ready``
once its set-up (imports plus input generation or ingest) is done, so
run.py can time process start to first operation.  With --setup-only it
stops there.  Otherwise it prints one JSON line with the raw measurements.

With TRACE 0 the worker first runs WARM_UP_OPS[WORKLOAD] checked but untimed
operations, then runs operations in a closed loop for SECONDS.  With TRACE 1
a fixed list of operations, set-up included, runs once untraced and once
traced, so that counts repeat exactly and the tracing overhead shows.
"""

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# operations in one traced pass, at least a few seconds of work; the
# lib-d3-generic pass has a cold and a warm operation, so reuse across
# operations in one process shows in its counts and times
TRACE_OPS = {"cli-d3-mikhalkin": 1, "lib-d3-generic": 2, "counts-d3-signs": 40, "oracle-d4": 8}
# untimed operations before the timed loop: lib-d3-generic times a process
# that has already answered a problem (the cold case is cli-d3-mikhalkin)
WARM_UP_OPS = {"lib-d3-generic": 1}


def checked(op, tracer=None):
    """Run one operation; any exception counts as a failed operation."""
    try:
        return op(tracer)
    except Exception:  # the benchmark records failures and keeps going
        return workloads.Outcome(["exception: " + traceback.format_exc(limit=3).strip()[-500:]])


def timed_loop(workload, seconds, warm_up=0):
    """Run ``warm_up`` untimed operations, then time operations for
    ``seconds``.  Warm-up answers are checked and counted like timed ones."""
    outcomes = [checked(workload.op) for _ in range(warm_up)]
    spans = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcomes.append(checked(workload.op))
        spans.append((t0, time.perf_counter()))
    return {
        "op_spans": spans,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "problems": [p for o in outcomes for p in o.problems][:10],
        "reseeds": sum(o.reseeds for o in outcomes),
    }


def fixed_pass(name, seed, tracer=None):
    """Set up and run TRACE_OPS[name] operations, with ``tracer`` installed
    if one is given; returns ((start, end), outcomes)."""
    run_op = tracer.run_op if tracer is not None else lambda op_id, fn: fn()
    with tracing.installed(tracer):
        start = time.perf_counter()
        workload = run_op(-1, lambda: workloads.WORKLOADS[name](seed))
        outcomes = [run_op(i, lambda: checked(workload.op, tracer)) for i in range(TRACE_OPS[name])]
        span = (start, time.perf_counter())
    if tracer is not None:
        tracer.counts["enumeration.reseeds"] += sum(o.reseeds for o in outcomes)
    return span, outcomes


def trace_run(name, seed):
    plain, _ = fixed_pass(name, seed)
    tracer = tracing.Tracer()
    traced, outcomes = fixed_pass(name, seed, tracer)
    spans_path = tracing.out_dir() / ("spans-%s-%d.json" % (name, seed))
    tracer.dump(spans_path)
    problems = [p for o in outcomes for p in o.problems]
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "problems": problems[:10],
        # run.py adds trace.overhead_frac from these two spans
        "layers": tracing.layer_metrics(tracer),
        "pass_spans": {"plain": plain, "traced": traced},
        "spans_file": str(spans_path),
    }


def main(argv):
    # exit through Python on SIGTERM, so subprocess.run stops a CLI child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit("worker stopped"))
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if trace:
        result = trace_run(name, seed)
    else:
        workload = workloads.WORKLOADS[name](seed)
        print("ready", flush=True)
        if "--setup-only" in argv:
            return
        result = timed_loop(workload, seconds, WARM_UP_OPS.get(name, 0))
    # ru_maxrss is in KiB on Linux; the worst child counts for the CLI workload
    result["peak_rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
