"""Spans and counts around calls into each tropcount module.

A ``Tracer`` wraps a fixed list of public functions.  Python looks a global
name up when the call runs, so replacing every module attribute that holds
the function (``counting.smith_normal_form`` as well as
``exact_lattice.smith_normal_form``) puts the wrapper on every call site
without touching the package's source.

A span is ``[name, start, end, parent, op]``: the wrapped function, its
``time.perf_counter`` interval, the index of the enclosing span (None at the
top) and the operation it belongs to.  Spans stay in memory until the run
ends.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, so spans recorded in a
child process nest correctly inside the parent's operation span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = (
    "exact_lattice", "tropical", "polyhedral", "incidence", "counting",
    "welschinger", "enumeration", "oracles", "cli",
)


def _types(tracer, args, result):
    tracer.counts["enumeration.types_returned"] += len(result)
    tracer.counts["enumeration.types_nonflat"] += sum(not t.has_flat_vertex for t in result)


def _solve(tracer, args, result):
    tracer.counts["enumeration.solve_accepted"] += result is not None


def _curves(tracer, args, result):
    tracer.counts["enumeration.curves_accepted"] += len(result)


def _snf(tracer, args, result):
    m = args[0]
    tracer.counts["exact_lattice.snf_max_dim"] = max(
        tracer.counts["exact_lattice.snf_max_dim"], m.rows, m.cols
    )
    tracer.counts["exact_lattice.even_factors"] += sum(f % 2 == 0 for f in result.invariant_factors)


def _f2(tracer, args, result):
    tracer.counts["exact_lattice.f2_unsolvable"] += result is None


# (module, function) -> observer of (tracer, args, result), or None
TARGETS = {
    ("enumeration", "enumerate_types"): _types,
    ("enumeration", "enumerate_curves"): _curves,
    ("enumeration", "solve_positions"): _solve,
    ("incidence", "match_marked_edges"): None,
    ("incidence", "build_T_h"): None,
    ("incidence", "build_constraint_inclusion"): None,
    ("incidence", "sigma_sign_class"): None,
    ("exact_lattice", "smith_normal_form"): _snf,
    ("exact_lattice", "f2_solve"): _f2,
    ("counting", "count_complex"): None,
    ("counting", "count_real"): None,
    ("tropical", "vertex_multiplicities"): None,
    ("welschinger", "census_report"): None,
    ("welschinger", "lift_sign"): None,
    ("welschinger", "crossing_count"): None,
    ("polyhedral", "rescale_for_goodness"): None,
    ("oracles", "lattice_path_oracle"): None,
    ("oracles", "kontsevich_number"): None,
    ("cli", "main"): None,
    ("cli", "curve_from_json"): None,
}

# counts merged across processes by taking the larger value, not the sum
MAXIMA = ("exact_lattice.snf_max_dim",)

# counts set by the inputs and the answer, not by how fast it is found: a
# right change may move them either way.  They are printed, and required to
# repeat, but are not declared as metrics with a better direction.
ANSWER_COUNTS = (
    "enumeration.solve_accepted",
    "enumeration.curves_accepted",
    "enumeration.reseeds",
    "exact_lattice.even_factors",
    "exact_lattice.f2_unsolvable",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self):
        """Put a wrapper on every tropcount module attribute that holds a
        traced function."""
        modules = [importlib.import_module("tropcount." + m) for m in MODULES]
        for (module, attr), observe in TARGETS.items():
            original = getattr(importlib.import_module("tropcount." + module), attr)
            wrapper = self._wrap("%s.%s" % (module, attr), original, observe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    def run_op(self, op_id, fn):
        """Run ``fn`` as operation ``op_id`` under a root span named "op"."""
        self.op = op_id
        self.begin("op")
        try:
            return fn()
        finally:
            self.end()
            self.op = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def child_spans_path(self) -> Path:
        fd, name = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=out_dir())
        os.close(fd)
        return Path(name)

    def merge_child(self, path: Path):
        """Adopt the spans and counts a traced child process wrote, nesting
        its top-level spans under the current span."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        finally:
            path.unlink()
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, child_parent, _ in data["spans"]:
            self.spans.append(
                [name, start, end, parent if child_parent is None else base + child_parent, self.op]
            )
        for key, value in data["counts"].items():
            if key in MAXIMA:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value


@contextlib.contextmanager
def installed(tracer):
    """Keep ``tracer`` installed for the block; with None, trace nothing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def out_dir() -> Path:
    """Directory for run outputs, inside the checkout and ignored by git."""
    path = Path(__file__).resolve().parent.parent / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics and ANSWER_COUNTS, keyed by name, from one traced
    pass; all but trace.overhead_frac, which needs the plain pass too."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
        calls[span[0]] += 1
    c = tracer.counts
    return {
        "enumeration.types_s": total["enumeration.enumerate_types"],
        "enumeration.types_calls": calls["enumeration.enumerate_types"],
        "enumeration.types_returned": c["enumeration.types_returned"],
        "enumeration.types_nonflat": c["enumeration.types_nonflat"],
        "enumeration.search_self_s": own["enumeration.enumerate_curves"],
        "enumeration.solve_s": total["enumeration.solve_positions"],
        "enumeration.solve_calls": calls["enumeration.solve_positions"],
        "enumeration.solve_accepted": c["enumeration.solve_accepted"],
        "enumeration.solve_yield": c["enumeration.solve_accepted"] / max(1, calls["enumeration.solve_positions"]),
        "enumeration.curves_accepted": c["enumeration.curves_accepted"],
        "enumeration.reseeds": c["enumeration.reseeds"],
        "incidence.match_s": total["incidence.match_marked_edges"],
        "incidence.match_calls": calls["incidence.match_marked_edges"],
        "incidence.build_T_h_s": total["incidence.build_T_h"],
        "incidence.build_T_h_calls": calls["incidence.build_T_h"],
        "incidence.constraint_inclusion_s": total["incidence.build_constraint_inclusion"],
        "incidence.constraint_inclusion_calls": calls["incidence.build_constraint_inclusion"],
        "incidence.sigma_s": total["incidence.sigma_sign_class"],
        "exact_lattice.snf_s": total["exact_lattice.smith_normal_form"],
        "exact_lattice.snf_calls": calls["exact_lattice.smith_normal_form"],
        "exact_lattice.snf_max_dim": c["exact_lattice.snf_max_dim"],
        "exact_lattice.even_factors": c["exact_lattice.even_factors"],
        "exact_lattice.f2_solve_s": total["exact_lattice.f2_solve"],
        "exact_lattice.f2_solve_calls": calls["exact_lattice.f2_solve"],
        "exact_lattice.f2_unsolvable": c["exact_lattice.f2_unsolvable"],
        "counting.count_complex_self_s": own["counting.count_complex"],
        "counting.count_real_self_s": own["counting.count_real"],
        "counting.calls": calls["counting.count_complex"] + calls["counting.count_real"],
        "tropical.vertex_mult_s": total["tropical.vertex_multiplicities"],
        "tropical.vertex_mult_calls": calls["tropical.vertex_multiplicities"],
        "welschinger.census_s": total["welschinger.census_report"],
        "welschinger.lift_sign_calls": calls["welschinger.lift_sign"],
        "welschinger.crossing_s": total["welschinger.crossing_count"],
        "welschinger.crossing_calls": calls["welschinger.crossing_count"],
        "polyhedral.rescale_s": total["polyhedral.rescale_for_goodness"],
        "polyhedral.rescale_calls": calls["polyhedral.rescale_for_goodness"],
        "oracles.lattice_path_s": total["oracles.lattice_path_oracle"],
        "oracles.lattice_path_calls": calls["oracles.lattice_path_oracle"],
        "oracles.kontsevich_s": total["oracles.kontsevich_number"],
        "cli.main_self_s": own["cli.main"],
        "cli.ingest_s": total["cli.curve_from_json"],
    }
