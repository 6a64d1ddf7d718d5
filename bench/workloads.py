"""Workload inputs, operations and answer checks for the tropcount benchmark.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished and been checked.  Inputs come from a
``random.Random`` seeded with the workload seed, so one seed always gives the
same operations; the program only ever sees the generated points, signs and
curve sets.

Library calls go through module attributes (``enumeration.enumerate_curves``
and so on) so that the wrappers installed by ``tracing.Tracer`` see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"

from tropcount import cli, counting, enumeration, oracles, welschinger  # noqa: E402
from tropcount.enumeration import GenericityFailure, PointConfiguration  # noqa: E402
from tropcount.incidence import RealPointConfig  # noqa: E402
from tropcount.tropical import Degree  # noqa: E402

EXPECTED = {3: (12, 8), 4: (620, 240)}  # (N, W) for plane rational curves
DEGREE3 = Degree.projective(3)
ELL3 = 8  # 3d - 1 points at d = 3
CLI_TIMEOUT_S = 170  # one run of the benchmark must end within 180 s

# Two points of this set share y = 24; the CLI answers N = 8, W = 4 for it
# instead of reporting a genericity failure.  The checks must count it as a
# failed operation.
DEGENERATE_D3 = (
    (-27, -25), (-25, -7), (-11, -14), (8, -17),
    (12, 24), (17, 21), (23, -20), (25, 24),
)


@dataclass
class Outcome:
    """One checked operation: what was wrong with it, and how many point
    sets were redrawn after a genericity failure before it was answered."""

    problems: List[str] = field(default_factory=list)
    reseeds: int = 0


def check_totals(degree, n, w, real_totals=(), census_rows=()) -> List[str]:
    """Problems with one answer; an empty list means the answer is right.

    N and W must be the known numbers for the degree; each real count N_R
    must have the parity of N and satisfy |W| <= N_R <= N; each census row
    must agree with the tropical Welschinger multiplicity.
    """
    problems = []
    if (n, w) != EXPECTED[degree]:
        problems.append("(N, W) = (%s, %s), expected %s at d=%d" % (n, w, EXPECTED[degree], degree))
    for n_r in real_totals:
        if (n - n_r) % 2:
            problems.append("N_R = %d has not the parity of N = %d" % (n_r, n))
        if not abs(w) <= n_r <= n:
            problems.append("N_R = %d outside |W| = %d .. N = %d" % (n_r, abs(w), n))
    for row in census_rows:
        if not row["agrees"]:
            problems.append("census row %s disagrees: %r" % (row["curve_id"], row))
    return problems


def check_count_report(doc) -> List[str]:
    """Problems with the JSON printed by ``tropcount count --complex --real``."""
    totals = doc["totals"]
    return check_totals(doc["degree"], totals["complex"], totals["welschinger"], [totals["real"]])


def random_signs(rng: random.Random, ell: int) -> List[str]:
    return ["".join(rng.choice("+-") for _ in range(2)) for _ in range(ell)]


def generic_points(rng: random.Random, ell: int = ELL3, bound: int = 10 ** 6):
    """``ell`` integer points with |x|, |y| <= bound, not all on one line.

    Only collinear sets are redrawn.  Shared coordinates and other
    coincidences are kept: the pipeline has to detect them itself.
    """
    while True:
        pts = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(ell)]
        (x0, y0), (x1, y1) = pts[0], pts[1]
        if any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in pts[2:]):
            return pts


def solve_d3(points: Sequence, signs: Sequence[str]) -> List[str]:
    """The library pipeline on one d=3 configuration, both signs of t.

    Raises GenericityFailure when the points are not generic enough.
    """
    config = PointConfiguration.explicit(points)
    curves = enumeration.enumerate_curves(0, DEGREE3, config)
    constraints = config.constraints()
    plain = [c for c, _ in curves]
    n = counting.count_complex(curves, constraints).n_trop
    w = welschinger.welschinger_total(plain)
    real_config = RealPointConfig.from_strings(signs)
    real, census = [], []
    for sign_t in (1, -1):
        real.append(counting.count_real(curves, constraints, real_config, sign_t).n_real_trop)
        census.extend(welschinger.census_report(plain, sign_t))
    return check_totals(3, n, w, real, census)


class CliD3Mikhalkin:
    """Each operation is a fresh ``tropcount count --degree 3 --complex
    --real`` process on a Mikhalkin configuration, so nothing is shared
    between operations."""

    name = "cli-d3-mikhalkin"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def next_argv(self) -> List[str]:
        return [
            "count", "--degree", "3", "--complex", "--real",
            "--mikhalkin-seed", str(self.rng.randrange(10 ** 6)),
            # "=" keeps argparse from reading a leading "-" as an option
            "--signs=" + ",".join(random_signs(self.rng, ELL3)),
            "--sign-t=" + self.rng.choice("+-"),
        ]

    def op(self, tracer=None) -> Outcome:
        argv = self.next_argv()
        if tracer is None:
            command = [sys.executable, "-m", "tropcount.cli", *argv]
        else:
            spans_path = tracer.child_spans_path()
            command = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            if tracer is not None:
                spans_path.unlink()
            return Outcome(["no answer within %d s" % CLI_TIMEOUT_S])
        if tracer is not None:
            tracer.merge_child(spans_path)
        if proc.returncode != 0:
            return Outcome(["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])])
        return Outcome(check_count_report(json.loads(proc.stdout)))


class LibD3Generic:
    """One long-lived process answers a stream of generic d=3 problems.

    An operation draws configurations until one is generic, as the CLI tells
    users to do; the time of the failed attempts counts, and each redraw is
    counted as a reseed.
    """

    name = "lib-d3-generic"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def op(self, tracer=None) -> Outcome:
        reseeds = 0
        while True:
            points = generic_points(self.rng)
            signs = random_signs(self.rng, ELL3)
            try:
                return Outcome(solve_d3(points, signs), reseeds)
            except GenericityFailure:
                reseeds += 1


@dataclass
class CurveSet:
    curves: list
    constraints: list
    n: Optional[int] = None
    w: Optional[int] = None


def load_curve_set(path: Path) -> CurveSet:
    """Ingest a stored ``tropcount enumerate`` document."""
    with open(path) as fh:
        doc = json.load(fh)
    curves = [cli.curve_from_json(c) for c in doc["curves"]]
    config = PointConfiguration.explicit([[Fraction(x) for x in p] for p in doc["points"]])
    return CurveSet(curves=curves, constraints=config.constraints())


def stored_curve_sets() -> List[Path]:
    return sorted(DATA.glob("d3-*.json"))


class CountsD3Signs:
    """Sign sweeps over stored d=3 curve sets: no enumeration is timed.

    An operation is one ``count_real`` for a seeded sign vector and sign of
    t.  The first operation on each set also runs ``count_complex`` and the
    node census for both signs of t, and checks N and W.
    """

    name = "counts-d3-signs"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sets = [load_curve_set(p) for p in stored_curve_sets()]
        self.done = 0

    def op(self, tracer=None) -> Outcome:
        s = self.sets[self.done % len(self.sets)]
        self.done += 1
        problems = []
        if s.n is None:
            plain = [c for c, _ in s.curves]
            s.n = counting.count_complex(s.curves, s.constraints).n_trop
            s.w = welschinger.welschinger_total(plain)
            census = welschinger.census_report(plain, 1) + welschinger.census_report(plain, -1)
            problems += check_totals(3, s.n, s.w, census_rows=census)
        signs = RealPointConfig.from_strings(random_signs(self.rng, ELL3))
        n_r = counting.count_real(s.curves, s.constraints, signs, self.rng.choice((1, -1))).n_real_trop
        return Outcome(problems + check_totals(3, s.n, s.w, [n_r]))


class OracleD4:
    """The lattice-path oracle at d=4 on 11-point Mikhalkin configurations,
    the only code that reaches d=4 today."""

    name = "oracle-d4"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def op(self, tracer=None) -> Outcome:
        points = PointConfiguration.mikhalkin(11, self.rng.randrange(10 ** 6)).points
        n, w = oracles.lattice_path_oracle(4, points)
        problems = check_totals(4, n, w)
        if n != oracles.kontsevich_number(4):
            problems.append("N = %d differs from Kontsevich's number" % n)
        return Outcome(problems)


WORKLOADS = {w.name: w for w in (CliD3Mikhalkin, LibD3Generic, CountsD3Signs, OracleD4)}


def child_env() -> dict:
    """Environment for benchmark processes: this checkout's sources and the
    single-threaded baseline."""
    env = {k: v for k, v in os.environ.items() if k != "TROPCOUNT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env
