"""Embedded acceptance suite.

Each criterion is a function returning (ok, detail); ``run`` executes them
in order, printing one PASS/FAIL line per criterion.  The expensive
enumeration data is computed once and shared.  A3 runs on Mikhalkin
configurations, which the lattice-path oracle needs; A4-A8 also run on
GENERIC_D3 when the degrees include 3.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from . import exact_lattice
from .counting import count_complex, count_real, real_index
from .enumeration import PointConfiguration, enumerate_curves
from .exact_lattice import IntMatrix, f2_rank
from .incidence import RealPointConfig, build_T_h
from .oracles import kontsevich_number, lattice_path_oracle
from .polyhedral import is_good_scale, rescale_for_goodness
from .tropical import (
    Degree,
    TropicalCurve,
    TropicalGraph,
    as_point,
    curve_mikhalkin_mults,
    curve_welschinger_mult,
    dual_triangle,
)
from .welschinger import census_sum, welschinger_total

EXPECTED_TOTALS = {1: (1, 1), 2: (1, 1), 3: (12, 8)}

# The points of the stored set d3-generic-1.  One of its curves has a
# weight-2 bounded edge and a T_h with invariant factor 2, which the
# Mikhalkin configurations lack, so the twisted index is tested where it can
# differ from the untwisted one.
GENERIC_D3 = (
    (-718218, 193707),
    (777197, 682471),
    (601751, -867656),
    (-465082, -752707),
    (39002, 595853),
    (-57349, -9630),
    (366489, -203890),
    (654072, -559693),
)


@dataclass
class CriterionResult:
    ident: str
    name: str
    ok: bool
    detail: str
    seconds: float


class _Context:
    """Shared data for the criteria: one enumeration per problem."""

    def __init__(self, degrees: Tuple[int, ...], seed: int):
        self.degrees = degrees
        self.seed = seed
        self._cache: Dict[Tuple, Tuple[PointConfiguration, list]] = {}

    def enumerated(self, d: int, points: Optional[Tuple] = None):
        """The degree's Mikhalkin configuration, or ``points``, with its curves."""
        key = (d, points)
        if key not in self._cache:
            if points is None:
                config = PointConfiguration.mikhalkin(3 * d - 1, self.seed)
            else:
                config = PointConfiguration.explicit(points)
            self._cache[key] = (config, enumerate_curves(0, Degree.projective(d), config))
        return self._cache[key]

    def problems(self):
        """(d, label, config, curves) of each degree's Mikhalkin set, then
        of GENERIC_D3 when 3 is among the degrees."""
        for d in self.degrees:
            yield (d, "d=%d" % d) + self.enumerated(d)
        if 3 in self.degrees:
            yield (3, "d=3 generic") + self.enumerated(3, GENERIC_D3)


def criterion_kernel_lemma(ctx: _Context) -> Tuple[bool, str]:
    """A1: real index from SNF equals 2^(n - F2 rank) on random matrices."""
    start = time.time()
    rng = random.Random(20240 + ctx.seed)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if m.det() == 0:
            continue
        snf = exact_lattice.smith_normal_form(m)
        evens = sum(1 for f in snf.invariant_factors if f % 2 == 0)
        if 2 ** evens != 2 ** (n - f2_rank(m)):
            return False, "mismatch on %s" % (m.to_rows(),)
        checked += 1
    elapsed = time.time() - start
    if elapsed >= 5.0:
        return False, "took %.1fs (budget 5s)" % elapsed
    return True, "500 matrices"


def criterion_pick_multiplicity(ctx: _Context) -> Tuple[bool, str]:
    """A2: brute-force interior counts match the Pick-formula route for all
    balanced triples with weights <= 4, directions in [-5, 5]^2."""
    start = time.time()
    prims = [
        (x, y)
        for x in range(-5, 6)
        for y in range(-5, 6)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1
    ]
    triples = set()
    for u1 in prims:
        for u2 in prims:
            for w1 in range(1, 5):
                for w2 in range(1, 5):
                    vx = -(w1 * u1[0] + w2 * u2[0])
                    vy = -(w1 * u1[1] + w2 * u2[1])
                    if (vx, vy) == (0, 0):
                        continue
                    for w3 in range(1, 5):
                        if vx % w3 or vy % w3:
                            continue
                        ux, uy = vx // w3, vy // w3
                        if gcd(abs(ux), abs(uy)) != 1:
                            continue
                        if max(abs(ux), abs(uy)) > 5:
                            continue
                        triples.add(
                            tuple(sorted(((u1, w1), (u2, w2), ((ux, uy), w3))))
                        )
    flat = 0
    for sides in triples:
        (u1, w1), (u2, w2), _ = sides
        if u1[0] * u2[1] - u1[1] * u2[0] == 0:
            flat += 1  # degenerate triple: no dual triangle, nothing to test
            continue
        tri = dual_triangle(list(sides))
        brute = tri.interior_points_bruteforce()
        if tri.interior_points != brute:
            return False, "Pick mismatch for sides %s" % (sides,)
        sign_direct = -1 if brute % 2 else 1
        sign_formula = -1 if tri.interior_points % 2 else 1
        if sign_direct != sign_formula:
            return False, "sign mismatch for sides %s" % (sides,)
    elapsed = time.time() - start
    if elapsed >= 30.0:
        return False, "took %.1fs (budget 30s)" % elapsed
    return True, "%d triples (%d degenerate skipped)" % (len(triples), flat)


def criterion_enumerative_numbers(ctx: _Context) -> Tuple[bool, str]:
    """A3: (N, W) = (1,1), (1,1), (12,8) for d = 1, 2, 3, cross-checked by
    the degree recursion and the lattice-path oracle."""
    details = []
    for d in ctx.degrees:
        config, curves = ctx.enumerated(d)
        n_total = sum(curve_mikhalkin_mults(c)[0] for c, _ in curves)
        w_total = welschinger_total([c for c, _ in curves])
        expected = EXPECTED_TOTALS[d]
        if (n_total, w_total) != expected:
            return False, "d=%d got (%d, %d), want %s" % (d, n_total, w_total, expected)
        if n_total != kontsevich_number(d):
            return False, "d=%d disagrees with the degree recursion" % d
        if lattice_path_oracle(d, config.points) != expected:
            return False, "d=%d disagrees with the lattice-path oracle" % d
        details.append("d=%d:(%d,%d)" % (d, n_total, w_total))
    return True, " ".join(details)


def criterion_census_identity(ctx: _Context) -> Tuple[bool, str]:
    """A4: census_sum equals Mult_R for every enumerated curve, both signs
    of t; for all-weight-1 curves the node budget crossings + interior
    points matches (d-1)(d-2)/2."""
    from .tropical import vertex_multiplicities
    from .welschinger import crossing_count

    checked = 0
    for d, label, _, curves in ctx.problems():
        delta = (d - 1) * (d - 2) // 2
        for curve, _ in curves:
            expected = curve_welschinger_mult(curve)
            for sign_t in (1, -1):
                got = census_sum(curve, sign_t)
                if got != expected:
                    return False, "%s curve %d sign_t=%d: %d != %d" % (
                        label, checked, sign_t, got, expected
                    )
            if all(curve.weight(eid) == 1 for eid in curve.graph.edge_ids()):
                interior = sum(
                    vertex_multiplicities(curve, v).triangle.interior_points
                    for v in curve.graph.vertices
                )
                if crossing_count(curve) + interior != delta:
                    return False, "%s curve %d misses the node budget %d" % (
                        label, checked, delta
                    )
            checked += 1
    return True, "%d curves, both signs" % checked


def criterion_real_count_structure(ctx: _Context) -> Tuple[bool, str]:
    """A5: parity and domination against the complex count for random sign
    configurations; all-positive signs with t > 0 leave every index untwisted."""
    rng = random.Random(977 + ctx.seed)
    for _, label, config, curves in ctx.problems():
        constraints = config.constraints()
        complex_report = count_complex(curves, constraints)
        w_total = welschinger_total([c for c, _ in curves])
        ell = len(config.points)
        for trial in range(20):
            signs = RealPointConfig(
                signs=tuple(
                    tuple(rng.choice((1, -1)) for _ in range(2)) for _ in range(ell)
                )
            )
            for sign_t in (1, -1):
                report = count_real(curves, constraints, signs, sign_t)
                if report.n_real_trop % 2 != complex_report.n_trop % 2:
                    return False, "%s parity violated" % label
                if report.n_real_trop > complex_report.n_trop:
                    return False, "%s domination violated" % label
                if report.n_real_trop < w_total:
                    return False, "%s real count below the signed count" % label
                for r_row, c_row in zip(report.rows, complex_report.rows):
                    if r_row.contribution_real > c_row.contribution_complex:
                        return False, "%s row domination violated" % label
        plus_report = count_real(
            curves, constraints, RealPointConfig.all_positive(ell, 2), 1
        )
        for row, (curve, marks) in zip(plus_report.rows, curves):
            # rebuilt, not read from the curve's lattice record, so that a
            # faulty record cannot vouch for itself
            th = build_T_h(curve, constraints, marks)
            if row.twisted_index != real_index(th.matrix).real_index:
                return False, "%s untwisted index mismatch" % label
    return True, "20 sign configurations per problem, both signs of t"


def criterion_multr_vs_multm(ctx: _Context) -> Tuple[bool, str]:
    """A6: Mult_R equals the Mikhalkin-style real multiplicity on every
    enumerated curve (all unbounded weights are 1)."""
    checked = 0
    for _, label, _, curves in ctx.problems():
        for curve, _ in curves:
            if any(
                curve.weight(eid) != 1 for eid in curve.graph.unbounded_ids()
            ):
                return False, "unexpected multiple unbounded weight"
            mult_r = curve_welschinger_mult(curve)
            mult_m = curve_mikhalkin_mults(curve)[1]
            if mult_r != mult_m:
                return False, "%s: Mult_R %d != Mult_M %d" % (label, mult_r, mult_m)
            checked += 1
    return True, "%d curves" % checked


def _goodness_fixture(length=1) -> TropicalCurve:
    """Two vertices joined by a weight-2 edge of lattice length ``length``."""
    graph = TropicalGraph(
        vertices=("v0", "v1"),
        bounded_edges=(("v0", "v1"),),
        unbounded_edges=(
            ("v0", (-1, 1)),
            ("v0", (-1, -1)),
            ("v1", (1, 1)),
            ("v1", (1, -1)),
        ),
        weights={"b0": 2, "u0": 1, "u1": 1, "u2": 1, "u3": 1},
    )
    return TropicalCurve(
        graph=graph,
        positions={"v0": as_point((0, 0)), "v1": as_point((length, 0))},
        n=2,
    )


def _prime_factors(n: int) -> List[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def criterion_goodness_scale(ctx: _Context) -> Tuple[bool, str]:
    """A7: the goodness scale of every enumerated curve with its constraint
    points is good, and no prime divisor of it can be dropped; on a
    bounded-edge fixture a weight that does not divide its length is not
    good."""
    checked = 0
    for _, label, config, curves in ctx.problems():
        for i, (curve, _) in enumerate(curves):
            s = rescale_for_goodness(curve, config.points)
            if not is_good_scale(curve, s, config.points):
                return False, "%s curve %d: scale %d is not good" % (label, i, s)
            for p in _prime_factors(s):
                if is_good_scale(curve, s // p, config.points):
                    return False, "%s curve %d: scale %d is not least" % (label, i, s)
            checked += 1
    # negative control for the weight clause: weight 2 needs scale 2 at
    # lattice length 1, and length 3 is not good at scale 1
    fixture = _goodness_fixture()
    if fixture.goodness_scale != 2 or not is_good_scale(fixture, 2):
        return False, "bounded-edge fixture scale %d, want 2" % fixture.goodness_scale
    if is_good_scale(_goodness_fixture(length=3), 1):
        return False, "weight 2 on lattice length 3 was not detected"
    return True, "%d curves good and least; weight/length violation detected" % checked


def criterion_vertex_product_identity(ctx: _Context) -> Tuple[bool, str]:
    """A8: weights x lattice index x constraint indices equals the product of
    vertex multiplicities on every enumerated curve."""
    rows = 0
    for _, label, config, curves in ctx.problems():
        try:
            report = count_complex(curves, config.constraints())
        except Exception as exc:  # diagnostic dump comes with the exception
            return False, "%s: %s" % (label, exc)
        rows += len(report.rows)
    return True, "%d curve rows" % rows


CRITERIA: List[Tuple[str, str, Callable]] = [
    ("A1", "kernel lemma (real index vs F2 rank)", criterion_kernel_lemma),
    ("A2", "Pick/multiplicity lemma sweep", criterion_pick_multiplicity),
    ("A3", "plane enumerative numbers d<=3", criterion_enumerative_numbers),
    ("A4", "census identity (lift signs vs Mult_R)", criterion_census_identity),
    ("A5", "real-count structure (parity/domination)", criterion_real_count_structure),
    ("A6", "Mult_R vs Mikhalkin multiplicity", criterion_multr_vs_multm),
    ("A7", "goodness scale", criterion_goodness_scale),
    ("A8", "vertex-product identity", criterion_vertex_product_identity),
]


def run(
    degrees: Tuple[int, ...] = (1, 2, 3),
    seed: int = 7,
    echo: Callable[[str], None] = print,
) -> List[CriterionResult]:
    """Run the acceptance criteria, printing one line per criterion."""
    ctx = _Context(degrees=tuple(degrees), seed=seed)
    results = []
    for ident, name, fn in CRITERIA:
        t0 = time.time()
        try:
            ok, detail = fn(ctx)
        except Exception as exc:
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        elapsed = time.time() - t0
        results.append(CriterionResult(ident, name, ok, detail, elapsed))
        echo(
            "%s %s: %s (%s) [%.1fs]"
            % ("PASS" if ok else "FAIL", ident, name, detail, elapsed)
        )
    return results
