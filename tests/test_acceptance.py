"""Acceptance criteria, one test per criterion.

The shared session fixture runs the embedded suite once; every test prints
its criterion's PASS/FAIL line and asserts it passed.  Budgets are enforced
inside the criteria themselves (5s for the kernel sweep, 30s for the Pick
sweep, 10 minutes overall for the degree-3 run).
"""

from dataclasses import replace
from math import lcm

import pytest

from tropcount.incidence import SignClass
from tropcount.selftest import CRITERIA
from tropcount.tropical import TropicalCurve


def _result(acceptance_results, ident):
    results, _ = acceptance_results
    for r in results:
        if r.ident == ident:
            return r
    raise AssertionError("criterion %s missing" % ident)


@pytest.mark.parametrize("ident", [ident for ident, _, _ in CRITERIA])
def test_criterion(acceptance_results, ident):
    r = _result(acceptance_results, ident)
    print("%s %s: %s (%s)" % ("PASS" if r.ok else "FAIL", r.ident, r.name, r.detail))
    assert r.ok, "%s %s: %s" % (r.ident, r.name, r.detail)


def test_degree_three_within_budget(acceptance_results):
    r = _result(acceptance_results, "A3")
    assert r.seconds < 600, "degree-3 run took %.1fs" % r.seconds


@pytest.fixture
def snf_fault(monkeypatch, fresh_lattice_memos):
    """Call to corrupt the Smith normal form: every even invariant factor
    halved.  ``counting`` binds the name at import, so it is patched there
    too.  Lattice blocks built under the fault stay in this test's memos."""
    from tropcount import counting, exact_lattice

    original = exact_lattice.smith_normal_form

    def corrupted(m):
        res = original(m)
        factors = tuple(f // 2 if f % 2 == 0 else f for f in res.invariant_factors)
        return replace(res, invariant_factors=tuple(f if f > 0 else 1 for f in factors))

    def apply():
        for module in (exact_lattice, counting):
            monkeypatch.setattr(module, "smith_normal_form", corrupted)

    return apply


def test_negative_control_snf_fault(snf_fault):
    from tropcount.selftest import run

    snf_fault()
    results = run(degrees=(1,), echo=lambda s: None)
    kernel = next(r for r in results if r.ident == "A1")
    assert not kernel.ok


@pytest.mark.parametrize("degree", [1, 2])
def test_negative_control_dropped_curve(monkeypatch, degree):
    from tropcount import selftest
    from tropcount.selftest import _Context, criterion_enumerative_numbers

    ok, detail = criterion_enumerative_numbers(_Context(degrees=(degree,), seed=7))
    assert ok, detail
    enumerate_curves = selftest.enumerate_curves
    monkeypatch.setattr(selftest, "enumerate_curves", lambda *args: enumerate_curves(*args)[:-1])
    ok, detail = criterion_enumerative_numbers(_Context(degrees=(degree,), seed=7))
    assert not ok
    assert detail.startswith("d=%d got" % degree)


_goodness_scale = TropicalCurve.goodness_scale.func


def _positions_only_scale(curve):
    return lcm(*(x.denominator for p in curve.positions.values() for x in p))


@pytest.mark.parametrize(
    "fault",
    [_positions_only_scale, lambda curve: 2 * _goodness_scale(curve)],
    ids=["weight-clause-dropped", "doubled"],
)
def test_negative_control_goodness_scale(monkeypatch, fault):
    from tropcount.selftest import _Context, criterion_goodness_scale

    ok, detail = criterion_goodness_scale(_Context(degrees=(1, 2), seed=7))
    assert ok, detail
    # a property on the class shadows any value cached on an instance
    monkeypatch.setattr(TropicalCurve, "goodness_scale", property(fault))
    ok, detail = criterion_goodness_scale(_Context(degrees=(1, 2), seed=7))
    assert not ok


def test_negative_control_negated_lift_sign(monkeypatch):
    from tropcount import welschinger
    from tropcount.selftest import _Context, criterion_census_identity

    ok, detail = criterion_census_identity(_Context(degrees=(1, 2), seed=7))
    assert ok, detail
    lift_sign = welschinger.lift_sign
    monkeypatch.setattr(welschinger, "lift_sign", lambda *args: -lift_sign(*args))
    ok, detail = criterion_census_identity(_Context(degrees=(1, 2), seed=7))
    assert not ok
    assert detail.startswith("d=1 curve 0 sign_t=1: -1 != 1")


def test_negative_control_f2_fault(monkeypatch):
    # ROADMAP item 5's fault "make the F2 solve return a wrong vector", here
    # no vector at all: every sign class reads unsolvable, so A5 goes red
    from tropcount import counting
    from tropcount.selftest import _Context, criterion_real_count_structure

    ok, detail = criterion_real_count_structure(_Context(degrees=(1,), seed=7))
    assert ok, detail
    monkeypatch.setattr(counting, "f2_solve", lambda m, rhs: None)
    ok, detail = criterion_real_count_structure(_Context(degrees=(1,), seed=7))
    assert not ok
    assert detail == "d=1 parity violated"


@pytest.mark.parametrize("seed", [3, 7])
def test_negative_control_flipped_sign_class_bit(monkeypatch, seed):
    # point 1's bit of every sign class flipped (each point's block of the
    # class is one bit): on the Mikhalkin sets no T_h has an even factor, so
    # the mod-2 image is everything and A5 stays green there; on the generic
    # set the flipped class leaves the image of a T_h with factor 2, so A5's
    # untwisted-index check goes red on it
    from tropcount import counting
    from tropcount.selftest import _Context, criterion_real_count_structure

    ok, detail = criterion_real_count_structure(_Context(degrees=(3,), seed=seed))
    assert ok, detail
    sigma_sign_class = counting.sigma_sign_class

    def flipped(th, *args):
        bits = list(sigma_sign_class(th, *args).bits)
        bits[th.edge_rows + 1] ^= 1
        return SignClass(tuple(bits))

    monkeypatch.setattr(counting, "sigma_sign_class", flipped)
    ok, detail = criterion_real_count_structure(_Context(degrees=(3,), seed=seed))
    assert not ok
    assert detail == "d=3 generic untwisted index mismatch"


def test_negative_control_vertex_product(monkeypatch):
    # one vertex's multiplicity doubled on every curve: the vertex route
    # of the product identity disagrees with the lattice route, so A8 goes
    # red with the CrossCheckError's detail
    from tropcount import tropical
    from tropcount.selftest import _Context, criterion_vertex_product_identity

    ok, detail = criterion_vertex_product_identity(_Context(degrees=(1, 2), seed=7))
    assert ok, detail
    vertex_multiplicities = tropical.vertex_multiplicities

    def doubled(curve, vertex):
        found = vertex_multiplicities(curve, vertex)
        return replace(found, mult=2 * found.mult) if vertex == "v0" else found

    monkeypatch.setattr(tropical, "vertex_multiplicities", doubled)
    ok, detail = criterion_vertex_product_identity(_Context(degrees=(1, 2), seed=7))
    assert not ok
    assert detail.startswith("d=1: curve 0: lattice route 1 != vertex route 2 "), detail


def test_negative_control_poisoned_inclusion_index(fresh_lattice_memos):
    # the memoized inclusion index of one direction doubled: the curves
    # marked along it disagree with their vertex products, so A8 goes red
    from tropcount import counting
    from tropcount.selftest import _Context, criterion_vertex_product_identity

    ok, detail = criterion_vertex_product_identity(_Context(degrees=(1, 2), seed=7))
    assert ok, detail
    key = next(iter(counting._inclusion_indices))
    bundle = counting._inclusion_indices[key]
    counting._inclusion_indices[key] = replace(bundle, complex_index=2 * bundle.complex_index)
    ok, detail = criterion_vertex_product_identity(_Context(degrees=(1, 2), seed=7))
    assert not ok
    assert detail.startswith("d=1: curve 0: lattice route 2 != vertex route 1 "), detail
    assert "constraint product 2" in detail


def test_snf_fault_reaches_counting(snf_fault):
    # the stored generic set has a weight-2 edge whose lattice map has
    # invariant factor 2, so the corrupted SNF must trip the index check
    import json
    from fractions import Fraction
    from pathlib import Path

    from tropcount.cli import curve_from_json
    from tropcount.counting import CrossCheckError, count_complex
    from tropcount.enumeration import PointConfiguration

    path = Path(__file__).parent.parent / "bench" / "data" / "d3-generic-1.json"
    doc = json.loads(path.read_text())
    config = PointConfiguration.explicit([[Fraction(x) for x in p] for p in doc["points"]])
    count_complex([curve_from_json(c) for c in doc["curves"]], config.constraints())
    # fresh curves: the clean call's lattice records stay on its own curves
    curves = [curve_from_json(c) for c in doc["curves"]]
    snf_fault()
    with pytest.raises(CrossCheckError, match=r"product 1 != \|det\| 2"):
        count_complex(curves, config.constraints())


def test_selftest_deterministic():
    from tropcount.selftest import run

    lines_a: list = []
    lines_b: list = []
    run(degrees=(1,), seed=13, echo=lines_a.append)
    run(degrees=(1,), seed=13, echo=lines_b.append)
    strip = lambda ls: [l.rsplit(" [", 1)[0] for l in ls]  # drop wall times
    assert strip(lines_a) == strip(lines_b)
