import hashlib
import random
from fractions import Fraction

import pytest

from tropcount.exact_lattice import (
    IntMatrix,
    NotSaturated,
    f2_rank,
    f2_solve,
    hermite_normal_form,
    primitive_vector,
    quotient_basis,
    rational_rank,
    saturate,
    smith_normal_form,
    solve_unique_rational,
)


def random_matrix(rng, n, m, lo=-9, hi=9):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)], cols=m)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0])
def test_constructors_reject_entries_that_are_not_int(entry):
    # an entry is never truncated to an int: a non-int is a TypeError
    for build in (IntMatrix.from_rows, IntMatrix.from_columns):
        with pytest.raises(TypeError, match="must be int"):
            build([[entry, 2]])
    with pytest.raises(TypeError, match="must be int"):
        IntMatrix(1, 1, (entry,))


def test_hnf_identity():
    m = IntMatrix.from_rows([[1, 0], [0, 1]])
    h, u = hermite_normal_form(m)
    assert h.to_rows() == [[1, 0], [0, 1]]
    assert (m @ u).entries == h.entries


def test_hnf_diagonal_two():
    m = IntMatrix.from_rows([[2, 4], [0, 2]])
    h, u = hermite_normal_form(m)
    assert (m @ u).entries == h.entries
    assert abs(u.det()) == 1
    assert h.to_rows() == [[2, 0], [0, 2]]
    assert abs(h.det()) == abs(m.det()) == 4


def test_hnf_zero():
    m = IntMatrix.zero(2, 2)
    h, u = hermite_normal_form(m)
    assert h.entries == (0, 0, 0, 0)
    assert abs(u.det()) == 1


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        h, u = hermite_normal_form(a)
        assert abs(u.det()) == 1
        assert (a @ u).entries == h.entries
        # echelon: pivots strictly down-right, positive, row-reduced on the left
        pivot_row = -1
        for j in range(h.cols):
            col = h.column(j)
            nz = [i for i in range(h.rows) if col[i] != 0]
            if not nz:
                continue
            assert nz[0] > pivot_row
            pivot_row = nz[0]
            p = h.at(pivot_row, j)
            assert p > 0
            for jj in range(j):
                assert 0 <= h.at(pivot_row, jj) < p


def test_snf_2x2_gcd_lcm():
    res = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.invariant_factors == (1, 6)


def test_snf_identity():
    res = smith_normal_form(IntMatrix.identity(3))
    assert res.invariant_factors == (1, 1, 1)


def test_snf_already_chained():
    res = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert res.invariant_factors == (2, 2)


def test_snf_witnesses_and_divisibility():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        res = smith_normal_form(a)
        assert abs(res.left_transform.det()) == 1
        assert abs(res.right_transform.det()) == 1
        d = res.left_transform @ a @ res.right_transform
        f = res.invariant_factors
        assert d.to_rows() == [[f[i] if i == j < len(f) else 0 for j in range(m)] for i in range(n)]
        for x, y in zip(res.invariant_factors, res.invariant_factors[1:]):
            assert y % x == 0
        assert all(f > 0 for f in res.invariant_factors)


def test_snf_product_of_factors_is_abs_det():
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        det = a.det()
        if det == 0:
            continue
        res = smith_normal_form(a)
        prod = 1
        for f in res.invariant_factors:
            prod *= f
        assert prod == abs(det)
        checked += 1


def test_kernel_lemma_f2_rank_vs_even_factors():
    # 2^(n - rank over F2) == 2^(number of even invariant factors)
    rng = random.Random(17)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n)
        if a.det() == 0:
            continue
        res = smith_normal_form(a)
        evens = sum(1 for f in res.invariant_factors if f % 2 == 0)
        assert n - f2_rank(a) == evens
        checked += 1


def test_saturate_primitive_scaling():
    s = saturate(IntMatrix.from_columns([(2, 0)]), 2)
    assert s.cols == 1
    assert primitive_vector(s.column(0)) in ((1, 0), (-1, 0))
    s = saturate(IntMatrix.from_columns([(2, 2)]), 2)
    assert primitive_vector(s.column(0)) in ((1, 1), (-1, -1))


def test_saturate_full_rank_gives_standard_lattice():
    s = saturate(IntMatrix.from_columns([(1, 0), (0, 2)]), 2)
    assert s.cols == 2
    assert abs(s.det()) == 1


def test_saturate_idempotent():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -5, 5)
        s1 = saturate(sub, n)
        s2 = saturate(s1, n)
        assert s1.entries == s2.entries and s1.cols == s2.cols


def test_saturate_is_the_saturation():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -6, 6)
        sat = saturate(sub, n)
        assert sat.cols == rational_rank(sub.to_rows())
        quotient_basis(sat, n)  # raises NotSaturated unless saturated
        sat_rows = sat.to_rows()
        for j in range(sub.cols):
            coords = solve_unique_rational(sat_rows, sub.column(j))
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)
        order = list(range(k))
        rng.shuffle(order)
        permuted = IntMatrix.from_columns([sub.column(j) for j in order], rows=n)
        assert saturate(permuted, n).entries == sat.entries


def test_quotient_basis_kernel_property():
    projection = quotient_basis(IntMatrix.from_columns([(-1, 0)]), 2)
    assert (projection.rows, projection.cols) == (1, 2)
    assert projection.apply((-1, 0)) == (0,)
    # surjectivity onto Z: image of the standard basis generates Z
    vals = [projection.apply((1, 0))[0], projection.apply((0, 1))[0]]
    from math import gcd

    assert gcd(abs(vals[0]), abs(vals[1])) == 1


def test_quotient_basis_zero_sublattice():
    assert quotient_basis(IntMatrix.zero(2, 0), 2).to_rows() == [[1, 0], [0, 1]]


def test_quotient_basis_full_sublattice():
    projection = quotient_basis(IntMatrix.identity(2), 2)
    assert (projection.rows, projection.cols) == (0, 2)


def test_quotient_basis_rejects_unsaturated():
    with pytest.raises(NotSaturated):
        quotient_basis(IntMatrix.from_columns([(2, 0)]), 2)


def test_quotient_after_saturate_kills_exactly_qspan():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -4, 4)
        sat = saturate(sub, n)
        projection = quotient_basis(sat, n)
        assert projection.rows == n - sat.cols
        for j in range(sub.cols):
            assert projection.apply(sub.column(j)) == (0,) * projection.rows
        assert f2_rank(projection) <= projection.rows
        assert rational_rank(projection.to_rows()) == projection.rows


def test_normal_forms_are_pinned():
    """The exact outputs, witnesses included, not only their properties:
    the lattice memos store the quotient bases these choose.  The digest
    was computed before the Smith and Hermite eliminations moved onto one
    augmented matrix each, and that move left it unchanged."""
    rng = random.Random(40)
    outputs = []
    for _ in range(600):
        bound = rng.choice((1, 3, 9))
        a = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -bound, bound)
        sat = saturate(a, a.rows)
        outputs.append(
            (smith_normal_form(a), hermite_normal_form(a), sat, quotient_basis(sat, a.rows))
        )
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "a9f767413521b64384776cb307dbfb06bc02226ff7f78365f1a27e3f99e26440"


def test_f2_solve_examples():
    assert f2_solve(IntMatrix.from_rows([[2]]), [1]) is None
    assert f2_solve(IntMatrix.identity(2), [1, 1]) == (1, 1)
    assert f2_solve(IntMatrix.from_rows([[1, 1], [1, 1]]), [1, 0]) is None


def test_f2_solve_random_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = random_matrix(rng, n, m)
        x = [rng.randint(0, 1) for _ in range(m)]
        rhs = [v & 1 for v in a.apply(x)]
        sol = f2_solve(a, rhs)
        assert sol is not None
        assert [v & 1 for v in a.apply(sol)] == rhs


def test_f2_rank_examples():
    assert f2_rank(IntMatrix.from_rows([[2, 0], [0, 3]])) == 1
    assert f2_rank(IntMatrix.identity(4)) == 4
    assert f2_rank(IntMatrix.from_rows([[2, 4], [6, 8]])) == 0


def test_solve_unique_rational():
    sol = solve_unique_rational([[2, 0], [0, 4]], [1, 2])
    assert sol is not None
    from fractions import Fraction

    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert solve_unique_rational([[1, 1]], [1]) is None  # underdetermined
    assert solve_unique_rational([[1, 1], [1, 1]], [0, 1]) is None  # inconsistent


def test_shape_arguments_must_match_the_entries():
    assert IntMatrix.from_rows([], cols=3).cols == 3
    assert IntMatrix.from_columns([], rows=2).rows == 2
    assert IntMatrix.from_rows([[1, 2]], cols=2).to_rows() == [[1, 2]]
    assert IntMatrix.from_columns([[1, 2]], rows=2).to_rows() == [[1], [2]]
    with pytest.raises(ValueError, match="cols=3"):
        IntMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="rows=1"):
        IntMatrix.from_columns([[1, 2]], rows=1)
