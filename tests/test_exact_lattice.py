import hashlib
import random
from fractions import Fraction

import pytest

from tropcount.exact_lattice import (
    IntMatrix,
    f2_rank,
    f2_solve,
    primitive_vector,
    quotient_basis,
    rational_rank,
    saturate,
    smith_normal_form,
    solve_unique_rational,
)


def random_matrix(rng, n, m, lo=-9, hi=9):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)], cols=m)


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def spans_within(a, b):
    """Whether every column of a is an integer combination of the
    independent columns of b."""
    b_rows = b.to_rows()
    for j in range(a.cols):
        coords = solve_unique_rational(b_rows, a.column(j))
        if coords is None or any(c.denominator != 1 for c in coords):
            return False
    return True


def pinned_matrices():
    """600 seeded matrices up to 6 x 6, empty ones included."""
    rng = random.Random(40)
    matrices = []
    for _ in range(600):
        bound = rng.choice((1, 3, 9))
        matrices.append(random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -bound, bound))
    return matrices


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0])
def test_constructors_reject_entries_that_are_not_int(entry):
    # an entry is never truncated to an int: a non-int is a TypeError
    for build in (IntMatrix.from_rows, IntMatrix.from_columns):
        with pytest.raises(TypeError, match="must be int"):
            build([[entry, 2]])
    with pytest.raises(TypeError, match="must be int"):
        IntMatrix(1, 1, (entry,))


def test_snf_2x2_gcd_lcm():
    res = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.invariant_factors == (1, 6)


def test_snf_identity():
    res = smith_normal_form(identity(3))
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
    # the basis is not canonical, so a second pass may give other entries,
    # but always a basis of the same, already saturated, lattice
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -5, 5)
        s1 = saturate(sub, n)
        s2 = saturate(s1, n)
        assert s1.cols == s2.cols
        assert spans_within(s1, s2) and spans_within(s2, s1)


def test_saturate_is_the_saturation():
    # the basis is not canonical, so a column order may give other
    # entries, but always a basis of the same lattice
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -6, 6)
        sat = saturate(sub, n)
        assert sat.cols == rational_rank(sub.to_rows())
        assert smith_normal_form(sat).invariant_factors == (1,) * sat.cols
        assert spans_within(sub, sat)
        order = list(range(k))
        rng.shuffle(order)
        permuted = IntMatrix.from_columns([sub.column(j) for j in order], rows=n)
        other = saturate(permuted, n)
        assert spans_within(other, sat) and spans_within(sat, other)


def test_quotient_basis_kernel_property():
    projection = quotient_basis(IntMatrix.from_columns([(-1, 0)]), 2)
    assert (projection.rows, projection.cols) == (1, 2)
    assert projection.apply((-1, 0)) == (0,)
    # surjectivity onto Z: image of the standard basis generates Z
    vals = [projection.apply((1, 0))[0], projection.apply((0, 1))[0]]
    from math import gcd

    assert gcd(abs(vals[0]), abs(vals[1])) == 1


def test_quotient_basis_zero_sublattice():
    assert quotient_basis(IntMatrix.from_columns([], rows=2), 2).to_rows() == [[1, 0], [0, 1]]


def test_quotient_basis_full_sublattice():
    projection = quotient_basis(identity(2), 2)
    assert (projection.rows, projection.cols) == (0, 2)


def test_quotient_basis_of_an_unsaturated_sublattice_is_by_its_saturation():
    projection = quotient_basis(IntMatrix.from_columns([(2, 0)]), 2)
    assert projection.apply((1, 0)) == (0,)
    assert projection.apply((0, 1)) in ((1,), (-1,))


def test_quotient_after_saturate_kills_exactly_qspan():
    # the projection of a sublattice and of its saturation: each kills the
    # saturation and maps onto Z^(n - rank), so its kernel, saturated and
    # of the same rank, is exactly the saturation
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        sub = random_matrix(rng, n, k, -4, 4)
        sat = saturate(sub, n)
        for projection in (quotient_basis(sub, n), quotient_basis(sat, n)):
            assert projection.rows == n - sat.cols
            for j in range(sat.cols):
                assert projection.apply(sat.column(j)) == (0,) * projection.rows
            assert smith_normal_form(projection).invariant_factors == (1,) * projection.rows
            assert f2_rank(projection) == projection.rows


def test_normal_forms_are_pinned():
    """The Smith form's exact outputs, witnesses included, not only their
    properties: the lattice memos store the quotient bases it chooses.  The
    digest was computed before the Smith and Hermite eliminations moved onto
    one augmented matrix each, and before the Hermite form was deleted; both
    left it unchanged."""
    outputs = [smith_normal_form(a) for a in pinned_matrices()]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "1810dedfea933dad4d9a9988a4b3b538900c04c7b57bde3c5c3865f310599910"


def test_saturate_and_quotient_basis_are_pinned():
    """The saturation bases and projections of the same matrices, read off
    the Smith form with no Hermite pass; pinned when that pass was
    deleted, so a change in the bases they choose shows here."""
    outputs = [(saturate(a, a.rows), quotient_basis(a, a.rows)) for a in pinned_matrices()]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "22d0c211c9ea451be4b0c1098723605bb1ecad8489dd67733e2bde5c6d2e2798"


def test_f2_solve_examples():
    assert f2_solve(IntMatrix.from_rows([[2]]), [1]) is None
    assert f2_solve(identity(2), [1, 1]) == (1, 1)
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
    assert f2_rank(identity(4)) == 4
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
