"""Exact integer and rational linear algebra.

Normal forms (Hermite, Smith) with unimodular witnesses, lattice
saturation, quotient bases, and GF(2) solvers.  Everything here works on
arbitrary-precision Python integers and Fractions; there is no floating
point anywhere in this module.  Matrices are small (tens of rows at most),
so the algorithms favour determinism over asymptotic speed.

There is one elimination per field: ``_row_reduce`` over Q behind
``rational_rank`` and ``solve_unique_rational``, ``_f2_reduce`` over GF(2)
behind ``f2_solve`` and ``f2_rank``.  Over Z, the Smith and Hermite forms
each eliminate on one augmented matrix, the input bordered by identity
blocks (Cohen, *A Course in Computational Algebraic Number Theory*, 2.4),
so every operation reaches its witness by construction.  The Smith form
gives the saturation directly: with ``left @ A @ right == D``, column i of
``A @ right`` divided by d_i is column i of ``left^-1``, and the first rank
such columns, put in Hermite normal form, generate the saturation.
``f2_rank`` and the Bareiss ``IntMatrix.det`` share no code with the Smith
form, so they stay independent checks on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


class NotSaturated(ValueError):
    """Raised when a quotient by a non-saturated sublattice is requested."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length does not match rows*cols")
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError("IntMatrix entries must be int, got %r" % (e,))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else cols or 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError("rows of length %d, not cols=%d" % (ncols, cols))
        flat = tuple(int(x) for r in rows for x in r)
        return IntMatrix(len(rows), ncols, flat)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [list(c) for c in columns]
        nrows = len(cols[0]) if cols else rows or 0
        if any(len(c) != nrows for c in cols):
            raise ValueError("ragged columns")
        if rows is not None and rows != nrows:
            raise ValueError("columns of length %d, not rows=%d" % (nrows, rows))
        flat = tuple(int(cols[j][i]) for i in range(nrows) for j in range(len(cols)))
        return IntMatrix(nrows, len(cols), flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple:
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(self.at(i, k) * vector[k] for k in range(self.cols)) for i in range(self.rows)
        )

    def det(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form of an integer matrix with transformation witnesses.

    ``left_transform @ input @ right_transform`` is diagonal with the
    invariant factors ``d_1 | d_2 | ... | d_r`` on the diagonal (ones
    included), padded with zeros up to the matrix shape.
    """

    invariant_factors: tuple
    left_transform: IntMatrix
    right_transform: IntMatrix
    rank: int


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form by gcd row/column elimination.

    Pivots on the minimal nonzero absolute value (ties broken by position)
    so the run is deterministic.  Returns the invariant factors, ones
    included, together with unimodular left/right witnesses.

    The elimination runs on ``[[A, I], [I, 0]]``: an operation on the first
    ``rows`` rows builds the left witness in the last ``rows`` columns, one
    on the first ``cols`` columns the right witness in the last ``cols``
    rows.
    """
    nr, nc = m.rows, m.cols
    a = [list(m.row(i)) + [int(i == k) for k in range(nr)] for i in range(nr)]
    a += [[int(i == j) for j in range(nc)] + [0] * nr for i in range(nc)]

    for t in range(min(nr, nc)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        while True:
            # Clear the pivot column.
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
            if dirty:
                continue
            # Clear the pivot row.
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot (a unit
            # divides everything).
            p = a[t][t]
            if p in (1, -1):
                break
            offender = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % p), None
            )
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    factors = tuple(a[i][i] for i in range(min(nr, nc)) if a[i][i] != 0)
    return SnfResult(
        invariant_factors=factors,
        left_transform=IntMatrix.from_rows([row[nc:] for row in a[:nr]], cols=nr),
        right_transform=IntMatrix.from_rows([row[:nc] for row in a[nr:]], cols=nc),
        rank=len(factors),
    )


def hermite_normal_form(m: IntMatrix) -> tuple:
    """Column-style Hermite normal form.

    Returns ``(hnf, transform)`` with ``m @ transform == hnf``, transform
    unimodular.  The result is lower-triangular echelon with positive
    pivots; entries left of a pivot in its row are reduced into
    ``[0, pivot)``.  The column operations run on ``[A; I]``, so the last
    ``cols`` rows build the transform.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows() + IntMatrix.identity(nc).to_rows()

    c = 0
    for i in range(nr):
        if c >= nc:
            break
        # gcd-collapse row i over columns >= c into column c
        while True:
            nonzero = [j for j in range(c, nc) if a[i][j] != 0]
            if not nonzero:
                break
            jmin = min(nonzero, key=lambda j: (abs(a[i][j]), j))
            for row in a:
                row[c], row[jmin] = row[jmin], row[c]
            done = True
            for j in range(c + 1, nc):
                if a[i][j] == 0:
                    continue
                q = a[i][j] // a[i][c]
                for row in a:
                    row[j] -= q * row[c]
                if a[i][j] != 0:
                    done = False
            if done:
                break
        if a[i][c] != 0:
            if a[i][c] < 0:
                for row in a:
                    row[c] = -row[c]
            for j in range(c):
                q = a[i][j] // a[i][c]
                if q != 0:
                    for row in a:
                        row[j] -= q * row[c]
            c += 1

    return IntMatrix.from_rows(a[:nr], cols=nc), IntMatrix.from_rows(a[nr:], cols=nc)


def saturate(sublattice: IntMatrix, ambient_rank: int) -> IntMatrix:
    """Generators of (Q-span of the columns) intersected with Z^ambient_rank.

    The result is returned in column Hermite normal form, so equal
    saturations compare equal.
    """
    if sublattice.rows != ambient_rank:
        raise ValueError("sublattice columns must live in Z^ambient_rank")
    snf = smith_normal_form(sublattice)
    if snf.rank == 0:
        return IntMatrix.zero(ambient_rank, 0)
    # left @ sub @ right == D, so column i of sub @ right is d_i times
    # column i of left^-1: the first rank columns of left^-1 span the
    # saturation, and dividing out d_i gives them without an inverse.
    gens = [
        [x // d for x in sublattice.apply(snf.right_transform.column(i))]
        for i, d in enumerate(snf.invariant_factors)
    ]
    hnf, _ = hermite_normal_form(IntMatrix.from_columns(gens, rows=ambient_rank))
    return hnf


def quotient_basis(sublattice: IntMatrix, ambient_rank: int) -> IntMatrix:
    """Projection of Z^ambient_rank onto its quotient by a saturated sublattice.

    One row per quotient coordinate; the kernel is exactly the Q-span of the
    sublattice in Z^ambient_rank.  The projection is non-canonical, so
    consumers must be invariant under it.
    """
    if sublattice.rows != ambient_rank:
        raise ValueError("sublattice columns must live in Z^ambient_rank")
    snf = smith_normal_form(sublattice)
    r = snf.rank
    if any(f != 1 for f in snf.invariant_factors):
        raise NotSaturated(
            "sublattice is not saturated (invariant factors %s)" % (snf.invariant_factors,)
        )
    proj_rows = [snf.left_transform.row(i) for i in range(r, ambient_rank)]
    return IntMatrix.from_rows(proj_rows, cols=ambient_rank)


def _f2_reduce(m: IntMatrix, rhs: Sequence[int]) -> tuple:
    """Gauss-Jordan over GF(2) of (m mod 2 | rhs mod 2).

    Returns the reduced rows and the pivot column of each leading row.
    """
    a = [[m.at(i, j) & 1 for j in range(m.cols)] + [int(rhs[i]) & 1] for i in range(m.rows)]
    pivots = []
    for col in range(m.cols):
        row = len(pivots)
        if row == m.rows:
            break
        piv = next((r for r in range(row, m.rows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(m.rows):
            if r != row and a[r][col]:
                a[r] = [x ^ y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots


def f2_solve(m: IntMatrix, rhs: Sequence[int]) -> Optional[tuple]:
    """One solution of (m mod 2) x == rhs over GF(2), or None if insoluble."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length must equal the number of rows")
    a, pivots = _f2_reduce(m, rhs)
    if any(a[r][m.cols] for r in range(len(pivots), m.rows)):
        return None
    x = [0] * m.cols
    for r, c in enumerate(pivots):
        x[c] = a[r][m.cols]
    return tuple(x)


def f2_rank(m: IntMatrix) -> int:
    """Rank of m mod 2 over GF(2)."""
    return len(_f2_reduce(m, [0] * m.rows)[1])


def _row_reduce(rows: Sequence[Sequence], ncols: int) -> tuple:
    """Gauss-Jordan over Q, pivoting in the first ``ncols`` columns only.

    Returns the reduced rows (as Fractions) and the pivot column of each
    leading row; later columns, such as a right-hand side, ride along.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(a):
            break
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return a, pivots


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix given as a sequence of rows (ints or Fractions)."""
    rows = list(rows)
    return len(_row_reduce(rows, len(rows[0]))[1]) if rows else 0


def solve_unique_rational(rows: Sequence[Sequence], rhs: Sequence) -> Optional[tuple]:
    """Unique rational solution of ``rows @ x == rhs``.

    Returns None when the system is inconsistent or underdetermined, so a
    caller needing "exists and is unique" can test in one step.
    """
    augmented = [list(row) + [y] for row, y in zip(rows, rhs)]
    if not augmented:
        return ()
    nc = len(augmented[0]) - 1
    a, pivots = _row_reduce(augmented, nc)
    if len(pivots) < nc or any(row[nc] != 0 for row in a[nc:]):
        return None
    return tuple(row[nc] for row in a[:nc])


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v: Sequence[int]) -> tuple:
    """v divided by the gcd of its entries; zero vectors are rejected."""
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)
