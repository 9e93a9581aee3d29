"""Exact linear algebra over the rationals, sized for the small dense
matrices that Hom-complex differentials produce.

Entries may be ints or ``fractions.Fraction``s; a row holding a
Fraction is scaled to integers first, and everything after that runs on
Python ints.  One integer Gauss-Jordan elimination, dividing each row
by the gcd of its entries, answers rank (its pivot count), kernel bases
and solves; since the reduced row echelon form is unique, a Fraction is
built only for each entry that is returned.

A matrix is given by its rows, which must all have the same width;
``ValueError`` says which row or right-hand side does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction | int]]


def _width(rows: Matrix, ncols: int | None = None) -> int:
    """The common width of ``rows`` (``ncols`` when given)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(
                f"row {i} of {len(rows)} has {len(row)} entries, expected {ncols}"
            )
    return ncols


def _integral(row: list[Fraction | int]) -> list[int]:
    """An integer row spanning the same line as ``row``: ``row`` itself
    when it holds no Fraction.  No row is changed in place below."""
    if Fraction not in map(type, row):
        return row
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rank(rows: Matrix) -> int:
    """The pivot count of the elimination: exact for any rational input."""
    _width(rows)
    return len(_rref([_integral(r) for r in rows if any(r)])[1])


def _rref(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan elimination, reordering and replacing the
    rows of ``m``: each pivot row ends up a multiple of the reduced row
    echelon form's, with zeros in every other pivot column."""
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        for pivot in range(r, len(m)):
            if m[pivot][c]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
    return m, pivots


def solve(rows: Matrix, rhs: list[Fraction | int]) -> list[Fraction] | None:
    """One solution of A x = b, or None when inconsistent.

    ``rows`` are the rows of A, one per entry of ``rhs``; free variables
    are set to 0.
    """
    if len(rhs) != len(rows):
        raise ValueError(
            f"right-hand side has {len(rhs)} entries, expected {len(rows)} "
            f"(one per row)"
        )
    ncols = _width(rows)
    red, pivots = _rref([_integral([*row, b]) for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        if row[-1]:
            x[c] = Fraction(row[-1], row[c])
    return x


def kernel_basis(rows: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of the matrix with the given rows, each
    of width ``ncols``."""
    _width(rows, ncols)
    red, pivots = _rref([_integral(r) for r in rows])
    basis = []
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, c in zip(red, pivots):
            if row[free]:
                vec[c] = Fraction(-row[free], row[c])
        basis.append(vec)
    return basis
