"""Exact rank, solve and kernel bases, checked against sympy over QQ on
seeded random rational matrices."""

import random
from fractions import Fraction

import pytest

from quiverglue.linalg import kernel_basis, rank, solve

sympy = pytest.importorskip("sympy")

SEED = 1729


def _entry(rng):
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _matrix(rng, m, n, inner=None):
    """An m x n matrix; with ``inner`` < min(m, n) it is a product of
    m x inner and inner x n factors, so its rank is at most ``inner``."""
    if inner is None:
        return [[_entry(rng) for _ in range(n)] for _ in range(m)]
    left = _matrix(rng, m, inner)
    right = _matrix(rng, inner, n)
    return [
        [sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
         for j in range(n)]
        for i in range(m)
    ]


def _sym(rows, m, n):
    return sympy.Matrix(
        m, n, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    )


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def _cases():
    rng = random.Random(SEED)
    cases = [(0, 0, None), (0, 3, None), (3, 0, None), (1, 1, None)]
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        inner = rng.randint(0, min(m, n) - 1) if rng.random() < 0.5 else None
        cases.append((m, n, inner))
    return [(m, n, _matrix(rng, m, n, inner), rng.randrange(2**32)) for m, n, inner in cases]


CASES = _cases()


def test_cases_cover_the_edge_shapes():
    shapes = [(m, n) for m, n, _, _ in CASES]
    assert (0, 3) in shapes and (3, 0) in shapes
    assert sum(1 for m, n, rows, _ in CASES if rank(rows) < min(m, n)) > 50


@pytest.mark.parametrize(
    "m, n, rows, seed", CASES, ids=[f"{m}x{n}-{i}" for i, (m, n, _, _) in enumerate(CASES)]
)
def test_rank_kernel_and_solve_match_sympy(m, n, rows, seed):
    ref = _sym(rows, m, n)
    r = ref.rank()
    assert rank(rows) == r

    basis = kernel_basis(rows, n)
    assert len(basis) == n - r
    for v in basis:
        assert len(v) == n
        assert not any(_apply(rows, v))
    if basis:
        assert _sym(basis, len(basis), n).rank() == len(basis)

    if m == 0:
        # no rows carry no width: the only answer is the empty vector
        assert solve(rows, []) == []
        return
    rng = random.Random(seed)
    x0 = [_entry(rng) for _ in range(n)]
    for b in (_apply(rows, x0), [_entry(rng) for _ in range(m)]):
        consistent = ref.row_join(_sym([[x] for x in b], m, 1)).rank() == r
        x = solve(rows, b)
        if consistent:
            assert x is not None and len(x) == n
            assert _apply(rows, x) == b
        else:
            assert x is None
