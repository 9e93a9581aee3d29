"""Exact rank, solve and kernel bases, checked against sympy over QQ on
seeded random rational, integer and mixed matrices, against a plain
Fraction Gauss-Jordan elimination by property tests, and for their
refusal of mismatched shapes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    check_against_sympy(m, n, rows, seed, _entry)


def check_against_sympy(m, n, rows, seed, entry):
    """rank, kernel_basis and solve on ``rows`` against sympy, with the
    right-hand sides drawn by ``entry`` from ``seed``; none of them may
    change ``rows``."""
    before = [row[:] for row in rows]
    ref = _sym(rows, m, n)
    r = ref.rank()
    assert rank(rows) == r

    basis = kernel_basis(rows, n)
    assert len(basis) == n - r
    for v in basis:
        assert len(v) == n
        assert all(type(x) is Fraction for x in v)
        assert not any(_apply(rows, v))
    if basis:
        assert _sym(basis, len(basis), n).rank() == len(basis)

    if m == 0:
        # no rows carry no width: the only answer is the empty vector
        assert solve(rows, []) == []
        return
    rng = random.Random(seed)
    x0 = [entry(rng) for _ in range(n)]
    for b in (_apply(rows, x0), [entry(rng) for _ in range(m)]):
        consistent = ref.row_join(_sym([[x] for x in b], m, 1)).rank() == r
        x = solve(rows, b)
        if consistent:
            assert x is not None and len(x) == n
            assert all(type(v) is Fraction for v in x)
            assert _apply(rows, x) == b
        else:
            assert x is None
    assert rows == before


# -- integer and mixed rows ---------------------------------------------


def _int_entry(rng):
    return 0 if rng.random() < 0.4 else rng.randint(-6, 6)


def _big_entry(rng):
    return 0 if rng.random() < 0.3 else rng.randint(-10**6, 10**6)


def _mixed_entry(rng):
    return _int_entry(rng) if rng.random() < 0.5 else _entry(rng)


def _int_cases():
    """Rows of ints, of ints up to 10^6 in size, and of ints mixed with
    Fractions; every other matrix is a product of narrower factors, so
    rank deficiency is common."""
    rng = random.Random(SEED + 1)
    cases = []
    for kind, entry in (("int", _int_entry), ("big", _big_entry), ("mixed", _mixed_entry)):
        for k in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            inner = rng.randint(0, min(m, n) - 1) if k % 2 else None
            if inner is None:
                rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
            else:
                left = [[entry(rng) for _ in range(inner)] for _ in range(m)]
                right = [[entry(rng) for _ in range(n)] for _ in range(inner)]
                rows = [
                    [sum((left[i][t] * right[t][j] for t in range(inner)), 0)
                     for j in range(n)]
                    for i in range(m)
                ]
            cases.append((f"{kind}-{m}x{n}-{k}", m, n, rows, entry, rng.randrange(2**32)))
    return cases


INT_CASES = _int_cases()


def test_int_cases_cover_their_kinds():
    kinds = {
        "int": lambda x: type(x) is int,
        "big": lambda x: type(x) is int,
        "mixed": lambda x: type(x) in (int, Fraction),
    }
    for name, m, n, rows, _, _ in INT_CASES:
        assert all(kinds[name.split("-")[0]](x) for row in rows for x in row)
    assert any(
        abs(x) >= 10**5 for name, *_, rows, _, _ in INT_CASES if name.startswith("big")
        for row in rows for x in row
    )
    mixed = [x for name, *_, rows, _, _ in INT_CASES if name.startswith("mixed")
             for row in rows for x in row]
    assert any(type(x) is int for x in mixed)
    assert any(type(x) is Fraction and x.denominator > 1 for x in mixed)
    assert sum(1 for _, m, n, rows, _, _ in INT_CASES if rank(rows) < min(m, n)) > 30


@pytest.mark.parametrize(
    "name, m, n, rows, entry, seed", INT_CASES, ids=[c[0] for c in INT_CASES]
)
def test_integer_and_mixed_rows_match_sympy(name, m, n, rows, entry, seed):
    check_against_sympy(m, n, rows, seed, entry)


# -- against a plain Fraction Gauss-Jordan ------------------------------


def _reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_solve(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    red, pivots = _reference_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


def _reference_kernel(rows, ncols):
    red, pivots = _reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for row, c in zip(red, pivots):
                vec[c] = -row[free]
            basis.append(vec)
    return basis


_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.sampled_from([0, 0, 1, -1]),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@st.composite
def _systems(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(_scalars) for _ in range(n)] for _ in range(m)]
    # copy and combine rows now and then, so dependent rows are common
    for _ in range(draw(st.integers(0, 2)) if m > 1 else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(_scalars)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rhs = [draw(_scalars) for _ in range(m)]
    return n, rows, rhs


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_systems())
def test_solve_and_kernel_match_the_fraction_reference(system):
    n, rows, rhs = system
    assert kernel_basis(rows, n) == _reference_kernel(rows, n)
    assert solve(rows, rhs) == _reference_solve(rows, rhs)
    assert rank(rows) == len(_reference_rref(rows)[1])


# -- shapes ------------------------------------------------------------


def test_solve_rejects_a_short_right_hand_side():
    with pytest.raises(ValueError, match="right-hand side has 1 entries, expected 2"):
        solve([[1, 0], [0, 1]], [1])


def test_solve_rejects_a_long_right_hand_side():
    with pytest.raises(ValueError, match="right-hand side has 2 entries, expected 1"):
        solve([[1, 0]], [1, 5])


def test_kernel_basis_rejects_rows_of_the_wrong_width():
    with pytest.raises(ValueError, match="row 0 of 1 has 3 entries, expected 2"):
        kernel_basis([[1, 0, 0]], 2)


def test_rank_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 of 2 has 1 entries, expected 2"):
        rank([[1, 2], [3]])
