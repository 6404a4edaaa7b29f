"""Direct oracle tests for the exact linear-algebra kernels."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicslopes.exactlinalg import bareiss_det, charpoly, rank_mod_p

entries = st.integers(-20, 20)


def square(max_n=5):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def cofactor_det(mat):
    if not mat:
        return 1
    return sum(
        (-1) ** j * mat[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j in range(len(mat))
    )


def fraction_det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def naive_rank_mod_p(mat, p):
    rows = [[x % p for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(square())
@settings(max_examples=200)
def test_bareiss_matches_cofactor_expansion(mat):
    assert bareiss_det(mat) == cofactor_det(mat)


@given(square(max_n=7))
@settings(max_examples=200)
def test_bareiss_matches_fraction_elimination(mat):
    assert bareiss_det(mat) == fraction_det(mat)


def test_bareiss_singular_and_pivoting():
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[0, 0], [0, 5]]) == 0


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 6).flatmap(
            lambda m: st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)
        )
    ),
)
@settings(max_examples=200)
def test_rank_mod_p_matches_naive_elimination(p, mat):
    assert rank_mod_p(mat, p) == naive_rank_mod_p(mat, p)


@given(square(max_n=6))
@settings(max_examples=200)
def test_charpoly_matches_determinants(mat):
    # both sides have degree n, so agreement at the n+1 points x = 0..n proves them equal
    n = len(mat)
    coeffs = charpoly(mat)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    for x in range(n + 1):
        shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)] for i, row in enumerate(mat)]
        assert horner(coeffs, x) == bareiss_det(shifted)
