"""Direct oracle tests for the exact linear-algebra kernels, and for the
tests' own rank mod p (lambda_oracle.rank_mod_p)."""

from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicslopes.exactlinalg import charpoly

from lambda_oracle import rank_mod_p

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


def minor_rank_mod_p(mat, p):
    """The largest r such that some r x r minor is nonzero mod p."""
    n, m = len(mat), len(mat[0]) if mat else 0
    for r in range(min(n, m), 0, -1):
        for rows in combinations(range(n), r):
            for cols in combinations(range(m), r):
                if cofactor_det([[mat[i][j] for j in cols] for i in rows]) % p:
                    return r
    return 0


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 6).flatmap(
            lambda m: st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)
        )
    ),
)
@example(5, [[5, 10], [0, 15]])
@example(7, [[1, 2, 3], [2, 4, 6], [0, 1, 8], [1, 3, 11]])
@example(3, [[0, 1, 2], [0, 2, 4], [0, 0, 0]])
@settings(max_examples=200)
def test_rank_mod_p_matches_largest_nonzero_minor(p, mat):
    assert rank_mod_p(mat, p) == minor_rank_mod_p(mat, p)


@given(square(max_n=6))
@settings(max_examples=200)
def test_charpoly_matches_determinants(mat):
    # both sides have degree n, so agreement at the n+1 points x = 0..n proves them equal
    n = len(mat)
    coeffs = charpoly(mat)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    for x in range(n + 1):
        shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)] for i, row in enumerate(mat)]
        assert horner(coeffs, x) == fraction_det(shifted)


@given(square())
@example([[0, 1], [1, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 5]])
@settings(max_examples=200)
def test_charpoly_constant_term_is_the_determinant(mat):
    # det A = (-1)^n det(0 I - A), the route of factor_and_rank_checks
    assert (-1) ** len(mat) * charpoly(mat)[0] == cofactor_det(mat)
