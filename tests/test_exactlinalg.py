"""Direct oracle tests for the exact linear-algebra kernels, and for the
tests' own rank mod p (lambda_oracle.rank_mod_p)."""

from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicslopes.exactlinalg import charpoly
from padicslopes.modforms import dim_cusp, hecke_matrix

from lambda_oracle import rank_mod_p
from test_golden import CASES

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


def charpoly_one_sided(mat):
    """det(xI - A), lowest degree first, by Berkowitz's algorithm with the
    one-sided powers A_k^j C (the production route before it went two-sided)."""
    n = len(mat)
    poly = [1]  # highest degree first
    for k in range(n):
        row = mat[k][:k]
        col = [mat[i][k] for i in range(k)]
        toeplitz = [1, -mat[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(a * b for a, b in zip(row, col)))
            col = [sum(a * b for a, b in zip(mat[i], col)) for i in range(k)]
        poly = [sum(toeplitz[i - j] * c for j, c in enumerate(poly[: i + 1])) for i in range(k + 2)]
    return poly[::-1]


def golden_level1_cells():
    """Every (p, k) with dim S_k >= 1 that a slopes or measure golden case
    reports (measure skips dimensions above --max-dim)."""
    cells = set()
    for _, argv, _ in CASES:
        if argv[0] in ("slopes", "measure"):
            lo, _, hi = argv[argv.index("--k") + 1].partition("..")
            max_dim = int(argv[argv.index("--max-dim") + 1]) if "--max-dim" in argv else 80
            ks = [k for k in range(int(lo), int(hi or lo) + 1) if k % 2 == 0 and 1 <= dim_cusp(k) <= max_dim]
            cells |= {(int(p), k) for p in argv[argv.index("--p") + 1].split(",") for k in ks}
    return sorted(cells)


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


# 1-bit and 800-bit entries mixed, the sizes of Hecke matrices at p = 5, k = 300
mixed = st.one_of(st.integers(-1, 1), st.integers(-(2**800), 2**800))


@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.lists(mixed, min_size=n, max_size=n), min_size=n, max_size=n)
))
@example([[2**800, -1], [1, 0]])
@settings(max_examples=100)
def test_two_sided_charpoly_matches_one_sided(mat):
    assert charpoly(mat) == charpoly_one_sided(mat)


def test_two_sided_charpoly_matches_one_sided_on_golden_hecke_matrices():
    cells = golden_level1_cells()
    assert len(cells) == 27 and max(dim_cusp(k) for _, k in cells) == 2
    for p, k in cells:
        entries = hecke_matrix(p, k).entries
        assert charpoly(entries) == charpoly_one_sided(entries)


def test_two_sided_charpoly_matches_one_sided_at_dimension_25():
    # the slopes workload's largest matrix, with entries of up to 821 bits
    entries = hecke_matrix(5, 300).entries
    assert len(entries) == 25
    assert charpoly(entries) == charpoly_one_sided(entries)


@given(square())
@example([[0, 1], [1, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 5]])
@settings(max_examples=200)
def test_charpoly_constant_term_is_the_determinant(mat):
    # det A = (-1)^n det(0 I - A), the route of factor_and_rank_checks
    assert (-1) ** len(mat) * charpoly(mat)[0] == cofactor_det(mat)
