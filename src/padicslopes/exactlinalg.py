"""Small exact linear-algebra helpers for integer matrices: characteristic
polynomials (whose constant term gives the determinant) and products.  No
floating point anywhere, and no division: ``charpoly`` is Berkowitz's
algorithm with each R A^j C split as (R A^ceil(j/2))(A^floor(j/2) C).  The
one-sided loop it replaced is kept in the tests as the oracle."""

from __future__ import annotations

from operator import mul
from typing import Sequence


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of integer matrices."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def charpoly(mat: Sequence[Sequence[int]]) -> list[int]:
    """det(xI - A) of a square integer matrix, lowest degree first.

    Berkowitz's algorithm: the coefficients of the leading (k+1) x (k+1)
    block are a lower-triangular Toeplitz matrix times those of the k x k
    block A_k, with first column 1, -a_kk and -R A_k^j C (0 <= j < k) for
    the new row R and column C.  Only ring operations on integers occur, so
    nothing is divided.

    Two-sided: R A_k^j C = (R A_k^a)(A_k^b C) with a = ceil(j/2) and
    b = floor(j/2), by associativity.  So the row vectors R A_k^a and the
    column vectors A_k^b C are raised only to the power ceil((k-1)/2), and
    the mat-vec operands, whose entries grow with the power, are about half
    as long as those of the one-sided A_k^j C.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    poly = [1]  # highest degree first
    for k in range(n):
        block = [row[:k] for row in mat[:k]]
        columns = list(zip(*block))
        lefts = [mat[k][:k]]  # R A_k^a
        rights = [[mat[i][k] for i in range(k)]]  # A_k^b C
        for j in range(1, k):
            if j % 2:
                lefts.append([sum(map(mul, lefts[-1], c)) for c in columns])
            else:
                rights.append([sum(map(mul, r, rights[-1])) for r in block])
        toeplitz = [1, -mat[k][k]]
        toeplitz += [-sum(map(mul, lefts[(j + 1) // 2], rights[j // 2])) for j in range(k)]
        poly = [sum(map(mul, poly, reversed(toeplitz[: i + 1]))) for i in range(k + 2)]
    return poly[::-1]
