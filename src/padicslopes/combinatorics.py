"""Binomial-coefficient combinatorics over exact rationals.

The engine of the verification suite: the Lambda coefficient systems defined
by a polynomial identity in the binomial basis, the rectangular binomial
matrices attached to a parameter cell (p, r, alpha), the interior annihilator
systems they generate, and the finite-support identities those systems
satisfy.  Every check runs in int, over one common denominator per table or
system; a Fraction is built only where a public function returns a rational.
Nothing is approximated.

Every binomial row and table, symhecke's Pascal rows included, comes from one
exact ratio recurrence, _binomial_row: one math.comb call per row, then each
entry from the last by an exact division.  math.comb stays only where a value
must come from outside it: the right side of the trinomial revision check
(_revision_holds) and the interior solve.

The binomial rows of the identity targets depend on (p, r, n) only, with
n = i(p-1) + alpha: row n of the (p, r) diagonal table is the diagonal
C(r-rho+t, n-rho+t), t = 0..rho, that every cell of (p, r) with a row at n
reads.  The table builds a row on its first read and checks its trinomial
revision on the first read of its verdict, the one revision route:
matrix_entries_check reads the verdicts of a cell's interior rows, and every
row sum of the interior solve, the annihilators and the double sum reads a
suffix of a row.  The diagonal tables and the step-difference tables of the
interior solve are bounded memos registered in _memo, which empties them
once per invocation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Mapping, Sequence

from ._memo import memo
from .exactlinalg import charpoly, mat_mul_int
from .padic import _check_prime_gt3, integer_log


def _binomial_row(n: int, k: int, length: int, top_step: int = 1) -> list[int]:
    """[C(n + top_step t, k + t) for t < length] for n, k >= 0 and top_step 1
    (a diagonal) or 0 (a row), with C(N, K) = 0 for K > N.

    One math.comb call, then each entry from the last by an exact division:
    C(N+1, K+1) = C(N, K)(N+1)/(K+1) on a diagonal, C(N, K+1) =
    C(N, K)(N-K)/(K+1) on a row.  A run whose first entry has K > N is zero
    throughout.
    """
    if k > n or length <= 0:
        return [0] * length
    c = math.comb(n, k)
    out = [c]
    tops = range(n + 1, n + length) if top_step else range(n - k, n - k - length + 1, -1)
    for a, b in zip(tops, range(k + 1, k + length)):
        c = c * a // b
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# derived cell parameters
# ---------------------------------------------------------------------------


def rho_of(p: int, r: int) -> int:
    """floor((r+1)/(p+1)), the depth parameter of the cell."""
    return (r + 1) // (p + 1)


def rho_prime_of(p: int, r: int, alpha: int) -> int:
    """ceil((r-alpha)/p) - 1; meaningful (>= 1) only when r - alpha > p."""
    return -((alpha - r) // p) - 1


def ecal_of(p: int, r: int) -> int:
    """floor(log_p(r+1)): the p-power scale of the interior systems."""
    return integer_log(p, r + 1)


# The four cell shapes, all under the paper's p > 3 (the callers guard p): each has
# one validator, which returns rho' or raises ValueError, and one window of its cells.
# A validator only rejects p < 2, before its first division by p or p + 1; the
# primality test stays with the callers, off the per-cell path.


def _check_base(p: int) -> None:
    if p < 2:
        raise ValueError(f"need p >= 2, got p={p}")


def general_rho_prime(p: int, r: int, alpha: int) -> int:
    """General cell: rho < alpha with rho' >= 1."""
    _check_base(p)
    rho, rp = rho_of(p, r), rho_prime_of(p, r, alpha)
    if alpha <= rho:
        raise ValueError(f"general variant needs alpha > rho, got alpha={alpha}, rho={rho}")
    if rp < 1:
        raise ValueError(f"rho' = {rp} < 1: cell (p={p}, r={r}, alpha={alpha}) is outside the hypotheses")
    return rp


def general_alphas(p: int, r: int) -> list[int]:
    """General window at (p, r): rho < alpha <= floor(r/(p-1)) with rho' >= 1.
    The ceiling bounds the window only; the validator accepts cells above it."""
    return [a for a in range(rho_of(p, r) + 1, r // (p - 1) + 1) if rho_prime_of(p, r, a) >= 1]


def rho_case_rho_prime(p: int, r: int, alpha: int) -> int:
    """Rho-case cell: r = rho(p+1)+1 and alpha = rho >= 1; rho' = rho."""
    _check_base(p)
    rho = rho_of(p, r)
    if r != rho * (p + 1) + 1 or alpha != rho or rho < 1:
        raise ValueError(f"rho case needs r = rho(p+1)+1 and alpha = rho >= 1, got r={r}, alpha={alpha}")
    return rho


def rho_case_rs(p: int, r_max: int) -> range:
    """Rho-case window: the r <= r_max of that shape, each with alpha = rho."""
    return range(p + 2, r_max + 1, p + 1)


def below_rho_rho_prime(p: int, r: int, alpha: int) -> int:
    """Below-rho cell: 0 <= alpha < rho."""
    _check_base(p)
    if not 0 <= alpha < rho_of(p, r):
        raise ValueError(f"need 0 <= alpha < rho = {rho_of(p, r)}, got alpha={alpha}")
    return rho_prime_of(p, r, alpha)


def below_rho_alphas(p: int, r: int) -> range:
    """Below-rho window at (p, r)."""
    return range(rho_of(p, r))


def rho_annihilator_rho_prime(p: int, r: int, alpha: int) -> int:
    """Annihilator rho-shape: r = rho(p+1)+p-2 and alpha = rho >= 1; rho' = rho."""
    _check_base(p)
    rho = rho_of(p, r)
    if r != rho * (p + 1) + p - 2 or alpha != rho or rho < 1:
        raise ValueError(f"rho annihilator needs r = rho(p+1)+p-2, alpha = rho >= 1; got r={r}, alpha={alpha}")
    return rho


def rho_annihilator_rs(p: int, r_max: int) -> range:
    """Annihilator rho-shape window: the r <= r_max of that shape, each with alpha = rho."""
    return range(2 * p - 1, r_max + 1, p + 1)


def lambda_variant(p: int, r: int, alpha: int) -> tuple[str, int]:
    """("rho_case", rho') at alpha = rho, which needs a rho-case cell, else ("general", rho')."""
    _check_base(p)
    if alpha == rho_of(p, r):
        return "rho_case", rho_case_rho_prime(p, r, alpha)
    return "general", general_rho_prime(p, r, alpha)


# ---------------------------------------------------------------------------
# Lambda coefficient tables
# ---------------------------------------------------------------------------


def _forward_differences(values: list) -> list:
    """[v_0, (Delta v)_0, ..., (Delta^(n-1) v)_0] for values v_0..v_(n-1)."""
    out = []
    while values:
        out.append(values[0])
        values = list(map(operator.sub, values[1:], values))
    return out


def lambda_raw_table(p: int, R: int, alpha: int) -> tuple[list[int], int]:
    """(numerators n_0..n_R, common denominator) with
    Lambda_R(alpha, alpha - m) = n_m / den and den = (p-1)^R R!.

    Substituting Y = (p-1)X + alpha turns the defining identity into an
    expansion of f(Y) = C(R - (Y-alpha)/(p-1), R) in the basis C(Y, m), whose
    coefficients are the iterated forward differences of f at 0; the common
    denominator lets the difference table stay in integers.
    """
    _check_prime_gt3(p)
    if R < 0 or alpha < R:
        raise ValueError(f"need 0 <= R <= alpha, got R={R}, alpha={alpha}")
    # n_s = prod_(k=1..R) (k(p-1) + alpha - s)
    ns = [math.prod(range(alpha - s + p - 1, alpha - s + R * (p - 1) + 1, p - 1)) for s in range(R + 1)]
    return _forward_differences(ns), (p - 1) ** R * math.factorial(R)


def lambda_values_by_differences(p: int, R: int, alpha: int) -> dict[int, Fraction]:
    """The Lambda table {beta: Lambda_R(alpha, beta)} for beta in [alpha-R, alpha],
    defined by sum_beta Lambda_R(alpha, beta) C((p-1)X + alpha, alpha - beta)
    = C(R - X, R)."""
    nums, den = lambda_raw_table(p, R, alpha)
    return {alpha - m: Fraction(nums[m], den) for m in range(R + 1)}


def _column_numerators(r: int, alpha: int, nums: list[int]) -> dict[int, int]:
    """{l: N_l} with N_l = n_(alpha-l) C(r, alpha-l) over a raw Lambda table
    (nums, den): the column constant C_l = Lambda(alpha, l) C(r, alpha-l) of
    a cell is N_l / den, for l in [alpha-R, alpha]."""
    return {alpha - m: n * c for m, (n, c) in enumerate(zip(nums, _binomial_row(r, 0, len(nums), top_step=0)))}


def lambda_identity_holds(p: int, alpha: int, nums: list[int], den: int) -> bool:
    """Exact proof of the defining identity for a raw table (nums, den):
    sum_m nums[m] C((p-1)X + alpha, m) = den C(R - X, R) with R = len(nums)-1.

    Both sides have degree <= R, so agreement at X = 0..R proves it, and
    C(R - x, R) is 1 at x = 0 and 0 at x = 1..R.  Times R!, the left side
    is sum_m w_m (y)_m with w_m = nums[m] R!/m!, y = (p-1)x + alpha and the
    falling factorial (y)_m = y(y-1)...(y-m+1); Horner's scheme
    w_0 + y(w_1 + (y-1)(w_2 + ...)) evaluates it with no division.
    """
    R = len(nums) - 1
    fact = math.factorial(R)
    weights = [n * (fact // math.factorial(m)) for m, n in enumerate(nums)]
    for x in range(R + 1):
        y = (p - 1) * x + alpha
        h = weights[R]
        for m in range(R, 0, -1):
            h = h * (y - m + 1) + weights[m - 1]
        if h != (den * fact if x == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# integer numerators and the vartheta functional
# ---------------------------------------------------------------------------


def vartheta(D: Mapping[int, Fraction | int], w: int, p: int) -> Fraction:
    """sum_i D_i C(i(p-1), w) for a prime p > 3, with the generalized binomial
    for negative i, summed in integers over the lcm of D's denominators:
    C(i(p-1), w) is the last entry of one _binomial_row per nonzero D_i."""
    _check_prime_gt3(p)
    if w < 0:
        raise ValueError("w must be nonnegative")
    den = math.lcm(*(v.denominator for v in D.values()))
    total = 0
    for i, v in D.items():
        if not v:
            continue
        top = i * (p - 1)
        if top < 0:  # C(top, w) = (-1)^w C(-top-1+w, w): a diagonal
            c = (-1) ** w * _binomial_row(-top - 1, 0, w + 1)[w]
        else:
            c = _binomial_row(top, 0, w + 1, top_step=0)[w]
        total += v.numerator * (den // v.denominator) * c
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# the binomial matrices of a cell
# ---------------------------------------------------------------------------


def interior_row_indices(p: int, r: int, alpha: int) -> list[int]:
    """All i >= 0 with i(p-1) + alpha strictly between rho and r - rho."""
    rho = rho_of(p, r)
    return list(range(max(0, (rho - alpha) // (p - 1) + 1), -((alpha + rho - r) // (p - 1))))


def all_row_indices(p: int, r: int, alpha: int) -> list[int]:
    """All i with 0 <= i(p-1) + alpha <= r, in increasing order."""
    return list(range(-(alpha // (p - 1)), (r - alpha) // (p - 1) + 1))


def _revision_holds(r: int, n: int, row: Sequence[int], scales: list[int]) -> bool:
    """Trinomial revision on row n of a (p, r) diagonal table, whose entries
    are C(r-k, n-k) for k = rho..0, rho = len(row) - 1:
    row[t] C(r, k) = C(r, n) C(n, k) with k = rho - t (Graham, Knuth and
    Patashnik, Concrete Mathematics, (5.21)).

    The right side is computed entry by entry with math.comb, a route
    independent of the ratio recurrence that built the row.  scales holds
    C(r, k) for k = rho..0, shared by the rows of one table; the first call
    fills it."""
    ks = range(len(row) - 1, -1, -1)
    if not scales:
        scales.extend(map(math.comb, repeat(r), ks))
    rhs = map(operator.mul, repeat(math.comb(r, n)), map(math.comb, repeat(n), ks))
    return list(map(operator.mul, row, scales)) == list(rhs)


class _DiagonalTable(dict):
    """The binomial diagonals of (p, r): row n, for 0 <= n <= r, is the tuple
    C(r-rho+t, n-rho+t), t = 0..rho, zero where n-rho+t < 0.

    Row i of a cell (p, r, alpha) over its columns l = alpha-rho+t is row
    n = i(p-1) + alpha, so the cells of one r that meet n share one row.
    A row is built by _binomial_row on its first read (table[n]), and its
    trinomial-revision verdict is checked on the first read of holds(n), so
    the sweeps that never read a verdict never pay for one.  Rows are filled
    lazily because at large p a sweep reads few n of each table.  A row with
    n < 0 or n > r reads as a zero row and is not stored."""

    def __init__(self, p: int, r: int):
        super().__init__()
        self.r, self.rho = r, rho_of(p, r)
        self.verdicts: dict[int, bool] = {}
        self.scales: list[int] = []  # C(r, k) for k = rho..0, filled by _revision_holds

    def __missing__(self, n: int) -> tuple[int, ...]:
        r, rho = self.r, self.rho
        if not 0 <= n <= r:
            return (0,) * (rho + 1)
        t0 = max(0, rho - n)
        row = self[n] = (0,) * t0 + tuple(_binomial_row(r - rho + t0, n - rho + t0, rho + 1 - t0))
        return row

    def holds(self, n: int) -> bool:
        """Trinomial revision on row n, checked once per row."""
        verdict = self.verdicts.get(n)
        if verdict is None:
            verdict = self.verdicts[n] = _revision_holds(self.r, n, self[n], self.scales)
        return verdict


# Cells come sorted by (p, r), and every cell of one (p, r) reads one table.
@memo(maxsize=4)
def _diagonal_table(p: int, r: int) -> _DiagonalTable:
    """The (p, r) diagonal table, empty until its rows are read."""
    return _DiagonalTable(p, r)


def matrix_entries_check(p: int, r: int, alpha: int) -> tuple[bool, int]:
    """Trinomial revision on the matrix (C(r-alpha+j, i(p-1)+j)) of a below-rho
    cell or alpha = rho >= 1, over its interior rows i and its rho + 1 columns
    j in [alpha-rho, alpha]:
    C(r-alpha+j, i(p-1)+j) C(r, alpha-j) = C(r, i(p-1)+alpha) C(i(p-1)+alpha, alpha-j).

    Row i is row n = i(p-1) + alpha of the (p, r) diagonal table, whose
    verdict is checked once per row.  Returns (holds, number of interior
    rows); a cell may have none."""
    _check_prime_gt3(p)
    rho = rho_of(p, r)
    if alpha != rho:
        below_rho_rho_prime(p, r, alpha)
    elif rho < 1:
        raise ValueError(f"alpha = rho needs rho >= 1, got r={r}, alpha={alpha}")
    rows = interior_row_indices(p, r, alpha)
    table = _diagonal_table(p, r)
    return all(table.holds(i * (p - 1) + alpha) for i in rows), len(rows)


def _carry_matrix(p: int, R: int, gamma: int) -> list[list[int]]:
    """The R x R binomial-basis matrix (C(i(p-1)+gamma, j)) for i, j < R."""
    return [_binomial_row(i * (p - 1) + gamma, 0, R, top_step=0) for i in range(R)]


@dataclass(frozen=True)
class FactorRankReport:
    """Exact checks on the square binomial-basis matrix of size R."""

    p: int
    R: int
    gamma: int
    factorization_ok: bool
    det_binomial: int
    det_expected: int
    det_matches_closed_form: bool
    linear_power_agrees: bool


def factor_and_rank_checks(p: int, R: int, gamma: int) -> FactorRankReport:
    """Verify the Vandermonde-convolution factorization b u of
    (C(i(p-1)+gamma, j)), b = (C(i(p-1), j)) and u = (C(gamma, j-i)), and the
    determinant closed form (p-1)^(R(R-1)/2) of b.
    u is unitriangular by construction (zeros below the diagonal, the seed
    C(gamma, 0) = 1 of _binomial_row on it); a wrong seed breaks b u too.

    The determinant is (-1)^R times the constant term of the characteristic
    polynomial.  The report also compares it against the linear-exponent
    power (p-1)^R; the two agree only at R = 0 and R = 3.

    Full rank mod p is a theorem, so no cell checks it.  Vandermonde's
    convolution C(x+gamma, j) = sum_k C(x, k) C(gamma, j-k) at x = i(p-1)
    gives the factorization b u, and det u = 1.  The falling factorial
    x(x-1)...(x-k+1) = k! C(x, k) is x^k plus lower powers, so
    b = V S diag(1/k!) with V = (x_i^k) the Vandermonde matrix of
    x_i = i(p-1) and S unitriangular.  Hence
    det b = prod_{i<i'<R} (i'-i)(p-1) / prod_{k<R} k! = (p-1)^(R(R-1)/2),
    since prod_{i<i'<R} (i'-i) = prod_{i'<R} i'!.  That is a unit mod p, so
    the carry matrix has rank R mod p for every p, R and gamma >= 0.  The
    square submatrix (C(i(p-1)+alpha, alpha-j)) of a below-rho cell is
    _carry_matrix(p, R, i_min(p-1) + alpha) with its columns reversed, as
    its interior rows are consecutive, so it has full rank mod p too.  The
    two checks below give det(b u) = det b on the same cell, and the tests
    check the rank on every carry matrix of the gate grid.
    """
    _check_prime_gt3(p)
    if R < 1 or gamma < 0:
        raise ValueError("need R >= 1 and gamma >= 0")
    m3 = _carry_matrix(p, R, gamma)
    b = _carry_matrix(p, R, 0)
    u = [[0] * i + _binomial_row(gamma, 0, R - i, top_step=0) for i in range(R)]
    factorization_ok = mat_mul_int(b, u) == m3
    det_b = (-1) ** R * charpoly(b)[0]
    expected = (p - 1) ** (R * (R - 1) // 2)
    return FactorRankReport(
        p=p,
        R=R,
        gamma=gamma,
        factorization_ok=factorization_ok,
        det_binomial=det_b,
        det_expected=expected,
        det_matches_closed_form=det_b == expected,
        linear_power_agrees=det_b == (p - 1) ** R,
    )


# ---------------------------------------------------------------------------
# interior systems and annihilators
# ---------------------------------------------------------------------------


def _row_sum_numerators(p: int, r: int, alpha: int, nums: Mapping[int, int], rows) -> list[int]:
    """[sum_l N_l C(r-alpha+l, i(p-1)+l) for i in rows] for integer column
    numerators nums = {l: N_l} on columns alpha - rho <= l <= alpha, a
    missing l counting as N_l = 0.  A column outside them raises ValueError.

    Column l is t = l - alpha + rho of row n = i(p-1) + alpha of the (p, r)
    diagonal table, so row i's binomials are the suffix of that row from
    t = min(nums) - alpha + rho.  Every caller's columns lie there.  The
    interior solve and the annihilators read l in [alpha - rho, alpha].  The
    double sum reads l in [alpha - rho', alpha], and rho' <= rho on every
    general cell: with r = rho(p+1) + s, where s <= p - 1 since
    r + 1 < (rho+1)(p+1), and alpha >= rho + 1, r - alpha <= rho p + p - 2 <
    (rho+1)p, so rho' = ceil((r-alpha)/p) - 1 <= rho, and its suffix starts
    at t = rho - rho' >= 0."""
    table = _diagonal_table(p, r)
    lo, hi = min(nums, default=alpha), max(nums, default=alpha)
    if lo < alpha - table.rho or hi > alpha:
        raise ValueError(f"columns {lo}..{hi} outside [{alpha - table.rho}, {alpha}] of (p={p}, r={r}, alpha={alpha})")
    ns = [nums.get(l, 0) for l in range(lo, hi + 1)]
    t0 = lo - alpha + table.rho
    return [sum(map(operator.mul, ns, table[i * (p - 1) + alpha][t0:])) for i in rows]


@memo(maxsize=16)
def _step_differences(p: int, size: int) -> tuple[tuple[int, ...], ...]:
    """rows[k][j] = (Delta^k C((p-1)i, j)) at i = 0, for j, k < size.

    The generating function of C((p-1)i, j) over j is (1+x)^((p-1)i), so the
    k-th difference in i at 0 is ((1+x)^(p-1) - 1)^k; row k holds its
    coefficients, zero below x^k and (p-1)^k at x^k.  The table depends only
    on p; callers round size up to a power of two, so a sweep over many
    cells builds only a few tables.
    """
    g = [math.comb(p - 1, t) for t in range(1, p)]
    row = [1] + [0] * (size - 1)
    rows = [tuple(row)]
    for _ in range(1, size):
        row = [sum(c * row[j - t] for t, c in enumerate(g[:j], 1)) for j in range(size)]
        rows.append(tuple(row))
    return tuple(rows)


def _interior_solution(p: int, r: int, alpha: int, rows, targets: Mapping[int, int]) -> tuple[dict[int, int], int]:
    """({l: N_l}, den) for the constants C_l = N_l / den (l in (alpha-R, alpha])
    with sum_l C_l C(r-alpha+l, i(p-1)+l) = targets.get(i, 0) on every row i
    of rows, which are the cell's interior rows (interior_row_indices).

    Trinomial revision turns row i into sum_m c'_m C(n_i, m) = y_i with
    n_i = i(p-1)+alpha, c'_m = C_(alpha-m) / C(r, m) and
    y_i = targets[i] / C(r, n_i).  The R interior rows are consecutive,
    n_i = n_0 + (p-1)i for i = 0..R-1 after shifting i, and Vandermonde's
    identity splits C(n_i, m) = sum_j C(n_0, m-j) C((p-1)i, j); so the row
    system reads sum_j d_j C((p-1)i, j) = y_i with
    d_j = sum_(m >= j) c'_m C(n_0, m-j).  Taking forward differences in i
    makes it triangular with diagonal (p-1)^k (see _step_differences).
    Back-substitution gives the d_j, and the unit triangular Toeplitz
    relation gives the c'_m; neither is ever singular.

    The solve runs in integers: with L = lcm C(r, n_i) and
    E = (p-1)^(R(R-1)/2), d_k and c'_k have denominators dividing
    L (p-1)^(k+...+R-1), so their multiples by L E are integers and every
    division by (p-1)^k in the back-substitution is exact, and
    N_l = c'_(alpha-l) C(r, alpha-l) L E over den = L E.  A remainder raises.
    """
    R = len(rows)
    binoms_r = [math.comb(r, i * (p - 1) + alpha) for i in rows]
    den = math.lcm(*binoms_r) * (p - 1) ** (R * (R - 1) // 2)
    dy = _forward_differences([targets.get(i, 0) * (den // b) for i, b in zip(rows, binoms_r)])
    steps = _step_differences(p, 1 << (R - 1).bit_length())
    d = [0] * R
    for k in range(R - 1, -1, -1):
        d[k], rem = divmod(dy[k] - sum(map(operator.mul, steps[k][k + 1 : R], d[k + 1 :])), (p - 1) ** k)
        if rem:
            raise AssertionError("inexact division in the interior back-substitution (bug)")
    n0 = rows[0] * (p - 1) + alpha if rows else 0
    shifts = [math.comb(n0, t) for t in range(R)]
    cprime = [0] * R
    for m in range(R - 1, -1, -1):
        cprime[m] = d[m] - sum(map(operator.mul, shifts[1 : R - m], cprime[m + 1 :]))
    return {alpha - m: cprime[m] * math.comb(r, m) for m in range(R - 1, -1, -1)}, den


def solve_interior_system(p: int, r: int, alpha: int, u: int) -> dict[int, Fraction]:
    """Exact solution of the unit-target interior system: constants C_l with
    sum_l C_l C(r-alpha+l, i(p-1)+l) = [i == u] p^ecal on interior rows."""
    _check_prime_gt3(p)
    rows = interior_row_indices(p, r, alpha)
    if u not in rows:
        raise ValueError(f"u={u} is not an interior row of (p={p}, r={r}, alpha={alpha})")
    target = p ** ecal_of(p, r)
    nums, den = _interior_solution(p, r, alpha, rows, {u: target})
    for i, s in zip(rows, _row_sum_numerators(p, r, alpha, nums, rows)):
        if s != (target * den if i == u else 0):
            raise AssertionError("interior system solution failed verification (bug)")
    return {l: Fraction(n, den) for l, n in nums.items()}


@dataclass(frozen=True)
class AnnihilatorSystem:
    """A solved instance of the interior annihilator identity, in integers.

    column_numerators maps l to N_l, so that C_l = N_l / den are the column
    constants; row_values maps i to the integer coefficient D_i(r) of the
    right-hand side.  ``target`` describes the right side.
    """

    p: int
    r: int
    alpha: int
    ecal: int
    target: str
    den: int
    column_numerators: dict[int, int]
    row_values: dict[int, int]

    @property
    def column_constants(self) -> dict[int, Fraction]:
        """{l: C_l}."""
        return {l: Fraction(n, self.den) for l, n in self.column_numerators.items()}

    def residual(self) -> dict[int, Fraction]:
        """lhs - rhs per interior row, lhs being the row sum of the column
        constants, in integers over den; identically zero iff the identity
        holds.  This is the only row sum an annihilator makes: the other
        rows of the cell absorb the difference as their coefficients D'_i,
        so they hold by definition and are never summed."""
        p, r, alpha, den, rhs = self.p, self.r, self.alpha, self.den, self.row_values
        rows = interior_row_indices(p, r, alpha)
        out = {}
        for i, s in zip(rows, _row_sum_numerators(p, r, alpha, self.column_numerators, rows)):
            d = s - den * rhs.get(i, 0)
            if d:
                out[i] = Fraction(d, den)
        return out


def _theta_monomial_targets(p: int, alpha: int, ecal: int, offset: int) -> dict[int, int]:
    """Coefficients D_i of p^ecal theta^alpha x^(offset(p-1)) y^(...) in the
    family x^(i(p-1)+alpha) y^(r-i(p-1)-alpha): D_(m+offset) = p^ecal (-1)^m
    C(alpha, m) for m = 0..alpha.

    The reduction argument reads two facts of this expansion; both hold for
    every (p, alpha, ecal, offset), so no verdict checks them again.  With
    f(x) = C((x+offset)(p-1), w), vartheta_w(D) = sum_m D_(m+offset) f(m) =
    p^ecal (-1)^alpha Delta^alpha f(0).  f has degree w and leading
    coefficient (p-1)^w / w!, so vartheta_w = 0 for w < alpha and
    vartheta_alpha = p^ecal (1-p)^alpha, of valuation exactly ecal.  The
    rho-shape identity D_0 (1-p)^rho = vartheta_rho is the case offset = 0,
    where D_0 = p^ecal.  p^ecal divides every vartheta_w because it divides
    every D_i.  The tests check the first two facts once per key on the
    gate grids, through their own Fraction vartheta.
    """
    scale = p**ecal
    return {m + offset: scale * (-1) ** m * math.comb(alpha, m) for m in range(alpha + 1)}


def build_interior_annihilator(p: int, r: int, alpha: int) -> AnnihilatorSystem:
    """The cell's annihilator, built from the interior solutions.

    On a below-rho cell the right side is p^ecal theta^alpha x^(p-1)
    y^(rest).  On the annihilator rho-shape it is p^ecal theta^rho y^(p-2);
    the i = 0 row is then a boundary row, so its coefficient p^ecal
    survives rather than being interior-annihilated.
    """
    _check_prime_gt3(p)
    if alpha == rho_of(p, r):
        rho_annihilator_rho_prime(p, r, alpha)
        return _annihilator(p, r, alpha, 0, f"y^{p - 2}")
    below_rho_rho_prime(p, r, alpha)
    return _annihilator(p, r, alpha, 1, f"x^{p - 1} * y^{r - alpha * (p + 1) - p + 1}")


def _annihilator(p: int, r: int, alpha: int, offset: int, monomial: str) -> AnnihilatorSystem:
    """Right side p^ecal theta^alpha times the monomial, whose theta-expansion
    has support i in [offset, alpha + offset].  Only the interior rows are
    solved; the columns the solve leaves free are zero, and the remaining
    rows' coefficients, being defined as their difference, are not built."""
    ecal = ecal_of(p, r)
    targets = _theta_monomial_targets(p, alpha, ecal, offset)
    interior = interior_row_indices(p, r, alpha)
    cols, den = _interior_solution(p, r, alpha, interior, targets)
    cols.update(dict.fromkeys(range(alpha - rho_of(p, r), alpha - len(interior) + 1), 0))  # unsolved columns
    return AnnihilatorSystem(
        p=p,
        r=r,
        alpha=alpha,
        ecal=ecal,
        target=f"p^{ecal} * theta^{alpha} * {monomial}",
        den=den,
        column_numerators=cols,
        row_values=targets,
    )


@dataclass(frozen=True)
class DoubleSumReport:
    """Row sums of the vanishing double-sum identity of a cell with
    rho < alpha; all must be exactly zero."""

    p: int
    r: int
    alpha: int
    rho_prime: int
    row_sums: dict[int, Fraction]
    holds: bool


def verify_vanishing_double_sum(p: int, r: int, alpha: int) -> DoubleSumReport:
    """sum_l C_l C(r-alpha+l, i(p-1)+l) = 0 for i = 1..rho', coefficient-wise,
    with C_l = N_l / den from _column_numerators over the raw Lambda table
    (n, den = (p-1)^rho' rho'!).

    The sums vanish on every cell.  With n_i = i(p-1) + alpha and m = alpha - l,
    the trinomial revision C(r, m) C(r-m, i(p-1)+l) = C(r, n_i) C(n_i, m)
    turns row i into C(r, n_i) sum_m Lambda(alpha, alpha-m) C(n_i, m), which
    the defining identity at X = i (see lemma_checks.integrality_checks)
    makes C(r, n_i) C(rho'-i, rho'): 0 for 1 <= i <= rho'.  Like
    lambda-system, the target stays as a check of its kernels: the Lambda
    table, the column numerators and the diagonal table's rows.
    """
    _check_prime_gt3(p)
    rp = general_rho_prime(p, r, alpha)  # a rho-case cell has constants but no double sum
    nums, den = lambda_raw_table(p, rp, alpha)
    cols = _column_numerators(r, alpha, nums)
    rows = range(1, rp + 1)
    sums = {i: Fraction(s, den) for i, s in zip(rows, _row_sum_numerators(p, r, alpha, cols, rows))}
    return DoubleSumReport(
        p=p,
        r=r,
        alpha=alpha,
        rho_prime=rp,
        row_sums=sums,
        holds=all(v == 0 for v in sums.values()),
    )
