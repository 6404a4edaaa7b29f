"""Binomial-coefficient combinatorics over exact rationals.

The engine of the verification suite: the Lambda coefficient systems defined
by a polynomial identity in the binomial basis, the rectangular binomial
matrices attached to a parameter cell (p, r, alpha), the interior annihilator
systems they generate, and the finite-support identities those systems
satisfy.  All arithmetic is exact (int / Fraction); nothing is approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactlinalg import bareiss_det, lagrange_interpolate, mat_mul_int, rank_mod_p
from .padic import integer_log, is_prime, valuation

# ---------------------------------------------------------------------------
# dense rational polynomials, lowest degree first
# ---------------------------------------------------------------------------


def _ptrim(c: list[Fraction]) -> list[Fraction]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _pscale(a: list[Fraction], s: Fraction) -> list[Fraction]:
    return _ptrim([c * s for c in a])


def _pmul_linear(a: list[Fraction], c0: Fraction, c1: Fraction) -> list[Fraction]:
    """a(X) * (c0 + c1 X)."""
    out = [Fraction(0)] * (len(a) + 1)
    for i, c in enumerate(a):
        out[i] += c * c0
        out[i + 1] += c * c1
    return _ptrim(out)


def comb0(n: int, k: int) -> int:
    """C(n, k) for n >= 0 with the usual convention 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


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


def _require_prime_gt3(p: int) -> None:
    if not is_prime(p) or p <= 3:
        raise ValueError(f"p must be a prime > 3, got {p}")


# ---------------------------------------------------------------------------
# Lambda coefficient tables
# ---------------------------------------------------------------------------


def binomial_basis_polys(p: int, alpha: int, m_max: int) -> list[list[Fraction]]:
    """All basis polynomials C((p-1)X + alpha, m) for m = 0..m_max, built
    from one running product."""
    out = []
    prod = [Fraction(1)]
    fact = 1
    for m in range(m_max + 1):
        if m:
            prod = _pmul_linear(prod, Fraction(alpha - m + 1), Fraction(p - 1))
            fact *= m
        out.append(_pscale(prod, Fraction(1, fact)))
    return out


def lambda_raw_table(p: int, R: int, alpha: int) -> tuple[list[int], int]:
    """(numerators n_0..n_R, common denominator) with
    Lambda_R(alpha, alpha - m) = n_m / den and den = (p-1)^R R!.

    Substituting Y = (p-1)X + alpha turns the defining identity into an
    expansion of f(Y) = C(R - (Y-alpha)/(p-1), R) in the basis C(Y, m), whose
    coefficients are the iterated forward differences of f at 0; the common
    denominator lets the difference table stay in integers.
    """
    _require_prime_gt3(p)
    if R < 0 or alpha < R:
        raise ValueError(f"need 0 <= R <= alpha, got R={R}, alpha={alpha}")
    ns = []
    for s in range(R + 1):
        n = 1
        for u in range(R):
            n *= (R - u) * (p - 1) + alpha - s
        ns.append(n)
    den = (p - 1) ** R * math.factorial(R)
    nums = [ns[0]]
    for _ in range(R):
        ns = [ns[s + 1] - ns[s] for s in range(len(ns) - 1)]
        nums.append(ns[0])
    return nums, den


def lambda_values_by_differences(p: int, R: int, alpha: int) -> dict[int, Fraction]:
    """The Lambda table {beta: Lambda_R(alpha, beta)} for beta in [alpha-R, alpha],
    defined by sum_beta Lambda_R(alpha, beta) C((p-1)X + alpha, alpha - beta)
    = C(R - X, R)."""
    nums, den = lambda_raw_table(p, R, alpha)
    return {alpha - m: Fraction(nums[m], den) for m in range(R + 1)}


def lambda_identity_holds(p: int, alpha: int, nums: list[int], den: int) -> bool:
    """Exact proof of the defining identity for a raw table (nums, den):
    sum_m nums[m] C((p-1)X + alpha, m) = den C(R - X, R) with R = len(nums)-1.

    Both sides have degree <= R, so agreement at X = 0..R proves it, and
    C(R - x, R) is 1 at x = 0 and 0 at x = 1..R.
    """
    return all(
        sum(n * comb0((p - 1) * x + alpha, m) for m, n in enumerate(nums)) == (den if x == 0 else 0)
        for x in range(len(nums))
    )


# ---------------------------------------------------------------------------
# the constants C_l attached to a cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CConstants:
    """C_l = Lambda_{rho'}(alpha, l) * C(r, alpha - l), l in [alpha-rho', alpha]."""

    p: int
    r: int
    alpha: int
    rho_prime: int
    values: dict[int, Fraction]
    lambda_values: dict[int, Fraction]

    def __getitem__(self, l: int) -> Fraction:
        return self.values[l]


def c_constants(p: int, r: int, alpha: int, variant: str = "general") -> CConstants:
    """The column constants of the finite-support identities.

    variant="general" requires rho < alpha and rho' >= 1; variant="rho_case"
    requires r = rho(p+1) + 1 and alpha = rho (then rho' = rho).
    """
    _require_prime_gt3(p)
    rho = rho_of(p, r)
    if variant == "general":
        if alpha <= rho:
            raise ValueError(f"general variant needs alpha > rho, got alpha={alpha}, rho={rho}")
        rp = rho_prime_of(p, r, alpha)
        if rp < 1:
            raise ValueError(f"rho' = {rp} < 1: cell (p={p}, r={r}, alpha={alpha}) is outside the hypotheses")
    elif variant == "rho_case":
        if r != rho * (p + 1) + 1 or alpha != rho or rho < 1:
            raise ValueError(f"rho_case needs r = rho(p+1)+1 and alpha = rho >= 1, got r={r}, alpha={alpha}, rho={rho}")
        rp = rho
    else:
        raise ValueError(f"unknown variant {variant!r}")
    lam = lambda_values_by_differences(p, rp, alpha)
    values = {l: lam[l] * comb0(r, alpha - l) for l in range(alpha - rp, alpha + 1)}
    return CConstants(p=p, r=r, alpha=alpha, rho_prime=rp, values=values, lambda_values=lam)


def vartheta(D: Mapping[int, Fraction | int], w: int, p: int) -> Fraction:
    """sum_i D_i C(i(p-1), w) with the generalized binomial for negative i."""
    from .padic import generalized_binomial

    acc = Fraction(0)
    for i, d in D.items():
        if d != 0:
            acc += Fraction(d) * generalized_binomial(i * (p - 1), w)
    return acc


# ---------------------------------------------------------------------------
# the binomial matrices of a cell
# ---------------------------------------------------------------------------


def interior_row_indices(p: int, r: int, alpha: int) -> list[int]:
    """All i with i(p-1) + alpha strictly between rho and r - rho."""
    rho = rho_of(p, r)
    lo, hi = rho, r - rho
    out = []
    i = 0
    while i * (p - 1) + alpha <= hi:
        if lo < i * (p - 1) + alpha < hi:
            out.append(i)
        i += 1
    return out


def all_row_indices(p: int, r: int, alpha: int) -> list[int]:
    """All i with 0 <= i(p-1) + alpha <= r."""
    out = []
    i = -(alpha // (p - 1))
    while i * (p - 1) + alpha <= r:
        if i * (p - 1) + alpha >= 0:
            out.append(i)
        i += 1
    return out


@dataclass(frozen=True)
class MatrixM:
    """The matrix (C(r - alpha + j, i(p-1) + j)) over interior rows i and
    columns j in [alpha - rho, alpha]."""

    p: int
    r: int
    alpha: int
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.row_indices)

    @property
    def ncols(self) -> int:
        return len(self.col_indices)


def build_matrix_M(p: int, r: int, alpha: int) -> MatrixM:
    """Rows may be empty (legal); columns always number rho + 1."""
    _require_prime_gt3(p)
    rho = rho_of(p, r)
    if not 0 <= alpha <= rho:
        raise ValueError(f"need 0 <= alpha <= rho = {rho}, got alpha={alpha}")
    rows = interior_row_indices(p, r, alpha)
    cols = list(range(alpha - rho, alpha + 1))
    entries = tuple(
        tuple(comb0(r - alpha + j, i * (p - 1) + j) for j in cols) for i in rows
    )
    return MatrixM(p, r, alpha, tuple(rows), tuple(cols), entries)


def trinomial_revision_check(m: MatrixM) -> bool:
    """Per-entry trinomial revision:
    C(r-a+j, i(p-1)+j) * C(r, a-j) = C(r, i(p-1)+a) * C(i(p-1)+a, a-j)."""
    r, a = m.r, m.alpha
    for i, row in zip(m.row_indices, m.entries):
        n = i * (m.p - 1) + a
        for j, e in zip(m.col_indices, row):
            if e * comb0(r, a - j) != comb0(r, n) * comb0(n, a - j):
                return False
    return True


@dataclass(frozen=True)
class FactorRankReport:
    """Exact checks on the square binomial-basis matrix of size R."""

    p: int
    R: int
    gamma: int
    factorization_ok: bool
    unitriangular_ok: bool
    det_binomial: int
    det_expected: int
    det_matches_closed_form: bool
    linear_power_value: int
    linear_power_agrees: bool
    full_rank_mod_p: bool


def factor_and_rank_checks(p: int, R: int, gamma: int) -> FactorRankReport:
    """Verify the Vandermonde-convolution factorization, the unitriangular
    cofactor, the determinant closed form (p-1)^(R(R-1)/2), and full rank
    mod p of (C(i(p-1)+gamma, j)).

    The report also compares against the linear-exponent power (p-1)^R; the
    two agree only at R = 0 and R = 3, and both are units mod p, so the rank
    conclusion is the same either way.
    """
    _require_prime_gt3(p)
    if R < 1 or gamma < 0:
        raise ValueError("need R >= 1 and gamma >= 0")
    m3 = [[comb0(i * (p - 1) + gamma, j) for j in range(R)] for i in range(R)]
    b = [[comb0(i * (p - 1), j) for j in range(R)] for i in range(R)]
    u = [[comb0(gamma, j - i) for j in range(R)] for i in range(R)]
    factorization_ok = mat_mul_int(b, u) == m3
    unitriangular_ok = all(
        (u[i][j] == (1 if i == j else 0)) for i in range(R) for j in range(i + 1)
    )
    det_b = bareiss_det(b)
    expected = (p - 1) ** (R * (R - 1) // 2)
    linear = (p - 1) ** R
    return FactorRankReport(
        p=p,
        R=R,
        gamma=gamma,
        factorization_ok=factorization_ok,
        unitriangular_ok=unitriangular_ok,
        det_binomial=det_b,
        det_expected=expected,
        det_matches_closed_form=det_b == expected,
        linear_power_value=linear,
        linear_power_agrees=det_b == linear,
        full_rank_mod_p=rank_mod_p(m3, p) == R,
    )


@dataclass(frozen=True)
class InteriorRankReport:
    p: int
    r: int
    alpha: int
    R: int
    gamma: int
    permutation_ok: bool
    full_rank_mod_p: bool


def interior_rank_report(p: int, r: int, alpha: int) -> InteriorRankReport:
    """Full-rank-mod-p check for the right square submatrix of the cell's
    carry matrix (C(i(p-1)+alpha, alpha-j)), plus the reindexing that turns
    it into (C(i'(p-1)+gamma, j')) with gamma = i_min(p-1) + alpha."""
    rows = interior_row_indices(p, r, alpha)
    R = len(rows)
    if R == 0:
        return InteriorRankReport(p, r, alpha, 0, 0, True, True)
    cols = list(range(alpha - R + 1, alpha + 1))
    m2 = [[comb0(i * (p - 1) + alpha, alpha - j) for j in cols] for i in rows]
    gamma = rows[0] * (p - 1) + alpha
    m3 = [[comb0(i2 * (p - 1) + gamma, j2) for j2 in range(R)] for i2 in range(R)]
    perm_ok = all(
        m2[i2][j] == m3[i2][R - 1 - j] for i2 in range(R) for j in range(R)
    )
    return InteriorRankReport(
        p, r, alpha, R, gamma, perm_ok, rank_mod_p(m2, p) == R
    )


# ---------------------------------------------------------------------------
# interior systems and annihilators
# ---------------------------------------------------------------------------


def row_sum(p: int, r: int, alpha: int, cols: Mapping[int, Fraction], i: int) -> Fraction:
    """sum_l C_l C(r-alpha+l, i(p-1)+l): row i of the cell's binomial system
    applied to the column constants cols = {l: C_l}."""
    return sum((c * comb0(r - alpha + l, i * (p - 1) + l) for l, c in cols.items()), Fraction(0))


def _interior_solution(
    p: int, r: int, alpha: int, targets: Mapping[int, Fraction]
) -> dict[int, Fraction]:
    """Constants C_l (l in (alpha-R, alpha]) with
    sum_l C_l C(r-alpha+l, i(p-1)+l) = targets[i] on every interior row i.

    Clearing C(r, i(p-1)+alpha) per entry reduces each row to the evaluation
    at X = i of a polynomial of degree < R expressed in the binomial basis
    C((p-1)X+alpha, alpha-l); Lagrange interpolation through the R interior
    rows therefore solves the system, and shows it is never singular.
    """
    rows = interior_row_indices(p, r, alpha)
    R = len(rows)
    if R == 0:
        return {}
    points = [
        (i, Fraction(targets.get(i, Fraction(0))) / comb0(r, i * (p - 1) + alpha))
        for i in rows
    ]
    q = lagrange_interpolate(points)
    q = q + [Fraction(0)] * (R - len(q))
    basis = binomial_basis_polys(p, alpha, R - 1)
    solution: dict[int, Fraction] = {}
    for m in range(R - 1, -1, -1):
        lead = Fraction((p - 1) ** m, math.factorial(m))
        cprime = q[m] / lead
        solution[alpha - m] = cprime * comb0(r, m)
        if cprime != 0:
            bm = basis[m]
            for u in range(len(bm)):
                q[u] -= cprime * bm[u]
    if any(c != 0 for c in q):
        raise AssertionError("basis conversion left a nonzero residual (bug)")
    return solution


def solve_interior_system(p: int, r: int, alpha: int, u: int) -> dict[int, Fraction]:
    """Exact solution of the unit-target interior system: constants C_l with
    sum_l C_l C(r-alpha+l, i(p-1)+l) = [i == u] p^ecal on interior rows."""
    rows = interior_row_indices(p, r, alpha)
    if u not in rows:
        raise ValueError(f"u={u} is not an interior row of (p={p}, r={r}, alpha={alpha})")
    ecal = ecal_of(p, r)
    sol = _interior_solution(p, r, alpha, {u: Fraction(p**ecal)})
    for i in rows:
        if row_sum(p, r, alpha, sol, i) != (p**ecal if i == u else 0):
            raise AssertionError("interior system solution failed verification (bug)")
    return sol


@dataclass(frozen=True)
class AnnihilatorSystem:
    """A solved instance of the interior annihilator identity.

    column_constants maps l to C_l; row_values maps i to the coefficient
    D_i(r) of the right-hand side; boundary_values maps boundary rows i to
    the absorbed coefficients D'_i.  ``target`` describes the right side.
    """

    p: int
    r: int
    alpha: int
    ecal: int
    target: str
    column_constants: dict[int, Fraction]
    row_values: dict[int, Fraction]
    boundary_values: dict[int, Fraction]

    def lhs_coefficient(self, i: int) -> Fraction:
        """Coefficient of the monomial with x-exponent i(p-1)+alpha on the
        assembled left side."""
        return row_sum(self.p, self.r, self.alpha, self.column_constants, i) + self.boundary_values.get(i, 0)

    def residual(self) -> dict[int, Fraction]:
        """lhs - rhs per row; identically zero iff the identity holds."""
        out = {}
        for i in all_row_indices(self.p, self.r, self.alpha):
            d = self.lhs_coefficient(i) - self.row_values.get(i, Fraction(0))
            if d:
                out[i] = d
        return out


def _theta_monomial_targets(
    p: int, alpha: int, ecal: int, offset: int
) -> dict[int, Fraction]:
    """Coefficients of p^ecal theta^alpha x^(offset(p-1)) y^(...) in the
    family x^(i(p-1)+alpha) y^(r-i(p-1)-alpha): support i in [offset, alpha+offset]."""
    scale = Fraction(p**ecal)
    return {
        m + offset: scale * (-1) ** m * math.comb(alpha, m) for m in range(alpha + 1)
    }


def build_interior_annihilator(p: int, r: int, alpha: int) -> AnnihilatorSystem:
    """The cell's annihilator, built from the interior solutions.

    For 0 <= alpha <= rho - 1 the right side is p^ecal theta^alpha x^(p-1)
    y^(rest).  For alpha = rho, which needs r - rho(p+1) = p - 2, it is
    p^ecal theta^rho y^(p-2); the i = 0 row is then a boundary row, so its
    coefficient p^ecal survives rather than being interior-annihilated.
    """
    _require_prime_gt3(p)
    rho = rho_of(p, r)
    if 0 <= alpha <= rho - 1:
        return _annihilator(p, r, alpha, 1, f"x^{p - 1} * y^{r - alpha * (p + 1) - p + 1}")
    if alpha == rho >= 1 and r - rho * (p + 1) == p - 2:
        return _annihilator(p, r, rho, 0, f"y^{p - 2}")
    raise ValueError(
        f"need 0 <= alpha <= rho-1 = {rho - 1}, or alpha = rho with r - rho(p+1) = p-2; "
        f"got r={r}, alpha={alpha}"
    )


def _annihilator(p: int, r: int, alpha: int, offset: int, monomial: str) -> AnnihilatorSystem:
    """Right side p^ecal theta^alpha times the monomial, whose theta-expansion
    has support i in [offset, alpha + offset]; interior rows are solved,
    the remaining rows absorb the difference as boundary coefficients."""
    ecal = ecal_of(p, r)
    targets = _theta_monomial_targets(p, alpha, ecal, offset)
    interior = set(interior_row_indices(p, r, alpha))
    cols = _interior_solution(p, r, alpha, {i: t for i, t in targets.items() if i in interior})
    for l in range(alpha - rho_of(p, r), alpha - len(interior) + 1):
        cols.setdefault(l, Fraction(0))
    boundary = {
        i: targets.get(i, Fraction(0)) - row_sum(p, r, alpha, cols, i)
        for i in all_row_indices(p, r, alpha)
        if i not in interior
    }
    return AnnihilatorSystem(
        p=p,
        r=r,
        alpha=alpha,
        ecal=ecal,
        target=f"p^{ecal} * theta^{alpha} * {monomial}",
        column_constants=cols,
        row_values=targets,
        boundary_values=boundary,
    )


@dataclass(frozen=True)
class ThetaProfile:
    """Valuations of vartheta_w over the annihilator's row family."""

    alpha: int
    ecal: int
    zero_below_alpha: bool
    valuation_at_alpha_is_ecal: bool
    valuations_ok_up_to: int
    values: dict[int, Fraction]


def vartheta_profile(system: AnnihilatorSystem, w_max: int | None = None) -> ThetaProfile:
    """Check vartheta_w(D(r)) = 0 for w < alpha, = p^ecal-unit at w = alpha,
    and v_p >= ecal for alpha <= w <= w_max (default 2 rho)."""
    p, alpha, ecal = system.p, system.alpha, system.ecal
    if w_max is None:
        w_max = 2 * rho_of(p, system.r)
    vals = {w: vartheta(system.row_values, w, p) for w in range(w_max + 1)}
    zero_below = all(vals[w] == 0 for w in range(min(alpha, w_max + 1)))
    at_alpha = alpha <= w_max and valuation(vals[alpha], p) == ecal
    ok_up_to = -1
    for w in range(alpha, w_max + 1):
        v = valuation(vals[w], p)
        if v < ecal:
            break
        ok_up_to = w
    return ThetaProfile(alpha, ecal, zero_below, at_alpha, ok_up_to, vals)


def rho_zero_row_identity(system: AnnihilatorSystem) -> tuple[Fraction, Fraction, bool]:
    """(D_0, vartheta_rho(D), exact?) for the rho-case annihilator.

    The exact identity is D_0 (1-p)^rho = vartheta_rho(D): the theta-expansion
    contributes the unit (1-p)^rho, which reduces to 1 mod p.
    """
    rho = system.alpha
    d0 = system.row_values.get(0, Fraction(0))
    th = vartheta(system.row_values, rho, system.p)
    return d0, th, d0 * (1 - system.p) ** rho == th


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
    """sum_l C_l C(r-alpha+l, i(p-1)+l) = 0 for i = 1..rho', coefficient-wise."""
    cc = c_constants(p, r, alpha, variant="general")
    sums = {i: row_sum(p, r, alpha, cc.values, i) for i in range(1, cc.rho_prime + 1)}
    return DoubleSumReport(
        p=p,
        r=r,
        alpha=alpha,
        rho_prime=cc.rho_prime,
        row_sums=sums,
        holds=all(v == 0 for v in sums.values()),
    )
