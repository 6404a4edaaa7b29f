"""Independent routes for the valuation lemmas, kept as oracles.

Production (``padicslopes.lemma_checks``) adds every witness valuation and
v_p(X_0) up from table lookups: Kummer's carry counts over one base-p
digit-sum table, plus the memoized valuations of each raw Lambda table.
This module keeps two other routes, built into the report that ``_report``
builds, so the tests can compare whole reports:

- ``verify_lemma_by_vp`` builds each witness as an integer, the binomial
  core C(r, n) C(rho'-i, rho') with ``math.comb`` and the column numerators
  of ``combinatorics._column_numerators`` over the raw Lambda table, and
  divides out p with ``padic._vp``: production's route before it turned
  additive.  Its v_p(X_0) is ``carries``, a digit-by-digit carry count
  that production does not use.
- ``verify_lemma_by_fractions`` builds the witnesses as exact ``Fraction``s,
  the way the lemmas state them, and splits them with ``padic.valuation``;
  v_p(X_0) = v_p(C(r, alpha)) is split the same way from ``math.comb``, so
  no carry count is shared with production.  Its column witnesses come from
  ``c_constants``, the constants C_l as Fractions.

It also keeps the cleared integrality identity, which production does not
evaluate: it is rho'! times the defining identity, which holds by
construction (see lemma_checks.integrality_checks).  And it keeps the
lemma-9 sweep's routes, of which production keeps none, since its largest
row maximum is floor(log_p a_max) by proof (see lemma_checks.sweep_lemma9):
``carry_row_max`` is the row maximum in closed form, ``digit_sum_row`` is
Kummer's carry counts of a row in digit-sum form, and ``recurrence_rows``
builds the same rows from the valuation recurrence, which never reads a
digit.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from padicslopes import lemma_checks
from padicslopes.combinatorics import (
    _column_numerators,
    all_row_indices,
    general_rho_prime,
    lambda_raw_table,
    lambda_values_by_differences,
    lambda_variant,
    rho_case_rho_prime,
    rho_of,
)
from padicslopes.lemma_checks import GENERAL_LEMMAS, RHO_LEMMAS, _report
from padicslopes.padic import INFINITY, _vp, factorial_valuation, integer_log, valuation

from lambda_oracle import comb0, generalized_binomial


def carries(x: int, y: int, p: int) -> int:
    """The number of carries when adding x, y >= 0 in base p: v_p(C(x+y, x))
    by Kummer, one digit at a time.

    Once x and y run out of digits, an incoming carry cannot carry again.
    """
    count = carry = 0
    while x or y:
        carry = 1 if x % p + y % p + carry >= p else 0
        count += carry
        x //= p
        y //= p
    return count


@dataclass(frozen=True)
class CConstants:
    """C_l = Lambda_{rho'}(alpha, l) * C(r, alpha - l), l in [alpha-rho', alpha]."""

    p: int
    r: int
    alpha: int
    rho_prime: int
    values: dict[int, Fraction]

    def __getitem__(self, l: int) -> Fraction:
        return self.values[l]


def c_constants(p: int, r: int, alpha: int) -> CConstants:
    """The column constants of the finite-support identities as Fractions, on
    a general or a rho-case cell (see lambda_variant)."""
    _, rp = lambda_variant(p, r, alpha)
    lam = lambda_values_by_differences(p, rp, alpha)
    values = {l: lam[l] * comb0(r, alpha - l) for l in range(alpha - rp, alpha + 1)}
    return CConstants(p=p, r=r, alpha=alpha, rho_prime=rp, values=values)


def witness_values(p: int, r: int, alpha: int, rho_prime: int, i: int) -> tuple[Fraction, Fraction]:
    """(X_i, X_i*) at row index i:
    X_i   = p^(-i(p-1))      C(r, i(p-1)+alpha) C(rho'-i, rho'),
    X_i*  = p^(i(p-1)+2a-r)  C(r, i(p-1)+alpha) C(rho'-i, rho')."""
    m = i * (p - 1) + alpha
    core = Fraction(comb0(r, m)) * generalized_binomial(rho_prime - i, rho_prime)
    e = i * (p - 1)
    xi = core * (Fraction(1, p**e) if e >= 0 else Fraction(p ** (-e)))
    e2 = i * (p - 1) + 2 * alpha - r
    xis = core * (Fraction(p**e2) if e2 >= 0 else Fraction(1, p ** (-e2)))
    return xi, xis


def _lemma_cell(lemma_id: int, p: int, r: int, alpha: int | None) -> tuple[int, int, int]:
    """(rho, alpha, rho') of a lemma's cell; lemmas 13-15 take alpha = rho."""
    rho = rho_of(p, r)
    if lemma_id in GENERAL_LEMMAS:
        return rho, alpha, general_rho_prime(p, r, alpha)
    if lemma_id in RHO_LEMMAS:
        alpha = rho if alpha is None else alpha
        return rho, alpha, rho_case_rho_prime(p, r, alpha)
    raise ValueError(f"unknown lemma id {lemma_id}")


def verify_lemma_by_fractions(lemma_id: int, p: int, r: int, alpha: int | None = None):
    """``verify_lemma`` over exact rationals: the same windows, with each
    witness built as a Fraction and its valuation split by ``valuation``, in
    the report that ``_report`` builds."""
    rho, alpha, rp = _lemma_cell(lemma_id, p, r, alpha)

    v0 = valuation(math.comb(r, alpha), p)
    witnesses = []
    if lemma_id in (10, 13):
        kind = "X_i"
        i = -1
        while i * (p - 1) + alpha >= 0:
            witnesses.append((i, valuation(witness_values(p, r, alpha, rp, i)[0], p)))
            i -= 1
    elif lemma_id in (11, 14):
        kind = "X_i_star"
        lo_excl = rp * (p - 1) + alpha if lemma_id == 11 else rho * p
        i = 0
        while i * (p - 1) + alpha <= r:
            if i * (p - 1) + alpha > lo_excl:
                witnesses.append((i, valuation(witness_values(p, r, alpha, rp, i)[1], p)))
            i += 1
    else:
        kind = "C_l_p^l"
        cols = c_constants(p, r, alpha)
        for l in range(alpha - rp if lemma_id == 12 else 1, alpha + 1):
            witnesses.append((l, valuation(cols[l], p) + l))  # INFINITY absorbs + l
    return _report(lemma_id, p, r, alpha, rho, rp, kind, v0, witnesses)


def core_valuation_by_vp(p: int, r: int, alpha: int, rho_prime: int, i: int):
    """v_p(C(r, i(p-1)+alpha) C(rho'-i, rho')) by building the product; a
    negative top uses C(-n, w) = (-1)^w C(n+w-1, w)."""
    top = rho_prime - i
    core = math.comb(r, i * (p - 1) + alpha) * math.comb(top if top >= 0 else rho_prime - top - 1, rho_prime)
    return INFINITY if core == 0 else _vp(core, p)


def verify_lemma_by_vp(lemma_id: int, p: int, r: int, alpha: int | None = None):
    """``verify_lemma`` with every witness built as an integer and its
    valuation taken by ``_vp``: the same windows, v_p(X_0) by the carry
    count ``carries``, in the report that ``_report`` builds."""
    rho, alpha, rp = _lemma_cell(lemma_id, p, r, alpha)

    v0 = carries(alpha, r - alpha, p)
    rows = all_row_indices(p, r, alpha)
    if lemma_id in (10, 13):
        kind = "X_i"
        witnesses = [(i, core_valuation_by_vp(p, r, alpha, rp, i) - i * (p - 1)) for i in reversed(rows) if i < 0]
    elif lemma_id in (11, 14):
        kind = "X_i_star"
        lo_excl = rp * (p - 1) + alpha if lemma_id == 11 else rho * p
        witnesses = [
            (i, core_valuation_by_vp(p, r, alpha, rp, i) + i * (p - 1) + 2 * alpha - r)
            for i in rows if i * (p - 1) + alpha > lo_excl
        ]
    else:
        kind = "C_l_p^l"
        cols = _column_numerators(r, alpha, lambda_raw_table(p, rp, alpha)[0])
        vden = factorial_valuation(rp, p)  # v_p((p-1)^rho' rho'!)
        ls = range(alpha - rp if lemma_id == 12 else 1, alpha + 1)
        witnesses = [(l, INFINITY if cols[l] == 0 else _vp(cols[l], p) - vden + l) for l in ls]
    return _report(lemma_id, p, r, alpha, rho, rp, kind, v0, witnesses)


def cleared_identity_holds(p: int, alpha: int, nums: list[int], den: int) -> bool:
    """The cleared identity of a raw Lambda table (nums, den), R = len(nums)-1:
    sum_m (R!/m!) nums[m] G_m(x) = (-1)^R den (x-1)...(x-R) at x = 0..R,
    with G_m(x) = prod_(u<m) ((p-1)x + alpha - u)."""
    rp = len(nums) - 1
    rpf = math.factorial(rp)
    for x in range(rp + 1):
        g = 1
        lhs = 0
        for m in range(rp + 1):
            if m:
                g *= (p - 1) * x + alpha - m + 1
            lhs += (rpf // math.factorial(m)) * nums[m] * g
        rhs_prod = 1
        for i in range(1, rp + 1):
            rhs_prod *= x - i
        if lhs != (-1) ** rp * den * rhs_prod:
            return False
    return True


def recurrence_rows(p: int, a_max: int):
    """Yield [(p-1) v_p(C(a, b)) for b in 0..a] for a = 1..a_max along the
    recurrence v(C(a, b)) = v(C(a, b-1)) + v(a-b+1) - v(b), the valuation of
    the exact ratio C(a, b)/C(a, b-1) = (a-b+1)/b, over a table of
    (p-1) v_p(n) for n <= a_max: no digit is read and C(a, b) is never built."""
    scaled_vp = [0] + [(p - 1) * _vp(n, p) for n in range(1, a_max + 1)]
    for a in range(1, a_max + 1):
        yield list(accumulate(map(operator.sub, scaled_vp[a:0:-1], scaled_vp[1 : a + 1]), initial=0))


def carry_row_max(p: int, a: int) -> int:
    """max_b v_p(C(a, b)) over 0 <= b <= a, for a >= 1, in closed form:
    max(0, floor(log_p a) - v_p(a + 1)) (the proof is in
    lemma_checks.sweep_lemma9)."""
    return max(0, integer_log(p, a) - _vp(a + 1, p))


def digit_sum_row(sums: list[int], a: int) -> list[int]:
    """[s_p(b) + s_p(a-b) - s_p(a) for b in 0..a], from the digit-sum table
    sums: (p-1) times the carry count of b + (a-b), for every b at once."""
    return list(map(operator.sub, map(operator.add, sums[: a + 1], sums[a::-1]), repeat(sums[a])))


def lemma9_disagreements(p: int, a_max: int) -> list[int]:
    """The rows a, 1 <= a <= a_max, in order, where the digit-sum row and the
    recurrence row differ, or where (p-1) times the closed form
    ``carry_row_max`` differs from their largest entry.  Each oracle row is
    built once.  The digit sums are read as the module global ``_digit_sums``
    of ``lemma_checks``, the table that lemmas 10-15 read, so a patched
    table is seen, and so is a patched ``carry_row_max`` of this module."""
    sums = lemma_checks._digit_sums(p, a_max)
    out = []
    for a, oracle in enumerate(recurrence_rows(p, a_max), start=1):
        row = digit_sum_row(sums, a)
        if row != oracle or max(row) != (p - 1) * carry_row_max(p, a):
            out.append(a)
    return out
