"""Brute-force verification of the valuation lemmas.

Each lemma asserts strict p-adic valuation inequalities v_p(X_0) < v_p(.)
over a finite index window attached to a parameter cell.  The checks here
compute both sides as exact rationals and record per-index witnesses, so a
"holds" verdict is an exhaustive exact computation, never an estimate.
Vacuous windows are reported as such rather than silently passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import (
    c_constants,
    comb0,
    lambda_identity_holds,
    lambda_raw_table,
    rho_of,
    rho_prime_of,
)
from .padic import (
    INFINITY,
    ExtendedValuation,
    binomial_valuation,
    factorial_valuation,
    format_rational,
    generalized_binomial,
    integer_log,
    valuation,
)

GENERAL_LEMMAS = (10, 11, 12)
RHO_LEMMAS = (13, 14, 15)


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


@dataclass(frozen=True)
class Witness:
    index: int
    kind: str
    lhs_val: ExtendedValuation
    rhs_val: ExtendedValuation
    strict: bool

    @property
    def margin(self) -> ExtendedValuation:
        if isinstance(self.rhs_val, type(INFINITY)):
            return INFINITY
        return self.rhs_val - self.lhs_val


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: int
    p: int
    r: int | None
    alpha: int | None
    rho: int | None
    rho_prime: int | None
    witnesses: tuple[Witness, ...]
    verdict: str  # "holds" | "fails" | "vacuous"
    checked: int

    @property
    def min_margin(self) -> ExtendedValuation | None:
        finite = [w.margin for w in self.witnesses if not isinstance(w.margin, type(INFINITY))]
        if not finite:
            return INFINITY if self.witnesses else None
        return min(finite)


def _report(lemma_id, p, r, alpha, rho, rp, witnesses) -> LemmaReport:
    if not witnesses:
        verdict = "vacuous"
    elif all(w.strict for w in witnesses):
        verdict = "holds"
    else:
        verdict = "fails"
    return LemmaReport(
        lemma_id=lemma_id,
        p=p,
        r=r,
        alpha=alpha,
        rho=rho,
        rho_prime=rp,
        witnesses=tuple(witnesses),
        verdict=verdict,
        checked=len(witnesses),
    )


def verify_lemma(lemma_id: int, p: int, r: int, alpha: int | None = None) -> LemmaReport:
    """Check one lemma on one parameter cell over its full index window.

    Lemmas 10-12 need alpha > rho (with rho' >= 1); lemmas 13-15 need
    r = rho(p+1)+1 and take alpha = rho implicitly.  Lemma 9 is checked by
    :func:`sweep_lemma9_with_oracle`.
    """
    rho = rho_of(p, r)
    if lemma_id in GENERAL_LEMMAS:
        if alpha is None or alpha <= rho:
            raise ValueError(f"lemma {lemma_id} needs alpha > rho = {rho}")
        rp = rho_prime_of(p, r, alpha)
        if rp < 1:
            raise ValueError(f"rho' = {rp} < 1: cell outside the lemma hypotheses")
    elif lemma_id in RHO_LEMMAS:
        if r != rho * (p + 1) + 1 or rho < 1:
            raise ValueError(f"lemma {lemma_id} needs r = rho(p+1)+1 with rho >= 1")
        if alpha is None:
            alpha = rho
        if alpha != rho:
            raise ValueError(f"lemma {lemma_id} fixes alpha = rho = {rho}")
        rp = rho
    else:
        raise ValueError(f"unknown lemma id {lemma_id}")

    v0 = binomial_valuation(r, alpha, p)
    witnesses: list[Witness] = []

    if lemma_id in (10, 13):
        # rows below zero: i < 0 with i(p-1)+alpha >= 0
        i = -1
        while i * (p - 1) + alpha >= 0:
            xi, _ = witness_values(p, r, alpha, rp, i)
            v = valuation(xi, p)
            witnesses.append(Witness(i, "X_i", v0, v, v0 < v))
            i -= 1
    elif lemma_id in (11, 14):
        if lemma_id == 11:
            lo_excl, hi_incl = rp * (p - 1) + alpha, r
        else:
            lo_excl, hi_incl = rho * p, r
        i = 0
        while i * (p - 1) + alpha <= hi_incl:
            if i * (p - 1) + alpha > lo_excl:
                _, xis = witness_values(p, r, alpha, rp, i)
                v = valuation(xis, p)
                witnesses.append(Witness(i, "X_i_star", v0, v, v0 < v))
            i += 1
    else:  # 12, 15
        cols = c_constants(p, r, alpha, "general" if lemma_id == 12 else "rho_case")
        lo = alpha - rp if lemma_id == 12 else 1
        for l in range(lo, alpha + 1):
            v = valuation(cols[l], p)
            if not isinstance(v, type(INFINITY)):
                v = v + l
            witnesses.append(Witness(l, "C_l_p^l", v0, v, v0 < v))

    return _report(lemma_id, p, r, alpha, rho, rp, witnesses)


# ---------------------------------------------------------------------------
# Lemma 9 (carry bound) sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma9Report:
    p: int
    a_max: int
    checked: int
    verdict: str
    max_valuation_seen: int
    violations: tuple[tuple[int, int], ...]  # (a, b) pairs


def sweep_lemma9_with_oracle(ps: Sequence[int], a_max: int) -> dict[int, Lemma9Report]:
    """Carry counts against the direct factorization of exact C(a, b), plus
    the log bound, for every prime in ps; the binomial is computed once per
    (a, b) and shared across primes."""
    violations: dict[int, list[tuple[int, int]]] = {p: [] for p in ps}
    vmax = {p: 0 for p in ps}
    checked = 0
    bounds = {p: [0] + [integer_log(p, a) for a in range(1, a_max + 1)] for p in ps}
    for a in range(1, a_max + 1):
        c = 1
        for b in range(0, a + 1):
            if b:
                c = c * (a - b + 1) // b
            checked += 1
            for p in ps:
                carries = binomial_valuation(a, b, p)
                n, direct = c, 0
                while n % p == 0:
                    n //= p
                    direct += 1
                if carries != direct or carries > bounds[p][a]:
                    violations[p].append((a, b))
                if carries > vmax[p]:
                    vmax[p] = carries
    return {
        p: Lemma9Report(
            p=p,
            a_max=a_max,
            checked=checked,
            verdict="holds" if not violations[p] else "fails",
            max_valuation_seen=vmax[p],
            violations=tuple(violations[p][:100]),
        )
        for p in ps
    }


# ---------------------------------------------------------------------------
# integrality of the cleared constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralityReport:
    p: int
    r: int
    alpha: int
    rho_prime: int
    variant: str
    c_prime_min_valuation: ExtendedValuation
    c_double_min_valuation: ExtendedValuation
    defining_identity_ok: bool
    cleared_identity_ok: bool

    @property
    def holds(self) -> bool:
        return (
            self.c_prime_min_valuation >= 0
            and self.c_double_min_valuation >= 0
            and self.defining_identity_ok
            and self.cleared_identity_ok
        )


def integrality_checks(p: int, r: int, alpha: int) -> IntegralityReport:
    """v_p(C'_l) >= 0 and v_p(C''_j) >= 0, with both defining polynomial
    identities verified exactly.

    C'_l is the Lambda value itself; C''_j rescales it by the unit
    (-1)^rho' (p-1)^(alpha-j) and the integer rho'!/(alpha-j)! so that the
    cleared identity has the monic product (X-1)...(X-rho') on the right.
    Both identities relate polynomials of degree rho', so exact evaluation
    at the rho'+1 integer points 0..rho' proves them; clearing the common
    denominator (p-1)^rho' rho'! keeps every evaluation in Z.
    """
    rho = rho_of(p, r)
    if r == rho * (p + 1) + 1 and alpha == rho:
        variant = "rho_case"
        rp = rho
    else:
        variant = "general"
        if alpha <= rho:
            raise ValueError(f"need alpha > rho = {rho} (or the rho case)")
        rp = rho_prime_of(p, r, alpha)
        if rp < 1:
            raise ValueError("rho' < 1: outside the lemma hypotheses")

    nums, den = lambda_raw_table(p, rp, alpha)  # Lambda(alpha, alpha-m) = nums[m]/den
    vden = factorial_valuation(rp, p)  # v_p(den), since p-1 is a unit

    def _v(n: int) -> ExtendedValuation:
        return INFINITY if n == 0 else valuation(n, p)

    cprime_min = min(_v(nums[m]) - vden for m in range(rp + 1))
    cdouble_min = min(
        _v(nums[m]) - factorial_valuation(m, p) for m in range(rp + 1)
    )

    # defining identity: sum_m nums[m] C((p-1)x+alpha, m) = den C(rho'-x, rho')
    defining_ok = lambda_identity_holds(p, alpha, nums, den)

    # cleared identity, scaled by (-1)^rho' den:
    #   sum_m (rho'!/m!) nums[m] G_m(x) = (-1)^rho' den (x-1)...(x-rho')
    # with G_m(x) = prod_{u<m} ((p-1)x + alpha - u)
    cleared_ok = True
    rpf = math.factorial(rp)
    facts = [math.factorial(m) for m in range(rp + 1)]
    for x in range(rp + 1):
        g = 1
        lhs = 0
        for m in range(rp + 1):
            if m:
                g *= (p - 1) * x + alpha - m + 1
            lhs += (rpf // facts[m]) * nums[m] * g
        rhs_prod = 1
        for i in range(1, rp + 1):
            rhs_prod *= x - i
        if lhs != (-1) ** rp * den * rhs_prod:
            cleared_ok = False
            break

    return IntegralityReport(
        p=p,
        r=r,
        alpha=alpha,
        rho_prime=rp,
        variant=variant,
        c_prime_min_valuation=cprime_min,
        c_double_min_valuation=cdouble_min,
        defining_identity_ok=defining_ok,
        cleared_identity_ok=cleared_ok,
    )


# ---------------------------------------------------------------------------
# admissible cell windows
# ---------------------------------------------------------------------------


def general_alphas(p: int, r: int) -> list[int]:
    """alpha with rho < alpha <= floor(r/(p-1)) and rho' >= 1.

    The alpha ceiling is the largest value the slope hypothesis allows.
    """
    alphas = range(rho_of(p, r) + 1, r // (p - 1) + 1)
    return [alpha for alpha in alphas if rho_prime_of(p, r, alpha) >= 1]


def admissible_rho_cells(p: int, r_max: int) -> list[tuple[int, int]]:
    """(p, r) with r = rho(p+1)+1, rho >= 1."""
    cells = []
    rho = 1
    while rho * (p + 1) + 1 <= r_max:
        cells.append((p, rho * (p + 1) + 1))
        rho += 1
    return cells


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: LemmaReport) -> dict:
    return {
        "lemma_id": report.lemma_id,
        "p": report.p,
        "r": report.r,
        "alpha": report.alpha,
        "rho": report.rho,
        "rho_prime": report.rho_prime,
        "verdict": report.verdict,
        "checked": report.checked,
        "min_margin": None if report.min_margin is None else format_rational(report.min_margin),
        "witnesses": [
            {
                "index": w.index,
                "kind": w.kind,
                "v_X0": format_rational(w.lhs_val),
                "v_other": format_rational(w.rhs_val),
                "margin": format_rational(w.margin),
                "strict": w.strict,
            }
            for w in report.witnesses
        ],
    }
