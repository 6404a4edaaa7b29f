import math
from argparse import Namespace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicslopes import _memo
from padicslopes import lemma_checks as lc
from padicslopes.combinatorics import (
    all_row_indices,
    general_alphas,
    general_rho_prime,
    lambda_identity_holds,
    lambda_raw_table,
    lambda_values_by_differences,
    lambda_variant,
    rho_case_rho_prime,
    rho_case_rs,
    rho_of,
    rho_prime_of,
)
from padicslopes.cli import VERIFY_TARGETS, _lemma_record
from padicslopes.cli import main as cli_main
from padicslopes.lemma_checks import (
    integrality_checks,
    sweep_lemma9,
    table_key,
    verify_lemma,
)
from padicslopes.padic import INFINITY, integer_log, valuation

import lemma_oracle
from lemma_oracle import (
    c_constants,
    carries,
    carry_row_max,
    cleared_identity_holds,
    core_valuation_by_vp,
    digit_sum_row,
    lemma9_disagreements,
    recurrence_rows,
    verify_lemma_by_fractions,
    verify_lemma_by_vp,
    witness_values,
)


def falling(a, n):
    out = 1
    for u in range(n):
        out *= a - u
    return out


class TestWitnessValues:
    def test_X0_is_central_binomial(self):
        # every witness compares against v_p(X_0) with X_0 = C(r, alpha), kept
        # once per report, as is the witness kind
        for lemma, kind in ((10, "X_i"), (11, "X_i_star"), (12, "C_l_p^l")):
            rep = verify_lemma(lemma, 5, 40, 9)
            assert rep.witnesses
            assert rep.v_x0 == valuation(math.comb(40, 9), 5)
            assert rep.kind == kind
            record = _lemma_record(rep)
            assert {(w["v_X0"], w["kind"]) for w in record["witnesses"]} == {(str(rep.v_x0), kind)}

    def test_eq133_ratio(self):
        # general variant, i = -j < 0:
        # X_i = X_0 p^(j(p-1)) alpha_(j(p-1)) / (r-alpha+j(p-1))_(j(p-1)) C(rho'+j, j)
        p, r, alpha = 5, 40, 9
        rp = rho_prime_of(p, r, alpha)
        for j in (1, 2):
            xi, _ = witness_values(p, r, alpha, rp, -j)
            expected = (
                Fraction(math.comb(r, alpha))
                * p ** (j * (p - 1))
                * falling(alpha, j * (p - 1))
                / falling(r - alpha + j * (p - 1), j * (p - 1))
                * math.comb(rp + j, j)
            )
            assert xi == expected

    def test_eq189_rho_case(self):
        # X_i* = (-1)^j p^j C(r,rho) (i-1)_(i-rho+j-1) / ((rho p+j+1)_j (i-rho-1)!)
        p, rho = 7, 3
        r = rho * (p + 1) + 1
        lo, hi = rho * p, r
        for i in range(rho + 1, r):
            if not lo < i * (p - 1) + rho <= hi:
                continue
            j = (i - rho) * (p - 1) - 1
            _, xis = witness_values(p, r, rho, rho, i)
            expected = (
                Fraction((-1) ** j * p**j * math.comb(r, rho))
                * falling(i - 1, i - rho + j - 1)
                / (falling(rho * p + j + 1, j) * math.factorial(i - rho - 1))
            )
            assert xis == expected

    def test_column_witness(self):
        # the column witness at l = alpha is v_p(C_l p^l)
        rep = verify_lemma(12, 5, 40, 9)
        assert rep.kind == "C_l_p^l"
        assert dict(rep.witnesses)[9] == valuation(c_constants(5, 40, 9)[9] * 5**9, 5)

    def test_window_validation(self):
        for lemma in (10, 11, 12):
            with pytest.raises(ValueError):
                verify_lemma(lemma, 5, 10, 6)  # r - alpha < p: rho' < 1


class TestVerifyLemma:
    def test_lemma10_strict(self):
        rep = verify_lemma(10, 5, 40, 9)
        assert rep.verdict == "holds"
        assert all(v > rep.v_x0 for _, v in rep.witnesses)
        assert all(w["strict"] for w in _lemma_record(rep)["witnesses"])
        assert all(i < 0 for i, _ in rep.witnesses)

    def test_lemma10_fails_at_p2(self):
        # lemma 10 runs at any prime; at p = 2 the row i = -1 ties with X_0
        rep = verify_lemma(10, 2, 6, 3)
        assert rep.verdict == "fails"
        assert rep.min_margin == 0
        assert rep.witnesses[0] == (-1, rep.v_x0)
        first = _lemma_record(rep)["witnesses"][0]
        assert first["index"] == -1
        assert first["strict"] is False
        assert first["margin"] == "0"

    def test_lemma11_window(self):
        rep = verify_lemma(11, 5, 40, 9)
        assert rep.verdict == "holds"
        rp = rho_prime_of(5, 40, 9)
        for i, _ in rep.witnesses:
            assert rp * 4 + 9 < i * 4 + 9 <= 40

    def test_lemma12_full_column_range(self):
        rep = verify_lemma(12, 5, 40, 9)
        rp = rho_prime_of(5, 40, 9)
        assert rep.verdict == "holds"
        assert [i for i, _ in rep.witnesses] == list(range(9 - rp, 10))

    def test_lemma13_excludes_zero_index(self):
        rep = verify_lemma(13, 5, 25)  # rho=4
        assert rep.verdict == "holds"
        assert all(i < 0 for i, _ in rep.witnesses)

    def test_lemma13_vacuous_when_narrow(self):
        rep = verify_lemma(13, 5, 19)  # rho=3 < p-1: no admissible i
        assert rep.verdict == "vacuous"
        assert rep.checked == 0

    def test_lemma15_excludes_l0(self):
        # at l = 0 both sides have equal valuation, so the window starts at 1
        rep = verify_lemma(15, 5, 19)
        assert [l for l, _ in rep.witnesses] == [1, 2, 3]
        p, r, rho = 5, 19, 3
        cc = c_constants(p, r, rho)
        v0 = valuation(math.comb(r, rho), p)
        assert valuation(cc[0], p) == v0  # equality at l=0: excluded for a reason

    def test_lemma14(self):
        rep = verify_lemma(14, 5, 19)  # rho=3 >= p-2: window nonempty
        assert rep.verdict == "holds"
        assert rep.checked == 1

    def test_lemma14_vacuous_when_rho_small(self):
        # window (rho p, r] holds an index of shape i(p-1)+rho only if rho >= p-2
        rep = verify_lemma(14, 7, 25)  # rho = 3 < p-2 = 5
        assert rep.verdict == "vacuous"

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            verify_lemma(10, 5, 40, 3)  # alpha <= rho
        with pytest.raises(ValueError):
            verify_lemma(13, 5, 20)  # r not of the rho shape
        with pytest.raises(ValueError):
            verify_lemma(16, 5, 20, 5)


class TestLemma9:
    def test_small_sweep_holds(self):
        rep = sweep_lemma9(3, 200)
        assert rep.verdict == "holds"
        assert rep.checked == sum(a + 1 for a in range(1, 201))

    def test_oracle_sweep(self):
        for p in (2, 5):
            assert sweep_lemma9(p, 150).verdict == "holds"
            assert lemma9_disagreements(p, 150) == []

    @pytest.mark.parametrize("a_max", [0, -3])
    def test_empty_sweep_rejected(self, a_max):
        # a = 0 is outside the sweep, so a_max < 1 would check nothing: a
        # vacuous sweep must not read as "holds"
        with pytest.raises(ValueError, match="a_max"):
            sweep_lemma9(5, a_max)


class TestIntegrality:
    @pytest.mark.parametrize("p,r,alpha", [(5, 14, 3), (5, 40, 9), (7, 60, 8), (11, 90, 9)])
    def test_general(self, p, r, alpha):
        rep = integrality_checks(p, r, alpha)
        assert rep.variant == "general"
        assert rep.holds

    @pytest.mark.parametrize("p,r,alpha", [(5, 14, 3), (5, 40, 9), (7, 25, 3), (11, 90, 9), (13, 400, 30)])
    def test_minimum_valuations_match_fraction_route(self, p, r, alpha):
        # C'_j = Lambda(alpha, j); C''_j = (-1)^rho' (p-1)^(alpha-j) rho'!/(alpha-j)! C'_j
        rep = integrality_checks(p, r, alpha)
        rp = rep.rho_prime
        cprime = lambda_values_by_differences(p, rp, alpha)
        cdouble = {
            j: (-1) ** rp * (p - 1) ** (alpha - j) * c * (math.factorial(rp) // math.factorial(alpha - j))
            for j, c in cprime.items()
        }
        assert rep.c_prime_min_valuation == min(valuation(c, p) for c in cprime.values())
        # production keeps no C'' verdict: v_p(C''_j) >= v_p(C'_j) term by term
        assert min(valuation(c, p) for c in cdouble.values()) >= rep.c_prime_min_valuation

    def test_rho_case_example(self):
        # p=7, rho=3: r = 25
        rep = integrality_checks(7, 25, 3)
        assert rep.variant == "rho_case"
        assert rep.holds

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_rho_zero_cell_rejected(self, p):
        # r = 1 = 0(p+1)+1 and alpha = 0 = rho, but the rho case needs rho >= 1
        with pytest.raises(ValueError):
            integrality_checks(p, 1, 0)

    def test_cleared_identity_matches_polynomial_route(self):
        # dual route: rebuild the cleared identity coefficient-wise with
        # Fraction polynomials and compare against the evaluation verdict
        p, r, alpha = 5, 40, 9
        rp = rho_prime_of(p, r, alpha)
        cprime = lambda_values_by_differences(p, rp, alpha)
        lhs = [Fraction(0)] * (rp + 1)
        for j in range(alpha - rp, alpha + 1):
            cdd = (
                (-1) ** rp
                * Fraction((p - 1) ** (alpha - j))
                * cprime[j]
                * (math.factorial(rp) // math.factorial(alpha - j))
            )
            term = [Fraction(1)]
            for u in range(alpha - j):
                nxt = [Fraction(0)] * (len(term) + 1)
                for d, cf in enumerate(term):
                    nxt[d] += cf * Fraction(alpha - u, p - 1)
                    nxt[d + 1] += cf
                term = nxt
            for d, cf in enumerate(term):
                lhs[d] += cdd * cf
        rhs = [Fraction(1)]
        for i in range(1, rp + 1):
            nxt = [Fraction(0)] * (len(rhs) + 1)
            for d, cf in enumerate(rhs):
                nxt[d] += cf * (-i)
                nxt[d + 1] += cf
            rhs = nxt
        assert lhs == rhs
        assert cleared_identity_holds(p, alpha, *lambda_raw_table(p, rp, alpha))
        assert integrality_checks(p, r, alpha).holds


def _cells(lemma, p, r_max):
    """Every cell of one lemma at p with r <= r_max, as (lemma, p, r, alpha)."""
    if lemma in (10, 11, 12):
        return [(lemma, p, r, a) for r in range(1, r_max + 1) for a in general_alphas(p, r)]
    return [(lemma, p, r, None) for r in rho_case_rs(p, r_max)]


# p = 3 lies outside the paper's hypotheses; lemmas 12 and 15 reject it
ORACLE_CELLS = {
    (lemma, p): _cells(lemma, p, 300)
    for lemma in (10, 11, 12, 13, 14, 15)
    for p in ((3, 5, 7, 11, 13) if lemma not in (12, 15) else (5, 7, 11, 13))
}


def _power_edges(p):
    """a = p^e - 1 and a = p^e for every p^e <= 3000."""
    out, q = [], p
    while q <= 3000:
        out += [q - 1, q]
        q *= p
    return out


def _brute_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestIntegerRouteAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(ORACLE_CELLS)).flatmap(lambda key: st.sampled_from(ORACLE_CELLS[key])))
    def test_lemmas_match_fraction_route(self, cell):
        rep = verify_lemma(*cell)
        oracle = verify_lemma_by_fractions(*cell)
        assert _lemma_record(rep) == _lemma_record(oracle)
        assert rep == oracle

    def test_lemma9_matches_brute_division(self):
        ps, a_max = (2, 3, 5, 7, 11, 13), 150
        for p in ps:
            sums = lc._digit_sums(p, a_max)
            brute = {}
            for a, recurrence in enumerate(recurrence_rows(p, a_max), start=1):
                brute[a] = [_brute_valuation(math.comb(a, b), p) for b in range(a + 1)]
                # the digit-sum row and the recurrence row, each compared with
                # brute division on every pair, and the closed form with the
                # row's largest brute valuation
                assert digit_sum_row(sums, a) == recurrence == [(p - 1) * v for v in brute[a]]
                assert carry_row_max(p, a) == max(brute[a])
            rep = sweep_lemma9(p, a_max)
            assert rep.verdict == "holds"
            assert rep.max_valuation_seen == max(map(max, brute.values()))

            # the digit-sum table by brute division: s_p(n) = n - (p-1) v_p(n!)
            # (Legendre), with v_p(n!) by dividing 1..n
            vfact = [0]
            for n in range(1, a_max + 1):
                vfact.append(vfact[-1] + _brute_valuation(n, p))
            assert sums == [n - (p - 1) * vfact[n] for n in range(a_max + 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7, 11, 13)), st.integers(1, 3000))
    def test_digit_sum_row_is_the_carry_count(self, p, a):
        # Kummer over the digit-sum table that lemmas 10-15 read, against the
        # oracle's digit-by-digit carry count, and the closed form of lemma 9
        # as the row's largest carry count
        row = [carries(b, a - b, p) for b in range(a + 1)]
        assert digit_sum_row(lc._digit_sums(p, a), a) == [(p - 1) * c for c in row]
        assert carry_row_max(p, a) == max(row)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_digit_sum_rows_at_powers(self, p):
        # a = p^e - 1 adds without a carry, where the closed form needs its
        # max(0, .); a = p^e carries the most
        sums = lc._digit_sums(p, 3000)
        for a in _power_edges(p):
            row = [carries(b, a - b, p) for b in range(a + 1)]
            assert digit_sum_row(sums, a) == [(p - 1) * c for c in row]
            assert carry_row_max(p, a) == max(row) == (0 if a % p else integer_log(p, a))


def _edge_rs(p, r_max):
    """r = p^e - 1, p^e and p^e + 1 for every p^e <= r_max."""
    out, q = [], p
    while q <= r_max:
        out += [q - 1, q, q + 1]
        q *= p
    return out


@st.composite
def _valid_cells(draw, lemma=None):
    """(lemma, p, r, alpha, rho') of a valid cell, r often at a p^e edge."""
    lemma = lemma or draw(st.sampled_from((10, 11, 12, 13, 14, 15)))
    p = draw(st.sampled_from((5, 7, 11, 13) if lemma in (12, 15) else (2, 3, 5, 7, 11, 13)))
    if lemma in (13, 14, 15):
        rs = list(rho_case_rs(p, 1500))
        edges = [r for r in rs if any(abs(r - e) <= p for e in _edge_rs(p, 1500))]
        r = draw(st.sampled_from(edges) | st.sampled_from(rs))
        return lemma, p, r, rho_of(p, r), rho_case_rho_prime(p, r, rho_of(p, r))
    r = draw(st.sampled_from(_edge_rs(p, 1200)) | st.integers(p + 2, 1200))
    alphas = general_alphas(p, r)
    assume(alphas)
    alpha = draw(st.sampled_from(alphas))
    return lemma, p, r, alpha, general_rho_prime(p, r, alpha)


class TestAdditiveRouteAgainstVpRoute:
    """Production adds witness valuations up from digit sums and the key
    memo; the oracle builds each witness as an integer and divides out p."""

    @settings(max_examples=300, deadline=None)
    @given(_valid_cells())
    def test_every_witness_matches(self, cell):
        lemma, p, r, alpha, _ = cell
        assert verify_lemma(lemma, p, r, alpha) == verify_lemma_by_vp(lemma, p, r, alpha)

    @settings(max_examples=200, deadline=None)
    @given(_valid_cells(lemma=10) | _valid_cells(lemma=13))
    def test_core_valuation_on_every_row(self, cell):
        # every row of the cell, the zero cores 0 < i <= rho' and the
        # negative tops i > rho' included, from a table that stops at r
        _, p, r, alpha, rp = cell
        sums = lc._digit_sums(p, r)
        rows = all_row_indices(p, r, alpha)
        assert [lc._core_valuation(sums, p, r, alpha, rp, i) for i in rows] == [
            core_valuation_by_vp(p, r, alpha, rp, i) for i in rows
        ]

    def test_core_cases(self):
        # (5, 40, 9) has rho' = 6 and rows -2..7: two row kinds around the zero cores
        sums = lc._digit_sums(5, 40)
        cores = {i: lc._core_valuation(sums, 5, 40, 9, 6, i) for i in all_row_indices(5, 40, 9)}
        assert [i for i, v in cores.items() if v == INFINITY] == list(range(1, 7))
        assert cores == {i: core_valuation_by_vp(5, 40, 9, 6, i) for i in cores}
        assert min(cores) < 0 and max(cores) > 6


class TestChecksCanFail:
    @pytest.mark.parametrize("p,r,alpha", [(5, 40, 9), (7, 25, 3), (11, 90, 9), (13, 200, 15)])
    def test_identity_detects_numerator_off_by_one(self, p, r, alpha):
        # (7, 25, 3) is a rho-case cell (r = rho(p+1)+1, alpha = rho)
        rep = integrality_checks(p, r, alpha)
        nums, den = lambda_raw_table(p, rep.rho_prime, alpha)
        assert lambda_identity_holds(p, alpha, nums, den)
        for m in range(len(nums)):
            for delta in (1, -1):
                bad = list(nums)
                bad[m] += delta
                assert not lambda_identity_holds(p, alpha, bad, den)

    @pytest.mark.parametrize("p,alpha,R", [(5, 9, 6), (7, 3, 3), (13, 15, 14)])
    def test_identity_checks_every_point(self, p, alpha, R):
        # n_0 - alpha d and n_1 + d leave x = 0 (y = alpha) unchanged and
        # move x = 1 by (p-1) d
        nums, den = lambda_raw_table(p, R, alpha)
        assert not lambda_identity_holds(p, alpha, [nums[0] - alpha, nums[1] + 1, *nums[2:]], den)

    def test_integrality_reports_a_broken_table(self, monkeypatch):
        # the verdict reads v_p(C'_l) alone; gate criterion 7's key check, the
        # lambda-system check of the cell's table key, sees the broken table
        def corrupted(p, R, alpha):
            nums, den = lambda_raw_table(p, R, alpha)
            return [nums[0], nums[1] - 1, *nums[2:]], den

        monkeypatch.setattr("padicslopes.combinatorics.lambda_raw_table", corrupted)
        key = table_key((5, 40, 9))
        assert key == (5, 6, 9)
        assert VERIFY_TARGETS["lambda-system"].check(*key)[0] == "fails"

    def test_oracle_does_not_share_the_carry_kernel(self, monkeypatch):
        # s_5(9) = s_p(alpha) enters production's v_p(X_0) of (5, 40, 9) and
        # none of its witnesses: p-1 more moves that v_p(X_0) by one carry,
        # and neither oracle's
        oracles = (verify_lemma_by_fractions(10, 5, 40, 9), verify_lemma_by_vp(10, 5, 40, 9))
        assert verify_lemma(10, 5, 40, 9) == oracles[0] == oracles[1]
        digit_sums = lc._digit_sums

        def corrupted(p, n_max):
            sums = digit_sums(p, n_max)
            sums[9] += p - 1
            return sums

        monkeypatch.setattr(lc, "_digit_sums", corrupted)
        _memo.reset()  # drop the table built before the patch
        rep = verify_lemma(10, 5, 40, 9)
        assert (rep.v_x0, rep.witnesses) == (oracles[0].v_x0 + 1, oracles[0].witnesses)
        assert (verify_lemma_by_fractions(10, 5, 40, 9), verify_lemma_by_vp(10, 5, 40, 9)) == oracles
        # and the oracle's carry count moves the integer oracle's v_p(X_0) alone
        monkeypatch.undo()
        _memo.reset()
        monkeypatch.setattr(lemma_oracle, "carries", lambda x, y, p: carries(x, y, p) + 1)
        assert verify_lemma_by_vp(10, 5, 40, 9).v_x0 == verify_lemma(10, 5, 40, 9).v_x0 + 1

    def test_lemma12_reports_an_off_by_one_table_valuation(self, monkeypatch):
        # (5, 8, 2) has rho' = 1 and its least margin, 1, at l = 1, read from
        # the key memo's entry m = alpha - l = 1
        assert verify_lemma_by_vp(12, 5, 8, 2).min_margin == 1
        table = lc._lambda_table
        monkeypatch.setattr(lc, "_lambda_table", lambda *key: [v - (m == 1) for m, v in enumerate(table(*key))])
        rep = verify_lemma(12, 5, 8, 2)
        assert (rep.verdict, rep.min_margin) == ("fails", 0)

    def test_lemma11_reports_a_wrong_digit_sum(self, monkeypatch):
        # s_5(11) enters the witness of (5, 12, 3) at i = 2 once, positively,
        # as s_p(n) with n = i(p-1) + alpha, and not v_p(X_0): one unit less
        # floors its quotient by p-1 one lower, and the cell's only margin is
        # 1.  A fault at s_p(r) alone would move no margin, as -s_p(r) enters
        # v_p(X_0) and every witness alike.
        assert verify_lemma_by_vp(11, 5, 12, 3).min_margin == 1  # the memo stays empty until the patch
        digit_sums = lc._digit_sums

        def corrupted(p, n_max):
            sums = digit_sums(p, n_max)
            sums[11] -= 1
            return sums

        monkeypatch.setattr(lc, "_digit_sums", corrupted)
        rep = verify_lemma(11, 5, 12, 3)
        assert (rep.verdict, rep.min_margin) == ("fails", 0)

    def test_lemma9_reports_a_wrong_carry_count(self, monkeypatch):
        digit_sums = lc._digit_sums

        def corrupted(p, n_max):
            sums = digit_sums(p, n_max)
            sums[37] += 1
            return sums

        monkeypatch.setattr(lc, "_digit_sums", corrupted)
        # s_5(37) enters the row of (a, b) once for each of b, a-b that is 37,
        # and leaves it once if a is 37: the comparison with the recurrence
        # sees every row with a moved pair, first a = 37
        moved = {a for a in range(1, 61) for b in range(a + 1) if (b == 37) + (a - b == 37) - (a == 37)}
        assert lemma9_disagreements(5, 60) == sorted(moved) == list(range(37, 61))
        # the closed form reads no digit sum
        assert sweep_lemma9(5, 60) == lc.Lemma9Report(5, 60, 1890, "holds", 2)

    def test_lemma9_reports_a_broken_bound(self, monkeypatch):
        # with floor(log_p a) taken as 0 the oracle's closed form is 0 on every
        # row, so the comparison sees every row with a carry, first a = 5, and
        # production's sweep is untouched; with production's floor(log_p a)
        # taken as 0, the sweep's largest row maximum drops from 2 to 0
        monkeypatch.setattr(lemma_oracle, "integer_log", lambda p, a: 0)
        expected = [a for a in range(1, 61) if any(carries(b, a - b, 5) for b in range(a + 1))]
        assert lemma9_disagreements(5, 60) == expected and expected[0] == 5
        assert sweep_lemma9(5, 60).max_valuation_seen == 2
        monkeypatch.setattr(lc, "integer_log", lambda p, a: 0)
        assert sweep_lemma9(5, 60).max_valuation_seen == 0

    def test_lemma9_reports_a_wrong_oracle_valuation(self, monkeypatch):
        vp = lemma_oracle._vp
        monkeypatch.setattr(lemma_oracle, "_vp", lambda n, p: vp(n, p) + (n == 25))
        # the recurrence reads v(25) first in row 25, at b = 1 through
        # v(a-b+1); the sweep reads the production _vp, not this one
        assert lemma9_disagreements(5, 60)[0] == 25
        assert sweep_lemma9(5, 60).verdict == "holds"


class TestPrimeValidation:
    @pytest.mark.parametrize("p", [4, 9])
    def test_composites_rejected(self, p):
        for lemma in (10, 11, 12):
            with pytest.raises(ValueError, match="prime"):
                verify_lemma(lemma, p, 60, 9)
        for lemma in (13, 14, 15):
            with pytest.raises(ValueError, match="prime"):
                verify_lemma(lemma, p, rho_of(p, 60) * (p + 1) + 1)
        with pytest.raises(ValueError, match="prime"):
            sweep_lemma9(p, 20)
        with pytest.raises(ValueError, match="prime"):
            integrality_checks(p, 60, 9)

    def test_p3_outside_lemmas_12_15_and_integrality(self):
        # lemmas 10, 11, 13 and 14 are checked at p = 3 as well (evidence
        # outside the hypotheses); the Lambda tables need p > 3
        assert verify_lemma(10, 3, 40, 11).verdict == "holds"
        assert verify_lemma(11, 3, 40, 11).verdict == "holds"
        assert verify_lemma(13, 3, 13).verdict == "holds"
        assert verify_lemma(14, 3, 13).verdict == "holds"
        for lemma, cell in ((12, (40, 11)), (15, (13,))):
            with pytest.raises(ValueError, match="prime > 3"):
                verify_lemma(lemma, 3, *cell)
        with pytest.raises(ValueError, match="prime > 3"):
            integrality_checks(3, 40, 11)


class TestMarginsStored:
    def test_margins_are_fields(self):
        # min_margin is a field computed once; each record margin is v_other - v_X0
        rep = verify_lemma(12, 5, 40, 9)
        margins = [v - rep.v_x0 for _, v in rep.witnesses]
        assert [w["margin"] for w in _lemma_record(rep)["witnesses"]] == [str(m) for m in margins]
        assert rep.__dict__["min_margin"] == min(margins)
        assert verify_lemma(13, 5, 19).min_margin is None  # vacuous: no witness

    def test_infinite_valuation_orders_above_every_margin(self):
        # a zero witness has v_other = INFINITY: its margin is INFINITY and strict
        rep = lc._report(12, 5, 40, 9, 6, 6, "C_l_p^l", 1, [(3, INFINITY), (4, 4)])
        assert (rep.verdict, rep.min_margin) == ("holds", 3)
        assert [(w["margin"], w["strict"]) for w in _lemma_record(rep)["witnesses"]] == [("inf", True), ("3", True)]
        only = lc._report(12, 5, 40, 9, 6, 6, "C_l_p^l", 1, [(3, INFINITY)])
        assert (only.verdict, only.min_margin) == ("holds", INFINITY)


def _sweep(name, ps, r_max):
    """(verdict, checked, margin, report) of every cell the verify table lists."""
    target = VERIFY_TARGETS[name]
    args = Namespace(r=None, alpha=None, r_max=r_max)
    return [target.check(*cell) for p in ps for cell in target.cells(p, args)]


class TestSweeps:
    def test_admissible_cells_shape(self):
        cells = VERIFY_TARGETS["lemma10"].cells(5, Namespace(r=None, alpha=None, r_max=60))
        for p, r, a in cells:
            assert a > rho_of(p, r)
            assert rho_prime_of(p, r, a) >= 1
            assert a <= r // (p - 1)
        assert [(p, r, a) for p, r, a in cells if r == 40] == [(5, 40, a) for a in general_alphas(5, 40)]
        assert list(rho_case_rs(5, 60)) == [7, 13, 19, 25, 31, 37, 43, 49, 55]

    def test_small_sweep_summary(self):
        results = _sweep("lemma12", [5, 7], 80)
        assert results and all(verdict == "holds" for verdict, _, _, _ in results)
        margins = [margin for _, _, margin, _ in results if margin != INFINITY]
        assert margins and min(margins) >= 1

    def test_vacuous_cells_recorded(self):
        verdicts = [verdict for verdict, _, _, _ in _sweep("lemma13", [5], 60)]
        assert "vacuous" in verdicts
        assert "fails" not in verdicts


class TestTableMemo:
    """Each invocation builds each raw Lambda table (p, rho', alpha) once and
    reads no table of another invocation."""

    @staticmethod
    def _count_builds(monkeypatch):
        keys = []
        monkeypatch.setattr(lc, "lambda_raw_table", lambda *key: keys.append(key) or lambda_raw_table(*key))
        return keys

    @pytest.mark.parametrize("name,table_key", [
        ("lemma12", lambda p, r, alpha: (p, general_rho_prime(p, r, alpha), alpha)),
        ("integrality", lambda p, r, alpha: (p, lambda_variant(p, r, alpha)[1], alpha)),
    ])
    def test_one_build_per_table(self, name, table_key, monkeypatch, tmp_path):
        cells = VERIFY_TARGETS[name].cells(5, Namespace(r=None, alpha=None, r_max=200))
        built = self._count_builds(monkeypatch)
        assert cli_main(["verify", name, "--p", "5", "--r-max", "200", "--jobs", "1", "--out", str(tmp_path / "v")]) == 0
        assert sorted(built) == sorted({table_key(*cell) for cell in cells})
        assert len(built) < len(cells)

    def test_table_key_is_the_lambda_variant_key(self):
        # the pool groups cells by table_key: on every cell it is the (p, rho', alpha) the checks read
        window = Namespace(r=None, alpha=None, r_max=200)
        for name in ("integrality", "lemma12", "lemma15"):
            target = VERIFY_TARGETS[name]
            assert target.key is table_key
            cells = [cell for p in target.primes for cell in target.cells(p, window)]
            assert cells
            for cell in cells:
                p, r, *alpha = cell
                a = alpha[0] if alpha else rho_of(p, r)
                assert table_key(cell) == (p, lambda_variant(p, r, a)[1], a)

    def test_no_table_outlives_its_invocation(self, monkeypatch, tmp_path):
        argv = ["verify", "integrality", "--p", "5", "--r", "40", "--alpha", "9", "--out", str(tmp_path / "v")]
        assert cli_main(argv) == 0
        assert cli_main(["verify", "lemma12", *argv[2:]]) == 0

        def corrupted(p, R, alpha):
            nums, den = lambda_raw_table(p, R, alpha)
            return [nums[0], nums[1] - 1, *nums[2:]], den

        monkeypatch.setattr(lc, "lambda_raw_table", corrupted)
        assert cli_main(argv) == 1  # v_p(n_1 - 1) = 0 < v_p(6!): a C'_l leaves the integers
        built = self._count_builds(monkeypatch)
        assert cli_main(["verify", "lemma12", *argv[2:]]) == 0
        assert built == [(5, general_rho_prime(5, 40, 9), 9)]


class TestSerialization:
    def test_csv_and_json(self, tmp_path):
        # the command line is the one serializer of lemma reports
        rep = verify_lemma(12, 5, 40, 9)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        argv = ["verify", "lemma12", "--p", "5", "--r", "40", "--alpha", "9"]
        assert cli_main([*argv, "--out", str(csv_path)]) == 0
        assert cli_main([*argv, "--format", "json", "--out", str(json_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "target,p,r,alpha,verdict,min_margin,checked"
        assert lines[1].split(",") == ["lemma12", "5", "40", "9", "holds", str(rep.min_margin), str(rep.checked)]
        # no floats anywhere: every numeric field is int or num/den
        for line in lines[1:]:
            for field in line.split(","):
                assert "." not in field
        import json as json_mod

        data = json_mod.loads(json_path.read_text())
        assert data["records"] == [_lemma_record(rep)]
        assert data["records"][0]["verdict"] == "holds"

    def test_infinite_margin_rendering(self):
        d = _lemma_record(verify_lemma(10, 5, 40, 9))
        assert all(w["margin"] != "" for w in d["witnesses"])
