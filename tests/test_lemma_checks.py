import math
from fractions import Fraction

import pytest

from padicslopes.combinatorics import rho_of, rho_prime_of
from padicslopes.cli import main as cli_main
from padicslopes.lemma_checks import (
    admissible_general_cells,
    admissible_rho_cells,
    general_alphas,
    integrality_checks,
    report_to_dict,
    sweep_lemma,
    sweep_lemma9_with_oracle,
    valuation_witnesses,
    verify_lemma,
    witness_values,
)
from padicslopes.padic import valuation


def falling(a, n):
    out = 1
    for u in range(n):
        out *= a - u
    return out


class TestWitnessValues:
    def test_X0_is_central_binomial(self):
        w = valuation_witnesses(5, 40, 9, 2)
        assert w.X0 == math.comb(40, 9)

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
        w = valuation_witnesses(5, 40, 9, 9)
        assert w.Cl_pl is not None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            valuation_witnesses(5, 10, 6, 0)  # r - alpha < p: rho' < 1


class TestVerifyLemma:
    def test_lemma10_strict(self):
        rep = verify_lemma(10, 5, 40, 9)
        assert rep.verdict == "holds"
        assert all(w.strict for w in rep.witnesses)
        assert all(w.index < 0 for w in rep.witnesses)

    def test_lemma11_window(self):
        rep = verify_lemma(11, 5, 40, 9)
        assert rep.verdict == "holds"
        rp = rho_prime_of(5, 40, 9)
        for w in rep.witnesses:
            assert rp * 4 + 9 < w.index * 4 + 9 <= 40

    def test_lemma12_full_column_range(self):
        rep = verify_lemma(12, 5, 40, 9)
        rp = rho_prime_of(5, 40, 9)
        assert rep.verdict == "holds"
        assert [w.index for w in rep.witnesses] == list(range(9 - rp, 10))

    def test_lemma13_excludes_zero_index(self):
        rep = verify_lemma(13, 5, 25)  # rho=4
        assert rep.verdict == "holds"
        assert all(w.index < 0 for w in rep.witnesses)

    def test_lemma13_vacuous_when_narrow(self):
        rep = verify_lemma(13, 5, 19)  # rho=3 < p-1: no admissible i
        assert rep.verdict == "vacuous"
        assert rep.checked == 0

    def test_lemma15_excludes_l0(self):
        # at l = 0 both sides have equal valuation, so the window starts at 1
        rep = verify_lemma(15, 5, 19)
        assert [w.index for w in rep.witnesses] == [1, 2, 3]
        p, r, rho = 5, 19, 3
        from padicslopes.combinatorics import c_constants

        cc = c_constants(p, r, rho, variant="rho_case")
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
        rep = sweep_lemma9_with_oracle([3], 200)[3]
        assert rep.verdict == "holds"
        assert rep.checked == sum(a + 1 for a in range(1, 201))

    def test_oracle_sweep(self):
        reps = sweep_lemma9_with_oracle([2, 5], 150)
        assert all(r.verdict == "holds" for r in reps.values())


class TestIntegrality:
    @pytest.mark.parametrize("p,r,alpha", [(5, 14, 3), (5, 40, 9), (7, 60, 8), (11, 90, 9)])
    def test_general(self, p, r, alpha):
        rep = integrality_checks(p, r, alpha)
        assert rep.variant == "general"
        assert rep.holds

    def test_rho_case_example(self):
        # p=7, rho=3: r = 25
        rep = integrality_checks(7, 25, 3)
        assert rep.variant == "rho_case"
        assert rep.holds

    def test_cleared_identity_matches_polynomial_route(self):
        # dual route: rebuild the cleared identity coefficient-wise with
        # Fraction polynomials and compare against the evaluation verdict
        from padicslopes.combinatorics import lambda_values_by_differences

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
        assert integrality_checks(p, r, alpha).cleared_identity_ok


class TestSweeps:
    def test_admissible_cells_shape(self):
        cells = admissible_general_cells(5, 60)
        for p, r, a in cells:
            assert a > rho_of(p, r)
            assert rho_prime_of(p, r, a) >= 1
            assert a <= r // (p - 1)
        assert [(p, r, a) for p, r, a in cells if r == 40] == [(5, 40, a) for a in general_alphas(5, 40)]
        assert admissible_rho_cells(5, 60) == [(5, 7), (5, 13), (5, 19), (5, 25), (5, 31), (5, 37), (5, 43), (5, 49), (5, 55)]

    def test_small_sweep_summary(self):
        s = sweep_lemma(12, [5, 7], 80)
        assert s.holds
        assert not s.counterexamples
        assert s.min_margin is not None and s.min_margin >= 1

    def test_vacuous_cells_recorded(self):
        s = sweep_lemma(13, [5], 60)
        assert s.vacuous_count >= 1
        assert s.holds


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
        assert data["records"] == [report_to_dict(rep)]
        assert data["records"][0]["verdict"] == "holds"

    def test_infinite_margin_rendering(self):
        d = report_to_dict(verify_lemma(10, 5, 40, 9))
        assert all(w["margin"] != "" for w in d["witnesses"])
