import ast
import dataclasses
import json
import math
from argparse import Namespace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicslopes import _memo, combinatorics
from padicslopes.cli import VERIFY_TARGETS, main
from padicslopes.combinatorics import (
    _binomial_row,
    _column_numerators,
    _forward_differences,
    _row_sum_numerators,
    _step_differences,
    all_row_indices,
    below_rho_alphas,
    below_rho_rho_prime,
    build_interior_annihilator,
    ecal_of,
    general_alphas,
    general_rho_prime,
    factor_and_rank_checks,
    interior_row_indices,
    lambda_identity_holds,
    lambda_raw_table,
    lambda_values_by_differences,
    lambda_variant,
    matrix_entries_check,
    rho_annihilator_rho_prime,
    rho_annihilator_rs,
    rho_case_rho_prime,
    rho_case_rs,
    rho_of,
    rho_prime_of,
    solve_interior_system,
    vartheta,
    verify_vanishing_double_sum,
)
from padicslopes.padic import valuation

import lambda_oracle as oracle
from lemma_oracle import c_constants
from test_acceptance import gate_cells
from lambda_oracle import comb0, generalized_binomial, lambda_coefficients, lambda_defining_residual


class TestLambdaTables:
    def test_R0(self):
        t = lambda_coefficients(5, 0, 3)
        assert t.values == {3: Fraction(1)}

    @pytest.mark.parametrize("p,alpha", [(5, 4), (7, 10), (11, 2), (13, 30)])
    def test_R1_closed_forms(self, p, alpha):
        t = lambda_coefficients(p, 1, alpha)
        assert t[alpha - 1] == Fraction(-1, p - 1)
        assert t[alpha] == Fraction(p - 1 + alpha, p - 1)
        # closed-form cross-check: Lambda_1(a,a)(p-1) - (p-1) - a = 0
        assert t[alpha] * (p - 1) - (p - 1) - alpha == 0

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("R,alpha", [(2, 5), (6, 6), (9, 21), (14, 40)])
    def test_defining_identity(self, p, R, alpha):
        t = lambda_coefficients(p, R, alpha)
        assert all(c == 0 for c in lambda_defining_residual(t))

    @pytest.mark.parametrize("p", [5, 13])
    @pytest.mark.parametrize("R,alpha", [(1, 1), (3, 7), (8, 8), (12, 25), (20, 33)])
    def test_two_routes_agree(self, p, R, alpha):
        t = lambda_coefficients(p, R, alpha)
        d = lambda_values_by_differences(p, R, alpha)
        assert t.values == d

    def test_rejects_R_above_alpha(self):
        with pytest.raises(ValueError):
            lambda_coefficients(5, 4, 3)
        with pytest.raises(ValueError):
            lambda_raw_table(5, 4, 3)

    @pytest.mark.parametrize("p,R,alpha", [(5, 0, 3), (7, 6, 6), (13, 20, 33)])
    def test_identity_check_detects_corruption(self, p, R, alpha):
        nums, den = lambda_raw_table(p, R, alpha)
        assert lambda_identity_holds(p, alpha, nums, den)
        for m in range(R + 1):
            bad = list(nums)
            bad[m] += 1
            assert not lambda_identity_holds(p, alpha, bad, den)
        assert not lambda_identity_holds(p, alpha, nums, den + 1)


class TestCConstants:
    def test_rho_prime_example(self):
        # p=5, r=20, alpha=4: rho=3 < 4, rho' = ceil(16/5)-1 = 3, four entries
        cc = c_constants(5, 20, 4)
        assert cc.rho_prime == 3
        assert sorted(cc.values) == [1, 2, 3, 4]

    @pytest.mark.parametrize("p,r,alpha", [(5, 20, 4), (7, 40, 6), (11, 60, 6)])
    def test_eq130_defining_identity(self, p, r, alpha):
        # sum_l C_l C(r,alpha-l)^(-1) C((p-1)X+alpha, alpha-l) = C(rho'-X, rho'),
        # checked at degree+1 integer points
        cc = c_constants(p, r, alpha)
        rp = cc.rho_prime
        for x in range(rp + 2):
            lhs = sum(
                c / comb0(r, alpha - l) * generalized_binomial((p - 1) * x + alpha, alpha - l)
                for l, c in cc.values.items()
            )
            assert lhs == generalized_binomial(rp - x, rp)

    @pytest.mark.parametrize("p,r,alpha", [(5, 20, 4), (7, 40, 6), (11, 60, 6), (5, 19, 3)])
    def test_column_numerators_against_fractions(self, p, r, alpha):
        # the integer numerators N_l over den that lemmas 12, 15 and the double sum read
        cc = c_constants(p, r, alpha)
        nums, den = lambda_raw_table(p, cc.rho_prime, alpha)
        assert {l: Fraction(n, den) for l, n in _column_numerators(r, alpha, nums).items()} == cc.values

    def test_cleared_values_integral(self):
        cc = c_constants(5, 20, 4)
        for l, c in cc.values.items():
            assert valuation(c / comb0(20, 4 - l), 5) >= 0

    def test_rho_case_requires_shape(self):
        with pytest.raises(ValueError):
            c_constants(5, 14, 2)  # alpha = rho, but r != rho(p+1)+1
        cc = c_constants(5, 19, 3)  # r = 3*6+1
        assert cc.rho_prime == 3

    def test_general_requires_alpha_above_rho(self):
        with pytest.raises(ValueError):
            c_constants(5, 20, 3)  # rho = 3


class TestVartheta:
    def test_w0_is_sum(self):
        D = {-2: Fraction(3), 0: Fraction(5), 4: Fraction(-1)}
        assert vartheta(D, 0, 5) == 7

    def test_single_term(self):
        D = {1: Fraction(1)}
        for w in range(6):
            assert vartheta(D, w, 7) == math.comb(6, w)

    def test_interior_annihilator_row_family(self):
        # claim: zero for 0 <= w < alpha
        sys = build_interior_annihilator(5, 20, 1)
        assert vartheta(sys.row_values, 0, 5) == 0

    @pytest.mark.parametrize("p", [-1, 0, 2, 4])
    def test_rejects_p_outside_the_hypotheses(self, p):
        with pytest.raises(ValueError, match="prime > 3"):
            vartheta({1: Fraction(1), 2: Fraction(3)}, 2, p)


class TestMatrixM:
    """The cell's matrix M reads the (p, r) diagonal table: row i is table row
    i(p-1) + alpha, over the rho + 1 columns j in [alpha - rho, alpha]."""

    def test_shape(self):
        rows, table = interior_row_indices(5, 20, 3), combinatorics._diagonal_table(5, 20)
        assert [len(table[i * 4 + 3]) for i in rows] == [rho_of(5, 20) + 1] * len(rows) == [4] * 3
        assert matrix_entries_check(5, 20, 3) == (True, 3)

    def test_entry_and_revision_example(self):
        # p=5, r=20, alpha=3, i=2, j=1: entry C(18,9) = 48620 = 167960*55/190;
        # columns j = 0..3 are t = 0..3 of table row n = 2*4 + 3
        assert 2 in interior_row_indices(5, 20, 3)
        assert combinatorics._diagonal_table(5, 20)[11][1] == 48620
        assert 167960 * 55 == 48620 * 190
        assert combinatorics._diagonal_table(5, 20).holds(11)
        assert matrix_entries_check(5, 20, 3)[0]

    def test_empty_rows_legal(self):
        # rho=1, window (1,4) has no i(p-1)
        assert matrix_entries_check(5, 5, 0) == (True, 0)

    @pytest.mark.parametrize("p", [5, 7])
    def test_revision_sweep(self, p):
        for r in range(1, 60):
            for a in range(0, rho_of(p, r)):
                assert matrix_entries_check(p, r, a)[0]


class TestFactorAndRank:
    def test_R1(self):
        rep = factor_and_rank_checks(5, 1, 0)
        assert rep.det_binomial == 1 and rep.det_matches_closed_form

    def test_R2(self):
        # det [[1,0],[1,p-1]] = p-1 = (p-1)^(2*1/2); the linear power (p-1)^2 disagrees
        rep = factor_and_rank_checks(5, 2, 4)
        assert rep.det_binomial == 4
        assert rep.det_matches_closed_form
        assert not rep.linear_power_agrees

    def test_R3(self):
        rep = factor_and_rank_checks(7, 3, 2)
        assert rep.det_binomial == 6**3
        assert rep.det_matches_closed_form

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("R", range(1, 9))
    def test_grid(self, p, R):
        for gamma in (0, 1, 5, 12):
            rep = factor_and_rank_checks(p, R, gamma)
            assert rep.factorization_ok
            assert rep.det_matches_closed_form
            assert oracle.rank_mod_p(combinatorics._carry_matrix(p, R, gamma), p) == R

    @pytest.mark.parametrize("cell", [(1, 10, 0), (4, 60, 2), (5, 60, 99), (5, 4, 0)])
    def test_interior_rank_rejects_cells_build_matrix_M_rejects(self, cell):
        # p = 1 (p - 1 = 0 in the row window), p = 4 (not prime), alpha above
        # rho, alpha = rho = 0; matrix_entries_check validates the cell before
        # it derives a row, so the sweep never sees such a cell
        with pytest.raises(ValueError):
            matrix_entries_check(*cell)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_consecutive_rows_is_the_entrywise_comparison(self, p):
        # the full-rank proof of factor_and_rank_checks reads the cell's submatrix
        # m2 = (C(i(p-1)+alpha, alpha-j)) as the reversed carry matrix; the R x R
        # comparison holds exactly when the rows are consecutive, which every
        # interior window of the sweep is
        def entrywise(alpha, rows):
            R, gamma = len(rows), rows[0] * (p - 1) + alpha
            m2 = [[comb0(i * (p - 1) + alpha, alpha - j) for j in range(alpha - R + 1, alpha + 1)] for i in rows]
            m3 = [[comb0(i * (p - 1) + gamma, j) for j in range(R)] for i in range(R)]
            return all(a == b[::-1] for a, b in zip(m2, m3)), m2

        for _, r, alpha in _window("matrix-entries", p, r=None, r_max=100):
            rows = interior_row_indices(p, r, alpha)
            if not rows:
                continue
            assert rows == list(range(rows[0], rows[0] + len(rows)))
            same, m2 = entrywise(alpha, rows)
            assert same
            assert oracle.rank_mod_p(m2, p) == len(rows)
            gapped = rows[:1] + rows[2:]
            assert entrywise(alpha, gapped)[0] == (gapped == list(range(gapped[0], gapped[0] + len(gapped))))


class TestCarryRankMemo:
    """verify matrix-entries validates each cell and derives its interior
    rows once, in matrix_entries_check."""

    def test_interior_rows_derived_once_per_cell(self, tmp_path, monkeypatch):
        calls = []
        rows_of = combinatorics.interior_row_indices
        monkeypatch.setattr(combinatorics, "interior_row_indices", lambda *cell: calls.append(cell) or rows_of(*cell))
        out = tmp_path / "v.csv"
        assert main(["verify", "matrix-entries", "--p", "5", "--r-max", "40", "--jobs", "1", "--out", str(out)]) == 0
        cells = [tuple(map(int, row.split(",")[1:4])) for row in out.read_text().splitlines()[1:]]
        assert calls == cells and len(cells) > 100


class TestInteriorSystem:
    def test_unit_target_example(self):
        # p=5, r=26: k=28, rho=4, ecal = floor(log_5 27) = 2, scale p^2 = 25
        assert ecal_of(5, 26) == 2
        rows = interior_row_indices(5, 26, 2)
        sol = solve_interior_system(5, 26, 2, rows[1])
        for i in rows:
            got = sum(c * comb0(26 - 2 + l, i * 4 + l) for l, c in sol.items())
            assert got == (25 if i == rows[1] else 0)

    def test_cleared_solution_integral(self):
        # C_l / C(r, alpha-l) is p-integral on a sample sweep
        for (p, r, a) in [(5, 26, 2), (5, 50, 0), (7, 60, 3), (11, 90, 5)]:
            for u in interior_row_indices(p, r, a):
                sol = solve_interior_system(p, r, a, u)
                for l, c in sol.items():
                    if c:
                        assert valuation(c / comb0(r, a - l), p) >= 0

    def test_rejects_non_interior_u(self):
        with pytest.raises(ValueError):
            solve_interior_system(5, 26, 2, -3)

    @pytest.mark.parametrize("p", [1, 4])
    def test_rejects_p_outside_hypotheses(self, p):
        # p = 1 never leaves interior_row_indices' scan; p = 4 is not prime
        with pytest.raises(ValueError, match="prime > 3"):
            solve_interior_system(p, 10, 0, 0)

    def test_inexact_division_raises(self, monkeypatch):
        # one more in the last difference leaves a remainder mod (p-1)^(R-1)
        differences = combinatorics._forward_differences

        def off_by_one(values):
            out = differences(values)
            out[-1] += 1
            return out

        monkeypatch.setattr(combinatorics, "_forward_differences", off_by_one)
        with pytest.raises(AssertionError, match="inexact division"):
            build_interior_annihilator(5, 200, 3)


class TestInteriorAnnihilator:
    @pytest.mark.parametrize("p,r,alpha", [(5, 26, 2), (5, 47, 0), (7, 33, 1), (11, 100, 7), (13, 60, 0)])
    def test_residual_zero(self, p, r, alpha):
        sys = build_interior_annihilator(p, r, alpha)
        assert sys.residual() == {}

    @pytest.mark.parametrize("p,r,alpha", [(5, 26, 2), (5, 47, 3), (7, 62, 4), (13, 90, 2)])
    def test_theta_functional_profile(self, p, r, alpha):
        sys = build_interior_annihilator(p, r, alpha)
        assert oracle.theta_expansion_errors(_theta_key(p, r, alpha), sys.row_values) == []
        # p^ecal divides every vartheta_w, as it divides every D_i
        unit = p ** ecal_of(p, r)
        assert all(oracle.vartheta(sys.row_values, w, p) % unit == 0 for w in range(2 * rho_of(p, r) + 1))

    def test_row_values_support(self):
        sys = build_interior_annihilator(5, 40, 3)
        assert sorted(sys.row_values) == [1, 2, 3, 4]
        assert sys.row_values[1] == 5 ** ecal_of(5, 40)

    def test_rejects_alpha_at_rho(self):
        with pytest.raises(ValueError):
            build_interior_annihilator(5, 26, 4)  # rho = 4


class TestIdentity88:
    @pytest.mark.parametrize(
        "p,r,alpha",
        [(5, 14, 3), (7, 18, 3), (5, 20, 4), (7, 50, 7), (11, 70, 6), (13, 100, 8)],
    )
    def test_holds(self, p, r, alpha):
        rep = verify_vanishing_double_sum(p, r, alpha)
        assert rep.holds
        assert len(rep.row_sums) == rep.rho_prime

    def test_example_parameters(self):
        rep = verify_vanishing_double_sum(5, 14, 3)
        assert rho_of(5, 14) == 2 and rep.rho_prime == 2

    @pytest.mark.parametrize("p", [-1, 0, 4])
    def test_rejects_p_before_the_cell(self, p):
        # rho_of divides by p + 1, and (4, 20, 3) fails the cell check too: p comes first
        with pytest.raises(ValueError, match=f"prime > 3, got {p}"):
            verify_vanishing_double_sum(p, 20, 3)


class TestRhoAnnihilator:
    @pytest.mark.parametrize("p,rho", [(5, 2), (5, 5), (7, 3), (11, 2), (13, 4)])
    def test_residual_and_target(self, p, rho):
        r = rho * (p + 1) + p - 2
        sys = build_interior_annihilator(p, r, rho)
        assert sys.residual() == {}
        assert sys.target.startswith(f"p^{ecal_of(p, r)} * theta^{rho} * y^")

    def test_known_parameter_cell(self):
        # p=5, rho=2, r=15: 15 - 12 = 3 = p-2
        sys = build_interior_annihilator(5, 15, 2)
        assert sys.residual() == {}

    def test_zero_row_vs_theta(self):
        # exact r-level identity: D_0 (1-p)^rho = vartheta_rho(D), the key
        # check at offset 0; the two agree up to the unit (1-p)^rho = 1 mod p
        for (p, rho) in [(5, 2), (7, 4), (11, 3)]:
            sys = build_interior_annihilator(p, rho * (p + 1) + p - 2, rho)
            assert oracle.theta_expansion_errors(_theta_key(p, sys.r, rho), sys.row_values) == []
            d0, th = sys.row_values[0], vartheta(sys.row_values, rho, p)
            assert d0 * (1 - p) ** rho == th
            assert d0 == p ** ecal_of(p, sys.r)
            assert (th - d0) % p ** (ecal_of(p, sys.r) + 1) == 0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            build_interior_annihilator(5, 14, rho_of(5, 14))  # 14 - 2*6 != p-2


class TestRowIndexing:
    def test_windows_consistent(self):
        # each window against a filter over a wider i range; p = 2 and 3 reach the
        # windows through lemmas 10, 11, 13 and 14, and alpha runs past r
        for p in (2, 3, 5, 7, 11, 13):
            for r in range(1, 61):
                rho = rho_of(p, r)
                for alpha in range(r + 13):
                    full = [i for i in range(-alpha - 2, r + 3) if 0 <= i * (p - 1) + alpha <= r]
                    assert all_row_indices(p, r, alpha) == full
                    assert interior_row_indices(p, r, alpha) == [
                        i for i in full if i >= 0 and rho < i * (p - 1) + alpha < r - rho
                    ]


def _window(name, p, **grid):
    return VERIFY_TARGETS[name].cells(p, Namespace(alpha=None, **grid))


@st.composite
def _annihilator_rows(draw):
    """(p, r) with r <= 80; half the draws are rho-shaped r."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    if draw(st.booleans()):
        return p, draw(st.sampled_from([r for _, r in _window("rho-annihilator", p, r=None, r_max=80)]))
    return p, draw(st.integers(1, 80))


_SHAPE_PRIMES = (5, 7, 11, 13)
_SHAPE_R_MAX = 120
_SHAPE_GRID = [(p, r, a) for p in _SHAPE_PRIMES for r in range(1, _SHAPE_R_MAX + 1) for a in range(r + 1)]


def _accepted(validator):
    """The cells of the grid that a validator accepts."""
    out = set()
    for cell in _SHAPE_GRID:
        try:
            validator(*cell)
        except ValueError:
            continue
        out.add(cell)
    return out


def _alpha_window(alphas):
    return {(p, r, a) for p in _SHAPE_PRIMES for r in range(1, _SHAPE_R_MAX + 1) for a in alphas(p, r)}


def _rho_window(rs):
    return {(p, r, rho_of(p, r)) for p in _SHAPE_PRIMES for r in rs(p, _SHAPE_R_MAX)}


def _target_cells(name):
    args = Namespace(r=None, alpha=None, r_max=_SHAPE_R_MAX)
    cells = [cell for p in _SHAPE_PRIMES for cell in VERIFY_TARGETS[name].cells(p, args)]
    return {cell if len(cell) == 3 else (*cell, rho_of(*cell)) for cell in cells}


class TestCellShapes:
    """Each validator accepts exactly the cells of its window on p in
    {5, 7, 11, 13}, r <= 120 and 0 <= alpha <= r, and returns rho'."""

    @pytest.mark.parametrize(
        "validator,window",
        [
            (below_rho_rho_prime, _alpha_window(below_rho_alphas)),
            (rho_case_rho_prime, _rho_window(rho_case_rs)),
            (rho_annihilator_rho_prime, _rho_window(rho_annihilator_rs)),
        ],
        ids=["below-rho", "rho-case", "rho-annihilator"],
    )
    def test_validator_accepts_exactly_its_window(self, validator, window):
        assert _accepted(validator) == window
        assert all(validator(*cell) == rho_prime_of(*cell) for cell in window)

    def test_general_also_accepts_cells_above_the_ceiling(self):
        # alpha <= floor(r/(p-1)) bounds the window only: pinned cells above it are checked
        window = _alpha_window(general_alphas)
        accepted = _accepted(general_rho_prime)
        above = accepted - window
        assert window <= accepted
        assert all(a > r // (p - 1) for p, r, a in above)
        assert len(above) == 20300
        assert all(general_rho_prime(*cell) == rho_prime_of(*cell) for cell in window)

    def test_lambda_cells_are_general_or_rho_case(self):
        # integrality_checks and c_constants read lambda_variant; (p, 1, 0), with
        # rho = rho' = 0, is in neither shape
        rho_case = _accepted(rho_case_rho_prime)
        general = _accepted(general_rho_prime)
        assert _accepted(lambda_variant) == rho_case | general
        assert all(lambda_variant(*cell)[0] == "rho_case" for cell in rho_case)
        assert not any((p, 1, 0) in general | rho_case for p in _SHAPE_PRIMES)

    def test_verify_table_reads_the_windows(self):
        general = _alpha_window(general_alphas)
        below = _alpha_window(below_rho_alphas)
        rho_case = _rho_window(rho_case_rs)
        for i in (10, 11, 12):
            assert _target_cells(f"lemma{i}") == general
        for i in (13, 14, 15):
            assert _target_cells(f"lemma{i}") == rho_case
        assert _target_cells("matrix-entries") == below
        assert _target_cells("interior-annihilator") == below
        assert _target_cells("rho-annihilator") == _rho_window(rho_annihilator_rs)
        assert _target_cells("integrality") == general | rho_case
        assert _target_cells("double-sum") == general

    def test_general_window_meets_the_double_sum_cap(self):
        # alpha <= rho + rho' on every general cell, so double-sum reads the
        # general window uncapped.  A cell with alpha >= rho + rho' + 1 would
        # have r(p^2 - 3p - 2) <= p(p-1)^2: no r >= p + 2 for p >= 11, and
        # r <= 10 at p = 5, r <= 9 at p = 7, all inside r <= 3p
        primes = [p for p in range(5, 100) if all(p % d for d in range(2, p))]
        cells = [(p, r, a) for p in primes for r in range(1, 3 * p + 1) for a in general_alphas(p, r)]
        assert len(cells) == 161
        assert all(a <= rho_of(p, r) + rho_prime_of(p, r, a) for p, r, a in cells)

    def test_rho_prime_at_most_rho_on_the_gate_grids(self):
        # the double sum reads its rows from t = rho - rho' of the diagonal
        # table (see _row_sum_numerators); every general cell of gate criteria
        # 5-7, those of lemmas 10-12 and integrality at r <= 400 included
        general = {
            cell
            for name in ("double-sum", "lemma10", "lemma11", "lemma12", "integrality")
            for cell in gate_cells(name)
            if cell[2] > rho_of(*cell[:2])
        }
        assert len(general) == 12165
        assert all(1 <= rho_prime_of(*cell) <= rho_of(*cell[:2]) for cell in general)

    @pytest.mark.parametrize("p", [-1, 0, 1])
    @pytest.mark.parametrize(
        "validator",
        [general_rho_prime, rho_case_rho_prime, below_rho_rho_prime, rho_annihilator_rho_prime, lambda_variant],
    )
    def test_validators_reject_p_below_2(self, validator, p):
        # before the first division by p or p + 1: no ZeroDivisionError, and no
        # rho' from a p = 1 cell such as below_rho_rho_prime(1, 5, 1)
        with pytest.raises(ValueError, match="p >= 2"):
            validator(p, 5, 1)


class TestIntegerRouteAgainstOracle:
    """The integer annihilator path against the term-by-term Fraction formulas,
    on every alpha of the interior-annihilator and rho-annihilator windows."""

    @given(_annihilator_rows())
    @settings(max_examples=60, deadline=None)
    def test_annihilator_matches_fraction_oracle(self, cell):
        p, r = cell
        alphas = [a for _, _, a in _window("interior-annihilator", p, r=[r], r_max=None)]
        if (p, r) in _window("rho-annihilator", p, r=None, r_max=80):
            alphas.append(rho_of(p, r))
        for alpha in alphas:
            sysm = build_interior_annihilator(p, r, alpha)
            cols, rhs = oracle.annihilator(p, r, alpha)
            for got, want, kind in ((sysm.column_constants, cols, Fraction), (sysm.row_values, rhs, int)):
                assert list(got.items()) == list(want.items())
                assert all(type(v) is kind for v in got.values())
            rows = all_row_indices(p, r, alpha)
            sums = _row_sum_numerators(p, r, alpha, sysm.column_numerators, rows)
            assert [Fraction(s, sysm.den) for s in sums] == [oracle.row_sum(p, r, alpha, cols, i) for i in rows]
            for w in range(2 * rho_of(p, r) + 1):
                assert vartheta(sysm.row_values, w, p) == oracle.vartheta(rhs, w, p), w
            for i in interior_row_indices(p, r, alpha)[:2]:
                want = oracle.interior_solution(p, r, alpha, {i: Fraction(p ** ecal_of(p, r))})
                assert list(solve_interior_system(p, r, alpha, i).items()) == list(want.items())
        for _, _, alpha in _window("double-sum", p, r=[r], r_max=None):
            rep = verify_vanishing_double_sum(p, r, alpha)
            cc = c_constants(p, r, alpha)
            assert rep.row_sums == {i: oracle.row_sum(p, r, alpha, cc.values, i) for i in rep.row_sums}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_step_differences(self, p):
        size = 32
        table = _step_differences(p, size)
        for j in range(size):
            diffs = _forward_differences([math.comb((p - 1) * i, j) for i in range(size)])
            assert [row[j] for row in table] == diffs

    @pytest.mark.parametrize("w", range(13))
    def test_vartheta_negative_rows(self, w):
        # negative tops read the alternating diagonal C(-m, w) = (-1)^w C(m-1+w, w)
        for D in (
            {-3: Fraction(2, 3), -1: Fraction(-5, 7), 0: Fraction(1), 2: Fraction(9, 4)},
            {-9: Fraction(1, 2), -6: Fraction(3), -4: Fraction(-7, 5), -2: Fraction(11), -1: Fraction(-1, 6),
             0: Fraction(0), 3: Fraction(5, 2)},
        ):
            assert vartheta(D, w, 5) == oracle.vartheta(D, w, 5)


class TestRowKernelAgainstOracle:
    """The ratio-recurrence rows against one math.comb call per entry, on every
    cell of the matrix-entries, interior-annihilator, double-sum and
    rho-annihilator windows at p in {5, 7, 11, 13}, r <= 120, and on every row
    of all_row_indices, negative rows included."""

    def test_kernel_against_comb(self):
        for n in range(40):
            for k in range(45):
                for length in range(12):
                    assert _binomial_row(n, k, length) == [comb0(n + t, k + t) for t in range(length)]
                    assert _binomial_row(n, k, length, top_step=0) == [comb0(n, k + t) for t in range(length)]

    def test_matrix_and_carry_rows(self):
        cells = _target_cells("matrix-entries")
        assert cells == _target_cells("interior-annihilator")
        for p, r, alpha in sorted(cells):
            rows = interior_row_indices(p, r, alpha)
            table = combinatorics._diagonal_table(p, r)
            assert tuple(table[i * (p - 1) + alpha] for i in rows) == oracle.matrix_M_entries(p, r, alpha)
            if rows:  # the carry matrix whose reversal is the cell's square submatrix
                R, gamma = len(rows), rows[0] * (p - 1) + alpha
                assert combinatorics._carry_matrix(p, R, gamma) == oracle.carry_matrix(p, R, gamma)

    def test_row_sums_of_the_annihilators(self):
        for p, r, alpha in sorted(_target_cells("interior-annihilator") | _target_cells("rho-annihilator")):
            nums = build_interior_annihilator(p, r, alpha).column_numerators
            rows = all_row_indices(p, r, alpha)
            assert _row_sum_numerators(p, r, alpha, nums, rows) == oracle.row_sum_numerators(p, r, alpha, nums, rows)

    def test_row_sums_of_the_double_sums(self):
        for p, r, alpha in sorted(_target_cells("double-sum")):
            nums, _ = lambda_raw_table(p, general_rho_prime(p, r, alpha), alpha)
            cols = {alpha - m: n * math.comb(r, m) for m, n in enumerate(nums)}
            rows = all_row_indices(p, r, alpha)
            assert _row_sum_numerators(p, r, alpha, cols, rows) == oracle.row_sum_numerators(p, r, alpha, cols, rows)

    def test_diagonal_tables_on_the_gate_grids(self):
        # every row that a cell of gate criteria 3-5 reads, against one
        # math.comb call per entry
        reads = {(p, r, i * (p - 1) + alpha)
                 for p, r, alpha in gate_cells("matrix-entries") for i in interior_row_indices(p, r, alpha)}
        for p, r, alpha in gate_cells("interior-annihilator"):
            reads.update((p, r, i * (p - 1) + alpha) for i in all_row_indices(p, r, alpha))
        for p, r in gate_cells("rho-annihilator"):
            reads.update((p, r, i * (p - 1) + rho_of(p, r)) for i in all_row_indices(p, r, rho_of(p, r)))
        for p, r, alpha in gate_cells("double-sum"):
            reads.update((p, r, i * (p - 1) + alpha) for i in range(1, rho_prime_of(p, r, alpha) + 1))
        assert len(reads) == 74382
        for p, r, n in sorted(reads):
            assert combinatorics._diagonal_table(p, r)[n] == oracle.diagonal_row(p, r, n), (p, r, n)

    @pytest.mark.parametrize("p", _SHAPE_PRIMES)
    def test_empty_interior(self, p):
        # (p, p, 0): rho = 1, and no i(p-1) lies strictly between 1 and p - 1
        assert interior_row_indices(p, p, 0) == []
        assert matrix_entries_check(p, p, 0) == (True, 0) and oracle.matrix_M_entries(p, p, 0) == ()
        nums = {-1: 3, 0: -2}
        rows = all_row_indices(p, p, 0)
        assert _row_sum_numerators(p, p, 0, nums, []) == []
        assert _row_sum_numerators(p, p, 0, nums, rows) == oracle.row_sum_numerators(p, p, 0, nums, rows)

    @pytest.mark.parametrize(
        "nums",
        [
            {-8: 5, -7: 0, -6: 0, -2: 0, 3: -11, 5: 0},  # zero numerators inside the range
            {-8: 5, 3: -11},  # the same columns, the zeros left out
            {-1: 4, 0: 1, 2: 2},  # a suffix of the rows, as the double sum reads
            {0: 0},
            {},
        ],
    )
    def test_zero_and_missing_numerators(self, nums):
        p, r, alpha = 7, 104, 5  # rho = 13: columns -8..5
        rows = list(range(-3, 20))  # rows 17..19 start above their top: i(p-1) > r - alpha
        assert _row_sum_numerators(p, r, alpha, nums, rows) == oracle.row_sum_numerators(p, r, alpha, nums, rows)

    @pytest.mark.parametrize("nums", [{-200: 4, -90: 1, 5: 2}, {-9: 1, 0: 2}, {-8: 1, 6: 2}])
    def test_columns_outside_the_table_raise(self, nums):
        # the (7, 104) table holds the columns alpha - rho = -8 .. alpha = 5 only
        with pytest.raises(ValueError, match=r"outside \[-8, 5\]"):
            _row_sum_numerators(7, 104, 5, nums, [0, 1])

    def test_diagonal_starting_above_its_top_is_zero(self):
        assert _binomial_row(10, 11, 6) == [0] * 6
        assert _binomial_row(10, 11, 6, top_step=0) == [0] * 6
        # (r - alpha)/(p - 1) = 9.5: rows 10, 11 and 15 meet only K > N
        assert _row_sum_numerators(5, 40, 2, {-1: 3, 0: 4, 1: 5, 2: 6}, [10, 11, 15]) == [0, 0, 0]

    def test_one_math_comb_per_row(self, monkeypatch):
        # the rows are built by the recurrence, not one math.comb call per entry
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
        interior, table = interior_row_indices(5, 200, 20), combinatorics._diagonal_table(5, 200)
        assert [len(table[i * 4 + 20]) for i in interior] == [34] * 33
        assert len(calls) == len(interior) == 33
        calls.clear()
        assert len(combinatorics._carry_matrix(5, 12, 7)) == len(calls) == 12
        calls.clear()
        rows = all_row_indices(5, 200, 20)
        _row_sum_numerators(5, 200, 20, {l: l + 14 for l in range(-13, 21)}, rows)
        # the interior rows are the matrix's rows, already in the (5, 200) table
        assert len(calls) == len(rows) - len(interior) == 18


_SMALL_CELLS = [(5, 26, 2), (7, 33, 1), (5, 47, 0), (5, 15, 2), (7, 53, 4)]


def _ratio_off_by_one(n, k, length, top_step=1):
    """The row kernel with one more in every ratio's numerator."""
    row = _binomial_row(n, k, min(length, 1), top_step)
    tops = range(n + 1, n + length) if top_step else range(n - k, n - k - length + 1, -1)
    for a, b in zip(tops, range(k + 1, k + length)):
        row.append(row[-1] * (a + 1) // b)
    return row


# two cells of the annihilator rho-shape r = rho(p+1)+p-2, alpha = rho
_RHO_SHAPE_CELLS = [(5, 27, 4), (7, 29, 3)]


def _theta_key(p, r, alpha):
    """(p, alpha, E, offset) of a cell's annihilator right side: offset 0 on
    the rho shape, 1 below rho."""
    return p, alpha, ecal_of(p, r), 0 if alpha == rho_of(p, r) else 1


def _plus_minus_one(values):
    """Every copy of the dict values with one entry moved by +1 or -1."""
    for key in values:
        for delta in (1, -1):
            yield key, delta, {**values, key: values[key] + delta}


class TestChecksCanFail:
    """Each exact check rejects a system that is off by one anywhere."""

    @pytest.mark.parametrize("p,r,alpha", _SMALL_CELLS + _RHO_SHAPE_CELLS)
    def test_residual_sees_every_perturbation(self, p, r, alpha):
        sysm = build_interior_annihilator(p, r, alpha)
        assert sysm.residual() == {}
        # +-1 on a numerator moves a constant by 1/den, the least step over den
        assert sysm.column_numerators
        for key, delta, bad in _plus_minus_one(sysm.column_numerators):
            assert dataclasses.replace(sysm, column_numerators=bad).residual(), (key, delta)

    @pytest.mark.parametrize("p,r,alpha", _SMALL_CELLS)
    def test_profile_sees_a_perturbed_row_value(self, p, r, alpha):
        # the key check of gate criteria 4 and 5 on one cell's right side
        key = _theta_key(p, r, alpha)
        sysm = build_interior_annihilator(p, r, alpha)
        assert oracle.theta_expansion_errors(key, sysm.row_values) == []
        for i in sysm.row_values:
            bad = dict(sysm.row_values)
            bad[i] += 1
            assert oracle.theta_expansion_errors(key, bad), i
        # p D has the zeros of D, but valuation ecal + 1 at alpha
        times_p = {i: p * d for i, d in sysm.row_values.items()}
        assert oracle.theta_expansion_errors(key, times_p) == [alpha]

    def test_profile_sees_the_row_kernel(self, monkeypatch):
        # the public vartheta reads the row kernel: C(4, 0) one too large moves
        # vartheta_0 by D_1, which must be 0 below alpha; _ratio_off_by_one would
        # not do here, because the alternating sums of the theta^alpha targets
        # cancel its shift
        def top_four_off_by_one(n, k, length, top_step=1):
            row = _binomial_row(n, k, length, top_step)
            if n == 4 and not top_step and row:
                row[0] += 1
            return row

        systems = [build_interior_annihilator(*cell) for cell in [(5, 26, 2), (5, 15, 2), (5, 40, 3)]]
        assert all(vartheta(sysm.row_values, 0, 5) == 0 for sysm in systems)
        monkeypatch.setattr(combinatorics, "_binomial_row", top_four_off_by_one)
        assert all(vartheta(sysm.row_values, 0, 5) != 0 for sysm in systems)

    def test_double_sum_sees_a_perturbed_lambda_table(self, monkeypatch):
        assert verify_vanishing_double_sum(5, 14, 3).holds
        table = combinatorics.lambda_raw_table

        def off_by_one(p, R, alpha):
            nums, den = table(p, R, alpha)
            return [nums[0] + 1, *nums[1:]], den

        monkeypatch.setattr(combinatorics, "lambda_raw_table", off_by_one)
        assert not verify_vanishing_double_sum(5, 14, 3).holds

    def test_det_checks_see_a_perturbed_carry_matrix(self, monkeypatch):
        rep = factor_and_rank_checks(5, 4, 2)
        assert rep.det_matches_closed_form and rep.factorization_ok
        carry = combinatorics._carry_matrix

        def off_by_one(p, R, gamma):
            m = carry(p, R, gamma)
            if gamma == 0:  # b, the factor whose determinant is taken
                m[R - 1][R - 1] += 1
            return m

        monkeypatch.setattr(combinatorics, "_carry_matrix", off_by_one)
        rep = factor_and_rank_checks(5, 4, 2)
        assert not rep.det_matches_closed_form and not rep.factorization_ok

    def test_matrix_entries_see_the_row_kernel(self, monkeypatch):
        check = VERIFY_TARGETS["matrix-entries"].check
        grid = [cell for p in _SHAPE_PRIMES for cell in _window("matrix-entries", p, r=None, r_max=200)]
        monkeypatch.setattr(combinatorics, "_binomial_row", _ratio_off_by_one)
        failing = next(cell for cell in grid if check(*cell)[0] == "fails")
        monkeypatch.undo()
        _memo.reset()  # drop the rows built through the fault
        assert check(*failing)[0] == "holds"

    def test_double_sum_sees_the_row_kernel(self, monkeypatch):
        cells = [cell for p in _SHAPE_PRIMES for cell in _window("double-sum", p, r=None, r_max=60)]
        monkeypatch.setattr(combinatorics, "_binomial_row", _ratio_off_by_one)
        failing = next(cell for cell in cells if not verify_vanishing_double_sum(*cell).holds)
        monkeypatch.undo()
        _memo.reset()  # drop the rows built through the fault
        assert verify_vanishing_double_sum(*failing).holds

    def test_a_wrong_row_fails_exactly_its_readers(self, monkeypatch):
        # the last entry of row n = 30 of the (5, 60) diagonal table one too
        # large: every cell that reads the row fails, the annihilator's
        # residual at that row only, and every other cell holds, so the
        # shared row neither spreads the fault nor hides it
        p, r, n = 5, 60, 30
        rho = rho_of(p, r)
        kernel = combinatorics._binomial_row

        def planted(top, k, length, top_step=1):
            row = kernel(top, k, length, top_step)
            if (top, k, length, top_step) == (r - rho, n - rho, rho + 1, 1):
                row[-1] += 1
            return row

        monkeypatch.setattr(combinatorics, "_binomial_row", planted)
        rows_read = {
            "matrix-entries": interior_row_indices,
            "interior-annihilator": interior_row_indices,
            "double-sum": lambda *cell: range(1, rho_prime_of(*cell) + 1),
        }
        readers = {}
        for name, rows_of in rows_read.items():
            for cell in (cell for q in (5, 7) for cell in _window(name, q, r=None, r_max=80)):
                reads = cell[:2] == (p, r) and n in {i * (p - 1) + cell[2] for i in rows_of(*cell)}
                assert VERIFY_TARGETS[name].check(*cell)[0] == ("fails" if reads else "holds"), (name, cell)
                if reads:
                    readers.setdefault(name, []).append(cell[2])
        assert readers == {"matrix-entries": [2, 6], "interior-annihilator": [2, 6], "double-sum": [14]}
        for alpha in readers["interior-annihilator"]:
            assert list(build_interior_annihilator(p, r, alpha).residual()) == [(n - alpha) // (p - 1)]

    def test_interior_solve_sees_the_row_kernel(self, monkeypatch):
        u = interior_row_indices(5, 26, 2)[0]
        solve_interior_system(5, 26, 2, u)
        monkeypatch.setattr(combinatorics, "_binomial_row", _ratio_off_by_one)
        _memo.reset()  # the check reads rows built through the fault, not the cached ones
        with pytest.raises(AssertionError, match="failed verification"):
            solve_interior_system(5, 26, 2, u)


class TestOneSumPerRow:
    def test_interior_annihilator_sums_each_row_once(self, monkeypatch, capsys):
        # the residual is the only row sum an annihilator makes, over the
        # interior rows; the other rows hold by definition and are never summed
        argv = ["verify", "interior-annihilator", "--p", "5,7,11,13", "--r-max", "60", "--jobs", "1"]
        summed = []
        row_sums = combinatorics._row_sum_numerators

        def counting(p, r, alpha, nums, rows):
            summed.append(len(rows))
            return row_sums(p, r, alpha, nums, rows)

        monkeypatch.setattr(combinatorics, "_row_sum_numerators", counting)
        assert main(argv) == 0
        cells = [line.split(",")[1:4] for line in capsys.readouterr().out.splitlines()[1:]]
        assert sum(summed) == sum(len(interior_row_indices(*map(int, cell))) for cell in cells) == 3730


class TestFractionOnlyAtTheEdge:
    # the public builders that return a rational; every check below them runs in int
    PUBLIC = {
        "lambda_values_by_differences", "vartheta", "solve_interior_system",
        "column_constants", "residual", "verify_vanishing_double_sum",
    }

    def test_fraction_built_only_by_public_report_builders(self):
        with open(combinatorics.__file__) as fh:
            tree = ast.parse(fh.read())
        callers = set()

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction":
                callers.add(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, None)
        assert callers and callers <= self.PUBLIC, callers - self.PUBLIC

    def test_annihilator_fields_are_integers(self):
        sysm = build_interior_annihilator(5, 26, 2)
        for field in ("column_numerators", "row_values"):
            assert all(type(v) is int for v in getattr(sysm, field).values()), field
        assert type(sysm.den) is int and sysm.den > 0
