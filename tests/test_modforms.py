import ast
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicslopes import modforms
from padicslopes.exactlinalg import mat_mul_int
from padicslopes.modforms import (
    QExpansion,
    delta,
    dim_cusp,
    eisenstein,
    hecke_matrix,
    hecke_operator,
    miller_basis,
    slope_table,
    slopes,
)
from padicslopes.padic import INFINITY, is_prime, valuation

from qexp_oracle import (
    bernoulli,
    delta_by_eta,
    eisenstein_by_bernoulli,
    genus_gamma0_rational,
    hecke_entries_by_rows,
    miller_basis_by_rows,
    schoolbook_mul,
    schoolbook_pow,
)


def sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 20, 2))


class TestEisenstein:
    def test_e4(self):
        e4 = eisenstein(4, 8)
        assert e4.coeffs[:3] == [1, 240, 2160]
        assert e4.a(2) == 240 * sigma(3, 2)

    def test_e6(self):
        e6 = eisenstein(6, 8)
        assert e6.coeffs[:3] == [1, -504, -16632]
        assert e6.a(2) == -504 * 33

    def test_constant_term(self):
        for k in (4, 6, 8, 10, 14):
            assert eisenstein_by_bernoulli(k, 3).a(0) == 1

    def test_e12_has_691_denominator(self):
        e12 = eisenstein_by_bernoulli(12, 3)
        assert Fraction(e12.a(1)).denominator == 691

    @pytest.mark.parametrize("prec", [1, 2, 50, 1476])  # 1476 = 59 * 25 + 1, hecke_matrix(59, 300)
    @pytest.mark.parametrize("k", [4, 6])
    def test_closed_form_matches_bernoulli_route(self, k, prec):
        assert eisenstein(k, prec) == eisenstein_by_bernoulli(k, prec)

    def test_rejects_bad_weight(self):
        # E_4 and E_6 only: the general-weight E_k lives in the oracle
        for k in (2, 5, 8, 12):
            with pytest.raises(ValueError):
                eisenstein(k, 10)


class TestDelta:
    def test_tau_values(self):
        d = delta(10)
        assert d.a(0) == 0 and d.a(1) == 1
        assert d.a(2) == -24
        assert d.a(5) == 4830

    def test_matches_eta_product(self):
        # Jacobi's identity cubed three times against the expanded eta product
        ref = delta_by_eta(400).coeffs
        for prec in range(2, 401):
            assert delta(prec).coeffs == ref[:prec]

    def test_discriminant_identity(self):
        prec = 120
        lhs = delta(prec).scale(1728)
        rhs = eisenstein(4, prec).pow(3) - eisenstein(6, prec).pow(2)
        assert lhs.coeffs == rhs.coeffs


class TestDimensions:
    @pytest.mark.parametrize(
        "k,d", [(2, 0), (10, 0), (12, 1), (14, 0), (16, 1), (22, 1), (24, 2), (26, 1), (68, 5)]
    )
    def test_level1(self, k, d):
        assert dim_cusp(k) == d

    def test_gamma0_59_genus(self):
        assert dim_cusp(2, 59) == 5

    def test_integer_genus_matches_rational_formula(self):
        for p in filter(is_prime, range(5000)):
            assert dim_cusp(2, p) == genus_gamma0_rational(p)

    def test_gamma0_small(self):
        assert dim_cusp(2, 11) == 1  # X_0(11) has genus 1
        assert dim_cusp(2, 5) == 0
        assert dim_cusp(12, 5) == 5

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            dim_cusp(13)


class TestMillerBasis:
    def test_k12_is_delta(self):
        (f,) = miller_basis(12, 30)
        assert f.coeffs == delta(30).coeffs

    def test_k16_second_coefficient(self):
        (f,) = miller_basis(16, 10)
        assert f.a(2) == -24 + 240  # Delta * E4

    def test_echelon_property(self):
        for k in (24, 36, 48, 60):
            d = dim_cusp(k)
            basis = miller_basis(k, 2 * d + 4)
            for i, f in enumerate(basis, start=1):
                for j in range(1, d + 1):
                    assert f.a(j) == (1 if i == j else 0)
                assert f.a(0) == 0

    def test_integrality(self):
        for f in miller_basis(36, 20):
            assert all(isinstance(c, int) for c in f.coeffs)

    def test_prec_guard(self):
        with pytest.raises(ValueError):
            miller_basis(24, 2)

    @pytest.mark.parametrize("p,k_min,k_max", [(2, 12, 240), (5, 12, 240), (59, 12, 60), (5, 300, 300)])
    def test_jchain_matches_per_row_route(self, p, k_min, k_max):
        # both parities of b = [k mod 4 != 0] at the precision hecke_matrix uses, up to d = 25
        for k in range(k_min, k_max + 1, 2):
            if d := dim_cusp(k):
                assert miller_basis(k, p * d + 1) == miller_basis_by_rows(k, p * d + 1)

    @pytest.mark.parametrize("d,prec", [(1, 60), (2, 11), (4, 237), (7, 36)])
    def test_shared_series_serve_every_weight_of_a_dimension(self, d, prec):
        # the weights of one dimension in scrambled order share J, Delta'^d and the starts
        ks = [k for k in range(12 * d + 14, 12 * d - 2, -2) if dim_cusp(k) == d]
        assert len(ks) == 6
        ks = ks[1::2] + ks[::2]
        echelon = [modforms._unitriangular_solve(rows, rows) for rows in modforms._miller_rows(d, ks, prec)]
        assert echelon == [[f.coeffs for f in miller_basis_by_rows(k, prec)] for k in ks]

    def test_product_count(self, monkeypatch):
        # J, Delta' and 1/Delta' cost 9 products, Delta'^25 six, the chain 24
        calls = []
        true_product = modforms._kronecker_product

        def counting(a, b, n):
            calls.append(n)
            return true_product(a, b, n)

        monkeypatch.setattr(modforms, "_kronecker_product", counting)
        miller_basis(300, 126)
        assert len(calls) <= 40

    def test_leading_coefficient_check_survives_optimization(self):
        # a raise, not an assert: python -O must not drop it
        script = (
            "from padicslopes import modforms\n"
            "true_q_j = modforms._q_j\n"
            "modforms._q_j = lambda n: true_q_j(n).scale(2)\n"
            "try:\n"
            "    modforms.miller_basis(24, 10)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(modforms.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert out.stdout == "Miller basis row 1 has leading coefficient 2 (bug)\n"


class TestJ:
    def test_first_coefficients(self):
        assert modforms._q_j(6).coeffs == [1, 744, 196884, 21493760, 864299970, 20245856256]

    def test_times_delta_prime_is_e4_cubed(self):
        prec = 300
        delta_prime = QExpansion(12, delta(prec + 1).coeffs[1:], prec)
        assert schoolbook_mul(modforms._q_j(prec), delta_prime) == schoolbook_pow(eisenstein(4, prec), 3)

    def test_inverse_delta_prime(self):
        # the sparse recurrence against the schoolbook product, and the 24-coloured partition counts
        inverse = modforms._delta_prime(200, inverse=True)
        assert inverse.coeffs[:6] == [1, 24, 324, 3200, 25650, 176256]
        assert schoolbook_mul(inverse, modforms._delta_prime(200)).coeffs == [1] + [0] * 199


class TestHeckeMatrix:
    def test_2_12(self):
        hm = hecke_matrix(2, 12)
        assert hm.entries == ((-24,),)
        assert hm.charpoly() == [24, 1]

    def test_5_12(self):
        assert hecke_matrix(5, 12).entries == ((4830,),)

    @pytest.mark.parametrize("p", [2, 5, 59])
    def test_entries_match_the_echelonized_rows(self, p):
        # U^-1 M from the d x d blocks against T_p of the echelonized full rows, every d <= 8
        ks = [k for k in range(12, 120, 2) if 1 <= dim_cusp(k) <= 8]
        assert len(ks) == 48 and dim_cusp(ks[-1]) == 8
        for k in ks:
            assert hecke_matrix(p, k).entries == hecke_entries_by_rows(p, k)

    def test_entries_match_the_echelonized_rows_at_dimension_25(self):
        assert hecke_matrix(5, 300).entries == hecke_entries_by_rows(5, 300)

    def test_one_dimensional_cells_build_no_j(self, monkeypatch):
        # a chain of one row has no product, so J is built only when d > 1
        built = []
        true_q_j = modforms._q_j
        monkeypatch.setattr(modforms, "_q_j", lambda n: built.append(n) or true_q_j(n))
        assert slope_table([5], [12, 16, 18, 20, 22, 26]) == {(5, k): slopes(5, k) for k in (12, 16, 18, 20, 22, 26)}
        assert built == []
        hecke_matrix(5, 24)
        assert built == [5 * 2]

    def test_trace_cross_check(self):
        # trace of T_2 on S_24 against direct images of the basis
        hm = hecke_matrix(2, 24)
        basis = miller_basis(24, 2 * hm.d + 1)
        direct = sum(hecke_operator(f, 2).a(i) for i, f in enumerate(basis, start=1))
        assert hm.trace() == direct

    def test_commutativity(self):
        def matmul(a, b):
            n = len(a)
            return tuple(
                tuple(sum(a[i][u] * b[u][j] for u in range(n)) for j in range(n))
                for i in range(n)
            )

        for k in (24, 36):
            h2 = hecke_matrix(2, k).entries
            h3 = hecke_matrix(3, k).entries
            h5 = hecke_matrix(5, k).entries
            assert matmul(h2, h3) == matmul(h3, h2)
            assert matmul(h2, h5) == matmul(h5, h2)

    def test_hecke_recursion_one_dimensional(self):
        # a_(p^2) = a_p^2 - p^(k-1) on the 1-dimensional spaces
        for k in (12, 16, 18, 20, 22, 26):
            for p in (2, 3, 5, 7):
                (f,) = miller_basis(k, p * p + 2)
                ap = hecke_operator(f, p).a(1)
                assert f.a(p * p) == ap**2 - p ** (k - 1)

    @pytest.mark.parametrize("p,k", [(2, 24), (3, 36), (5, 60), (7, 100), (59, 40), (2, 192), (5, 200)])
    def test_cayley_hamilton(self, p, k):
        # chi(T) = 0 by Horner's rule on integer matrices; d <= 16 on this grid
        hm = hecke_matrix(p, k)
        cp = hm.charpoly()
        assert len(cp) == hm.d + 1 and cp[-1] == 1 and cp[-2] == -hm.trace()
        identity = [[int(i == j) for j in range(hm.d)] for i in range(hm.d)]
        acc = [[0] * hm.d for _ in range(hm.d)]
        for c in reversed(cp):
            acc = mat_mul_int(acc, hm.entries)
            acc = [[a + c * e for a, e in zip(row, ids)] for row, ids in zip(acc, identity)]
        assert acc == [[0] * hm.d for _ in range(hm.d)]

    def test_charpoly_matches_eigenvalue_on_dim1(self):
        hm = hecke_matrix(7, 16)
        (f,) = miller_basis(16, 8)
        a7 = hecke_operator(f, 7).a(1)
        assert hm.charpoly() == [-a7, 1]


class TestSlopes:
    def test_frozen_cells(self):
        assert slopes(2, 12) == [3]
        assert slopes(5, 12) == [1]
        assert slopes(59, 16) == [1]

    def test_dim_zero(self):
        assert slopes(5, 10) == []

    def test_weight24_at_2(self):
        assert slopes(2, 24) == [3, 7]

    def test_sum_rule(self):
        # sum of slopes = v_p(constant coefficient) = v_p(det)
        for p, k in [(2, 24), (3, 36), (5, 48), (7, 36)]:
            hm = hecke_matrix(p, k)
            cp = hm.charpoly()
            s = slopes(p, k)
            assert not any(isinstance(x, type(INFINITY)) for x in s)
            assert sum(s) == valuation(cp[0], p)

    def test_hodge_bounds(self):
        for p, k in [(2, 36), (5, 60), (7, 48), (11, 36), (13, 24)]:
            for s in slopes(p, k):
                assert 0 <= s <= k - 1

    def test_count_matches_dimension(self):
        for p, k in [(2, 36), (5, 48)]:
            assert len(slopes(p, k)) == dim_cusp(k)

    def test_slope_table_deals_one_task_per_prime_and_dimension(self):
        ks = list(range(12, 41, 2))  # d = 1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3: interleaved
        tasks = []

        def recording(fn, calls):
            tasks.extend(calls)
            return [fn(*call) for call in calls]

        table = slope_table([5, 7], ks, recording)
        assert [(p, dim_cusp(group[0])) for p, group in tasks] == [(p, d) for p in (5, 7) for d in range(4)]
        assert all(len({dim_cusp(k) for k in group}) == 1 for _, group in tasks)
        assert table == {(p, k): slopes(p, k) for p in (5, 7) for k in ks}


class TestQExpansionRing:
    def test_weight_checks(self):
        with pytest.raises(ValueError):
            eisenstein(4, 5) + eisenstein(6, 5)
        with pytest.raises(ValueError):
            eisenstein(4, 5) - eisenstein(6, 5)

    def test_truncation_on_multiply(self):
        a = QExpansion(4, [1, 2, 3], 3)
        b = QExpansion(6, [1, 1, 1, 1], 4)
        assert (a * b).prec == 3

    def test_mul_exactness(self):
        a = QExpansion(0, [1, -1, 2], 3)
        assert (a * a).coeffs == [1, -2, 5]

    def test_pow_rejects_negative_exponent(self):
        # e >>= 1 stays at -1, so a negative exponent would never end the loop
        with pytest.raises(ValueError):
            eisenstein(4, 10).pow(-1)


def _flatten(chunks):
    return [c for chunk in chunks for c in chunk]


# 0, units, and integers up to 10^6 and 10^40 in size, with runs of zeros
coefficient = st.one_of(
    st.integers(-1, 1), st.integers(-(10**6), 10**6), st.integers(-(10**40), 10**40)
)
integer_coeffs = st.lists(
    st.one_of(st.lists(st.just(0), min_size=1, max_size=8), st.lists(coefficient, min_size=1, max_size=5)),
    max_size=10,
).map(_flatten)


def series(coeffs):
    # leading zeros, then coeffs padded or truncated to an independent precision
    return st.builds(
        lambda weight, lead, cs, prec: QExpansion(weight, [0] * lead + cs, prec),
        st.integers(0, 24),
        st.integers(0, 6),
        coeffs,
        st.integers(0, 60),
    )


@st.composite
def growing_coeffs(draw):
    # |a_i| <= 2^(c i) at a drawn rate c, with signs and zeros: the shape of the J chain
    c = draw(st.integers(0, 64))
    length = draw(st.integers(1, 24))
    bounds = [2 ** (c * i) for i in range(length)]
    return [draw(st.one_of(st.just(0), st.integers(-bound, bound))) for bound in bounds]


class TestKroneckerProduct:
    @given(series(integer_coeffs), series(integer_coeffs))
    @example(QExpansion(0, [1, -1, 2]), QExpansion(0, [1, -1, 2]))
    @example(QExpansion(0, [0, 0, -5, 0, 0, 7], 6), QExpansion(4, [-(10**40)] * 9, 4))
    @settings(max_examples=300)
    def test_matches_schoolbook(self, f, g):
        assert f * g == schoolbook_mul(f, g)

    def test_fraction_coefficient_raises(self):
        # the product is over Z only: a rational series is not silently multiplied
        # (int.bit_length, which sizes the slots, rejects a Fraction)
        f = QExpansion(0, [1, Fraction(1, 2), 3])
        with pytest.raises(TypeError):
            f * f

    @given(growing_coeffs(), growing_coeffs(), st.integers(0, 60))
    @example([1, -(2**40), 2**80], [3], 7)
    @example([0] * 5 + [-(2**300)], [2**9] * 3, 8)
    @settings(max_examples=300)
    def test_growing_coefficients_match_schoolbook(self, a, b, n):
        # unequal lengths, and n below, at and above len a + len b - 1
        expected = schoolbook_mul(QExpansion(0, a, n), QExpansion(0, b, n)).coeffs
        assert modforms._kronecker_product(a, b, n) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    def test_anti_diagonal_bound_is_attained(self, sign):
        # a_i = 2^(c(i+1) + s) - 1 and b_i = 2^(c(i+1)) - 1 over n = 2^t - 1 slots: every
        # term of the top slot has A_i + B_(top-i) = c(n+1) + s = S, and the top coefficient
        # needs all S + t bits of the bound, so a slot of S + t + 1 bits has no spare bit
        # where that is a whole number of bytes
        boundary = 0
        for c in (3, 5, 8):
            for s in range(8):
                for t in range(2, 6):
                    n = 2**t - 1
                    a = [sign * (2 ** (c * (i + 1) + s) - 1) for i in range(n)]
                    b = [2 ** (c * (i + 1)) - 1 for i in range(n)]
                    out = modforms._kronecker_product(a, b, n)
                    assert out == schoolbook_mul(QExpansion(0, a), QExpansion(0, b)).coeffs
                    assert abs(out[-1]).bit_length() == c * (n + 1) + s + t
                    boundary += (c * (n + 1) + s + t + 1) % 8 == 0
        assert boundary == 12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_is_tight(self, sign):
        # every coefficient at the bound n (2^ka - 1)(2^kb - 1) with n = 2^kn - 1:
        # the largest product coefficient needs ka + kb + kn bits and a sign bit,
        # and some (ka, kb, kn) here put that width exactly on a byte boundary
        for ka in range(1, 21):
            for kb in (2, 3, 4):
                for kn in (2, 3, 4):
                    n = 2**kn - 1
                    f = QExpansion(0, [sign * (2**ka - 1)] * n)
                    g = QExpansion(0, [2**kb - 1] * n)
                    assert f * g == schoolbook_mul(f, g)


class TestSubtraction:
    @given(series(integer_coeffs), series(integer_coeffs), st.integers(-3, 3))
    @settings(max_examples=200)
    def test_one_pass_matches_add_of_negation(self, f, g, s):
        g = QExpansion(f.weight, g.coeffs, g.prec)
        diff = f - g.scale(s)
        assert diff == f + g.scale(-s)
        assert diff.prec == min(f.prec, g.prec)


class TestIntegerOnly:
    def test_modforms_imports_nothing_from_fractions(self):
        # QExpansion holds integers only, so its arithmetic can move to residues mod p^N
        with open(modforms.__file__) as fh:
            tree = ast.parse(fh.read())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" in modules and "fractions" not in modules
