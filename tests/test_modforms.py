from fractions import Fraction

import pytest

from padicslopes.exactlinalg import mat_mul_int
from padicslopes.modforms import (
    QExpansion,
    bernoulli,
    delta,
    dim_cusp,
    eisenstein,
    hecke_matrix,
    hecke_operator,
    miller_basis,
    slopes,
)
from padicslopes.padic import INFINITY, valuation


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
            assert eisenstein(k, 3).a(0) == 1

    def test_e12_has_691_denominator(self):
        e12 = eisenstein(12, 3)
        assert Fraction(e12.a(1)).denominator == 691

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein(5, 10)
        with pytest.raises(ValueError):
            eisenstein(2, 10)


class TestDelta:
    def test_tau_values(self):
        d = delta(10)
        assert d.a(0) == 0 and d.a(1) == 1
        assert d.a(2) == -24
        assert d.a(5) == 4830

    def test_discriminant_identity(self):
        prec = 120
        lhs = delta(prec).scale(1728)
        rhs = eisenstein(4, prec).pow(3) - eisenstein(6, prec).pow(2)
        assert lhs.coeffs == [int(c) for c in rhs.coeffs]


class TestDimensions:
    @pytest.mark.parametrize(
        "k,d", [(2, 0), (10, 0), (12, 1), (14, 0), (16, 1), (22, 1), (24, 2), (26, 1), (68, 5)]
    )
    def test_level1(self, k, d):
        assert dim_cusp(k) == d

    def test_gamma0_59_genus(self):
        assert dim_cusp(2, 59) == 5

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


class TestHeckeMatrix:
    def test_2_12(self):
        hm = hecke_matrix(2, 12)
        assert hm.entries == ((-24,),)
        assert hm.charpoly() == [24, 1]

    def test_5_12(self):
        assert hecke_matrix(5, 12).entries == ((4830,),)

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


class TestQExpansionRing:
    def test_weight_checks(self):
        with pytest.raises(ValueError):
            eisenstein(4, 5) + eisenstein(6, 5)

    def test_truncation_on_multiply(self):
        a = QExpansion(4, [1, 2, 3], 3)
        b = QExpansion(6, [1, 1, 1, 1], 4)
        assert (a * b).prec == 3

    def test_mul_exactness(self):
        a = QExpansion(0, [1, -1, 2], 3)
        assert (a * a).coeffs == [1, -2, 5]
