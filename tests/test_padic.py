import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicslopes import padic
from padicslopes.padic import (
    INFINITY,
    _vp,
    binomial_valuation,
    factorial_valuation,
    integer_log,
    newton_polygon,
    teichmuller_lift,
    valuation,
)

from lambda_oracle import generalized_binomial
from lemma_oracle import carries

PRIMES = [2, 3, 5, 7, 11, 13]


def brute_valuation(n, p):
    """Direct-factorization oracle."""
    if n == 0:
        return INFINITY
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestValuation:
    def test_units(self):
        assert valuation(1, 5) == 0

    def test_zero_is_infinity(self):
        assert valuation(0, 7) is INFINITY

    def test_250_base5(self):
        # 250 = 2 * 5^3
        assert brute_valuation(250, 5) == 3
        assert valuation(250, 5) == 3

    def test_rationals(self):
        assert valuation(Fraction(3, 25), 5) == -2
        assert valuation(Fraction(50, 7), 5) == 2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            valuation(10, 6)

    @given(
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
        st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
        st.sampled_from(PRIMES),
    )
    def test_additivity(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)

    @given(
        st.sampled_from(PRIMES + [59]),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=1, max_value=10**40),
        st.sampled_from([1, -1]),
    )
    @example(5, 637, 1, 1)  # v_5(c_0) of the charpoly at (p, k) = (5, 300)
    @example(2, 2000, 3, -1)
    @example(3, 2**10 - 1, 1, 1)  # one round of p, p^2, ..., p^512 removes all of it
    @settings(max_examples=200)
    def test_vp_matches_brute_valuation(self, p, v, u, sign):
        # the logarithmic rounds against one division at a time, negative n included
        n = sign * u * p**v
        assert _vp(n, p) == brute_valuation(n, p) >= v

    def test_infinity_ordering(self):
        assert INFINITY > 10**9
        assert not INFINITY < Fraction(1, 2)
        assert INFINITY + 3 is INFINITY
        assert INFINITY >= INFINITY


class TestFactorialValuation:
    def test_empty_product(self):
        assert factorial_valuation(0, 5) == 0

    def test_frozen_examples(self):
        # oracles: v_2(10!) = v_2(3628800) = 8, v_5(25!) = 6
        assert brute_valuation(math.factorial(10), 2) == 8
        assert factorial_valuation(10, 2) == 8
        assert brute_valuation(math.factorial(25), 5) == 6
        assert factorial_valuation(25, 5) == 6

    @given(st.integers(min_value=0, max_value=3000), st.sampled_from(PRIMES))
    def test_matches_direct_factorization(self, n, p):
        assert factorial_valuation(n, p) == brute_valuation(math.factorial(n), p)

    @given(st.integers(min_value=0, max_value=5000), st.sampled_from(PRIMES))
    def test_legendre_bound(self, n, p):
        assert factorial_valuation(n, p) * (p - 1) <= n


class TestBinomialValuation:
    def test_frozen_examples(self):
        # C(9,3) = 84 = 2^2 * 3 * 7; C(10,5) = 252 = 2^2 * 63
        assert brute_valuation(math.comb(9, 3), 3) == 1
        assert binomial_valuation(9, 3, 3) == 1
        assert binomial_valuation(17, 0, 7) == 0
        assert brute_valuation(math.comb(10, 5), 2) == 2
        assert binomial_valuation(10, 5, 2) == 2
        assert binomial_valuation(10, 5, 2) <= integer_log(2, 10)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            binomial_valuation(5, 7, 3)
        with pytest.raises(ValueError):
            binomial_valuation(5, -1, 3)

    @given(
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=0, max_value=600),
        st.sampled_from(PRIMES),
    )
    def test_carries_match_factorization(self, a, b, p):
        # Legendre's route against Kummer's carry count and direct factorization
        b = b % (a + 1)
        assert binomial_valuation(a, b, p) == carries(b, a - b, p) == brute_valuation(math.comb(a, b), p)

    def test_validates_p_once(self, monkeypatch):
        checked = []
        true_check = padic._check_prime
        monkeypatch.setattr(padic, "_check_prime", lambda p: checked.append(p) or true_check(p))
        assert binomial_valuation(50, 25, 5) == brute_valuation(math.comb(50, 25), 5)
        assert checked == [5]
        with pytest.raises(ValueError):
            binomial_valuation(10, 5, 6)

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_integer_log_rejects_base_below_two(self, p):
        # p^e never exceeds n for p < 2, so the loop would not end
        with pytest.raises(ValueError, match="base p >= 2"):
            integer_log(p, 10)

    @given(st.integers(min_value=1, max_value=2000), st.sampled_from(PRIMES))
    def test_carry_bound(self, a, p):
        bound = integer_log(p, a)
        for b in range(0, a + 1, max(1, a // 17)):
            assert binomial_valuation(a, b, p) <= bound


class TestGeneralizedBinomial:
    def test_empty_product(self):
        assert generalized_binomial(37, 0) == 1
        assert generalized_binomial(-9, 0) == 1

    def test_minus_one(self):
        assert generalized_binomial(-1, 3) == -1

    def test_negation_identity_instance(self):
        # C(rho'-i, rho') with rho'=2, i=4: both routes give 3
        assert generalized_binomial(-2, 2) == 3
        assert generalized_binomial(3, 2) == 3

    @given(st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=20))
    def test_pascal(self, t, w):
        lhs = generalized_binomial(t, w)
        rhs = generalized_binomial(t - 1, w)
        if w >= 1:
            rhs += generalized_binomial(t - 1, w - 1)
        assert lhs == rhs

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=15))
    def test_negation_identity(self, m, w):
        assert generalized_binomial(-m, w) == (-1) ** w * generalized_binomial(m + w - 1, w)

    def test_rational_top(self):
        assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)


class TestTeichmuller:
    def test_zero_and_one(self):
        assert teichmuller_lift(0, 7, 4) == 0
        assert teichmuller_lift(1, 7, 4) == 1

    def test_2_mod_125(self):
        lift = teichmuller_lift(2, 5, 3)
        assert lift == 57
        assert pow(lift, 4, 125) == 1
        assert lift % 5 == 2

    @given(st.sampled_from([5, 7, 11, 13]), st.integers(min_value=1, max_value=6))
    def test_is_fixed_point_and_root_of_unity(self, p, M):
        q = p**M
        for mu in range(p):
            x = teichmuller_lift(mu, p, M)
            assert pow(x, p, q) == x
            assert x % p == mu
            if mu:
                assert pow(x, p - 1, q) == 1


class TestNewtonPolygon:
    def test_single_linear_factor(self):
        np = newton_polygon([-(5**4), 1], 5)
        assert np.slope_list() == [4]

    def test_mixed_slopes(self):
        np = newton_polygon([Fraction(5**3), Fraction(-5), Fraction(1)], 5)
        assert np.slope_list() == [1, 2]
        assert np.vertices == ((0, 3), (1, 1), (2, 0))

    def test_unit_roots(self):
        np = newton_polygon([1, 0, 1], 5)
        assert np.slope_list() == [0, 0]

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            newton_polygon([1, 1, 0], 5)
        with pytest.raises(ValueError):
            newton_polygon([], 5)

    def test_collinear_points_not_vertices(self):
        # (x - p)^2 = p^2 - 2px + x^2: middle point is on the hull edge
        np = newton_polygon([25, -10, 1], 5)
        assert np.vertices == ((0, 2), (2, 0))
        assert np.slope_list() == [1, 1]

    @given(st.lists(st.tuples(st.integers(0, 6), st.sampled_from([1, 2, 3, 4, 6, 7])), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_product_of_linear_factors(self, factors):
        # prod (x - p^c u) has root valuations {c} exactly
        p = 5
        poly = [1]
        for c, u in factors:
            root = p**c * u
            poly = [0] + poly
            for i in range(len(poly) - 1):
                poly[i] -= root * poly[i + 1]
        got = newton_polygon(poly, p).slope_list()
        assert sorted(got) == sorted(Fraction(c) for c, _ in factors)

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 3),
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=10),
        st.integers(1, 10**6),
    )
    @settings(max_examples=200)
    def test_slopes_strictly_ascending_and_complete(self, p, ord0, body, lead):
        # strict hull turns leave no equal slopes to merge and no order to fix
        poly = [0] * ord0 + body + [lead]
        nz = next(i for i, c in enumerate(poly) if c)
        np = newton_polygon(poly, p)
        vals = [s for s, _ in np.slopes]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert sum(m for _, m in np.slopes) == len(poly) - 1 - nz

    def test_multiplicities_sum(self):
        # x^2(x - 5)(x - 1): two roots at 0 drop out of the slope multiset
        poly = [0, 0, 5, -6, 1]
        np = newton_polygon(poly, 5)
        assert sum(m for _, m in np.slopes) == 4 - 2
