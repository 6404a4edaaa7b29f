import random
from fractions import Fraction

import pytest

from padicslopes.combinatorics import build_interior_annihilator, ecal_of
from padicslopes.symhecke import (
    IDENTITY,
    CosetRep,
    FormalSum,
    SurrogateParams,
    SymPoly,
    act,
    coset_decompose,
    h_polys,
    hecke_T,
    mat,
    mat_mul,
    teichmuller_lifts,
    verify_T_expansion,
)


def theta_divides(coeffs, t, p, modulus, power=1):
    """Divide by theta = x y^p - x^p y from the lowest x-exponent; theta is
    monic there, so the division is well defined over Z/p^M.  Returns the
    quotient coefficient list or None."""
    work = list(coeffs)
    for _ in range(power):
        if work[0] % modulus:
            return None
        tq = len(work) - 1
        quot = [0] * (tq - p)
        for e in range(tq - p):
            prev = quot[e + 1 - p] if e + 1 - p >= 0 else 0
            quot[e] = (work[e + 1] + prev) % modulus
        for m in range(tq - p + 1, tq + 1):
            prev = quot[m - p] if 0 <= m - p < len(quot) else 0
            if (work[m] + prev) % modulus:
                return None
        work = quot
    return work


def theta_times(coeffs, p, modulus):
    """Multiply a coefficient list by theta."""
    t = len(coeffs) - 1
    out = [0] * (t + p + 2)
    for e, c in enumerate(coeffs):
        out[e + 1] = (out[e + 1] + c) % modulus
        out[e + p] = (out[e + p] - c) % modulus
    return out


class TestAction:
    def setup_method(self):
        self.sp = SurrogateParams(p=5, t=4, delta=2, alpha=1)

    def test_identity(self):
        h, _ = h_polys(self.sp, 1)
        assert act(IDENTITY, h) == h

    def test_diagonal_scaling(self):
        mono = SymPoly.from_dict(4, 5, self.sp.M, {1: 1})
        out = act(mat(1, 0, 0, 5), mono)
        assert out.sparse() == {1: 5**3}
        assert out.twist == Fraction(-4, 2)

    def test_action_convention_matches_mu_matrix(self):
        # [[1,-L],[0,p]] h_a = x^a (-L x + p y)^(t-a) - x^(a+d) (-L x + p y)^(t-a-d)
        sp = self.sp
        q = 5**sp.M
        L = teichmuller_lifts(5, sp.M)[2]
        h, _ = h_polys(sp, 1)
        got = act(mat(1, -L, 0, 5), h)
        expected = {}
        # first term: a=1, expand (-Lx+5y)^3 against x
        for xi in range(4):
            from math import comb

            c = comb(3, xi) * pow(-L % q, 3 - xi, q) * pow(5, xi, q) % q
            expected[4 - xi] = (expected.get(4 - xi, 0) + c) % q
        for xi in range(2):
            from math import comb

            c = comb(1, xi) * pow(-L % q, 1 - xi, q) * pow(5, xi, q) % q
            expected[4 - xi] = (expected.get(4 - xi, 0) - c) % q
        expected = {e: c for e, c in expected.items() if c}
        assert got.sparse() == expected

    def test_central_elements_act_trivially(self):
        h, _ = h_polys(self.sp, 0)
        for m in (1, 2, -1):
            g = mat(Fraction(5) ** m, 0, 0, Fraction(5) ** m)
            assert act(g, h) == h

    def test_rejects_singular(self):
        h, _ = h_polys(self.sp, 1)
        with pytest.raises(ZeroDivisionError):
            act(mat(1, 2, 2, 4), h)

    def test_composition(self):
        # row substitution composes as act(g1) o act(g2) = act(g1 g2)
        random.seed(3)
        q = 5**self.sp.M
        f = SymPoly(4, 5, self.sp.M, tuple(random.randrange(q) for _ in range(5)))
        g1 = mat(2, 1, 0, 3)
        g2 = mat(1, 4, 5, 1)
        assert act(g1, act(g2, f)) == act(mat_mul(g1, g2), f)


class TestHPolys:
    def test_alpha0_example(self):
        sp = SurrogateParams(p=5, t=3, delta=1, alpha=0)
        h, _ = h_polys(sp, 0)
        q = 5**sp.M
        assert h.sparse() == {0: 1, 1: q - 1}  # y^3 - x y^2

    def test_star_leading_degree(self):
        sp = SurrogateParams(p=7, t=6, delta=2, alpha=1)
        _, hs = h_polys(sp, 1)
        assert max(hs.sparse()) == 6 - 1

    def test_involution(self):
        sp = SurrogateParams(p=5, t=6, delta=2, alpha=2)
        h, hs = h_polys(sp, 2)
        swap = mat(0, 1, 1, 0)
        assert act(swap, hs) == h
        assert act(swap, h) == hs

    def test_range_check(self):
        sp = SurrogateParams(p=5, t=6, delta=2, alpha=0)
        with pytest.raises(ValueError):
            h_polys(sp, 3)


class TestCosets:
    def test_central_is_identity_class(self):
        rep, _ = coset_decompose(mat(5, 0, 0, 5), 5)
        assert rep == coset_decompose(IDENTITY, 5)[0]

    def test_diag_p_1_distinct(self):
        assert coset_decompose(mat(5, 0, 0, 1), 5)[0] != coset_decompose(IDENTITY, 5)[0]

    def test_mu_classes_distinct(self):
        lifts = teichmuller_lifts(5, 8)
        reps = {coset_decompose(mat(5, lifts[mu], 0, 1), 5)[0] for mu in range(5)}
        assert len(reps) == 5

    def test_right_coset_invariance(self):
        # multiplying by integral units or central powers never moves the class
        random.seed(11)
        p = 5
        g = mat(25, 7, 0, 1)
        base, _ = coset_decompose(g, p)
        kz_elements = [
            mat(1, 3, 0, 1),
            mat(2, 0, 0, 3),
            mat(0, 1, 1, 0),
            mat(1, 0, 4, 1),
            mat(5, 0, 0, 5),
            mat(Fraction(1, 5), 0, 0, Fraction(1, 5)),
        ]
        for h in kz_elements:
            rep, _ = coset_decompose(mat_mul(g, h), p)
            assert rep == base

    def test_decomposition_reconstructs(self):
        for g in [mat(5, 3, 0, 1), mat(1, 0, 5, 25), mat(Fraction(1, 5), 2, 3, 7)]:
            rep, h = coset_decompose(g, 5)
            assert mat_mul(rep.matrix(), h) == tuple(Fraction(e) for e in g)
            # h is in KZ: a central power times an integral unit
            from padicslopes.padic import valuation

            det_v = valuation(h[0] * h[3] - h[1] * h[2], 5)
            assert det_v % 2 == 0
            m = det_v // 2
            unit = tuple(e * Fraction(5) ** (-m) for e in h)
            assert all(valuation(e, 5) >= 0 for e in unit if e != 0)

    def test_canonical_form_invariants(self):
        rep, _ = coset_decompose(mat(50, 7, 0, 10), 5)
        assert 0 <= rep.c_val < 5**rep.a_exp
        vals = [rep.a_exp, rep.d_exp]
        if rep.c_val:
            from padicslopes.padic import valuation

            vals.append(valuation(rep.c_val, 5))
        assert min(vals) == 0


class TestHeckeOperator:
    def test_support_bound(self):
        sp = SurrogateParams(p=5, t=2, delta=1, alpha=0)
        yt = SymPoly.from_dict(2, 5, sp.M, {0: 1})
        out = hecke_T(FormalSum.unit(yt), sp)
        assert len(out) <= 5 + 1

    def test_second_summand_exact(self):
        # [[1,0],[0,p]] . (p^a x^a y^(t-a) - p^(a+d) x^(a+d) y^(t-a-d))
        sp = SurrogateParams(p=5, t=4, delta=2, alpha=1)
        q = 5**sp.M
        h, _ = h_polys(sp, 1)
        out = hecke_T(FormalSum.unit(h), sp)
        rep, _ = coset_decompose(mat(1, 0, 0, 5), 5)
        val = out.terms[rep]
        assert val.sparse() == {1: 5, 3: (-(5**3)) % q}
        assert val.twist == Fraction(-4, 2)

    def test_full_hand_expansion_p5_t2(self):
        # T(1 . h_0) for p=5, t=2, delta=1: hand-expanded oracle, term by term
        sp = SurrogateParams(p=5, t=2, delta=1, alpha=0)
        p, M, q = 5, sp.M, 5**sp.M
        lifts = teichmuller_lifts(p, M)
        h, _ = h_polys(sp, 0)  # y^2 - x y
        got = hecke_T(FormalSum.unit(h), sp)
        expected = FormalSum(p)
        for mu in range(p):
            L = lifts[mu]
            # h_0(x, -Lx+py) = (-Lx+py)^2 - x(-Lx+py)
            entries = {
                2: (L * L + L) % q,
                1: (-2 * L * p - p) % q,
                0: p * p % q,
            }
            value = SymPoly.from_dict(2, p, M, entries, twist=Fraction(-2, 2))
            expected._insert(mat(p, L, 0, 1), value)
        # [[p,0],[0,1]] . h_0 = y^2 - p x y
        value = SymPoly.from_dict(2, p, M, {0: 1, 1: -p % q}, twist=Fraction(-2, 2))
        expected._insert(mat(1, 0, 0, p), value)
        assert got == expected

    def test_linearity(self):
        random.seed(5)
        sp = SurrogateParams(p=5, t=5, delta=2, alpha=1)
        q = 5**sp.M
        gens = [mat(5, 0, 0, 1), mat(1, 0, 0, 5), mat(5, 2, 0, 1), mat(1, 3, 0, 1), mat(0, 1, 1, 0)]

        def rand_sum():
            s = FormalSum(5)
            for _ in range(3):
                g = IDENTITY
                for _ in range(random.randrange(3)):
                    g = mat_mul(g, random.choice(gens))
                s._insert(g, SymPoly(5, 5, sp.M, tuple(random.randrange(q) for _ in range(6))))
            return s

        for _ in range(25):
            s1, s2 = rand_sum(), rand_sum()
            c = random.randrange(1, q)
            assert hecke_T(s1.scale(c) + s2, sp) == hecke_T(s1, sp).scale(c) + hecke_T(s2, sp)

    def test_equivariance(self):
        random.seed(6)
        sp = SurrogateParams(p=7, t=4, delta=1, alpha=0)
        q = 7**sp.M
        gens = [mat(7, 0, 0, 1), mat(1, 0, 0, 7), mat(7, 3, 0, 1), mat(2, 1, 1, 1), mat(0, 1, 1, 0)]

        def rand_sum():
            s = FormalSum(7)
            for _ in range(2):
                g = IDENTITY
                for _ in range(random.randrange(3)):
                    g = mat_mul(g, random.choice(gens))
                s._insert(g, SymPoly(4, 7, sp.M, tuple(random.randrange(q) for _ in range(5))))
            return s

        for _ in range(25):
            s = rand_sum()
            g = random.choice(gens)
            assert hecke_T(s.act(g), sp) == hecke_T(s, sp).act(g)


class TestTExpansion:
    @pytest.mark.parametrize("p,t,d,a", [(5, 2, 1, 0), (5, 4, 2, 1), (7, 3, 1, 0), (5, 8, 4, 3), (7, 8, 4, 2)])
    def test_matches(self, p, t, d, a):
        sp = SurrogateParams(p=p, t=t, delta=d, alpha=a)
        rep = verify_T_expansion(sp, a)
        assert rep.matches, rep.first_mismatch

    def test_combined_form_when_applicable(self):
        # lcm(2, p-1) | delta: the single-power combined form agrees for mu != 0
        sp = SurrogateParams(p=5, t=8, delta=4, alpha=2)
        rep = verify_T_expansion(sp, 2)
        assert rep.combined_form_applicable
        assert rep.combined_form_matches


class TestThetaMachinery:
    # the annihilator's right side p^ecal theta^alpha x^(offset(p-1)) y^(rest),
    # read at the x-exponents i(p-1) + alpha: offset 1 below rho, 0 at rho

    def test_support_and_ratios(self):
        D = build_interior_annihilator(5, 40, 2).row_values
        assert sorted(D) == [1, 2, 3]
        assert D[1] == 5 ** ecal_of(5, 40)
        assert [D[j] / D[1] for j in sorted(D)] == [1, -2, 1]

    def test_alpha0_single_term(self):
        assert build_interior_annihilator(5, 40, 0).row_values == {1: 5 ** ecal_of(5, 40)}

    def test_reconstruction(self):
        # against theta^alpha multiplied out, over Z/modulus with modulus large
        p, modulus = 7, 10**12
        for r, alpha, offset in ((60, 3, 1), (29, 3, 0)):
            poly = [0] * (offset * (p - 1)) + [p ** ecal_of(p, r)]
            for _ in range(alpha):
                poly = theta_times(poly, p, modulus)
            D = build_interior_annihilator(p, r, alpha).row_values
            assert {e: c for e, c in enumerate(poly) if c} == {
                i * (p - 1) + alpha: d % modulus for i, d in D.items()
            }

    def test_theta_factor_mod_p_all_units(self):
        # g(theta^a f) is divisible by theta^a mod p for every integral g
        # with unit determinant (theta is a semi-invariant mod p)
        random.seed(13)
        p, t, alpha = 5, 13, 2
        M = 1
        for _ in range(20):
            while True:
                g = mat(*(random.randrange(p) for _ in range(4)))
                from padicslopes.padic import valuation

                if (g[0] * g[3] - g[1] * g[2]) % p:
                    break
            base = [random.randrange(p)]  # degree t - alpha(p+1) = 1
            base = [random.randrange(p), random.randrange(p)]
            poly = base
            for _ in range(alpha):
                poly = theta_times(poly, p, p)
            f = SymPoly(t, p, M, tuple(poly))
            out = act(g, f)
            assert theta_divides(list(out.coeffs), t, p, p, power=alpha) is not None

    def test_theta_semi_invariance_mod_p(self):
        # act(g, theta^a f) = det(g)^a theta^a act(g, f) mod p for unit-det
        # integral g: theta is the product of all F_p-rational linear forms
        random.seed(17)
        p, t, alpha, M = 5, 13, 2, 1
        for _ in range(20):
            while True:
                g = mat(*(random.randrange(p) for _ in range(4)))
                det = int(g[0] * g[3] - g[1] * g[2]) % p
                if det:
                    break
            base = [random.randrange(p), random.randrange(p)]
            poly = base
            for _ in range(alpha):
                poly = theta_times(poly, p, p)
            lhs = act(g, SymPoly(t, p, M, tuple(poly)))
            inner = act(g, SymPoly(1, p, M, tuple(base)))
            rhs = list(inner.coeffs)
            for _ in range(alpha):
                rhs = theta_times(rhs, p, p)
            rhs = [c * pow(det, alpha, p) % p for c in rhs]
            assert list(lhs.coeffs) == rhs

    def test_theta_factor_exact_for_matched_scalings(self):
        # exact p^M divisibility needs matched (p-1)-th powers on the two
        # variables: g = u I, or diag(a, d) with a^(p-1) = d^(p-1) mod p^M
        p, t, alpha, M = 5, 13, 2, 6
        q = p**M
        poly = [3, 7]
        for _ in range(alpha):
            poly = theta_times(poly, p, q)
        f = SymPoly(t, p, M, tuple(poly))
        for g in [mat(2, 0, 0, 2), mat(3, 0, 0, 3 * teichmuller_lifts(p, M)[2]), mat(0, 1, 1, 0)]:
            out = act(g, f)
            assert theta_divides(list(out.coeffs), t, p, q, power=alpha) is not None
        # ...and fails without the matching, mod p^2 already
        out = act(mat(2, 0, 0, 3), SymPoly(6, p, 2, tuple(theta_times([1], p, p**2))))
        assert theta_divides(list(out.coeffs), 6, p, p**2, power=1) is None

    def test_theta_factor_not_exact_for_shear(self):
        # counterexample justifying the mod-p restriction: [[1,1],[0,1]] does
        # not preserve theta-divisibility mod p^2
        p, t, M = 5, 6, 2
        q = p**M
        poly = theta_times([1], p, q)  # theta itself, degree 6
        f = SymPoly(6, p, M, tuple(poly))
        out = act(mat(1, 1, 0, 1), f)
        assert theta_divides(list(out.coeffs), t, p, q, power=1) is None
        assert theta_divides([c % p for c in out.coeffs], t, p, p, power=1) is not None


class TestModuleRelation:
    def test_rewriting_rule_on_random_triples(self):
        # g1 (g2 . (h w)) = (g1 g2 h) . w for h an integral unit times a
        # central power: both sides canonicalize to the same formal sum
        random.seed(23)
        sp = SurrogateParams(p=5, t=4, delta=1, alpha=0)
        q = 5**sp.M
        group_gens = [mat(5, 0, 0, 1), mat(1, 2, 0, 5), mat(2, 1, 1, 1), mat(0, 1, 1, 0)]
        kz_gens = [mat(1, 3, 0, 1), mat(2, 0, 0, 3), mat(0, 1, 1, 0), mat(5, 0, 0, 5)]

        def rand_from(gens):
            g = IDENTITY
            for _ in range(random.randrange(1, 3)):
                g = mat_mul(g, random.choice(gens))
            return g

        for _ in range(30):
            g1, g2 = rand_from(group_gens), rand_from(group_gens)
            h = rand_from(kz_gens)
            w = SymPoly(4, 5, sp.M, tuple(random.randrange(q) for _ in range(5)))
            lhs = FormalSum.single(g2, act(h, w)).act(g1)
            rhs = FormalSum.single(mat_mul(mat_mul(g1, g2), h), w)
            assert lhs == rhs


class TestDumpFormat:
    def test_golden(self):
        sp = SurrogateParams(p=5, t=2, delta=1, alpha=0)
        h, _ = h_polys(sp, 0)
        s = FormalSum.unit(h)
        s = s + FormalSum.single(mat(5, 1, 0, 1), SymPoly.from_dict(2, 5, sp.M, {2: 3}))
        expected = (
            "[1 0 0 1] twist=0 | 0:1 1:3124\n"
            "[5 1 0 1] twist=0 | 2:3"
        )
        assert s.dump() == expected

    def test_stable_sort(self):
        sp = SurrogateParams(p=5, t=2, delta=1, alpha=0)
        v = SymPoly.from_dict(2, 5, sp.M, {0: 1})
        s1 = FormalSum.single(mat(5, 2, 0, 1), v) + FormalSum.single(mat(1, 0, 0, 5), v)
        s2 = FormalSum.single(mat(1, 0, 0, 5), v) + FormalSum.single(mat(5, 2, 0, 1), v)
        assert s1.dump() == s2.dump()
