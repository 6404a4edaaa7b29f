import ast
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicslopes import symhecke
from padicslopes.combinatorics import build_interior_annihilator, ecal_of
from padicslopes.padic import teichmuller_lift, valuation
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
    mat_mul,
    teichmuller_lifts,
    verify_T_expansion,
)
from symhecke_oracle import act_by_expansion, hecke_T_two_step
from test_acceptance import gate_cells


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
        self.sp = SurrogateParams(p=5, t=4, delta=2)

    def test_identity(self):
        h, _ = h_polys(self.sp, 1)
        assert act(IDENTITY, h) == h

    def test_diagonal_scaling(self):
        mono = SymPoly.from_dict(4, 5, self.sp.M, {1: 1})
        out = act((1, 0, 0, 5), mono)
        assert out.sparse() == {1: 5**3}
        assert out.twist == Fraction(-4, 2)

    def test_action_convention_matches_mu_matrix(self):
        # [[1,-L],[0,p]] h_a = x^a (-L x + p y)^(t-a) - x^(a+d) (-L x + p y)^(t-a-d)
        sp = self.sp
        q = 5**sp.M
        L = teichmuller_lifts(5, sp.M)[2]
        h, _ = h_polys(sp, 1)
        got = act((1, -L, 0, 5), h)
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
        for m in (1, 2):
            assert act((5**m, 0, 0, 5**m), h) == h

    def test_rejects_singular(self):
        h, _ = h_polys(self.sp, 1)
        with pytest.raises(ZeroDivisionError):
            act((1, 2, 2, 4), h)

    def test_rejects_fraction_entries(self):
        h, _ = h_polys(self.sp, 1)
        with pytest.raises(TypeError):
            act((Fraction(1, 5), 0, 0, 1), h)

    def test_composition(self):
        # row substitution composes as act(g1) o act(g2) = act(g1 g2)
        random.seed(3)
        q = 5**self.sp.M
        f = SymPoly(4, 5, self.sp.M, tuple(random.randrange(q) for _ in range(5)))
        g1 = (2, 1, 0, 3)
        g2 = (1, 4, 5, 1)
        assert act(g1, act(g2, f)) == act(mat_mul(g1, g2), f)


def _random_entry(rng, p):
    """A nonzero int, negative half the time and p-divisible half the time."""
    return rng.randint(1, 60) * p ** rng.choice((0, 0, 1, 2)) * rng.choice((1, -1))


def _oracle_cases(seed=29, count=600):
    """Seeded (g, f) pairs: g lower triangular, upper triangular, diagonal or
    full, with negative and p-divisible entries and c a unit or not; t in
    0..12, M in 1..20, f sparse or dense, twists zero or not."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        t, M = rng.randint(0, 12), rng.randint(1, 20)
        q = p**M
        a, b, c, d = (_random_entry(rng, p) for _ in range(4))
        shape = rng.choice(("lower", "upper", "diagonal", "full", "full"))
        if shape in ("upper", "diagonal"):
            c = 0
        if shape in ("lower", "diagonal"):
            b = 0
        g = (a, b, c, d)
        if a * d - b * c == 0:
            continue
        if rng.random() < 0.5:  # sparse: one or two terms
            support = rng.sample(range(t + 1), min(t + 1, rng.randint(1, 2)))
            coeffs = tuple(rng.randrange(1, q) if e in support else 0 for e in range(t + 1))
        else:
            coeffs = tuple(rng.randrange(q) for _ in range(t + 1))
        twist = Fraction(rng.randint(-6, 6), 2)
        cases.append((g, SymPoly(t, p, M, coeffs, twist)))
    return cases


def _mismatches(cases):
    return [(g, f) for g, f in cases if act(g, f) != act_by_expansion(g, f)]


class TestActOracle:
    """The closed-form act against the nested-loop expansion in
    tests/symhecke_oracle.py.  hecke_T never sends c != 0, and both sides of
    verify_T_expansion pass through act, so this is the backstop."""

    def test_cases_cover_the_shapes(self):
        cases = _oracle_cases()
        assert any(g[1] == 0 and g[2] % f.p for g, f in cases)  # lower, c a unit
        assert any(g[2] and g[2] % f.p == 0 for g, f in cases)  # c p-divisible
        assert any(all(g) and min(g) < 0 for g, f in cases)  # full, negative
        # upper triangular on a dense f at t >= 8: the shape of every g that T makes
        assert any(g[1] and g[2] == 0 and f.degree >= 8 and all(f.coeffs) for g, f in cases)
        assert {f.degree for g, f in cases} == set(range(13))
        assert {f.M for g, f in cases} == set(range(1, 21))
        assert any(f.twist for g, f in cases)

    def test_matches_oracle(self):
        assert _mismatches(_oracle_cases()) == []

    @pytest.mark.parametrize("n,k", [(1, 0), (4, 1), (7, 3), (12, 6)])
    def test_sees_one_binomial_off_by_one(self, monkeypatch, n, k):
        pascal = symhecke._pascal

        def off_by_one(t):
            rows = [list(row) for row in pascal(t)]
            if n <= t:
                rows[n][k] += 1
            return rows

        monkeypatch.setattr(symhecke, "_pascal", off_by_one)
        assert _mismatches(_oracle_cases())

    def test_sees_the_row_kernel(self, monkeypatch):
        # _pascal reads its rows from combinatorics._binomial_row at each miss
        kernel = symhecke._binomial_row

        def off_by_one(n, k, length, top_step=1):
            row = kernel(n, k, length, top_step)
            if n == 7:
                row[3] += 1
            return row

        monkeypatch.setattr(symhecke, "_binomial_row", off_by_one)
        assert _mismatches(_oracle_cases())


class TestSymPolyValidation:
    @pytest.mark.parametrize("M", [0, -1])
    def test_rejects_precision_below_one(self, M):
        with pytest.raises(ValueError):
            SymPoly(2, 5, M, (1, 2, 3))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            SymPoly(-1, 5, 3, ())

    @pytest.mark.parametrize("p", [1, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="prime"):
            SymPoly(2, p, 3, (1, 2, 3))

    def test_smallest_valid(self):
        f = SymPoly(0, 5, 1, (7,))
        assert f.coeffs == (2,)


class TestLiftCache:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_tuple_of_lifts_shared_across_calls(self, p):
        for M in range(1, 21):
            lifts = teichmuller_lifts(p, M)
            assert type(lifts) is tuple
            assert lifts == tuple(teichmuller_lift(mu, p, M) for mu in range(p))
            assert teichmuller_lifts(p, M) is lifts

    def test_hecke_T_cold_and_warm(self):
        sp = SurrogateParams(p=7, t=6, delta=2)
        h, _ = h_polys(sp, 1)
        teichmuller_lifts.cache_clear()
        cold = hecke_T(FormalSum.unit(h), sp)
        assert teichmuller_lifts.cache_info().currsize == 1
        warm = hecke_T(FormalSum.unit(h), sp)
        assert teichmuller_lifts.cache_info().hits >= 1
        assert cold == warm


class TestHPolys:
    def test_alpha0_example(self):
        sp = SurrogateParams(p=5, t=3, delta=1)
        h, _ = h_polys(sp, 0)
        q = 5**sp.M
        assert h.sparse() == {0: 1, 1: q - 1}  # y^3 - x y^2

    def test_star_leading_degree(self):
        sp = SurrogateParams(p=7, t=6, delta=2)
        _, hs = h_polys(sp, 1)
        assert max(hs.sparse()) == 6 - 1

    def test_involution(self):
        sp = SurrogateParams(p=5, t=6, delta=2)
        h, hs = h_polys(sp, 2)
        swap = (0, 1, 1, 0)
        assert act(swap, hs) == h
        assert act(swap, h) == hs

    def test_range_check(self):
        sp = SurrogateParams(p=5, t=6, delta=2)
        with pytest.raises(ValueError):
            h_polys(sp, 3)


class TestCosets:
    def test_central_is_identity_class(self):
        rep, _ = coset_decompose((5, 0, 0, 5), 5)
        assert rep == coset_decompose(IDENTITY, 5)[0]

    def test_diag_p_1_distinct(self):
        assert coset_decompose((5, 0, 0, 1), 5)[0] != coset_decompose(IDENTITY, 5)[0]

    def test_mu_classes_distinct(self):
        lifts = teichmuller_lifts(5, 8)
        reps = {coset_decompose((5, lifts[mu], 0, 1), 5)[0] for mu in range(5)}
        assert len(reps) == 5

    def test_right_coset_invariance(self):
        # multiplying by integral units or central powers never moves the class
        random.seed(11)
        p = 5
        g = (25, 7, 0, 1)
        base, _ = coset_decompose(g, p)
        kz_elements = [
            (1, 3, 0, 1),
            (2, 0, 0, 3),
            (0, 1, 1, 0),
            (1, 0, 4, 1),
            (5, 0, 0, 5),
            (25, 0, 0, 25),
        ]
        for h in kz_elements:
            rep, _ = coset_decompose(mat_mul(g, h), p)
            assert rep == base

    @settings(max_examples=400, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        xs=st.tuples(*[st.integers(-60, 60)] * 4),
        ks=st.tuples(*[st.integers(0, 4)] * 4),
    )
    @example(p=5, xs=(5, 3, 0, 1), ks=(0, 0, 0, 0))
    @example(p=5, xs=(1, 0, 5, 25), ks=(0, 0, 0, 0))
    @example(p=5, xs=(1, 10, 15, 35), ks=(0, 0, 0, 0))
    def test_decomposition_reconstructs(self, p, xs, ks):
        # g = key @ h, h = p^m (integral unit), and the key in Hermite shape:
        # the Hermite form is unique, so these pin the key independently
        g = tuple(x * p**k for x, k in zip(xs, ks))
        assume(g[0] * g[3] - g[1] * g[2] != 0)
        rep, h = coset_decompose(g, p)
        assert all(type(e) is int for e in h)
        assert mat_mul(rep.matrix(), h) == g
        det_v = valuation(h[0] * h[3] - h[1] * h[2], p)
        assert det_v % 2 == 0
        m = det_v // 2
        assert all(e % p**m == 0 for e in h)
        unit = tuple(e // p**m for e in h)
        assert (unit[0] * unit[3] - unit[1] * unit[2]) % p
        assert 0 <= rep.c_val < p**rep.a_exp
        assert min(rep.a_exp, rep.d_exp, valuation(rep.c_val, p)) == 0

    def test_rejects_fraction_entries(self):
        with pytest.raises(TypeError):
            coset_decompose((Fraction(1, 5), 2, 3, 7), 5)

    @pytest.mark.parametrize("p", [1, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="prime"):
            coset_decompose((4, 1, 0, 1), p)

    @pytest.mark.parametrize("g", [(3, 5, 0, 25), (2, 3, 0, 1), (25, 7, 10, 0), (1, 1, 5, 0)])
    def test_zero_bottom_entry(self, g):
        # primitive g with c = 0 or d = 0: the other bottom entry sets d_exp
        rep, h = coset_decompose(g, 5)
        assert mat_mul(rep.matrix(), h) == g
        assert rep.d_exp == valuation(g[2] or g[3], 5)

    def test_key_contract(self):
        # first_mismatch strings and FormalSum.dump() embed the key, and
        # support() sorts keys by their fields in order
        rep = CosetRep(1, 0, 2, 5)
        assert repr(rep) == "CosetRep(a_exp=1, d_exp=0, c_val=2, p=5)"
        assert rep.matrix() == (5, 2, 0, 1) and CosetRep(0, 2, 0, 5).matrix() == (1, 0, 0, 25)
        keys = [CosetRep(*k) for k in ((1, 0, 2, 5), (0, 1, 0, 5), (1, 0, 0, 5), (2, 0, 7, 5), (0, 0, 0, 5))]
        fields = [(k.a_exp, k.d_exp, k.c_val, k.p) for k in sorted(keys)]
        assert fields == sorted((k.a_exp, k.d_exp, k.c_val, k.p) for k in keys)
        with pytest.raises(AttributeError):
            rep.c_val = 3

    def test_canonical_form_invariants(self):
        rep, _ = coset_decompose((50, 7, 0, 10), 5)
        assert 0 <= rep.c_val < 5**rep.a_exp
        vals = [rep.a_exp, rep.d_exp]
        if rep.c_val:
            vals.append(valuation(rep.c_val, 5))
        assert min(vals) == 0


class TestHeckeOperator:
    def test_support_bound(self):
        sp = SurrogateParams(p=5, t=2, delta=1)
        yt = SymPoly.from_dict(2, 5, sp.M, {0: 1})
        out = hecke_T(FormalSum.unit(yt), sp)
        assert len(out) <= 5 + 1

    def test_second_summand_exact(self):
        # [[1,0],[0,p]] . (p^a x^a y^(t-a) - p^(a+d) x^(a+d) y^(t-a-d))
        sp = SurrogateParams(p=5, t=4, delta=2)
        q = 5**sp.M
        h, _ = h_polys(sp, 1)
        out = hecke_T(FormalSum.unit(h), sp)
        rep, _ = coset_decompose((1, 0, 0, 5), 5)
        val = out.terms[rep]
        assert val.sparse() == {1: 5, 3: (-(5**3)) % q}
        assert val.twist == Fraction(-4, 2)

    def test_full_hand_expansion_p5_t2(self):
        # T(1 . h_0) for p=5, t=2, delta=1: hand-expanded oracle, term by term
        sp = SurrogateParams(p=5, t=2, delta=1)
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
            expected._insert((p, L, 0, 1), value)
        # [[p,0],[0,1]] . h_0 = y^2 - p x y
        value = SymPoly.from_dict(2, p, M, {0: 1, 1: -p % q}, twist=Fraction(-2, 2))
        expected._insert((1, 0, 0, p), value)
        assert got == expected

    def test_rejects_sum_at_other_prime(self):
        s = FormalSum.unit(SymPoly(4, 5, 7, (1, 2, 3, 4, 5)))
        with pytest.raises(ValueError, match="p=5"):
            hecke_T(s, SurrogateParams(p=7, t=4, delta=1))

    def test_sums_at_different_primes_do_not_merge(self):
        s5 = FormalSum.unit(SymPoly(2, 5, 3, (1, 2, 3)))
        s7 = FormalSum.unit(SymPoly(2, 7, 3, (1, 2, 3)))
        for combine in (FormalSum.__add__, FormalSum.__sub__):
            with pytest.raises(ValueError, match="p=5 and p=7"):
                combine(s5, s7)

    def test_terms_written_only_by_init_and_accumulate(self):
        # every merge goes through FormalSum._accumulate; __init__ and the
        # unchecked _empty only start the dict
        tree = ast.parse(inspect.getsource(FormalSum))
        writers = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                        target = node.value
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                        target = node
                    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                            node.func.attr in ("pop", "update", "clear", "setdefault", "popitem"):
                        target = node.func.value
                    else:
                        continue
                    if isinstance(target, ast.Attribute) and target.attr == "terms":
                        writers.add(fn.name)
        assert writers == {"__init__", "_empty", "_accumulate"}

    def test_difference_and_scaling(self):
        f = SymPoly(3, 5, 6, (1, 2, 3, 4))
        s = FormalSum.single((5, 1, 0, 1), f) + FormalSum.single((1, 0, 0, 5), f)
        assert len(s) == 2
        assert s + s == s.scale(2)
        assert s - s.scale(2) == s.scale(-1)
        assert len(s - s) == 0 and len(s.scale(5**6)) == 0

    def test_linearity(self):
        random.seed(5)
        sp = SurrogateParams(p=5, t=5, delta=2)
        q = 5**sp.M
        gens = [(5, 0, 0, 1), (1, 0, 0, 5), (5, 2, 0, 1), (1, 3, 0, 1), (0, 1, 1, 0)]

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
        sp = SurrogateParams(p=7, t=4, delta=1)
        q = 7**sp.M
        gens = [(7, 0, 0, 1), (1, 0, 0, 7), (7, 3, 0, 1), (2, 1, 1, 1), (0, 1, 1, 0)]

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


def _random_keyed_sums(seed=41, per_prime=4):
    """Seeded (sp, s) pairs for p in {5, 7, 11, 13} and t <= 12: s has one
    to three terms with keys built as products of (p,0,0,1), (1,0,0,p),
    (p,c,0,1) and (0,1,1,0), dense or one-term values, and one nonzero
    twist per sum (terms sharing a key must share a twist)."""
    rng = random.Random(seed)
    cases = []
    for p in (5, 7, 11, 13):
        for _ in range(per_prime):
            sp = SurrogateParams(p=p, t=rng.randint(1, 12), delta=rng.randint(1, 3))
            t, q = sp.t, p**sp.M
            twist = Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), 2)
            s = FormalSum(p)
            for _ in range(rng.randint(1, 3)):
                g = IDENTITY
                for _ in range(rng.randint(1, 3)):
                    gen = rng.choice(((p, 0, 0, 1), (1, 0, 0, p), (p, rng.randrange(p * p), 0, 1), (0, 1, 1, 0)))
                    g = mat_mul(g, gen)
                if rng.random() < 0.5:
                    coeffs = tuple(rng.randrange(q) for _ in range(t + 1))
                else:
                    e0 = rng.randint(0, t)
                    coeffs = tuple(rng.randrange(1, q) if e == e0 else 0 for e in range(t + 1))
                s._insert(g, SymPoly(t, p, sp.M, coeffs, twist))
            cases.append((sp, s))
    return cases


def _inner_matrices(gamma, p, lifts):
    """(g, k) for the p + 1 images of a term at key gamma: T inserts
    g . (k . v)."""
    yield from ((mat_mul(gamma, (p, lift, 0, 1)), (1, -lift, 0, p)) for lift in lifts)
    yield mat_mul(gamma, (1, 0, 0, p)), (p, 0, 0, 1)


class TestFusedHecke:
    """hecke_T makes one action per (term, mu) by fusing the inner matrix k
    with the clean-up h of the new key; hecke_T_two_step in
    tests/symhecke_oracle.py acts by k and then by h."""

    def test_cases_cover_keys_and_twists(self):
        cases = _random_keyed_sums()
        reps = [rep for _, s in cases for rep in s.terms]
        assert any(rep.a_exp and rep.c_val for rep in reps)
        assert any(rep.d_exp for rep in reps)
        assert all(v.twist for _, s in cases for v in s.terms.values())
        assert {sp.p for sp, _ in cases} == {5, 7, 11, 13}

    def test_matches_two_step(self):
        for sp, s in _random_keyed_sums():
            once = hecke_T(s, sp)
            assert once == hecke_T_two_step(s, sp)
            assert hecke_T(once, sp) == hecke_T_two_step(hecke_T_two_step(s, sp), sp)

    def test_clean_up_composes_with_the_inner_matrix(self):
        # h = p^m U with U an integral unit, so h k has the content of k
        for sp, s in _random_keyed_sums():
            lifts = teichmuller_lifts(sp.p, sp.M)
            for terms in (s.terms, hecke_T(s, sp).terms):
                for rep, v in terms.items():
                    for g, k in _inner_matrices(rep.matrix(), sp.p, lifts):
                        _, h = coset_decompose(g, sp.p)
                        assert act(h, act(k, v)) == act(mat_mul(h, k), v)

    def test_scalings_do_not_compose(self):
        # the restriction in _insert's docstring: (p,0,0,1)(1,0,0,p) is
        # central and acts trivially, but the two steps scale by p^t
        f = SymPoly(4, 5, 7, (1, 2, 3, 4, 5), Fraction(1, 2))
        two_steps = act((5, 0, 0, 1), act((1, 0, 0, 5), f))
        assert act(mat_mul((5, 0, 0, 1), (1, 0, 0, 5)), f) == f
        assert two_steps.twist == f.twist - 4
        assert two_steps.coeffs == tuple(c * 5**4 % 5**7 for c in f.coeffs)

    def test_one_act_per_image(self, monkeypatch):
        calls = []
        counted = symhecke.act

        def counting(g, f):
            calls.append(g)
            return counted(g, f)

        monkeypatch.setattr(symhecke, "act", counting)
        for sp, s in _random_keyed_sums(per_prime=2):
            calls.clear()
            hecke_T(s, sp)
            assert len(calls) == (sp.p + 1) * len(s)

    def test_every_gate_action_is_upper_triangular(self, monkeypatch):
        # act's common case: on the gate grid of criterion 8, each primitive
        # g_0 that hecke_T and verify_T_expansion act by has c = 0
        g0s = []
        counted = symhecke.act

        def recording(g, f):
            g0s.append(symhecke._primitive(g, f.p)[1])
            return counted(g, f)

        monkeypatch.setattr(symhecke, "act", recording)
        for p, t, delta, alpha in gate_cells("hecke"):
            assert verify_T_expansion(SurrogateParams(p, t, delta), alpha).matches
        assert [g0[2] for g0 in g0s] == [0] * len(g0s)
        assert any(g0 != IDENTITY for g0 in g0s)

    def test_T_on_a_built_sum_checks_nothing(self, monkeypatch):
        # p was checked when each sum and SurrogateParams was built
        cases = _random_keyed_sums(per_prime=2)
        checks = []
        monkeypatch.setattr(symhecke, "_check_prime", checks.append)
        for sp, s in cases:
            hecke_T(hecke_T(s, sp), sp)
        assert checks == []

    def test_internal_results_skip_validation(self, monkeypatch):
        rng = random.Random(43)
        sp = SurrogateParams(p=7, t=6, delta=2)
        q = 7**sp.M
        fs = [SymPoly(6, 7, sp.M, tuple(rng.randrange(q) for _ in range(7))) for _ in range(100)]
        checks = []
        monkeypatch.setattr(symhecke, "_check_prime", checks.append)
        for f in fs:
            g = tuple(rng.randint(-50, 50) or 1 for _ in range(4))
            if g[0] * g[3] != g[1] * g[2]:
                out = act(g, f)
                out.scale(3) + out - out
        assert checks == []
        SymPoly(6, 7, sp.M, fs[0].coeffs)
        assert checks == [7]

    def test_expansion_validates_only_its_inputs(self, monkeypatch):
        # SurrogateParams checks p and delta when the cell is built; h, h*,
        # a_val, the xi-sum values and every sum of the cell are built from it
        # without the public constructors or a second check of p
        sp = SurrogateParams(p=7, t=8, delta=6)
        built, checks = [], []
        post_init = SymPoly.__post_init__
        monkeypatch.setattr(SymPoly, "__post_init__", lambda self: built.append(self) or post_init(self))
        monkeypatch.setattr(symhecke, "_check_prime", checks.append)
        rep = verify_T_expansion(sp, 2)
        assert rep.matches
        assert built == [] and checks == []


def _insert_fusing(fuse):
    """FormalSum._insert with the fused matrix act(fuse(h, k), value)."""

    def _insert(self, g, value, k=IDENTITY):
        if value.is_zero():
            return
        rep, h = coset_decompose(g, self.p)
        self._accumulate(rep, act(fuse(h, k), value))

    return _insert


class TestFusionMutations:
    """verify_T_expansion sees a wrongly fused action.  It cannot see a
    fusion that drops h: the xi-sum side inserts through the same _insert,
    so both sides lose the same clean-up, and so does hecke_T_two_step.
    TestModuleRelation and test_equivariance catch that mutant."""

    sp = SurrogateParams(5, 8, 4)

    def test_control(self, monkeypatch):
        monkeypatch.setattr(FormalSum, "_insert", _insert_fusing(mat_mul))
        assert verify_T_expansion(self.sp, 3).matches

    @pytest.mark.parametrize(
        "fuse", [lambda h, k: mat_mul(k, h), lambda h, k: h], ids=["wrong-order", "ignores-k"]
    )
    def test_mutant_fails(self, monkeypatch, fuse):
        monkeypatch.setattr(FormalSum, "_insert", _insert_fusing(fuse))
        assert not verify_T_expansion(self.sp, 3).matches


class TestTExpansion:
    @pytest.mark.parametrize("p,t,d,a", [(5, 2, 1, 0), (5, 4, 2, 1), (7, 3, 1, 0), (5, 8, 4, 3), (7, 8, 4, 2)])
    def test_matches(self, p, t, d, a):
        sp = SurrogateParams(p=p, t=t, delta=d)
        rep = verify_T_expansion(sp, a)
        assert rep.matches, rep.first_mismatch


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
                g = tuple(random.randrange(p) for _ in range(4))
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
                g = tuple(random.randrange(p) for _ in range(4))
                det = (g[0] * g[3] - g[1] * g[2]) % p
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
        for g in [(2, 0, 0, 2), (3, 0, 0, 3 * teichmuller_lifts(p, M)[2]), (0, 1, 1, 0)]:
            out = act(g, f)
            assert theta_divides(list(out.coeffs), t, p, q, power=alpha) is not None
        # ...and fails without the matching, mod p^2 already
        out = act((2, 0, 0, 3), SymPoly(6, p, 2, tuple(theta_times([1], p, p**2))))
        assert theta_divides(list(out.coeffs), 6, p, p**2, power=1) is None

    def test_theta_factor_not_exact_for_shear(self):
        # counterexample justifying the mod-p restriction: [[1,1],[0,1]] does
        # not preserve theta-divisibility mod p^2
        p, t, M = 5, 6, 2
        q = p**M
        poly = theta_times([1], p, q)  # theta itself, degree 6
        f = SymPoly(6, p, M, tuple(poly))
        out = act((1, 1, 0, 1), f)
        assert theta_divides(list(out.coeffs), t, p, q, power=1) is None
        assert theta_divides([c % p for c in out.coeffs], t, p, p, power=1) is not None


class TestModuleRelation:
    def test_rewriting_rule_on_random_triples(self):
        # g1 (g2 . (h w)) = (g1 g2 h) . w for h an integral unit times a
        # central power: both sides canonicalize to the same formal sum
        random.seed(23)
        sp = SurrogateParams(p=5, t=4, delta=1)
        q = 5**sp.M
        group_gens = [(5, 0, 0, 1), (1, 2, 0, 5), (2, 1, 1, 1), (0, 1, 1, 0)]
        kz_gens = [(1, 3, 0, 1), (2, 0, 0, 3), (0, 1, 1, 0), (5, 0, 0, 5)]

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


class TestFormalSumArithmetic:
    @pytest.mark.parametrize("p", [4, 0, -2])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="prime"):
            FormalSum(p)

    def test_sub_is_add_of_negation(self):
        rng = random.Random(37)
        sp = SurrogateParams(p=5, t=3, delta=1)
        q = 5**sp.M
        keys = [IDENTITY, (5, 0, 0, 1), (1, 0, 0, 5), (5, 2, 0, 1)]

        def rand_sum():
            s = FormalSum(5)
            for g in rng.sample(keys, 3):
                s._insert(g, SymPoly(3, 5, sp.M, tuple(rng.randrange(q) for _ in range(4))))
            return s

        for _ in range(20):
            s1, s2 = rand_sum(), rand_sum()
            assert s1 - s2 == s1 + s2.scale(-1)
            assert len(s1 - s1) == 0
            assert (s1 - s2) + s2 == s1


class TestDumpFormat:
    def test_golden(self):
        sp = SurrogateParams(p=5, t=2, delta=1)
        h, _ = h_polys(sp, 0)
        s = FormalSum.unit(h)
        s = s + FormalSum.single((5, 1, 0, 1), SymPoly.from_dict(2, 5, sp.M, {2: 3}))
        expected = (
            "[1 0 0 1] twist=0 | 0:1 1:3124\n"
            "[5 1 0 1] twist=0 | 2:3"
        )
        assert s.dump() == expected

    def test_stable_sort(self):
        sp = SurrogateParams(p=5, t=2, delta=1)
        v = SymPoly.from_dict(2, 5, sp.M, {0: 1})
        s1 = FormalSum.single((5, 2, 0, 1), v) + FormalSum.single((1, 0, 0, 5), v)
        s2 = FormalSum.single((1, 0, 0, 5), v) + FormalSum.single((5, 2, 0, 1), v)
        assert s1.dump() == s2.dump()
