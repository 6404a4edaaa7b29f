"""Exact p-adic primitives.

Valuations are exact rationals (never floats); the valuation of zero is the
distinguished object :data:`INFINITY`, which compares larger than every
rational and absorbs addition.  Everything here works over plain ``int`` and
``fractions.Fraction``; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union


class Infinity:
    """Formal +infinity; the valuation of zero.  There is one instance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("padicslopes.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Infinity):
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        return self

    def __neg__(self):
        raise ArithmeticError("negative infinity does not occur as a valuation")


INFINITY = Infinity()

#: A p-adic valuation: an exact rational, or INFINITY (valuation of zero).
ExtendedValuation = Union[int, Fraction, Infinity]


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_prime_gt3(p: int) -> None:
    """The paper's hypothesis on p."""
    if not is_prime(p) or p <= 3:
        raise ValueError(f"p must be a prime > 3, got {p}")


def _vp(n: int, p: int) -> int:
    """v_p of a nonzero int, for a p the caller has already checked.

    Each round divides by p, then by p^2, p^4, ... while each divides, and
    stops at the first p^(2^m) that does not.  A round that starts at
    valuation r has 2^m <= r + 1 < 2^(m+1); it removes 2^m - 1 and leaves
    r + 1 - 2^m, less than half of r + 1.  So there are
    O(log v) rounds of O(log v) divisions each, instead of v divisions.  A
    unit costs one n % p, as before, and v <= 3 takes no more divisions
    than dividing by p one at a time.
    """
    v = 0
    while not n % p:
        n //= p
        v += 1
        q, e = p * p, 2
        while not n % q:
            n //= q
            v += e
            q *= q
            e += e
    return v


def valuation(n: int | Fraction, p: int) -> ExtendedValuation:
    """p-adic valuation of an integer or exact rational; INFINITY for 0."""
    _check_prime(p)
    if n == 0:
        return INFINITY
    if isinstance(n, Fraction):
        return _vp(n.numerator, p) - _vp(n.denominator, p)
    return _vp(n, p)


def factorial_valuation(n: int, p: int) -> int:
    """Legendre's formula: v_p(n!) = sum of floor(n / p^i)."""
    _check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _legendre(n, p)


def _legendre(n: int, p: int) -> int:
    """v_p(n!) for n >= 0, for a p the caller has already checked."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def _digit_sums(p: int, n_max: int) -> list[int]:
    """[s_p(n) for n in 0..n_max], s_p the base-p digit sum (p unchecked).

    By Kummer, (p-1) v_p(C(x + y, x)) = s_p(x) + s_p(y) - s_p(x + y), the
    carries of x + y in base p, so one table gives the valuation of every
    binomial with top at most n_max.  It is the one Kummer route in this
    package; a scalar carry count is kept in tests/lemma_oracle.py as an
    oracle.
    """
    sums = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        sums[n] = sums[n // p] + n % p
    return sums


def binomial_valuation(a: int, b: int, p: int) -> int:
    """v_p(C(a, b)) = v_p(a!) - v_p(b!) - v_p((a-b)!), by Legendre's formula.

    For a >= 1 it is at most floor(log_p(a)) (see lemma_checks.sweep_lemma9).
    """
    _check_prime(p)
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return _legendre(a, p) - _legendre(b, p) - _legendre(a - b, p)


def integer_log(p: int, n: int) -> int:
    """floor(log_p(n)) for p >= 2 and n >= 1: the largest e with p^e <= n."""
    if p < 2:
        raise ValueError(f"need a base p >= 2, got {p}")
    if n < 1:
        raise ValueError("n must be >= 1")
    e = 0
    q = p
    while q <= n:
        e += 1
        q *= p
    return e


def teichmuller_lift(mu: int, p: int, M: int) -> int:
    """The Teichmuller lift of mu mod p, as an integer mod p^M.

    The unique x with x = mu (mod p) and x^p = x (mod p^M), found by
    iterating x <- x^p; each step gains at least one digit, so M steps
    always reach the fixed point.
    """
    _check_prime(p)
    if M < 1:
        raise ValueError("M must be >= 1")
    q = p**M
    x = mu % p
    for _ in range(M):
        y = pow(x, p, q)
        if y == x:
            return x
        x = y
    raise AssertionError("Teichmuller iteration failed to converge")


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, v_p(c_i)) with the slope multiset of roots.

    ``vertices`` lists the hull vertices with strictly increasing index;
    collinear interior points are not vertices.  ``slopes`` is the multiset
    of root valuations, as (valuation, multiplicity) pairs sorted by
    ascending valuation.
    """

    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[tuple[Fraction, int], ...]

    def slope_list(self) -> list[Fraction]:
        """Root valuations expanded with multiplicity, ascending."""
        out: list[Fraction] = []
        for s, m in self.slopes:
            out.extend([s] * m)
        return out


def lower_hull(points: Sequence[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Lower convex hull of points with distinct increasing x; strict turns only."""
    hull: list[tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull[-1] is on or above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(coeffs: Sequence[int | Fraction], p: int) -> NewtonPolygon:
    """Newton polygon of sum(c_i x^i) with respect to p.

    ``coeffs`` is lowest degree first and the leading coefficient must be
    nonzero.  The slope multiset equals the multiset of valuations of the
    nonzero roots in an algebraic closure; root 0 (from a vanishing tail)
    carries no slope.
    """
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    points = [(i, Fraction(valuation(c, p))) for i, c in enumerate(coeffs) if c != 0]
    hull = lower_hull(points)
    # strict turns only, so the segment slopes strictly increase left to right:
    # their negatives, the root valuations, are distinct and ascend right to left
    segments = list(zip(hull, hull[1:]))[::-1]
    slopes = tuple((Fraction(y1 - y2, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in segments)
    return NewtonPolygon(tuple(hull), slopes)


def format_rational(x: int | Fraction | Infinity) -> str:
    """Exact rendering: integers bare, otherwise num/den; INFINITY as 'inf'."""
    if type(x) is int:
        return str(x)
    if isinstance(x, Infinity):
        return "inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
