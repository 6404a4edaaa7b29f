"""Supersingularity measures and the middle-interval support bound.

A weight-k eigenform with Hecke eigenvalue of valuation v contributes a pair
of oldform slopes, the two root valuations of x^2 - a x + p^(k-1); dividing
by k-1 normalizes them into [0, 1].  The support bound excludes an open
middle interval whose width shrinks by the integer-log additive term; all
comparisons are exact rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .modforms import dim_cusp, slopes
from .padic import (
    INFINITY,
    ExtendedValuation,
    format_rational,
    integer_log,
    is_prime,
    lower_hull,
)


def oldform_slope_pair(alpha: ExtendedValuation, k: int) -> tuple[Fraction, Fraction]:
    """Root valuations of x^2 - a x + p^(k-1) with v_p(a) = alpha, via the
    Newton polygon of the quadratic.  Handles a = 0 (alpha = INFINITY) and
    the mid-slope case without case analysis; the pair always sums to k-1.
    """
    points = [(0, Fraction(k - 1))]
    if not isinstance(alpha, type(INFINITY)):
        points.append((1, Fraction(alpha)))
    points.append((2, Fraction(0)))
    hull = lower_hull(points)
    out: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y1 - y2, x2 - x1)
        out.extend([s] * (x2 - x1))
    return (min(out), max(out))


@dataclass(frozen=True)
class SlopeMeasure:
    """Finite multiset of supersingularities (point masses in [0, 1])."""

    p: int
    k: int
    masses: tuple[Fraction, ...]
    includes_newforms: bool
    oldform_count: int
    newform_count: int

    def is_symmetric(self) -> bool:
        return sorted(self.masses) == sorted(1 - m for m in self.masses)


def supersingularity_measure(p: int, k: int, include_newforms: bool = False) -> SlopeMeasure:
    """Point masses of weight-k level-p-new-and-old eigenform supersingularities.

    Each level-1 eigenvalue valuation alpha yields the oldform pair
    {m, k-1-m}/(k-1) with m = min(alpha, (k-1)/2); with include_newforms,
    dim-many extra masses sit at (k-2)/(2(k-1)).
    """
    if k % 2 or k < 4:
        raise ValueError("k must be even and >= 4")
    if not is_prime(p):
        raise ValueError("p must be prime")
    masses: list[Fraction] = []
    level1 = slopes(p, k) if k >= 12 else []
    for alpha in level1:
        lo, hi = oldform_slope_pair(alpha, k)
        masses.append(lo / (k - 1))
        masses.append(hi / (k - 1))
    newform_count = 0
    if include_newforms:
        newform_count = dim_cusp(k, p) - 2 * dim_cusp(k)
        masses.extend([Fraction(k - 2, 2 * (k - 1))] * newform_count)
    for m in masses:
        if not 0 <= m <= 1:
            raise AssertionError("mass outside [0, 1] (bug)")
    return SlopeMeasure(
        p=p,
        k=k,
        masses=tuple(sorted(masses)),
        includes_newforms=include_newforms,
        oldform_count=2 * len(level1),
        newform_count=newform_count,
    )


@dataclass(frozen=True)
class SupportBound:
    """The open middle interval (left_end, right_end) that the measures are
    expected to avoid: left_end = 1/(p+1) + L/(k-1) with the integer log
    L = floor(log_p(k-1)), and right_end its mirror 1 - left_end."""

    p: int
    k: int
    left_end: Fraction
    right_end: Fraction


def support_bound(p: int, k: int) -> SupportBound:
    if k < 3:
        raise ValueError("k must be >= 3")
    left = Fraction(1, p + 1) + Fraction(integer_log(p, k - 1), k - 1)
    return SupportBound(p=p, k=k, left_end=left, right_end=1 - left)


def mass_in_middle(measure: SlopeMeasure, bound: SupportBound) -> tuple[int, Fraction]:
    """(count, fraction) of masses strictly inside the open middle interval."""
    if (measure.p, measure.k) != (bound.p, bound.k):
        raise ValueError("measure and bound belong to different (p, k) cells")
    count = sum(1 for m in measure.masses if bound.left_end < m < bound.right_end)
    total = len(measure.masses)
    return count, Fraction(count, total) if total else Fraction(0)


@dataclass(frozen=True)
class RegularityReport:
    p: int
    k_range: tuple[int, ...]
    regular: bool
    vacuous: bool
    witnesses: tuple[tuple[int, ExtendedValuation], ...]  # (k, positive slope)


def is_regular(p: int, k_max: int | None = None) -> RegularityReport:
    """Slope-zero test over even weights 12 <= k <= p+1 (configurable top):
    p is regular iff every low-weight eigenvalue is a p-adic unit.  Primes
    below 11 have no cusp forms in range, so they are vacuously regular."""
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    top = p + 1 if k_max is None else k_max
    ks = tuple(k for k in range(12, top + 1) if k % 2 == 0)
    witnesses = []
    for k in ks:
        for s in slopes(p, k):
            if s > 0:
                witnesses.append((k, s))
    return RegularityReport(
        p=p,
        k_range=ks,
        regular=not witnesses,
        vacuous=not any(dim_cusp(k) for k in ks),
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class ProfileRow:
    p: int
    k: int
    dim_old: int
    dim_new: int
    count_middle: int
    fraction_middle: Fraction
    left_end: Fraction
    right_end: Fraction
    masses: tuple[Fraction, ...]


@dataclass(frozen=True)
class ProfileTable:
    p: int
    include_newforms: bool
    rows: tuple[ProfileRow, ...]
    cutoff: str | None  # set when the resource guard stopped the sweep


def profile_row(p: int, k: int, include_newforms: bool = False) -> ProfileRow:
    """The middle-interval mass count of one weight."""
    measure = supersingularity_measure(p, k, include_newforms)
    bound = support_bound(p, k)
    count, frac = mass_in_middle(measure, bound)
    return ProfileRow(
        p=p,
        k=k,
        dim_old=measure.oldform_count,
        dim_new=measure.newform_count,
        count_middle=count,
        fraction_middle=frac,
        left_end=bound.left_end,
        right_end=bound.right_end,
        masses=measure.masses,
    )


def middle_mass_profile(
    p: int,
    k_min: int,
    k_max: int,
    include_newforms: bool = False,
    max_dim: int = 80,
    starmap: Callable = itertools.starmap,
) -> ProfileTable:
    """Per-weight middle-interval mass counts over even k in [k_min, k_max].

    ``max_dim`` is a resource guard on the cusp-space dimension; exceeding it
    stops the sweep with an explicit cutoff marker instead of truncating
    silently.  The weights are listed up to the cutoff first, and
    ``starmap(profile_row, tasks)`` computes their rows in order (a process
    pool's starmap works too).
    """
    ks = []
    cutoff = None
    for k in range(max(4, k_min + (k_min % 2)), k_max + 1, 2):
        d = dim_cusp(k)
        if d > max_dim:
            cutoff = f"max_dim guard: dim S_{k} = {d} > {max_dim}"
            break
        ks.append(k)
    rows = starmap(profile_row, [(p, k, include_newforms) for k in ks])
    return ProfileTable(p=p, include_newforms=include_newforms, rows=tuple(rows), cutoff=cutoff)


PROFILE_CSV_HEADER = [
    "p", "k", "dim_old", "dim_new", "count_middle", "fraction_middle", "left_end", "right_end",
]


def profile_to_dict(table: ProfileTable) -> dict:
    return {
        "p": table.p,
        "include_newforms": table.include_newforms,
        "cutoff": table.cutoff,
        "rows": [
            {
                "p": row.p,
                "k": row.k,
                "dim_old": row.dim_old,
                "dim_new": row.dim_new,
                "count_middle": row.count_middle,
                "fraction_middle": format_rational(row.fraction_middle),
                "left_end": format_rational(row.left_end),
                "right_end": format_rational(row.right_end),
                "masses": [format_rational(m) for m in row.masses],
            }
            for row in table.rows
        ],
    }


SLOPES_CSV_HEADER = ["p", "k", "slope"]
