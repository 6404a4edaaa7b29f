import json
from fractions import Fraction

import pytest

from padicslopes.measures import (
    SlopeMeasure,
    support_bound,
    is_regular,
    mass_in_middle,
    middle_mass_profile,
    oldform_slope_pair,
    supersingularity_measure,
)
from padicslopes.cli import main as cli_main
from padicslopes.padic import INFINITY, lower_hull


def slope_pair_by_hull(alpha, k):
    """The oldform pair read off the lower hull of (0, k-1), (1, alpha), (2, 0)."""
    points = [(0, Fraction(k - 1))]
    if alpha is not INFINITY:
        points.append((1, Fraction(alpha)))
    points.append((2, Fraction(0)))
    hull = lower_hull(points)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.extend([Fraction(y1 - y2, x2 - x1)] * (x2 - x1))
    return min(out), max(out)


class TestOldformPair:
    def test_generic(self):
        assert oldform_slope_pair(1, 12) == (1, 10)
        assert oldform_slope_pair(3, 12) == (3, 8)

    def test_pair_sums_to_weight_minus_one(self):
        for alpha, k in [(0, 12), (5, 16), (7, 16), (Fraction(9, 2), 20)]:
            lo, hi = oldform_slope_pair(alpha, k)
            assert lo + hi == k - 1

    def test_high_slope_clamps_to_middle(self):
        assert oldform_slope_pair(10, 16) == (Fraction(15, 2), Fraction(15, 2))

    def test_zero_eigenvalue(self):
        assert oldform_slope_pair(INFINITY, 12) == (Fraction(11, 2), Fraction(11, 2))

    def test_closed_form_matches_hull(self):
        for k in range(2, 200, 2):
            alphas = [INFINITY] + [Fraction(n, d) if d > 1 else n for n in range(3 * k) for d in (1, 2, 3)]
            for alpha in alphas:
                pair = oldform_slope_pair(alpha, k)
                assert pair == slope_pair_by_hull(alpha, k)
                assert all(type(s) is Fraction for s in pair)


class TestMeasure:
    def test_5_12(self):
        m = supersingularity_measure(5, 12)
        assert m.masses == (Fraction(1, 11), Fraction(10, 11))

    def test_2_12(self):
        m = supersingularity_measure(2, 12)
        assert m.masses == (Fraction(3, 11), Fraction(8, 11))

    def test_59_16_exception(self):
        m = supersingularity_measure(59, 16)
        assert m.masses == (Fraction(1, 15), Fraction(14, 15))
        lo = m.masses[0]
        assert Fraction(1, 60) < lo < Fraction(59, 60)

    def test_oldform_count(self):
        from padicslopes.modforms import dim_cusp

        for p, k in [(5, 24), (7, 36)]:
            m = supersingularity_measure(p, k)
            assert m.oldform_count == 2 * dim_cusp(k)
            assert len(m.masses) == m.oldform_count

    def test_symmetry_oldforms(self):
        for p, k in [(2, 12), (5, 24), (7, 36), (59, 16)]:
            assert supersingularity_measure(p, k).is_symmetric()

    def test_pairwise_masses_sum_to_one(self):
        m = supersingularity_measure(5, 48)
        masses = sorted(m.masses)
        for lo, hi in zip(masses, reversed(masses)):
            assert lo + hi == 1

    def test_newforms(self):
        m = supersingularity_measure(5, 12, include_newforms=True)
        assert m.newform_count == 3
        assert m.masses.count(Fraction(5, 11)) == 3
        # newform masses sit off-center, so strict symmetry fails with them
        assert not m.is_symmetric()

    def test_empty_below_twelve(self):
        m = supersingularity_measure(5, 10)
        assert m.masses == ()

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            supersingularity_measure(5, 13)


class TestSupportBound:
    def test_5_26(self):
        b = support_bound(5, 26)
        assert b.left_end == Fraction(1, 6) + Fraction(2, 25)

    def test_log_floor_vanishes_for_large_p(self):
        b = support_bound(101, 14)
        assert b.left_end == Fraction(1, 102)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            support_bound(1, 10)

    @pytest.mark.parametrize("p,k", [(4, 13), (6, 40), (-1, 13)])
    def test_rejects_p_not_prime(self, p, k):
        # the bound's 1/(p+1) and log_p exist for these p too; -1 divides by zero
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            support_bound(p, k)

    @pytest.mark.parametrize("p,left", [(2, Fraction(1, 3) + Fraction(3, 12)), (3, Fraction(1, 4) + Fraction(2, 12))])
    def test_small_primes_stay_legal(self, p, left):
        assert support_bound(p, 13).left_end == left

    def test_complementarity(self):
        for p, k in [(5, 12), (7, 100), (59, 16)]:
            b = support_bound(p, k)
            assert b.left_end + b.right_end == 1


class TestMassInMiddle:
    def test_5_12_zero(self):
        m = supersingularity_measure(5, 12)
        b = support_bound(5, 12)
        assert mass_in_middle(m, b) == (0, 0)

    def test_empty_measure(self):
        m = supersingularity_measure(5, 10)
        b = support_bound(5, 10)
        assert mass_in_middle(m, b) == (0, 0)

    def test_59_16_two_inside(self):
        m = supersingularity_measure(59, 16)
        b = support_bound(59, 16)
        assert mass_in_middle(m, b) == (2, 1)

    def test_monotone_in_interval(self):
        # shrinking the interval never increases the count
        m = supersingularity_measure(59, 16)
        b = support_bound(59, 16)
        wide, _ = mass_in_middle(m, b)
        narrow = sum(
            1
            for x in m.masses
            if b.left_end + Fraction(1, 7) < x < b.right_end - Fraction(1, 7)
        )
        assert narrow <= wide

    def test_mismatched_cells_rejected(self):
        with pytest.raises(ValueError):
            mass_in_middle(supersingularity_measure(5, 12), support_bound(5, 14))


class TestRegularity:
    def test_5_vacuous(self):
        rep = is_regular(5)
        assert rep.regular and rep.vacuous

    def test_13_regular_via_tau(self):
        rep = is_regular(13)
        assert rep.regular and not rep.vacuous
        assert rep.k_range == (12, 14)

    def test_59_irregular_at_16(self):
        rep = is_regular(59)
        assert not rep.regular
        assert rep.witnesses[0] == (16, 1)

    def test_range_configurable(self):
        rep = is_regular(59, k_max=14)
        assert rep.regular  # the witness at k=16 is outside this range


class TestProfiles:
    def test_5_small_sweep_clean(self):
        table = middle_mass_profile(5, 12, 60)
        assert table.cutoff is None
        assert all(r.count_middle == 0 for r in table.rows)

    def test_newform_rows_always_in_middle(self):
        table = middle_mass_profile(5, 12, 30, include_newforms=True)
        for r in table.rows:
            if r.dim_new:
                assert r.count_middle >= r.dim_new

    def test_rejects_p_not_prime(self):
        with pytest.raises(ValueError):
            middle_mass_profile(4, 4, 2)

    def test_rows_match_per_weight_measures(self):
        # the weights are computed in groups of one dimension and put back in weight order
        table = middle_mass_profile(7, 4, 64, include_newforms=True)
        assert [r.k for r in table.rows] == list(range(4, 65, 2))
        for r in table.rows:
            assert r.masses == supersingularity_measure(7, r.k, include_newforms=True).masses

    def test_resource_guard(self):
        table = middle_mass_profile(5, 12, 400, max_dim=3)
        assert table.cutoff is not None
        assert table.rows and table.rows[-1].k < 400

    def test_resource_guard_rejects_a_negative_max_dim(self):
        # every dim S_k >= 0 exceeds -1, so the sweep would stop at its first weight
        with pytest.raises(ValueError, match="max_dim"):
            middle_mass_profile(5, 12, 20, max_dim=-1)
        # max_dim 0 keeps the weights with no cusp forms: 4..10 and 14
        table = middle_mass_profile(5, 4, 10, max_dim=0)
        assert [r.k for r in table.rows] == [4, 6, 8, 10] and table.cutoff is None
        assert [r.k for r in middle_mass_profile(5, 14, 14, max_dim=0).rows] == [14]

    def test_csv_and_json(self, tmp_path):
        csv_path, json_path = tmp_path / "profile.csv", tmp_path / "profile.json"
        # the command line is the one serializer of profiles
        argv = ["measure", "--p", "59", "--k", "12..16"]
        assert cli_main([*argv, "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("p,k,dim_old")
        row16 = [ln for ln in lines if ln.startswith("59,16")][0]
        assert row16.split(",")[4] == "2"
        assert "." not in row16  # exact rationals only
        assert cli_main([*argv, "--format", "json", "--out", str(json_path)]) == 0
        d = json.loads(json_path.read_text())
        assert d["rows"][-1]["count_middle"] == 2
        assert d["rows"][-1]["masses"] == ["1/15", "14/15"]

    def test_slopes_csv(self, tmp_path):
        path = tmp_path / "slopes.csv"
        assert cli_main(["slopes", "--p", "5,2,5", "--k", "12", "--out", str(path)]) == 0
        assert path.read_text().splitlines() == ["p,k,slope", "2,12,3", "5,12,1"]
        assert cli_main(["slopes", "--p", "2", "--k", "24", "--out", str(path)]) == 0
        assert path.read_text().splitlines() == ["p,k,slope", "2,24,3", "2,24,7"]
