import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bundle_auction_lab.bundles import NO_SALE, BundleOffer, resolve_outcome
from bundle_auction_lab import _group_exact
from bundle_auction_lab._group_exact import (bundle_lines, capped_sum_cdf,
                                             line_argmaxes, line_values)
from bundle_auction_lab import group_revenue
from bundle_auction_lab.group_revenue import (
    bernstein_sweep,
    bernstein_upper_bound,
    chernoff_tail_bound,
    full_surplus_offer,
    group_expected_revenue_exact,
    optimize_group_offer,
    surplus_lower_bound,
    verify_surplus_extraction,
)
from bundle_auction_lab.pair_revenue import optimize_pair_offer
from bundle_auction_lab.single_pricing import optimal_single_price
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import (capped_sum_cdfs_fraction, class_revenue_fraction,
                     every_line_offer_search, irwin_hall_cdf, mc_profiles,
                     mc_revenue, mc_score, pair_revenue_reference,
                     sequential_offer_search, symmetric_revenue_fraction,
                     variance_simpson)

UNIFORM = make_uniform(1.0)
# A valid density with most of its mass at the two ends of [0, 1]: its
# full-surplus offer at n = 23 has a tail bound of about 5e-16, above
# 2**-54, so that row's acceptance probability is not exactly 1.0.
FALLBACK = make_piecewise_linear((0.0, 0.1, 0.45, 0.96, 1.0),
                                 (6.1, 0.053, 0.023, 0.355, 59.4))


def expected_bundle_price(n: int, mu: float, m: float = 1.0) -> float:
    return mu - 2.0 * m * math.sqrt(n * math.log(n))


class TestFullSurplusOffer:
    def test_thousand_uniforms(self):
        offer = full_surplus_offer([UNIFORM] * 1000)
        assert all(a is None for a in offer.individual_prices)
        assert offer.bundle_price == pytest.approx(
            expected_bundle_price(1000, 500.0), abs=1e-9
        )
        assert offer.bundle_price == pytest.approx(333.77, abs=0.01)

    def test_hundred_uniforms(self):
        offer = full_surplus_offer([UNIFORM] * 100)
        assert offer.bundle_price == pytest.approx(7.08, abs=0.01)

    def test_vacuous_at_small_n(self):
        with pytest.raises(ValueError, match="vacuous"):
            full_surplus_offer([UNIFORM] * 10)

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            full_surplus_offer([UNIFORM])

    def test_mixed_upper_bounds_use_max(self):
        dists = [make_uniform(2.0)] * 500 + [UNIFORM] * 500
        mu = 500 * 1.0 + 500 * 0.5
        offer = full_surplus_offer(dists)
        assert offer.bundle_price == pytest.approx(
            mu - 2.0 * 2.0 * math.sqrt(1000 * math.log(1000)), abs=1e-9
        )


class TestBernstein:
    def test_thousand_value(self):
        t = 2.0 * math.sqrt(1000 * math.log(1000))
        bound = bernstein_upper_bound(1000)
        # direct evaluation of exp(-(t^2/2) / (n M^2 + M t / 3)) at M = 1
        direct = math.exp(-(t * t / 2.0) / (1000.0 + t / 3.0))
        assert bound == pytest.approx(direct, rel=1e-12)
        assert bound == float.fromhex("0x1.15359968b7edfp-19")
        assert bound <= 1e-3

    @pytest.mark.parametrize("n", [1, 0, 1.5, [2, 1]])
    def test_rejects_n_below_two(self, n):
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            bernstein_upper_bound(n)

    def test_array_matches_scalars(self):
        ns = [2, 100, 10**6, 2**53]
        assert bernstein_upper_bound(np.array(ns)).tolist() == [
            bernstein_upper_bound(n) for n in ns]

    def test_sweep_full_range(self):
        # The ratio bound * n decays in n, so the worst n is 2.
        assert bernstein_sweep(2, 10**6) == (
            True, 2, float.fromhex("0x1.7a620a70f5205p-1"))

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            bernstein_sweep(1, 100)
        with pytest.raises(ValueError):
            bernstein_sweep(10, 5)

    def test_n_max_beyond_float_range_is_a_value_error(self):
        # The CLI reports a ValueError as an error message; any other
        # exception would end in a traceback.  At 10**306, n itself is a
        # float but n ln n is not, so the bound would read NaN.
        with pytest.raises(ValueError, match="beyond float range"):
            bernstein_sweep(2, 10**400)
        with pytest.raises(ValueError, match="beyond float range"):
            bernstein_sweep(10**306, 10**306)


class TestLowerBound:
    def test_values(self):
        assert surplus_lower_bound(1000, 500.0, 1.0) == pytest.approx(333.44, abs=0.01)
        assert surplus_lower_bound(10, 5.0, 1.0) < 0.0
        rel = surplus_lower_bound(10**4, 5000.0, 1.0) / 5000.0
        assert rel == pytest.approx(0.8785, abs=1e-4)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            surplus_lower_bound(1, 0.5, 1.0)


class TestGroupMonteCarlo:
    def test_matches_resolve_outcome_rowwise(self):
        # The vectorized revenue rule must agree with resolve_outcome
        # exactly, sample by sample.
        dists = [UNIFORM, make_uniform(2.0), make_piecewise_linear((0, 1), (0.5, 1.5))]
        offer = BundleOffer((0.4, NO_SALE, 0.9), 1.3)
        v = mc_profiles(dists, 1000, 77)
        mean, _, _ = mc_score(v, offer)
        total = 0.0
        for row in v:
            total += resolve_outcome(offer, tuple(row)).seller_revenue
        assert mean == pytest.approx(total / 1000, abs=1e-12)

    def test_thousand_uniform_offer_is_almost_surely_accepted(self):
        offer = full_surplus_offer([UNIFORM] * 1000)
        est, se, _ = mc_revenue([UNIFORM] * 1000, offer, 10**4, 123)
        assert abs(est - offer.bundle_price) <= max(4.0 * se, 1e-9)

    def test_zero_price_pure_bundle_is_zero(self):
        offer = BundleOffer((NO_SALE,) * 5, 0.0)
        est, se, _ = mc_revenue([UNIFORM] * 5, offer, 2000, 5)
        assert est == 0.0 and se == 0.0

    def test_pair_pure_bundle_matches_exact_integrator(self):
        b = math.sqrt(2.0 / 3.0)
        offer = BundleOffer((NO_SALE, NO_SALE), b)
        est, se, _ = mc_revenue([UNIFORM, UNIFORM], offer, 10**5, 31)
        assert abs(est - (b - b**3 / 2.0)) <= 4.0 * se

    def test_bit_identical_for_same_seed(self):
        offer = BundleOffer((0.4, 0.6, NO_SALE), 1.2)
        dists = [UNIFORM] * 3
        a = mc_revenue(dists, offer, 50_000, 2**40 + 3)
        b_ = mc_revenue(dists, offer, 50_000, 2**40 + 3)
        c = mc_revenue(dists, offer, 50_000, 2**40 + 4)
        assert a == b_
        assert a != c


TEMPLATE = make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8))
# A skewed 4-knot law: mass piled near 0, a dip, then a rising end.
SKEWED = make_piecewise_linear((0.0, 0.15, 0.5, 1.0), (2.6, 0.9, 0.3, 1.4))
# Knots whose sums agree only to an ulp: 0.4 + 1.15 is 1.5499999999999998
# and 0.75 + 0.8 is 1.55.
ULP_SUMS = make_piecewise_linear((0.0, 0.4, 0.75, 0.8, 1.15, 1.5),
                                 (1.0, 2.0, 1.5, 0.5, 1.0, 2.0))
RAMP = make_piecewise_linear((0.0, 1.0), (0.5, 1.5))
# Mass piled near 0: a density of 30 on [0, 0.05).
SPIKE = make_piecewise_linear((0.0, 0.05, 1.0), (30.0, 2.0, 0.05))
#: Pairs of customers, each a class of its own: unequal laws (the last
#: two those of configs/verify_thm1_skewed_pair.json, with unequal upper
#: bounds), and one law at unequal caps.
CLASS_PAIRS = {
    "uniform-spike": (UNIFORM, SPIKE),
    "u2-uniform": (make_uniform(2.0), UNIFORM),
    "template-ramp": (TEMPLATE, RAMP),
    "verify-thm1-skewed": (make_piecewise_linear((0.0, 0.75), (1.5, 1.2)),
                           make_piecewise_linear((0.0, 1.9, 2.0),
                                                 (0.3, 0.7, 0.7))),
    "template-iid": (TEMPLATE, TEMPLATE),
    "skewed-iid": (SKEWED, SKEWED),
}


#: A tent law: mass piled at the middle of [0, 1].
TENT = make_piecewise_linear((0.0, 0.5, 1.0), (0.2, 1.8, 0.2))
#: The laws and groups of two laws whose batched offer searches are held
#: to the search that solves one round per call.
SEARCH_LAWS = {"uniform": UNIFORM, "template": TEMPLATE, "ramp": RAMP,
               "spike": SPIKE, "tent": TENT}
TWO_LAW_GROUPS = {"template-ramp": [TEMPLATE, RAMP],
                  "uniform-spike": [UNIFORM, SPIKE],
                  "template-ramp-template": [TEMPLATE, RAMP, TEMPLATE],
                  "tent-uniform-uniform": [TENT, UNIFORM, UNIFORM],
                  "spike-tent-4": [SPIKE, TENT, SPIKE, TENT]}
#: Every group of the searches above, by its test id.
SEARCH_GROUPS = {**{f"{name}-{n}": [dist] * n
                    for name, dist in SEARCH_LAWS.items()
                    for n in range(1, 7)},
                 **TWO_LAW_GROUPS}
#: The engine calls of each group's search at budgets 2, 15 and 500 when
#: every run of zoom calls started at one round and doubled, as the
#: search did before its first zoom call filled a grid axis.
DOUBLING_CALLS = {
    "uniform-1": (3, 5, 10), "uniform-2": (3, 5, 12),
    "uniform-3": (3, 8, 17), "uniform-4": (3, 5, 12),
    "uniform-5": (3, 14, 27), "uniform-6": (3, 15, 30),
    "template-1": (3, 5, 12), "template-2": (3, 16, 29),
    "template-3": (3, 15, 33), "template-4": (3, 14, 28),
    "template-5": (3, 15, 30), "template-6": (3, 12, 25),
    "ramp-1": (3, 5, 13), "ramp-2": (3, 14, 30), "ramp-3": (3, 15, 29),
    "ramp-4": (3, 16, 28), "ramp-5": (3, 10, 21), "ramp-6": (3, 11, 24),
    "spike-1": (3, 5, 15), "spike-2": (3, 11, 29), "spike-3": (3, 11, 30),
    "spike-4": (3, 14, 29), "spike-5": (3, 13, 28), "spike-6": (3, 11, 25),
    "tent-1": (3, 5, 10), "tent-2": (3, 11, 26), "tent-3": (3, 13, 23),
    "tent-4": (3, 11, 23), "tent-5": (3, 15, 27), "tent-6": (3, 15, 28),
    "template-ramp": (3, 14, 33), "uniform-spike": (3, 16, 36),
    "template-ramp-template": (3, 16, 34),
    "tent-uniform-uniform": (3, 16, 35), "spike-tent-4": (3, 16, 28),
}


def _offer_hex(answer):
    """An ``(offer, value)`` answer in ``float.hex``."""
    offer, value = answer
    return tuple(None if x is None else x.hex()
                 for x in (*offer.individual_prices, offer.bundle_price, value))


def _caps(group, prices):
    """A search line's caps, one per distinct law: ``NO_SALE`` caps at M."""
    return tuple(d.upper_bound if a is None else min(a, d.upper_bound)
                 for a, d in zip(prices, dict.fromkeys(group)))


def _singles(group) -> float:
    """The singles value, summed class by class as the search sums it."""
    return sum(count * optimal_single_price(d).utility
               for d, count in Counter(group).items())


def _hopeful(group, lines) -> set:
    """The distinct caps of ``lines`` whose bound ``sum_c count_c min(cap_c,
    mu_c)`` reaches the singles value, less 1e-9 of it: those the search
    builds."""
    floor = (1.0 - 1e-9) * _singles(group)
    classes = list(Counter(group).items())
    return {key for key in {_caps(group, prices) for prices in lines}
            if sum(count * min(cap, d.mean)
                   for cap, (d, count) in zip(key, classes)) >= floor}


def _search_calls(monkeypatch, group, budget):
    """Both answers of the offer search and the lines of each engine call."""
    calls = []
    build = group_revenue.bundle_lines

    def record(classes, prices):
        calls.append(list(prices))
        return build(classes, prices)

    monkeypatch.setattr(group_revenue, "bundle_lines", record)
    answers = group_revenue._offer_search(group, budget)
    monkeypatch.undo()
    return answers, calls


def _exact(dist, n, a, b):
    return group_expected_revenue_exact([dist] * n, BundleOffer((a,) * n, b))


def _iid_lines(dist, n, prices):
    """The lines of the offers ``(a, ..., a, b)`` to n i.i.d. customers,
    one per ``a`` of ``prices``."""
    return bundle_lines([(dist, n)], [(a,) for a in prices])


class TestExactGroupRevenue:
    """The exact engine against independent oracles: Irwin-Hall, the
    per-offer three-point Gauss-Legendre reference, exact rationals and
    Monte Carlo."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_uniform_pure_bundle_is_irwin_hall(self, n):
        bs = np.linspace(0.0, n, 61)[1:-1]
        got = capped_sum_cdf(_iid_lines(UNIFORM, n, [NO_SALE]), 0, bs)[0]
        want = np.array([irwin_hall_cdf(n, b) for b in bs])
        assert np.abs(got - want).max() <= 1e-13
        for b, cdf in zip(bs[::6].tolist(), want[::6]):
            assert abs(_exact(UNIFORM, n, NO_SALE, b) - b * (1.0 - cdf)) <= 1e-13

    @pytest.mark.parametrize("dist", [UNIFORM, TEMPLATE, SKEWED, ULP_SUMS])
    def test_pairs_match_the_per_offer_reference(self, dist):
        m = dist.upper_bound
        caps = [NO_SALE, 0.0, m, *dist.knots[1:-1], 0.3 * m, 0.77 * m]
        for a in caps:
            top = 2.0 * m if a is None else a + a
            for b in [*np.linspace(0.0, top, 23).tolist(), top]:
                want = pair_revenue_reference(dist, dist, (a, a), b)[0]
                assert abs(_exact(dist, 2, a, b) - want) <= 1e-14, (a, b)

    @pytest.mark.parametrize("dist", [UNIFORM, TEMPLATE, SKEWED])
    def test_matches_exact_rationals(self, dist):
        # Caps on a knot and 1e-12 and 1e-9 to either side of it; b off
        # the all-capped tie, where float and exact sums of the caps differ.
        knot = dist.knots[1] if len(dist.knots) > 2 else 0.5
        caps = [NO_SALE, knot, knot - 1e-12, knot + 1e-12, knot - 1e-9,
                knot + 1e-9, 0.73]
        for n, a in zip((1, 2, 3, 4, 5, 6, 6), caps):
            top = n * (dist.upper_bound if a is None else a)
            for frac in (0.13, 0.47, 0.81, 0.97):
                b = frac * top
                want = symmetric_revenue_fraction(dist.knots, dist.densities,
                                                  n, a, b)
                assert abs(_exact(dist, n, a, b) - float(want)) <= 1e-13, (
                    n, a, b)

    @pytest.mark.parametrize("n, a", [(2, NO_SALE), (2, 1.15), (2, 0.8),
                                      (3, NO_SALE), (3, 0.8)])
    def test_break_sums_that_agree_to_an_ulp(self, n, a):
        # Each merged interval looks a term's piece up by its midpoint; by
        # its left end, the ulp-wide interval at 1.55 took the wrong piece.
        bs = [1.3, 1.549, 1.5499999999999998, 1.55, 1.5500000000000003,
              1.551, 2.0]
        bs = [b for b in bs if a is None or b <= n * a]
        want = capped_sum_cdfs_fraction(ULP_SUMS.knots, ULP_SUMS.densities,
                                        n, a, bs)
        got = capped_sum_cdf(_iid_lines(ULP_SUMS, n, [a]), 0, bs)[0]
        assert np.abs(got - np.array([float(w) for w in want])).max() <= 1e-13
        for b in bs:
            want = symmetric_revenue_fraction(ULP_SUMS.knots,
                                              ULP_SUMS.densities, n, a, b)
            assert abs(_exact(ULP_SUMS, n, a, b) - float(want)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 6])
    def test_monte_carlo_agrees_within_4_se(self, n):
        dists = [TEMPLATE] * n
        offer, value = optimize_group_offer(dists, mode="full", budget=4)
        mean, se, _ = mc_revenue(dists, offer, 10**6, (31, n))
        assert abs(mean - value) <= 4.0 * se
        bundle = BundleOffer((NO_SALE,) * n, 0.4 * n)
        mean, se, _ = mc_revenue(dists, bundle, 10**6, (32, n))
        assert (abs(mean - group_expected_revenue_exact(dists, bundle))
                <= 4.0 * se)

    @pytest.mark.parametrize("dist", [UNIFORM, TEMPLATE])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_the_singles_offer_sells_the_bundle_on_its_tie(self, dist, n):
        # At b equal to the float sum of the n caps, a group whose every
        # value reaches p* ties with b and takes the bundle on every path.
        sol = optimal_single_price(dist)
        p = sol.price
        offer = BundleOffer((p,) * n, sum((p,) * n))
        assert resolve_outcome(offer, (p,) * n).bundle_accepted
        assert resolve_outcome(offer, (dist.upper_bound,) + (p,) * (n - 1)
                               ).bundle_accepted
        assert not resolve_outcome(offer, (0.5 * p,) + (p,) * (n - 1)
                                   ).bundle_accepted
        assert abs(group_expected_revenue_exact([dist] * n, offer)
                   - n * sol.utility) <= 4 * n * 2.0**-53
        # Every sampled row whose values all reach p* has capped sum b.
        dists, rows, seed = [dist] * n, 20_000, (33, n)
        v = mc_profiles(dists, rows, seed)
        _, _, accept = mc_score(v, offer)
        assert accept == np.count_nonzero(np.all(v >= p, axis=1)) / rows

    def test_zero_and_uncapped_solo_prices(self):
        for n in (1, 3):
            assert _exact(TEMPLATE, n, 0.0, 0.0) == 0.0
            assert _exact(TEMPLATE, n, 0.0, 0.5) == 0.0
            for b in (0.3, 1.1 * n / 3):
                pure = _exact(TEMPLATE, n, NO_SALE, b)
                assert _exact(TEMPLATE, n, 1.0, b) == pure
                assert _exact(TEMPLATE, n, 2.5, b) == pure

    @pytest.mark.parametrize("name", sorted(CLASS_PAIRS))
    def test_class_lines_match_the_per_offer_reference(self, name):
        # Every pair of solo prices, one line each: NO_SALE, 0, M, a cap
        # inside a piece, and caps on each knot and 1e-12 to either side;
        # b on a grid, at the all-capped tie a1 + a2 and at a1 + M2.
        d1, d2 = CLASS_PAIRS[name]

        def caps(d):
            m = d.upper_bound
            out = [NO_SALE, 0.0, m, 0.37 * m]
            for k in d.knots[1:-1] or (0.5 * m,):
                out += [k, k - 1e-12, k + 1e-12]
            return out

        prices = list(itertools.product(caps(d1), caps(d2)))
        lines = bundle_lines([(d1, 1), (d2, 1)], prices)
        worst = 0.0
        for g, (a1, a2) in enumerate(prices):
            c1 = d1.upper_bound if a1 is None else a1
            c2 = d2.upper_bound if a2 is None else a2
            bs = np.append(np.linspace(0.0, c1 + c2, 11),
                           [c1 + c2, c1 + d2.upper_bound])
            want = np.array([pair_revenue_reference(d1, d2, (a1, a2), b)[0]
                             for b in bs.tolist()])
            got = line_values(lines, np.full(bs.size, g), bs)
            worst = max(worst, float(np.abs(got - want).max()))
        # The worst is 1.9e-14, on the spike.
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("group", [
        [(UNIFORM, 1, 0.4), (TEMPLATE, 2, 0.55)],
        [(SKEWED, 1, NO_SALE), (TEMPLATE, 1, 0.4), (RAMP, 2, 0.6)],
        [(TEMPLATE, 1, 0.4), (TEMPLATE, 1, 0.4 + 1e-12),
         (UNIFORM, 1, 0.4 - 1e-12), (SPIKE, 1, 0.05)],
        [(make_uniform(2.0), 2, 1.2), (UNIFORM, 2, NO_SALE)],
        [(SKEWED, 1, 0.15), (ULP_SUMS, 2, 1.15), (TEMPLATE, 1, 0.0)],
    ], ids=["uniform-template", "skewed-template-ramp", "caps-by-1e-12",
            "u2-uniform", "knot-caps"])
    def test_mixed_groups_match_exact_rationals(self, group):
        # Classes of customers with their own law and solo price, caps on
        # knots and 1e-12 off them; b off the all-capped tie.
        dists = [d for d, count, _ in group for _ in range(count)]
        prices = tuple(a for _, count, a in group for _ in range(count))
        top = sum(count * (d.upper_bound if a is None
                           else min(a, d.upper_bound))
                  for d, count, a in group)
        classes = [(d.knots, d.densities, count, a) for d, count, a in group]
        for frac in (0.13, 0.47, 0.81, 0.97):
            b = frac * top
            want = class_revenue_fraction(classes, b)
            got = group_expected_revenue_exact(dists, BundleOffer(prices, b))
            assert abs(got - float(want)) <= 1e-13, (frac, got, want)

    def test_mixed_group_of_six_agrees_with_monte_carlo(self):
        dists = [UNIFORM] * 2 + [TEMPLATE] * 3 + [RAMP]
        prices = (0.6, 0.6, 0.5, 0.5, 0.5, NO_SALE)
        for k, b in enumerate((2.0, 2.6, 3.1)):
            offer = BundleOffer(prices, b)
            mean, se, _ = mc_revenue(dists, offer, 10**6, (41, k))
            assert (abs(mean - group_expected_revenue_exact(dists, offer))
                    <= 4.0 * se)

    def test_solo_line_allocates_little(self):
        # A solo price's revenue line is exact and holds no sample: a few
        # dozen pieces, not the columns of a 20,000-row sample.
        def build(prices):
            return line_argmaxes(bundle_lines([(TEMPLATE, 3)], [prices]))

        for prices in ([0.5], [0.7]):
            build(prices)
            tracemalloc.start()
            try:
                build(prices)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20_000 * 8 // 2

    def test_rejects_groups_it_does_not_take(self):
        offer3 = BundleOffer((0.5,) * 3, 1.0)
        with pytest.raises(ValueError, match="^dists: .*1 to 12 customers"):
            group_expected_revenue_exact([UNIFORM] * 13,
                                         BundleOffer((NO_SALE,) * 13, 6.0))
        with pytest.raises(ValueError, match="equal length"):
            group_expected_revenue_exact([UNIFORM] * 2, offer3)
        for offer in (BundleOffer((NO_SALE,) * 2, 1.0),
                      BundleOffer((0.5,) * 4, 1.0)):
            with pytest.raises(ValueError, match="equal length"):
                group_expected_revenue_exact([TEMPLATE] * 3, offer)


class TestOptimizeGroupOffer:
    def test_pure_bundle_two_uniforms(self):
        offer, value = optimize_group_offer([UNIFORM, UNIFORM],
                                            mode="pure_bundle")
        assert all(a is None for a in offer.individual_prices)
        assert offer.bundle_price == pytest.approx(math.sqrt(2.0 / 3.0),
                                                   abs=1e-12)
        assert value == pytest.approx((2.0 / 3.0) * math.sqrt(2.0 / 3.0),
                                      abs=1e-15)

    def test_bundle_price_beats_grid_scan(self):
        # Irwin-Hall: the pure bundle of n uniforms earns b (1 - IH_n(b)).
        for n in (3, 6):
            offer, value = optimize_group_offer([UNIFORM] * n,
                                                mode="pure_bundle")
            grid = [b * (1.0 - irwin_hall_cdf(n, b))
                    for b in np.linspace(0.0, n, 2001).tolist()]
            assert value >= max(grid)
            assert value - max(grid) <= 1e-6
            assert value == _exact(UNIFORM, n, NO_SALE, offer.bundle_price)

    def test_pure_bundle_beats_lower_bound(self):
        # The exact optimum is at least the certified max_b b (1 - eps(b)),
        # with eps the closed-form Chernoff bound on rejection.
        for n in (6, 12):
            _, value = optimize_group_offer([UNIFORM] * n, mode="pure_bundle")
            certified = max(b * (1.0 - chernoff_tail_bound(UNIFORM, n, b))
                            for b in np.linspace(0.0, n / 2.0, 200).tolist())
            assert value >= certified > 0.0
            assert value >= surplus_lower_bound(n, 0.5 * n, 1.0)

    def test_full_mode_single_customer_reduces_to_single_price(self):
        offer, value = optimize_group_offer([UNIFORM], mode="full", budget=2)
        a = offer.individual_prices[0]
        effective = min(offer.bundle_price, math.inf if a is None else a)
        assert value == pytest.approx(0.25, abs=1e-15)
        assert effective == pytest.approx(0.5, abs=1e-12)

    def test_full_mode_dominates_singles_for_skewed_distribution(self):
        # Mass piled near zero makes the pure bundle weak; the singles
        # offer lies on the line of p*, so the search never ends below
        # independent pricing.
        skewed = make_piecewise_linear((0.0, 0.02, 1.0), (80.0, 2.0, 0.02))
        singles = 3 * optimal_single_price(skewed).utility
        _, value = optimize_group_offer([skewed] * 3, mode="full", budget=1)
        assert value >= singles

    def test_full_mode_never_below_pure_bundle(self):
        # Nor below singles: both hold exactly, with no allowance.
        for dist in (UNIFORM, TEMPLATE, SKEWED, FALLBACK):
            singles = optimal_single_price(dist).utility
            for n in (2, 3, 4, 6):
                group = [dist] * n
                pure, pure_value = optimize_group_offer(group,
                                                        mode="pure_bundle")
                offer, value = optimize_group_offer(group, mode="full",
                                                    budget=3)
                assert value >= pure_value
                assert value >= n * singles
                assert value == group_expected_revenue_exact(group, offer)
                assert pure_value == group_expected_revenue_exact(group, pure)

    def test_pair_matches_the_pair_optimizer(self):
        # Symmetric offers reach R* on a uniform pair.
        _, value = optimize_group_offer([UNIFORM] * 2, mode="full")
        assert value == pytest.approx(0.5492010046202292, abs=1e-12)

    @pytest.mark.parametrize("dist, n, figure", [
        (UNIFORM, 3, 0.875179), (UNIFORM, 6, 1.939239),
        (TEMPLATE, 3, 0.896409), (TEMPLATE, 6, 1.995667)])
    def test_reaches_a_dense_symmetric_search(self, dist, n, figure):
        # A dense exact search over symmetric offers found these values.
        _, value = optimize_group_offer([dist] * n, mode="full")
        assert value >= figure - 1e-6

    @pytest.mark.parametrize("group, grid, most", [
        ([TEMPLATE] * 3, 18, 2), ([TEMPLATE, RAMP, TEMPLATE], 18 * 18, 8),
    ], ids=["iid-triple", "two-laws"])
    def test_search_stops_after_a_sweep_that_moves_nothing(
            self, group, grid, most):
        # Once every step rounds onto the incumbent, a halved step does too,
        # so every later round would score it alone again.  A law's
        # coordinate takes p*, 16 grid points and NO_SALE, and a round the
        # neighbours of the incumbent on every coordinate.  The rounds are
        # counted on the reference search, which solves one per call.
        calls = []
        want = sequential_offer_search(group, "full", 500, calls)
        rounds = len(calls) - 1
        assert calls[0] == grid and 40 < rounds < 100
        assert all(c <= most for c in calls[1:])
        result = optimize_group_offer(group, mode="full", budget=500)
        assert result == want
        assert result == optimize_group_offer(group, mode="full",
                                              budget=rounds)

    @pytest.mark.parametrize("group", [
        *(pytest.param([dist] * n, id=f"{name}-{n}")
          for name, dist in SEARCH_LAWS.items() for n in range(1, 7)),
        *(pytest.param(group, id=name) for name, group in TWO_LAW_GROUPS.items()),
    ])
    def test_batched_rounds_match_one_round_per_call(self, group):
        # Solving several rounds to a call, and the pure bundle off the
        # grid, gives the offers and values of solving one round per call,
        # to the bit: a line's b and value do not depend on the other
        # lines of its call.  That rests on matmul (_taylor, the Bernstein
        # transform) and eigvals giving a row the same floats in any batch.
        for budget in (1, 2, 3, 7, 15, 40, 500):
            got = optimize_group_offer(group, mode="full", budget=budget)
            want = sequential_offer_search(group, "full", budget)
            assert _offer_hex(got) == _offer_hex(want), budget
        want = sequential_offer_search(group, "pure_bundle", 1)
        assert _offer_hex(optimize_group_offer(group)) == _offer_hex(want)
        if len(group) == 2:
            got = optimize_pair_offer(*group, 15)
            want = tuple(sequential_offer_search(group, mode, 15)
                         for mode in ("full", "pure_bundle"))
            assert tuple(map(_offer_hex, got)) == tuple(map(_offer_hex, want))

    @pytest.mark.parametrize("group", [[UNIFORM] * 2, [TEMPLATE] * 3,
                                       [TEMPLATE, RAMP, TEMPLATE],
                                       [UNIFORM, TENT]],
                             ids=["uniform-pair", "template-triple",
                                  "two-laws", "uniform-tent"])
    def test_no_call_builds_more_lines_than_the_cap(self, monkeypatch,
                                                     group):
        # A zoom call holds at most its cap of fresh lines: the grid's
        # candidate count, 18 lines a law's axis, or the 2**(7 - n) lines
        # that cost n customers about as much as a call's fixed cost, if
        # more (the uniform pair's calls of 32 at budget 5,000, in
        # tests/test_pair_revenue.py, are where the bound binds).
        cap = max(18 ** len(set(group)), 2 ** (7 - len(group)))
        for budget in (15, 500):
            sizes = self._call_sizes(monkeypatch, group, budget)
            assert max(sizes) <= cap, sizes

    @staticmethod
    def _call_sizes(monkeypatch, group, budget):
        """The lines of each engine call of the full search."""
        return [len(prices)
                for prices in _search_calls(monkeypatch, group, budget)[1]]

    @pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
    def test_first_zoom_call_fits_the_cap(self, monkeypatch, name):
        # Until the incumbent first moves, a zoom call holds the rounds
        # that fit in one law's axis of the grid (p*, 16 grid points and
        # NO_SALE), or in the 2**(7 - n) lines that cost n customers about
        # as much as a call's fixed cost, if more.  The grid call builds
        # each distinct caps vector of its candidates that can beat the
        # singles value.
        group = SEARCH_GROUPS[name]
        grid = []
        every_line_offer_search(group, 1, grid)
        want = len(_hopeful(group, grid[0]))
        cap = max(18, 2 ** (7 - len(group)))
        for budget in (2, 15, 500):
            sizes = self._call_sizes(monkeypatch, group, budget)
            assert sizes[0] == want and sizes[1] <= cap, sizes

    @pytest.mark.parametrize("n, budget, sizes", [
        (2, 15, [13, 28, 31, 32, 28, 16, 2]),
        (2, 60, [13, 32, 31, 32, 32, 26, 32, 28, 32, 32, 32]),
        (3, 15, [13, 17, 17, 18, 14, 17, 8]),
        (3, 60, [13, 17, 17, 18, 14, 17, 18, 12, 18, 13, 15, 18, 18, 18,
                 12, 1]),
    ])
    def test_moving_template_searches_are_pinned(self, monkeypatch, n,
                                                 budget, sizes):
        # The template pair and triple move in most of their first 25
        # rounds.  A zoom call speculates every way the incumbent can
        # move, so it follows a move into the rounds after it: 7 calls at
        # budget 15, where speculating only an incumbent that holds took
        # 15 and 14.
        assert self._call_sizes(monkeypatch, [TEMPLATE] * n, budget) == sizes

    def test_incumbent_leaves_the_speculated_tree_mid_call(self,
                                                           monkeypatch):
        # On the template pair at budget 15 the search that solves one
        # round per call moves its incumbent in 10 of the 15 rounds.  The
        # batched search makes 6 zoom calls, so some call replays a round
        # after a move, at a trial it speculated, and every call but the
        # last leaves its tree at a round it did not speculate.  Both
        # answers are still those of one round per call, to the bit.
        group = [TEMPLATE] * 2
        path = [_offer_hex(sequential_offer_search(group, "full", budget))
                for budget in range(16)]
        moves = sum(a != b for a, b in zip(path, path[1:]))
        answers, calls = _search_calls(monkeypatch, group, 15)
        assert moves == 10 and len(calls) - 1 == 6
        assert _offer_hex(answers[0]) == path[-1]
        assert _offer_hex(answers[1]) == _offer_hex(
            sequential_offer_search(group, "pure_bundle", 15))

    @pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
    def test_no_more_calls_than_doubling_from_one_round(self, monkeypatch,
                                                        name):
        calls = tuple(len(self._call_sizes(monkeypatch, SEARCH_GROUPS[name],
                                           budget))
                      for budget in (2, 15, 500))
        assert all(c <= d for c, d in zip(calls, DOUBLING_CALLS[name])), calls

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_budget_two_takes_one_zoom_call(self, monkeypatch, n):
        # Both rounds of partition's search fit in the first zoom call.
        # The grid builds 13 of its 18 lines: the four grid points below
        # the single-price revenue cannot beat the singles offer, and the
        # grid point M caps as NO_SALE does.  Of the four zoom trials, two
        # are grid points at n = 2 and 6, one at n = 3.
        sizes = {2: [13, 2], 3: [13, 3], 6: [13, 2]}[n]
        assert self._call_sizes(monkeypatch, [TEMPLATE] * n, 2) == sizes

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["uniform", "template", "ramp",
                                      "skewed"])
    def test_no_single_move_away_from_symmetry_scores_higher(self, name, n):
        # The symmetric search's offer beats every move of one customer's
        # solo price by a step of the grid, each moved offer at its own
        # exact best b.  The least margin is 1.0e-13 (template, n = 3, at
        # 1e-6).  The budget is 60 because at 15 the search stops up to
        # about 2e-6 from the symmetric optimum, and a move of 1e-6 toward
        # it gains up to 2e-12.
        dist = {"uniform": UNIFORM, "template": TEMPLATE, "ramp": RAMP,
                "skewed": SKEWED}[name]
        offer, value = optimize_group_offer([dist] * n, mode="full",
                                            budget=60)
        a = offer.individual_prices[0]
        steps = [s * d for d in (0.1, 0.03, 0.01, 3e-3, 1e-3, 1e-4, 1e-5,
                                 1e-6) for s in (1.0, -1.0)]
        moved = [min(dist.upper_bound, max(0.0, a + d)) for d in steps]
        _, values = line_argmaxes(bundle_lines([(dist, 1), (dist, n - 1)],
                                               [(m, a) for m in moved]))
        assert value > values.max(), (value, values.max())

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            optimize_group_offer([UNIFORM], mode="both")
        with pytest.raises(ValueError, match="budget"):
            optimize_group_offer([UNIFORM], mode="full", budget=0)
        with pytest.raises(ValueError, match="^dists: "):
            optimize_group_offer([], mode="full")
        with pytest.raises(ValueError, match="^dists: "):
            optimize_group_offer([UNIFORM] * 13)
        with pytest.raises(ValueError, match="^dists: .*two distinct laws"):
            optimize_group_offer([UNIFORM, TEMPLATE, RAMP], mode="full")


class TestSkippedLines:
    """The offer search builds each caps vector of its lines once, and only
    one whose capped-surplus bound can beat the singles value, and both its
    answers are those of the search that builds every line, to the bit."""

    @pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
    def test_answers_match_the_search_that_builds_every_line(self, name):
        # Skipping and reuse keep every answer: a line's floats do not
        # depend on the other lines of its call, and no skipped line can
        # come first, since the p* line is worth the singles value.
        group = SEARCH_GROUPS[name]
        for budget in (2, 15, 500):
            want = every_line_offer_search(group, budget)
            got = group_revenue._offer_search(group, budget)
            assert (tuple(map(_offer_hex, got))
                    == tuple(map(_offer_hex, want))), budget
            assert (_offer_hex(optimize_group_offer(group, "full", budget))
                    == _offer_hex(want[0])), budget
        assert _offer_hex(optimize_group_offer(group)) == _offer_hex(want[1])

    @pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
    def test_skipped_lines_are_worth_less_than_the_singles_value(
            self, monkeypatch, name):
        # Every line of the reference that the search never built, built
        # alone, is worth less than the singles value.  Lines it did build
        # are all among the reference's.
        group = SEARCH_GROUPS[name]
        skipped = {}
        for budget in (2, 15, 500):
            calls = []
            every_line_offer_search(group, budget, calls)
            lines = {_caps(group, prices): prices
                     for call in calls for prices in call}
            built = {_caps(group, prices)
                     for call in _search_calls(monkeypatch, group, budget)[1]
                     for prices in call}
            assert built <= set(lines), budget
            skipped.update((key, prices) for key, prices in lines.items()
                           if key not in built)
        assert skipped
        classes = list(Counter(group).items())
        singles = _singles(group)
        for prices in skipped.values():
            _, values = line_argmaxes(bundle_lines(classes, [prices]))
            assert values[0] < singles, (prices, values[0], singles)

    @pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
    def test_no_caps_vector_is_built_twice(self, monkeypatch, name):
        group = SEARCH_GROUPS[name]
        for budget in (2, 15, 500):
            built = [_caps(group, prices)
                     for call in _search_calls(monkeypatch, group, budget)[1]
                     for prices in call]
            assert len(built) == len(set(built)), budget


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


# Decimal valuations whose float sums depend on the order of the additions.
DECIMALS = [0.05, 0.1, 0.2, 0.3, 0.6, 0.7]


def _decimal_table(rows, n, seed):
    return np.random.default_rng(seed).choice(DECIMALS, size=(rows, n))


def _check_line(lines, g, b_best, best, points=()):
    """Line ``g``'s argmax: ``best`` is the line's value at ``b_best`` and
    at least its value at each of ``points``, at every break of the line
    and at every point of a 2,001-point grid past its last break, where
    the line reads its tail."""
    x = lines[0][g]
    candidates = np.concatenate((np.asarray(points, dtype=float), x,
                                 np.linspace(0.0, 1.05 * x[-1], 2001)))
    assert line_values(lines, [g], [b_best])[0] == best
    values = line_values(lines, np.full(candidates.size, g), candidates)
    assert best >= values.max()


class TestHeldSample:
    """The exact lines against a held Monte Carlo sample: a line's argmax
    is worth at least the line's value at every sampled capped sum and grid
    point, and the lines agree with the Monte Carlo estimate within 4 SE."""

    SAMPLES = 20_000

    @pytest.mark.parametrize("stream", [21, 22])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_lines_and_score_match_monte_carlo(self, n, stream):
        # Two independent samples of each group.
        seed = (stream, n)
        dists = [TEMPLATE] * n
        # NO_SALE, 0, p*, a cap inside a piece and M; b at the line's
        # argmax, inside the support and, for a cap, at the float sum of
        # the n caps, where the bundle sells on ties.
        prices = [NO_SALE, 0.0, optimal_single_price(TEMPLATE).price, 0.3,
                  1.0]
        lines = _iid_lines(TEMPLATE, n, prices)
        bs, values = line_argmaxes(lines)
        for g, a in enumerate(prices):
            points = [float(bs[g]), 0.4 * n]
            if a is not None:
                points.append(_left_to_right([a] * n))
            for b in points:
                offer = BundleOffer((a,) * n, b)
                value = line_values(lines, [g], [b])[0]
                # Scored alone, an offer is worth what its line says.
                assert group_expected_revenue_exact(dists, offer) == value
                # At b = n M nothing varies and SE is 0; the engine is
                # exact to rounding there.
                mean, se, _ = mc_revenue(dists, offer, self.SAMPLES, seed)
                assert abs(mean - value) <= 4.0 * se + 1e-14, (a, b)
            _check_line(lines, g, bs[g], values[g])

    @pytest.mark.parametrize("size", [3, 6, 9])
    def test_searched_value_agrees_with_monte_carlo(self, size):
        # Above 7 customers numpy sums a row pairwise; the exact value is
        # still within 4 SE of the estimate of its offer.
        dists = [TEMPLATE] * size
        offer, value = optimize_group_offer(dists, mode="full", budget=1)
        mean, se, _ = mc_revenue(dists, offer, 20_000, (9, size))
        assert abs(mean - value) <= 4.0 * se

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rows_are_summed_in_numpy_order(self, n):
        # Decimal valuations whose float sums depend on the order of the
        # additions, so many rows tie with a bundle price at such a sum.
        # Below 8 values numpy adds a row left to right, as resolve_outcome
        # does, and the engine puts its all-capped atom at the caps' left-
        # to-right sum, so the three paths sell on the same ties.
        table = _decimal_table(1000, n, n)
        for a in (NO_SALE, 0.2, 0.3):
            if a is not None:
                x = _iid_lines(UNIFORM, n, [a])[0]
                assert x[0, -1] == _left_to_right([a] * n)
            ceiling = math.inf if a is None else a
            sums = np.unique(np.minimum(table, ceiling).sum(axis=1))
            for b in sums[::max(1, len(sums) // 8)].tolist():
                offer = BundleOffer((a,) * n, b)
                mean, _, accept = mc_score(table, offer)
                outcomes = [resolve_outcome(offer, tuple(row))
                            for row in table]
                assert accept == sum(o.bundle_accepted
                                     for o in outcomes) / 1000
                assert mean == pytest.approx(
                    sum(o.seller_revenue for o in outcomes) / 1000,
                    rel=1e-14)

    @pytest.mark.parametrize("n", [8, 11])
    def test_coordinate_line_agrees_above_seven_columns(self, n):
        # numpy sums rows of 8 or more pairwise; the lines hold there too.
        seed = (22, n)
        dists = [TEMPLATE] * n
        prices = [NO_SALE, 0.5, 0.8]
        lines = _iid_lines(TEMPLATE, n, prices)
        bs, values = line_argmaxes(lines)
        for g, a in enumerate(prices):
            for b in (float(bs[g]), 0.45 * n):
                offer = BundleOffer((a,) * n, b)
                mean, se, _ = mc_revenue(dists, offer, self.SAMPLES, seed)
                value = line_values(lines, [g], [b])[0]
                assert abs(mean - value) <= 4.0 * se
            _check_line(lines, g, bs[g], values[g])

    def test_search_path_matches_full_scoring(self, monkeypatch):
        # At every step of a search, scoring every break and grid point in
        # full finds nothing better than the line's argmax, and the value
        # returned is the offer's own exact value.
        dists = [TEMPLATE] * 4
        steps = []
        build = group_revenue.bundle_lines

        def record(classes, prices):
            steps.append(build(classes, prices))
            return steps[-1]

        monkeypatch.setattr(group_revenue, "bundle_lines", record)
        offer, value = optimize_group_offer(dists, mode="full", budget=2)
        monkeypatch.undo()
        # The grid's 13 lines that can win, then both zoom rounds in one
        # call, one of whose four trials is a grid point.
        assert [len(lines[0]) for lines in steps] == [13, 3]
        assert value == group_expected_revenue_exact(dists, offer)
        for lines in steps:
            bs, values = line_argmaxes(lines)
            for g in range(len(bs)):
                _check_line(lines, g, bs[g], values[g])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_argmax_beats_every_sample_point_and_grid_point(self, n):
        dist = (UNIFORM, TEMPLATE, SKEWED)[n % 3]
        rng = np.random.default_rng(n)
        prices = [NO_SALE, *rng.uniform(0.0, dist.upper_bound, 3).tolist()]
        v = mc_profiles([dist] * n, 1000, (23, n))
        lines = _iid_lines(dist, n, prices)
        bs, values = line_argmaxes(lines)
        for g, a in enumerate(prices):
            caps = np.minimum(v, math.inf if a is None else a).sum(axis=1)
            _check_line(lines, g, bs[g], values[g], caps)

    def test_bundle_argmax_takes_the_least_best_price(self):
        # Two pieces, 4u(1 - u) on [0, 1) and on [1, 2), both reach 1 at
        # their midpoints: the lesser price wins.
        pieces = np.zeros((1, 2, 3))
        pieces[0, :, 1:] = (4.0, -4.0)
        lines = (np.array([[0.0, 1.0, 2.0]]), pieces, np.zeros(1))
        bs, values = line_argmaxes(lines)
        assert (bs.tolist(), values.tolist()) == ([0.5], [1.0])
        # A cap of 0 earns nothing at any b: the least b, 0, wins.
        bs, values = line_argmaxes(_iid_lines(TEMPLATE, 3, [0.0]))
        assert (bs.tolist(), values.tolist()) == ([0.0], [0.0])


def _masked_row_sums(v, prices):
    """Each row's capped sum and solo payments with NO_SALE masked out by
    ``isfinite``, where ``mc_score`` caps at infinity instead: numpy's
    ``sum(axis=1)`` of the capped and solo-payment matrices."""
    a = np.array([math.inf if p is None else p for p in prices])
    return (np.minimum(v, a).sum(axis=1),
            np.where((v >= a) & np.isfinite(a), a, 0.0).sum(axis=1))


class TestRowSums:
    """``mc_score`` sells and pays by numpy's own row sums, to the bit, and
    numpy adds a row left to right below 8 values and pairwise from 8 on.
    The Monte Carlo pins rest on that order, so a numpy release that
    changes it fails here."""

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_numpy_row_sums_bit_for_bit(self, n):
        v = _decimal_table(3000, n, n)
        rng = np.random.default_rng(100 + n)
        # NO_SALE, 0, the upper bound M = 1, and prices that tie with values.
        price_lists = [
            [NO_SALE] * n,
            [(NO_SALE, 0.0, 1.0, 0.3)[k % 4] for k in range(n)],
            [(0.3, NO_SALE, 0.7, 0.0)[k % 4] for k in range(n)],
            [0.0] * n,
            [1.0] * n,
        ] + [[(NO_SALE, 0.0, 0.05, 0.3, 0.7, 1.0)[k]
              for k in rng.integers(0, 6, n)] for _ in range(4)]
        for prices in price_lists:
            cap, solo = _masked_row_sums(v, prices)
            # Bundle prices at sampled capped sums, so rows tie with them.
            for b in (float(cap[0]), float(np.median(cap)), 0.0):
                accept = cap >= b
                revenue = np.where(accept, b, solo)
                mean, _, accepted = mc_score(v, BundleOffer(tuple(prices), b))
                assert accepted == np.count_nonzero(accept) / len(v)
                assert mean == float(revenue.sum()) / len(v), (prices, b)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_the_table_tells_summation_orders_apart(self, n):
        # Another order gives other floats on these rows, so the bitwise
        # match above pins the order: reversed columns differ from numpy's
        # sum, and from 8 columns on so does a left-to-right sum.
        v = _decimal_table(3000, n, n)
        numpy_sums = v.sum(axis=1)
        if n != 8:
            assert not np.array_equal(v[:, ::-1].sum(axis=1), numpy_sums)
        left_to_right = np.array([_left_to_right(row) for row in v])
        assert np.array_equal(left_to_right, numpy_sums) == (n < 8)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_a_held_table_is_scored_as_given(self, n):
        table = _decimal_table(2000, n, n)
        kept = table.copy()
        prices = [(NO_SALE, 0.0, 1.0, 0.3)[k % 4] for k in range(n)]
        cap, solo = _masked_row_sums(table, prices)
        b = float(np.median(cap))
        offer = BundleOffer(tuple(prices), b)
        first = mc_score(table, offer)
        assert table.tobytes() == kept.tobytes()
        assert first[2] == np.count_nonzero(cap >= b) / 2000
        assert first[0] == float(np.where(cap >= b, b, solo).sum()) / 2000
        assert mc_score(table, offer) == first


def _hex(pair):
    return tuple(float(v).hex() for v in pair)


SORTED_CASES = {
    "empty": [],
    "single": [0.3],
    "all_equal": [0.2] * 7,
    "ties": sorted(_decimal_table(300, 1, 0).ravel()),
    "below_zero": [-0.6, -0.3, -0.3, -0.05, 0.0, 0.0, 0.1, 0.3, 0.3, 0.7],
}


def _line_values_by_search(lines, line, b):
    """``line_values`` with one binary search per point for its piece."""
    x, pieces, tail = lines[:3]
    d = pieces.shape[2]
    out = []
    for g, t in zip(line, b):
        j = int(np.searchsorted(x[g], t, side="left")) - 1
        if j < 0:
            out.append(0.0)
        elif j >= pieces.shape[1]:
            out.append(float(tail[g]))
        else:
            u = np.cumprod(np.concatenate(([1.0], np.full(d - 1, t - x[g, j]))))
            out.append(float((pieces[g, j] * u).sum()))
    return np.array(out)


class TestLineRanks:
    """The exact engine ranks points on every line at once, with the counts
    ``np.searchsorted`` gives each line alone, so it returns the same
    floats."""

    @pytest.mark.parametrize("name", sorted(SORTED_CASES))
    def test_tie_starts_match_searchsorted(self, name):
        s = np.array(SORTED_CASES[name], dtype=float)
        starts = _group_exact._count(s[None], s[None], strict=True)[0]
        assert np.array_equal(starts, np.searchsorted(s, s))
        assert np.array_equal(np.unique(starts),
                              np.unique(np.searchsorted(s, s)))
        if s.size:
            # The merged breaks keep one of each run of ties.
            merged = _group_exact._merged(s[None], np.zeros((1, 1)))[0]
            want = np.unique(s)
            assert merged[:want.size].tobytes() == want.tobytes()
            assert np.all(merged[want.size:] == s[-1])

    @pytest.mark.parametrize("t_name", sorted(SORTED_CASES))
    @pytest.mark.parametrize("x_name", sorted(SORTED_CASES))
    def test_ranks_match_searchsorted(self, t_name, x_name):
        t = np.array(SORTED_CASES[t_name], dtype=float)
        x = np.array(SORTED_CASES[x_name], dtype=float)
        # Two lines at once: the second doubled, which keeps every order.
        xs, ts = np.stack((x, 2.0 * x)), np.stack((t, 2.0 * t))
        for strict, side in ((False, "right"), (True, "left")):
            got = _group_exact._count(xs, ts, strict=strict)
            assert got.shape == ts.shape
            for row in got:
                assert np.array_equal(row, np.searchsorted(x, t, side=side))
        if x.size and t.size:
            merged = _group_exact._merged(x[None], t[None])[0]
            want = np.unique(np.add.outer(x, t))
            assert merged[:want.size].tobytes() == want.tobytes()
            assert np.all(merged[want.size:] == x[-1] + t[-1])

    @pytest.mark.parametrize("rows", [1, 2, 3, 50, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_line_argmaxes_match_binary_search(self, rows, seed):
        # Tie-heavy caps, many lines at once: NO_SALE, 0, the knots, M,
        # caps above M and a cap inside a piece.
        n = seed + 1
        dist = (TEMPLATE, ULP_SUMS)[seed % 2]
        m = dist.upper_bound
        choices = [NO_SALE, 0.0, *dist.knots[1:], 1.5 * m, 0.3 * m]
        rng = np.random.default_rng((rows, seed))
        prices = [choices[k] for k in rng.integers(0, len(choices), rows)]
        lines = _iid_lines(dist, n, prices)
        bs, values = line_argmaxes(lines)
        line = np.arange(rows)
        assert (_hex(line_values(lines, line, bs))
                == _hex(_line_values_by_search(lines, line, bs)))
        assert _hex(values) == _hex(_line_values_by_search(lines, line, bs))
        # Each line solved alone gives the floats it has in the batch.
        for a in set(prices):
            alone = _iid_lines(dist, n, [a])
            b_alone, value_alone = line_argmaxes(alone)
            g = prices.index(a)
            assert _hex((bs[g], values[g])) == _hex((b_alone[0],
                                                     value_alone[0]))
            _check_line(alone, 0, b_alone[0], value_alone[0])
            grid = np.linspace(0.0, alone[0][0, -1], 41)
            assert (_hex(line_values(alone, np.zeros(41, dtype=int), grid))
                    == _hex(_line_values_by_search(alone, [0] * 41, grid)))


class TestVerifySurplusExtraction:
    def test_desk_scale(self):
        reports = verify_surplus_extraction(UNIFORM, [100, 1000])
        by_n = {r.n: r for r in reports}
        assert set(by_n) == {100, 1000}
        r1000 = by_n[1000]
        assert r1000.mu == pytest.approx(500.0, abs=1e-9)
        assert r1000.bundle_price == pytest.approx(333.77, abs=0.01)
        assert r1000.lower_bound == pytest.approx(333.44, abs=0.01)
        assert r1000.bernstein_bound <= 1e-3
        for r in reports:
            assert r.lower_bound_ok and r.upper_bound_ok and r.passes
            assert r.revenue_estimate <= r.mu + 4.0 * r.revenue_std_error
            assert r.lower_bound <= r.mu
            assert 0.0 <= r.accept_prob_estimate <= 1.0

    def test_relative_gap_shrinks(self):
        reports = verify_surplus_extraction(UNIFORM, [100, 1000])
        gaps = [(r.mu - r.revenue_estimate) / r.mu for r in reports]
        assert gaps[0] > gaps[1]

    def test_vacuous_n_propagates(self):
        with pytest.raises(ValueError, match="vacuous"):
            verify_surplus_extraction(UNIFORM, [10, 1000])

    def test_reports_sorted_by_n(self):
        reports = verify_surplus_extraction(UNIFORM, [1000, 100])
        assert [r.n for r in reports] == [100, 1000]

    def test_a_row_holds_nothing_of_size_n(self):
        # Each row is closed-form in n: no list, tuple or offer of n items
        # (at n = 1e9 one such list alone would take 8 GB).
        verify_surplus_extraction(UNIFORM, [10**9])
        tracemalloc.start()
        try:
            (r,) = verify_surplus_extraction(UNIFORM, [10**9])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert r.mu == 5e8
        assert r.passes

    def test_mu_is_n_times_the_mean(self):
        # The row's mu is the one chernoff_tail_bound uses; summing 10**4
        # copies of the mean read 1500.0000000001792.
        (r,) = verify_surplus_extraction(make_uniform(0.3), [10**4])
        assert r.mu == 1500.0
        assert r.upper_bound == 1500.0


    @pytest.mark.parametrize("law", [
        make_uniform,
        # Two segments, so the tilted variance overflows past M = 2^512.
        lambda m: make_piecewise_linear((0.0, m / 4.0, m), (1.0, 1.0, 1.0)),
    ], ids=["uniform", "flat_knots"])
    @given(k=st.integers(-1000, 1000))
    def test_rows_scale_exactly_with_m(self, law, k):
        # Theorem 2 in units of M: at M = 2^k every value is 2^k times its
        # M = 1 value and every probability the same, bit for bit.  The
        # tail bound's Newton iterates start from a rounded log theta, so
        # it agrees to rounding.
        ns = [100, 1000, 10000]
        for r, r1 in zip(verify_surplus_extraction(law(2.0**k), ns),
                         verify_surplus_extraction(law(1.0), ns)):
            for name in ("mu", "bundle_price", "lower_bound", "upper_bound",
                         "revenue_estimate"):
                assert getattr(r, name) == math.ldexp(getattr(r1, name), k)
            assert r.accept_prob_estimate == r1.accept_prob_estimate
            assert r.bernstein_bound == r1.bernstein_bound
            assert r.tail_bound == pytest.approx(r1.tail_bound, rel=1e-11)
            assert r.passes


class TestChernoffTailBound:
    DISTS = {
        "uniform_1": UNIFORM,
        "uniform_0_3": make_uniform(0.3),
        "ramp": make_piecewise_linear((0.0, 1.0), (0.5, 1.5)),
        "template": TEMPLATE,
        "fallback": FALLBACK,
    }

    def test_shipped_rows(self):
        # configs/verify_thm2_uniform.json: far below 2**-54 at every n.
        for n, below in ((100, 1e-71), (1000, 1e-74), (10**4, 1e-96)):
            b = full_surplus_offer([UNIFORM] * n).bundle_price
            assert 0.0 < chernoff_tail_bound(UNIFORM, n, b) < below

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_at_most_hoeffding_at_the_full_surplus_price(self, name):
        dist = self.DISTS[name]
        for n in (23, 30, 68, 100, 500, 1000, 10**4):
            try:
                b = full_surplus_offer([dist] * n).bundle_price
            except ValueError:  # vacuous at this n
                continue
            assert chernoff_tail_bound(dist, n, b) <= n**-8.0

    @pytest.mark.parametrize("n", [2, 6, 12, 30])
    def test_bounds_the_exact_uniform_tail(self, n):
        # Irwin-Hall: the sum of n uniforms has an exact rational CDF.
        for z in (0.25, 0.5, 1.0, 2.0, 3.0):
            b = n / 2.0 - z * math.sqrt(n / 12.0)
            if b <= 0.0:
                continue
            exact = irwin_hall_cdf(n, b)
            eps = chernoff_tail_bound(UNIFORM, n, b)
            assert exact <= eps < 1.0
            # The bound is exponentially tight: its log is within
            # log(n) + 2 of the exact tail's.
            assert math.log(eps) <= math.log(exact) + math.log(n) + 2.0

    @pytest.mark.parametrize("name", ["template", "fallback"])
    def test_bounds_the_exact_tail_of_nonuniform_laws(self, name):
        # The exact pure-bundle law: P[V_1 + ... + V_n < b] from the
        # capped-sum engine with no cap.
        dist = self.DISTS[name]
        for n in range(1, 13):
            bs = np.linspace(0.0, n * dist.mean, 26)[1:]
            exact = capped_sum_cdf(_iid_lines(dist, n, [NO_SALE]), 0, bs)[0]
            for b, tail in zip(bs.tolist(), exact.tolist()):
                assert chernoff_tail_bound(dist, n, b) >= tail, (n, b)

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_reaches_the_minimum_of_a_dense_theta_grid(self, name):
        dist = self.DISTS[name]
        for n in (6, 50, 1000):
            mu = n * dist.mean
            for b in (0.2 * mu, 0.6 * mu, 0.95 * mu):
                grid = np.geomspace(1e-6, 1e4, 4001) / dist.upper_bound
                best = min(t * b + n * dist.log_laplace(t) for t in grid)
                eps = chernoff_tail_bound(dist, n, b)
                # Both sides underflow to 0 together far out in the tail.
                assert eps <= math.exp(best) * (1.0 + 1e-9)

    @pytest.mark.parametrize("n", [6, 50])
    @pytest.mark.parametrize("name", ["uniform_1", "template", "fallback"])
    def test_bounds_the_mc_rejection_rate(self, name, n):
        # Price the bundle half a standard deviation of the sum below mu, so
        # about a third of the profiles reject it: a check that can fail.
        dist = self.DISTS[name]
        sd = math.sqrt(n * variance_simpson(dist.knots, dist.densities))
        b = n * dist.mean - 0.5 * sd
        eps = chernoff_tail_bound(dist, n, b)
        samples = 20_000
        _, _, accept = mc_revenue([dist] * n, BundleOffer((NO_SALE,) * n, b),
                                  samples, (17, n))
        reject = 1.0 - accept
        se = math.sqrt(reject * (1.0 - reject) / samples)
        assert 0.2 < reject <= eps + 4.0 * se
        assert eps < 1.0

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_needs_no_golden_section_search(self, name, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("golden-section search called")

        monkeypatch.setattr(group_revenue, "golden_section_max", no_search)
        dist = self.DISTS[name]
        for n in (6, 50, 1000, 10**6):
            for frac in (0.05, 0.6, 0.999):
                # 0 where the bound underflows, far out in the tail.
                assert 0.0 <= chernoff_tail_bound(dist, n,
                                                  frac * n * dist.mean) < 1.0

    def test_edges(self):
        assert chernoff_tail_bound(UNIFORM, 10, 0.0) == 0.0
        assert chernoff_tail_bound(UNIFORM, 10, -1.0) == 0.0
        assert chernoff_tail_bound(UNIFORM, 10, 5.0) == 1.0
        assert chernoff_tail_bound(UNIFORM, 10, 7.0) == 1.0
        with pytest.raises(ValueError, match="n >= 1"):
            chernoff_tail_bound(UNIFORM, 0, 1.0)

    @given(st.floats(1e-300, 1e300))
    def test_certified_values_round_to_one_and_b(self, b):
        # Up to 2**-54 the exact acceptance probability lies in [1 - eps, 1]
        # and the revenue in [b (1 - eps), b]; both ends round to the same
        # float64, so such a row reads exactly 1.0 and b.
        eps = Fraction(2.0**-54)
        assert float(1 - eps) == 1.0
        assert float(Fraction(b) * (1 - eps)) == b


class TestCertifiedRows:
    """Every row is computed from its tail bound; nothing is sampled (the
    lab draws no random number at all: see test_experiments.py)."""

    def test_shipped_rows_are_certified_without_draws(self):
        reports = verify_surplus_extraction(UNIFORM, [100, 1000, 10**4])
        for r in reports:
            assert r.tail_bound < 2.0**-54
            assert r.accept_prob_estimate == 1.0
            assert r.revenue_estimate == r.bundle_price
            assert r.revenue_std_error == 0.0
            assert r.passes

    def test_loose_bounds_give_certified_rows_without_draws(self):
        # Rows 21 to 30 of this density have bounds above 2**-54, where the
        # values differ from 1 and b in float64; the row reports them.
        ns = [20, 21, 22, 23, 24, 25, 26, 28, 30, 40]
        reports = verify_surplus_extraction(FALLBACK, ns)
        assert [r.n for r in reports] == ns
        for r in reports:
            eps = chernoff_tail_bound(FALLBACK, r.n, r.bundle_price)
            assert r.tail_bound == eps
            eps *= 1.0 + 1e-6
            assert r.accept_prob_estimate == 1.0 - eps
            assert r.revenue_estimate == r.bundle_price * (1.0 - eps)
            assert r.revenue_std_error == 0.0
            assert r.passes
        row = reports[ns.index(23)]
        assert 2.0**-54 < row.tail_bound < 1e-15
        assert row.accept_prob_estimate == 0.9999999999999994
        assert row.revenue_estimate == 1.101409455186473

    @pytest.mark.parametrize("n", [100, 1000])
    def test_bound_holds_the_exact_uniform_tail(self, n):
        # Irwin-Hall at the shipped rows: the exact rejection probability is
        # at most the bound, so b (1 - eps) is at most the exact revenue,
        # which rounds to the reported value.  The bound is within a factor
        # of about 50 of the exact tail.
        (r,) = verify_surplus_extraction(UNIFORM, [n])
        exact = irwin_hall_cdf(n, r.bundle_price)
        assert 0.0 < exact <= r.tail_bound
        assert math.log(r.tail_bound) <= math.log(exact) + math.log(n) + 2.0
        b = Fraction(r.bundle_price)
        assert float(b * (1 - Fraction(exact))) == r.revenue_estimate
