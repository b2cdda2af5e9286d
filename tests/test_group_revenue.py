import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bundle_auction_lab.bundles import NO_SALE, BundleOffer, resolve_outcome
from bundle_auction_lab import _mc, _search
from bundle_auction_lab._mc import (HeldSample, bundle_argmax, revenue_stats,
                                    valuation_sums)
from bundle_auction_lab import group_revenue
from bundle_auction_lab.group_revenue import (
    bernstein_sweep,
    bernstein_upper_bound,
    chernoff_tail_bound,
    full_surplus_offer,
    group_expected_revenue_mc,
    optimize_group_offer,
    surplus_lower_bound,
    verify_surplus_extraction,
)
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import irwin_hall_cdf, variance_simpson

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
    def test_zero_deviation_is_one(self):
        assert bernstein_upper_bound(1000, 1.0, 0.0) == 1.0

    def test_thousand_value(self):
        t = 2.0 * math.sqrt(1000 * math.log(1000))
        bound = bernstein_upper_bound(1000, 1.0, t)
        # direct evaluation of exp(-(t^2/2) / (n M^2 + M t / 3))
        direct = math.exp(-(t * t / 2.0) / (1000.0 + t / 3.0))
        assert bound == pytest.approx(direct, rel=1e-12)
        assert bound == pytest.approx(2.1e-6, rel=0.05)
        assert bound <= 1e-3

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            bernstein_upper_bound(10, 1.0, -0.5)

    def test_scale_free_where_n_m_squared_overflows(self):
        # n M^2 overflows at M = 2^1000; t / M is exact for a power of two,
        # so the bound must equal the M = 1 bound bit for bit.
        ns = np.array([2.0, 100.0, 10**6])
        t = 2.0 * np.sqrt(ns * np.log(ns))
        scaled = bernstein_upper_bound(ns, 2.0**1000, 2.0**1000 * t)
        assert scaled.tolist() == bernstein_upper_bound(ns, 1.0, t).tolist()

    def test_nan_bound_fails_the_sweep(self):
        # t = 2 M sqrt(n ln n) is infinite at M = inf, and t / M is NaN.
        with np.errstate(invalid="ignore"):
            ok, worst_n, worst_ratio = bernstein_sweep(2, 100, math.inf)
        assert not ok
        assert worst_n == 2
        assert math.isnan(worst_ratio)

    def test_finite_m_whose_deviation_overflows_raises(self):
        # 2 M sqrt(n ln n) overflows at n = 100 for M = 1e308, and at the
        # default n_max = 1e6 already for M = 1e305.
        with pytest.raises(ValueError, match="overflows at n=100"):
            bernstein_sweep(2, 100, 1e308)
        with pytest.raises(ValueError, match="overflows at n=1000000"):
            bernstein_sweep(m=1e305)
        assert bernstein_sweep(2, 100, 1e300)[0]

    def test_sweep_full_range(self):
        ok, worst_n, worst_ratio = bernstein_sweep(2, 10**6, 1.0)
        assert ok
        assert worst_ratio <= 1.0
        assert worst_n == 2  # the ratio bound * n decays in n

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            bernstein_sweep(1, 100)
        with pytest.raises(ValueError):
            bernstein_sweep(10, 5)

    @pytest.mark.parametrize("m", [1.0, math.inf])
    def test_n_max_beyond_float_range_is_a_value_error(self, m):
        # The CLI reports a ValueError as an error message; any other
        # exception would end in a traceback.
        with pytest.raises(ValueError, match="beyond float range"):
            bernstein_sweep(2, 10**400, m)


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
        stats = revenue_stats(dists, offer, 1000, 77)
        from bundle_auction_lab._mc import _batches
        total = 0.0
        for v in _batches(dists, 1000, 77):
            for row in v:
                total += resolve_outcome(offer, tuple(row)).seller_revenue
        assert stats.mean == pytest.approx(total / 1000, abs=1e-12)

    def test_thousand_uniform_offer_is_almost_surely_accepted(self):
        offer = full_surplus_offer([UNIFORM] * 1000)
        est, se = group_expected_revenue_mc([UNIFORM] * 1000, offer, 10**4, 123)
        assert abs(est - offer.bundle_price) <= max(4.0 * se, 1e-9)

    def test_zero_price_pure_bundle_is_zero(self):
        offer = BundleOffer((NO_SALE,) * 5, 0.0)
        est, se = group_expected_revenue_mc([UNIFORM] * 5, offer, 2000, 5)
        assert est == 0.0 and se == 0.0

    def test_pair_pure_bundle_matches_exact_integrator(self):
        b = math.sqrt(2.0 / 3.0)
        offer = BundleOffer((NO_SALE, NO_SALE), b)
        est, se = group_expected_revenue_mc([UNIFORM, UNIFORM], offer, 10**5, 31)
        assert abs(est - (b - b**3 / 2.0)) <= 4.0 * se

    def test_bit_identical_for_same_seed(self):
        offer = BundleOffer((0.4, 0.6, NO_SALE), 1.2)
        dists = [UNIFORM] * 3
        a = group_expected_revenue_mc(dists, offer, 50_000, 2**40 + 3)
        b_ = group_expected_revenue_mc(dists, offer, 50_000, 2**40 + 3)
        c = group_expected_revenue_mc(dists, offer, 50_000, 2**40 + 4)
        assert a == b_
        assert a != c

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            group_expected_revenue_mc([UNIFORM] * 2, BundleOffer((NO_SALE,) * 2, 0.5), 10, 0)


class TestOptimizeGroupOffer:
    def test_pure_bundle_two_uniforms(self):
        offer, value = optimize_group_offer(
            [UNIFORM, UNIFORM], mode="pure_bundle", n_samples=10**6, seed=42
        )
        assert all(a is None for a in offer.individual_prices)
        assert abs(offer.bundle_price - math.sqrt(2.0 / 3.0)) < 0.02
        assert value == pytest.approx(0.5443310539518174, abs=0.003)

    def test_bundle_price_beats_grid_scan(self):
        n_samples, seed = 10**6, 42
        offer, value = optimize_group_offer(
            [UNIFORM, UNIFORM], mode="pure_bundle", n_samples=n_samples, seed=seed
        )
        sums = np.sort(valuation_sums([UNIFORM, UNIFORM], n_samples, seed))

        def mean_revenue(b):
            return b * (n_samples - np.searchsorted(sums, b, side="left")) / n_samples

        grid_vals = mean_revenue(np.linspace(0.0, 2.0, 500))
        assert abs(value - grid_vals.max()) <= 0.02
        # Same samples: the exact argmax beats every grid point and every
        # sampled sum.
        assert value >= grid_vals.max()
        assert value == mean_revenue(offer.bundle_price) == mean_revenue(sums).max()

    def test_pure_bundle_beats_lower_bound(self):
        for n in (50, 200):
            _, value = optimize_group_offer(
                [UNIFORM] * n, mode="pure_bundle", n_samples=10**5, seed=4
            )
            assert value >= surplus_lower_bound(n, 0.5 * n, 1.0)

    def test_full_mode_single_customer_reduces_to_single_price(self):
        offer, value = optimize_group_offer(
            [UNIFORM], mode="full", budget=2, n_samples=5 * 10**5, seed=11
        )
        a = offer.individual_prices[0]
        effective = min(offer.bundle_price, math.inf if a is None else a)
        assert value == pytest.approx(0.25, abs=0.004)
        assert effective == pytest.approx(0.5, abs=0.05)

    def test_full_mode_dominates_singles_for_skewed_distribution(self):
        # Mass piled near zero makes the pure bundle weak; the seeded
        # singles reduction keeps the optimizer at or above independent
        # pricing (up to Monte Carlo noise on the evaluation).
        from bundle_auction_lab.single_pricing import optimal_single_price
        skewed = make_piecewise_linear((0.0, 0.02, 1.0), (80.0, 2.0, 0.02))
        singles = 3 * optimal_single_price(skewed).utility
        _, value = optimize_group_offer(
            [skewed] * 3, mode="full", budget=1, n_samples=10**5, seed=6
        )
        est_se = 4.0 * 0.002  # generous slack for the CRN evaluation noise
        assert value >= singles - est_se

    def test_full_mode_never_below_pure_bundle(self):
        pb_offer, pb_value = optimize_group_offer(
            [UNIFORM] * 3, mode="pure_bundle", n_samples=10**5, seed=9
        )
        _, full_value = optimize_group_offer(
            [UNIFORM] * 3, mode="full", budget=2, n_samples=10**5, seed=9
        )
        assert full_value >= pb_value - 1e-12

    def test_search_stops_after_a_sweep_that_moves_nothing(self,
                                                           monkeypatch):
        # A sweep that moves nothing leaves the state as it found it, so
        # every later sweep would repeat it: a budget of 50 does the work
        # of at most 10 sweeps and returns the budget-10 result.
        dists = [TEMPLATE, UNIFORM, TEMPLATE, UNIFORM]
        lines = []
        solo, bundle = HeldSample.best_solo_price, HeldSample.best_bundle_price

        def record_solo(self, *args):
            lines.append("solo")
            return solo(self, *args)

        def record_bundle(self, *args):
            lines.append("bundle")
            return bundle(self, *args)

        monkeypatch.setattr(HeldSample, "best_solo_price", record_solo)
        monkeypatch.setattr(HeldSample, "best_bundle_price", record_bundle)
        result = optimize_group_offer(dists, mode="full", budget=50,
                                      n_samples=2000, seed=7)
        assert len(lines) <= 10 * (len(dists) + 1)
        monkeypatch.undo()
        assert result == optimize_group_offer(dists, mode="full", budget=10,
                                              n_samples=2000, seed=7)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_group_offer([UNIFORM], mode="both")
        with pytest.raises(ValueError):
            optimize_group_offer([UNIFORM], n_samples=10)


TEMPLATE = make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8))


class TestDrawOnce:
    """Full-mode search draws its sample once and scores every candidate on
    the held batches, with the same floats as streaming them."""

    @pytest.mark.parametrize("size", [3, 6])
    @pytest.mark.parametrize("batch_elements", [None, 3000])
    def test_each_batch_drawn_once(self, monkeypatch, size, batch_elements):
        if batch_elements is not None:
            monkeypatch.setattr(_mc, "BATCH_ELEMENTS", batch_elements)
        rows = max(1, _mc.BATCH_ELEMENTS // size)
        n_samples = 2500
        drawn = []
        make_rng = _mc._batch_rng

        def counting_rng(seed, batch):
            drawn.append(batch)
            return make_rng(seed, batch)

        monkeypatch.setattr(_mc, "_batch_rng", counting_rng)
        draw = _mc._draw
        calls = []

        def counting_draw(dists, rows, rng):
            calls.append(rows)
            return draw(dists, rows, rng)

        monkeypatch.setattr(_mc, "_draw", counting_draw)
        optimize_group_offer([TEMPLATE] * size, mode="full", budget=1,
                             n_samples=n_samples, seed=(5, size))
        assert drawn == list(range(math.ceil(n_samples / rows)))
        assert len(calls) == len(drawn) and sum(calls) == n_samples
        if batch_elements is not None:
            assert len(drawn) > 1

    @pytest.mark.parametrize("batch_elements", [None, 3000])
    def test_value_matches_streaming_estimate(self, monkeypatch, batch_elements):
        if batch_elements is not None:
            monkeypatch.setattr(_mc, "BATCH_ELEMENTS", batch_elements)
        # Above 7 customers a solo-price trial is summed in another order
        # than the streamed estimate, but the returned value is still its
        # full score.
        for size in (3, 6, 9):
            dists = [TEMPLATE] * size
            offer, value = optimize_group_offer(
                dists, mode="full", budget=1, n_samples=2500, seed=(9, size)
            )
            assert value == revenue_stats(dists, offer, 2500, (9, size)).mean

    def test_held_batches_match_streaming(self, monkeypatch):
        monkeypatch.setattr(_mc, "BATCH_ELEMENTS", 3000)
        dists = [TEMPLATE, UNIFORM, TEMPLATE]
        offer = BundleOffer((0.5, NO_SALE, 0.7), 1.4)
        held = HeldSample(dists, 2500, 13)
        assert held.values.shape == (2500, 3)
        assert len(held.bounds) - 1 == 3
        assert not held.values.flags.writeable
        assert held.score(offer) == revenue_stats(dists, offer, 2500, 13)
        assert np.array_equal(held.sums(), valuation_sums(dists, 2500, 13))

    def test_wrong_length_offer_raises_with_held_batches(self):
        dists = [TEMPLATE] * 3
        held = HeldSample(dists, 1000, 1)
        with pytest.raises(ValueError, match="equal length"):
            held.score(BundleOffer((NO_SALE,) * 2, 1.0))
        with pytest.raises(ValueError, match="equal length"):
            held.best_bundle_price([NO_SALE] * 2)
        with pytest.raises(ValueError, match="equal length"):
            held.best_solo_price([NO_SALE] * 4, 0, 1.0)
        with pytest.raises(ValueError, match="equal length"):
            revenue_stats(dists, BundleOffer((NO_SALE,) * 2, 1.0), 1000, 1)

    def test_held_batches_of_another_size_raise(self):
        # A held sample has the size it was drawn with; below the Monte
        # Carlo minimum it is not drawn at all.
        with pytest.raises(ValueError, match="1000 samples"):
            HeldSample([TEMPLATE] * 3, 999, 1)
        assert HeldSample([TEMPLATE] * 3, 1000, 1).sums().shape == (1000,)


RAMP = make_piecewise_linear((0.0, 1.0), (0.5, 1.5))
MIXED = [TEMPLATE, UNIFORM, make_uniform(0.3), RAMP, FALLBACK]


def _mixed_group(n):
    """Mixed distributions with prices that include ``NO_SALE``, 0 and M."""
    dists = [MIXED[k % len(MIXED)] for k in range(n)]
    prices = [(NO_SALE, 0.0, 1.0, 0.55)[k % 4] for k in range(n)]
    prices = [None if p is None else p * d.upper_bound
              for p, d in zip(prices, dists)]
    return dists, prices


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _moved(prices, i, a):
    trial = list(prices)
    trial[i] = a
    return trial


def _scores_at(held, prices, i, b, points):
    """``held.score`` of the offer ``(prices, b)`` with customer ``i``'s
    price (or, for ``i=None``, the bundle price) at each point."""
    if i is None:
        return [held.score(BundleOffer(tuple(prices), q)).mean for q in points]
    return [held.score(BundleOffer(tuple(_moved(prices, i, q)), b)).mean
            for q in points]


def _check_solo_line(held, prices, i, b):
    """Customer ``i``'s solo-price line: its argmax scores at least the
    value at every sample valuation of ``i`` and at every point of a
    2,001-point grid."""
    a, _ = held.best_solo_price(prices, i, b)
    x = held.values[:, i]
    points = np.concatenate((x, np.linspace(0.0, x.max(), 2001)))
    best = held.score(BundleOffer(tuple(_moved(prices, i, a)), b)).mean
    assert best >= max(_scores_at(held, prices, i, b, points))


def _check_bundle_line(held, prices):
    """The bundle line: its argmax scores at least the value at every row's
    capped sum and at every point of a 2,001-point grid."""
    b_best, _ = held.best_bundle_price(prices)
    ceiling = [math.inf if p is None else p for p in prices]
    caps = np.minimum(held.values, ceiling).sum(axis=1)
    points = np.concatenate((caps, np.linspace(0.0, caps.max(), 2001)))
    best = held.score(BundleOffer(tuple(prices), b_best)).mean
    assert best >= max(_scores_at(held, prices, None, None, points))


class TestHeldSample:
    """The line maximizers: each returns a price whose streamed estimate
    agrees with the line's value to rounding and is at least the estimate
    at every other price tried."""

    SAMPLES = 2000

    def _streamed(self, dists, prices, b, seed):
        offer = BundleOffer(tuple(prices), b)
        return revenue_stats(dists, offer, self.SAMPLES, seed).mean

    @pytest.mark.parametrize("batch_elements", [None, 3000])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_lines_and_score_match_streaming(self, monkeypatch, n,
                                             batch_elements):
        if batch_elements is not None:
            monkeypatch.setattr(_mc, "BATCH_ELEMENTS", batch_elements)
        seed = (21, n)
        dists, mixed = _mixed_group(n)
        held = HeldSample(dists, self.SAMPLES, seed)
        if batch_elements is not None and n > 1:
            assert len(held.bounds) - 1 > 1
        # Low prices that every customer often pays: at b equal to their
        # left-to-right sum, a row that buys every item ties with b
        # exactly, and the bundle sells on ties.
        low = [(0.1 + 0.013 * j) * d.upper_bound for j, d in enumerate(dists)]
        tie = _left_to_right(low)
        total_m = sum(d.upper_bound for d in dists)
        for prices, b in ((mixed, 0.4 * total_m),
                          (mixed, _left_to_right(p for p in mixed if p)),
                          (low, tie)):
            offer = BundleOffer(tuple(prices), b)
            assert held.score(offer) == revenue_stats(dists, offer,
                                                      self.SAMPLES, seed)
            for i, d in enumerate(dists):
                a, value = held.best_solo_price(prices, i, b)
                best = self._streamed(dists, _moved(prices, i, a), b, seed)
                assert value == pytest.approx(best, rel=1e-14)
                for q in (0.0, d.upper_bound, 0.3 * d.upper_bound, NO_SALE,
                          prices[i]):
                    assert best >= self._streamed(dists, _moved(prices, i, q),
                                                  b, seed)
            b_best, value = held.best_bundle_price(prices)
            best = self._streamed(dists, prices, b_best, seed)
            assert value == pytest.approx(best, rel=1e-14)
            for q in (0.0, 0.5, tie, total_m, b):
                assert best >= self._streamed(dists, prices, q, seed)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rows_are_summed_in_numpy_order(self, monkeypatch, n):
        # Decimal valuations whose float sums depend on the order of the
        # additions, so many rows tie with a bundle price at such a sum.
        # The bundle line takes its prices from the row sums the score
        # compares with b, so the row that sets b buys there and the best
        # b scores at least every row sum; a solo-price line is exact at
        # the current price, so its argmax scores at least that.
        rng = np.random.default_rng(n)
        table = rng.choice([0.05, 0.1, 0.2, 0.3, 0.6, 0.7], size=(2000, n))
        monkeypatch.setattr(_mc, "_draw", lambda dists, rows, r: table.copy())
        dists = [UNIFORM] * n
        held = HeldSample(dists, 2000, 0)
        sums = [_left_to_right(row) for row in table[:40]]
        for prices in ([NO_SALE] * n, [0.2] + [NO_SALE] * (n - 1),
                       [NO_SALE] * (n - 1) + [0.3]):
            ceiling = [math.inf if p is None else p for p in prices]
            b_best, value = held.best_bundle_price(prices)
            best = self._streamed(dists, prices, b_best, 0)
            assert value == pytest.approx(best, rel=1e-14)
            for q in np.unique(np.minimum(table, ceiling).sum(axis=1)):
                assert best >= self._streamed(dists, prices, q, 0)
            for b in sorted(set(sums))[::3]:
                for i in range(n):
                    a, _ = held.best_solo_price(prices, i, b)
                    assert (self._streamed(dists, _moved(prices, i, a), b, 0)
                            >= self._streamed(dists, prices, b, 0))

    @pytest.mark.parametrize("n", [8, 11])
    def test_coordinate_line_agrees_above_seven_columns(self, n):
        # numpy sums rows of 8 or more pairwise; the lines hold there too.
        seed = (22, n)
        dists, prices = _mixed_group(n)
        held = HeldSample(dists, self.SAMPLES, seed)
        b = 0.45 * sum(d.upper_bound for d in dists)
        for i in (0, n // 2, n - 1):
            a, value = held.best_solo_price(prices, i, b)
            best = self._streamed(dists, _moved(prices, i, a), b, seed)
            assert value == pytest.approx(best, rel=1e-12)
            for q in (0.5 * dists[i].upper_bound, NO_SALE, prices[i]):
                assert best >= self._streamed(dists, _moved(prices, i, q), b,
                                              seed)
        b_best, value = held.best_bundle_price(prices)
        best = self._streamed(dists, prices, b_best, seed)
        assert value == pytest.approx(best, rel=1e-12)
        assert best >= self._streamed(dists, prices, b, seed)

    def test_search_path_matches_full_scoring(self, monkeypatch):
        # At every step of a search, scoring every sample valuation and
        # grid point in full finds nothing better than the line's argmax.
        dists = [MIXED[k % len(MIXED)] for k in range(4)]
        steps = []
        solo, bundle = HeldSample.best_solo_price, HeldSample.best_bundle_price

        def record_solo(self, prices, i, b):
            steps.append((self, list(prices), i, b))
            return solo(self, prices, i, b)

        def record_bundle(self, prices):
            steps.append((self, list(prices), None, None))
            return bundle(self, prices)

        monkeypatch.setattr(HeldSample, "best_solo_price", record_solo)
        monkeypatch.setattr(HeldSample, "best_bundle_price", record_bundle)
        offer, value = optimize_group_offer(dists, mode="full", budget=1,
                                            n_samples=1000, seed=3)
        monkeypatch.undo()
        assert [i for _, _, i, _ in steps] == [0, 1, 2, 3, None]
        held = steps[0][0]
        assert value == held.score(offer).mean
        for _, prices, i, b in steps:
            if i is None:
                _check_bundle_line(held, prices)
            else:
                _check_solo_line(held, prices, i, b)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_argmax_beats_every_sample_point_and_grid_point(self, n):
        dists, _ = _mixed_group(n)
        held = HeldSample(dists, 1000, (23, n))
        rng = np.random.default_rng(n)
        prices = [None if rng.random() < 0.3 else rng.uniform() * d.upper_bound
                  for d in dists]
        b = rng.uniform(0.3, 0.8) * sum(d.upper_bound for d in dists)
        for i in range(n):
            _check_solo_line(held, prices, i, b)
        _check_bundle_line(held, prices)

    def test_bundle_argmax_takes_the_least_best_price(self):
        # b = 2 sells to three rows: 6 beats 1 * 4 and 3 * 1.  A solo
        # payment below the bundle price is added for the row that rejects.
        cap = np.array([3.0, 2.0, 1.0, 2.0])
        assert bundle_argmax(cap) == (2.0, 1.5)
        assert bundle_argmax(cap, np.array([0.0, 0.0, 0.5, 0.0])) == (2.0,
                                                                      1.625)
        # Both prices take 2 in all: the lesser wins.
        assert bundle_argmax(np.array([2.0, 1.0])) == (1.0, 1.0)


# Decimal valuations whose float sums depend on the order of the additions.
DECIMALS = [0.05, 0.1, 0.2, 0.3, 0.6, 0.7]


def _decimal_table(rows, n, seed):
    return np.random.default_rng(seed).choice(DECIMALS, size=(rows, n))


def _numpy_row_sums(v, prices):
    """The kernel's definition: numpy's ``sum(axis=1)`` of the capped and
    solo-payment matrices."""
    a = np.array([math.inf if p is None else p for p in prices])
    return (np.minimum(v, a).sum(axis=1),
            np.where((v >= a) & np.isfinite(a), a, 0.0).sum(axis=1))


class TestRowSumKernel:
    """``_mc._cap_and_solo_sums`` gives numpy's own row sums to the bit:
    column passes left to right below 8 customers, numpy's pairwise
    ``sum(axis=1)`` from 8 on.  A numpy release that changes its row-sum
    order fails here."""

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
            want_cap, want_solo = _numpy_row_sums(v, prices)
            cap, solo = _mc._cap_and_solo_sums(v, prices)
            assert cap.tobytes() == want_cap.tobytes()
            if all(p is None for p in prices):
                assert solo is None
            else:
                assert solo.tobytes() == want_solo.tobytes()

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
    def test_held_sample_holds_its_one_batch_as_drawn(self, monkeypatch, n):
        table = _decimal_table(2000, n, n)
        drawn = []

        def draw(dists, rows, rng):
            drawn.append(table.copy())
            return drawn[-1]

        monkeypatch.setattr(_mc, "_draw", draw)
        dists = [UNIFORM] * n
        held = HeldSample(dists, 2000, 0)
        assert len(drawn) == 1 and held.values is drawn[0]
        assert not held.values.flags.writeable
        assert held.bounds == [0, 2000]
        sums = table.sum(axis=1).tobytes()
        assert held.sums().tobytes() == sums
        assert valuation_sums(dists, 2000, 0).tobytes() == sums
        prices = [(NO_SALE, 0.0, 1.0, 0.3)[k % 4] for k in range(n)]
        for got, want in zip(held._capped(prices), _numpy_row_sums(table,
                                                                   prices)):
            assert got.tobytes() == want.tobytes()


def _bundle_argmax_by_search(cap, solo=None):
    """``bundle_argmax`` with binary searches for the ranks."""
    if solo is None:
        cap = np.sort(cap)
    else:
        order = np.argsort(cap)
        cap = cap[order]
        paid = np.concatenate(([0.0], np.cumsum(solo[order])))
    below = np.searchsorted(cap, cap, side="left")
    totals = cap * (cap.size - below)
    if solo is not None:
        totals += paid[below]
    k = int(np.argmax(totals))
    return float(cap[k]), float(totals[k]) / cap.size


def _solo_argmax_by_search(x, t, solo, b):
    """``_mc._solo_argmax`` with binary searches for the ranks."""
    in_a = x >= t
    order = np.argsort(t[in_a])
    t_a = t[in_a][order]
    gained = np.concatenate(([0.0], np.cumsum((b - solo[in_a])[order])))
    x_b = np.sort(x[~in_a])
    points = np.concatenate(([0.0], t_a[np.searchsorted(t_a, 0.0):], x_b))
    bought = np.searchsorted(t_a, points, side="right")
    paying = (t_a.size - bought
              + x_b.size - np.searchsorted(x_b, points, side="left"))
    totals = solo.sum() + gained[bought] + points * paying
    best = totals.max()
    return float(points[totals == best].min()), float(best) / x.size


def _hex(pair):
    return tuple(v.hex() for v in pair)


SORTED_CASES = {
    "empty": [],
    "single": [0.3],
    "all_equal": [0.2] * 7,
    "ties": sorted(_decimal_table(300, 1, 0).ravel()),
    "below_zero": [-0.6, -0.3, -0.3, -0.05, 0.0, 0.0, 0.1, 0.3, 0.3, 0.7],
}


class TestLineRanks:
    """The line maximizers rank sorted points in linear time, with the
    counts ``np.searchsorted`` gives, so they return the same floats."""

    @pytest.mark.parametrize("name", sorted(SORTED_CASES))
    def test_tie_starts_match_searchsorted(self, name):
        s = np.array(SORTED_CASES[name], dtype=float)
        assert np.array_equal(_mc._tie_starts(s),
                              np.unique(np.searchsorted(s, s)))

    @pytest.mark.parametrize("t_name", sorted(SORTED_CASES))
    @pytest.mark.parametrize("x_name", sorted(SORTED_CASES))
    def test_ranks_match_searchsorted(self, t_name, x_name):
        t = np.array(SORTED_CASES[t_name], dtype=float)
        x = np.array(SORTED_CASES[x_name], dtype=float)
        points, t_le, x_lt = _mc._ranks(t, x)
        want = np.unique(np.concatenate((t, x)))
        assert points.tobytes() == want.tobytes()
        assert np.array_equal(t_le, np.searchsorted(t, want, side="right"))
        assert np.array_equal(x_lt, np.searchsorted(x, want))

    @pytest.mark.parametrize("rows", [1, 2, 3, 50, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_line_argmaxes_match_binary_search(self, rows, seed):
        # Tie-heavy valuations and thresholds, some below 0, some above
        # every valuation, and payments that tie them.
        rng = np.random.default_rng((rows, seed))
        x = rng.choice(DECIMALS, rows)
        t = rng.choice([-0.3, -0.05, 0.0, 0.1, 0.3, 0.6, 0.7, 0.9], rows)
        solo = rng.choice([0.0, 0.05, 0.3], rows)
        for b in (0.0, 0.35, 0.9, 2.0):
            assert (_hex(_mc._solo_argmax(x, t, solo, b))
                    == _hex(_solo_argmax_by_search(x, t, solo, b)))
        # Every row in A, then every row in B.
        for t_all in (np.full(rows, -0.1), np.full(rows, 0.8)):
            assert (_hex(_mc._solo_argmax(x, t_all, solo, 0.9))
                    == _hex(_solo_argmax_by_search(x, t_all, solo, 0.9)))
        cap = rng.choice([0.0, 0.35, 0.4, 0.75, 1.3], rows)
        assert _hex(bundle_argmax(cap)) == _hex(_bundle_argmax_by_search(cap))
        assert (_hex(bundle_argmax(cap, solo))
                == _hex(_bundle_argmax_by_search(cap, solo)))


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
        stats = revenue_stats([dist] * n, BundleOffer((NO_SALE,) * n, b),
                              samples, (17, n))
        reject = 1.0 - stats.accept_prob
        se = math.sqrt(reject * (1.0 - reject) / samples)
        assert 0.2 < reject <= eps + 4.0 * se
        assert eps < 1.0

    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_needs_no_golden_section_search(self, name, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("golden-section search called")

        monkeypatch.setattr(group_revenue, "golden_section_max", no_search)
        monkeypatch.setattr(_search, "golden_section_max", no_search)
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
    """Every row is computed from its tail bound; nothing is sampled."""

    @staticmethod
    def _refuse_sampling(monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a large-bundle row sampled")

        monkeypatch.setattr(_mc, "_draw", no_sampling)
        monkeypatch.setattr(group_revenue, "revenue_stats", no_sampling)

    def test_shipped_rows_are_certified_without_draws(self, monkeypatch):
        self._refuse_sampling(monkeypatch)
        reports = verify_surplus_extraction(UNIFORM, [100, 1000, 10**4])
        for r in reports:
            assert r.tail_bound < 2.0**-54
            assert r.accept_prob_estimate == 1.0
            assert r.revenue_estimate == r.bundle_price
            assert r.revenue_std_error == 0.0
            assert r.passes

    def test_loose_bounds_give_certified_rows_without_draws(self,
                                                            monkeypatch):
        # Rows 21 to 30 of this density have bounds above 2**-54, where the
        # values differ from 1 and b in float64; the row reports them.
        self._refuse_sampling(monkeypatch)
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
