import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_auction_lab.bundles import (
    NO_SALE,
    BundleOffer,
    Outcome,
    ValuationProfile,
    capped_value,
    group_rational_accepts,
    resolve_outcome,
    witness_split,
)

from oracles import split_exists_bruteforce

finite_money = st.floats(0.0, 2.0)
price_or_no_sale = st.one_of(st.none(), finite_money)


def offers(n):
    return st.builds(
        BundleOffer,
        st.tuples(*([price_or_no_sale] * n)),
        st.floats(0.0, 4.0),
    )


def profiles(n):
    return st.tuples(*([finite_money] * n))


class TestTypes:
    def test_offer_validation(self):
        with pytest.raises(ValueError):
            BundleOffer((), 1.0)
        with pytest.raises(ValueError):
            BundleOffer((0.5,), -0.1)
        with pytest.raises(ValueError):
            BundleOffer((-0.5, 1.0), 1.0)
        offer = BundleOffer((0.5, NO_SALE), 1.0)
        assert offer.n == 2
        assert offer.individual_prices == (0.5, None)

    @pytest.mark.parametrize("prices, b", [
        ((0.5, 0.5), math.inf),
        ((math.inf, 0.5), 1.0),
        ((NO_SALE, math.inf), 1.0),
    ])
    def test_offer_rejects_infinite_prices(self, prices, b):
        # NO_SALE is the one way to write an infinite price; an infinite
        # bundle price used to give the pair engine a NaN total.
        with pytest.raises(ValueError, match="finite"):
            BundleOffer(prices, b)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ValuationProfile((0.5, -0.1))
        prof = ValuationProfile((0.5, 0.25))
        assert len(prof) == 2 and list(prof) == [0.5, 0.25]

    def test_outcome_revenue_consistency_checked(self):
        with pytest.raises(ValueError):
            Outcome(False, (True,), (0.5,), 0.7)

    def test_an_accepted_bundle_must_reach_every_customer(self):
        with pytest.raises(ValueError, match=(
                "^an accepted bundle delivers to every customer$")):
            Outcome(True, (True, False), (1.0, 0.0), 1.0)


class TestCappedValue:
    def test_examples(self):
        assert capped_value(20.0, 10.0) == 10.0
        assert capped_value(5.0, 10.0) == 5.0
        assert capped_value(0.7, NO_SALE) == 0.7

    def test_rejects_negative_valuation(self):
        with pytest.raises(ValueError):
            capped_value(-0.1, 1.0)


class TestAcceptance:
    def test_book_buyers_example(self):
        # Two customers worth 20 and 5 jointly take two items for 11.
        offer = BundleOffer((10.0, 10.0), 11.0)
        assert group_rational_accepts(offer, (20.0, 5.0))

    def test_zero_bundle_price_always_accepted(self):
        offer = BundleOffer((0.3, NO_SALE, 1.0), 0.0)
        assert group_rational_accepts(offer, (0.0, 0.0, 0.0))

    def test_short_sum_rejected(self):
        offer = BundleOffer((0.5, 0.5), 0.9)
        assert not group_rational_accepts(offer, (0.4, 0.4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            group_rational_accepts(BundleOffer((0.5, 0.5), 1.0), (0.5,))

    def test_accepts_profile_type(self):
        offer = BundleOffer((10.0, 10.0), 11.0)
        assert group_rational_accepts(offer, ValuationProfile((20.0, 5.0)))


class TestWitness:
    def test_book_buyers_split(self):
        offer = BundleOffer((10.0, 10.0), 11.0)
        assert witness_split(offer, (20.0, 5.0)) == pytest.approx((8.0, 3.0))

    def test_zero_slack(self):
        offer = BundleOffer((0.5, 0.5), 0.8)
        split = witness_split(offer, (0.3, 0.9))
        assert split == pytest.approx((0.3, 0.5))

    def test_infeasible_returns_none(self):
        offer = BundleOffer((0.5, 0.5), 0.9)
        assert witness_split(offer, (0.4, 0.4)) is None

    @settings(max_examples=150, deadline=None)
    @given(offers(3), profiles(3))
    def test_witness_satisfies_all_conditions(self, offer, vals):
        split = witness_split(offer, vals)
        if split is None:
            assert not group_rational_accepts(offer, vals)
            return
        assert sum(split) == pytest.approx(offer.bundle_price, abs=1e-12)
        for p, v, a in zip(split, vals, offer.individual_prices):
            assert p <= v + 1e-12
            if a is not None:
                assert p <= a + 1e-12


class TestOutcome:
    def test_bundle_accepted_case(self):
        offer = BundleOffer((10.0, 10.0), 11.0)
        out = resolve_outcome(offer, (20.0, 5.0))
        assert out.bundle_accepted
        assert out.receives == (True, True)
        assert out.seller_revenue == pytest.approx(11.0)

    def test_solo_purchases(self):
        offer = BundleOffer((0.5, 0.5), 1.2)
        out = resolve_outcome(offer, (0.9, 0.1))
        assert not out.bundle_accepted
        assert out.receives == (True, False)
        assert out.payments == pytest.approx((0.5, 0.0))
        assert out.seller_revenue == pytest.approx(0.5)

    def test_pure_bundle_accept(self):
        offer = BundleOffer((NO_SALE, NO_SALE), 0.7)
        out = resolve_outcome(offer, (0.4, 0.4))
        assert out.bundle_accepted
        assert out.seller_revenue == pytest.approx(0.7)

    def test_boundary_tie_buys(self):
        offer = BundleOffer((0.5, NO_SALE), 2.0)
        out = resolve_outcome(offer, (0.5, 0.0))
        assert out.receives == (True, False)

    @settings(max_examples=150, deadline=None)
    @given(offers(3), profiles(3))
    def test_revenue_never_exceeds_total_value(self, offer, vals):
        out = resolve_outcome(offer, vals)
        assert out.seller_revenue <= sum(vals) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(profiles(3), st.tuples(finite_money, finite_money, finite_money))
    def test_degenerate_reduction_to_singles(self, vals, prices):
        # With b equal to the sum of finite solo prices the offer behaves
        # exactly like three independent take-it-or-leave-it sales.
        offer = BundleOffer(prices, sum(prices))
        out = resolve_outcome(offer, vals)
        singles = sum(a for v, a in zip(vals, prices) if v >= a)
        assert out.seller_revenue == pytest.approx(singles, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(offers(3), profiles(3),
           st.tuples(finite_money, finite_money, finite_money))
    def test_acceptance_monotone_in_valuations(self, offer, vals, bumps):
        higher = tuple(v + d for v, d in zip(vals, bumps))
        if group_rational_accepts(offer, vals):
            assert group_rational_accepts(offer, higher)


class TestAcceptanceLemmaSpotChecks:
    """The exhaustive grid sweep lives in the acceptance suite; these are
    targeted cross-checks of the sum rule against the brute-force split
    search."""

    @pytest.mark.parametrize("vals,prices,b", [
        ((0.6, 0.3), (0.5, 0.5), 0.75),
        ((0.6, 0.3), (0.5, 0.5), 0.85),
        ((1.0, 0.0), (0.5, 0.9), 0.45),
        ((0.2, 0.2, 0.2), (1.0, 1.0, 1.0), 0.55),
        ((0.9, 0.9, 0.05), (0.3, 0.3, 0.3), 0.6),
        ((0.9, 0.9, 0.05), (0.3, 0.3, 0.3), 0.7),
    ])
    def test_matches_bruteforce(self, vals, prices, b):
        offer = BundleOffer(prices, b)
        assert group_rational_accepts(offer, vals) == \
            split_exists_bruteforce(vals, prices, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_bruteforce_random_grid_points(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        vals = tuple(np.round(rng.integers(0, 21, n) * 0.05, 10))
        prices = tuple(
            None if rng.random() < 0.2 else float(np.round(rng.integers(0, 21) * 0.05, 10))
            for _ in range(n)
        )
        b = float(np.round(rng.integers(0, 21) * 0.05, 10))
        caps = sum(min(v, a) if a is not None else v for v, a in zip(vals, prices))
        if abs(caps - b) < 0.02:  # discretization boundary
            return
        offer = BundleOffer(prices, b)
        assert group_rational_accepts(offer, vals) == \
            split_exists_bruteforce(vals, prices, b)
