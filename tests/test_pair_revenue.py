import math
from fractions import Fraction

import numpy as np
import pytest

from bundle_auction_lab import pair_revenue
from bundle_auction_lab.bundles import NO_SALE, BundleOffer, group_rational_accepts
from bundle_auction_lab.pair_revenue import (
    RegionLabel,
    classify_region,
    epsilon_offer,
    optimize_pair_offer,
    pair_bundle_accepts,
    pair_expected_revenue_exact,
    pair_expected_revenue_mc,
    region_expected_revenue,
    region_probability,
    verify_pair_improvement,
)
from bundle_auction_lab.single_pricing import optimal_single_price
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import pair_revenue_riemann, ramp_pure_bundle_revenue

UNIFORM = make_uniform(1.0)
RAMP = make_piecewise_linear((0.0, 1.0), (0.5, 1.5))
#: The partition-mix benchmark's three-knot template.
TEMPLATE = make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8))
PURE_B_STAR = math.sqrt(2.0 / 3.0)
#: R* = 4/9 + 2 sqrt(2)/27 = 0.54920100462022926..., the revenue of the
#: optimal menu on U[0,1]^2 (Adams and Yellen 1976; Manelli and Vincent
#: 2006), as the exact engine returns it at (2/3, 2/3, (4 - sqrt 2)/3).
UNIFORM_PAIR_OPTIMUM = 0.5492010046202292


def uniform_eps_total(eps: float) -> float:
    # Closed form for uniform(1) x uniform(1) at the epsilon-offer around
    # p1 = p2 = 0.5: piecewise integration of the three revenue regions.
    return 0.5 + 0.25 * eps - eps**2 + eps**3


class TestEpsilonOffer:
    def test_construction(self):
        offer = epsilon_offer(0.5, 0.5, 0.1)
        assert offer.individual_prices == (0.6, 0.5)
        assert offer.bundle_price == 1.0

    def test_zero_eps_reduces_to_singles(self):
        offer = epsilon_offer(0.5, 0.5, 0.0)
        assert offer.individual_prices == (0.5, 0.5)
        assert offer.bundle_price == 1.0

    def test_asymmetric(self):
        offer = epsilon_offer(0.3, 0.7, 0.05)
        assert offer.individual_prices == pytest.approx((0.35, 0.7))
        assert offer.bundle_price == pytest.approx(1.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            epsilon_offer(0.5, 0.5, -0.01)


class TestExactRevenue:
    def test_degenerate_reduction(self):
        bd = pair_expected_revenue_exact(UNIFORM, UNIFORM, BundleOffer((0.5, 0.5), 1.0))
        assert bd.total == pytest.approx(0.5, abs=1e-9)
        assert bd.accept_probability == pytest.approx(0.25, abs=1e-9)

    def test_epsilon_offer_breakdown(self):
        bd = pair_expected_revenue_exact(
            UNIFORM, UNIFORM, epsilon_offer(0.5, 0.5, 0.1)
        )
        assert bd.total == pytest.approx(0.516, abs=1e-9)
        assert bd.accept_probability == pytest.approx(0.295, abs=1e-9)
        assert bd.solo_part_1 == pytest.approx(0.096, abs=1e-9)
        assert bd.solo_part_2 == pytest.approx(0.125, abs=1e-9)
        assert bd.bundle_part == pytest.approx(
            bd.total - bd.solo_part_1 - bd.solo_part_2, abs=1e-12
        )

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_epsilon_offers_match_closed_form(self, eps):
        bd = pair_expected_revenue_exact(
            UNIFORM, UNIFORM, epsilon_offer(0.5, 0.5, eps)
        )
        assert bd.total == pytest.approx(uniform_eps_total(eps), abs=1e-9)

    def test_pure_bundle_closed_form(self):
        for b in (0.5, PURE_B_STAR, 0.95):
            bd = pair_expected_revenue_exact(
                UNIFORM, UNIFORM, BundleOffer((NO_SALE, NO_SALE), b)
            )
            assert bd.total == pytest.approx(b - b**3 / 2.0, abs=1e-9)
            assert bd.solo_part_1 == bd.solo_part_2 == 0.0

    @pytest.mark.parametrize("b, exact", [
        (0.5, Fraction(121, 256)), (1.0, Fraction(2, 3)), (1.5, Fraction(85, 256)),
    ])
    def test_ramp_pure_bundle_matches_rational_value(self, b, exact):
        assert ramp_pure_bundle_revenue(b) == exact
        bd = pair_expected_revenue_exact(
            RAMP, RAMP, BundleOffer((NO_SALE, NO_SALE), b)
        )
        assert abs(bd.total - float(exact)) <= 2.2e-16

    def test_uniform_mixed_bundling_optimum(self):
        # The optimal menu on U[0,1]^2 prices each item at 2/3 and the bundle
        # at (4 - sqrt 2)/3, for R* = 4/9 + 2 sqrt(2)/27 (Adams and Yellen
        # 1976; Manelli and Vincent 2006).
        a, b = 2.0 / 3.0, (4.0 - math.sqrt(2.0)) / 3.0
        bd = pair_expected_revenue_exact(UNIFORM, UNIFORM, BundleOffer((a, a), b))
        assert bd.total == UNIFORM_PAIR_OPTIMUM

    def test_ramp_pair_frozen_value(self):
        # Frozen from the 2-D Riemann oracle (cells=4000) and the analytic
        # single-price optimum p* = (sqrt(7) - 1) / 3.
        sol = optimal_single_price(RAMP)
        bd = pair_expected_revenue_exact(
            RAMP, RAMP, epsilon_offer(sol.price, sol.price, 0.1)
        )
        assert bd.total == pytest.approx(0.6523552, abs=1e-4)

    @pytest.mark.parametrize("prices,b", [
        ((0.5, 0.5), 1.0),
        ((0.6, 0.5), 1.0),
        ((NO_SALE, NO_SALE), PURE_B_STAR),
        ((NO_SALE, 0.5), 0.9),
        ((0.6, NO_SALE), 1.1),
        ((2.0 / 3.0, 2.0 / 3.0), 0.8619),
    ])
    def test_matches_riemann_oracle(self, prices, b):
        exact = pair_expected_revenue_exact(UNIFORM, UNIFORM, BundleOffer(prices, b))
        ref = pair_revenue_riemann(UNIFORM, UNIFORM, prices, b, cells=2000)
        assert exact.total == pytest.approx(ref, abs=1e-3)

    def test_mixed_pair_matches_riemann_oracle(self):
        offer = epsilon_offer(0.54858, 0.54858, 0.1)
        exact = pair_expected_revenue_exact(RAMP, RAMP, offer)
        ref = pair_revenue_riemann(
            RAMP, RAMP, offer.individual_prices, offer.bundle_price, cells=2000
        )
        assert exact.total == pytest.approx(ref, abs=1.5e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pair_expected_revenue_exact(
                UNIFORM, UNIFORM, BundleOffer((0.5,), 1.0)
            )


class TestMonteCarlo:
    def test_degenerate_matches_exact(self):
        est, se = pair_expected_revenue_mc(
            UNIFORM, UNIFORM, BundleOffer((0.5, 0.5), 1.0), 10**5, 2024
        )
        assert abs(est - 0.5) <= 4.0 * se

    def test_zero_bundle_price_is_exactly_zero(self):
        est, se = pair_expected_revenue_mc(
            UNIFORM, UNIFORM, BundleOffer((0.7, 0.9), 0.0), 10**4, 7
        )
        assert est == 0.0 and se == 0.0

    def test_epsilon_offer_matches_exact(self):
        est, se = pair_expected_revenue_mc(
            UNIFORM, UNIFORM, epsilon_offer(0.5, 0.5, 0.1), 10**5, 99
        )
        assert abs(est - 0.516) <= 4.0 * se

    def test_seed_determinism(self):
        args = (UNIFORM, RAMP, BundleOffer((0.6, NO_SALE), 0.9), 10**4)
        assert pair_expected_revenue_mc(*args, 5) == pair_expected_revenue_mc(*args, 5)
        assert pair_expected_revenue_mc(*args, 5) != pair_expected_revenue_mc(*args, 6)

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            pair_expected_revenue_mc(
                UNIFORM, UNIFORM, BundleOffer((0.5, 0.5), 1.0), 10, 1
            )


class TestRegions:
    P1 = P2 = 0.5
    EPS = 0.1

    @pytest.mark.parametrize("point,label", [
        ((0.7, 0.7), RegionLabel.A1),
        ((0.7, 0.3), RegionLabel.A2),
        ((0.3, 0.7), RegionLabel.A3),
        ((0.55, 0.45), RegionLabel.A4),
        ((0.7, 0.45), RegionLabel.A5),
    ])
    def test_classification_examples(self, point, label):
        assert classify_region(*point, self.P1, self.P2, self.EPS) is label

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classify_region(0.5, 0.5, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            classify_region(0.5, 0.5, 0.5, 0.05, 0.1)  # p2 - eps < 0
        with pytest.raises(ValueError):
            classify_region(-0.1, 0.5, 0.5, 0.5, 0.1)

    def test_partition_is_exhaustive_and_disjoint(self):
        # Literal half-open membership tests, written independently of the
        # decision tree inside classify_region.
        p1, p2, eps = self.P1, self.P2, self.EPS
        members = {
            RegionLabel.A1: lambda x, y: x >= p1 and y >= p2,
            RegionLabel.A2: lambda x, y: y < p2 - eps,
            RegionLabel.A3: lambda x, y: x < p1 and y >= p2 - eps,
            RegionLabel.A4: lambda x, y: p1 <= x < p1 + eps and p2 - eps <= y < p2,
            RegionLabel.A5: lambda x, y: x >= p1 + eps and p2 - eps <= y < p2,
        }
        grid = np.concatenate([
            np.linspace(0.0, 1.2, 41),
            [p1, p2, p1 + eps, p2 - eps, np.nextafter(p2, 0.0)],
        ])
        for x in grid:
            for y in grid:
                labels = [lab for lab, f in members.items() if f(x, y)]
                assert len(labels) == 1
                assert classify_region(x, y, p1, p2, eps) is labels[0]

    def test_probabilities_sum_to_one(self):
        total = sum(
            region_probability(UNIFORM, UNIFORM, self.P1, self.P2, self.EPS, lab)
            for lab in RegionLabel
        )
        assert total == pytest.approx(1.0, abs=1e-8)
        frozen = {
            RegionLabel.A1: 0.25,
            RegionLabel.A2: 0.4,
            RegionLabel.A3: 0.3,
            RegionLabel.A4: 0.01,
            RegionLabel.A5: 0.04,
        }
        for lab, p in frozen.items():
            assert region_probability(
                UNIFORM, UNIFORM, self.P1, self.P2, self.EPS, lab
            ) == pytest.approx(p, abs=1e-9)

    def test_probabilities_sum_to_one_ramp_pair(self):
        sol = optimal_single_price(RAMP)
        total = sum(
            region_probability(RAMP, RAMP, sol.price, sol.price, 0.07, lab)
            for lab in RegionLabel
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_regionwise_strategy_comparison(self):
        # Revenue restricted to A1 and A3 is identical under both
        # strategies; on A5 the bundle gains exactly p2 * P(A5).
        args = (UNIFORM, UNIFORM, self.P1, self.P2, self.EPS)
        for lab in (RegionLabel.A1, RegionLabel.A3):
            s = region_expected_revenue(*args, lab, "singles")
            b = region_expected_revenue(*args, lab, "bundle")
            assert b == pytest.approx(s, abs=1e-6)
        s5 = region_expected_revenue(*args, RegionLabel.A5, "singles")
        b5 = region_expected_revenue(*args, RegionLabel.A5, "bundle")
        p_a5 = region_probability(*args, RegionLabel.A5)
        assert s5 == pytest.approx(0.02, abs=1e-9)
        assert b5 == pytest.approx(0.04, abs=1e-9)
        assert b5 - s5 == pytest.approx(self.P2 * p_a5, abs=1e-6)

    def test_region_revenues_sum_to_totals(self):
        args = (UNIFORM, UNIFORM, self.P1, self.P2, self.EPS)
        bundle_total = sum(
            region_expected_revenue(*args, lab, "bundle") for lab in RegionLabel
        )
        exact = pair_expected_revenue_exact(
            UNIFORM, UNIFORM, epsilon_offer(self.P1, self.P2, self.EPS)
        )
        assert bundle_total == pytest.approx(exact.total, abs=1e-7)
        singles_total = sum(
            region_expected_revenue(*args, lab, "singles") for lab in RegionLabel
        )
        assert singles_total == pytest.approx(0.5, abs=1e-9)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            region_expected_revenue(
                UNIFORM, UNIFORM, 0.5, 0.5, 0.1, RegionLabel.A1, "both"
            )


class TestAcceptCondition:
    @pytest.mark.parametrize("v1,v2,expected", [
        (0.55, 0.50, True),
        (0.45, 0.60, False),   # v1 below p1
        (0.90, 0.35, False),   # v2 below p2 - eps
    ])
    def test_examples(self, v1, v2, expected):
        assert pair_bundle_accepts(v1, v2, 0.5, 0.5, 0.1) is expected

    def test_agrees_with_group_rationality(self):
        rng = np.random.default_rng(20260810)
        configs = [(0.5, 0.5, 0.1), (0.3, 0.7, 0.05), (0.55, 0.48, 0.2)]
        checked = 0
        for p1, p2, eps in configs:
            offer = epsilon_offer(p1, p2, eps)
            v1s = rng.uniform(0.0, 1.2, 40000)
            v2s = rng.uniform(0.0, 1.2, 40000)
            boundaries1 = (p1, p1 + eps)
            boundaries2 = (p2 - eps, p2)
            for v1, v2 in zip(v1s, v2s):
                if min(abs(v1 - t) for t in boundaries1) < 1e-9:
                    continue
                if min(abs(v2 - t) for t in boundaries2) < 1e-9:
                    continue
                if abs((v1 + v2) - (p1 + p2)) < 1e-9:
                    continue
                assert pair_bundle_accepts(v1, v2, p1, p2, eps) == \
                    group_rational_accepts(offer, (v1, v2))
                checked += 1
        assert checked > 10**5


class TestVerifyImprovement:
    def test_uniform_pair(self):
        report = verify_pair_improvement(UNIFORM, UNIFORM, (0.05, 0.1, 0.2))
        assert report.singles_value == pytest.approx(0.5, abs=1e-9)
        assert report.p1_star == pytest.approx(0.5, abs=1e-8)
        by_eps = {round(ev.eps, 3): ev for ev in report.evaluations}
        assert by_eps[0.1].breakdown.total == pytest.approx(0.516, abs=1e-9)
        assert report.improved
        # the exact-revenue curve is 0.5 + eps/4 - eps^2 + eps^3, so the
        # refinement should land near its stationary point eps = 1/6.
        assert report.refined.eps == pytest.approx(1.0 / 6.0, abs=1e-3)
        assert report.best.improvement >= by_eps[0.2].improvement - 1e-12

    def test_all_suite_pairs_improve(self):
        for d1, d2 in [(UNIFORM, RAMP), (RAMP, UNIFORM), (RAMP, RAMP)]:
            report = verify_pair_improvement(d1, d2, (0.05, 0.1))
            assert report.improved
            assert report.best.improvement > 1e-3

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError):
            verify_pair_improvement(UNIFORM, UNIFORM, (0.0, 0.1))

    def test_eps_at_or_above_p2_star_rejected(self):
        with pytest.raises(ValueError):
            verify_pair_improvement(UNIFORM, UNIFORM, (0.5,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_pair_improvement(UNIFORM, UNIFORM, ())


class TestOptimizePair:
    def test_uniform_pair_beats_pure_bundle_optimum(self):
        offer, value = optimize_pair_offer(UNIFORM, UNIFORM, 10, grid_points=16)
        assert value >= 0.5443310539518174 - 0.002
        assert value > 0.5
        mc, se = pair_expected_revenue_mc(UNIFORM, UNIFORM, offer, 2 * 10**5, 3)
        assert abs(mc - value) <= 4.0 * se

    def test_pure_bundle_restriction_recovers_known_price(self):
        offer, value = optimize_pair_offer(
            UNIFORM, UNIFORM, 12, grid_points=16, pure_bundle_only=True
        )
        assert offer.individual_prices == (None, None)
        assert abs(offer.bundle_price - PURE_B_STAR) < 0.02
        assert value == pytest.approx(PURE_B_STAR - PURE_B_STAR**3 / 2, abs=1e-4)

    def test_dominates_singles_for_skewed_partner(self):
        skewed = make_piecewise_linear((0.0, 0.05, 1.0), (30.0, 2.0, 0.05))
        singles = (
            optimal_single_price(UNIFORM).utility
            + optimal_single_price(skewed).utility
        )
        _, value = optimize_pair_offer(UNIFORM, skewed, 2, grid_points=8)
        assert value >= singles - 1e-6

    def test_mixed_scale_pair(self):
        _, value = optimize_pair_offer(
            make_uniform(2.0), make_uniform(1.0), 2, grid_points=8
        )
        assert value >= 0.75 - 1e-6

    def test_uniform_pair_reaches_the_mixed_bundling_optimum(self):
        # R* is the optimum over all mechanisms for U[0,1]^2 (Manelli and
        # Vincent 2006), so no offer may exceed it, and the optimizer comes
        # within 1e-11 of it.
        _, value = optimize_pair_offer(UNIFORM, UNIFORM, 15)
        assert UNIFORM_PAIR_OPTIMUM - 1e-11 <= value <= UNIFORM_PAIR_OPTIMUM

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            optimize_pair_offer(UNIFORM, UNIFORM, 0)

    @pytest.mark.parametrize("grid_points", [0, 1])
    @pytest.mark.parametrize("pure_bundle_only", [False, True])
    def test_grid_points_validation(self, grid_points, pure_bundle_only):
        # Zero points used to crash in numpy's argmax, and one point to fall
        # back to a step of a quarter of the range.
        with pytest.raises(ValueError, match="grid_points"):
            optimize_pair_offer(UNIFORM, UNIFORM, 1, grid_points=grid_points,
                                pure_bundle_only=pure_bundle_only)

    @pytest.mark.parametrize("d, budget, kwargs, pinned", [
        (UNIFORM, 15, {},
         ("0x1.55556b5ad6b5bp-1", "0x1.55556b5ad6b5bp-1",
          "0x1.b94ef7bdef7bep-1", "0x1.1930dfc386e08p-1")),
        (UNIFORM, 15, {"pure_bundle_only": True},
         (None, None, "0x1.a20bdef7bdef7p-1", "0x1.16b28f55d7066p-1")),
        (TEMPLATE, 2, {"grid_points": 16},
         ("0x1.4444444444444p-1", "0x1.4444444444444p-1",
          "0x1.999999999999ap-1", "0x1.1e5d52405d505p-1")),
    ])
    def test_offers_are_pinned_at_one_kernel_call_per_round(
            self, monkeypatch, d, budget, kwargs, pinned):
        # The pins are the offers and values of the compass search that the
        # zoom rounds replaced: both walk the same dyadic lattice.  The grid
        # is one kernel call, and each round one more.
        calls = []
        kernel = pair_revenue.pair_expected_revenues_exact

        def counting(*args):
            calls.append(len(args[-1]))
            return kernel(*args)

        monkeypatch.setattr(pair_revenue, "pair_expected_revenues_exact",
                            counting)
        offer, value = optimize_pair_offer(d, d, budget, **kwargs)
        got = tuple(None if x is None else x.hex()
                    for x in (*offer.individual_prices, offer.bundle_price,
                              value))
        assert got == pinned
        assert len(calls) == 1 + budget
        assert max(calls[1:]) <= (3 if offer.individual_prices[0] is None
                                  else 27)
