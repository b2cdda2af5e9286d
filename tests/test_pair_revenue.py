import math
from fractions import Fraction

import numpy as np
import pytest

from bundle_auction_lab import group_revenue, pair_revenue
from bundle_auction_lab.bundles import NO_SALE, BundleOffer, group_rational_accepts
from bundle_auction_lab.group_revenue import optimize_group_offer
from bundle_auction_lab.pair_revenue import (
    RegionLabel,
    classify_region,
    epsilon_offer,
    optimize_pair_offer,
    pair_bundle_accepts,
    pair_expected_revenue_exact,
    region_expected_revenue,
    region_probability,
    verify_pair_improvement,
)
from bundle_auction_lab.single_pricing import optimal_single_price
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import (mc_revenue, pair_revenue_reference,
                     pair_revenue_riemann, ramp_pure_bundle_revenue,
                     sequential_offer_search)

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
    # The Monte Carlo check of a pair is the group estimator on [d1, d2].
    def test_degenerate_matches_exact(self):
        est, se, _ = mc_revenue(
            [UNIFORM, UNIFORM], BundleOffer((0.5, 0.5), 1.0), 10**5, 2024
        )
        assert abs(est - 0.5) <= 4.0 * se

    def test_zero_bundle_price_is_exactly_zero(self):
        est, se, _ = mc_revenue(
            [UNIFORM, UNIFORM], BundleOffer((0.7, 0.9), 0.0), 10**4, 7
        )
        assert est == 0.0 and se == 0.0

    def test_epsilon_offer_matches_exact(self):
        est, se, _ = mc_revenue(
            [UNIFORM, UNIFORM], epsilon_offer(0.5, 0.5, 0.1), 10**5, 99
        )
        assert abs(est - 0.516) <= 4.0 * se

    def test_seed_determinism(self):
        args = ([UNIFORM, RAMP], BundleOffer((0.6, NO_SALE), 0.9), 10**4)
        assert mc_revenue(*args, 5) == mc_revenue(*args, 5)
        assert mc_revenue(*args, 5) != mc_revenue(*args, 6)


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
        with pytest.raises(ValueError, match=r"^prices must be nonnegative$"):
            classify_region(0.5, 0.5, -0.5, 0.5, 0.1)

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
        # refinement lands on its stationary point eps = 1/6, where the
        # total is 14/27.
        assert abs(report.refined.eps - 1.0 / 6.0) <= 1e-15
        assert report.refined.breakdown.total == pytest.approx(
            14.0 / 27.0, rel=0.0, abs=4 * math.ulp(14.0 / 27.0))
        assert report.best.improvement >= by_eps[0.2].improvement - 1e-12

    def test_skewed_pair_refines_to_the_lines_maximum(self):
        # The epsilon-line peaks at eps = 0.149, between the default grid's
        # values, and beats every grid row there.
        d1 = make_piecewise_linear((0.0, 0.75), (1.5, 1.2))
        d2 = make_piecewise_linear((0.0, 1.9, 2.0), (0.3, 0.7, 0.7))
        report = verify_pair_improvement(d1, d2)
        assert report.refined.eps == pytest.approx(0.149, abs=1e-6)
        assert report.refined.improvement >= 0.0189
        assert max(ev.improvement for ev in report.evaluations) < 0.0172
        assert report.best is report.refined

    def test_refinement_needs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("golden-section search called")

        monkeypatch.setattr(pair_revenue, "golden_section_max", refuse)
        assert verify_pair_improvement(RAMP, UNIFORM, (0.05, 0.1)).improved

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


def _ulps(x: float, want: float) -> float:
    return abs(x - want) / math.ulp(want)


#: The pair of configs/verify_thm1_skewed_pair.json: unequal laws and
#: upper bounds.
SKEWED_PAIR = (make_piecewise_linear((0.0, 0.75), (1.5, 1.2)),
               make_piecewise_linear((0.0, 1.9, 2.0), (0.3, 0.7, 0.7)))


def _reference_total(d1, d2, offer):
    """The offer's expected revenue by the per-offer reference, which
    shares no code with the exact group engine."""
    return pair_revenue_reference(d1, d2, offer.individual_prices,
                                  offer.bundle_price)[0]


def _hex(answer):
    offer, value = answer
    return tuple(None if x is None else x.hex()
                 for x in (*offer.individual_prices, offer.bundle_price, value))


class TestOptimizePair:
    def test_uniform_pair_beats_pure_bundle_optimum(self):
        (offer, value), _ = optimize_pair_offer(UNIFORM, UNIFORM, 10)
        assert value >= 0.5443310539518174 - 0.002
        assert value > 0.5
        mc, se, _ = mc_revenue([UNIFORM, UNIFORM], offer, 2 * 10**5, 3)
        assert abs(mc - value) <= 4.0 * se

    def test_pure_bundle_restriction_recovers_known_price(self):
        # max_b b (1 - b^2 / 2) is at b = sqrt(2/3), worth (2/3) sqrt(2/3).
        _, (offer, value) = optimize_pair_offer(UNIFORM, UNIFORM, 12)
        assert offer.individual_prices == (None, None)
        assert _ulps(offer.bundle_price, PURE_B_STAR) <= 2
        assert _ulps(value, (2.0 / 3.0) * PURE_B_STAR) <= 4

    def test_dominates_singles_for_skewed_partner(self):
        skewed = make_piecewise_linear((0.0, 0.05, 1.0), (30.0, 2.0, 0.05))
        singles = (
            optimal_single_price(UNIFORM).utility
            + optimal_single_price(skewed).utility
        )
        (_, value), _ = optimize_pair_offer(UNIFORM, skewed, 2)
        assert value >= singles

    def test_mixed_scale_pair(self):
        (_, value), _ = optimize_pair_offer(
            make_uniform(2.0), make_uniform(1.0), 2
        )
        assert value >= 0.75

    def test_uniform_pair_reaches_the_mixed_bundling_optimum(self):
        # R* is the optimum over all mechanisms for U[0,1]^2 (Manelli and
        # Vincent 2006), reached at solo prices 2/3 and bundle price
        # (4 - sqrt 2)/3.
        (offer, value), _ = optimize_pair_offer(UNIFORM, UNIFORM, 15)
        assert _ulps(value, UNIFORM_PAIR_OPTIMUM) <= 4
        assert offer.individual_prices == (2.0 / 3.0, 2.0 / 3.0)
        assert _ulps(offer.bundle_price, (4.0 - math.sqrt(2.0)) / 3.0) <= 2

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            optimize_pair_offer(UNIFORM, UNIFORM, 0)

    @pytest.mark.parametrize("d1, d2", [
        (UNIFORM, make_piecewise_linear((0.0, 0.05, 1.0), (30.0, 2.0, 0.05))),
        (make_uniform(2.0), UNIFORM),
        (TEMPLATE, RAMP),
    ], ids=["uniform-spike", "u2-uniform", "template-ramp"])
    def test_mixed_pair_offers_score_as_the_reference_says(self, d1, d2):
        # A mixed pair searches one solo price per customer; each answer's
        # value is the per-offer reference's for its offer, and the full
        # offer is worth at least the pure bundle and the singles.
        (offer, value), (bundle, bundle_value) = optimize_pair_offer(d1, d2, 6)
        for o, v in ((offer, value), (bundle, bundle_value)):
            assert abs(_reference_total(d1, d2, o) - v) <= 1e-13
        assert value >= bundle_value
        assert value >= (optimal_single_price(d1).utility
                         + optimal_single_price(d2).utility)

    @pytest.mark.parametrize("budget", [1, 2, 15, 5000])
    @pytest.mark.parametrize("pair", ["uniform", "template", "skewed",
                                      "template-ramp"])
    def test_each_answer_is_the_group_search_in_its_mode(self, pair, budget):
        # Each answer is optimize_group_offer's on the pair in its own mode,
        # to the bit; the per-offer reference, an independent integrator,
        # gives each offer the value returned, and the full offer is worth
        # at least the pure bundle.
        d1, d2 = {"uniform": (UNIFORM, UNIFORM), "template": (TEMPLATE, TEMPLATE),
                  "skewed": SKEWED_PAIR, "template-ramp": (TEMPLATE, RAMP)}[pair]
        got = optimize_pair_offer(d1, d2, budget)
        want = tuple(optimize_group_offer([d1, d2], mode, budget)
                     for mode in ("full", "pure_bundle"))
        assert tuple(map(_hex, got)) == tuple(map(_hex, want))
        for offer, value in got:
            assert abs(_reference_total(d1, d2, offer) - value) <= 1e-14
        assert got[0][1] >= got[1][1]

    @pytest.mark.parametrize("d1, d2, budget, pinned", [
        (UNIFORM, UNIFORM, 15,
         (("0x1.5555555555555p-1", "0x1.5555555555555p-1",
           "0x1.b94ebbbab2d76p-1", "0x1.1930dfc38c67dp-1"),
          (None, None, "0x1.a20bd700c2c3ep-1", "0x1.16b28f55d72d4p-1"))),
        (TEMPLATE, TEMPLATE, 2,                    # partition's template pair
         (("0x1.4444444444444p-1", "0x1.4444444444444p-1",
           "0x1.9cbf7fb10a89dp-1", "0x1.1e62bc7649b84p-1"),
          (None, None, "0x1.95429dd6d73ffp-1", "0x1.1d584bf312b03p-1"))),
        (*SKEWED_PAIR, 15,                         # a2 >= b: a tie in a2
         (("0x1.05c2666666665p-1", "0x1.5dddddddddddep+0",
           "0x1.54a723b4d1f4cp+0", "0x1.aefb94fdf059fp-1"),
          (None, None, "0x1.4b8577da6b6c6p+0", "0x1.a20cae3294c7cp-1"))),
    ], ids=["uniform", "template", "skewed"])
    def test_offers_are_pinned_without_a_pair_kernel_call(
            self, monkeypatch, d1, d2, budget, pinned):
        # The search solves its lines on the exact group engine: neither
        # the pair breakdown nor the quadrature runs.
        def fail(*args, **kwargs):
            raise AssertionError("the pair breakdown ran")

        monkeypatch.setattr(pair_revenue, "pair_expected_revenues_exact", fail)
        monkeypatch.setattr(pair_revenue, "integrate_with_breakpoints", fail)
        assert tuple(map(_hex, optimize_pair_offer(d1, d2, budget))) == pinned

    @staticmethod
    def _call_sizes(monkeypatch, d1, d2, budget):
        """The answer of ``optimize_pair_offer`` and the number of lines of
        each of its kernel calls."""
        sizes = []
        solve = group_revenue.line_argmaxes

        def counting(lines):
            sizes.append(len(lines[0]))
            return solve(lines)

        monkeypatch.setattr(group_revenue, "line_argmaxes", counting)
        answer = optimize_pair_offer(d1, d2, budget)
        monkeypatch.undo()
        return answer, sizes

    def test_uniform_pair_takes_two_kernel_calls(self, monkeypatch):
        # The incumbent 2/3 is on the grid and holds through all 15 rounds.
        # Until the incumbent first moves, a zoom call holds the rounds of
        # an incumbent that holds, in up to 32 fresh lines, the lines that
        # cost a pair about as much as a call's fixed cost: here all 15
        # rounds.  The pure bundle is the grid's NO_SALE line: 2 calls
        # where one per round took 17.  The grid builds 13 of its 18
        # lines: the solo prices 0, 1/15, 2/15 and 3/15 are below the
        # single-price revenue 1/4, so their lines cannot beat the singles
        # offer, and 1 caps as NO_SALE does.  The first round's trials,
        # 3/5 and 11/15, are grid points, so the zoom call builds the 28
        # lines of the other 14 rounds.
        answer, sizes = self._call_sizes(monkeypatch, UNIFORM, UNIFORM, 15)
        assert sizes == [13, 28]
        calls = []
        want = (sequential_offer_search([UNIFORM] * 2, "full", 15, calls),
                sequential_offer_search([UNIFORM] * 2, "pure_bundle", 15,
                                        calls))
        assert len(calls) == 17
        assert tuple(map(_hex, answer)) == tuple(map(_hex, want))

    def test_huge_budget_stops_once_a_round_holds_the_incumbent_alone(
            self, monkeypatch):
        # On a uniform pair the solo price's step, 1/15 halved each round,
        # falls below half an ulp of the incumbent after 51 rounds, so the
        # next round has no neighbour to score and the search stops: one
        # round per call solves 1 + 51 rounds of lines.  Speculating the
        # rounds ahead in calls of at most 32 fresh lines, it takes 5
        # calls.  The first holds rounds 1-17 (round 1's trials are grid
        # points) and the second rounds 18-33, as no round has moved.
        # Round 31 moves the solo price by its step, 1/15 * 2**-30, for an
        # ulp of revenue, so rounds 32 and 33 are dropped.  The move rate
        # is then 1/32, and the third call holds the rounds 32-47 of an
        # incumbent that holds, which all hold.  The last holds rounds
        # 48-51 and the round after, which has no trial; it builds 6
        # lines, as its last round's two trials round onto the round's
        # before.  A budget of 5,000 returns what a budget of 60 does, to
        # the bit.
        huge, sizes = self._call_sizes(monkeypatch, UNIFORM, UNIFORM, 5000)
        assert sizes == [13, 32, 32, 32, 6]
        rounds = []
        want = sequential_offer_search([UNIFORM] * 2, "full", 5000, rounds)
        assert rounds == [18] + [2] * 51
        assert _hex(huge[0]) == _hex(want)
        assert tuple(map(_hex, huge)) == tuple(map(_hex, optimize_pair_offer(
            UNIFORM, UNIFORM, 60)))
