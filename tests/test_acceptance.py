"""Acceptance suite: one test per criterion, each timed against its budget
and reporting one pass/fail line (echoed in the pytest terminal summary),
and a pin of the Monte Carlo estimates criterion 7 checks."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bundle_auction_lab.bundles import NO_SALE, BundleOffer, group_rational_accepts
from bundle_auction_lab.experiments import csv_text, parse_config, run
from bundle_auction_lab.group_revenue import (
    bernstein_sweep,
    surplus_lower_bound,
    verify_surplus_extraction,
)
from bundle_auction_lab.pair_revenue import (
    RegionLabel,
    epsilon_offer,
    optimize_pair_offer,
    pair_expected_revenue_exact,
    region_expected_revenue,
    region_probability,
    verify_pair_improvement,
)
from bundle_auction_lab.single_pricing import expected_revenue, optimal_single_price
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from conftest import record_acceptance
from oracles import grid_search_max, mc_revenue, split_exists_bruteforce

UNIFORM = make_uniform(1.0)
RAMP = make_piecewise_linear((0.0, 1.0), (0.5, 1.5))
SEED = 20260810


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        record_acceptance(
            f"[criterion {number}] FAIL - {description} "
            f"(runtime {elapsed:.2f}s over budget {budget_s:g}s)"
        )
        pytest.fail(f"criterion {number} exceeded runtime budget: "
                    f"{elapsed:.2f}s >= {budget_s:g}s")
    record_acceptance(
        f"[criterion {number}] PASS ({elapsed:.2f}s) - {description}"
    )


def test_criterion_1_single_price_fixed_point():
    with criterion(1, "single-price fixed point (uniform and ramp)", 1.0):
        sol = optimal_single_price(UNIFORM)
        assert (sol.price, sol.utility) == (0.5, 0.25)

        sol_r = optimal_single_price(RAMP)
        root = (math.sqrt(7.0) - 1.0) / 3.0
        assert abs(sol_r.price - root) <= 4 * math.ulp(root)
        _, u_ref = grid_search_max(
            lambda p: expected_revenue(RAMP, p), 0.0, 1.0, 100001
        )
        assert sol_r.utility == pytest.approx(u_ref, abs=1e-6)


def test_criterion_2_pair_improvement_desk_scale():
    with criterion(2, "epsilon bundle offer beats optimal singles", 10.0):
        report = verify_pair_improvement(UNIFORM, UNIFORM, (0.05, 0.1, 0.2))
        assert report.singles_value == pytest.approx(0.5, abs=1e-9)
        eval_01 = next(ev for ev in report.evaluations
                       if abs(ev.eps - 0.1) < 1e-12)
        assert eval_01.breakdown.total == pytest.approx(0.516, abs=1e-4)
        assert report.improved
        for d1, d2 in ((UNIFORM, RAMP), (RAMP, RAMP)):
            rep = verify_pair_improvement(d1, d2, (0.05, 0.1, 0.2))
            assert rep.improved


def test_criterion_3_pair_optimization():
    with criterion(3, "pair-offer optimization (value and pure-bundle price)", 60.0):
        (_, value), (offer_pb, _) = optimize_pair_offer(UNIFORM, UNIFORM, 15)
        assert value >= 0.5443 - 0.002
        assert value > 0.5
        assert abs(offer_pb.bundle_price - math.sqrt(2.0 / 3.0)) < 0.02


def test_criterion_4_group_surplus_desk_scale():
    with criterion(4, "large-bundle revenue approaches full surplus", 120.0):
        reports = verify_surplus_extraction(UNIFORM, [100, 1000, 10**4])
        by_n = {r.n: r for r in reports}
        r = by_n[1000]
        b_expected = 500.0 - 2.0 * math.sqrt(1000 * math.log(1000))
        assert abs(r.revenue_estimate - b_expected) <= \
            4.0 * r.revenue_std_error + 1e-9
        assert r.revenue_estimate + 4.0 * r.revenue_std_error >= \
            surplus_lower_bound(1000, 500.0, 1.0)
        assert r.lower_bound == pytest.approx(333.44, abs=0.01)
        assert r.revenue_estimate <= 500.0
        gaps = [(by_n[n].mu - by_n[n].revenue_estimate) / by_n[n].mu
                for n in (100, 1000, 10**4)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(by_n[n].passes for n in by_n)


def test_criterion_5_bernstein_sweep():
    with criterion(5, "Bernstein bound <= 1/n for all n in [2, 1e6]", 5.0):
        ok, worst_n, worst_ratio = bernstein_sweep(2, 10**6)
        assert ok, f"bound * n reached {worst_ratio} at n={worst_n}"


GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)  # 21 values
P_GRID = np.round(np.arange(-2.0, 2.0 + 0.005, 0.01), 10)  # 401 payments
SLACK = 1e-9


def _pairs_full_grid_agreement() -> int:
    """Exhaustive n=2 sweep: every (v1, v2, a1, a2, b) on the 0.05 grid."""
    g = GRID
    v1 = g[:, None, None, None, None]
    v2 = g[None, :, None, None, None]
    a1 = g[None, None, :, None, None]
    a2 = g[None, None, None, :, None]
    b = g[None, None, None, None, :]
    caps = np.minimum(v1, a1) + np.minimum(v2, a2)
    formula = caps >= b

    feasible = np.zeros(np.broadcast_shapes(caps.shape, b.shape), dtype=bool)
    for p1 in P_GRID:
        ok1 = (p1 <= v1 + SLACK) & (p1 <= a1 + SLACK)
        p2 = b - p1
        ok2 = (
            (p2 <= v2 + SLACK) & (p2 <= a2 + SLACK)
            & (p2 >= P_GRID[0] - SLACK) & (p2 <= P_GRID[-1] + SLACK)
        )
        feasible |= ok1 & ok2

    off_boundary = np.abs(caps - b) >= 0.02
    assert np.array_equal(formula[off_boundary], feasible[off_boundary])
    return int(off_boundary.sum())


def _triples_sampled_agreement(n_instances: int) -> int:
    """Seeded sample of the n=3 grid, each instance checked against the
    literal exhaustive split search (the full 21^7 product is out of any
    runtime budget; see the decisions ledger)."""
    rng = np.random.default_rng(SEED)
    lo, hi = P_GRID[0] - SLACK, P_GRID[-1] + SLACK
    checked = 0
    while checked < n_instances:
        draw = GRID[rng.integers(0, GRID.size, size=7)]
        v = draw[:3]
        a = draw[3:6]
        b = float(draw[6])
        caps = float(np.minimum(v, a).sum())
        if abs(caps - b) < 0.02:
            continue
        ok1 = (P_GRID <= v[0] + SLACK) & (P_GRID <= a[0] + SLACK)
        ok2 = (P_GRID <= v[1] + SLACK) & (P_GRID <= a[1] + SLACK)
        # Only splits whose first two payments are feasible can decide.
        p3 = b - (P_GRID[ok1][:, None] + P_GRID[ok2][None, :])
        ok3 = (p3 <= v[2] + SLACK) & (p3 <= a[2] + SLACK) & (p3 >= lo) & (p3 <= hi)
        feasible = bool(np.any(ok3))
        formula = group_rational_accepts(
            BundleOffer((float(a[0]), float(a[1]), float(a[2])), b),
            tuple(float(x) for x in v),
        )
        assert formula == feasible, (v, a, b)
        checked += 1
    return checked


def test_criterion_6_acceptance_lemma_bruteforce():
    with criterion(6, "group-rationality sum rule matches brute-force splits",
                   60.0):
        pairs_checked = _pairs_full_grid_agreement()
        assert pairs_checked > 3_500_000
        triples_checked = _triples_sampled_agreement(20_000)
        assert triples_checked == 20_000
        # spot-check the off-grid oracle entry point used elsewhere
        assert split_exists_bruteforce((0.6, 0.3), (0.5, 0.5), 0.75)
        assert not split_exists_bruteforce((0.6, 0.3), (0.5, 0.5), 0.85)


PAIR_OFFER_SUITE = [
    (UNIFORM, UNIFORM, BundleOffer((0.5, 0.5), 1.0)),
    (UNIFORM, UNIFORM, epsilon_offer(0.5, 0.5, 0.1)),
    (UNIFORM, UNIFORM, BundleOffer((NO_SALE, NO_SALE), math.sqrt(2.0 / 3.0))),
    (UNIFORM, UNIFORM, BundleOffer((NO_SALE, 0.5), 0.9)),
    (UNIFORM, UNIFORM, BundleOffer((2.0 / 3.0, 2.0 / 3.0), 0.8619)),
    (UNIFORM, RAMP, BundleOffer((0.6, NO_SALE), 1.1)),
    (RAMP, RAMP, epsilon_offer(0.5485837703548636, 0.5485837703548636, 0.1)),
]


def test_criterion_7_consistency_suite():
    with criterion(7, "exact vs MC, region partition, reproducible CSV", 120.0):
        for i, (d1, d2, offer) in enumerate(PAIR_OFFER_SUITE):
            exact = pair_expected_revenue_exact(d1, d2, offer).total
            est, se, _ = mc_revenue([d1, d2], offer, 10**6, SEED + i)
            assert abs(exact - est) <= 4.0 * se + 1e-12, (offer, exact, est, se)

        p1 = p2 = 0.5
        eps = 0.1
        total_prob = sum(
            region_probability(UNIFORM, UNIFORM, p1, p2, eps, lab)
            for lab in RegionLabel
        )
        assert total_prob == pytest.approx(1.0, abs=1e-8)
        for lab in (RegionLabel.A1, RegionLabel.A3):
            s = region_expected_revenue(UNIFORM, UNIFORM, p1, p2, eps, lab, "singles")
            bdl = region_expected_revenue(UNIFORM, UNIFORM, p1, p2, eps, lab, "bundle")
            assert bdl == pytest.approx(s, abs=1e-6)
        s5 = region_expected_revenue(UNIFORM, UNIFORM, p1, p2, eps,
                                     RegionLabel.A5, "singles")
        b5 = region_expected_revenue(UNIFORM, UNIFORM, p1, p2, eps,
                                     RegionLabel.A5, "bundle")
        gap = p2 * region_probability(UNIFORM, UNIFORM, p1, p2, eps, RegionLabel.A5)
        assert b5 - s5 == pytest.approx(gap, abs=1e-6)

        config_text = (
            '{"command":"verify-thm2","seed":77,"n_list":[100,1000],'
            '"n_samples":2000,"distributions":[{"type":"uniform","M":1.0}]}'
        )
        first = csv_text(run(parse_config(config_text)))
        second = csv_text(run(parse_config(config_text)))
        assert first.encode("utf-8") == second.encode("utf-8")


# Criterion 7's seven (mean, std_error, accept_prob), as the lab's batched
# estimator gave them before the lab stopped sampling.  Kept apart from the
# criterion, so that a change in numpy's random stream fails here alone.
CRITERION_7_ESTIMATES = [
    ("0x1.0015a07b352a8p-1", "0x1.72eae1e175fb9p-12", "0x1.006e5cd4ed2ccp-2"),
    ("0x1.081dd1a21ea36p-1", "0x1.9475c073d9d6dp-12", "0x1.2dc33721d53cep-2"),
    ("0x1.16ce871af48cbp-1", "0x1.9384a359956f2p-12", "0x1.5577963992c8cp-1"),
    ("0x1.0dd36dd0bdf32p-1", "0x1.9eef444ba5d8dp-12", "0x1.e5e2cdc011d36p-2"),
    ("0x1.18cae04898409p-1", "0x1.9cbf485b4d475p-12", "0x1.1220ff540895dp-1"),
    ("0x1.18ae9680e0653p-1", "0x1.0a0a148bde6eap-11", "0x1.aa86d71f36263p-2"),
    ("0x1.4e25a0a75e4eap-1", "0x1.b3c6e123009d2p-12", "0x1.88b11409a2403p-2"),
]


def test_criterion_7_estimates_are_pinned():
    # 10**6 pairs fit in one of that estimator's batches of 2**21 values,
    # so the oracle draws the same profiles and sums them in the same order.
    for i, (d1, d2, offer) in enumerate(PAIR_OFFER_SUITE):
        got = mc_revenue([d1, d2], offer, 10**6, SEED + i)
        assert tuple(x.hex() for x in got) == CRITERION_7_ESTIMATES[i], i
