"""Exact expected revenue for two-customer bundle offers.

For a pair offer ``(a_1, a_2, b)`` the realized revenue is piecewise
constant in the valuations: ``b`` on the acceptance set
``min(V_1, a_1) + min(V_2, a_2) >= b`` and the applicable solo prices on its
complement.

:func:`pair_expected_revenues_exact` prices a batch of offers on the exact
group engine (:mod:`._group_exact`): every offer is one line of a single
build of the pair ``[(d1, 1), (d2, 1)]``.  All five parts are read off
that line at ``b``: the total, the acceptance probability ``P[S >= b]``
for the capped sum ``S``, and each customer's solo term, which the engine
adds into the total.  The engine is the pair's only exact path, and it
alone settles ties, so ``pair-opt``, ``partition`` and ``verify-thm1``
price a pair offer the same way.

The module also carries the machinery showing a pair bundle strictly beats
optimal single prices: the epsilon-offer ``(p1 + eps, p2, p1 + p2)`` built
from the single-price optima, the five-region decomposition of the positive
quadrant used to compare the two strategies region by region (read off
the breakdown of the offer), and the epsilon-line's exact maximizer.  The
pair-offer optimizer is one exact group search on the pair, which gives
both sale modes' answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._group_exact import bundle_lines, capped_sum_cdf, line_values
from .bundles import BundleOffer
from .group_revenue import _offer_search
from .single_pricing import optimal_single_price
from .valuations import ValuationDistribution

__all__ = [
    "DEFAULT_EPS_GRID",
    "PairRevenueBreakdown",
    "RegionLabel",
    "EpsilonEvaluation",
    "PairImprovementReport",
    "pair_expected_revenue_exact",
    "pair_expected_revenues_exact",
    "epsilon_offer",
    "classify_region",
    "region_box",
    "region_probability",
    "region_expected_revenue",
    "pair_bundle_accepts",
    "verify_pair_improvement",
    "optimize_pair_offer",
]

# Placeholders that nothing here calls: bench/tracer.py swaps these names
# in and out, and tests/test_bench_contract.py pins that they exist.
ThreadPoolExecutor = integrate_with_breakpoints = golden_section_max = \
    revenue_stats = None

#: Margin by which an epsilon-offer must beat optimal singles to count.
IMPROVEMENT_TOL = 1e-6
DEFAULT_EPS_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class PairRevenueBreakdown:
    """Expected revenue of a pair offer, split by source.

    ``total = bundle_part + solo_part_1 + solo_part_2`` up to rounding,
    with ``bundle_part = b * accept_probability``.  All five are read off
    one line of the exact engine, whose total sums the parts' pieces before
    it is evaluated, so it is not the float sum of the parts.
    """

    total: float
    bundle_part: float
    solo_part_1: float
    solo_part_2: float
    accept_probability: float


class RegionLabel(Enum):
    """Labels of the five-way partition of the positive quadrant."""

    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"


def pair_expected_revenues_exact(d1: ValuationDistribution,
                                 d2: ValuationDistribution,
                                 a1, a2, b) -> np.ndarray:
    """Exact expected revenue of many two-customer offers at once.

    ``a1``, ``a2`` and ``b`` broadcast to one 1-D shape; a NaN solo price is
    ``NO_SALE``, and an infinite price is rejected.  Returns an array of
    shape ``(5, offers)`` whose rows are the fields of
    :class:`PairRevenueBreakdown` in order: total, bundle part, the two solo
    parts and the acceptance probability.  Each offer is a line of one
    exact engine build of the pair ``[(d1, 1), (d2, 1)]``, which gives all
    five: its total, ``P[min(V_1, a_1) + min(V_2, a_2) >= b]`` (exactly 1
    at ``b <= 0`` and exactly 0 past ``a_1 + a_2``, ties buy) and each
    class's solo term ``a_i P[V_i >= a_i] P[a_i + min(V_j, a_j) < b]``,
    whose tie at the all-capped atom goes to the bundle.  Each offer's
    values equal those of :func:`pair_expected_revenue_exact`.
    """
    a1, a2, b = (np.asarray(x, dtype=float).ravel()
                 for x in np.broadcast_arrays(a1, a2, b))
    if not np.all((b >= 0.0) & (b < np.inf)):
        raise ValueError("bundle prices must be finite and nonnegative")
    if any(np.any(a < 0.0) or np.any(np.isinf(a)) for a in (a1, a2)):
        raise ValueError(
            "individual prices must be finite and nonnegative, or NO_SALE")
    parts = np.empty((5, b.size))
    if b.size == 0:
        return parts
    prices = zip(np.where(np.isnan(a1), None, a1).tolist(),
                 np.where(np.isnan(a2), None, a2).tolist())
    lines = bundle_lines([(d1, 1), (d2, 1)], list(prices))
    line = np.arange(b.size)
    parts[0] = line_values(lines, line, b)
    _, accept, parts[2], parts[3] = capped_sum_cdf(lines, line, b)
    parts[4] = np.clip(accept, 0.0, 1.0)
    parts[1] = b * parts[4]
    return parts


def pair_expected_revenue_exact(d1: ValuationDistribution,
                                d2: ValuationDistribution,
                                offer: BundleOffer) -> PairRevenueBreakdown:
    """Exact expected revenue of a two-customer offer.

    Every part comes from one line of the exact group engine, the solo
    parts as ``solo_i = a_i * P[V_i >= a_i] * P[a_i + other capped value <
    b]``.  This is :func:`pair_expected_revenues_exact` on a batch of
    one.
    """
    if offer.n != 2:
        raise ValueError("pair revenue needs a two-customer offer")
    a1, a2 = (math.nan if a is None else a for a in offer.individual_prices)
    parts = pair_expected_revenues_exact(d1, d2, a1, a2, offer.bundle_price)
    return _breakdown(parts[:, 0])


def _breakdown(parts: np.ndarray) -> PairRevenueBreakdown:
    """The breakdown of one column of :func:`pair_expected_revenues_exact`."""
    return PairRevenueBreakdown(*(float(x) for x in parts))


def epsilon_offer(p1: float, p2: float, eps: float) -> BundleOffer:
    """The improving construction: prices ``(p1 + eps, p2)``, bundle ``p1 + p2``."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return BundleOffer((p1 + eps, p2), p1 + p2)


def pair_bundle_accepts(v1: float, v2: float, p1: float, p2: float,
                        eps: float) -> bool:
    """Acceptance of the epsilon-offer as three explicit inequalities.

    ``V1 + V2 >= p1 + p2``, ``V1 >= p1`` and ``V2 >= p2 - eps``; equivalent
    to :func:`group_rational_accepts` on :func:`epsilon_offer` (cross-checked
    in the tests).
    """
    return v1 + v2 >= p1 + p2 and v1 >= p1 and v2 >= p2 - eps


def region_box(p1: float, p2: float, eps: float,
               label: RegionLabel) -> tuple[float, float, float, float]:
    """Half-open box ``[lo1, hi1) x [lo2, hi2)`` of a partition region."""
    inf = math.inf
    boxes = {
        RegionLabel.A1: (p1, inf, p2, inf),
        RegionLabel.A2: (0.0, inf, 0.0, p2 - eps),
        RegionLabel.A3: (0.0, p1, p2 - eps, inf),
        RegionLabel.A4: (p1, p1 + eps, p2 - eps, p2),
        RegionLabel.A5: (p1 + eps, inf, p2 - eps, p2),
    }
    return boxes[label]


def _check_region_params(p1: float, p2: float, eps: float) -> None:
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if p2 - eps < 0.0:
        raise ValueError("need p2 - eps >= 0")
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("prices must be nonnegative")


def classify_region(v1: float, v2: float, p1: float, p2: float,
                    eps: float) -> RegionLabel:
    """The unique region containing ``(v1, v2)``.

    The five boxes from :func:`region_box` tile the positive quadrant:
    the strip below ``p2 - eps`` (A2), everything left of ``p1`` above it
    (A3), the quadrant above both prices (A1), and the band
    ``p2 - eps <= v2 < p2`` split at ``p1 + eps`` into A4 and A5.
    """
    _check_region_params(p1, p2, eps)
    if v1 < 0.0 or v2 < 0.0:
        raise ValueError("valuations must be in the positive quadrant")
    if v2 < p2 - eps:
        return RegionLabel.A2
    if v2 >= p2:
        return RegionLabel.A1 if v1 >= p1 else RegionLabel.A3
    if v1 < p1:
        return RegionLabel.A3
    return RegionLabel.A4 if v1 < p1 + eps else RegionLabel.A5


def _window_prob(d: ValuationDistribution, lo: float, hi: float) -> float:
    """``P[lo <= V < hi]`` for ``0 <= lo``; ``hi`` may be infinite."""
    hi = min(hi, d.upper_bound)
    if hi <= lo:
        return 0.0
    return float(d.cdf(hi)) - float(d.cdf(lo))


def region_probability(d1: ValuationDistribution, d2: ValuationDistribution,
                       p1: float, p2: float, eps: float,
                       label: RegionLabel) -> float:
    """Exact probability of a region (product of CDF increments)."""
    _check_region_params(p1, p2, eps)
    lo1, hi1, lo2, hi2 = region_box(p1, p2, eps, label)
    return _window_prob(d1, lo1, hi1) * _window_prob(d2, lo2, hi2)


def region_expected_revenue(d1: ValuationDistribution,
                            d2: ValuationDistribution,
                            p1: float, p2: float, eps: float,
                            label: RegionLabel, strategy: str) -> float:
    """``E[revenue * 1{region}]`` under one of the two sales strategies.

    ``strategy="singles"`` prices the customers independently at
    ``(p1, p2)``; ``strategy="bundle"`` uses the epsilon-offer
    ``(p1 + eps, p2, b = p1 + p2)``.  These are the per-region quantities
    whose comparison establishes the strict improvement of pair bundling.
    The bundle revenues come from the exact breakdown of the offer: the
    pair buys the bundle on all of A1 and A5; never on A2 (``solo_part_1``)
    or A3 (``solo_part_2``); and on A4 where the pair accepts but is in
    neither A1 nor A5, so A4 carries the breakdown's absolute rounding.
    """
    _check_region_params(p1, p2, eps)
    lo1, hi1, lo2, hi2 = region_box(p1, p2, eps, label)
    if strategy == "singles":
        buy1 = _window_prob(d1, max(lo1, p1), hi1) * _window_prob(d2, lo2, hi2)
        buy2 = _window_prob(d1, lo1, hi1) * _window_prob(d2, max(lo2, p2), hi2)
        return p1 * buy1 + p2 * buy2
    if strategy != "bundle":
        raise ValueError("strategy must be 'singles' or 'bundle'")
    b = p1 + p2
    if label in (RegionLabel.A1, RegionLabel.A5):
        return b * region_probability(d1, d2, p1, p2, eps, label)
    bd = pair_expected_revenue_exact(d1, d2, epsilon_offer(p1, p2, eps))
    if label is RegionLabel.A2:
        return bd.solo_part_1
    if label is RegionLabel.A3:
        return bd.solo_part_2
    band = (bd.accept_probability
            - region_probability(d1, d2, p1, p2, eps, RegionLabel.A1)
            - region_probability(d1, d2, p1, p2, eps, RegionLabel.A5))
    return b * max(0.0, band)


@dataclass(frozen=True)
class EpsilonEvaluation:
    """One evaluated epsilon-offer and its gain over optimal singles."""

    eps: float
    breakdown: PairRevenueBreakdown
    improvement: float


@dataclass(frozen=True)
class PairImprovementReport:
    """Evidence that some epsilon-offer strictly beats optimal single prices."""

    p1_star: float
    p2_star: float
    singles_value: float
    evaluations: tuple[EpsilonEvaluation, ...]
    refined: EpsilonEvaluation
    best: EpsilonEvaluation
    improved: bool
    improvement_tol: float


def _epsilon_candidates(d1, d2, p1, p2, hi):
    """Every point where the epsilon-line can peak on ``[0, hi]``, sorted.

    The revenue of ``(p1 + eps, p2, p1 + p2)`` has derivative
    ``F2(p2 - eps) u1'(p1 + eps) + (p2 - eps) S1(p1 + eps) f2(p2 - eps)``
    with ``S1 = 1 - F1`` and ``u1'(v) = S1(v) - v f1(v)``: a quartic in
    ``eps`` between the points where ``p1 + eps`` or ``p2 - eps`` meets a
    knot.  The candidates are ``0``, ``hi``, those points, and the real
    part of each root of the quartic through a piece's Chebyshev nodes
    that lies on the piece (a spare candidate costs one offer to score).
    """
    kinks = np.append(d1._knots - p1, p2 - d2._knots)
    edges = np.sort(np.append(kinks[(kinks > 0.0) & (kinks < hi)], (0.0, hi)))
    # Chebyshev nodes on [-1, 1]; a first cos call at import would cost
    # about 0.2 MiB of RSS.
    nodes = np.cos(np.pi * np.arange(1, 10, 2) / 10)
    half = np.diff(edges) / 2
    mid = edges[:-1] + half
    eps = mid + half * nodes[:, None]
    v1, v2 = p1 + eps, p2 - eps
    s1 = 1.0 - d1.cdf(v1)
    slope = d2.cdf(v2) * (s1 - v1 * d1.pdf(v1)) + v2 * s1 * d2.pdf(v2)
    roots = [edges]
    for c, m, h in zip(np.polyfit(nodes, slope, 4).T, mid, half):
        t = np.roots(c).real
        # A Newton step undoes the eigenvalue solver's rounding; the huge
        # roots of a near-zero leading coefficient and NaN steps drop out.
        with np.errstate(all="ignore"):
            t = t - np.polyval(c, t) / np.polyval(np.polyder(c), t)
        roots.append(m + h * t[np.abs(t) <= 1.0])
    return np.sort(np.concatenate(roots))


def verify_pair_improvement(d1: ValuationDistribution,
                            d2: ValuationDistribution,
                            eps_grid=DEFAULT_EPS_GRID
                            ) -> PairImprovementReport:
    """Evaluate epsilon-offers against the optimal single-price benchmark.

    Solves each customer's single-price optimum, evaluates the epsilon-offer
    exactly for every grid value (each must satisfy ``0 < eps < p2*``), and
    refines epsilon to the best of :func:`_epsilon_candidates` on
    ``[0, 0.999 p2*]``, all in one engine build; ties go to the smaller
    epsilon, and the grid keeps a tie with the refined offer.  ``improved``
    is true when the best offer beats the singles benchmark by more than
    ``IMPROVEMENT_TOL``; existence of such an epsilon is guaranteed for
    distributions meeting the smoothness hypotheses, and this report is the
    desk-checkable witness.
    """
    grid = sorted(float(e) for e in eps_grid)
    if not grid:
        raise ValueError("eps grid must be nonempty")
    sol1 = optimal_single_price(d1)
    sol2 = optimal_single_price(d2)
    p1, p2 = sol1.price, sol2.price
    singles = sol1.utility + sol2.utility
    for e in grid:
        if not 0.0 < e < p2:
            raise ValueError(
                f"eps values must lie strictly between 0 and p2*={p2:.6g}; "
                f"got {e!r}"
            )

    n = len(grid)
    eps = np.append(grid, _epsilon_candidates(d1, d2, p1, p2, 0.999 * p2))
    # The epsilon-offers (p1 + eps, p2, p1 + p2), grid and candidates alike.
    parts = pair_expected_revenues_exact(d1, d2, p1 + eps, p2, p1 + p2)
    evals = [EpsilonEvaluation(e, bd, bd.total - singles)
             for e, bd in zip(eps.tolist(), map(_breakdown, parts.T))]
    # max keeps the first of equal totals: the smaller epsilon, and the grid.
    refined = max(evals[n:], key=lambda ev: ev.breakdown.total)
    best = max((*evals[:n], refined), key=lambda ev: ev.breakdown.total)

    return PairImprovementReport(
        p1_star=p1,
        p2_star=p2,
        singles_value=singles,
        evaluations=tuple(evals[:n]),
        refined=refined,
        best=best,
        improved=best.improvement > IMPROVEMENT_TOL,
        improvement_tol=IMPROVEMENT_TOL,
    )


def optimize_pair_offer(d1: ValuationDistribution, d2: ValuationDistribution,
                        budget: int = 15
                        ) -> tuple[tuple[BundleOffer, float], ...]:
    """The best two-customer offer and the best pure bundle, by exact
    revenue: ``((offer, value), (bundle_offer, bundle_value))``.

    This is :func:`~bundle_auction_lab.group_revenue.optimize_group_offer`
    on the pair in both modes, from one search: the best ``b`` of every
    line of solo prices exactly, one solo price per distinct law (so an
    i.i.d. pair gets a symmetric offer), and at most ``budget`` zoom
    rounds over the solo prices, several to a call: a call speculates
    every way the incumbent can move, on an i.i.d. pair in up to 32 fresh
    lines, the lines that cost a pair about as much as a call's fixed
    cost.  The pure bundle is the grid's all-``NO_SALE`` line, which the
    pure-bundle search solves alone to the same floats.  A call builds
    only the lines that can change the answer: none whose caps an earlier
    line had, and none whose capped-surplus bound is below the singles
    value.  So a uniform pair at budget 15 takes 2 engine calls for both
    answers, which build 13 of the grid's 18 lines and the 28 new lines
    of its 15 zoom rounds.  The full search scores the singles optimum
    ``(p1*, p2*, p1* + p2*)`` and the pure bundles among its lines, so its
    result is worth at least both.
    """
    return _offer_search([d1, d2], budget)
