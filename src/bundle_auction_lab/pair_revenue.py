"""Exact and Monte Carlo expected revenue for two-customer bundle offers.

For a pair offer ``(a_1, a_2, b)`` the realized revenue is piecewise
constant in the valuations: ``b`` on the acceptance set
``min(V_1, a_1) + min(V_2, a_2) >= b`` and the applicable solo prices on its
complement.  Conditioning on ``V_1`` reduces the acceptance probability to a
one-dimensional integral

    P[accept] = integral f_1(v) * P[min(V_2, a_2) >= b - min(v, a_1)] dv

whose integrand is a cubic between known breakpoints, so the two-point
Gauss-Legendre rule on each piece (:mod:`._quad`) evaluates it exactly, up
to rounding.

:func:`pair_expected_revenues_exact` does this for a batch of offers at
once: every offer's pieces go into one padded (offers x pieces x 2) node
array, and the densities are evaluated on it in one call each.  Single
offers and the epsilon grid go through this one kernel, and an offer the
group cannot accept (``b > a_1 + a_2``) takes no integral.  The kernel's
breakdown of an offer by source is what the region revenues read, and the
tests hold the exact group engine (:mod:`._group_exact`) to it.

The module also carries the machinery showing a pair bundle strictly beats
optimal single prices: the epsilon-offer ``(p1 + eps, p2, p1 + p2)`` built
from the single-price optima, the five-region decomposition of the positive
quadrant used to compare the two strategies region by region (read off
the kernel's breakdown of the offer), and the epsilon-line's exact
maximizer.  The pair-offer optimizer is one exact group search on the
pair, which gives both sale modes' answers; it makes no pair-kernel call.
"""

from __future__ import annotations

import math
# Unused here: bench/tracer.py patches this name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._mc import revenue_stats
from ._quad import integrate_with_breakpoints
# Unused here: bench/tracer.py patches this name.
from ._search import golden_section_max  # noqa: F401
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
    "pair_expected_revenue_mc",
    "epsilon_offer",
    "classify_region",
    "region_box",
    "region_probability",
    "region_expected_revenue",
    "pair_bundle_accepts",
    "verify_pair_improvement",
    "optimize_pair_offer",
]

#: Margin by which an epsilon-offer must beat optimal singles to count.
IMPROVEMENT_TOL = 1e-6
DEFAULT_EPS_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


@dataclass(frozen=True)
class PairRevenueBreakdown:
    """Expected revenue of a pair offer, split by source.

    ``total = bundle_part + solo_part_1 + solo_part_2`` with
    ``bundle_part = b * accept_probability``.
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


def _capped_integrand(d1: ValuationDistribution, d2: ValuationDistribution,
                      a1_eff, a2_eff, b):
    """``v -> f_1(v) * P[min(V_2, a_2) >= b - min(v, a_1)]``.

    The offer parameters are scalars or arrays that broadcast against ``v``,
    so one definition serves a single offer and a padded batch of them.
    """

    def integrand(v: np.ndarray) -> np.ndarray:
        c1 = np.minimum(v, a1_eff)
        x = b - c1
        # Tie convention: "x <= a2" is evaluated as b <= c1 + a2 so the
        # saturated plateau (c1 == a1) matches _solo_parts.
        inner = np.maximum(0.0, 1.0 - d2.cdf(x))
        q = np.where(x <= 0.0, 1.0, np.where(b <= c1 + a2_eff, inner, 0.0))
        return d1.pdf(v) * q

    return integrand


def _breakpoints(d1, d2, a1_eff, a2_eff, b):
    """Each offer's distinct integrand breakpoints in ``[0, M_1]``.

    ``b`` itself is among ``b - knots2``, since the first knot is 0.

    Returns ``(pts, pieces)``: row ``i`` of ``pts`` holds the sorted distinct
    points of offer ``i`` followed by copies of ``M_1``, and ``pieces[i]``
    is the number of nonempty pieces between them.
    """
    n = b.size
    hi1 = d1.upper_bound
    cand = np.concatenate([
        np.stack([a1_eff, b - a2_eff], axis=1),
        np.broadcast_to(np.asarray(d1.knots), (n, len(d1.knots))),
        b[:, None] - np.asarray(d2.knots),
    ], axis=1)
    inside = np.isfinite(cand) & (cand > 0.0) & (cand < hi1)
    pts = np.concatenate(
        [np.zeros((n, 1)), np.full((n, 1), hi1), np.where(inside, cand, np.inf)],
        axis=1,
    )
    pts.sort(axis=1)
    pts[:, 1:][pts[:, 1:] == pts[:, :-1]] = np.inf
    pts.sort(axis=1)
    distinct = np.count_nonzero(pts < np.inf, axis=1)
    pts = pts[:, :distinct.max()]
    return np.where(pts < np.inf, pts, hi1), distinct - 1


def _can_accept(a1_eff, a2_eff, b):
    """Where the group may accept at all: ``b <= a_1 + a_2``.

    Elsewhere the acceptance integrand is 0.0 at every node, so the
    probability is exactly 0.0 without an integral: rounding is monotone, so
    ``c1 + a2 <= a1 + a2 < b`` for every ``c1 = min(v, a1)``, and the
    ``x <= 0`` branch would need ``b <= c1 <= a1``.
    """
    return b <= a1_eff + a2_eff


def _accept_probs(d1: ValuationDistribution, d2: ValuationDistribution,
                  a1_eff, a2_eff, b) -> np.ndarray:
    """``P[group accepts]`` per offer.

    The arguments after the distributions are 1-D arrays of one length; an
    infinite solo price is ``NO_SALE``.  Offers the group cannot accept
    (:func:`_can_accept`) are 0.0 without an integral.  Every other offer's
    breakpoint pieces go into one padded (offers x pieces x 2) node array,
    so ``d1.pdf`` and ``d2.cdf`` run once on it.  A row's value depends on
    no other row (:func:`integrate_with_breakpoints`), so an offer gets the
    same bits in any batch.
    """
    prob = np.zeros(b.shape)
    live = _can_accept(a1_eff, a2_eff, b)
    if not live.all():
        a1_eff, a2_eff, b = a1_eff[live], a2_eff[live], b[live]
    if b.size == 0:
        return prob

    pts, pieces = _breakpoints(d1, d2, a1_eff, a2_eff, b)
    col = (slice(None), None, None)
    integrand = _capped_integrand(d1, d2, a1_eff[col], a2_eff[col], b[col])
    sums = integrate_with_breakpoints(integrand, pts, pieces)
    # Clip as max/min on Python floats do, keeping the sign of a zero sum.
    sums = np.where(0.0 > sums, 0.0, sums)
    prob[live] = np.where(1.0 < sums, 1.0, sums)
    return prob


def _solo_parts(price, sells, other_eff, b, tail_cdf, gap_cdf) -> np.ndarray:
    """``a_i * P[V_i >= a_i] * (1 - P[min(V_other, a_other) >= b - a_i])``.

    ``price`` is ``a_i``, and the term is 0 where ``sells`` is false
    (``NO_SALE``); ``other_eff`` is ``a_other``, infinite for ``NO_SALE``;
    ``tail_cdf`` is ``F_i(a_i)`` and ``gap_cdf`` is ``F_other(b - a_i)``.
    The capped value ``min(V, a)`` has an atom at ``a``, so the boundary
    case ``b = a_i + a_other`` has positive probability and must resolve
    the same way everywhere (ties buy).  The branch predicate is therefore
    evaluated as ``b <= a_i + a_other`` in the original quantities --
    never via the rounded difference ``b - a_i`` -- so both customers'
    solo terms and the acceptance integrand agree bit for bit.
    """
    x = b - price
    saturated = np.where(x <= 0.0, 1.0, np.where(
        b > price + other_eff, 0.0, 1.0 - gap_cdf))
    tail = 1.0 - tail_cdf
    return np.where(sells & (tail > 0.0), price * tail * (1.0 - saturated), 0.0)


def pair_expected_revenues_exact(d1: ValuationDistribution,
                                 d2: ValuationDistribution,
                                 a1, a2, b) -> np.ndarray:
    """Exact expected revenue of many two-customer offers at once.

    ``a1``, ``a2`` and ``b`` broadcast to one 1-D shape; a NaN solo price is
    ``NO_SALE``, and an infinite price is rejected.  Returns an array of
    shape ``(5, offers)`` whose rows are the fields of
    :class:`PairRevenueBreakdown` in order: total, bundle part, the two solo
    parts and the acceptance probability.  Each offer's values equal those
    of :func:`pair_expected_revenue_exact`.
    """
    a1, a2, b = (np.asarray(x, dtype=float).ravel()
                 for x in np.broadcast_arrays(a1, a2, b))
    if not np.all((b >= 0.0) & (b < np.inf)):
        raise ValueError("bundle prices must be finite and nonnegative")
    if any(np.any(a < 0.0) or np.any(np.isinf(a)) for a in (a1, a2)):
        raise ValueError(
            "individual prices must be finite and nonnegative, or NO_SALE")
    sells1, sells2 = ~np.isnan(a1), ~np.isnan(a2)
    a1_eff = np.where(sells1, a1, np.inf)
    a2_eff = np.where(sells2, a2, np.inf)
    parts = np.empty((5, b.size))
    parts[4] = _accept_probs(d1, d2, a1_eff, a2_eff, b)
    # A solo price of 0 stands in for NO_SALE inside the CDFs; _solo_parts
    # zeroes those terms.
    p1 = np.where(sells1, a1, 0.0)
    p2 = np.where(sells2, a2, 0.0)
    tail1, gap1 = d1.cdf(np.stack([p1, b - p2]))
    tail2, gap2 = d2.cdf(np.stack([p2, b - p1]))
    parts[2] = _solo_parts(p1, sells1, a2_eff, b, tail1, gap2)
    parts[3] = _solo_parts(p2, sells2, a1_eff, b, tail2, gap1)
    parts[1] = b * parts[4]
    parts[0] = parts[1] + parts[2] + parts[3]
    return parts


def pair_expected_revenue_exact(d1: ValuationDistribution,
                                d2: ValuationDistribution,
                                offer: BundleOffer) -> PairRevenueBreakdown:
    """Exact expected revenue of a two-customer offer.

    The acceptance probability is a two-point Gauss-Legendre sum on each
    breakpoint piece, exact for its cubic integrand; the solo parts reduce to
    closed forms because the capped value of a solo buyer is constant:
    ``solo_i = a_i * P[V_i >= a_i] * P[other capped value < b - a_i]``.
    This is :func:`pair_expected_revenues_exact` on a batch of one.
    """
    if offer.n != 2:
        raise ValueError("pair revenue needs a two-customer offer")
    a1, a2 = (math.nan if a is None else a for a in offer.individual_prices)
    parts = pair_expected_revenues_exact(d1, d2, a1, a2, offer.bundle_price)
    return _breakdown(parts[:, 0])


def _breakdown(parts: np.ndarray) -> PairRevenueBreakdown:
    """The breakdown of one column of :func:`pair_expected_revenues_exact`."""
    return PairRevenueBreakdown(*(float(x) for x in parts))


def pair_expected_revenue_mc(d1: ValuationDistribution,
                             d2: ValuationDistribution,
                             offer: BundleOffer, n_samples: int,
                             seed) -> tuple[float, float]:
    """Monte Carlo estimate ``(mean, std_error)``; deterministic given seed."""
    if offer.n != 2:
        raise ValueError("pair revenue needs a two-customer offer")
    stats = revenue_stats([d1, d2], offer, n_samples, seed)
    return stats.mean, stats.std_error


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
    The bundle revenues come from the kernel's breakdown of the offer: the
    pair buys the bundle on all of A1 and A5; never on A2 (``solo_part_1``)
    or A3 (``solo_part_2``); and on A4 where the pair accepts but is in
    neither A1 nor A5, so A4 carries the kernel's absolute rounding.
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
    ``[0, 0.999 p2*]``, all in one kernel call; ties go to the smaller
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
    rounds over the solo prices, several to a call.  The pure bundle is
    the grid's all-``NO_SALE`` line, which the pure-bundle search solves
    alone to the same floats.  The full search scores the singles optimum
    ``(p1*, p2*, p1* + p2*)`` and the pure bundles among its lines, so its
    result is worth at least both.
    """
    return _offer_search([d1, d2], budget)
