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
offers, the epsilon grid, and the optimizer's grid and zoom rounds all go
through this one kernel.  An offer the group cannot accept
(``b > a_1 + a_2``) takes no integral, and a large batch such as the
optimizer's grid integrates each of its distinct acceptance probabilities
once.

The module also carries the machinery showing a pair bundle strictly beats
optimal single prices: the epsilon-offer ``(p1 + eps, p2, p1 + p2)`` built
from the single-price optima, the five-region decomposition of the positive
quadrant used to compare the two strategies region by region (priced from
the offer's case analysis, not by the kernel), and a deterministic
pair-offer optimizer: one coarse grid, then ``budget`` zoom grids around the
incumbent, one kernel call each.
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
from ._search import golden_section_max
from .bundles import BundleOffer
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


#: Acceptance integrals per kernel call, and offers per slice of the solo
#: parts, in a large batch such as the optimizer's grid: the padded node
#: array of a slice (integrals x pieces x 2) stays under a MiB.
_CHUNK = 2048


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


def _distinct_accept(d1, d2, a1_eff, a2_eff, b) -> np.ndarray:
    """:func:`_accept_probs`, integrating each distinct value once.

    Offers the group cannot accept are 0.0 (:func:`_can_accept`).  Where
    ``a_2 >= b`` customer 2's cap never binds: ``b - a_2 <= 0`` is no
    breakpoint, and ``b <= c1 + a_2`` holds wherever ``x > 0``, so the
    pieces and the integrand are those of ``a_2 = NO_SALE``, and such
    offers share the key ``(a_1, inf, b)``.  Customer 1's cap does not fold
    so: ``a_1`` stays a breakpoint when ``b <= a_1 < M_1``.  The keys are
    sorted, each distinct one is integrated once, in ``_CHUNK``-integral
    slices, and the values are scattered back.  A row of
    :func:`_accept_probs` depends on no other row, so every value equals
    the one the offer gets on its own, bit for bit.
    """
    accept = np.zeros(b.size)
    live = np.flatnonzero(_can_accept(a1_eff, a2_eff, b))
    if live.size == 0:
        return accept
    k1 = a1_eff[live]
    k2 = np.where(a2_eff[live] >= b[live], np.inf, a2_eff[live])
    kb = b[live]
    order = np.lexsort((kb, k2, k1))
    # One key at a time, so a large batch holds one extra copy at most.
    k1 = k1[order]
    k2 = k2[order]
    kb = kb[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1]) | (kb[1:] != kb[:-1])
    k1, k2, kb = k1[first], k2[first], kb[first]
    distinct = np.concatenate([
        _accept_probs(d1, d2, k1[i:i + _CHUNK], k2[i:i + _CHUNK],
                      kb[i:i + _CHUNK])
        for i in range(0, kb.size, _CHUNK)
    ])
    accept[live[order]] = distinct[np.cumsum(first) - 1]
    return accept


def pair_expected_revenues_exact(d1: ValuationDistribution,
                                 d2: ValuationDistribution,
                                 a1, a2, b) -> np.ndarray:
    """Exact expected revenue of many two-customer offers at once.

    ``a1``, ``a2`` and ``b`` broadcast to one 1-D shape; a NaN solo price is
    ``NO_SALE``, and an infinite price is rejected.  Returns an array of
    shape ``(5, offers)`` whose rows are the fields of
    :class:`PairRevenueBreakdown` in order: total, bundle part, the two solo
    parts and the acceptance probability.  Each offer's values equal those
    of :func:`pair_expected_revenue_exact`.  A batch of more than ``_CHUNK``
    offers integrates each distinct acceptance probability once
    (:func:`_distinct_accept`); a smaller one, such as an optimizer zoom
    round or the epsilon grid, is integrated as given, because the sort and
    scatter cost it 10-20% and it has few integrals to save.  The solo parts
    and totals are assembled in ``_CHUNK``-offer slices, so their
    temporaries do not grow with the batch.
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
    accept_probs = _distinct_accept if b.size > _CHUNK else _accept_probs
    accept = accept_probs(d1, d2, a1_eff, a2_eff, b)
    parts = np.empty((5, b.size))
    parts[4] = accept
    for i in range(0, b.size, _CHUNK):
        c = slice(i, i + _CHUNK)
        # A solo price of 0 stands in for NO_SALE inside the CDFs;
        # _solo_parts zeroes those terms.
        p1 = np.where(sells1[c], a1[c], 0.0)
        p2 = np.where(sells2[c], a2[c], 0.0)
        tail1, gap1 = d1.cdf(np.stack([p1, b[c] - p2]))
        tail2, gap2 = d2.cdf(np.stack([p2, b[c] - p1]))
        parts[2, c] = _solo_parts(p1, sells1[c], a2_eff[c], b[c], tail1, gap2)
        parts[3, c] = _solo_parts(p2, sells2[c], a1_eff[c], b[c], tail2, gap1)
        parts[1, c] = b[c] * parts[4, c]
        parts[0, c] = parts[1, c] + parts[2, c] + parts[3, c]
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
    if hi <= lo:
        return 0.0
    return float(d.cdf(hi)) - float(d.cdf(lo))


def region_probability(d1: ValuationDistribution, d2: ValuationDistribution,
                       p1: float, p2: float, eps: float,
                       label: RegionLabel) -> float:
    """Exact probability of a region (product of CDF increments)."""
    _check_region_params(p1, p2, eps)
    lo1, hi1, lo2, hi2 = region_box(p1, p2, eps, label)
    return _window_prob(d1, max(lo1, 0.0), min(hi1, d1.upper_bound)) * \
        _window_prob(d2, max(lo2, 0.0), min(hi2, d2.upper_bound))


def region_expected_revenue(d1: ValuationDistribution,
                            d2: ValuationDistribution,
                            p1: float, p2: float, eps: float,
                            label: RegionLabel, strategy: str) -> float:
    """``E[revenue * 1{region}]`` under one of the two sales strategies.

    ``strategy="singles"`` prices the customers independently at
    ``(p1, p2)``; ``strategy="bundle"`` uses the epsilon-offer
    ``(p1 + eps, p2, b = p1 + p2)``.  These are the per-region quantities
    whose comparison establishes the strict improvement of pair bundling.
    The bundle revenue follows the offer's case analysis: the pair buys the
    bundle on all of A1 and A5; never on A2, where only customer 1 buys, at
    ``p1 + eps``, or on A3, where only customer 2 buys, at ``p2``; and on
    A4 exactly when ``V1 + V2 >= b``, the band integral of
    :func:`_a4_accept_prob`.
    """
    _check_region_params(p1, p2, eps)
    lo1, hi1, lo2, hi2 = region_box(p1, p2, eps, label)
    if strategy == "singles":
        buy1 = _window_prob(d1, max(lo1, p1), min(hi1, d1.upper_bound)) * \
            _window_prob(d2, max(lo2, 0.0), min(hi2, d2.upper_bound))
        buy2 = _window_prob(d1, max(lo1, 0.0), min(hi1, d1.upper_bound)) * \
            _window_prob(d2, max(lo2, p2), min(hi2, d2.upper_bound))
        return p1 * buy1 + p2 * buy2
    if strategy != "bundle":
        raise ValueError("strategy must be 'singles' or 'bundle'")
    b = p1 + p2
    m1, m2 = d1.upper_bound, d2.upper_bound
    if label is RegionLabel.A2:
        return (p1 + eps) * _window_prob(d1, p1 + eps, m1) * \
            _window_prob(d2, 0.0, min(p2 - eps, m2))
    if label is RegionLabel.A3:
        return p2 * _window_prob(d1, 0.0, min(p1, m1)) * \
            _window_prob(d2, p2, m2)
    if label is RegionLabel.A4:
        return b * _a4_accept_prob(d1, d2, p1, p2, eps)
    return b * region_probability(d1, d2, p1, p2, eps, label)


def _a4_accept_prob(d1: ValuationDistribution, d2: ValuationDistribution,
                    p1: float, p2: float, eps: float) -> float:
    """``P[(V1, V2) in A4 and V1 + V2 >= p1 + p2]``.

    On A4, ``b - v`` lies in ``(p2 - eps, p2]`` for ``p1 <= v < p1 + eps``,
    so the probability is
    ``integral_{p1}^{min(p1 + eps, M1)} f1(v) * (F2(p2) - F2(b - v)) dv``.
    The integrand is a cubic between the knots of ``f1`` and the points
    ``b - knots2``, which :func:`integrate_with_breakpoints` takes as one
    row.
    """
    lo, hi = p1, min(p1 + eps, d1.upper_bound)
    if hi <= lo:
        return 0.0
    b = p1 + p2
    f2_top = d2.cdf(p2)
    kinks = (*d1.knots, *(b - k for k in d2.knots))
    pts = np.array([sorted({lo, hi, *(c for c in kinks if lo < c < hi)})])

    def integrand(v: np.ndarray) -> np.ndarray:
        return d1.pdf(v) * np.maximum(0.0, f2_top - d2.cdf(b - v))

    total = integrate_with_breakpoints(integrand, pts,
                                       np.array([pts.shape[1] - 1]))
    return min(max(float(total[0]), 0.0), 1.0)


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


def verify_pair_improvement(d1: ValuationDistribution,
                            d2: ValuationDistribution,
                            eps_grid=DEFAULT_EPS_GRID
                            ) -> PairImprovementReport:
    """Evaluate epsilon-offers against the optimal single-price benchmark.

    Solves each customer's single-price optimum, evaluates the epsilon-offer
    exactly for every grid value (each must satisfy ``0 < eps < p2*``), and
    refines epsilon by golden-section search.  ``improved`` is true when the
    best offer beats the singles benchmark by more than
    ``IMPROVEMENT_TOL``; existence of such an epsilon is guaranteed for
    distributions meeting the smoothness hypotheses, and this report is the
    desk-checkable witness.
    """
    grid = tuple(float(e) for e in eps_grid)
    if not grid:
        raise ValueError("eps grid must be nonempty")
    sol1 = optimal_single_price(d1)
    sol2 = optimal_single_price(d2)
    singles = sol1.utility + sol2.utility
    for e in grid:
        if not 0.0 < e < sol2.price:
            raise ValueError(
                f"eps values must lie strictly between 0 and p2*={sol2.price:.6g}; "
                f"got {e!r}"
            )

    def evaluation(eps: float, bd: PairRevenueBreakdown) -> EpsilonEvaluation:
        return EpsilonEvaluation(eps, bd, bd.total - singles)

    eps_sorted = sorted(grid)
    # The epsilon-offers (p1 + eps, p2, p1 + p2) of the whole grid, one call.
    parts = pair_expected_revenues_exact(
        d1, d2, sol1.price + np.array(eps_sorted), sol2.price,
        sol1.price + sol2.price,
    )
    evaluations = tuple(evaluation(e, _breakdown(parts[:, i]))
                        for i, e in enumerate(eps_sorted))
    best = max(evaluations, key=lambda ev: ev.breakdown.total)

    eps_ref, _ = golden_section_max(
        lambda e: pair_expected_revenue_exact(
            d1, d2, epsilon_offer(sol1.price, sol2.price, e)
        ).total,
        0.0, 0.999 * sol2.price, xtol=1e-6,
    )
    refined = evaluation(eps_ref, pair_expected_revenue_exact(
        d1, d2, epsilon_offer(sol1.price, sol2.price, eps_ref)
    ))
    if refined.breakdown.total > best.breakdown.total:
        best = refined

    return PairImprovementReport(
        p1_star=sol1.price,
        p2_star=sol2.price,
        singles_value=singles,
        evaluations=evaluations,
        refined=refined,
        best=best,
        improved=best.improvement > IMPROVEMENT_TOL,
        improvement_tol=IMPROVEMENT_TOL,
    )


def _mesh(ax1, ax2, axb) -> np.ndarray:
    """Columns a1, a2, b of every offer in ``ax1 x ax2 x axb``, ``ax1``
    varying slowest."""
    grid = np.meshgrid(ax1, ax2, axb, indexing="ij")
    return np.stack([g.ravel() for g in grid])


def _grid_columns(d1, d2, ax1, ax2, axb, pure_bundle_only: bool
                  ) -> np.ndarray:
    """Columns a1, a2, b of the optimizer's grid, NaN for NO_SALE, in the
    order seed offer, then patterns x a1 x a2 x b.

    The per-pattern blocks die with this frame, so they are not held while
    the grid is evaluated.
    """
    if pure_bundle_only:
        patterns = [(False, False)]
    else:
        patterns = [(True, True), (True, False), (False, True), (False, False)]
    blocks = []
    if not pure_bundle_only:
        s1 = optimal_single_price(d1)
        s2 = optimal_single_price(d2)
        blocks.append(np.array([[s1.price], [s2.price], [s1.price + s2.price]]))
    for fin1, fin2 in patterns:
        blocks.append(_mesh(ax1 if fin1 else [math.nan],
                            ax2 if fin2 else [math.nan], axb))
    return np.concatenate(blocks, axis=1)


def _zoom_axis(x: float, h: float, hi: float) -> list[float]:
    """``x``, then ``x - h`` and ``x + h`` clipped to ``[0, hi]``, without a
    value that clips onto ``x``; a NaN (``NO_SALE``) coordinate stays NaN."""
    if math.isnan(x):
        return [x]
    return [x] + [v for v in (max(0.0, x - h), min(hi, x + h)) if v != x]


def optimize_pair_offer(d1: ValuationDistribution, d2: ValuationDistribution,
                        budget: int = 15, *, grid_points: int = 32,
                        pure_bundle_only: bool = False
                        ) -> tuple[BundleOffer, float]:
    """Deterministic search for the best two-customer offer.

    Stage 1 scans a coarse grid over ``[0, M1] x [0, M2] x [0, M1 + M2]``
    plus the NO_SALE variants of each solo price, and seeds the singles
    optimum as the offer ``(p1*, p2*, p1* + p2*)`` (which reproduces single
    pricing exactly, so the result always dominates it).  The whole grid is
    one :func:`pair_expected_revenues_exact` call, whose distinct
    acceptance integrals are evaluated in chunks of ``_CHUNK`` on the
    calling thread; the first offer of highest value wins.  On a uniform
    pair the 32-point grid has 34,849 offers and 9,697 distinct integrals.

    Stage 2 runs ``budget`` zoom rounds on the winning sale pattern.  Each
    round scores, in one kernel call, the offers whose priced coordinates
    each take ``x``, ``x - h`` or ``x + h`` (clipped to range) around the
    incumbent ``x`` -- at most 27 offers, 3 for a pure bundle -- and moves
    to the first of highest value; the incumbent is scored first, so it
    keeps a tie.  ``h`` starts at the grid spacing and halves every round.
    A run thus makes exactly ``1 + budget`` kernel calls.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    highs = (d1.upper_bound, d2.upper_bound, d1.upper_bound + d2.upper_bound)
    axes = [np.linspace(0.0, hi, grid_points) for hi in highs]
    steps = [float(ax[1] - ax[0]) for ax in axes]
    columns = _grid_columns(d1, d2, *axes, pure_bundle_only)
    values = pair_expected_revenues_exact(d1, d2, *columns)[0]
    for _ in range(budget):
        incumbent = columns[:, int(np.argmax(values))].tolist()
        columns = _mesh(*map(_zoom_axis, incumbent, steps, highs))
        values = pair_expected_revenues_exact(d1, d2, *columns)[0]
        steps = [h * 0.5 for h in steps]

    best = int(np.argmax(values))
    a1, a2, b = columns[:, best].tolist()
    offer = BundleOffer(tuple(None if math.isnan(a) else a for a in (a1, a2)), b)
    return offer, float(values[best])
