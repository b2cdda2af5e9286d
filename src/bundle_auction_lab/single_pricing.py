"""Optimal one-time single-customer offers.

A customer with valuation ``V ~ F`` accepts a take-it-or-leave-it price
``p`` iff ``V >= p``, so the seller's expected revenue is
``u(p) = p * (1 - F(p))`` with derivative ``u'(p) = 1 - F(p) - p f(p)``.
For a strictly positive bounded density, ``u(0) = u(M) = 0`` while ``u`` is
positive inside, so the maximum is interior and satisfies the fixed point
``p = (1 - F(p)) / f(p)``.  With a piecewise-linear density ``u'`` is a
quadratic on each segment, so the optimum is solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .valuations import ValuationDistribution

__all__ = [
    "SinglePriceSolution",
    "expected_revenue",
    "revenue_derivative",
    "optimal_single_price",
]


@dataclass(frozen=True)
class SinglePriceSolution:
    """Interior revenue maximizer for one customer.

    ``fixed_point_residual`` is ``|p - (1 - F(p)) / f(p)|`` and
    ``derivative_residual`` is ``|1 - F(p) - p f(p)|`` at the solution; both
    are rounding errors of the closed-form root, about 1e-16.
    ``0 < price < M`` and ``utility > 0`` always hold for valid
    distributions.
    """

    price: float
    utility: float
    fixed_point_residual: float
    derivative_residual: float


def expected_revenue(dist: ValuationDistribution, price):
    """Expected revenue ``p * (1 - F(p))`` of a single price (scalar or array).

    The price must be finite and nonnegative: a price that sells nothing is
    written ``NO_SALE``, not as an infinite price.
    """
    arr = np.asarray(price, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError("price must be finite and nonnegative")
    out = arr * (1.0 - dist.cdf(arr))
    return float(out) if np.ndim(price) == 0 else out


def revenue_derivative(dist: ValuationDistribution, price):
    """Derivative ``1 - F(p) - p f(p)`` of the expected revenue.

    Only meaningful on the support, so ``price`` outside ``[0, M]`` is
    rejected.
    """
    arr = np.asarray(price, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= dist.upper_bound)):
        raise ValueError("price must be within [0, M]")
    out = 1.0 - dist.cdf(arr) - arr * dist.pdf(arr)
    return float(out) if np.ndim(price) == 0 else out


def _segment_roots(dist: ValuationDistribution) -> list[float]:
    """The roots of ``u'`` on each density segment, as prices.

    On the segment from knot ``k`` with density ``d + s t`` at ``k + t``,
    ``u'(k + t) = c + b t + a t^2`` with ``a = -1.5 s``,
    ``b = -(2 d + s k)`` and ``c = 1 - F(k) - k d``.  The roots come from
    ``q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2`` as ``c / q`` and
    ``q / a``, which never subtract nearly equal numbers; a flat segment
    has the single root ``-c / b``.  Roots off the segment are dropped.
    """
    roots = []
    for k, w, d, s, cum in zip(dist._knots.tolist(), dist._widths.tolist(),
                               dist._dens.tolist(), dist._slopes.tolist(),
                               dist._cum.tolist()):
        a, b, c = -1.5 * s, -(2.0 * d + s * k), 1.0 - cum - k * d
        if s == 0.0:
            ts = [-c / b]
        else:
            disc = b * b - 4.0 * a * c
            if disc < 0.0:
                continue
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            # q = 0 only for a double root at the knot, a candidate anyway.
            ts = [q / a, c / q] if q != 0.0 else []
        roots.extend(k + t for t in ts if 0.0 <= t <= w)
    return roots


def optimal_single_price(dist: ValuationDistribution) -> SinglePriceSolution:
    """The revenue-maximizing single price, exactly.

    ``u`` is a cubic on each density segment, so its maximum over
    ``[0, M]`` is at a knot or at a root of ``u'`` inside a segment
    (:func:`_segment_roots`).  Every such point is scored in one
    :func:`expected_revenue` call and the largest revenue wins; ties go to
    the smaller price.  A uniform density gives exactly ``M / 2``.
    """
    # A root at a knot is scored twice, which is harmless; np.unique would
    # drop it, but its first call imports numpy.ma (about 1.5 MiB of RSS).
    candidates = np.sort(np.concatenate((dist._knots, _segment_roots(dist))))
    utilities = expected_revenue(dist, candidates)
    best = int(np.argmax(utilities))
    p = float(candidates[best])
    survival, f = 1.0 - dist.cdf(p), dist.pdf(p)
    return SinglePriceSolution(
        price=p,
        utility=float(utilities[best]),
        fixed_point_residual=abs(p - survival / f),
        derivative_residual=abs(survival - p * f),
    )
