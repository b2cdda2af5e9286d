"""Optimal one-time single-customer offers.

A customer with valuation ``V ~ F`` accepts a take-it-or-leave-it price
``p`` iff ``V >= p``, so the seller's expected revenue is
``u(p) = p * (1 - F(p))`` with derivative ``u'(p) = 1 - F(p) - p f(p)``.
For a strictly positive bounded density, ``u(0) = u(M) = 0`` while ``u`` is
positive inside, so the maximum is interior and satisfies the fixed point
``p = (1 - F(p)) / f(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .valuations import ValuationDistribution

__all__ = [
    "SinglePriceSolution",
    "expected_revenue",
    "revenue_derivative",
    "optimal_single_price",
]

GRID_INTERVALS = 2048
PRICE_TOL = 1e-10


@dataclass(frozen=True)
class SinglePriceSolution:
    """Interior revenue maximizer for one customer.

    ``fixed_point_residual`` is ``|p - (1 - F(p)) / f(p)|`` and
    ``derivative_residual`` is ``|1 - F(p) - p f(p)|`` at the solution; both
    should be tiny for a converged solve.  ``0 < price < M`` and
    ``utility > 0`` always hold for valid distributions.
    """

    price: float
    utility: float
    fixed_point_residual: float
    derivative_residual: float


def expected_revenue(dist: ValuationDistribution, price):
    """Expected revenue ``p * (1 - F(p))`` of a single price (scalar or array)."""
    arr = np.asarray(price, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("price must be nonnegative")
    out = arr * (1.0 - dist.cdf(arr))
    return float(out) if np.ndim(price) == 0 else out


def revenue_derivative(dist: ValuationDistribution, price):
    """Derivative ``1 - F(p) - p f(p)`` of the expected revenue.

    Only meaningful on the support, so ``price`` outside ``[0, M]`` is
    rejected.
    """
    arr = np.asarray(price, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > dist.upper_bound):
        raise ValueError("price must be within [0, M]")
    out = 1.0 - dist.cdf(arr) - arr * dist.pdf(arr)
    return float(out) if np.ndim(price) == 0 else out


def _bisect_derivative(dist: ValuationDistribution, lo: float, hi: float,
                       f_lo: float, tol: float) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = revenue_derivative(dist, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_single_price(dist: ValuationDistribution) -> SinglePriceSolution:
    """Find the revenue-maximizing single price.

    The fixed-point equation can have several solutions (only a maximizer is
    guaranteed to satisfy it), so the derivative is evaluated on a uniform
    grid of ``GRID_INTERVALS`` intervals, every sign-change bracket is
    bisected to ``PRICE_TOL``, and the critical point with the largest
    expected revenue wins.  Ties break toward the smaller price; the whole
    procedure is deterministic.
    """
    m = dist.upper_bound
    xs = np.linspace(0.0, m, GRID_INTERVALS + 1)
    der = revenue_derivative(dist, xs)

    candidates: list[float] = [float(x) for x in xs[der == 0.0]]
    sign_change = np.nonzero(der[:-1] * der[1:] < 0.0)[0]
    for i in sign_change:
        candidates.append(
            _bisect_derivative(dist, float(xs[i]), float(xs[i + 1]),
                               float(der[i]), PRICE_TOL)
        )
    if not candidates:
        raise RuntimeError("no critical point found; invalid distribution?")

    best_p = None
    best_u = -np.inf
    for p in sorted(candidates):
        u = expected_revenue(dist, p)
        if u > best_u:
            best_p, best_u = p, u

    f_star = dist.pdf(best_p)
    fixed_point = abs(best_p - (1.0 - dist.cdf(best_p)) / f_star)
    return SinglePriceSolution(
        price=best_p,
        utility=best_u,
        fixed_point_residual=fixed_point,
        derivative_residual=abs(revenue_derivative(dist, best_p)),
    )
