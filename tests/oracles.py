"""Independent reference computations used to pin expected test values.

Everything here is deliberately dumb: plain composite Simpson panels,
per-piece three-point Gauss-Legendre sums, dense grid scans, finite
differences, 2-D Riemann sums, an exhaustive search over discretized
payment splits, and a seeded Monte Carlo estimate of an offer's revenue.
None of it shares code with the library paths it checks, but for the two
offer-search references, which say what they share.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np


def composite_simpson(f, a: float, b: float, panels: int = 512) -> float:
    """Plain composite Simpson on one interval."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / (2 * panels)
    return h / 3.0 * (
        ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()
    )


def simpson_between_knots(f, knots, panels_per_segment: int = 64) -> float:
    """Composite Simpson with panels aligned to the integrand's kinks."""
    return sum(
        composite_simpson(f, a, b, panels_per_segment)
        for a, b in zip(knots[:-1], knots[1:])
    )


def ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    fx = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - fx)
    lower = np.max(fx - np.arange(0, n) / n)
    return float(max(upper, lower))


def grid_search_max(f, lo: float, hi: float, points: int = 20001):
    xs = np.linspace(lo, hi, points)
    ys = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(ys))
    return float(xs[i]), float(ys[i])


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def pair_revenue_riemann(d1, d2, prices, bundle_price: float,
                         cells: int = 2000) -> float:
    """2-D midpoint Riemann sum of the offer revenue over the joint density.

    Midpoints avoid sitting on acceptance boundaries; accuracy is limited by
    the O(1/cells) error along the acceptance frontier.
    """
    a1 = np.inf if prices[0] is None else prices[0]
    a2 = np.inf if prices[1] is None else prices[1]
    m1, m2 = d1.upper_bound, d2.upper_bound
    x = (np.arange(cells) + 0.5) * (m1 / cells)
    y = (np.arange(cells) + 0.5) * (m2 / cells)
    w1 = d1.pdf(x) * (m1 / cells)
    w2 = d2.pdf(y) * (m2 / cells)
    c1 = np.minimum(x, a1)[:, None]
    c2 = np.minimum(y, a2)[None, :]
    accept = c1 + c2 >= bundle_price
    solo = np.zeros((cells, cells))
    if np.isfinite(a1):
        solo = solo + np.where(x >= a1, a1, 0.0)[:, None]
    if np.isfinite(a2):
        solo = solo + np.where(y >= a2, a2, 0.0)[None, :]
    revenue = np.where(accept, bundle_price, solo)
    return float(w1 @ revenue @ w2)


# Payment grid used by the exhaustive split search: 0.01 spacing on [-2, 2].
SPLIT_GRID = np.round(np.arange(-2.0, 2.0 + 0.005, 0.01), 10)
_SLACK = 1e-9


def split_exists_bruteforce(valuations, prices, bundle_price: float) -> bool:
    """Exhaustive search for payments on SPLIT_GRID with sum == b,
    P_i <= V_i and P_i <= a_i (checked literally, one condition at a time).

    Supports n in {2, 3}: the first n-1 payments range over the grid and the
    last is forced by the sum condition (it must also lie within the grid's
    range).  Quadratic/cubic cost -- this is the oracle, not the product.
    """
    v = [float(x) for x in valuations]
    a = [np.inf if p is None else float(p) for p in prices]
    b = float(bundle_price)
    g = SPLIT_GRID
    lo, hi = g[0] - _SLACK, g[-1] + _SLACK
    if len(v) == 2:
        p1 = g
        p2 = b - p1
        ok = (
            (p1 <= v[0] + _SLACK) & (p1 <= a[0] + _SLACK)
            & (p2 <= v[1] + _SLACK) & (p2 <= a[1] + _SLACK)
            & (p2 >= lo) & (p2 <= hi)
        )
        return bool(ok.any())
    if len(v) == 3:
        p1 = g[:, None]
        p2 = g[None, :]
        p3 = b - p1 - p2
        ok = (
            (p1 <= v[0] + _SLACK) & (p1 <= a[0] + _SLACK)
            & (p2 <= v[1] + _SLACK) & (p2 <= a[1] + _SLACK)
            & (p3 <= v[2] + _SLACK) & (p3 <= a[2] + _SLACK)
            & (p3 >= lo) & (p3 <= hi)
        )
        return bool(ok.any())
    raise ValueError("oracle supports n in {2, 3}")


# --- Per-offer reference for exact pair revenue -----------------------------
#
# One offer at a time: its own breakpoint list, three-point Gauss-Legendre on
# each piece of the one-dimensional acceptance integral, and the solo parts
# in closed form.  The rule is exact to degree 5, so it is exact on the cubic
# pieces, and it shares no code with the exact group engine, which convolves
# piecewise-polynomial laws instead of integrating.

_GAUSS3_NODES = 0.5 + 0.5 * np.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def gauss3_between(f, points) -> float:
    """Three-point Gauss-Legendre over the pieces between distinct
    ``points``."""
    pts = np.array(sorted({float(p) for p in points}), dtype=float)
    a, h = pts[:-1], np.diff(pts)
    fv = np.asarray(f((a[:, None] + h[:, None] * _GAUSS3_NODES).ravel()),
                    dtype=float).reshape(a.size, 3)
    return float(np.sum(h * (fv @ _GAUSS3_WEIGHTS)))


def accept_prob_box_reference(d1, d2, a1, a2, b, lo1, hi1, lo2, hi2) -> float:
    """``P[accept and (V1, V2) in [lo1, hi1) x [lo2, hi2)]`` for one offer;
    ``None`` prices are NO_SALE."""
    lo1 = max(lo1, 0.0)
    hi1 = min(hi1, d1.upper_bound)
    lo2 = max(lo2, 0.0)
    hi2 = min(hi2, d2.upper_bound)
    if hi1 <= lo1 or hi2 <= lo2:
        return 0.0
    a1_eff = np.inf if a1 is None else float(a1)
    a2_eff = np.inf if a2 is None else float(a2)
    f2_hi = float(d2.cdf(hi2))
    f2_lo = float(d2.cdf(lo2))
    base2 = f2_hi - f2_lo
    if base2 <= 0.0:
        return 0.0

    def integrand(v):
        c1 = np.minimum(v, a1_eff)
        x = b - c1
        inner = np.maximum(0.0, f2_hi - d2.cdf(np.maximum(x, lo2)))
        q = np.where(x <= 0.0, base2, np.where(b <= c1 + a2_eff, inner, 0.0))
        return d1.pdf(v) * q

    pts = [lo1, hi1]
    extra = [a1_eff, b, b - a2_eff, b - lo2, b - hi2]
    extra.extend(d1.knots)
    extra.extend(b - k for k in d2.knots)
    pts.extend(c for c in extra if np.isfinite(c) and lo1 < c < hi1)
    return min(max(gauss3_between(integrand, pts), 0.0), 1.0)


def region_bundle_revenue_reference(d1, d2, p1, p2, eps, label: str) -> float:
    """``E[revenue * 1{region}]`` of the epsilon-offer ``(p1 + eps, p2,
    p1 + p2)`` on one region box, the generic way: the bundle on the
    accepted part of the box, and each solo price on the rejected part
    where that customer's valuation reaches it."""
    inf = float("inf")
    lo1, hi1, lo2, hi2 = {
        "A1": (p1, inf, p2, inf),
        "A2": (0.0, inf, 0.0, p2 - eps),
        "A3": (0.0, p1, p2 - eps, inf),
        "A4": (p1, p1 + eps, p2 - eps, p2),
        "A5": (p1 + eps, inf, p2 - eps, p2),
    }[label]
    a1, a2, b = p1 + eps, p2, p1 + p2

    def window(d, lo, hi):
        lo, hi = max(lo, 0.0), min(hi, d.upper_bound)
        return float(d.cdf(hi)) - float(d.cdf(lo)) if hi > lo else 0.0

    def accept(l1, l2):
        return accept_prob_box_reference(d1, d2, a1, a2, b, l1, hi1, l2, hi2)

    buy1 = window(d1, max(lo1, a1), hi1) * window(d2, lo2, hi2)
    buy2 = window(d1, lo1, hi1) * window(d2, max(lo2, a2), hi2)
    return (b * accept(lo1, lo2)
            + a1 * max(0.0, buy1 - accept(max(lo1, a1), lo2))
            + a2 * max(0.0, buy2 - accept(lo1, max(lo2, a2))))


def _saturated_accept_prob(d_other, a_other, b, a_self):
    """``P[min(V_other, a_other) >= b - a_self]``, ties buy."""
    x = b - a_self
    if x <= 0.0:
        return 1.0
    if a_other is not None and b > a_self + a_other:
        return 0.0
    return 1.0 - float(d_other.cdf(x))


def pair_revenue_reference(d1, d2, prices, b):
    """``(total, bundle_part, solo_1, solo_2, accept_prob)`` of one pair
    offer, computed the per-offer way."""
    a1, a2 = prices
    accept = accept_prob_box_reference(
        d1, d2, a1, a2, b, 0.0, d1.upper_bound, 0.0, d2.upper_bound
    )
    solo1 = 0.0
    if a1 is not None:
        tail = 1.0 - float(d1.cdf(a1))
        if tail > 0.0:
            solo1 = a1 * tail * (1.0 - _saturated_accept_prob(d2, a2, b, a1))
    solo2 = 0.0
    if a2 is not None:
        tail = 1.0 - float(d2.cdf(a2))
        if tail > 0.0:
            solo2 = a2 * tail * (1.0 - _saturated_accept_prob(d1, a1, b, a2))
    bundle_part = b * accept
    return bundle_part + solo1 + solo2, bundle_part, solo1, solo2, accept


def ramp_pure_bundle_revenue(b) -> Fraction:
    """``b * P[V1 + V2 >= b]`` for i.i.d. ``V`` with density ``1/2 + v`` on
    [0, 1], in rationals.

    ``P = integral f(x) (1 - F(b - x)) dx`` with ``F(y) = (y + y^2) / 2``
    clipped to [0, 1].  Between the kinks ``b - 1`` and ``b`` the integrand
    is a cubic, on which Simpson's rule is exact.
    """
    b = Fraction(b)

    def g(x):
        y = min(max(b - x, Fraction(0)), Fraction(1))
        return (Fraction(1, 2) + x) * (1 - (y + y * y) / 2)

    knots = sorted({Fraction(0), Fraction(1)}
                   | {k for k in (b - 1, b) if 0 < k < 1})
    prob = sum((hi - lo) / 6 * (g(lo) + 4 * g((lo + hi) / 2) + g(hi))
               for lo, hi in zip(knots, knots[1:]))
    return b * prob


# --- Seeded Monte Carlo estimate of an offer's revenue ----------------------


def quantile_rationalized(dist, u):
    """Inverse CDF of ``dist`` at ``u`` by the rationalized segment solve
    ``t = 2 du / (d + sqrt(d*d + 2 s du))``, one expression per term: the
    sampler of :func:`mc_profiles`.

    It reads the distribution's cached segment tables (the normalized
    densities, slopes and CDF values at the knots).
    """
    u = np.asarray(u, dtype=float)
    if dist._slopes.size == 1:
        d = dist._dens[0]
        s = dist._slopes[0]
        disc = np.sqrt(d * d + 2.0 * s * u)
        return np.minimum(2.0 * u / (d + disc), dist.upper_bound)
    idx = np.clip(
        np.searchsorted(dist._cum, u, side="right") - 1,
        0,
        dist._slopes.size - 1,
    )
    d = dist._dens[idx]
    s = dist._slopes[idx]
    du = np.maximum(u - dist._cum[idx], 0.0)
    disc = np.sqrt(d * d + 2.0 * s * du)
    t = 2.0 * du / (d + disc)
    return dist._knots[idx] + np.minimum(t, dist._widths[idx])


def quantile_by_counting(dist, u):
    """:func:`quantile_rationalized` written another way, to check it by:
    the segment is the count of interior CDF knots at or below ``u``, the
    tables are read by ``np.take`` and a uniform density is ``u / d``:
    ``knot + min(2 du / (d + sqrt(d d + 2 s du)), w)``."""
    u = np.asarray(u, dtype=float)
    if dist._slopes.size == 1 and dist._slopes[0] == 0.0:
        return np.minimum(u / dist._dens[0], dist.upper_bound)
    idx = np.zeros(u.shape, dtype=np.intp)
    for knot in dist._cum[1:-1]:
        idx += u >= knot

    def at(table):
        return np.take(table, idx, mode="clip")

    dens = dist._dens[:-1]
    du = np.maximum(u - at(dist._cum), 0.0)
    t = 2.0 * du / (at(dens) + np.sqrt(at(dens * dens)
                                       + at(2.0 * dist._slopes) * du))
    return at(dist._knots) + np.minimum(t, at(dist._widths))


def mc_profiles(dists, n_samples: int, seed) -> np.ndarray:
    """``n_samples`` seeded profiles of the group ``dists``, one per row:
    one matrix of uniforms from ``SeedSequence((*seed, 0))`` (``seed`` an
    integer or a tuple of them), turned into valuations column by column
    by :func:`quantile_rationalized`.

    While ``n * n_samples <= 2**21`` these are, to the bit, the profiles
    the lab's batched sampler drew before the lab stopped sampling.
    """
    entropy = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng(np.random.SeedSequence((*entropy, 0)))
    v = rng.random((n_samples, len(dists)))
    for j, d in enumerate(dists):
        v[:, j] = quantile_rationalized(d, v[:, j])
    return v


def mc_score(v, offer) -> tuple[float, float, float]:
    """``(mean, std_error, accept_prob)`` of the offer's revenue over the
    held profiles ``v``, one per row, by ``resolve_outcome``'s rule: a row
    pays ``b`` where numpy's row sum of its capped values reaches ``b``
    (ties buy) and its solo prices elsewhere.

    The squared deviations are summed about ``b``, where the revenue of a
    large group concentrates.
    """
    a = np.array([np.inf if p is None else p
                  for p in offer.individual_prices])
    b = offer.bundle_price
    accept = np.minimum(v, a).sum(axis=1) >= b
    revenue = np.where(accept, b, np.where(v >= a, a, 0.0).sum(axis=1))
    rows = len(v)
    mean = float(revenue.sum()) / rows
    d = revenue - b
    var = max(0.0, (float((d * d).sum()) - rows * (mean - b) ** 2)
              / (rows - 1))
    return mean, sqrt(var / rows), np.count_nonzero(accept) / rows


def mc_revenue(dists, offer, n_samples: int, seed
               ) -> tuple[float, float, float]:
    """:func:`mc_score` of the offer on :func:`mc_profiles`."""
    return mc_score(mc_profiles(dists, n_samples, seed), offer)


# --- References for the large-bundle tail bound -----------------------------


def _normalized_density(knots, densities):
    """The piecewise-linear density through ``(knots, densities)``, scaled to
    integrate to 1 by the trapezoid rule (exact for a linear interpolant)."""
    ks = np.asarray(knots, dtype=float)
    ds = np.asarray(densities, dtype=float)
    total = float(np.sum(0.5 * (ds[:-1] + ds[1:]) * np.diff(ks)))
    return ks, lambda v: np.interp(v, ks, ds) / total


def laplace_simpson(knots, densities, theta: float) -> float:
    """``E[exp(-theta V)]`` by composite Simpson on every knot segment.

    The panels are fine enough that ``theta * h`` stays below 1/300 on
    every segment, which keeps Simpson's relative error under about 1e-13
    even where ``e^{-theta v}`` decays fast.
    """
    ks, f = _normalized_density(knots, densities)
    panels = max(256, int(300 * theta * float(np.max(np.diff(ks)))) + 1)
    return simpson_between_knots(lambda v: f(v) * np.exp(-theta * v), ks,
                                 panels)


def variance_simpson(knots, densities) -> float:
    """``Var[V]`` by composite Simpson (exact here: the integrands are
    cubic on every segment)."""
    ks, f = _normalized_density(knots, densities)
    mean = simpson_between_knots(lambda v: v * f(v), ks)
    return simpson_between_knots(lambda v: v * v * f(v), ks) - mean * mean


def irwin_hall_cdf(n: int, x: float) -> float:
    """``P[U_1 + ... + U_n <= x]`` for i.i.d. uniform [0, 1] draws, summed
    exactly: ``sum_k (-1)^k C(n, k) (x - k)^n / n!`` over ``k <= x``.

    With ``x = p / q`` in lowest terms (``q`` is a power of two for a
    float) every term is an integer over ``q^n n!``, so the numerators are
    summed as integers and divided once: the same exact sum, rounded once,
    as adding the terms as fractions.
    """
    p, q = Fraction(x).as_integer_ratio()
    total = sum((-1) ** k * comb(n, k) * (p - k * q) ** n
                for k in range(0, min(n, int(x)) + 1))
    return float(Fraction(total, q ** n * factorial(n)))


def tilted_moments_simpson(knots, densities, theta: float
                           ) -> tuple[float, float]:
    """Mean and variance of the law with density proportional to
    ``f(v) e^{-theta v}``, by composite Simpson.

    Each knot segment is covered up to ``50 / theta`` past its start, where
    ``e^{-theta v}`` has fallen to e^-50 of its value there, by 20,000
    panels, so ``theta h`` is at most 1/400.  The variance is integrated
    about the mean, not taken as a difference of raw moments.
    """
    ks, f = _normalized_density(knots, densities)
    pieces = [(a, min(b, a + 50.0 / theta)) for a, b in zip(ks[:-1], ks[1:])]

    def integral(g):
        return sum(composite_simpson(lambda v: g(v) * f(v) * np.exp(-theta * v),
                                     a, b, 20_000) for a, b in pieces)

    total = integral(np.ones_like)
    mean = integral(lambda v: v) / total
    return mean, integral(lambda v: (v - mean) ** 2) / total


# --- Exact rational reference for group offers ------------------------------


def _truncated_power(s, order, t):
    """``(t - s)_+^order / order!`` at ``t``, 0 where ``t <= s``."""
    return (t - s) ** order / factorial(order) if t > s else Fraction(0)


def capped_law_fraction(knots, densities, a):
    """The law of ``min(V, a)`` in exact rationals, for ``V`` with the
    piecewise-linear density through ``(knots, densities)`` normalized
    exactly (``a=None`` for no cap).

    It is a dict ``{(s, m): c}`` over truncated powers
    ``c (x - s)_+^m / m!``, with ``m = -1`` the unit atom at ``s``; these
    convolve by adding shifts and orders:
    ``(s, m) * (t, l) = (s + t, m + l + 1)``.
    """
    ks = [Fraction(k) for k in knots]
    ds = [Fraction(d) for d in densities]
    total = sum((d0 + d1) * (k1 - k0) / 2
                for k0, k1, d0, d1 in zip(ks, ks[1:], ds, ds[1:]))
    ds = [d / total for d in ds]
    cap = ks[-1] if a is None else min(Fraction(a), ks[-1])
    law: dict = {}

    def add(key, c):
        law[key] = law.get(key, 0) + c

    mass = Fraction(0)
    for k0, k1, d0, d1 in zip(ks, ks[1:], ds, ds[1:]):
        hi = min(k1, cap)
        if hi <= k0:
            break
        slope = (d1 - d0) / (k1 - k0)
        end = d0 + slope * (hi - k0)
        add((k0, 0), d0)
        add((k0, 1), slope)
        add((hi, 0), -end)
        add((hi, 1), -slope)
        mass += (d0 + end) * (hi - k0) / 2
    if mass < 1:
        add((cap, -1), 1 - mass)
    return law


def _convolve(p: dict, q: dict) -> dict:
    out: dict = {}
    for (s, m), c in p.items():
        for (t, l), d in q.items():
            key = (s + t, m + l + 1)
            out[key] = out.get(key, 0) + c * d
    return out


def class_sum_cdfs_fraction(classes, ts):
    """``P[S < t]`` for each ``t``, in exact rationals, for the capped sum
    ``S`` of a group of classes ``(knots, densities, count, a)``: ``count``
    i.i.d. customers of the law through ``(knots, densities)``, each
    capped at ``a`` (``None`` for no cap), up to 6 customers or so."""
    power = {(Fraction(0), -1): Fraction(1)}
    for knots, densities, count, a in classes:
        law = capped_law_fraction(knots, densities, a)
        for _ in range(count):
            power = _convolve(power, law)
    return [sum(c * _truncated_power(s, m + 1, Fraction(t))
                for (s, m), c in power.items()) for t in ts]


def class_revenue_fraction(classes, b) -> Fraction:
    """Exact expected revenue of an offer to a group of classes ``(knots,
    densities, count, a)``, each class's customers at solo price ``a``
    (``None`` for ``NO_SALE``): ``b P[S >= b]`` plus, per class, ``count a
    q P[a + S' < b]`` with ``q = P[V >= a]`` and ``S'`` the capped sum
    without one of its customers, every comparison in exact arithmetic."""
    b = Fraction(b)
    (below,) = class_sum_cdfs_fraction(classes, [b])
    revenue = b * (1 - below)
    for i, (knots, densities, count, a) in enumerate(classes):
        if a is None:
            continue
        law = capped_law_fraction(knots, densities, a)
        q = law.get((min(Fraction(a), Fraction(knots[-1])), -1), 0)
        if q:
            rest = list(classes)
            rest[i] = (knots, densities, count - 1, a)
            (solo,) = class_sum_cdfs_fraction(rest, [b - Fraction(a)])
            revenue += count * Fraction(a) * q * solo
    return revenue


def pair_solo_parts_fraction(laws, prices, b) -> list:
    """Each customer's solo part ``a_i q_i P[a_i + min(V_j, a_j) < b]`` of
    a pair offer in exact rationals, for laws ``(knots, densities)`` and
    solo prices ``(a1, a2)`` (``None`` for ``NO_SALE``).

    The tie rule is the lab's: the all-capped atom sits at the float sum
    of the caps, where ties buy the bundle.  Every other comparison is
    exact, in the rationals of the float inputs.
    """
    caps = [knots[-1] if a is None else min(a, knots[-1])
            for (knots, _), a in zip(laws, prices)]
    capped = [capped_law_fraction(knots, densities, a)
              for (knots, densities), a in zip(laws, prices)]
    out = []
    for i, a in enumerate(prices):
        j = 1 - i
        if a is None:
            out.append(Fraction(0))
            continue
        q = capped[i].get((Fraction(caps[i]), -1), 0)
        other = dict(capped[j])
        atom = other.pop((Fraction(caps[j]), -1), 0)
        below = sum(c * _truncated_power(s, m + 1, Fraction(b) - Fraction(a))
                    for (s, m), c in other.items())
        if caps[i] + caps[j] < b:
            below += atom
        out.append(Fraction(a) * q * below)
    return out


def capped_sum_cdfs_fraction(knots, densities, n: int, a, ts):
    """``P[S_n < t]`` for each ``t``, the sum of n i.i.d. ``min(V_i, a)``,
    in exact rationals (``n <= 6`` or so)."""
    return class_sum_cdfs_fraction([(knots, densities, n, a)], ts)


def symmetric_revenue_fraction(knots, densities, n: int, a, b) -> Fraction:
    """Exact expected revenue of ``(a, ..., a, b)`` to n i.i.d. customers
    (``a=None`` for a pure bundle)."""
    return class_revenue_fraction([(knots, densities, n, a)], b)


def sequential_offer_search(dists, mode: str, budget: int, calls=None):
    """The exact offer search with one kernel call per zoom round, as
    ``optimize_group_offer`` ran it before it solved several rounds to a
    call: the reference that batched search must match to the bit.

    Unlike the rest of this module it shares the exact group engine
    (``bundle_lines`` and ``line_argmaxes``) with the library: it checks
    the order of the search, not the engine.  Each call's line count is
    appended to ``calls`` when given, so ``len(calls) - 1`` is the number
    of zoom rounds of a full search.
    """
    import itertools

    from bundle_auction_lab._group_exact import bundle_lines, line_argmaxes
    from bundle_auction_lab.bundles import BundleOffer
    from bundle_auction_lab.single_pricing import optimal_single_price

    counts: dict = {}
    for d in dists:
        counts[d] = counts.get(d, 0) + 1
    laws = list(counts)
    classes = list(counts.items())

    def best(lines, incumbent=()):
        if calls is not None:
            calls.append(len(lines))
        bs, values = line_argmaxes(bundle_lines(classes, lines))
        return max([*incumbent, *zip(values.tolist(), lines, bs.tolist())],
                   key=lambda r: r[0])

    if mode == "pure_bundle":
        value, prices, b = best([(None,) * len(laws)])
    else:
        grids = [np.linspace(0.0, d.upper_bound, 16) for d in laws]
        steps = [float(grid[1] - grid[0]) for grid in grids]
        incumbent = best(list(itertools.product(*(
            [optimal_single_price(d).price, *grid.tolist(), None]
            for d, grid in zip(laws, grids)))))
        for _ in range(budget):
            around = [[a] if a is None else [a] + [
                t for t in (max(0.0, a - h), min(d.upper_bound, a + h))
                if t != a] for a, h, d in zip(incumbent[1], steps, laws)]
            trials = list(itertools.product(*around))[1:]
            if not trials:
                break
            incumbent = best(trials, (incumbent,))
            steps = [h * 0.5 for h in steps]
        value, prices, b = incumbent
    return BundleOffer(tuple(prices[laws.index(d)] for d in dists), b), value


def every_line_offer_search(dists, budget: int, calls=None):
    """The full and pure-bundle answers of the library's exact offer
    search, each ``(offer, value)``, run with no line skipped: every caps
    vector of every call is built, those whose bound falls below the
    singles value too.  The reference that the search which skips them
    must match to the bit.

    Unlike the rest of this module it runs the library's search itself,
    with a singles value of ``-inf``, so that no bound falls below it: a
    skipped line counts as solved, so skipping changes which lines a call
    builds but not which rounds it speculates, and this reference checks
    the skipping alone.  :func:`sequential_offer_search` checks the order
    of the search.  The lines of each call are appended to ``calls`` when
    given.
    """
    import dataclasses
    from unittest import mock

    from bundle_auction_lab import group_revenue

    price = group_revenue.optimal_single_price
    build = group_revenue.bundle_lines

    def unbounded(dist):
        return dataclasses.replace(price(dist), utility=-np.inf)

    def record(classes, lines):
        if calls is not None:
            calls.append(list(lines))
        return build(classes, lines)

    with mock.patch.object(group_revenue, "optimal_single_price", unbounded), \
            mock.patch.object(group_revenue, "bundle_lines", record):
        return group_revenue._offer_search(dists, budget)
