"""Large-group bundling: near-full-surplus extraction.

With bounded valuations the sum ``V = sum_i V_i`` concentrates around the
full surplus ``mu = sum_i E[V_i]``.  A pure-bundle offer (no solo sales)
priced at ``b = mu - 2 M sqrt(n ln n)`` is therefore accepted except with
probability at most ``1/n`` (Bernstein), giving the seller at least
``(1 - 1/n) * (mu - 2 M sqrt(n ln n))`` in expectation -- a vanishing
relative gap to the unreachable upper bound ``mu``.  This module builds the
offer, evaluates the bound and its Bernstein ingredient, and bounds the
offer's rejection probability ``P[V < b]`` in closed form (the Chernoff
bound of the piecewise-linear density, its exponent minimized by Newton on
``log theta``, capped by Hoeffding's ``n^-8``).  That bound ``eps`` makes
the large-bundle check exact without sampling: the offer's acceptance
probability is at least ``1 - eps`` and its revenue at least
``b (1 - eps)``, and for i.i.d. customers each ``n`` costs O(1) time and
memory.  For groups of up to 12 customers the module prices any offer
exactly (:mod:`._group_exact`), and searches the offers that give
customers of one law one solo price, pairs included: the best ``b`` of
each line of solo prices exactly, and the solo prices by a grid and zoom
rounds.  Nothing here samples: the seeded Monte Carlo estimate that checks
the exact engine is a test oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._group_exact import MAX_GROUP, bundle_lines, line_argmaxes, line_values
from .bundles import NO_SALE, BundleOffer
from .single_pricing import optimal_single_price
from .valuations import ValuationDistribution

__all__ = [
    "SurplusExtractionReport",
    "chernoff_tail_bound",
    "full_surplus_offer",
    "bernstein_upper_bound",
    "bernstein_sweep",
    "surplus_lower_bound",
    "group_expected_revenue_exact",
    "optimize_group_offer",
    "verify_surplus_extraction",
]

# Placeholders that nothing here calls: bench/tracer.py swaps these names
# in and out, and tests/test_bench_contract.py pins that they exist.
golden_section_max = valuation_sums = revenue_stats = None


@dataclass(frozen=True)
class SurplusExtractionReport:
    """Desk-scale check of the large-bundle revenue guarantee at one ``n``."""

    n: int
    mu: float
    bundle_price: float
    accept_prob_estimate: float
    revenue_estimate: float
    revenue_std_error: float
    lower_bound: float
    upper_bound: float
    bernstein_bound: float
    lower_bound_ok: bool
    upper_bound_ok: bool
    #: Upper bound on the rejection probability ``P[V < b]``
    #: (:func:`chernoff_tail_bound`).
    tail_bound: float

    @property
    def passes(self) -> bool:
        return self.lower_bound_ok and self.upper_bound_ok


def _full_surplus_price(n: int, mu: float, m: float) -> tuple[float, float]:
    """``(t, b)``: the deviation ``t = 2 M sqrt(n ln n)`` and the bundle
    price ``b = mu - t``.  Raises below two customers, and when the price
    would be nonpositive: the construction is vacuous at that ``n`` and
    silently clamping would misstate its applicability."""
    if n < 2:
        raise ValueError("need at least two customers")
    t = 2.0 * m * math.sqrt(n * math.log(n))
    b = mu - t
    if b <= 0.0:
        raise ValueError(
            f"bundle price {b:.6g} is nonpositive: the construction is "
            f"vacuous at n={n} (mu={mu:.6g}, M={m:.6g})"
        )
    return t, b


def full_surplus_offer(dists: Sequence[ValuationDistribution]) -> BundleOffer:
    """Pure-bundle offer priced at ``mu - 2 M sqrt(n ln n)``.

    All individual prices are ``NO_SALE`` and ``M`` is the largest upper
    bound among the distributions (natural logarithm throughout).  Raises
    below two customers and when the price would be nonpositive.
    """
    n = len(dists)
    _, b = _full_surplus_price(n, sum(d.mean for d in dists),
                               max((d.upper_bound for d in dists), default=0.0))
    return BundleOffer((NO_SALE,) * n, b)


def bernstein_upper_bound(n, m, t):
    """Bernstein tail bound ``exp(-(t^2/2) / (n M^2 + M t / 3))``, capped at 1.

    Bounds ``P[sum X_i > t]`` for independent centered ``|X_i| < M`` after
    substituting ``E[X_i^2] <= M^2``.  Accepts scalars or arrays.  It is
    evaluated as ``exp(-(x^2/2) / (n + x/3))`` with ``x = t / M``, which
    cannot overflow where ``n M^2`` would and is the same float at M = 1.
    """
    t_arr = np.asarray(t, dtype=float)
    n_arr = np.asarray(n, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    if np.any(n_arr < 1) or not np.all(np.asarray(m) > 0):
        raise ValueError("need n >= 1 and M > 0")
    x = t_arr / m
    out = np.minimum(1.0, np.exp(-(x * x / 2.0) / (n_arr + x / 3.0)))
    return float(out) if np.ndim(t) == 0 and np.ndim(n) == 0 else out


def bernstein_sweep(n_min: int = 2, n_max: int = 10**6, m: float = 1.0
                    ) -> tuple[bool, int, float]:
    """Check ``bound(n, M, 2 M sqrt(n ln n)) <= 1/n`` for every n in range.

    Returns ``(all_hold, worst_n, worst_ratio)`` where the ratio is
    ``bound * n`` (<= 1 everywhere iff the sweep holds).  A NaN bound fails
    the sweep at the first n that has one, with a NaN ratio.  A finite M so
    large that ``t`` overflows at ``n_max`` raises instead: the bound is
    scale-free and well defined there, so a NaN would misreport it.  So does
    an ``n_max`` beyond float range.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError("need 2 <= n_min <= n_max")
    try:
        top = float(n_max)
    except OverflowError:
        raise ValueError(f"n_max={n_max} is beyond float range") from None
    if (math.isfinite(m)
            and not math.isfinite(2.0 * m * math.sqrt(top * math.log(top)))):
        raise ValueError(f"2 M sqrt(n ln n) overflows at n={n_max} for "
                         f"M={m!r}")
    worst_ratio = -math.inf
    worst_n = n_min
    chunk = 1 << 20
    for start in range(n_min, n_max + 1, chunk):
        ns = np.arange(start, min(start + chunk, n_max + 1), dtype=float)
        t = 2.0 * m * np.sqrt(ns * np.log(ns))
        ratio = bernstein_upper_bound(ns, m, t) * ns
        i = int(np.argmax(ratio))  # the first NaN, if there is one
        if math.isnan(ratio[i]):
            return False, int(ns[i]), math.nan
        if ratio[i] > worst_ratio:
            worst_ratio = float(ratio[i])
            worst_n = int(ns[i])
    return worst_ratio <= 1.0, worst_n, worst_ratio


def surplus_lower_bound(n: int, mu: float, m: float) -> float:
    """Guaranteed revenue ``(1 - 1/n) * (mu - 2 M sqrt(n ln n))``.

    May be negative; callers decide whether a nonpositive bound is useful.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return (1.0 - 1.0 / n) * (mu - 2.0 * m * math.sqrt(n * math.log(n)))


#: Relative allowance for rounding in :func:`chernoff_tail_bound`, which is
#: computed through its logarithm: its two terms are about 3e3 at n = 1e4
#: and round at 1e-16 relative, an error near 1e-12, and ``1 + 1e-6``
#: (1e-6 in the logarithm) absorbs it.
_ROUNDING_ALLOWANCE = 1.0 + 1e-6


def chernoff_tail_bound(dist: ValuationDistribution, n: int, b: float
                        ) -> float:
    """Upper bound on ``P[V_1 + ... + V_n < b]`` for i.i.d. ``V_i ~ dist``.

    Returns ``min(exp(min_{theta > 0} [theta b + n log E e^{-theta V}]),
    exp(-2 (mu - b)^2 / (n M^2)))``: the Chernoff bound, with the Laplace
    transform in closed form (:meth:`ValuationDistribution.log_laplace`),
    capped by Hoeffding's bound, which is ``n^-8`` at the full-surplus price
    ``mu - 2 M sqrt(n ln n)``.  The exponent ``g`` is minimized over
    ``y = log theta`` by safeguarded Newton.  With the tilted law
    ``f(v) e^{-theta v}`` (:meth:`ValuationDistribution.tilted_moments`),
    ``g' = theta (b - n E_theta[V])`` and ``g'' = g' + theta^2 n
    Var_theta(V)``; the step divides ``g'`` by ``theta^2 n Var_theta(V)``,
    which is ``g''`` at the minimizer and, unlike ``g''``, positive below
    it.  That is Newton's step on ``n E_theta[V] = b``, whose left side
    falls as ``theta`` grows.  The sign of ``g'`` narrows a bracket on the
    minimizer, and a step that leaves the bracket is replaced by
    bisection.  Any ``theta`` gives a valid bound, so the returned exponent
    is the least value of ``g`` over the iterates.  The bracket holds the
    minimizer: the tilted variance is at most ``M^2 / 4``, which puts it
    above ``4 (mu - b) / (n M^2)``, and the tilted mean is at most
    ``(max f / min f) / theta``, which puts it below
    ``(max f / min f) n / b``.  The lower end is the ``theta`` of
    Hoeffding's bound, so the search never ends above the cap by more than
    rounding.  ``b <= 0`` gives 0 and ``b >= mu`` gives 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mu = n * dist.mean
    if b <= 0.0:
        return 0.0
    if b >= mu:
        return 1.0
    m = dist.upper_bound
    log_hoeffding = -2.0 * (mu - b) ** 2 / (n * m * m)
    dens = dist.densities
    lo = math.log(4.0 * (mu - b) / (n * m * m))
    hi = max(lo, math.log(max(dens) / min(dens) * n / b))
    best = math.inf
    y = lo
    # Every step shrinks the bracket; the cap only guarantees an end.
    for _ in range(200):
        theta = math.exp(y)
        log_laplace, mean, variance = dist._tilted(theta)
        best = min(best, theta * b + n * log_laplace)
        slope = theta * (b - n * mean)
        if slope == 0.0:
            break
        if slope < 0.0:
            lo = y
        else:
            hi = y
        # g'' at the minimizer, where g' = 0; unlike g'' itself it is
        # positive across the bracket.
        curvature = theta * theta * n * variance
        step = -slope / curvature if curvature > 0.0 else math.inf
        y_next = y + step
        if not lo < y_next < hi:
            y_next = 0.5 * (lo + hi)
        if abs(y_next - y) <= 1e-10:
            break
        y = y_next
    return math.exp(min(best, log_hoeffding))


def _classes(keys) -> dict:
    """Each distinct key with its count, in order of first appearance: the
    classes of i.i.d. customers the exact engine takes, for a group of 1
    to ``MAX_GROUP`` customers."""
    if not 1 <= len(keys) <= MAX_GROUP:
        raise ValueError(f"dists: the exact group engine takes 1 to "
                         f"{MAX_GROUP} customers, got {len(keys)}")
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


def group_expected_revenue_exact(dists: Sequence[ValuationDistribution],
                                 offer: BundleOffer) -> float:
    """Exact expected revenue of an offer to a group of at most
    ``MAX_GROUP`` customers.

    Customers with equal laws and solo prices form a class, and the law of
    the capped sum is built in closed form class by class
    (:mod:`._group_exact`).  Ties buy: at ``b`` equal to the float sum of
    the caps, added class by class, the group whose every value reaches its
    cap takes the bundle, as in
    :func:`~bundle_auction_lab.bundles.resolve_outcome` when each class's
    customers are adjacent.  Groups of other sizes raise ValueError.
    """
    if offer.n != len(dists):
        raise ValueError("offer and distribution list must have equal length")
    counts = _classes(list(zip(dists, offer.individual_prices)))
    lines = bundle_lines([(d, k) for (d, _), k in counts.items()],
                         [[a for _, a in counts]])
    return float(line_values(lines, [0], [offer.bundle_price])[0])


def _search_classes(dists, budget: int) -> list:
    """The classes of a group the offer search takes: at most two distinct
    laws, at most ``MAX_GROUP`` customers, and ``budget`` at least 1."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    counts = _classes(dists)
    if len(counts) > 2:
        # The first round scores 18**k lines, 5,832 at k = 3.
        raise ValueError(f"dists: the offer search takes at most two "
                         f"distinct laws, got {len(counts)}")
    return list(counts.items())


def _rounds(prices, steps, laws):
    """The trials of each zoom round while the incumbent ``prices`` holds:
    every combination of each priced coordinate, plus or minus its step
    (clipped to ``[0, M]``), but the incumbent's own, the steps halving
    every round.  It ends at the first round with no trial."""
    while True:
        around = [[a] if a is None else [a] + [
            t for t in (max(0.0, a - h), min(d.upper_bound, a + h))
            if t != a] for a, h, d in zip(prices, steps, laws)]
        # The first combination is the incumbent's own.
        trials = list(itertools.product(*around))[1:]
        if not trials:
            return
        yield trials
        steps = [h * 0.5 for h in steps]


def _offer_search(dists, budget: int):
    """The answers of :func:`optimize_group_offer` in the full mode and
    the pure-bundle mode, each ``(offer, value)``, from one search: the
    pure bundle is the grid's all-``NO_SALE`` line, which the pure-bundle
    mode solves alone to the same floats."""
    classes = _search_classes(dists, budget)
    laws = [d for d, _ in classes]
    singles = [optimal_single_price(d) for d in laws]
    tops = [d.upper_bound for d in laws]
    means = [d.mean for d in laws]
    counts = [count for _, count in classes]
    # Every payment is at most the capped sum, whose mean is at most
    # sum_c count_c min(cap_c, mu_c), and the p* line is worth the singles
    # value: a line whose bound falls short of it cannot win.  The margin
    # absorbs rounding.
    floor = (1.0 - 1e-9) * sum(count * s.utility
                               for s, (_, count) in zip(singles, classes))
    # (value, b) of each caps vector of the search, (-inf, None) unbuilt.
    solved: dict = {}

    def scored(lines):
        """``(value, prices, b)`` of each line.  A line's floats depend on
        its caps alone (``NO_SALE`` caps at ``M``), not on the other lines
        of its call, so each caps vector is built once, and one whose bound
        is below ``floor`` not at all: its value is ``-inf``."""
        # No solo price of the search exceeds its law's M, so a line's caps
        # are its prices with NO_SALE at M.
        keys = [line if None not in line else
                tuple(m if a is None else a for a, m in zip(line, tops))
                for line in lines]
        new = {}
        for key, line in zip(keys, lines):
            if key in solved or key in new:
                continue
            if sum(map(operator.mul, counts, map(min, key, means))) < floor:
                solved[key] = (-math.inf, None)
            else:
                new[key] = line
        if new:
            bs, values = line_argmaxes(bundle_lines(classes,
                                                    list(new.values())))
            solved.update(zip(new, zip(values.tolist(), bs.tolist())))
        return [(value, line, b)
                for line, (value, b) in zip(lines, map(solved.get, keys))]

    def first_best(rows):
        """The first row of highest value."""
        return max(rows, key=lambda r: r[0])

    grids = [np.linspace(0.0, d.upper_bound, 16) for d in laws]
    steps = [float(grid[1] - grid[0]) for grid in grids]
    grid = scored(list(itertools.product(*(
        [s.price, *g.tolist(), NO_SALE] for s, g in zip(singles, grids)))))
    incumbent = first_best(grid)
    # The first zoom call holds every round that fits in one law's axis of
    # the grid (p*, the grid points and NO_SALE), later calls as many as
    # fit in the grid round.
    depth, most, left = budget, len(grids[0]) + 2, budget
    while left:
        # Score the next rounds as if the incumbent holds through them.
        batch = []
        for trials in itertools.islice(_rounds(incumbent[1], steps, laws),
                                       min(depth, left)):
            if sum(map(len, batch)) + len(trials) > most:
                break
            batch.append(trials)
        if not batch:
            break
        most = len(grid)
        rows = iter(scored([t for trials in batch for t in trials]))
        # Replay them in order, the incumbent first in each; the rounds
        # after one that moves are void.
        for trials in batch:
            left -= 1
            steps = [h * 0.5 for h in steps]
            best = first_best([incumbent,
                               *itertools.islice(rows, len(trials))])
            if best is not incumbent:
                incumbent, depth = best, 1
                break
        else:
            depth = 2 * len(batch)
    return tuple((BundleOffer(tuple(prices[laws.index(d)] for d in dists), b),
                  value) for value, prices, b in (incumbent, grid[-1]))


def optimize_group_offer(dists: Sequence[ValuationDistribution],
                         mode: str = "pure_bundle", budget: int = 15
                         ) -> tuple[BundleOffer, float]:
    """The best offer to a group of at most ``MAX_GROUP`` customers of at
    most two distinct laws that gives customers of one law one solo price,
    by exact revenue, and its value (:func:`group_expected_revenue_exact`
    of the offer).

    For solo prices ``(a_1, ..., a_k)``, one per distinct law, the revenue
    is piecewise polynomial in ``b``, and its exact maximum is at a break
    or a real stationary point
    (:func:`~bundle_auction_lab._group_exact.line_argmaxes`, which solves
    every line of a call at once).  ``mode="pure_bundle"`` returns the
    best pure bundle, one line.  ``mode="full"`` takes as candidates every
    combination of each law's single-price optimum ``p*``, a 16-point grid
    on ``[0, M]`` and ``NO_SALE`` (18 lines for one law, 324 for two), then
    runs at most ``budget`` zoom rounds whose candidates are every
    combination of each priced coordinate, plus or minus its step (clipped
    to ``[0, M]``), around the incumbent; a step starts at its grid's
    spacing and halves every round.  The first of highest value wins, the
    incumbent first, and the search stops after a round that holds the
    incumbent alone.  The line of the ``p*`` holds the singles offer, worth
    the sum of the single-price revenues, and the ``NO_SALE`` line is the
    pure-bundle search, so the result is worth at least both.

    A line is built only if it can change the answer.  A line's floats
    depend on its caps ``min(a_c, M_c)`` alone (``NO_SALE`` caps at
    ``M_c``), so a line whose caps an earlier line of the search had, such
    as the grid point ``M`` beside ``NO_SALE`` or a zoom trial on a grid
    point, reads that line's ``b`` and value.  Every payment is at most the
    capped sum, worth at most ``sum_c count_c min(cap_c, mu_c)``, so a line
    whose bound is below the singles value (less 1e-9 of it) is not built:
    it cannot beat the ``p*`` line.  Neither changes an answer by a bit.

    One call solves several rounds: the rounds ahead are built as if the
    incumbent holds through them, solved together, and replayed in order,
    and those after the first round that moves are dropped.  The first
    zoom call holds every round that fits in one law's axis of the grid
    (18 lines).  After that a call holds one round after a move and twice
    as many rounds as the last call held after a call in which none
    moved, in at most as many candidates as the grid round.  A line's
    ``b`` and value do not depend on the other lines of its call, so the
    answer is that of solving the rounds one at a time, to the bit; on a
    uniform pair at budget 15 the search makes 3 calls, which hold 18, 18
    and 12 candidates and build 13, 16 and 12 lines, where one per round
    made 16 calls.

    Nearly all of a two-law search's time and memory is its grid round,
    which builds about 230 of its 324 candidates, and both grow fast with
    the group: on a 2-core machine at budget 2, six customers of one law
    and six of another took 8.0-9.1 s and 1.8 GiB of peak RSS, eight took
    0.9-1.1 s and 255 MiB, and six 0.28-0.38 s and 86 MiB.
    """
    if mode not in ("pure_bundle", "full"):
        raise ValueError("mode must be 'pure_bundle' or 'full'")
    if mode == "full":
        return _offer_search(dists, budget)[0]
    classes = _search_classes(dists, budget)
    bs, values = line_argmaxes(bundle_lines(classes,
                                            [(NO_SALE,) * len(classes)]))
    return (BundleOffer((NO_SALE,) * len(dists), bs.tolist()[0]),
            values.tolist()[0])


def verify_surplus_extraction(dist: ValuationDistribution,
                              n_list: Sequence[int]
                              ) -> list[SurplusExtractionReport]:
    """Run the large-bundle check for each group size in ``n_list``.

    For each ``n`` the offer prices ``n`` i.i.d. copies at
    ``b = mu - 2 M sqrt(n ln n)``, and ``eps`` is
    :func:`chernoff_tail_bound` with a rounding allowance, an upper bound
    on the rejection probability ``P[V < b]``.  Each row reports
    ``1 - eps`` as the acceptance probability and ``b (1 - eps)`` as the
    revenue, lower bounds on ``P[V >= b]`` and ``b P[V >= b]`` rounded to
    float64, with standard error 0, and whether that revenue is at least
    ``(1 - 1/n)(mu - 2 M sqrt(n ln n))`` and at most ``mu``.  Nothing is
    sampled, and nothing of size ``n`` is built: ``mu`` is
    ``n * dist.mean``, the value :func:`chernoff_tail_bound` uses.  Where
    ``eps`` is below 2**-54 the two values are exactly 1.0 and ``b`` in
    float64.  Vacuous offers raise.
    """
    reports = []
    m = dist.upper_bound
    for n in sorted(int(x) for x in n_list):
        mu = n * dist.mean
        t, b = _full_surplus_price(n, mu, m)
        eps = chernoff_tail_bound(dist, n, b)
        accept = 1.0 - eps * _ROUNDING_ALLOWANCE
        revenue = b * accept
        lower = surplus_lower_bound(n, mu, m)
        reports.append(SurplusExtractionReport(
            n=n,
            mu=mu,
            bundle_price=b,
            accept_prob_estimate=accept,
            revenue_estimate=revenue,
            revenue_std_error=0.0,
            lower_bound=lower,
            upper_bound=mu,
            bernstein_bound=bernstein_upper_bound(n, m, t),
            lower_bound_ok=revenue >= lower,
            upper_bound_ok=revenue <= mu,
            tail_bound=eps,
        ))
    return reports
