"""Seeded, batched Monte Carlo of bundle-offer revenue.

A sample of ``n_samples`` profiles of n customers is cut into batches of
``BATCH_ELEMENTS // n`` rows (the last one shorter), and batch k draws from
the substream ``SeedSequence((*seed, k))``.  The sample is therefore fixed
by the seed, n, ``n_samples`` and ``BATCH_ELEMENTS``; a different batch size
regroups the profiles into other substreams and gives another sample.  The
per-row revenue rule is exactly
:func:`bundle_auction_lab.bundles.resolve_outcome`, vectorized.

A one-off estimate streams its batches: each is drawn, reduced to partial
sums and dropped, in batch order on the calling thread.  A search that
scores many candidates on one sample draws it once as a
:class:`HeldSample`, which scores a whole offer with the same floats as
streaming.  Moving one price of an offer traces a step-and-ramp line over
the sample, whose maximum is at one of finitely many points set by the
sample: :func:`bundle_argmax` and :meth:`HeldSample.best_solo_price` sort
the sample once per line and score every such point exactly, ranking the
sorted points in linear time.

Each row's capped sum and solo payments are the floats of numpy's
``sum(axis=1)`` of the capped and solo-payment matrices
(:func:`_cap_and_solo_sums`).  Below :data:`PAIRWISE_COLUMNS` customers
numpy adds a row left to right from 0, and the sums are built in that
order, one column pass at a time; from there on numpy sums a row pairwise,
and the matrices are summed with ``sum(axis=1)`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import BundleOffer
from .valuations import ValuationDistribution

__all__ = ["HeldSample", "RevenueStats", "bundle_argmax", "revenue_stats",
           "valuation_sums"]

#: Target number of matrix elements per batch (rows x customers).
BATCH_ELEMENTS = 1 << 21

MIN_SAMPLES = 1000

#: numpy's ``sum(axis=1)`` adds rows of fewer values left to right from 0
#: and rows of this many or more pairwise.
PAIRWISE_COLUMNS = 8


@dataclass(frozen=True)
class RevenueStats:
    """Mean revenue, its standard error, and the bundle-acceptance rate."""

    mean: float
    std_error: float
    accept_prob: float
    n_samples: int


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, tuple):
        entropy = tuple(int(s) for s in seed)
    else:
        entropy = (int(seed),)
    if any(s < 0 for s in entropy):
        raise ValueError("seed components must be nonnegative integers")
    return entropy


def _batch_rng(seed: tuple[int, ...], batch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed + (batch,)))


def _draw(dists: Sequence[ValuationDistribution], rows: int,
          rng: np.random.Generator) -> np.ndarray:
    """One batch: the uniform draws, turned into valuations in place."""
    u = rng.random((rows, len(dists)))
    first = dists[0]
    if all(d is first or d == first for d in dists):
        return first._quantile_array(u, out=u)
    for j, d in enumerate(dists):
        column = u[:, j]
        d._quantile_array(column, out=column)
    return u


def _batches(dists, n_samples, seed):
    """The sample's batch matrices, drawn lazily one at a time in batch
    order."""
    entropy = _seed_tuple(seed)
    rows = max(1, BATCH_ELEMENTS // max(len(dists), 1))
    for k in range(math.ceil(n_samples / rows)):
        yield _draw(dists, min(rows, n_samples - k * rows),
                    _batch_rng(entropy, k))


def _cap_and_solo_sums(v: np.ndarray, prices):
    """Each row's ``sum_i min(V_i, a_i)`` and its solo payments
    ``sum_i a_i [V_i >= a_i]``, the latter ``None`` when nothing sells solo.

    Both are numpy's ``sum(axis=1)`` of the capped and payment matrices,
    to the bit.  Below :data:`PAIRWISE_COLUMNS` columns that sum adds each
    row left to right from 0, one call per row, which is slow for rows of
    a few values; here each column is added to running row totals in the
    same order instead, so the sums are the same floats.  A customer
    without a solo price adds 0 to the payments, which changes no sum of
    nonnegative values, and is skipped.
    """
    sells = any(a is not None for a in prices)
    if v.shape[1] >= PAIRWISE_COLUMNS:
        if not sells:
            return v.sum(axis=1), None
        a = np.array([math.inf if p is None else p for p in prices],
                     dtype=float)
        # The capped matrix is dropped before the solo pass, so a call
        # holds one temporary the size of ``v`` at a time.
        cap = np.minimum(v, a).sum(axis=1)
        return cap, np.where((v >= a) & np.isfinite(a), a, 0.0).sum(axis=1)
    rows = len(v)
    cap = np.zeros(rows)
    solo = np.zeros(rows) if sells else None
    scratch = np.empty(rows)
    bought = np.empty(rows, dtype=bool)
    for column, a in zip(v.T, prices):
        if a is None:
            cap += column
            continue
        cap += np.minimum(column, a, out=scratch)
        np.greater_equal(column, a, out=bought)
        solo += np.multiply(bought, a, out=scratch)
    return cap, solo


def _select(cap: np.ndarray, solo, b: float):
    """Each row's revenue, ``b`` where its capped sum reaches ``b`` and its
    solo payments elsewhere, and whether it takes the bundle."""
    accept = cap >= b
    return np.where(accept, b, 0.0 if solo is None else solo), accept


def _row_revenues(v: np.ndarray, offer: BundleOffer):
    return _select(*_cap_and_solo_sums(v, offer.individual_prices),
                   offer.bundle_price)


def _stats(b: float, n_samples: int, revenues) -> RevenueStats:
    """Reduce each batch's ``(revenues, accepted)`` to partial sums and
    combine them in batch order."""
    total = 0.0
    total_sq = 0.0
    accepted = 0
    # Taking one batch at a time lets a streamed sample drop each batch
    # once it is reduced.
    for rev, acc in revenues:
        # Deviations from b: revenue concentrates near the bundle price for
        # large groups, so centering there keeps the variance stable.
        d = rev - b
        total += float(rev.sum())
        total_sq += float((d * d).sum())
        accepted += int(acc.sum())
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * (mean - b) ** 2) / (n_samples - 1))
    return RevenueStats(
        mean=mean,
        std_error=math.sqrt(var / n_samples),
        accept_prob=accepted / n_samples,
        n_samples=n_samples,
    )


def _check_samples(n_samples: int) -> None:
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")


def _check_length(n: int, dists_n: int) -> None:
    if n != dists_n:
        raise ValueError("offer and distribution list must have equal length")


def revenue_stats(dists: Sequence[ValuationDistribution], offer: BundleOffer,
                  n_samples: int, seed) -> RevenueStats:
    """Estimate the expected offer revenue from seeded i.i.d. profiles,
    streaming the sample one batch at a time."""
    _check_samples(n_samples)
    _check_length(offer.n, len(dists))
    return _stats(offer.bundle_price, n_samples,
                  map(lambda v: _row_revenues(v, offer),
                      _batches(dists, n_samples, seed)))


def valuation_sums(dists: Sequence[ValuationDistribution], n_samples: int,
                   seed) -> np.ndarray:
    """Seeded samples of ``sum_i V_i``, drawn from the same substreams as
    :func:`revenue_stats` so price searches share common random numbers."""
    return np.concatenate(
        [_cap_and_solo_sums(v, (None,) * len(dists))[0]
         for v in _batches(dists, n_samples, seed)])


def _tie_starts(s: np.ndarray) -> np.ndarray:
    """The index where each run of equal values of the sorted ``s`` starts,
    in O(len(s)): ``np.searchsorted(s, s)`` of each distinct value."""
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return np.flatnonzero(new)


def _ranks(t: np.ndarray, x: np.ndarray):
    """The distinct values ``p`` of the sorted arrays ``t`` and ``x``
    together, ascending, with ``#{t <= p}`` and ``#{x < p}`` for each:
    ``np.searchsorted(t, p, "right")`` and ``np.searchsorted(x, p)``.

    A stable argsort of ``t`` then ``x`` is a timsort, which finds the two
    sorted runs and merges them in linear time.  A running count of ``t``
    items read at the two ends of each run of equal values gives both
    counts, whatever the order inside the run.
    """
    both = np.concatenate((t, x))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    starts = _tie_starts(merged)
    # from_t[k]: items of t among the first k merged values.
    from_t = np.zeros(merged.size + 1, dtype=np.intp)
    np.cumsum(order < t.size, out=from_t[1:])
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = merged.size
    return merged[starts], from_t[ends], starts - from_t[starts]


def bundle_argmax(cap: np.ndarray, solo: np.ndarray | None = None
                  ) -> tuple[float, float]:
    """The smallest maximizer ``b`` of ``mean(where(cap >= b, b, solo))``
    over ``b >= 0``, and that mean; ``solo`` is 0 when ``None``.

    Between consecutive values of ``cap`` the rows that accept are fixed
    and the mean rises with ``b``, so the maximum is at one of the values.
    One sort scores them all: where a run of equal values starts, its
    index counts the rows below the value (found in linear time,
    :func:`_tie_starts`), and a prefix sum of ``solo`` in ``cap`` order
    gives what those rows pay.  ``cap`` and ``solo`` are summed as
    :func:`_cap_and_solo_sums` sums them, left to right below
    :data:`PAIRWISE_COLUMNS` customers and pairwise from there.
    """
    if solo is None:
        cap = np.sort(cap)
    else:
        order = np.argsort(cap)
        cap = cap[order]
        paid = np.concatenate(([0.0], np.cumsum(solo[order])))
    below = _tie_starts(cap)
    totals = cap[below] * (cap.size - below)
    if solo is not None:
        totals += paid[below]
    k = int(np.argmax(totals))
    return float(cap[below[k]]), float(totals[k]) / cap.size


def _solo_argmax(x: np.ndarray, t: np.ndarray, solo: np.ndarray,
                 b: float) -> tuple[float, float]:
    """The least maximizer ``a >= 0`` of the mean revenue when one
    customer, with valuations ``x``, is offered ``a`` solo next to the
    bundle at ``b``, and that mean; ``solo`` is the other customers' solo
    payments per row, and a row takes the bundle once ``min(x, a)`` reaches
    its threshold ``t``.

    A row with ``x >= t`` (set A) pays ``solo + a`` below ``t`` and ``b``
    from ``t`` on; any other row (set B) pays ``solo + a`` while ``x >= a``
    and ``solo`` above.  The total is

        ``sum solo + sum_A (b - solo)[t <= a]
        + a (#{A: t > a} + #{B: x >= a})``,

    which rises between breakpoints, jumps up at each ``t`` of A and drops
    just after each ``x`` of B, and is flat beyond the last of them.  So
    its maximum is at 0, at a ``t >= 0`` of A or at an ``x`` of B.  Both
    sets are sorted, and :func:`_ranks` merges them in linear time to
    count each point's rows.  ``solo`` and ``t`` come from row sums taken
    as :func:`_cap_and_solo_sums` takes them, left to right below
    :data:`PAIRWISE_COLUMNS` customers and pairwise from there.
    """
    in_a = x >= t
    t_a = t[in_a]
    order = np.argsort(t_a)
    t_a = t_a[order]
    gained = np.concatenate(([0.0], np.cumsum((b - solo[in_a])[order])))
    x_b = np.sort(x[~in_a])
    # The candidate 0 runs with the thresholds from 0 on, so each point's
    # count of them includes it once and leaves out the ``below`` under 0.
    below = int(np.searchsorted(t_a, 0.0))
    points, t_le, x_lt = _ranks(np.concatenate(([0.0], t_a[below:])), x_b)
    bought = t_le + (below - 1)
    paying = t_a.size - bought + x_b.size - x_lt
    totals = solo.sum() + gained[bought] + points * paying
    best = totals.max()
    return float(points[totals == best].min()), float(best) / x.size


class HeldSample:
    """The sample of :func:`revenue_stats` for ``dists``, ``n_samples`` and
    ``seed``, drawn once and held for a search that scores many offers on it.

    ``values`` is the whole sample, one read-only ``(n_samples, n)``
    float64 matrix, and ``bounds`` are the row offsets of its batches.  A
    sample of one batch, as every shipped config draws, is held as drawn;
    a larger one is copied into the matrix one batch at a time.  Each
    row's capped sum and solo payments (:func:`_cap_and_solo_sums`: added
    left to right below :data:`PAIRWISE_COLUMNS` customers, by numpy's
    pairwise ``sum(axis=1)`` from there) are kept for the last two price
    vectors scored; a row's sum does not depend on which rows are summed
    with it, so they are the floats of the streamed batches.
    :meth:`score` reduces them batch by batch as :func:`revenue_stats`
    streams them, with the same floats.  The two line maximizers move one
    price of an offer and return its exact argmax over the sample with the
    mean there, summed in sort order, which agrees with :meth:`score` to
    rounding.
    """

    def __init__(self, dists: Sequence[ValuationDistribution],
                 n_samples: int, seed):
        _check_samples(n_samples)
        self.n = len(dists)
        self.n_samples = n_samples
        batches = _batches(dists, n_samples, seed)
        self.values = next(batches)
        self.bounds = [0, len(self.values)]
        if self.bounds[-1] < n_samples:
            # Several batches: copied one at a time into one matrix.
            held = np.empty((n_samples, self.n))
            held[:self.bounds[-1]] = self.values
            for v in batches:
                start = self.bounds[-1]
                held[start:start + len(v)] = v
                self.bounds.append(start + len(v))
            self.values = held
        self.values.flags.writeable = False
        self._rows: dict = {}

    def _capped(self, prices):
        """:func:`_cap_and_solo_sums` of the sample for ``prices``.  The two
        price vectors used last keep theirs: a search step reads the
        current offer's and scores one trial."""
        key = tuple(prices)
        sums = self._rows.pop(key, None)
        if sums is None:
            sums = _cap_and_solo_sums(self.values, key)
            if len(self._rows) == 2:
                del self._rows[next(iter(self._rows))]
        self._rows[key] = sums
        return sums

    def sums(self) -> np.ndarray:
        """Each profile's ``sum_i V_i``: :func:`valuation_sums`' values."""
        return _cap_and_solo_sums(self.values, (None,) * self.n)[0]

    def score(self, offer: BundleOffer) -> RevenueStats:
        """:func:`revenue_stats` of ``offer`` on the held sample."""
        _check_length(offer.n, self.n)
        b = offer.bundle_price
        cap, solo = self._capped(offer.individual_prices)
        rows = [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]
        return _stats(b, self.n_samples,
                      (_select(cap[r], None if solo is None else solo[r], b)
                       for r in rows))

    def best_bundle_price(self, prices) -> tuple[float, float]:
        """:func:`bundle_argmax` of the offer ``(prices, b)`` over ``b``.

        Each row's capped sum is the one :meth:`score` compares with ``b``,
        so the row at the returned price accepts there.
        """
        _check_length(len(prices), self.n)
        return bundle_argmax(*self._capped(prices))

    def best_solo_price(self, prices, i: int, b: float
                        ) -> tuple[float, float]:
        """:func:`_solo_argmax` of the offer ``(prices, b)`` over customer
        ``i``'s price.

        A row's threshold is ``b`` less the other customers' capped values,
        taken from the row's capped sum at the current price as
        :meth:`score` computes it.  :meth:`score` compares a float sum of
        ``n`` capped values with ``b``, and that sum and the threshold
        round by less than ``(n + 1) u (b + sum)`` together
        (``u = 2**-53``).  So each threshold is raised by
        ``2 n u (b + sum)``, where the row accepts however its sum rounds,
        and then moved to agree with the row's known answer at the current
        price: to customer i's capped value there if the row accepts,
        above it if not.  A row whose sum ties ``b`` to rounding comes from
        prices and ``b`` that the search took from the sample, and such a
        tie sits at the current price, where the line is exact.  Elsewhere
        a raised threshold scores at least the exact one, since the line
        rises between breakpoints, unless another valuation lies within
        the margin; the line never counts a sale the score would not.
        """
        _check_length(len(prices), self.n)
        cap, solo = self._capped(prices)
        x = self.values[:, i]
        a = prices[i]
        y = x if a is None else np.minimum(x, a)
        if solo is None:
            solo = np.zeros_like(cap)
        if a is not None:
            # A new array: the held solo payments stay as they are.
            solo = solo - (x >= a) * a
        t = b - (cap - y) + 2 * self.n * 2.0**-53 * (b + cap)
        moved = np.maximum(t, np.nextafter(y, math.inf))
        np.putmask(moved, cap >= b, np.minimum(t, y))
        return _solo_argmax(x, moved, solo, b)
