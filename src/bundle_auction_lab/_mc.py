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
streaming and a trial that moves one price in passes over single columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .bundles import BundleOffer
from .valuations import ValuationDistribution

__all__ = ["HeldSample", "RevenueStats", "revenue_stats", "valuation_sums"]

#: Target number of matrix elements per batch (rows x customers).
BATCH_ELEMENTS = 1 << 21

MIN_SAMPLES = 1000


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
    ``sum_i a_i [V_i >= a_i]``, the latter ``None`` when nothing sells solo."""
    a = np.array([math.inf if p is None else p for p in prices], dtype=float)
    finite = np.isfinite(a)
    if not finite.any():
        # Pure bundle: capped values are the valuations and no solo sales.
        return v.sum(axis=1), None
    # The capped matrix is dropped before the solo pass, so a call holds one
    # batch-sized temporary at a time.
    cap = np.minimum(v, a).sum(axis=1)
    return cap, np.where((v >= a) & finite, a, 0.0).sum(axis=1)


def _row_revenues(v: np.ndarray, offer: BundleOffer):
    cap, solo = _cap_and_solo_sums(v, offer.individual_prices)
    accept = cap >= offer.bundle_price
    return np.where(accept, offer.bundle_price,
                    0.0 if solo is None else solo), accept


def _revenue_partials(v: np.ndarray, offer: BundleOffer):
    """``(revenue sum, sum of squared deviations from b, accepted)`` of one
    batch."""
    rev, acc = _row_revenues(v, offer)
    # Deviations from b: revenue concentrates near the bundle price for
    # large groups, so centering there keeps the variance stable.
    d = rev - offer.bundle_price
    return float(rev.sum()), float((d * d).sum()), int(acc.sum())


def _stats(offer: BundleOffer, n_samples: int, batches) -> RevenueStats:
    """Reduce each batch to partial sums and combine them in batch order."""
    total = 0.0
    total_sq = 0.0
    accepted = 0
    # map drops each batch once it is reduced, so a streamed sample holds
    # one batch at a time.
    for part_sum, part_sq, part_accepted in map(
            lambda v: _revenue_partials(v, offer), batches):
        total += part_sum
        total_sq += part_sq
        accepted += part_accepted
    b = offer.bundle_price
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
    return _stats(offer, n_samples, _batches(dists, n_samples, seed))


def valuation_sums(dists: Sequence[ValuationDistribution], n_samples: int,
                   seed) -> np.ndarray:
    """Seeded samples of ``sum_i V_i``, drawn from the same substreams as
    :func:`revenue_stats` so price searches share common random numbers."""
    return np.concatenate(
        list(map(lambda v: v.sum(axis=1), _batches(dists, n_samples, seed))))


def _scratch(rows: int):
    """Scratch rows for :func:`_select_sum`: ``(float, float, bool, bool)``."""
    return (np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool),
            np.empty(rows, dtype=bool))


def _select_sum(cap, b: float, rev, spare, accept, reject) -> float:
    """Sum over rows of ``b`` where ``cap >= b``, else of the solo payments
    in ``rev``, which is overwritten; ``spare``, ``accept`` and ``reject``
    are scratch rows.

    The rows are ``rev * [cap < b] + b * [cap >= b]``: with ``rev`` and
    ``b`` finite and nonnegative each row is exactly ``b`` or its solo
    payment, the values ``np.where(cap >= b, b, rev)`` gives, and the
    passes have no data-dependent branch, unlike a masked copy.
    """
    np.greater_equal(cap, b, out=accept)
    np.logical_not(accept, out=reject)
    np.multiply(rev, reject, out=rev)
    np.multiply(accept, b, out=spare)
    np.add(rev, spare, out=rev)
    return float(rev.sum())


def _bundle_part(v: np.ndarray, prices):
    """One batch's ``b -> revenue sum`` for fixed solo ``prices``."""
    cap, solo = _cap_and_solo_sums(v, prices)
    scratch = _scratch(len(v))

    def revenue_sum(b: float) -> float:
        rev = scratch[0]
        if solo is None:
            rev.fill(0.0)
        else:
            np.copyto(rev, solo)
        return _select_sum(cap, b, *scratch)

    return revenue_sum


def _coordinate_part(v: np.ndarray, prices, i: int, b: float):
    """One batch's ``a -> revenue sum`` with ``a`` as customer ``i``'s price.

    The capped values and solo payments of the other columns are fixed and
    kept as contiguous rows.  Those before column i are summed once, left
    to right; a trial starts from them, adds column i's and then each later
    column in column order, so each row is summed in the order of numpy's
    row sum below 8 columns.  A column that sells nothing solo adds only
    zeros to the solo payments, which leaves every partial sum as it is, so
    it is skipped there.
    """
    caps, solos = [], []
    for j, p in enumerate(prices):
        if j == i:
            continue
        column = v[:, j]
        if p is None:
            caps.append(np.ascontiguousarray(column))
            solos.append(None)
        else:
            caps.append(np.minimum(column, p))
            solos.append(np.where(column >= p, p, 0.0))
    cap_before = reduce(np.add, caps[:i]) if i else None
    cap_after = caps[i:]
    sold_before = [s for s in solos[:i] if s is not None]
    solo_before = reduce(np.add, sold_before) if sold_before else None
    solo_after = [s for s in solos[i:] if s is not None]
    x = np.ascontiguousarray(v[:, i])
    cap = np.empty(len(v))
    scratch = _scratch(len(v))

    def revenue_sum(a: float) -> float:
        rev, _, sells, _ = scratch
        np.minimum(x, a, out=cap)
        if cap_before is not None:
            np.add(cap, cap_before, out=cap)
        for c in cap_after:
            np.add(cap, c, out=cap)
        np.greater_equal(x, a, out=sells)
        np.multiply(sells, a, out=rev)  # a where V_i >= a, else 0.0
        if solo_before is not None:
            np.add(rev, solo_before, out=rev)
        for s in solo_after:
            np.add(rev, s, out=rev)
        return _select_sum(cap, b, *scratch)

    return revenue_sum


class HeldSample:
    """The sample of :func:`revenue_stats` for ``dists``, ``n_samples`` and
    ``seed``, drawn once and held for a search that scores many offers on it.

    The batches hold ``n_samples * len(dists)`` float64 values, read-only.
    :meth:`score` reduces them exactly as :func:`revenue_stats` streams
    them, with the same floats.  The two lines score trials that move one
    coordinate of an offer from per-row sums they cache, in one-column
    passes:

    * :meth:`bundle_line` keeps each row's capped-value sum and solo
      payments, so a trial is one comparison, a branch-free select and a
      sum.  Its values are :meth:`score`'s means for every group size.
    * :meth:`coordinate_line` keeps the other customers' columns, so a
      trial costs one pass per column from customer i on.  It sums each row
      left to right, which is numpy's row sum below 8 columns: up to 7
      customers its values are :meth:`score`'s means bit for bit, above
      that they agree to rounding.

    A line holds its cache until it is dropped: up to about twice the
    sample for a coordinate line, a few values per profile for a bundle
    line.
    """

    def __init__(self, dists: Sequence[ValuationDistribution],
                 n_samples: int, seed):
        _check_samples(n_samples)
        self.n = len(dists)
        self.n_samples = n_samples
        self.batches = list(_batches(dists, n_samples, seed))
        for v in self.batches:
            v.flags.writeable = False

    def sums(self) -> np.ndarray:
        """Each profile's ``sum_i V_i``: :func:`valuation_sums`' values."""
        return np.concatenate([v.sum(axis=1) for v in self.batches])

    def score(self, offer: BundleOffer) -> RevenueStats:
        """:func:`revenue_stats` of ``offer`` on the held sample."""
        _check_length(offer.n, self.n)
        return _stats(offer, self.n_samples, self.batches)

    def _line(self, parts) -> Callable[[float], float]:
        def mean(x: float) -> float:
            total = 0.0
            for part in parts:
                total += part(x)
            return total / self.n_samples

        return mean

    def bundle_line(self, prices) -> Callable[[float], float]:
        """``b -> mean revenue`` of the offer ``(prices, b)``."""
        _check_length(len(prices), self.n)
        return self._line([_bundle_part(v, prices) for v in self.batches])

    def coordinate_line(self, prices, i: int, b: float
                        ) -> Callable[[float], float]:
        """``a -> mean revenue`` of the offer ``(prices, b)`` with customer
        ``i``'s price replaced by ``a``, a finite nonnegative price."""
        _check_length(len(prices), self.n)
        return self._line([_coordinate_part(v, prices, i, b)
                           for v in self.batches])
