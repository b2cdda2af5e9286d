"""Seeded, batched Monte Carlo of bundle-offer revenue: the independent
check of the exact engines.

A sample of ``n_samples`` profiles of n customers is cut into batches of
``BATCH_ELEMENTS // n`` rows (the last one shorter), and batch k draws from
the substream ``SeedSequence((*seed, k))``.  The sample is therefore fixed
by the seed, n, ``n_samples`` and ``BATCH_ELEMENTS``; a different batch size
regroups the profiles into other substreams and gives another sample.  The
per-row revenue rule is exactly
:func:`bundle_auction_lab.bundles.resolve_outcome`, vectorized.  An
estimate streams its batches: each is drawn, reduced to partial sums and
dropped, in batch order on the calling thread.

Each row's capped sum and solo payments are numpy's ``sum(axis=1)`` of
the capped and solo-payment matrices (:func:`_cap_and_solo_sums`).  A
batch is turned into valuations in place by transforms that work through
blocks of about ``valuations._BLOCK`` values, which changes no float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import BundleOffer
from .valuations import ValuationDistribution

__all__ = ["RevenueStats", "revenue_stats", "valuation_sums"]

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
    ``sum_i a_i [V_i >= a_i]``, the latter ``None`` when nothing sells
    solo: numpy's ``sum(axis=1)`` of the capped and payment matrices."""
    if all(a is None for a in prices):
        return v.sum(axis=1), None
    a = np.array([math.inf if p is None else p for p in prices])
    return (np.minimum(v, a).sum(axis=1),
            np.where((v >= a) & np.isfinite(a), a, 0.0).sum(axis=1))


def _row_revenues(v: np.ndarray, offer: BundleOffer):
    """Each row's revenue, ``b`` where its capped sum reaches ``b`` and its
    solo payments elsewhere, and whether it takes the bundle."""
    cap, solo = _cap_and_solo_sums(v, offer.individual_prices)
    accept = cap >= offer.bundle_price
    return np.where(accept, offer.bundle_price,
                    0.0 if solo is None else solo), accept


def _stats(b: float, n_samples: int, revenues) -> RevenueStats:
    """Reduce each batch's ``(revenues, accepted)`` to partial sums and
    combine them in batch order; the revenue arrays are overwritten."""
    total = 0.0
    total_sq = 0.0
    accepted = 0
    # Taking one batch at a time lets a streamed sample drop each batch
    # once it is reduced.
    for rev, acc in revenues:
        total += float(rev.sum())
        # Deviations from b, in place of the revenues, which are not read
        # again: revenue concentrates near the bundle price for large
        # groups, so centering there keeps the variance stable.
        d = np.subtract(rev, b, out=rev)
        total_sq += float(np.multiply(d, d, out=d).sum())
        accepted += int(np.count_nonzero(acc))
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * (mean - b) ** 2) / (n_samples - 1))
    return RevenueStats(
        mean=mean,
        std_error=math.sqrt(var / n_samples),
        accept_prob=accepted / n_samples,
        n_samples=n_samples,
    )


def revenue_stats(dists: Sequence[ValuationDistribution], offer: BundleOffer,
                  n_samples: int, seed) -> RevenueStats:
    """Estimate the expected offer revenue from seeded i.i.d. profiles,
    streaming the sample one batch at a time."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if offer.n != len(dists):
        raise ValueError("offer and distribution list must have equal length")
    return _stats(offer.bundle_price, n_samples,
                  map(lambda v: _row_revenues(v, offer),
                      _batches(dists, n_samples, seed)))


def valuation_sums(dists: Sequence[ValuationDistribution], n_samples: int,
                   seed) -> np.ndarray:
    """Seeded samples of ``sum_i V_i``, drawn from the same substreams as
    :func:`revenue_stats`."""
    return np.concatenate(
        [_cap_and_solo_sums(v, (None,) * len(dists))[0]
         for v in _batches(dists, n_samples, seed)])
