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
scores many candidates on one sample draws it once with
:func:`draw_batches` and passes the held batches to every reduction, which
gives the same floats as streaming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import BundleOffer
from .valuations import ValuationDistribution

__all__ = ["RevenueStats", "draw_batches", "revenue_stats", "valuation_sums"]

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


def draw_batches(dists: Sequence[ValuationDistribution], n_samples: int,
                 seed) -> list[np.ndarray]:
    """The sample of :func:`revenue_stats` as a list of read-only batch
    matrices, for callers that score many offers on one sample.

    The list holds ``n_samples * len(dists)`` float64 values at once.
    """
    held = list(_batches(dists, n_samples, seed))
    for v in held:
        v.flags.writeable = False
    return held


def _row_revenues(v: np.ndarray, offer: BundleOffer):
    a = np.array(
        [math.inf if p is None else p for p in offer.individual_prices],
        dtype=float,
    )
    finite = np.isfinite(a)
    if not finite.any():
        # Pure bundle: capped values are the valuations and no solo sales.
        accept = v.sum(axis=1) >= offer.bundle_price
        return np.where(accept, offer.bundle_price, 0.0), accept
    # The capped matrix is dropped before the solo pass, so a call holds one
    # batch-sized temporary at a time: a search scores hundreds of offers on
    # one held sample, and a larger per-call peak makes the allocator hand
    # memory back and fault it in again on every call.
    accept = np.minimum(v, a).sum(axis=1) >= offer.bundle_price
    solo = np.where((v >= a) & finite, a, 0.0).sum(axis=1)
    return np.where(accept, offer.bundle_price, solo), accept


def _revenue_partials(v: np.ndarray, offer: BundleOffer):
    """``(revenue sum, sum of squared deviations from b, accepted, rows)``
    of one batch."""
    rev, acc = _row_revenues(v, offer)
    # Deviations from b: revenue concentrates near the bundle price for
    # large groups, so centering there keeps the variance stable.
    d = rev - offer.bundle_price
    return float(rev.sum()), float((d * d).sum()), int(acc.sum()), len(v)


def revenue_stats(dists: Sequence[ValuationDistribution], offer: BundleOffer,
                  n_samples: int, seed, batches=None) -> RevenueStats:
    """Estimate the expected offer revenue from seeded i.i.d. profiles.

    ``batches`` is the sample as returned by :func:`draw_batches` for the
    same ``dists``, ``n_samples`` and ``seed``; without it the batches are
    drawn here and streamed.  Both give bit-identical results.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if offer.n != len(dists):
        raise ValueError("offer and distribution list must have equal length")
    if batches is None:
        batches = _batches(dists, n_samples, seed)
    total = 0.0
    total_sq = 0.0
    accepted = 0
    rows = 0
    # map drops each batch once it is reduced, so a streamed sample holds
    # one batch at a time.
    for part_sum, part_sq, part_accepted, part_rows in map(
            lambda v: _revenue_partials(v, offer), batches):
        total += part_sum
        total_sq += part_sq
        accepted += part_accepted
        rows += part_rows
    if rows != n_samples:
        raise ValueError(f"batches hold {rows} samples, expected {n_samples}")
    b = offer.bundle_price
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * (mean - b) ** 2) / (n_samples - 1))
    return RevenueStats(
        mean=mean,
        std_error=math.sqrt(var / n_samples),
        accept_prob=accepted / n_samples,
        n_samples=n_samples,
    )


def valuation_sums(dists: Sequence[ValuationDistribution], n_samples: int,
                   seed, batches=None) -> np.ndarray:
    """Seeded samples of ``sum_i V_i``, drawn from the same substreams as
    :func:`revenue_stats` so price searches share common random numbers.

    ``batches`` is as in :func:`revenue_stats`.
    """
    if batches is None:
        batches = _batches(dists, n_samples, seed)
    return np.concatenate(list(map(lambda v: v.sum(axis=1), batches)))
