"""Seeded, batched Monte Carlo of bundle-offer revenue.

Samples are produced in fixed-size batches; batch k draws from the
substream ``SeedSequence((*seed, k))``, and reductions run in batch order,
so results are bit-identical for identical inputs regardless of how many
samples a batch holds.  The per-row revenue rule is exactly
:func:`bundle_auction_lab.bundles.resolve_outcome`, vectorized.

A one-off estimate streams its batches: each is drawn, reduced and dropped.
A search that scores many candidates on one sample draws it once with
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
    n = len(dists)
    u = rng.random((rows, n))
    first = dists[0]
    if all(d is first or d == first for d in dists):
        return first._quantile_array(u)
    out = np.empty_like(u)
    for j, d in enumerate(dists):
        out[:, j] = d._quantile_array(u[:, j])
    return out


def _batches(dists, n_samples, seed):
    """Yield the sample's batch matrices one at a time, in batch order."""
    entropy = _seed_tuple(seed)
    rows = max(1, BATCH_ELEMENTS // max(len(dists), 1))
    n_batches = math.ceil(n_samples / rows)
    for k in range(n_batches):
        m = min(rows, n_samples - k * rows)
        yield _draw(dists, m, _batch_rng(entropy, k))


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
    capped = np.minimum(v, a)
    accept = capped.sum(axis=1) >= offer.bundle_price
    solo = np.where((v >= a) & finite, a, 0.0).sum(axis=1)
    return np.where(accept, offer.bundle_price, solo), accept


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
    b = offer.bundle_price
    total = 0.0
    # Sum of squared deviations from b: revenue concentrates near the bundle
    # price for large groups, so centering there keeps the variance stable.
    total_sq = 0.0
    accepted = 0
    rows = 0
    for v in batches:
        rev, acc = _row_revenues(v, offer)
        total += float(rev.sum())
        d = rev - b
        total_sq += float((d * d).sum())
        accepted += int(acc.sum())
        rows += len(v)
    if rows != n_samples:
        raise ValueError(f"batches hold {rows} samples, expected {n_samples}")
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

    ``batches`` is an already drawn sample, as in :func:`revenue_stats`.
    """
    if batches is None:
        batches = _batches(dists, n_samples, seed)
    return np.concatenate([v.sum(axis=1) for v in batches])
