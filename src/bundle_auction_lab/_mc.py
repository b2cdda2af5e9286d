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

Scratch the size of a sample is neither allocated nor faulted in per call.
A batch is turned into valuations in place by transforms that work
through blocks of about ``valuations._BLOCK`` values, and the row sums run
over blocks of whole rows, so their scratch is one block.  A
:class:`HeldSample` allocates its scratch once (a :class:`_Workspace` and
a solo line's two input rows), and its lines and scores write into it
with ``out=``.  Every value goes through the operations of the plain
numpy expressions in their order, so neither the blocks nor the reuse
change a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import BundleOffer
from .valuations import _BLOCK, ValuationDistribution

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


def _cap_and_solo_sums(v: np.ndarray, prices, out=None):
    """Each row's ``sum_i min(V_i, a_i)`` and its solo payments
    ``sum_i a_i [V_i >= a_i]``, the latter ``None`` when nothing sells solo.

    Both are numpy's ``sum(axis=1)`` of the capped and payment matrices,
    to the bit.  Below :data:`PAIRWISE_COLUMNS` columns that sum adds each
    row left to right from 0, one call per row, which is slow for rows of
    a few values; here each column is added to running row totals in the
    same order instead, so the sums are the same floats.  A customer
    without a solo price adds 0 to the payments, which changes no sum of
    nonnegative values, and is skipped.

    A row's sums do not depend on the other rows, so ``v`` is taken in
    blocks of whole rows, and a call's scratch is one block: about
    ``_BLOCK`` values of the pairwise sums, or one value for each of
    ``_BLOCK`` rows of the column passes.  The sums are written to the
    rows of ``out`` (two rows of ``len(v)``, the second unused when
    nothing sells), by default a new array.
    """
    sells = any(a is not None for a in prices)
    rows, n = v.shape
    if out is None:
        out = np.empty((2 if sells else 1, rows))
    cap, solo = out[0], (out[1] if sells else None)
    if n >= PAIRWISE_COLUMNS:
        a = np.array([math.inf if p is None else p for p in prices])
        finite = np.isfinite(a)
        step = max(1, _BLOCK // n)
        for lo in range(0, rows, step):
            block = v[lo:lo + step]
            (np.minimum(block, a) if sells else block).sum(
                axis=1, out=cap[lo:lo + step])
            if sells:
                np.where((block >= a) & finite, a, 0.0).sum(
                    axis=1, out=solo[lo:lo + step])
        return cap, solo
    # The column passes' scratch is one value per row of a block.
    scratch = np.empty(min(_BLOCK, rows))
    bought = np.empty(min(_BLOCK, rows), dtype=bool)
    for lo in range(0, rows, _BLOCK):
        block, c = v[lo:lo + _BLOCK], cap[lo:lo + _BLOCK]
        c.fill(0.0)
        if sells:
            s = solo[lo:lo + _BLOCK]
            s.fill(0.0)
            sc, bo = scratch[:len(block)], bought[:len(block)]
        for column, p in zip(block.T, prices):
            if p is None:
                c += column
                continue
            c += np.minimum(column, p, out=sc)
            np.greater_equal(column, p, out=bo)
            s += np.multiply(bo, p, out=sc)
    return cap, solo


def _select(cap: np.ndarray, solo, b: float, rev: np.ndarray,
            accept: np.ndarray):
    """Each row's revenue, ``b`` where its capped sum reaches ``b`` and its
    solo payments elsewhere, written to ``rev``, which may be ``cap``, and
    whether it takes the bundle, written to ``accept``."""
    np.greater_equal(cap, b, out=accept)
    np.copyto(rev, 0.0 if solo is None else solo)
    np.putmask(rev, accept, b)
    return rev, accept


def _row_revenues(v: np.ndarray, offer: BundleOffer):
    cap, solo = _cap_and_solo_sums(v, offer.individual_prices)
    return _select(cap, solo, offer.bundle_price, cap,
                   np.empty(len(cap), dtype=bool))


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


class _Workspace:
    """Scratch arrays for the lines and scores of a sample of ``rows``
    rows, allocated once and written with ``out=``.

    ``floats`` (four rows) and ``ints`` (three) hold ``rows + 2`` values
    each: a line merges up to ``rows + 1`` points, and a running count of
    them has one value more.  ``mask`` is bools of that length.  The
    functions that take a workspace say which of its arrays they write; a
    caller keeps its live values in arrays that its callees leave alone.
    A function called without one builds its own; the rows it does not
    write stay untouched, so they cost no page faults.
    """

    def __init__(self, rows: int):
        self.floats = np.empty((4, rows + 2))
        self.ints = np.empty((3, rows + 2), dtype=np.intp)
        self.mask = np.empty(rows + 2, dtype=bool)


def _tie_starts(s: np.ndarray, work: _Workspace | None = None
                ) -> np.ndarray:
    """The index where each run of equal values of the sorted ``s`` starts,
    in O(len(s)): ``np.searchsorted(s, s)`` of each distinct value.  Writes
    ``work.mask``."""
    new = (np.empty(s.size, dtype=bool) if work is None
           else work.mask[:s.size])
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return np.flatnonzero(new)


def _ranks(t: np.ndarray, x: np.ndarray, work: _Workspace | None = None):
    """The distinct values ``p`` of the sorted arrays ``t`` and ``x``
    together, ascending, with ``#{t <= p}`` and ``#{x < p}`` for each:
    ``np.searchsorted(t, p, "right")`` and ``np.searchsorted(x, p)``.

    A stable argsort of ``t`` then ``x`` is a timsort, which finds the two
    sorted runs and merges them in linear time, keeping each run's order.
    So the merged item at position ``j`` with ``o = order[j]`` has
    ``o + 1`` items of ``t`` up to it when it is ``t[o]``, and
    ``j + len(t) - o`` when it is an item of ``x``.  Read at the last item
    of each run of equal values, that is ``#{t <= p}``; read at the last
    item of the run before, it leaves ``#{x < p}`` of the run's start.
    Writes ``work.floats[2:]``, ``work.ints`` and ``work.mask``; the three
    results are views of ``floats[2]``, ``ints[2]`` and ``ints[1]``.
    """
    size = t.size + x.size
    if work is None:
        work = _Workspace(size)
    both = np.concatenate((t, x), out=work.floats[2][:size])
    order = np.argsort(both, kind="stable")
    merged = np.take(both, order, out=work.floats[3][:size], mode="clip")
    starts = _tie_starts(merged, work)
    runs = starts.size
    last = work.ints[1][:runs]
    np.subtract(starts[1:], 1, out=last[:-1])
    last[-1:] = size - 1
    t_le = np.take(order, last, out=work.ints[2][:runs], mode="clip")
    if_x = np.subtract(last, t_le, out=work.ints[0][:runs])
    if_x += t.size
    t_le += 1
    # The count that applies is the smaller: an item of t has j >= o, so
    # o + 1 <= j + len(t) - o, and an item of x has j <= o.
    np.minimum(t_le, if_x, out=t_le)
    x_lt = last
    x_lt[:1] = 0
    np.subtract(starts[1:], t_le[:-1], out=x_lt[1:])
    return (np.take(merged, starts, out=both[:runs], mode="clip"),
            t_le, x_lt)


def bundle_argmax(cap: np.ndarray, solo: np.ndarray | None = None,
                  work: _Workspace | None = None) -> tuple[float, float]:
    """The smallest maximizer ``b`` of ``mean(where(cap >= b, b, solo))``
    over ``b >= 0``, and that mean; ``solo`` is 0 when ``None``.

    Between consecutive values of ``cap`` the rows that accept are fixed
    and the mean rises with ``b``, so the maximum is at one of the values.
    One sort scores them all: where a run of equal values starts, its
    index counts the rows below the value (found in linear time,
    :func:`_tie_starts`), and a prefix sum of ``solo`` in ``cap`` order
    gives what those rows pay.  ``cap`` and ``solo`` are summed as
    :func:`_cap_and_solo_sums` sums them, left to right below
    :data:`PAIRWISE_COLUMNS` customers and pairwise from there.  Writes
    ``work.floats``, ``work.ints[1]`` and ``work.mask``.
    """
    size = cap.size
    if work is None:
        work = _Workspace(size)
    paid, ordered, totals, gathered = work.floats
    ordered = ordered[:size]
    if solo is None:
        np.copyto(ordered, cap)
        ordered.sort()
    else:
        order = np.argsort(cap)
        np.take(cap, order, out=ordered, mode="clip")
        paid[0] = 0.0
        np.cumsum(np.take(solo, order, out=totals[:size], mode="clip"),
                  out=paid[1:size + 1])
        del order
    below = _tie_starts(ordered, work)
    totals = np.take(ordered, below, out=totals[:below.size], mode="clip")
    totals *= np.subtract(size, below, out=work.ints[1][:below.size])
    if solo is not None:
        totals += np.take(paid, below, out=gathered[:below.size],
                          mode="clip")
    k = int(np.argmax(totals))
    return float(ordered[below[k]]), float(totals[k]) / size


def _solo_argmax(x: np.ndarray, t: np.ndarray, solo: np.ndarray,
                 b: float, work: _Workspace | None = None
                 ) -> tuple[float, float]:
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
    :data:`PAIRWISE_COLUMNS` customers and pairwise from there.  Writes
    ``work.floats``, ``work.ints`` and ``work.mask``.
    """
    if work is None:
        work = _Workspace(x.size)
    gained, line = work.floats[:2]
    in_a = np.greater_equal(x, t, out=work.mask[:x.size])
    # Row indices and takes select the same values as boolean indexing,
    # at a quarter of its cost.
    rows_a = np.flatnonzero(in_a)
    k = rows_a.size
    t_a = np.take(t, rows_a, out=gained[:k], mode="clip")
    order = np.argsort(t_a)
    # line: the candidate 0, the sorted thresholds after it, then x_b.
    sorted_t = np.take(t_a, order, out=line[1:k + 1], mode="clip")
    pay = np.take(solo, np.take(rows_a, order, out=work.ints[0][:k],
                                mode="clip"),
                  out=work.floats[2][:k], mode="clip")
    np.subtract(b, pay, out=pay)
    gained[0] = 0.0
    np.cumsum(pay, out=gained[1:k + 1])
    del rows_a, order
    rows_b = np.flatnonzero(np.logical_not(in_a, out=in_a))
    x_b = np.take(x, rows_b, out=line[k + 1:x.size + 1], mode="clip")
    x_b.sort()
    # The candidate 0 runs with the thresholds from 0 on, so each point's
    # count of them includes it once and leaves out the ``below`` under 0.
    below = int(np.searchsorted(sorted_t, 0.0))
    line[below] = 0.0
    points, t_le, x_lt = _ranks(line[below:k + 1], x_b, work)
    bought = np.add(t_le, below - 1, out=t_le)
    paying = np.subtract(x.size, bought, out=work.ints[0][:t_le.size])
    paying -= x_lt
    totals = np.take(gained, bought, out=line[:t_le.size], mode="clip")
    totals += solo.sum()
    totals += np.multiply(points, paying, out=work.floats[3][:t_le.size])
    # The points ascend, so the first best total is at the least argmax.
    best = int(np.argmax(totals))
    return float(points[best]), float(totals[best]) / x.size


def _next_up(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.nextafter(y, inf)`` for finite ``y >= +0``, written to ``out``:
    there the next float up has the next int64 bit pattern."""
    np.add(y.view(np.int64), 1, out=out.view(np.int64))
    return out


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

    The sample holds one :class:`_Workspace` and a solo line's thresholds
    and payments, and the two price vectors' sums are written into two
    reused buffers, so a score or a line allocates nothing of the
    sample's size but its sorts' permutations and the row indices of the
    subsets it sorts.  Every intermediate is
    written with ``out=`` in the order the plain expressions evaluate it,
    and each sort, merge and prefix sum runs on the same values in the
    same order as in those expressions, so the floats are the same to the
    bit.
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
        self._work = _Workspace(n_samples)
        # A solo line's per-row thresholds and payments, its inputs to
        # :func:`_solo_argmax`.
        self._threshold, self._payment = np.empty((2, n_samples))

    def _capped(self, prices):
        """:func:`_cap_and_solo_sums` of the sample for ``prices``.  The two
        price vectors used last keep theirs: a search step reads the
        current offer's and scores one trial.  A third vector's sums
        overwrite the buffer of the one used longest ago, so the arrays
        returned hold until two other vectors have been summed."""
        key = tuple(prices)
        entry = self._rows.pop(key, None)
        if entry is None:
            buffer = (self._rows.pop(next(iter(self._rows)))[0]
                      if len(self._rows) == 2
                      else np.empty((2, self.n_samples)))
            entry = buffer, _cap_and_solo_sums(self.values, key, out=buffer)
        self._rows[key] = entry
        return entry[1]

    def sums(self) -> np.ndarray:
        """Each profile's ``sum_i V_i``: :func:`valuation_sums`' values."""
        return _cap_and_solo_sums(self.values, (None,) * self.n)[0]

    def score(self, offer: BundleOffer) -> RevenueStats:
        """:func:`revenue_stats` of ``offer`` on the held sample."""
        _check_length(offer.n, self.n)
        b = offer.bundle_price
        cap, solo = self._capped(offer.individual_prices)
        work = self._work
        rows = [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]
        return _stats(b, self.n_samples,
                      (_select(cap[r], None if solo is None else solo[r], b,
                               work.floats[0][r], work.mask[r])
                       for r in rows))

    def best_bundle_price(self, prices) -> tuple[float, float]:
        """:func:`bundle_argmax` of the offer ``(prices, b)`` over ``b``.

        Each row's capped sum is the one :meth:`score` compares with ``b``,
        so the row at the returned price accepts there.
        """
        _check_length(len(prices), self.n)
        return bundle_argmax(*self._capped(prices), self._work)

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
        work = self._work
        x = self.values[:, i]
        a = prices[i]
        y, t, margin = work.floats[:3, :self.n_samples]
        mask = work.mask[:self.n_samples]
        if a is None:
            y = x
            if solo is None:
                solo = self._payment
                solo.fill(0.0)
        else:
            np.minimum(x, a, out=y)
            # Into the workspace: the held solo payments stay as they are.
            paid = np.multiply(np.greater_equal(x, a, out=mask), a,
                               out=self._payment)
            solo = np.subtract(solo, paid, out=paid)
        # t = b - (cap - y) + 2 n u (b + cap), evaluated in that order.
        np.subtract(b, np.subtract(cap, y, out=t), out=t)
        np.multiply(2 * self.n * 2.0**-53, np.add(b, cap, out=margin),
                    out=margin)
        t += margin
        # Valuations are finite and at least +0, so y is too, and the next
        # float up is the next bit pattern (np.nextafter costs ten times
        # more).
        moved = np.maximum(t, _next_up(y, margin), out=self._threshold)
        np.putmask(moved, np.greater_equal(cap, b, out=mask),
                   np.minimum(t, y, out=t))
        return _solo_argmax(x, moved, solo, b, work)
