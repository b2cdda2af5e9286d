"""The batched exact pair kernel against the per-offer reference formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_auction_lab import pair_revenue
from bundle_auction_lab.bundles import BundleOffer
from bundle_auction_lab.pair_revenue import (
    _accept_probs,
    pair_expected_revenue_exact,
    pair_expected_revenues_exact,
)
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import (
    accept_prob_box_reference,
    pair_revenue_reference,
    pair_revenue_riemann,
)

AGREE = 1e-12
# The template of the benchmark's partition workload.
TEMPLATE = make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8))


def _nan(price):
    return math.nan if price is None else price


@st.composite
def densities(draw, low=0.2, high=3.0):
    """Piecewise-linear densities with 2 to 4 knots."""
    m = draw(st.floats(0.5, 2.0))
    n_knots = draw(st.integers(2, 4))
    fracs = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=n_knots - 2,
                                 max_size=n_knots - 2, unique=True)))
    fracs = [f for i, f in enumerate(fracs) if i == 0 or f - fracs[i - 1] >= 0.02]
    knots = [0.0] + [m * f for f in fracs] + [m]
    dens = draw(st.lists(st.floats(low, high), min_size=len(knots),
                         max_size=len(knots)))
    return make_piecewise_linear(knots, dens)


@st.composite
def offers(draw, d1, d2):
    """An offer with NO_SALE on either side, ties ``b == a1 + a2``, ``b = 0``
    and ``b > M1 + M2`` among the cases drawn."""
    m1, m2 = d1.upper_bound, d2.upper_bound
    a1 = draw(st.one_of(st.none(), st.just(0.0), st.just(m1),
                        st.floats(0.0, 1.2 * m1)))
    a2 = draw(st.one_of(st.none(), st.just(0.0), st.just(m2),
                        st.floats(0.0, 1.2 * m2)))
    bs = [st.just(0.0), st.floats(0.0, m1 + m2), st.floats(m1 + m2, 2 * (m1 + m2))]
    if a1 is not None and a2 is not None:
        bs.append(st.just(a1 + a2))
    return (a1, a2), draw(st.one_of(*bs))


@st.composite
def pairs_with_offers(draw, low=0.2, high=3.0, max_offers=40):
    d1 = draw(densities(low, high))
    d2 = draw(st.one_of(st.just(d1), densities(low, high)))
    batch = draw(st.lists(offers(d1, d2), min_size=1, max_size=max_offers))
    return d1, d2, batch


def _columns(batch):
    return (np.array([_nan(p[0]) for p, _ in batch]),
            np.array([_nan(p[1]) for p, _ in batch]),
            np.array([b for _, b in batch]))


@settings(max_examples=60, deadline=None)
@given(pairs_with_offers())
def test_batch_matches_per_offer_reference(case):
    d1, d2, batch = case
    parts = pair_expected_revenues_exact(d1, d2, *_columns(batch))
    assert parts.shape == (5, len(batch))
    for i, (prices, b) in enumerate(batch):
        ref = pair_revenue_reference(d1, d2, prices, b)[:5]
        assert np.max(np.abs(parts[:, i] - ref)) <= AGREE, (prices, b)
        # A batch of one gives the same values as the offer inside a batch.
        single = pair_expected_revenue_exact(d1, d2, BundleOffer(prices, b))
        assert tuple(parts[:, i]) == (
            single.total, single.bundle_part, single.solo_part_1,
            single.solo_part_2, single.accept_probability,
        )


@st.composite
def box_bounds(draw, m):
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.2 * m)))
    hi = draw(st.one_of(st.just(math.inf), st.floats(0.0, 1.2 * m)))
    return lo, hi


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_region_boxes_match_reference(data):
    d1, d2, batch = data.draw(pairs_with_offers(max_offers=12))
    boxes = [data.draw(box_bounds(d1.upper_bound)) + data.draw(box_bounds(d2.upper_bound))
             for _ in batch]
    a1, a2, b = _columns(batch)
    lo1, hi1, lo2, hi2 = (np.array(col) for col in zip(*boxes))
    got = _accept_probs(d1, d2, np.where(np.isnan(a1), np.inf, a1),
                        np.where(np.isnan(a2), np.inf, a2), b,
                        lo1, hi1, lo2, hi2)
    for i, ((prices, bi), box) in enumerate(zip(batch, boxes)):
        ref, _ = accept_prob_box_reference(d1, d2, *prices, bi, *box)
        assert abs(got[i] - ref) <= AGREE, (prices, bi, box)


@settings(max_examples=12, deadline=None)
@given(pairs_with_offers(low=0.5, high=2.0, max_offers=1))
def test_batch_matches_riemann_oracle(case):
    d1, d2, batch = case
    (prices, b), = batch
    total = pair_expected_revenues_exact(d1, d2, *_columns(batch))[0, 0]
    ref = pair_revenue_riemann(d1, d2, prices, b, cells=2000)
    assert total == pytest.approx(ref, abs=1.5e-3)


class _CountingIntegrator:
    def __init__(self, monkeypatch):
        self.calls = 0
        self._inner = pair_revenue.integrate_with_breakpoints
        monkeypatch.setattr(pair_revenue, "integrate_with_breakpoints", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)


def test_rounding_offer_takes_the_adaptive_fallback(monkeypatch):
    # b - a2 is 1.1e-16, so a piece of the integrand is that wide and its
    # Simpson nodes round onto the breakpoints; the error check fails.
    prices, b = (0.6666666666666666, 0.6666666666666666), 0.6666666666666667
    ref = pair_revenue_reference(TEMPLATE, TEMPLATE, prices, b)
    assert ref[5], "the reference should refine this offer"
    counter = _CountingIntegrator(monkeypatch)
    got = pair_expected_revenue_exact(TEMPLATE, TEMPLATE, BundleOffer(prices, b))
    assert counter.calls == 1
    assert np.max(np.abs(np.array([
        got.total, got.bundle_part, got.solo_part_1, got.solo_part_2,
        got.accept_probability,
    ]) - ref[:5])) <= AGREE


def test_ordinary_offers_need_no_fallback(monkeypatch):
    counter = _CountingIntegrator(monkeypatch)
    grid = np.linspace(0.0, 1.0, 9)
    a1, a2, b = (g.ravel() for g in np.meshgrid(grid, grid, 2.0 * grid))
    pair_expected_revenues_exact(TEMPLATE, TEMPLATE, a1, a2, b)
    assert counter.calls == 0


def test_empty_batch_and_nonpositive_boxes():
    u = make_uniform(1.0)
    assert pair_expected_revenues_exact(u, u, [], [], []).shape == (5, 0)
    probs = _accept_probs(u, u, np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                          np.array([0.6, 0.6]), np.array([0.7, 0.0]),
                          np.array([0.7, 1.0]), np.array([0.0, 2.0]),
                          np.array([1.0, 3.0]))
    assert probs.tolist() == [0.0, 0.0]


def test_batch_rejects_bad_inputs():
    u = make_uniform(1.0)
    with pytest.raises(ValueError):
        pair_expected_revenues_exact(u, u, 0.5, 0.5, -0.1)
    with pytest.raises(ValueError):
        pair_expected_revenues_exact(u, u, -0.5, math.nan, 1.0)


@pytest.mark.parametrize("d1,d2", [
    (TEMPLATE, TEMPLATE),
    (make_piecewise_linear((0.0, 0.3, 0.9, 1.7), (0.4, 2.0, 0.7, 0.2)),
     make_piecewise_linear((0.0, 0.5, 1.1, 1.5), (1.5, 0.3, 1.0, 0.6))),
])
def test_grid_is_bit_identical_to_reference(d1, d2):
    # Optimizer-style grid with NO_SALE rows: offers with up to 10 pieces
    # share a batch, and each must sum its pieces in the per-offer order so
    # that CSV outputs do not move by an ulp.
    ax1 = np.linspace(0.0, d1.upper_bound, 9)
    ax2 = np.linspace(0.0, d2.upper_bound, 9)
    axb = np.linspace(0.0, d1.upper_bound + d2.upper_bound, 9)
    batch = [((a1, a2), float(b))
             for c1 in (list(ax1), [None]) for c2 in (list(ax2), [None])
             for a1 in c1 for a2 in c2 for b in axb]
    parts = pair_expected_revenues_exact(d1, d2, *_columns(batch))
    ref = np.array([pair_revenue_reference(d1, d2, p, b)[:5] for p, b in batch]).T
    assert np.array_equal(parts, ref)
