"""The batched exact pair breakdown against the per-offer reference
formulas, which share no code with the exact group engine it reads, and
its solo parts against exact rationals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_auction_lab import pair_revenue
from bundle_auction_lab.bundles import BundleOffer
from bundle_auction_lab.pair_revenue import (
    RegionLabel,
    pair_expected_revenue_exact,
    pair_expected_revenues_exact,
    region_expected_revenue,
    verify_pair_improvement,
)
from bundle_auction_lab.single_pricing import optimal_single_price
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import (
    accept_prob_box_reference,
    class_sum_cdfs_fraction,
    pair_revenue_reference,
    pair_revenue_riemann,
    pair_solo_parts_fraction,
    region_bundle_revenue_reference,
)

AGREE = 1e-14
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
        ref = pair_revenue_reference(d1, d2, prices, b)
        assert np.max(np.abs(parts[:, i] - ref)) <= AGREE, (prices, b)
        # A batch of one gives the same values as the offer inside a batch.
        single = pair_expected_revenue_exact(d1, d2, BundleOffer(prices, b))
        assert tuple(parts[:, i]) == (
            single.total, single.bundle_part, single.solo_part_1,
            single.solo_part_2, single.accept_probability,
        )


@st.composite
def region_cases(draw):
    """Prices up to 1.2 times the support, so beyond it too, and
    ``0 < eps <= p2`` with ``eps = p2`` among the cases."""
    d1 = draw(densities())
    d2 = draw(st.one_of(st.just(d1), densities()))
    p1 = draw(st.one_of(st.just(0.0), st.just(d1.upper_bound),
                        st.floats(0.0, 1.2 * d1.upper_bound)))
    p2 = draw(st.one_of(st.just(d2.upper_bound),
                        st.floats(1e-3, 1.2 * d2.upper_bound)))
    eps = draw(st.one_of(st.just(p2), st.floats(1e-4, p2)))
    return d1, d2, p1, p2, eps


@settings(max_examples=60, deadline=None)
@given(region_cases())
def test_region_bundle_revenues_match_box_reference(case):
    # The case analysis of the epsilon-offer against the generic box
    # integral of each region.
    d1, d2, p1, p2, eps = case
    for label in RegionLabel:
        got = region_expected_revenue(d1, d2, p1, p2, eps, label, "bundle")
        ref = region_bundle_revenue_reference(d1, d2, p1, p2, eps, label.value)
        assert abs(got - ref) <= AGREE, (p1, p2, eps, label)


@settings(max_examples=150, deadline=None)
@given(densities(), densities())
def test_refined_epsilon_beats_a_fine_grid(d1, d2):
    # The refined epsilon is the exact argmax of the epsilon-line, so no
    # point of a 2,001-point grid on [0, 0.999 p2*] scores above it.
    p1 = optimal_single_price(d1).price
    p2 = optimal_single_price(d2).price
    report = verify_pair_improvement(d1, d2, (0.5 * p2,))
    eps = np.linspace(0.0, 0.999 * p2, 2001)
    line = pair_expected_revenues_exact(d1, d2, p1 + eps, p2, p1 + p2)[0]
    assert report.refined.breakdown.total >= line.max()
    assert 0.0 <= report.refined.eps < p2


@settings(max_examples=12, deadline=None)
@given(pairs_with_offers(low=0.5, high=2.0, max_offers=1))
def test_batch_matches_riemann_oracle(case):
    d1, d2, batch = case
    (prices, b), = batch
    total = pair_expected_revenues_exact(d1, d2, *_columns(batch))[0, 0]
    ref = pair_revenue_riemann(d1, d2, prices, b, cells=2000)
    assert total == pytest.approx(ref, abs=1.5e-3)


def test_rounding_offer_agrees_with_reference():
    # b - a2 is 1.1e-16, so a piece of the integrand is that wide and its
    # nodes round onto the breakpoints; the piece adds at most its width
    # times the integrand's maximum.
    prices, b = (0.6666666666666666, 0.6666666666666666), 0.6666666666666667
    ref = pair_revenue_reference(TEMPLATE, TEMPLATE, prices, b)
    got = pair_expected_revenue_exact(TEMPLATE, TEMPLATE, BundleOffer(prices, b))
    assert np.max(np.abs(np.array([
        got.total, got.bundle_part, got.solo_part_1, got.solo_part_2,
        got.accept_probability,
    ]) - ref)) <= AGREE


def test_empty_batch():
    u = make_uniform(1.0)
    assert pair_expected_revenues_exact(u, u, [], [], []).shape == (5, 0)


def test_batch_rejects_bad_inputs():
    u = make_uniform(1.0)
    with pytest.raises(ValueError):
        pair_expected_revenues_exact(u, u, 0.5, 0.5, -0.1)
    with pytest.raises(ValueError):
        pair_expected_revenues_exact(u, u, -0.5, math.nan, 1.0)


@pytest.mark.parametrize("a1, a2, b", [
    (0.5, 0.5, math.inf),
    (0.5, 0.5, math.nan),
    (math.inf, 0.5, 1.0),
    (math.nan, -math.inf, 1.0),
])
def test_batch_rejects_non_finite_prices(a1, a2, b):
    # NaN is NO_SALE for a solo price only; an infinite price used to give
    # a NaN total or numpy "invalid value" warnings.
    u = make_uniform(1.0)
    with pytest.raises(ValueError, match="finite"):
        pair_expected_revenues_exact(u, u, [0.3, a1], [0.3, a2], [0.6, b])


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
    singles = np.array([
        pair_expected_revenues_exact(d1, d2, _nan(p[0]), _nan(p[1]), b)[:, 0]
        for p, b in batch
    ]).T
    assert parts.tobytes() == singles.tobytes()
    ref = np.array([pair_revenue_reference(d1, d2, p, b) for p, b in batch]).T
    assert np.max(np.abs(parts - ref)) <= AGREE


@st.composite
def pruned_and_folded_batches(draw):
    """Batches that mix every case the kernel prunes and the caps that
    never bind: offers the group cannot accept, ``a2 > b``, ``a2 == b``,
    ``a1 >= b``, ties
    ``b == a1 + a2``, exact duplicates, ``NO_SALE`` on either side, ``b = 0``
    and ``-0.0`` prices."""
    d1 = draw(densities())
    d2 = draw(st.one_of(st.just(d1), densities()))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        a1 = draw(st.floats(0.0, 1.2 * d1.upper_bound))
        a2 = draw(st.floats(0.0, 1.2 * d2.upper_bound))
        b = draw(st.floats(0.0, d1.upper_bound + d2.upper_bound))
        tie = a1 + a2
        batch += [
            ((a1, a2), np.nextafter(tie, np.inf)),   # cannot accept
            ((a1, a2), tie + 0.1),                   # cannot accept
            ((a1, a2), tie),                         # tie
            ((a1, a2), b),
            ((a1, a2), b),                           # exact duplicate
            ((a1, b + a2), b),                       # a2 > b
            ((a1, b), b),                            # a2 == b
            ((a1, None), b),                         # as a2 >= b
            ((b + a1, a2), b),                       # a1 > b
            ((b, a2), b),                            # a1 == b
            ((None, a2), b),
            ((None, None), b),
            ((a1, a2), 0.0),
            ((a1, a2), -0.0),
            ((-0.0, a2), b),
            ((a1, -0.0), b),
            ((-0.0, -0.0), -0.0),
            ((0.0, 0.0), 0.0),
        ]
    order = draw(st.permutations(range(len(batch))))
    return d1, d2, [batch[i] for i in order]


@settings(max_examples=40, deadline=None)
@given(pruned_and_folded_batches())
def test_pruned_and_folded_offers_are_bit_identical(case):
    # Each offer's values in a batch equal those of the offer alone, bit
    # for bit, and the reference within AGREE.
    d1, d2, batch = case
    a1, a2, b = _columns(batch)
    parts = pair_expected_revenues_exact(d1, d2, a1, a2, b)
    for i, (prices, bi) in enumerate(batch):
        single = pair_expected_revenue_exact(d1, d2, BundleOffer(prices, bi))
        assert parts[:, i].tobytes() == np.array([
            single.total, single.bundle_part, single.solo_part_1,
            single.solo_part_2, single.accept_probability,
        ]).tobytes(), (prices, bi)
        ref = pair_revenue_reference(d1, d2, prices, bi)
        assert np.max(np.abs(parts[:, i] - ref)) <= AGREE, (prices, bi)


def test_offers_the_group_cannot_accept_are_never_accepted():
    # Past the float sum a1 + a2 the capped sum never reaches b, so the
    # acceptance probability is exactly 0.0, as the box reference says.
    a1 = np.array([0.2, 0.0, 0.5, 0.3])
    a2 = np.array([0.3, 0.0, 0.25, 0.3])
    b = np.array([np.nextafter(0.5, 1.0), 1e-300, 0.76, 1.9])
    assert (b > a1 + a2).all()
    accept = pair_expected_revenues_exact(TEMPLATE, TEMPLATE, a1, a2, b)[4]
    assert accept.tobytes() == np.zeros(4).tobytes()
    for prices, bi in zip(zip(a1, a2), b):
        ref = accept_prob_box_reference(TEMPLATE, TEMPLATE, *prices, bi,
                                        0.0, math.inf, 0.0, math.inf)
        assert ref == 0.0


def test_a_cap_at_or_above_b_is_no_sale_for_either_customer():
    # min(V, a) with a >= b reaches b exactly when V does, so either
    # customer's cap folds into NO_SALE bit for bit.
    d1 = make_piecewise_linear((0.0, 0.3, 0.9, 1.7), (0.4, 2.0, 0.7, 0.2))
    d2 = make_piecewise_linear((0.0, 0.5, 1.1, 1.5), (1.5, 0.3, 1.0, 0.6))
    b = np.linspace(0.0, 3.2, 41)
    other = np.full(b.size, 0.8)
    no_sale = np.full(b.size, np.nan)
    for cap in (b, b + 0.3, np.full(b.size, 3.2)):
        assert (pair_expected_revenues_exact(d1, d2, other, cap, b).tobytes()
                == pair_expected_revenues_exact(d1, d2, other, no_sale,
                                                b).tobytes())
        assert (pair_expected_revenues_exact(d1, d2, cap, other, b).tobytes()
                == pair_expected_revenues_exact(d1, d2, no_sale, other,
                                                b).tobytes())


def test_a_large_batch_matches_its_slices():
    # Rows are independent: in a batch of 3,993 offers, NO_SALE on either
    # side included, each offer gets the bits its slice of 1,000 gives it.
    axis = np.linspace(0.0, 1.0, 9)
    a1, a2, b = (g.ravel() for g in np.meshgrid(
        np.append(axis, np.nan), np.append(axis, np.nan),
        np.linspace(0.0, 2.0, 33), indexing="ij"))
    whole = pair_expected_revenues_exact(TEMPLATE, TEMPLATE, a1, a2, b)
    sliced = np.concatenate([
        pair_expected_revenues_exact(TEMPLATE, TEMPLATE, a1[i:i + 1000],
                                     a2[i:i + 1000], b[i:i + 1000])
        for i in range(0, b.size, 1000)
    ], axis=1)
    assert whole.tobytes() == sliced.tobytes()


@pytest.mark.parametrize("dist, p1, p2, pinned", [
    (make_uniform(1.0), 0.5, 0.5,
     ("0x1.0000000000000p-2", "0x1.c83126e978d4fp-4", "0x1.0000000000000p-3",
      "0x1.47ae147ae1380p-10", "0x1.70a3d70a3d708p-6")),
    (TEMPLATE, 0.55, 0.45,
     ("0x1.e36cabae6bc1ep-3", "0x1.56e028e94ab2ep-4", "0x1.2440885ef8ffbp-3",
      "0x1.00bb99ad39e20p-9", "0x1.96f2c6894017cp-6")),
])
def test_region_bundle_revenues_are_pinned(dist, p1, p2, pinned):
    # The five regions' bundle revenues read off the exact breakdown of
    # the epsilon-offer; a change to the CDF or the engine that moves a bit
    # shows up here.
    got = tuple(region_expected_revenue(dist, dist, p1, p2, 0.05, label,
                                        "bundle").hex()
                for label in RegionLabel)
    assert got == pinned


@pytest.mark.parametrize("d1, d2", [
    (make_uniform(1.0), make_uniform(1.0)),
    (TEMPLATE, TEMPLATE),
    (make_piecewise_linear((0.0, 0.3, 0.9, 1.7), (0.4, 2.0, 0.7, 0.2)),
     make_piecewise_linear((0.0, 0.5, 1.1, 1.5), (1.5, 0.3, 1.0, 0.6))),
], ids=["uniform", "template", "four-knot"])
def test_solo_parts_match_exact_rationals(d1, d2):
    # Both solo parts, read off the engine's line, against exact rationals
    # of the float inputs: NO_SALE, caps on knots and beyond the support,
    # and b on a grid, at the all-capped tie a1 + a2 (0.1 + 0.2 is not
    # 0.3), an ulp to either side of it and at a_i plus each knot of the
    # other law (exactly a knot for a_i = 0.5).  The worst is 8.0e-17.
    def caps(d):
        m = d.upper_bound
        return [None, 0.1, 0.2, 0.5, 0.37 * m, m, 1.3 * m, *d.knots[1:-1]]

    def cap(d, a):
        return d.upper_bound if a is None else min(a, d.upper_bound)

    batch = []
    for a1 in caps(d1):
        for a2 in caps(d2):
            tie = cap(d1, a1) + cap(d2, a2)
            bs = [*np.linspace(0.0, tie, 5).tolist(), np.nextafter(tie, 0.0),
                  np.nextafter(tie, np.inf), tie + 0.1]
            bs += [] if a1 is None else [a1 + k for k in d2.knots]
            bs += [] if a2 is None else [a2 + k for k in d1.knots]
            batch += [((a1, a2), float(b)) for b in bs]
    solos = pair_expected_revenues_exact(d1, d2, *_columns(batch))[2:4]
    laws = [(d.knots, d.densities) for d in (d1, d2)]
    for (prices, b), got in zip(batch, solos.T.tolist()):
        want = pair_solo_parts_fraction(laws, prices, b)
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= 4e-16, (
            prices, b)


# Laws on which the float64 pair engine failed AGREE.
STEEP = make_piecewise_linear(
    (0.0, 0.07500000000000001, 1.3125, 1.5),
    (5.701559020044543, 0.4751299183370453, 0.41573867854491464,
     1.9005196733481813))
STEEP_SHORT = make_piecewise_linear(
    (0.0, 0.05574761472083077, 0.5096924774475956, 1.0193849548951912),
    (2.0208120195710473, 0.14926452417286146, 1.1022611015842076,
     1.4696814687789435))
STEEP_RAMP = make_piecewise_linear(
    (0.0, 0.07568359375, 0.60546875, 1.2109375),
    (2.8281799546876685, 0.7070449886719171, 0.4419031179199482,
     1.4140899773438342))


@pytest.mark.parametrize("d1, d2", [
    (STEEP, STEEP),
    (STEEP_SHORT, STEEP_SHORT),
    (make_piecewise_linear((0.0, 1.0), (2.0, 4.0)), STEEP_RAMP),
], ids=["steep", "steep-short", "ramp-steep"])
def test_steep_pair_acceptance_matches_exact_rationals(d1, d2):
    # A density piece of slope about -70 gives convolution weights that
    # cancel each other: in float64, P[S >= b] missed its exact value by
    # up to 1.6e-14 on these laws, and b times that failed AGREE.  The
    # pair's convolution runs in long double, whose 64-bit significand
    # (x86-64) brings the worst under 3e-16, uncapped and capped.
    m1, m2 = d1.upper_bound, d2.upper_bound
    for a1, a2 in [(None, None), (0.6 * m1, 0.8 * m2)]:
        bs = [*np.linspace(0.0, m1 + m2, 41).tolist(), 2.0]
        batch = [((a1, a2), b) for b in bs]
        accept = pair_expected_revenues_exact(d1, d2, *_columns(batch))[4]
        below = class_sum_cdfs_fraction(
            [(d.knots, d.densities, 1, a) for d, a in ((d1, a1), (d2, a2))],
            bs)
        for b, got, want in zip(bs, accept.tolist(), below):
            assert abs(Fraction(got) - (1 - want)) <= 1e-15, (a1, a2, b)


def test_uniform_a4_bundle_revenue_is_its_closed_form():
    # On U[0,1]^2 at p1 = p2 = 1/2 the pair in A4 = [1/2, 1/2 + eps) x
    # [1/2 - eps, 1/2) buys the bundle b = 1 on the triangle v1 + v2 >= 1,
    # of area eps^2 / 2: 1/800 at eps = 0.05.  A4 is a difference of
    # probabilities near 1, so it keeps their absolute rounding, about
    # half an ulp of 1.
    u = make_uniform(1.0)
    a4 = region_expected_revenue(u, u, 0.5, 0.5, 0.05, RegionLabel.A4,
                                 "bundle")
    assert abs(a4 - 1 / 800) <= 5.7e-17


def test_theorem_1_runs_without_the_pair_integrator(monkeypatch):
    # The epsilon-line and the five region revenues come from the exact
    # group engine; the Gauss-Legendre integrator is never called.
    def fail(*args, **kwargs):
        raise AssertionError("the pair integrator ran")

    monkeypatch.setattr(pair_revenue, "integrate_with_breakpoints", fail)
    for dist, p1, p2 in ((make_uniform(1.0), 0.5, 0.5), (TEMPLATE, 0.55, 0.45)):
        assert verify_pair_improvement(dist, dist).improved
        for label in RegionLabel:
            ref = region_bundle_revenue_reference(dist, dist, p1, p2, 0.05,
                                                  label.value)
            got = region_expected_revenue(dist, dist, p1, p2, 0.05, label,
                                          "bundle")
            assert abs(got - ref) <= AGREE
