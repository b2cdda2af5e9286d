import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_auction_lab.valuations import (
    ValuationDistribution,
    make_piecewise_linear,
    make_uniform,
    validate_smoothness,
)

from oracles import (
    ks_statistic,
    laplace_simpson,
    mc_profiles,
    quantile_by_counting,
    quantile_rationalized,
    tilted_moments_simpson,
    simpson_between_knots,
)


def ramp():
    # f(v) = 0.5 + v on [0, 1]; already normalized.
    return make_piecewise_linear((0.0, 1.0), (0.5, 1.5))


@st.composite
def distributions(draw):
    m = draw(st.floats(0.5, 4.0))
    n_interior = draw(st.integers(0, 4))
    fracs = sorted(
        draw(
            st.lists(
                st.floats(0.05, 0.95),
                min_size=n_interior,
                max_size=n_interior,
                unique=True,
            )
        )
    )
    if any(b - a < 0.02 for a, b in zip(fracs[:-1], fracs[1:])):
        fracs = [f for i, f in enumerate(fracs) if i == 0 or f - fracs[i - 1] >= 0.02]
    knots = [0.0] + [round(f * m, 12) for f in fracs] + [m]
    dens = draw(
        st.lists(st.floats(0.05, 10.0), min_size=len(knots), max_size=len(knots))
    )
    return make_piecewise_linear(knots, dens)


class TestConstruction:
    def test_uniform_pdf_cdf_mean(self):
        u = make_uniform(1.0)
        assert u.pdf(0.3) == 1.0
        assert u.cdf(0.5) == 0.5
        assert make_uniform(2.0).mean == pytest.approx(1.0, abs=1e-12)

    def test_uniform_rejects_bad_upper_bound(self):
        with pytest.raises(ValueError):
            make_uniform(0.0)
        with pytest.raises(ValueError):
            make_uniform(-1.0)

    def test_ramp_is_left_alone_and_has_exact_mean(self):
        r = ramp()
        assert r.norm_factor == pytest.approx(1.0, abs=1e-12)
        # analytic: integral of v*(0.5 + v) over [0,1] = 1/4 + 1/3 = 7/12
        assert r.mean == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_normalization_rescales_and_reports_factor(self):
        d = make_piecewise_linear((0.0, 1.0), (2.0, 2.0))
        assert d.norm_factor == pytest.approx(0.5, abs=1e-15)
        assert d.pdf(0.25) == pytest.approx(1.0, abs=1e-12)
        assert d == make_uniform(1.0)

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            make_piecewise_linear((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            make_piecewise_linear((0.5, 0.2), (1.0, 1.0))
        with pytest.raises(ValueError):
            make_piecewise_linear((), ())
        with pytest.raises(ValueError):
            make_piecewise_linear((0.0, 1.0), (1.0, 1.0), upper_bound=2.0)
        with pytest.raises(ValueError):
            ValuationDistribution(1.0, (0.0, 1.0), (0.25, 0.25))  # integral 0.25

    @pytest.mark.parametrize("upper, message", [
        (math.inf, "upper bound must be positive and finite"),
        (0.0, "upper bound must be positive and finite"),
        (2.0, "last knot must equal the upper bound"),
    ])
    def test_constructor_checks_the_upper_bound(self, upper, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ValuationDistribution(upper, (0.0, 1.0), (1.0, 1.0))

    def test_first_knot_must_be_zero(self):
        with pytest.raises(ValueError):
            make_piecewise_linear((0.1, 1.0), (1.0, 1.0))


class TestEvaluation:
    def test_support_bounds(self):
        u = make_uniform(1.0)
        assert u.pdf(-0.1) == 0.0
        assert u.pdf(1.1) == 0.0
        assert u.cdf(2.0) == 1.0
        assert u.cdf(-0.5) == 0.0

    def test_ramp_cdf_value(self):
        # F(0.5) = 0.5*0.5 + 0.25/2 = 0.375
        assert ramp().cdf(0.5) == pytest.approx(0.375, abs=1e-12)

    def test_cdf_matches_simpson_of_pdf(self):
        for d in (make_uniform(2.0), ramp(),
                  make_piecewise_linear((0, 0.3, 1.2, 2.0), (1, 4, 0.2, 1))):
            for v in (0.1, 0.45, 1.0, d.upper_bound):
                v = min(v, d.upper_bound)
                knots = [k for k in d.knots if k < v] + [v]
                ref = simpson_between_knots(d.pdf, knots)
                assert d.cdf(v) == pytest.approx(ref, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        d = ramp()
        xs = np.linspace(-0.2, 1.2, 29)
        assert np.allclose(d.pdf(xs), [d.pdf(float(x)) for x in xs])
        assert np.allclose(d.cdf(xs), [d.cdf(float(x)) for x in xs])


def _clipped_index(d, arr):
    """The segment lookup as a search of all knots, clipped to the segments."""
    idx = np.searchsorted(d._knots, arr, side="right") - 1
    return np.minimum(np.maximum(idx, 0), d._slopes.size - 1)


# The references form the unclipped offset, where a zero slope times an
# infinite offset is NaN until the support test replaces it.
@np.errstate(invalid="ignore")
def _pdf_by_clipped_index(d, v):
    arr = np.asarray(v, dtype=float)
    idx = _clipped_index(d, arr)
    out = d._dens[idx] + d._slopes[idx] * (arr - d._knots[idx])
    out = np.where((arr < 0.0) | (arr > d.upper_bound), 0.0, out)
    return float(out) if np.ndim(v) == 0 else out


@np.errstate(invalid="ignore")
def _cdf_by_clipped_index(d, v):
    arr = np.asarray(v, dtype=float)
    idx = _clipped_index(d, arr)
    t = arr - d._knots[idx]
    out = d._cum[idx] + (d._dens[idx] + 0.5 * d._slopes[idx] * t) * t
    out = np.where(arr <= 0.0, 0.0, np.where(arr >= d.upper_bound, 1.0, out))
    return float(out) if np.ndim(v) == 0 else out


SEGMENT_LAWS = {
    "one": make_uniform(1.0),
    "one_ramp": make_piecewise_linear((0.0, 2.0), (0.25, 0.75)),
    "two": make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
    "four": make_piecewise_linear((0.0, 0.3, 1.2, 1.5, 2.0), (1, 4, 0.2, 0.5, 1)),
}


def _segment_probes(d):
    """Each knot and one ulp either side of it, points below 0 and above M,
    the infinities, NaN and both zeros."""
    knots = np.asarray(d.knots)
    return np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [-1.0, -5e-324, -0.0, 0.0, d.upper_bound * 2, d.upper_bound + 1.0,
         -np.inf, np.inf, np.nan, 0.5 * d.upper_bound],
    ])


class TestSegmentIndex:
    """The one-pass lookup over the interior knots gives the clipped search
    of all knots, so ``cdf`` and ``pdf`` keep their bytes."""

    @pytest.mark.parametrize("name", sorted(SEGMENT_LAWS))
    def test_index_matches_the_clipped_search(self, name):
        d = SEGMENT_LAWS[name]
        probes = _segment_probes(d)
        got = np.broadcast_to(d._segment_index(probes), probes.shape)
        assert np.array_equal(got, _clipped_index(d, probes))

    @pytest.mark.parametrize("name", sorted(SEGMENT_LAWS))
    def test_cdf_and_pdf_bytes_match_the_clipped_search(self, name):
        d = SEGMENT_LAWS[name]
        probes = _segment_probes(d)
        for fn, ref in ((d.cdf, _cdf_by_clipped_index),
                        (d.pdf, _pdf_by_clipped_index)):
            assert fn(probes).tobytes() == ref(d, probes).tobytes()
            grid = probes[:-1].reshape(-1, 3)
            got = fn(grid)
            assert got.shape == grid.shape
            assert got.tobytes() == ref(d, grid).tobytes()
            for x in probes.tolist():
                assert isinstance(fn(x), float)
                assert (np.float64(fn(np.float64(x))).tobytes()
                        == np.float64(ref(d, x)).tobytes())
                assert (np.float64(fn(np.asarray(x))).tobytes()
                        == np.float64(ref(d, x)).tobytes())


class TestLogLaplace:
    # Uniform, the ramp of configs/single_opt_uniform.json, and the
    # partition benchmark's 3-knot template.
    CASES = {
        "uniform": ((0.0, 1.0), (1.0, 1.0)),
        "ramp": ((0.0, 1.0), (0.5, 1.5)),
        "template": ((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
    }
    # 1e-8 and 1e-5 take the series branch on every segment, 0.5 and 0.51
    # straddle its edge, and 1e3 underflows e^{-theta v} past v = 0.75.
    THETAS = (1e-8, 1e-5, 1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 3.0, 30.0, 1e3)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_simpson_integral(self, name, theta):
        knots, densities = self.CASES[name]
        d = make_piecewise_linear(knots, densities)
        ref = laplace_simpson(knots, densities, theta)
        assert abs(d.log_laplace(theta) - math.log(ref)) <= 1e-12

    def test_uniform_closed_form(self):
        # E e^{-theta V} = (1 - e^{-theta M}) / (theta M) for uniform [0, M].
        # The stored density 1/M times the width M is 1 within one rounding,
        # hence the absolute 1e-15.
        for m in (1.0, 0.3, 7.0):
            for theta in (1e-6, 0.7, 50.0):
                want = math.log(-math.expm1(-theta * m) / (theta * m))
                assert make_uniform(m).log_laplace(theta) == pytest.approx(
                    want, rel=1e-13, abs=1e-15)

    def test_rejects_nonpositive_theta(self):
        for theta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="theta"):
                ramp().log_laplace(theta)


class TestTiltedMoments:
    # Uniform, the ramp, the partition benchmark's 3-knot template, and a
    # 4-segment density with most of its mass at the two ends.
    CASES = {
        "uniform": ((0.0, 1.0), (1.0, 1.0)),
        "ramp": ((0.0, 1.0), (0.5, 1.5)),
        "template": ((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
        "fallback": ((0.0, 0.1, 0.45, 0.96, 1.0),
                     (6.1, 0.053, 0.023, 0.355, 59.4)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_match_a_dense_composite_rule(self, name):
        # From theta = 1e-6, where the series branch serves every segment,
        # to 1e4, where the tilted law sits within 1e-4 of 0.
        knots, densities = self.CASES[name]
        d = make_piecewise_linear(knots, densities)
        for theta in np.geomspace(1e-6, 1e4, 21):
            mean, var = d.tilted_moments(float(theta))
            ref_mean, ref_var = tilted_moments_simpson(knots, densities,
                                                       float(theta))
            assert mean == pytest.approx(ref_mean, rel=1e-11)
            assert var == pytest.approx(ref_var, rel=1e-11)

    def test_rejects_nonpositive_theta(self):
        for theta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="theta"):
                ramp().tilted_moments(theta)


class TestSampling:
    """The test oracle's sampler (``tests/oracles.py``) against the CDF."""

    def test_quantile_uniform_identity(self):
        assert quantile_rationalized(make_uniform(1.0), 0.25) == pytest.approx(
            0.25, abs=1e-9)

    def test_quantile_ramp_inverts_cdf_example(self):
        # F(0.5) = 0.375 from the CDF example above.
        assert quantile_rationalized(ramp(), 0.375) == pytest.approx(
            0.5, abs=1e-9)

    def test_quantile_matches_bisection_oracle(self):
        d = make_piecewise_linear((0, 0.3, 1.2, 2.0), (1, 4, 0.2, 1))
        us = np.linspace(0.0, 1.0, 101)
        for u, x in zip(us, quantile_rationalized(d, us)):
            lo, hi = 0.0, d.upper_bound
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if d.cdf(mid) < u else (lo, mid)
            assert x == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    @pytest.mark.parametrize("dist_builder", [
        lambda: make_uniform(1.0),
        ramp,
        lambda: make_piecewise_linear((0, 0.5, 2.0), (3.0, 0.3, 1.0)),
    ])
    def test_kolmogorov_smirnov(self, dist_builder):
        d = dist_builder()
        xs = mc_profiles([d], 10**5, 1234)[:, 0]
        assert ks_statistic(xs, d.cdf) < 0.01


class TestSmoothness:
    def test_uniform_passes_tight_delta(self):
        rep = validate_smoothness(make_uniform(1.0), 0.9)
        assert rep.passes and rep.violations == ()
        assert rep.min_density == rep.max_density == 1.0

    def test_ramp_fails_when_delta_above_min_density(self):
        rep = validate_smoothness(ramp(), 0.6)
        assert not rep.passes
        assert any("min density" in v for v in rep.violations)

    def test_ramp_passes_smaller_delta(self):
        rep = validate_smoothness(ramp(), 0.4)
        assert rep.passes
        assert rep.min_density == pytest.approx(0.5)
        assert rep.max_density == pytest.approx(1.5)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                validate_smoothness(make_uniform(1.0), bad)

    def test_passes_iff_no_violations(self):
        for delta in (0.05, 0.3, 0.49, 0.6, 0.8):
            rep = validate_smoothness(ramp(), delta)
            assert rep.passes == (len(rep.violations) == 0)


@settings(max_examples=40, deadline=None)
@given(distributions())
def test_distribution_invariants(d):
    m = d.upper_bound
    assert d.cdf(0.0) == 0.0
    assert d.cdf(m) == 1.0
    grid = np.linspace(0.0, m, 1000)
    vals = d.cdf(grid)
    assert np.all(np.diff(vals) >= 0.0)
    # density integrates to 1 (Simpson aligned to the knots is exact here)
    assert simpson_between_knots(d.pdf, d.knots) == pytest.approx(1.0, abs=1e-8)
    # mean equals the Simpson integral of v * pdf(v)
    ref_mean = simpson_between_knots(lambda v: v * d.pdf(v), d.knots)
    assert d.mean == pytest.approx(ref_mean, abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(distributions(), st.integers(0, 2**32 - 1))
def test_sampler_stays_in_support(d, seed):
    xs = mc_profiles([d], 256, seed)
    assert np.all(xs >= 0.0) and np.all(xs <= d.upper_bound)


# The oracle sampler's inverse CDF, on the whole of [0, 1] including both
# ends: bit-identical to the same solve written with another segment lookup.

EDGE_US = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0),
                    0.5, 2.0**-53])

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


def bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@st.composite
def probabilities(draw):
    extra = draw(st.lists(unit_floats, min_size=0, max_size=64))
    return np.concatenate([EDGE_US, np.array(extra, dtype=float)])


@st.composite
def kernel_distributions(draw):
    """Uniform (zero slope), single sloped segment, and multi-segment."""
    kind = draw(st.sampled_from(["uniform", "flat_knots", "general"]))
    if kind == "uniform":
        return make_uniform(draw(st.floats(1e-3, 1e3)))
    if kind == "flat_knots":
        # Several segments, every one of them with zero slope.
        m = draw(st.floats(0.1, 10.0))
        return make_piecewise_linear((0.0, m / 3.0, m), (1.0, 1.0, 1.0))
    return draw(distributions())


@settings(max_examples=60, deadline=None)
@given(kernel_distributions(), probabilities())
def test_quantile_is_bit_equal_to_the_counting_formula(d, u):
    original = u.copy()
    got = quantile_rationalized(d, u)
    assert bits(u) == bits(original)
    assert bits(got) == bits(quantile_by_counting(d, u))
    assert got is not u


@settings(max_examples=40, deadline=None)
@given(kernel_distributions())
def test_quantile_at_and_beside_every_cdf_knot(d):
    # The segment index is a count of CDF knots at or below u; at a knot's
    # CDF value u starts the next segment, as with searchsorted "right".
    cum = d._cum
    u = np.clip(np.concatenate([cum, np.nextafter(cum, 2.0),
                                np.nextafter(cum, -1.0)]), 0.0, 1.0)
    x = quantile_rationalized(d, u)
    assert bits(x) == bits(quantile_by_counting(d, u))
    # At a knot's CDF value the value is that knot, to rounding.
    assert np.allclose(x[:cum.size], d._knots, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(kernel_distributions(), probabilities())
def test_a_strided_column_reads_as_a_contiguous_one(d, u):
    block = np.stack([u, 1.0 - u, u[::-1]], axis=1)
    before = block.copy()
    column = quantile_rationalized(d, block[:, 1])
    assert bits(column) == bits(quantile_rationalized(
        d, np.ascontiguousarray(before[:, 1])))
    assert bits(block) == bits(before)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), probabilities())
def test_zero_slope_is_exactly_u_over_d(m, u):
    d = make_uniform(m)
    assert d._slopes[0] == 0.0
    expected = np.minimum(u / d._dens[0], m)
    assert bits(quantile_rationalized(d, u)) == bits(expected)
    assert bits(quantile_by_counting(d, u)) == bits(expected)


@settings(max_examples=30, deadline=None)
@given(kernel_distributions(), st.lists(unit_floats, min_size=1, max_size=8))
def test_scalar_quantile_matches_formula_and_leaves_input(d, us):
    for value in list(EDGE_US[:3]) + us:
        arg = np.array(value)
        assert float(quantile_rationalized(d, value)) == float(
            quantile_by_counting(d, np.array([value]))[0])
        assert bits(quantile_rationalized(d, arg)) == bits(
            quantile_by_counting(d, arg))
        assert arg.item() == value


@settings(max_examples=20, deadline=None)
@given(kernel_distributions(), st.integers(0, 2**32 - 1))
def test_sample_is_formula_on_the_seeded_stream(d, seed):
    # mc_profiles draws one matrix from SeedSequence((seed, 0)).
    for rows, n in ((7, 1), (5, 3)):
        draws = np.random.default_rng(
            np.random.SeedSequence((seed, 0))).random((rows, n))
        got = mc_profiles([d] * n, rows, seed)
        assert bits(got) == bits(quantile_by_counting(d, draws))
