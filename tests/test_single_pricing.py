import math

import numpy as np
import pytest

from bundle_auction_lab.single_pricing import (
    expected_revenue,
    optimal_single_price,
    revenue_derivative,
)
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import central_difference, grid_search_max

RAMP_P_STAR = (math.sqrt(7.0) - 1.0) / 3.0  # root of 1 - p - 1.5 p^2


def ramp():
    return make_piecewise_linear((0.0, 1.0), (0.5, 1.5))


class TestExpectedRevenue:
    def test_uniform_values(self):
        u = make_uniform(1.0)
        assert expected_revenue(u, 0.5) == pytest.approx(0.25, abs=1e-12)
        assert expected_revenue(u, 0.0) == 0.0
        assert expected_revenue(u, 1.0) == 0.0

    def test_rejects_negative_price(self):
        with pytest.raises(ValueError):
            expected_revenue(make_uniform(1.0), -0.1)

    def test_rejects_nan_price(self):
        with pytest.raises(ValueError):
            expected_revenue(make_uniform(1.0), math.nan)
        with pytest.raises(ValueError):
            expected_revenue(make_uniform(1.0), np.array([0.5, math.nan]))


class TestDerivative:
    def test_uniform_values(self):
        u = make_uniform(1.0)
        assert revenue_derivative(u, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert revenue_derivative(u, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert revenue_derivative(u, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_off_support(self):
        u = make_uniform(1.0)
        with pytest.raises(ValueError):
            revenue_derivative(u, -0.01)
        with pytest.raises(ValueError):
            revenue_derivative(u, 1.01)
        with pytest.raises(ValueError):
            revenue_derivative(u, math.nan)

    @pytest.mark.parametrize("dist_builder", [
        lambda: make_uniform(1.0),
        ramp,
        lambda: make_piecewise_linear((0, 0.4, 2.0), (2.0, 0.5, 0.8)),
    ])
    def test_matches_finite_differences(self, dist_builder):
        d = dist_builder()
        rng = np.random.default_rng(97)
        prices = rng.uniform(1e-3, d.upper_bound - 1e-3, size=100)
        for p in prices:
            fd = central_difference(lambda x: expected_revenue(d, x), float(p))
            assert revenue_derivative(d, float(p)) == pytest.approx(fd, abs=1e-6)


class TestOptimalPrice:
    def test_uniform(self):
        sol = optimal_single_price(make_uniform(1.0))
        assert (sol.price, sol.utility) == (0.5, 0.25)

    def test_uniform_scaling(self):
        sol = optimal_single_price(make_uniform(2.0))
        assert (sol.price, sol.utility) == (1.0, 0.5)

    def test_ramp_analytic_root(self):
        sol = optimal_single_price(ramp())
        assert abs(sol.price - RAMP_P_STAR) <= 4 * math.ulp(RAMP_P_STAR)
        _, u_ref = grid_search_max(
            lambda p: expected_revenue(ramp(), p), 0.0, 1.0, 100001
        )
        assert sol.utility == pytest.approx(u_ref, abs=1e-6)

    @pytest.mark.parametrize("dist_builder", [
        lambda: make_uniform(1.0),
        lambda: make_uniform(3.0),
        ramp,
        lambda: make_piecewise_linear((0, 0.4, 2.0), (2.0, 0.5, 0.8)),
        lambda: make_piecewise_linear((0, 0.2, 0.3, 1.0), (0.2, 4.0, 1.0, 0.4)),
    ])
    def test_solution_invariants(self, dist_builder):
        d = dist_builder()
        sol = optimal_single_price(d)
        assert 0.0 < sol.price < d.upper_bound
        assert sol.utility > 0.0
        assert sol.fixed_point_residual < 1e-14
        assert sol.derivative_residual < 1e-14
        grid = np.linspace(0.0, d.upper_bound, 10**4)
        assert sol.utility >= expected_revenue(d, grid).max()


def _segment_roots_by_polynomial(d):
    """Roots of ``u'`` on each segment from ``numpy.roots`` of the cubic
    ``u(k + t)``'s derivative, an oracle independent of the solver's
    stable quadratic formula."""
    roots = []
    ks = np.asarray(d.knots, dtype=float)
    for k0, k1 in zip(ks[:-1], ks[1:]):
        f0, f1 = d.pdf(k0), d.pdf(k1)
        s = (f1 - f0) / (k1 - k0)
        big_f = d.cdf(k0)
        # u'(k + t) = 1 - F(k) - k f0 - (2 f0 + s k) t - 1.5 s t^2
        coeffs = [-1.5 * s, -(2.0 * f0 + s * k0), 1.0 - big_f - k0 * f0]
        for r in np.roots(coeffs if s != 0.0 else coeffs[1:]):
            if abs(r.imag) < 1e-12 and -1e-12 <= r.real <= k1 - k0 + 1e-12:
                roots.append(k0 + r.real)
    return roots


@pytest.mark.parametrize("dist_builder", [
    ramp,
    lambda: make_piecewise_linear((0, 0.4, 2.0), (2.0, 0.5, 0.8)),
    lambda: make_piecewise_linear((0, 0.2, 0.3, 1.0), (0.2, 4.0, 1.0, 0.4)),
    lambda: make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
])
def test_price_is_the_best_segment_root(dist_builder):
    # The maximum is the interior critical point of largest revenue; the
    # solver reaches it to within 4 ulp.
    d = dist_builder()
    roots = _segment_roots_by_polynomial(d)
    best = max(roots, key=lambda p: expected_revenue(d, p))
    sol = optimal_single_price(d)
    assert abs(sol.price - best) <= 4 * math.ulp(best)
    assert sol.utility >= max(expected_revenue(d, p) for p in roots)
