"""Customer-bundling auction lab.

Sellers of digital goods (unlimited supply, zero marginal cost) can beat the
best take-it-or-leave-it single price by offering groups of customers a joint
bundle: each customer i may still buy alone at a_i, or the group may buy one
item each for a total price b, accepted whenever the cost can be split so
that every member is at least as well off as shopping alone.

The package provides:

* :mod:`~bundle_auction_lab.valuations` -- bounded-support piecewise-linear
  valuation distributions (CDF, mean, sampling, smoothness validation).
* :mod:`~bundle_auction_lab.single_pricing` -- expected revenue of a single
  price and the interior fixed-point optimum.
* :mod:`~bundle_auction_lab.bundles` -- bundle offers, the group-rational
  acceptance rule, payment-split witnesses, and realized outcomes.
* :mod:`~bundle_auction_lab.pair_revenue` -- the breakdown of two-customer
  expected revenue by source, every part read off one build of the exact
  group engine, the epsilon-offer construction that strictly beats
  optimal single pricing, and pair-offer optimization.
* :mod:`~bundle_auction_lab.group_revenue` -- n-customer pure-bundle offers,
  Bernstein and closed-form Chernoff tail bounds, the near-full-surplus
  revenue guarantee, exact revenue and optimization of offers to small
  groups, pairs included, and Monte Carlo estimation as their check (for
  pairs too).
* :mod:`~bundle_auction_lab.experiments` -- config-driven experiment runner
  with deterministic, byte-reproducible CSV reports.
"""

__version__ = "0.1.0"

from .bundles import (
    NO_SALE,
    BundleOffer,
    Outcome,
    ValuationProfile,
    capped_value,
    group_rational_accepts,
    resolve_outcome,
    witness_split,
)
from .group_revenue import (
    SurplusExtractionReport,
    bernstein_sweep,
    bernstein_upper_bound,
    chernoff_tail_bound,
    full_surplus_offer,
    group_expected_revenue_exact,
    group_expected_revenue_mc,
    optimize_group_offer,
    surplus_lower_bound,
    verify_surplus_extraction,
)
from .pair_revenue import (
    EpsilonEvaluation,
    PairImprovementReport,
    PairRevenueBreakdown,
    RegionLabel,
    classify_region,
    epsilon_offer,
    optimize_pair_offer,
    pair_bundle_accepts,
    pair_expected_revenue_exact,
    region_expected_revenue,
    region_probability,
    verify_pair_improvement,
)
from .single_pricing import (
    SinglePriceSolution,
    expected_revenue,
    optimal_single_price,
    revenue_derivative,
)
from .valuations import (
    SmoothnessReport,
    ValuationDistribution,
    make_piecewise_linear,
    make_uniform,
    sample,
    sample_one,
    validate_smoothness,
)

__all__ = [
    "__version__",
    "NO_SALE",
    "BundleOffer",
    "Outcome",
    "ValuationProfile",
    "capped_value",
    "group_rational_accepts",
    "resolve_outcome",
    "witness_split",
    "SurplusExtractionReport",
    "bernstein_sweep",
    "bernstein_upper_bound",
    "chernoff_tail_bound",
    "full_surplus_offer",
    "group_expected_revenue_exact",
    "group_expected_revenue_mc",
    "optimize_group_offer",
    "surplus_lower_bound",
    "verify_surplus_extraction",
    "EpsilonEvaluation",
    "PairImprovementReport",
    "PairRevenueBreakdown",
    "RegionLabel",
    "classify_region",
    "epsilon_offer",
    "optimize_pair_offer",
    "pair_bundle_accepts",
    "pair_expected_revenue_exact",
    "region_expected_revenue",
    "region_probability",
    "verify_pair_improvement",
    "SinglePriceSolution",
    "expected_revenue",
    "optimal_single_price",
    "revenue_derivative",
    "SmoothnessReport",
    "ValuationDistribution",
    "make_piecewise_linear",
    "make_uniform",
    "sample",
    "sample_one",
    "validate_smoothness",
]
