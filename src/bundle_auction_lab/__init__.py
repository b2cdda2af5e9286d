"""Customer-bundling auction lab.

Sellers of digital goods (unlimited supply, zero marginal cost) can beat the
best take-it-or-leave-it single price by offering groups of customers a joint
bundle: each customer i may still buy alone at a_i, or the group may buy one
item each for a total price b, accepted whenever the cost can be split so
that every member is at least as well off as shopping alone.

The package provides:

* :mod:`~bundle_auction_lab.valuations` -- bounded-support piecewise-linear
  valuation distributions (CDF, mean, Laplace transform, smoothness
  validation).
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
  revenue guarantee, and exact revenue and optimization of offers to small
  groups, pairs included.
* :mod:`~bundle_auction_lab.experiments` -- config-driven experiment runner
  with deterministic, byte-reproducible CSV reports.

The package re-exports each module's ``__all__``, but not ``experiments``.
Nothing in it draws a random number: every command's revenue is exact, and
the seeded Monte Carlo estimate that checks the engine is a test oracle.
"""

__version__ = "0.1.0"

# _mc holds only placeholders that bench/ reads, and nothing else imports it.
from . import (_mc, bundles, group_revenue, pair_revenue, single_pricing,
               valuations)
from .bundles import *  # noqa: F403
from .group_revenue import *  # noqa: F403
from .pair_revenue import *  # noqa: F403
from .single_pricing import *  # noqa: F403
from .valuations import *  # noqa: F403

__all__ = ["__version__"] + [
    name for module in (bundles, group_revenue, pair_revenue, single_pricing,
                        valuations)
    for name in module.__all__
]
