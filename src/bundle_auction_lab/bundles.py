"""Bundle offers, group-rational acceptance, and realized outcomes.

An offer to a group of n customers consists of individual prices
``a_1..a_n`` (``NO_SALE`` marks an item not purchasable alone) and a bundle
price ``b`` for one item each.  The group accepts the bundle iff there are
payments ``P_1..P_n`` with

1. ``sum(P_i) == b``,
2. ``P_i <= V_i`` for every i (no one pays above their valuation),
3. ``P_i <= a_i`` for every i (no one pays above their solo price).

Acceptance lemma: since the conditions place no lower bound on individual
payments, such a split exists iff ``sum_i min(V_i, a_i) >= b``.  (Adding a
``P_i >= 0`` constraint would not change acceptance for ``b >= 0`` -- the
feasible payment totals are then exactly ``[0, sum_i min(V_i, a_i)]`` -- but
individual splits could no longer go negative; we follow the literal
three-condition rule, so witnesses may assign a negative payment, i.e. one
customer subsidizing another.)  The lemma is verified against a brute-force
split search in the test suite.

If the bundle is rejected, each customer independently buys alone iff
``V_i >= a_i``.  Boundary ties resolve toward purchase; they occur with
probability zero under non-atomic valuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

__all__ = [
    "NO_SALE",
    "BundleOffer",
    "ValuationProfile",
    "Outcome",
    "capped_value",
    "group_rational_accepts",
    "witness_split",
    "resolve_outcome",
]

#: Sentinel for "item not purchasable individually" (an effectively infinite
#: solo price, kept out of float arithmetic).
NO_SALE: None = None


@dataclass(frozen=True)
class BundleOffer:
    """Per-customer solo prices (or ``NO_SALE``) plus a bundle price."""

    individual_prices: tuple[Optional[float], ...]
    bundle_price: float

    def __post_init__(self) -> None:
        if len(self.individual_prices) < 1:
            raise ValueError("offer needs at least one customer")
        # NO_SALE is the one way to write an infinite price.
        if not 0.0 <= self.bundle_price < math.inf:
            raise ValueError("bundle price must be finite and nonnegative")
        for a in self.individual_prices:
            if a is not None and not 0.0 <= a < math.inf:
                raise ValueError(
                    "individual prices must be finite and nonnegative, or NO_SALE")
        # Normalize to a plain tuple of float | None.
        object.__setattr__(
            self,
            "individual_prices",
            tuple(None if a is None else float(a) for a in self.individual_prices),
        )
        object.__setattr__(self, "bundle_price", float(self.bundle_price))

    @property
    def n(self) -> int:
        return len(self.individual_prices)


@dataclass(frozen=True)
class ValuationProfile:
    """Realized valuations ``(V_1, ..., V_n)`` for one auction instance."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if any(not (v >= 0.0) for v in vals):
            raise ValueError("valuations must be nonnegative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class Outcome:
    """Who received items, what each paid, and the seller's revenue.

    If the bundle was accepted everyone receives and the revenue is the
    bundle price; otherwise receivers are exactly the solo buyers, each
    paying their solo price (which is at most their valuation).
    """

    bundle_accepted: bool
    receives: tuple[bool, ...]
    payments: tuple[float, ...]
    seller_revenue: float

    def __post_init__(self) -> None:
        total = sum(p for p, r in zip(self.payments, self.receives) if r)
        if abs(total - self.seller_revenue) > 1e-9:
            raise ValueError("seller revenue must equal the received payments")
        if self.bundle_accepted and not all(self.receives):
            raise ValueError("an accepted bundle delivers to every customer")


def _values(profile) -> Sequence[float]:
    if isinstance(profile, ValuationProfile):
        return profile.values
    return profile


def capped_value(valuation: float, price: Optional[float]) -> float:
    """``min(V, a)``; with ``NO_SALE`` the cap is inactive and V is returned."""
    if not valuation >= 0.0:
        raise ValueError("valuation must be nonnegative")
    if price is None:
        return float(valuation)
    return float(min(valuation, price))


def _capped_values(offer: BundleOffer, profile) -> list[float]:
    vals = _values(profile)
    if len(vals) != offer.n:
        raise ValueError(
            f"offer is for {offer.n} customers, profile has {len(vals)}"
        )
    return [capped_value(v, a) for v, a in zip(vals, offer.individual_prices)]


def group_rational_accepts(offer: BundleOffer, profile) -> bool:
    """True iff the group buys the bundle: ``sum_i min(V_i, a_i) >= b``."""
    return sum(_capped_values(offer, profile)) >= offer.bundle_price


def witness_split(offer: BundleOffer, profile) -> Optional[tuple[float, ...]]:
    """An explicit payment split proving acceptance, or None if infeasible.

    Uses the equal-slack rule: everyone pays their capped value minus an
    equal share of the surplus ``S = sum_i min(V_i, a_i) - b``.  The result
    satisfies the three acceptance conditions exactly; revenue-side results
    depend only on ``b``, not on the particular split.
    """
    caps = _capped_values(offer, profile)
    slack = sum(caps) - offer.bundle_price
    if slack < 0.0:
        return None
    share = slack / offer.n
    return tuple(c - share for c in caps)


def resolve_outcome(offer: BundleOffer, profile) -> Outcome:
    """Realized outcome of one auction instance.

    Bundle accepted: everyone receives, payments follow
    :func:`witness_split`, revenue is ``b``.  Otherwise customer i receives
    iff ``a_i`` is finite and ``V_i >= a_i`` and pays ``a_i``.
    """
    vals = _values(profile)
    if group_rational_accepts(offer, profile):
        payments = witness_split(offer, profile)
        return Outcome(
            bundle_accepted=True,
            receives=(True,) * offer.n,
            payments=payments,
            seller_revenue=offer.bundle_price,
        )
    receives = tuple(
        a is not None and v >= a
        for v, a in zip(vals, offer.individual_prices)
    )
    payments = tuple(
        (a if r else 0.0)
        for r, a in zip(receives, offer.individual_prices)
    )
    return Outcome(
        bundle_accepted=False,
        receives=receives,
        payments=payments,
        seller_revenue=sum(p for p, r in zip(payments, receives) if r),
    )
