"""The Monte Carlo sample itself is pinned.

The reports cannot catch a change in the sample: a large-bundle offer is
accepted by every profile, so its CSV reads the same for many samples.
These tests pin the exact floats of multi-batch, partially accepted
estimates.
"""

import hashlib

import pytest

from bundle_auction_lab import _mc
from bundle_auction_lab._mc import revenue_stats, valuation_sums
from bundle_auction_lab.bundles import NO_SALE, BundleOffer
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

N = 1000
SAMPLES = 20_000
SEED = (5, 1000)

DISTS = {
    "uniform_1": make_uniform(1.0),
    "uniform_0_3": make_uniform(0.3),
    # configs/single_opt_uniform.json's 2-knot linear density.
    "ramp": make_piecewise_linear((0.0, 1.0), (0.5, 1.5)),
    # The partition benchmark's 3-knot template.
    "template": make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
}


def _group(name):
    """``(dists, offer)``: a pure bundle at b = mu for one distribution, or
    a mixed group with solo prices on every third customer."""
    if name in DISTS:
        dists = [DISTS[name]] * N
        return dists, BundleOffer((NO_SALE,) * N, sum(d.mean for d in dists))
    dists = [DISTS[k] for k in ("uniform_1", "uniform_0_3", "ramp",
                                "template")] * (N // 4)
    prices = tuple(0.9 * d.upper_bound if i % 3 == 0 else NO_SALE
                   for i, d in enumerate(dists))
    return dists, BundleOffer(prices, 0.97 * sum(d.mean for d in dists))


# name: (mean, std_error, accept_prob, sha256[:16] of the valuation sums'
# bytes, first sum, last sum), recorded before the sampler worked in place.
PINS = {
    "uniform_1": ("0x1.f773333333333p+7", "0x1.c48c83736d682p+0", 0.50345,
                  "da12c15adc557c11", "0x1.f9b7bfa2e76b2p+8",
                  "0x1.02c9b1d524639p+9"),
    "uniform_0_3": ("0x1.2e11eb851ebe8p+6", "0x1.0f8782120e774p-1", 0.50345,
                    "33467f3f5a0ff318", "0x1.2f6e3fc824738p+7",
                    "0x1.368ba232f8778p+7"),
    "ramp": ("0x1.2511111111100p+8", "0x1.07fd768f6a82cp+1", 0.5024,
             "58935989e74d9379", "0x1.2667f6dc5236ap+9",
             "0x1.2b78e2b2f7592p+9"),
    "template": ("0x1.f874feb48dae6p+7", "0x1.c59713850b32cp+0", 0.5033,
                 "f8f4fa12d4e9cced", "0x1.fac1f2b4d0320p+8",
                 "0x1.0263dd68f05b2p+9"),
    "mixed": ("0x1.8b7772e32ec7ap+8", "0x1.5dee59f50174ap-1", 0.9366,
              "c24a196c93d100ab", "0x1.b588e163b6f0cp+8",
              "0x1.bf83ece79e4bep+8"),
}


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("name", sorted(PINS))
def test_sample_is_pinned(name, calls):
    # Ten batches: nine of 2,097 rows and one of 1,127.  The sampler draws
    # into fresh buffers and keeps nothing between calls, so a repeated
    # call with the same seed gives the pinned floats again.
    dists, offer = _group(name)
    mean, se, accept, sums_sha, first, last = PINS[name]
    for _ in range(calls):
        stats = revenue_stats(dists, offer, SAMPLES, SEED)
        assert stats.mean == float.fromhex(mean)
        assert stats.std_error == float.fromhex(se)
        assert stats.accept_prob == accept
        sums = valuation_sums(dists, SAMPLES, SEED)
        assert hashlib.sha256(sums.tobytes()).hexdigest()[:16] == sums_sha
        assert (sums[0] == float.fromhex(first)
                and sums[-1] == float.fromhex(last))


def test_the_sample_depends_on_the_batch_size(monkeypatch):
    dists = [make_uniform(1.0)] * 50
    offer = BundleOffer((NO_SALE,) * 50, 25.0)
    default = revenue_stats(dists, offer, 5000, 3).mean
    monkeypatch.setattr(_mc, "BATCH_ELEMENTS", 1 << 12)
    assert default == 12.475
    assert revenue_stats(dists, offer, 5000, 3).mean == 12.34
