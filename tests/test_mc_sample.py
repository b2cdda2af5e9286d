"""The Monte Carlo sample itself is pinned.

The reports cannot catch a change in the sample: a large-bundle offer is
accepted by every profile, so its CSV reads the same for many samples.
These tests pin the exact floats of multi-batch, partially accepted
estimates.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from bundle_auction_lab import _mc, valuations
from bundle_auction_lab._group_exact import bundle_lines, line_argmaxes
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


@pytest.mark.parametrize("seed", [-1, (3, -1)])
def test_a_negative_seed_component_is_rejected(seed):
    offer = BundleOffer((NO_SALE,) * 2, 1.0)
    with pytest.raises(ValueError, match=(
            "^seed components must be nonnegative integers$")):
        revenue_stats([make_uniform(1.0)] * 2, offer, 1000, seed)


def test_the_sample_depends_on_the_batch_size(monkeypatch):
    dists = [make_uniform(1.0)] * 50
    offer = BundleOffer((NO_SALE,) * 50, 25.0)
    default = revenue_stats(dists, offer, 5000, 3).mean
    monkeypatch.setattr(_mc, "BATCH_ELEMENTS", 1 << 12)
    assert default == 12.475
    assert revenue_stats(dists, offer, 5000, 3).mean == 12.34


BLOCK = valuations._BLOCK


def _quantile_reference(d, u):
    """The sampler's formula over the whole array at once, with no blocks
    and no ``out=``: ``knot + min(2 du / (d + sqrt(d d + 2 s du)), w)``."""
    if d._slopes.size == 1 and d._slopes[0] == 0.0:
        return np.minimum(u / d._dens[0], d.upper_bound)
    idx = np.zeros(u.shape, dtype=np.intp)
    for knot in d._cum[1:-1]:
        idx += u >= knot

    def at(table):
        return np.take(table, idx, mode="clip")

    dens = d._dens[:-1]
    du = np.maximum(u - at(d._cum), 0.0)
    t = 2.0 * du / (at(dens) + np.sqrt(at(dens * dens) + at(2.0 * d._slopes)
                                       * du))
    return at(d._knots) + np.minimum(t, at(d._widths))


def _uniforms(shape, seed):
    """Uniform draws with 0, the CDF's interior knots and values next to
    them mixed in."""
    u = np.random.default_rng(seed).random(shape)
    edges = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    for d in DISTS.values():
        for c in d._cum[1:-1]:
            edges += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    flat = u.reshape(-1)
    flat[:len(edges)] = edges[:flat.size]
    return u


class TestSamplerBlocks:
    """The sampler transforms blocks of about ``_BLOCK`` values; every
    value is still the unblocked formula's, to the bit."""

    @pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      3 * BLOCK + 5])
    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_matches_the_unblocked_formula(self, name, size):
        d = DISTS[name]
        u = _uniforms(size, size)
        kept = u.copy()
        want = _quantile_reference(d, u).tobytes()
        assert d._quantile_array(u).tobytes() == want
        other = np.full_like(u, np.nan)
        assert d._quantile_array(u, out=other) is other
        assert other.tobytes() == want
        assert u.tobytes() == kept.tobytes()
        assert d._quantile_array(u, out=u) is u
        assert u.tobytes() == want

    @pytest.mark.parametrize("shape", [(BLOCK // 3 + 1, 3), (5, 3000),
                                       (2, BLOCK + 3), (BLOCK, 1)])
    @pytest.mark.parametrize("name", sorted(DISTS))
    def test_two_dimensional_and_strided_input(self, name, shape):
        d = DISTS[name]
        u = _uniforms(shape, 1)
        want = _quantile_reference(d, u).tobytes()
        assert d._quantile_array(u).tobytes() == want
        # A strided view transformed in place, as a mixed batch's columns
        # are: the other columns stay as they are.
        wide = np.repeat(u, 2, axis=1)
        view = wide[:, ::2]
        d._quantile_array(view, out=view)
        assert np.ascontiguousarray(view).tobytes() == want
        assert wide[:, 1::2].tobytes() == u.tobytes()

    def test_scalar_quantile(self):
        for d in DISTS.values():
            for q in (0.0, 0.3, 1.0):
                assert d.quantile(q) == float(_quantile_reference(
                    d, np.array([q]))[0])


def _sums_reference(v, prices):
    """Each row's capped sum and solo payments as plain numpy expressions:
    ``sum(axis=1)`` from 8 customers on, running column totals below."""
    sells = any(a is not None for a in prices)
    if v.shape[1] >= 8:
        a = np.array([np.inf if p is None else p for p in prices])
        if not sells:
            return v.sum(axis=1), None
        return (np.minimum(v, a).sum(axis=1),
                np.where((v >= a) & np.isfinite(a), a, 0.0).sum(axis=1))
    cap = np.zeros(len(v))
    solo = np.zeros(len(v)) if sells else None
    for column, a in zip(v.T, prices):
        if a is None:
            cap += column
            continue
        cap += np.minimum(column, a)
        solo += (column >= a) * a
    return cap, solo


def _score_reference(v, bounds, prices, b):
    """``revenue_stats``: ``np.where`` revenues reduced batch by batch."""
    cap, solo = _sums_reference(v, prices)
    total = total_sq = 0.0
    accepted = 0
    for lo, hi in zip(bounds, bounds[1:]):
        accept = cap[lo:hi] >= b
        rev = np.where(accept, b, 0.0 if solo is None else solo[lo:hi])
        d = rev - b
        total += float(rev.sum())
        total_sq += float((d * d).sum())
        accepted += int(accept.sum())
    rows = len(v)
    mean = total / rows
    var = max(0.0, (total_sq - rows * (mean - b) ** 2) / (rows - 1))
    return mean, float(np.sqrt(var / rows)), accepted / rows


def _hex(values):
    return tuple(float(v).hex() for v in values)


class TestHeldSampleBits:
    """Streamed estimates of one held seed, called in turn, give the floats
    of the plain numpy expressions on the sample's batches: the in-place
    passes over each batch change no bit."""

    @pytest.mark.parametrize("batch_elements", [1 << 21, 1 << 12])
    @pytest.mark.parametrize("n", [3, 8])
    def test_calls_in_turn_match_plain_numpy(self, monkeypatch, n,
                                             batch_elements):
        monkeypatch.setattr(_mc, "BATCH_ELEMENTS", batch_elements)
        dists = ([DISTS[k] for k in ("template", "ramp", "uniform_1")]
                 * 3)[:n]
        rows, seed = 3000, (n, 9)
        batches = list(_mc._batches(dists, rows, seed))
        assert (len(batches) == 1) == (batch_elements == 1 << 21)
        v = np.concatenate(batches)
        bounds = np.cumsum([0] + [len(batch) for batch in batches]).tolist()
        # Prices and bundle prices taken from the sample, so rows tie with
        # them.
        first = [NO_SALE, float(v[5, 1])] + [0.4] * (n - 2)
        second = [float(v[7, 0])] + [NO_SALE] * (n - 1)
        third = [0.2] * n
        plain = [NO_SALE] * n
        b = float(_sums_reference(v, first)[0][11])
        for prices, price in ((first, b), (second, b - 0.1), (third, b),
                              (first, b), (plain, b), (third, 0.0),
                              (second, b)):
            stats = revenue_stats(dists, BundleOffer(tuple(prices), price),
                                  rows, seed)
            got = (stats.mean, stats.std_error, stats.accept_prob)
            want = _score_reference(v, bounds, prices, price)
            assert _hex(got) == _hex(want), (prices, price)
        assert (valuation_sums(dists, rows, seed).tobytes()
                == _sums_reference(v, plain)[0].tobytes())


def _peak_bytes(call):
    """Peak traced allocation of ``call()`` after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """Scratch does not grow with the sample: the sampler's is a few
    blocks, and an exact revenue line holds no sample at all."""

    def test_solo_line_allocates_little(self):
        # A solo price's revenue line is exact and holds no sample: a few
        # dozen pieces, not the columns of a 20,000-row sample.
        rows = 20_000
        for prices in ([0.5], [0.7]):
            peak = _peak_bytes(lambda: line_argmaxes(
                bundle_lines([(DISTS["template"], 3)], [prices])))
            assert peak <= rows * 8 // 2

    @pytest.mark.parametrize("name", ["ramp", "template"])
    def test_sampler_scratch_is_a_few_blocks(self, name):
        # Three scratch blocks, a comparison's bools and numpy's buffer
        # for adding them to the segment index, whatever the size of u.
        d = DISTS[name]
        peaks = []
        for size in (4 * BLOCK, 40 * BLOCK + 3):
            u0 = _uniforms(size, 2)
            u = u0.copy()

            def transform():
                np.copyto(u, u0)
                d._quantile_array(u, out=u)

            peaks.append(_peak_bytes(transform))
        assert peaks[0] == peaks[1] <= 5 * BLOCK * 8
