"""The Monte Carlo sample of ``tests/oracles.py`` is pinned and checked.

Every exact-vs-MC test rests on :func:`oracles.mc_profiles`' sample and
:func:`oracles.mc_score`'s reduction of it.  These tests pin the floats of
large, partially accepted estimates, check the sampler's inverse CDF
against a second way of writing it, and check the score against plain
numpy reductions of the same profiles.
"""

import hashlib

import numpy as np
import pytest

from bundle_auction_lab.bundles import NO_SALE, BundleOffer
from bundle_auction_lab.valuations import make_piecewise_linear, make_uniform

from oracles import (mc_profiles, mc_revenue, mc_score, quantile_by_counting,
                     quantile_rationalized)

N = 1000
SAMPLES = 2000
SEED = (5, 1000)

DISTS = {
    "uniform_1": make_uniform(1.0),
    "uniform_0_3": make_uniform(0.3),
    # configs/single_opt_uniform.json's 2-knot linear density.
    "ramp": make_piecewise_linear((0.0, 1.0), (0.5, 1.5)),
    # The partition benchmark's 3-knot template.
    "template": make_piecewise_linear((0.0, 0.4, 1.0), (0.6, 1.6, 0.8)),
}

# The pinned groups' laws, and two more shapes for the inverse CDF: three
# zero-slope segments, and a 4-knot law with its mass piled near 0.
QUANTILE_DISTS = {
    **DISTS,
    "flat_knots": make_piecewise_linear((0.0, 0.5, 1.5), (1.0, 1.0, 1.0)),
    "skewed": make_piecewise_linear((0.0, 0.15, 0.55, 1.0),
                                    (2.6, 0.3, 0.2, 1.2)),
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
# bytes, first sum, last sum), as the lab's batched estimator gave them
# before the lab stopped sampling.  2,000 profiles of 1,000 customers fit
# in one of its batches of 2**21 values, so the oracle draws the same
# profiles and sums them in the same order.
PINS = {
    "mixed": ("0x1.8c39452beae2dp+8", "0x1.10c46e388cbf9p+1", 0.9385,
              "a6965e37bd51b880", "0x1.b588e163b6f0cp+8",
              "0x1.ac2b936dc9c95p+8"),
    "ramp": ("0x1.280aaaaaaaa98p+8", "0x1.a174ef12d3e94p+2", 0.5075,
             "5ed3dacb3556ad8f", "0x1.2667f6dc5236ap+9",
             "0x1.226e93db802cdp+9"),
    "template": ("0x1.feabd7fb4ab57p+7", "0x1.669e471343c51p+2", 0.5095,
                 "9259537ce0011765", "0x1.fac1f2b4d0320p+8",
                 "0x1.f22f62a4abcb2p+8"),
    "uniform_0_3": ("0x1.32e66666666ccp+6", "0x1.ad519e677e61ep+0", 0.5115,
                    "42a3faa6f27254dc", "0x1.2f6e3fc824738p+7",
                    "0x1.2a6a747ae41c8p+7"),
    "uniform_1": ("0x1.ff80000000000p+7", "0x1.65c40400e94a3p+2", 0.5115,
                  "dabba277e5658908", "0x1.f9b7bfa2e76b2p+8",
                  "0x1.f15c17777c2f7p+8"),
}


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("name", sorted(PINS))
def test_sample_is_pinned(name, calls):
    # The oracle keeps nothing between calls, so a repeated call with the
    # same seed gives the pinned floats again.
    dists, offer = _group(name)
    mean, se, accept, sums_sha, first, last = PINS[name]
    for _ in range(calls):
        got = mc_revenue(dists, offer, SAMPLES, SEED)
        assert got == (float.fromhex(mean), float.fromhex(se), accept)
        sums = mc_profiles(dists, SAMPLES, SEED).sum(axis=1)
        assert hashlib.sha256(sums.tobytes()).hexdigest()[:16] == sums_sha
        assert (sums[0] == float.fromhex(first)
                and sums[-1] == float.fromhex(last))


@pytest.mark.parametrize("seed", [-1, (3, -1)])
def test_a_negative_seed_component_is_rejected(seed):
    with pytest.raises(ValueError):
        mc_profiles([make_uniform(1.0)] * 2, 1000, seed)


def test_an_integer_seed_is_a_one_tuple():
    dists = [DISTS["template"], DISTS["ramp"]]
    one = mc_profiles(dists, 1000, 7)
    assert one.shape == (1000, 2)
    assert one.tobytes() == mc_profiles(dists, 1000, (7,)).tobytes()
    assert one.tobytes() != mc_profiles(dists, 1000, (7, 1)).tobytes()


def _uniforms(shape, seed):
    """Uniform draws with 0, the CDF's interior knots and values next to
    them mixed in."""
    u = np.random.default_rng(seed).random(shape)
    edges = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    for d in QUANTILE_DISTS.values():
        for c in d._cum[1:-1]:
            edges += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    flat = u.reshape(-1)
    flat[:len(edges)] = edges[:flat.size]
    return u


class TestOracleQuantile:
    """The oracle's inverse CDF gives, to the bit, the floats of the same
    solve written with another segment lookup, on any shape and stride,
    and leaves its input as it was."""

    @pytest.mark.parametrize("size", [0, 1, 2, 37, 8191, 24581])
    @pytest.mark.parametrize("name", sorted(QUANTILE_DISTS))
    def test_matches_the_counting_formula(self, name, size):
        d = QUANTILE_DISTS[name]
        u = _uniforms(size, size)
        kept = u.copy()
        got = quantile_rationalized(d, u)
        assert got.tobytes() == quantile_by_counting(d, u).tobytes()
        assert u.tobytes() == kept.tobytes()
        assert np.all((got >= 0.0) & (got <= d.upper_bound))
        # The CDF takes each value back to its probability.
        assert np.allclose(d.cdf(got), u, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2731, 3), (5, 3000), (2, 8195),
                                       (8192, 1)])
    @pytest.mark.parametrize("name", sorted(QUANTILE_DISTS))
    def test_two_dimensional_and_strided_input(self, name, shape):
        d = QUANTILE_DISTS[name]
        u = _uniforms(shape, 1)
        want = quantile_by_counting(d, u).tobytes()
        assert quantile_rationalized(d, u).tobytes() == want
        # A strided view, as mc_profiles reads a column of its matrix.
        wide = np.repeat(u, 2, axis=1)
        view = wide[:, ::2]
        assert quantile_rationalized(d, view).tobytes() == want
        assert wide[:, 1::2].tobytes() == u.tobytes()

    def test_scalar_quantile(self):
        for d in QUANTILE_DISTS.values():
            for q in (0.0, 0.3, 1.0):
                assert float(quantile_rationalized(d, q)) == float(
                    quantile_by_counting(d, np.array([q]))[0])


def _sums_reference(v, prices):
    """Each row's capped sum and solo payments as plain numpy expressions:
    ``sum(axis=1)`` from 8 customers on, running column totals below,
    where numpy adds a row left to right."""
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


def _score_reference(v, prices, b):
    """``np.where`` revenues, with the squared deviations summed about b."""
    cap, solo = _sums_reference(v, prices)
    accept = cap >= b
    rev = np.where(accept, b, 0.0 if solo is None else solo)
    d = rev - b
    rows = len(v)
    mean = float(rev.sum()) / rows
    var = max(0.0, (float((d * d).sum()) - rows * (mean - b) ** 2)
              / (rows - 1))
    return mean, float(np.sqrt(var / rows)), int(accept.sum()) / rows


def _hex(values):
    return tuple(float(v).hex() for v in values)


class TestHeldSampleBits:
    """Estimates of one held seed, scored in turn, give the floats of the
    plain numpy expressions on the sample."""

    @pytest.mark.parametrize("rows", [3000, 1000])
    @pytest.mark.parametrize("n", [3, 8])
    def test_calls_in_turn_match_plain_numpy(self, n, rows):
        dists = ([DISTS[k] for k in ("template", "ramp", "uniform_1")]
                 * 3)[:n]
        seed = (n, 9)
        v = mc_profiles(dists, rows, seed)
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
            offer = BundleOffer(tuple(prices), price)
            want = _hex(_score_reference(v, prices, price))
            assert _hex(mc_revenue(dists, offer, rows, seed)) == want, (
                prices, price)
            assert _hex(mc_score(v, offer)) == want
        assert (mc_profiles(dists, rows, seed).sum(axis=1).tobytes()
                == _sums_reference(v, plain)[0].tobytes())
