"""Customer valuation distributions on a bounded support.

Valuations live on ``[0, M]`` and are described by a strictly positive
density that interpolates linearly between knots.  This family is closed
under everything the revenue computations need: the CDF is piecewise
quadratic with a closed form, the first moment is exact, density bounds are
attained at knots (so smoothness validation is a finite check), and the CDF
is strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NORMALIZATION_TOL",
    "ValuationDistribution",
    "SmoothnessReport",
    "make_uniform",
    "make_piecewise_linear",
    "validate_smoothness",
]

NORMALIZATION_TOL = 1e-9

#: Taylor coefficients ``(-1)^k / (k! (j + k + 1))`` of
#: ``A_j(x) = int_0^1 u^j e^{-x u} du`` for j = 1, 2, 3, highest power
#: first; below ``x = 1/2`` the omitted terms are under 1e-20 of ``A_j``.
_A_SERIES = tuple(
    tuple((-1) ** k / (math.factorial(k) * (j + k + 1))
          for k in reversed(range(18)))
    for j in (1, 2, 3)
)


def _segment_averages(x: float) -> list[float]:
    """``[A_0(x), A_1(x), A_2(x), A_3(x)]`` for ``x > 0``: Taylor series
    below ``x = 1/2``, where the closed forms cancel, and above it
    ``A_j = (j A_{j-1} - e^-x) / x`` (2e-14 relative at j = 3)."""
    out = [-math.expm1(-x) / x]
    if x < 0.5:
        for coeffs in _A_SERIES:
            a = 0.0
            for c in coeffs:
                a = a * x + c
            out.append(a)
    else:
        e = math.exp(-x)
        out.append((-math.expm1(-x) - x * e) / (x * x))
        for j in (2, 3):
            out.append((j * out[-1] - e) / x)
    return out


def _check_knots(ks: np.ndarray, ds: np.ndarray) -> None:
    """The structural requirements on knot and density arrays, shared by the
    constructor and :func:`make_piecewise_linear` (which must check them
    before it can normalize)."""
    if ks.ndim != 1 or ks.size < 2:
        raise ValueError("need at least two knots")
    if ds.shape != ks.shape:
        raise ValueError("knots and densities must have equal length")
    if not (np.all(np.isfinite(ks)) and np.all(np.isfinite(ds))):
        raise ValueError("knots and densities must be finite")
    if ks[0] != 0.0:
        raise ValueError("first knot must be 0")
    if np.any(np.diff(ks) <= 0.0):
        raise ValueError("knots must be strictly ascending")
    if np.any(ds <= 0.0):
        raise ValueError("densities must be strictly positive")


@dataclass(frozen=True)
class ValuationDistribution:
    """Bounded-support distribution with a piecewise-linear density.

    ``densities[i]`` is the density value at ``knots[i]``; between
    consecutive knots the density is the linear interpolant.  Knots must be
    finite, strictly ascending and start at 0, and the last knot is the
    upper bound ``M`` of the support; all density values must be strictly
    positive; and the density must integrate to 1 over the support (within
    ``NORMALIZATION_TOL``).  Instances are immutable and all evaluation
    methods are pure, so they are safe to share across threads.  The mean,
    computed in units of the power of two at or below ``M``, scales exactly
    with the knots; the slopes, stored in units of ``M^-2``, leave the
    normal floats beyond about ``M = 2^±511``.

    Use :func:`make_uniform` / :func:`make_piecewise_linear` rather than the
    constructor when the density still needs normalizing.
    """

    knots: tuple[float, ...]
    densities: tuple[float, ...]

    # Evaluation caches derived once from the validated fields.
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _dens: np.ndarray = field(init=False, repr=False, compare=False)
    _widths: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _mean: float = field(init=False, repr=False, compare=False)
    #: ``(k0, w, d0, s)`` per segment as Python floats for the scalar
    #: transforms, where numpy's per-call overhead would dominate.
    _segs: tuple = field(init=False, repr=False, compare=False)

    # A placeholder that nothing here calls: bench/tracer.py swaps this name
    # in and out, and tests/test_bench_contract.py pins that it exists.
    _quantile_array = None

    def __post_init__(self) -> None:
        ks = np.asarray(self.knots, dtype=float)
        ds = np.asarray(self.densities, dtype=float)
        _check_knots(ks, ds)

        widths = np.diff(ks)
        seg = 0.5 * (ds[:-1] + ds[1:]) * widths
        total = float(seg.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"density integrates to {total!r}, not 1 "
                f"(outside tolerance {NORMALIZATION_TOL})"
            )
        # Pin the CDF to exactly 1.0 at the upper bound: divide the cached
        # density by the cumulative total so cum[-1] == 1.0 in floats.  The
        # adjustment is within NORMALIZATION_TOL of a no-op.
        ds = ds / total
        seg = seg / total
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        ds = ds / cum[-1]
        cum = cum / cum[-1]
        slopes = np.diff(ds) / widths

        # First moment in units of 2^e: on a segment v = k0 + t, f = d0 + s t.
        e = math.frexp(self.upper_bound)[1] - 1
        k0, d0 = ks[:-1], ds[:-1]
        k, w, d = np.ldexp(k0, -e), np.ldexp(widths, -e), np.ldexp(d0, e)
        s = np.ldexp(slopes, 2 * e)
        m_seg = k * d * w + (k * s + d) * w**2 / 2.0 + s * w**3 / 3.0

        object.__setattr__(self, "_knots", ks)
        object.__setattr__(self, "_dens", ds)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_mean", math.ldexp(float(m_seg.sum()), e))
        object.__setattr__(self, "_segs", tuple(zip(
            k0.tolist(), widths.tolist(), d0.tolist(), slopes.tolist())))

    @property
    def upper_bound(self) -> float:
        """``M``, the last knot: the support is ``[0, M]``."""
        return self.knots[-1]

    @property
    def mean(self) -> float:
        """Exact first moment of the distribution."""
        return self._mean

    def _segment_index(self, arr: np.ndarray):
        """The segment of each value: the count of interior knots at or
        below it, so below 0 is segment 0 and from M on (NaN included, which
        sorts last) the last one, as a search of all knots clipped to the
        segments gives.  A one-segment law returns 0 and does no search."""
        if self._slopes.size == 1:
            return 0
        return np.searchsorted(self._knots[1:-1], arr, side="right")

    def pdf(self, v):
        """Density at ``v`` (scalar or array); 0 outside ``[0, M]``."""
        arr = np.asarray(v, dtype=float)
        idx = self._segment_index(arr)
        # Clipped, so a zero slope never meets an infinite offset.
        t = np.clip(arr, 0.0, self.upper_bound)
        t -= self._knots[idx]
        out = self._dens[idx] + self._slopes[idx] * t
        out = np.where((arr < 0.0) | (arr > self.upper_bound), 0.0, out)
        return float(out) if np.ndim(v) == 0 else out

    def cdf(self, v):
        """Exact CDF at ``v`` (scalar or array): 0 below 0, 1 above M.

        The CDF is the analytic integral of the piecewise-linear density,
        hence piecewise quadratic.
        """
        arr = np.asarray(v, dtype=float)
        idx = self._segment_index(arr)
        t = np.clip(arr, 0.0, self.upper_bound)
        t -= self._knots[idx]
        out = self._cum[idx] + (self._dens[idx] + 0.5 * self._slopes[idx] * t) * t
        out = np.where(arr <= 0.0, 0.0, np.where(arr >= self.upper_bound, 1.0, out))
        return float(out) if np.ndim(v) == 0 else out

    def log_laplace(self, theta: float) -> float:
        """``log E[exp(-theta V)]`` for ``theta > 0``, in closed form.

        On a segment ``[k0, k0 + w]`` with density ``d0 + s t`` the integral
        of ``f(v) e^{-theta v}`` is
        ``e^{-theta k0} w (d0 A_0(x) + s w A_1(x))`` with ``x = theta w``
        and the averages ``A_j(x)`` of ``u^j e^{-x u}`` over ``u`` in
        ``[0, 1]`` (:func:`_segment_averages`), so the bracket is the
        average of the positive ``f(k0 + w u) e^{-x u}`` and does not
        cancel.  The segments are combined by a log-sum-exp, so large
        ``theta`` does not underflow.
        """
        return self._tilted(theta)[0]

    def tilted_moments(self, theta: float) -> tuple[float, float]:
        """Mean and variance of the law ``f(v) e^{-theta v} / E
        e^{-theta V}``, ``theta > 0``: ``-d/dtheta`` and ``d^2/dtheta^2``
        of :meth:`log_laplace`, in closed form.

        On a segment, ``u = (v - k0) / w`` has moments
        ``(d0 A_j + s w A_{j+1}) / (d0 A_0 + s w A_1)``, ratios of positive
        averages; the segments mix with :meth:`log_laplace`'s weights.
        """
        return self._tilted(theta)[1:]

    def _tilted(self, theta: float) -> tuple[float, float, float]:
        """:meth:`log_laplace` and :meth:`tilted_moments` in one pass over
        the segments."""
        if not theta > 0.0:
            raise ValueError("theta must be positive")
        logs, means, variances = [], [], []
        for k0, w, d0, s in self._segs:
            a0, a1, a2, a3 = _segment_averages(theta * w)
            sw = s * w
            z = d0 * a0 + sw * a1
            r1 = (d0 * a1 + sw * a2) / z
            r2 = (d0 * a2 + sw * a3) / z
            logs.append(math.log(w * z) - theta * k0)
            means.append(k0 + w * r1)
            # Past theta w of about 1e102, A_2 and A_3 underflow to 0 before
            # A_1 does, which would leave this below 0.
            variances.append(w * w * max(r2 - r1 * r1, 0.0))
        top = max(logs)
        weights = [math.exp(t - top) for t in logs]
        total = sum(weights)
        mean = sum(p * m for p, m in zip(weights, means)) / total
        try:
            variance = sum(p * (v + (m - mean) ** 2) for p, m, v in
                           zip(weights, means, variances)) / total
        except OverflowError:  # beyond about M = 2^512, in absolute units
            variance = math.inf
        return top + math.log(total), mean, variance


@dataclass(frozen=True)
class SmoothnessReport:
    """Result of checking the density-bound hypotheses for a given delta.

    ``passes`` is true iff ``violations`` is empty.
    """

    passes: bool
    min_density: float
    max_density: float
    delta_used: float
    violations: tuple[str, ...]


def make_uniform(upper_bound: float) -> ValuationDistribution:
    """Uniform distribution on ``[0, M]``: constant density 1/M."""
    if not (np.isfinite(upper_bound) and upper_bound > 0):
        raise ValueError("upper bound must be positive and finite")
    m = float(upper_bound)
    return ValuationDistribution((0.0, m), (1.0 / m, 1.0 / m))


def make_piecewise_linear(knots, densities) -> ValuationDistribution:
    """Build a distribution from raw knot/density lists, normalizing.

    The densities are multiplied by the reciprocal of their integral, so
    the total is 1 to rounding.  Structural requirements (finite ascending
    knots starting at 0, strictly positive densities) are enforced; the
    upper bound is the last knot.
    """
    ks = tuple(float(k) for k in knots)
    ds = tuple(float(d) for d in densities)
    _check_knots(np.array(ks), np.array(ds))
    total = sum(
        0.5 * (d0 + d1) * (k1 - k0)
        for k0, k1, d0, d1 in zip(ks[:-1], ks[1:], ds[:-1], ds[1:])
    )
    scale = 1.0 / total
    return ValuationDistribution(ks, tuple(d * scale for d in ds))


def validate_smoothness(dist: ValuationDistribution, delta: float) -> SmoothnessReport:
    """Check the density-bound hypotheses ``delta < f < 1/delta`` on [0, M].

    The representation already guarantees a non-atomic distribution with a
    density supported on a bounded interval, so only the two-sided density
    bound can fail.  By linearity the extrema of the density are attained at
    knots, so min/max over knot values is an exact check.  ``delta`` is an
    external hypothesis, not a property stored with the distribution.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    min_density = float(dist._dens.min())
    max_density = float(dist._dens.max())
    violations: list[str] = []
    if min_density <= delta:
        violations.append(
            f"min density {min_density:.6g} <= delta {delta:.6g} "
            f"(need delta < f everywhere on [0, M])"
        )
    upper = 1.0 / delta
    if max_density >= upper:
        violations.append(
            f"max density {max_density:.6g} >= 1/delta {upper:.6g} "
            f"(need f < 1/delta everywhere on [0, M])"
        )
    return SmoothnessReport(
        passes=not violations,
        min_density=min_density,
        max_density=max_density,
        delta_used=float(delta),
        violations=tuple(violations),
    )
