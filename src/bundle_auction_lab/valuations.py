"""Customer valuation distributions on a bounded support.

Valuations live on ``[0, M]`` and are described by a strictly positive
density that interpolates linearly between knots.  This family is closed
under everything the revenue computations need: the CDF is piecewise
quadratic with a closed form, the first moment is exact, density bounds are
attained at knots (so smoothness validation is a finite check), and the CDF
is strictly increasing, which makes inverse-CDF sampling well posed.
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
    "sample_one",
    "sample",
]

NORMALIZATION_TOL = 1e-9

#: Values per block of the sampler's and ``_mc``'s scratch (64 KiB).
_BLOCK = 1 << 13

#: Taylor coefficients ``(-1)^k / (k! (j + k + 1))`` of
#: ``A_j(x) = int_0^1 u^j e^{-x u} du`` for j = 1, 2, 3, highest power
#: first; below ``x = 1/2`` the omitted terms are under 1e-20 of ``A_j``.
_A_SERIES = tuple(
    tuple((-1) ** k / (math.factorial(k) * (j + k + 1))
          for k in reversed(range(18)))
    for j in (1, 2, 3)
)


def _segment_averages(x: float, count: int) -> list[float]:
    """``[A_0(x), ..., A_{count-1}(x)]`` for ``x > 0``, ``count <= 4``:
    Taylor series below ``x = 1/2``, where the closed forms cancel, and
    above it ``A_j = (j A_{j-1} - e^-x) / x`` (2e-14 relative at j = 3)."""
    out = [-math.expm1(-x) / x]
    if x < 0.5:
        for coeffs in _A_SERIES[:count - 1]:
            a = 0.0
            for c in coeffs:
                a = a * x + c
            out.append(a)
    elif count > 1:
        e = math.exp(-x)
        out.append((-math.expm1(-x) - x * e) / (x * x))
        for j in range(2, count):
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
    strictly ascending, start at 0, and end at ``upper_bound``; all density
    values must be strictly positive; and the density must integrate to 1
    over the support (within ``NORMALIZATION_TOL``).  Instances are immutable
    and all evaluation methods are pure, so they are safe to share across
    threads.

    Use :func:`make_uniform` / :func:`make_piecewise_linear` rather than the
    constructor when the density still needs normalizing.
    """

    upper_bound: float
    knots: tuple[float, ...]
    densities: tuple[float, ...]
    #: rescale factor applied by :func:`make_piecewise_linear` (1.0 when the
    #: input was already normalized); informational, ignored by equality.
    norm_factor: float = field(default=1.0, compare=False)

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

    def __post_init__(self) -> None:
        ks = np.asarray(self.knots, dtype=float)
        ds = np.asarray(self.densities, dtype=float)
        if not (np.isfinite(self.upper_bound) and self.upper_bound > 0):
            raise ValueError("upper bound must be positive and finite")
        _check_knots(ks, ds)
        if ks[-1] != self.upper_bound:
            raise ValueError("last knot must equal the upper bound")

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

        # First moment: on each segment v = k0 + t, f(v) = d0 + s*t.
        k0, d0 = ks[:-1], ds[:-1]
        m_seg = (
            k0 * d0 * widths
            + (k0 * slopes + d0) * widths**2 / 2.0
            + slopes * widths**3 / 3.0
        )

        object.__setattr__(self, "_knots", ks)
        object.__setattr__(self, "_dens", ds)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_mean", float(m_seg.sum()))
        object.__setattr__(self, "_segs", tuple(zip(
            k0.tolist(), widths.tolist(), d0.tolist(), slopes.tolist())))

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
            a0, a1, a2, a3 = _segment_averages(theta * w, 4)
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
        variance = sum(p * (v + (m - mean) ** 2)
                       for p, m, v in zip(weights, means, variances)) / total
        return top + math.log(total), mean, variance

    def quantile(self, u: float) -> float:
        """The unique ``x`` with ``cdf(x) = u``.

        The CDF is strictly increasing (densities are positive), so the root
        is unique; it is the closed-form segment solve of
        :meth:`_quantile_array` on a single probability.
        """
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        return float(self._quantile_array(np.float64(u)))

    def _quantile_array(self, u: np.ndarray, out: np.ndarray | None = None
                        ) -> np.ndarray:
        """Closed-form inverse CDF for arrays of probabilities.

        Solves the segment quadratic ``cum[j] + d*t + s*t^2/2 = u`` in the
        stable form ``t = 2 du / (d + sqrt(d*d + 2 s du))``,
        ``du = u - cum[j]``, for :meth:`quantile` and the samplers.  The
        result goes to ``out``, which may be ``u`` (the sampler works in
        place), or to a new array; ``u`` is written only if it is ``out``.
        Each step is one in-place pass in the formula's order, so the
        values are the formula's, term by term.  A uniform density is
        exactly ``u / d`` (``sqrt(d*d) == d``); any other, a one-segment
        ramp included, takes the general passes.  These run over blocks of
        rows, about ``_BLOCK`` values, reusing one block of scratch, so a
        call allocates a few blocks whatever the size of ``u``; no value
        depends on the blocks.
        """
        u = np.asarray(u, dtype=float)
        result = np.empty_like(u) if out is None else out
        # Passes with out= need arrays (ufuncs return scalars for 0-d input).
        u, out = np.atleast_1d(u, result)
        if self._slopes.size == 1 and self._slopes[0] == 0.0:
            np.divide(u, self._dens[0], out=out)
            np.minimum(out, self.upper_bound, out=out)
            return result
        rows = len(u)
        step = max(1, _BLOCK * rows // max(1, u.size))
        # The segment index, and two floats: 2*du, 2*s*du and d*d are live
        # at once.
        shape = (min(step, rows),) + u.shape[1:]
        idx_block = np.empty(shape, dtype=np.intp)
        a_block, b_block = np.empty((2,) + shape)
        # Gathering d*d and 2*s gives the floats of squaring and doubling
        # the gathered d and s.
        dens = self._dens[:-1]
        dens_sq, slopes_2 = dens * dens, 2.0 * self._slopes
        for lo in range(0, rows, step):
            ub, ob = u[lo:lo + step], out[lo:lo + step]
            m = len(ub)
            idx, a, b = idx_block[:m], a_block[:m], b_block[:m]
            # searchsorted(cum, u, "right") - 1, clipped to the last
            # segment, by a few comparisons, which cost less.
            idx.fill(0)
            for knot in self._cum[1:-1]:
                idx += ub >= knot
            np.take(self._cum, idx, out=a, mode="clip")
            np.subtract(ub, a, out=a)
            np.maximum(a, 0.0, out=a)  # du; u is not read after this
            np.take(slopes_2, idx, out=b, mode="clip")
            np.multiply(b, a, out=b)  # 2 s du
            np.multiply(a, 2.0, out=ob)  # 2 du
            np.take(dens_sq, idx, out=a, mode="clip")
            np.add(a, b, out=a)
            np.sqrt(a, out=a)
            np.take(dens, idx, out=b, mode="clip")
            np.add(b, a, out=a)  # d + disc
            np.divide(ob, a, out=ob)  # t
            np.take(self._widths, idx, out=a, mode="clip")
            np.minimum(ob, a, out=ob)
            np.take(self._knots, idx, out=a, mode="clip")
            np.add(a, ob, out=ob)
        return result


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
    return ValuationDistribution(m, (0.0, m), (1.0 / m, 1.0 / m))


def make_piecewise_linear(knots, densities, upper_bound: float | None = None
                          ) -> ValuationDistribution:
    """Build a distribution from raw knot/density lists, normalizing.

    The densities are rescaled so the total integral is exactly 1; the
    applied factor is surfaced as ``norm_factor`` on the result.  Structural
    requirements (ascending knots starting at 0, strictly positive
    densities) are enforced; if ``upper_bound`` is given it must equal the
    last knot.
    """
    ks = tuple(float(k) for k in knots)
    ds = tuple(float(d) for d in densities)
    _check_knots(np.array(ks), np.array(ds))
    m = ks[-1]
    if upper_bound is not None and float(upper_bound) != m:
        raise ValueError("upper_bound must equal the last knot")
    total = sum(
        0.5 * (d0 + d1) * (k1 - k0)
        for k0, k1, d0, d1 in zip(ks[:-1], ks[1:], ds[:-1], ds[1:])
    )
    scale = 1.0 / total
    return ValuationDistribution(
        m, ks, tuple(d * scale for d in ds), norm_factor=scale
    )


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


def sample_one(dist: ValuationDistribution, rng: np.random.Generator) -> float:
    """Draw one valuation by inverse-CDF sampling from an explicit RNG."""
    return dist.quantile(float(rng.random()))


def sample(dist: ValuationDistribution, size, rng: np.random.Generator) -> np.ndarray:
    """Draw many valuations at once (closed-form inverse CDF).

    Matches :func:`sample_one` draw for draw on the same RNG stream: both
    invert the CDF by the same closed-form segment solve.
    """
    u = np.asarray(rng.random(size))  # 0-d when size is None
    return dist._quantile_array(u, out=u)
