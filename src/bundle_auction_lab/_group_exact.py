"""Exact revenue of offers to a group of classes of i.i.d. customers, many
offers at once.

A group is given as classes ``(dist, count)``, with one solo price ``a``
per class.  A customer's capped value ``min(V, a)`` has density ``f`` on
``[0, a)`` and an atom ``q = 1 - F(a)`` at ``a`` (``NO_SALE``, or ``a >=
M``, leaves ``V``), and the capped sum ``S`` of the group is built by
convolving the capped laws of its members in turn, class by class.  A law
is held in the local basis: breaks, and on each piece a polynomial in ``u
= x - lo`` about the piece's own left end, so a shift only moves the
breaks.  Writing a capped density ``f 1[0, a) = sum_i v_i [x >= s_i] +
w_i (x - s_i)_+`` over its breaks ``s_i``, the density of a sum ``S'``
plus that member is ``sum_i v_i H(x - s_i) + w_i K(x - s_i) + q h(x -
a)``, from ``S'``'s density ``h``, its CDF ``H`` and ``K = int H``.  Each
shifted term is looked up on the merged breaks by each interval's midpoint
(sums of breaks equal in exact arithmetic can differ by an ulp, and a
lookup by the left end then takes the piece before) and Taylor-shifted to
the interval's left end.  Every array carries one line per offer, so a
grid of offers costs the numpy calls of one.

An offer earns ``R(b) = b P[S >= b] + sum_c count_c a_c q_c P[a_c + S_c <
b]``, where ``S_c`` leaves out one member of class c: for the last class
the sum before its last convolution, for the others a sum of its own.
``R`` is piecewise polynomial in ``b`` on the breaks of ``S`` and
continuous from the left: ties buy, and the last break is the all-capped
atom at the float sum of the caps, added left to right class by class as
:func:`~bundle_auction_lab.bundles.resolve_outcome` adds them when each
class's customers are adjacent.  Past it the bundle never sells and ``R =
sum_c count_c a_c q_c``.
"""

from __future__ import annotations

import math

import numpy as np

from .valuations import ValuationDistribution

#: The largest group the engine takes (pieces of degree 24).
MAX_GROUP = 12

_COLUMNS = 2 * MAX_GROUP + 3
_POWERS = np.arange(_COLUMNS)
_INVERSE = 1.0 / np.arange(1, _COLUMNS + 1)
_BINOM = np.array([[math.comb(m, k) for k in range(_COLUMNS)]
                   for m in range(_COLUMNS)], dtype=float)


def _powers(t: np.ndarray, d: int) -> np.ndarray:
    """``t[..., None] ** arange(d)`` by running products, which cost far
    less than ``np.power`` and round within ``d`` ulps."""
    out = np.empty(t.shape + (d,), dtype=t.dtype)
    out[..., 0] = 1.0
    out[..., 1:] = t[..., None]
    return np.cumprod(out, axis=-1, out=out)


def _taylor(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``c(u + delta)`` as coefficients in ``u``, for rows ``c`` (lowest
    degree first) and one shift per row: ``delta^-k (B^T (c_m
    delta^m))_k`` with the binomial matrix ``B``, which rounds as the
    direct sums do.  Below ``1e-10``, where that could underflow, the
    first-order shift is exact to rounding."""
    d = c.shape[-1]
    tiny = np.abs(delta) < 1e-10
    power = _powers(np.where(tiny, 1.0, delta), d)
    shifted = (c * power) @ _BINOM[:d, :d] / power
    if tiny.any():
        first = c[tiny]
        first[:, :-1] += delta[tiny, None] * first[:, 1:] * _POWERS[1:d]
        shifted[tiny] = first
    return shifted


def _count(x: np.ndarray, t: np.ndarray, strict: bool = False) -> np.ndarray:
    """``np.searchsorted(x[g], t[g], "left" if strict else "right")`` for
    every row ``g`` at once."""
    flat = t.reshape(len(x), -1, 1)
    below = x[:, None, :] < flat if strict else x[:, None, :] <= flat
    return below.sum(axis=-1).reshape(t.shape)


def _step(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The density pieces ``h`` on the breaks ``x``, its CDF and the CDF's
    integral, as :func:`_shifted` reads them: ``(3, lines, pieces + 2,
    degree + 3)``.  Below 0 all three are 0; from the last break on the
    density is 0, the CDF 1 and its integral rises with slope 1."""
    g, p, d = h.shape
    x = x.astype(h.dtype, copy=False)
    width = _powers(x[:, 1:] - x[:, :-1], d + 2)[..., 1:]
    tables = np.zeros((3, g, p + 2, d + 2), dtype=h.dtype)
    h_rows, cdf, second = tables[:, :, 1:-1]
    h_rows[..., :d] = h
    cdf[..., 1:-1] = h * _INVERSE[:d]
    second[..., 2:] = cdf[..., 1:-1] * _INVERSE[1:d + 1]
    total = np.cumsum((cdf[..., 1:] * width).sum(axis=-1), axis=1)
    cdf[:, 1:, 0] = second[:, 1:, 1] = total[:, :-1]
    total = np.cumsum((second[..., 1:] * width).sum(axis=-1), axis=1)
    second[:, 1:, 0] = total[:, :-1]
    tables[1, :, -1, 0] = 1.0
    tables[2, :, -1, 0] = total[:, -1]
    tables[2, :, -1, 1] = 1.0
    return tables


def _shifted(x: np.ndarray, tables: np.ndarray, shifts: np.ndarray,
             y: np.ndarray) -> np.ndarray:
    """Each table moved right by its shift, on the intervals of ``y``.

    Per line, ``tables[:, t]`` holds a zero row (below ``x[:, 0]``), one
    row per piece of ``x`` and a last row from ``x[:, -1]`` on, and
    ``shifts[:, t]`` is its shift.  Returns the coefficients about each
    interval's left end, ``(lines, shifts, intervals, degree + 1)``.
    """
    g, t, size = tables.shape[:3]
    mid = 0.5 * (y[:, :-1] + y[:, 1:])
    rows = _count(x, mid[:, None] - shifts[..., None])
    origin = np.concatenate((x[:, :1], x), axis=1).ravel()
    start = origin[rows + size * np.arange(g)[:, None, None]]
    y = y.astype(tables.dtype, copy=False)
    delta = (y[:, None, :-1] - shifts[..., None]) - start
    offset = size * np.arange(g * t).reshape(g, t, 1)
    return _taylor(tables.reshape(g * t * size, -1)[rows + offset], delta)


def _merged(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per line, the distinct sums of a break and a shift, ascending, padded
    with the largest: the pieces after a line's last break have width 0."""
    y = (x[:, :, None] + shifts[:, None, :]).reshape(len(x), -1)
    y.sort(axis=1)
    y[:, 1:][y[:, 1:] == y[:, :-1]] = np.inf
    y.sort(axis=1)
    y = y[:, :max(2, np.isfinite(y).sum(axis=1).max())]
    return np.where(y < np.inf, y, (x[:, -1] + shifts[:, -1])[:, None])


def _capped(dist: ValuationDistribution, prices, dtype=np.float64):
    """The law of ``min(V, a)`` for ``V ~ dist``, one line per cap of
    ``prices`` (``None`` for ``NO_SALE``): its breaks, its density pieces
    and the weights of each shifted term of a convolution with it, both in
    ``dtype``, ``q`` and the caps."""
    m = dist.upper_bound
    caps = np.array([m if a is None else min(a, m) for a in prices])
    q = np.where(caps < m, 1.0 - dist.cdf(caps), 0.0)
    # The capped density's breaks: 0, the knots below the cap, the cap,
    # and the knots above it moved onto the cap as pieces of width 0.
    inner = np.minimum(dist._knots[1:-1], caps[:, None])
    x = np.concatenate((np.zeros((len(caps), 1)), inner, caps[:, None]),
                       axis=1)
    h = np.broadcast_to(np.stack([dist._dens[:-1], dist._slopes],
                                 axis=1).astype(dtype),
                        (len(caps), x.shape[1] - 1, 2))
    # The weights of h, H and K in each shifted term: the atom, and the
    # density's jumps in value and in slope.
    ends = np.zeros(x.shape + (2,), dtype=dtype)
    ends[:, :-1] += h
    ends[:, 1:] -= h
    ends[:, 1:, 0] -= h[..., 1] * np.diff(x.astype(dtype, copy=False),
                                          axis=1)
    weights = np.concatenate((np.zeros(x.shape + (1,), dtype=dtype), ends),
                             axis=2)
    weights[:, -1, 0] = q
    return x, h, weights, q, caps


def _sum_law(capped, members):
    """The capped sum of ``members``, indices into ``capped``, convolved in
    their order: its breaks and density pieces, and ``(breaks, table)`` of
    the CDF of the sum without its last member, as :func:`_shifted` reads
    it.  The convolutions run in the laws' dtype; what they return is
    float64."""
    x, h = capped[members[0]][:2]
    # S_0 = 0: no pieces, and P[S_0 < t] = 1 from t = 0 on.
    previous = (np.zeros((len(x), 1)),
                np.broadcast_to([[0.0], [1.0]], (len(x), 2, 1)))
    for c in members[1:]:
        shifts, _, weights = capped[c][:3]
        tables = _step(x, h)
        previous = (x, tables[1])
        terms = np.einsum("gti,igpk->gtpk", weights, tables)
        y = _merged(x, shifts)
        h = _shifted(x, terms, shifts, y).sum(axis=1)
        x = y
    xp, table = previous
    return x, np.asarray(h, dtype=float), (xp, np.asarray(table, dtype=float))


def _laws(classes, prices):
    """The capped law of each class, one line per entry of ``prices`` (a
    solo price per class, ``None`` for ``NO_SALE``), the group's members
    as class indices, class by class, the breaks of their capped sum ``S``
    and its CDF ``P[S < x]`` on each piece, and ``(breaks, table)`` of the
    CDF of ``S`` without its last member."""
    members = [c for c, (_, count) in enumerate(classes)
               for _ in range(count)]
    # A pair's law is one convolution, run in long double.  A steep piece
    # of the member's density gives slope weights of about +-1/width that
    # cancel against each other, times K up to the sum's support: in
    # float64, P[S < b] of a pair missed its exact value by up to 1.6e-14.
    # The 64-bit significand of x86-64's long double, with the shifts
    # taken exactly, brings that under 1e-15 (where long double is
    # float64, nothing changes).  Larger groups keep float64: numpy's long
    # double matrix products skip BLAS, and the partition search would
    # take twice as long.
    dtype = np.longdouble if len(members) == 2 else np.float64
    capped = [_capped(dist, [line[c] for line in prices], dtype)
              for c, (dist, _) in enumerate(classes)]
    x, h, last = _sum_law(capped, members)
    return capped, members, x, _step(x, h)[1, :, 1:-1, :-1], last


def _value(x: np.ndarray, pieces: np.ndarray, above: np.ndarray,
           line: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each ``t[i]`` on line ``line[i]`` of the piecewise polynomial,
    continuous from the left: 0 up to the line's first break and
    ``above[line]`` past its last."""
    j = _count(x[line], t[:, None], strict=True)[:, 0] - 1
    inside = np.clip(j, 0, pieces.shape[1] - 1)
    u = t - x[line, inside]
    got = (pieces[line, inside] * _powers(u, pieces.shape[2])).sum(axis=-1)
    return np.where(j < 0, 0.0,
                    np.where(j >= pieces.shape[1], above[line], got))


def bundle_lines(classes, prices):
    """``R(b)`` of offers to a group given as ``(dist, count)`` classes of
    i.i.d. customers, one line per entry of ``prices``, a solo price per
    class (``None`` for ``NO_SALE``): ``(breaks, pieces, tail)``, read by
    :func:`line_values`, then the pieces of ``P[S < x]`` and of ``P[S >=
    x]`` on the same breaks and, per class, ``count a q`` and the pieces
    of ``P[a + S_c < x]``, all read by :func:`capped_sum_cdf`."""
    capped, members, x, cdf, last = _laws(classes, prices)
    keep = -cdf
    keep[..., 0] += 1.0
    pieces = np.zeros(cdf.shape[:2] + (cdf.shape[2] + 1,))
    # b P[S >= b], with b = lo + u on each piece.
    pieces[..., :-1] = x[:, :-1, None] * keep
    pieces[..., 1:] += keep
    tail = 0.0
    solos = []
    for c, (_, count) in enumerate(classes):
        # Class c sells count a q P[a + S_c < b], where S_c leaves out one
        # of its members: for the last class, the sum's own last member.
        xp, table = last
        if c < len(classes) - 1:
            rest = list(members)
            rest.remove(c)
            xp, hp, _ = _sum_law(capped, rest)
            table = _step(xp, hp)[1]
        _, _, _, q, caps = capped[c]
        sells = count * caps * q
        solo = _shifted(xp, table[:, None], caps[:, None], x)[:, 0]
        pieces[..., :solo.shape[-1]] += sells[:, None, None] * solo
        tail = tail + sells
        solos.append((sells, solo))
    return x, pieces, tail, cdf, keep, solos


def line_values(lines, line, b) -> np.ndarray:
    """``R(b[i])`` on line ``line[i]`` of :func:`bundle_lines`."""
    x, pieces, tail = lines[:3]
    return _value(x, pieces, tail, np.asarray(line),
                  np.asarray(b, dtype=float))


def capped_sum_cdf(lines, line, t) -> tuple[np.ndarray, ...]:
    """``P[S < t[i]]`` and ``P[S >= t[i]]``, exact to rounding, for the
    capped sum ``S`` of the group on line ``line[i]`` of
    :func:`bundle_lines`, then each class's solo term ``count a q P[a +
    S_c < t[i]]`` in class order; ``line`` and ``t`` broadcast.

    Each is read off its own pieces: the first keeps its precision in the
    lower tail, and the second is the factor of the line's bundle term
    ``b P[S >= b]``.  They are exactly 0 and 1 for ``t <= 0``, and exactly
    1 and 0 past the all-capped atom (ties buy).  A solo term is 0 up to
    ``t = 0`` and ``count a q`` past the all-capped atom, and at the atom
    the tie goes to the bundle.
    """
    line, t = np.broadcast_arrays(np.asarray(line),
                                  np.asarray(t, dtype=float))
    line, t = line.ravel(), t.ravel()
    x, _, _, cdf, keep, solos = lines
    g = len(x)
    above = _value(x, keep, np.zeros(g), line, t)
    return (_value(x, cdf, np.ones(g), line, t),
            np.where(t <= 0.0, 1.0, above),
            *(sells[line] * _value(x, solo, np.ones(g), line, t)
              for sells, solo in solos))


def line_argmaxes(lines) -> tuple[np.ndarray, np.ndarray]:
    """The least maximizer ``b`` of each line of :func:`bundle_lines`, and
    ``R`` there.

    The supremum of ``R`` is at a break (``R`` is continuous from the
    left), just past the last break, or at a real stationary point inside a
    piece that can beat the best break: one whose largest Bernstein
    coefficient, an upper bound, does.  Those pieces' derivatives are
    solved in one eigenvalue call per degree, the real parts polished by a
    Newton step.  Every candidate is scored by :func:`line_values`, so each
    value is its line's at ``b``.
    """
    x, pieces = lines[:2]
    g, j, d = pieces.shape
    w = x[:, 1:] - x[:, :-1]
    scaled = pieces * _powers(w, d)
    bernstein = scaled @ (_BINOM[:d, :d].T / _BINOM[d - 1, :d, None])
    # The last coefficient is R at the piece's right end.
    real = w > 0.0
    best = np.where(real, bernstein[..., -1], 0.0).max(axis=1, initial=0.0)
    gi, ji = np.nonzero(real & (bernstein.max(axis=-1) > best[:, None]))
    slope = scaled[gi, ji, 1:] * _POWERS[1:d]
    big = np.abs(slope) > 1e-13 * np.abs(slope).max(axis=1, keepdims=True)
    degree = np.where(big.any(axis=1), d - 2 - np.argmax(big[:, ::-1], axis=1),
                      0)
    # Past its last break a line reads its tail, which the last piece
    # reaches only to an ulp or two.
    lines_of = [np.repeat(np.arange(g), j + 1), np.arange(g)]
    candidates = [x.ravel(), np.nextafter(x[:, -1], np.inf)]
    for k in set(degree[degree > 0].tolist()):
        rows = degree == k
        c = slope[rows, :k + 1]
        companion = np.zeros((len(c), k, k))
        companion[:, 1:, :-1] = np.eye(k - 1)
        companion[:, :, -1] = -c[:, :k] / c[:, k:]
        s = np.linalg.eigvals(companion).real
        power = _powers(s, k + 1)
        p = (c[:, None] * power).sum(axis=-1)
        dp = (c[:, None, 1:] * _POWERS[1:k + 1] * power[..., :-1]).sum(axis=-1)
        with np.errstate(all="ignore"):
            s = s - p / dp
        inside = (s > 0.0) & (s < 1.0)
        lo = x[gi[rows], ji[rows], None]
        lines_of.append(np.broadcast_to(gi[rows, None], s.shape)[inside])
        candidates.append((lo + s * w[gi[rows], ji[rows], None])[inside])
    line = np.concatenate(lines_of)
    b = np.concatenate(candidates)
    values = line_values(lines, line, b)
    order = np.lexsort((b, -values, line))
    first = order[np.searchsorted(line[order], np.arange(g))]
    return b[first], values[first]
