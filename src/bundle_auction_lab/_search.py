"""Small deterministic derivative-free search utilities."""

from __future__ import annotations

import math

__all__ = ["golden_section_max"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Bracket reductions per search; each shrinks the bracket by ``_INV_PHI``.
MAX_ITER = 200


def golden_section_max(f, lo: float, hi: float, *, xtol: float = 1e-10):
    """Golden-section search for a maximum of ``f`` on ``[lo, hi]``.

    Returns ``(x_best, f_best)`` over every point actually evaluated
    (including the endpoints), which makes the search robust on objectives
    that are only piecewise-continuous: the bracket logic still homes in on
    a local maximum, and the best-seen tracking never discards a better
    evaluation.  Ties keep the point evaluated first, so ``lo`` wins any
    tie.  The bracket stops shrinking at ``xtol`` or after ``MAX_ITER``
    reductions.
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    best_x, best_f = lo, f(lo)
    for x in (hi, 0.5 * (lo + hi)):
        fx = f(x)
        if fx > best_f:
            best_x, best_f = x, fx

    width = hi - lo
    if width <= xtol:
        return best_x, best_f
    c = hi - _INV_PHI * width
    d = lo + _INV_PHI * width
    fc, fd = f(c), f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    for _ in range(MAX_ITER):
        if hi - lo <= xtol:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f
