"""Adaptive composite Simpson quadrature with forced breakpoints.

The revenue integrands are piecewise smooth with kinks at a known, finite
set of abscissae.  Subdividing at every breakpoint leaves polynomial pieces
of degree <= 3, for which Simpson's rule is exact, so the adaptive check
almost always passes at the first level.  It does not always: when two
breakpoints differ in the last bit, the piece between them is about 1e-16
wide, its nodes round onto the breakpoints and sample the neighboring
branches of the integrand, and the error estimate fails.  Refinement then
resolves the piece; the adaptivity is a safety net, not the workhorse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate_with_breakpoints", "simpson_pass"]

# Endpoint nodes are nudged inward so a piece never samples the neighboring
# branch of a piecewise integrand at a shared breakpoint; the displacement is
# a relative 1e-9 of the piece width, far below the quadrature tolerances.
_EDGE_NUDGE = 1e-9
_OFFSETS = np.array([_EDGE_NUDGE, 0.25, 0.5, 0.75, 1.0 - _EDGE_NUDGE])
#: Halvings of a piece before its value is accepted whatever its error.
MAX_DEPTH = 24


def simpson_pass(f, a: np.ndarray, b: np.ndarray):
    """One five-node Simpson pass on every piece ``[a, b]``.

    ``a`` and ``b`` are arrays of one shape; ``f`` receives the nodes as an
    array of shape ``a.shape + (5,)`` and returns values of that shape.
    Returns the Richardson-extrapolated value ``S2 + (S2 - S1) / 15`` of each
    piece and its error estimate ``(S2 - S1) / 15``.
    """
    h = b - a
    fv = np.asarray(f(a[..., None] + h[..., None] * _OFFSETS), dtype=float)
    s1 = h / 6.0 * (fv[..., 0] + 4.0 * fv[..., 2] + fv[..., 4])
    s2 = h / 12.0 * (
        fv[..., 0] + 4.0 * fv[..., 1] + 2.0 * fv[..., 2] + 4.0 * fv[..., 3]
        + fv[..., 4]
    )
    err = (s2 - s1) / 15.0
    return s2 + err, err


def integrate_with_breakpoints(f, points, tol: float) -> float:
    """Integrate ``f`` over ``[min(points), max(points)]``.

    ``f`` must accept and return 1-D ndarrays.  The interval is subdivided
    at every distinct point; each piece is halved until the usual Simpson
    error estimate ``|S2 - S1| / 15`` meets its length-proportional share of
    the absolute tolerance ``tol`` or has been halved ``MAX_DEPTH`` times
    (Richardson-extrapolated values are accumulated).  Deterministic for
    fixed inputs.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    pts = np.array(sorted({float(p) for p in points}), dtype=float)
    if pts.size < 2:
        return 0.0
    span = pts[-1] - pts[0]
    if span <= 0.0:
        return 0.0

    def flat(nodes):
        return np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)

    a = pts[:-1]
    b = pts[1:]
    tols = tol * (b - a) / span
    depth = 0
    result = 0.0
    while a.size:
        value, err = simpson_pass(flat, a, b)
        done = (np.abs(err) <= tols) | (depth >= MAX_DEPTH)
        result += float(np.sum(value[done]))
        if done.all():
            break
        keep = ~done
        ka, kb, kt = a[keep], b[keep], 0.5 * tols[keep]
        mid = 0.5 * (ka + kb)
        a = np.concatenate([ka, mid])
        b = np.concatenate([mid, kb])
        tols = np.concatenate([kt, kt])
        depth += 1
    return result
