"""Two-point Gauss-Legendre quadrature on breakpoint pieces.

No code in the package calls this module: every exact pair value comes
from the exact group engine (:mod:`._group_exact`).  It stays only because
``bench/tracer.py`` patches ``pair_revenue.integrate_with_breakpoints``
by name; it goes when the benchmark stops patching lab attributes.

Between two breakpoints of an integrand that is a cubic there (a linear
density times a quadratic CDF), the two-point Gauss-Legendre rule is
exact.  Its nodes are interior, so a piece never samples the neighboring
branch of the integrand at a shared breakpoint unless the piece is a few
ulps wide; such a piece adds at most its width times the integrand's
maximum.
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate_with_breakpoints"]

# The Gauss-Legendre nodes on [0, 1]; both weights are 1/2.
_NODES = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)


def integrate_with_breakpoints(f, pts: np.ndarray, pieces: np.ndarray
                               ) -> np.ndarray:
    """The integral of ``f`` over each row of ``pts``.

    Row ``i`` of the 2-D array ``pts`` holds sorted breakpoints whose first
    ``pieces[i]`` pieces are nonempty; copies of its last point pad the
    rest.  ``f`` receives the nodes as one array of shape
    ``(rows, pieces, 2)`` and returns values of that shape.  Each row sums
    its own pieces as a row of its own length, since ``np.sum``'s pairwise
    order depends on the length: a row's value depends on no other row.
    """
    left, right = pts[:, :-1], pts[:, 1:]
    h = right - left
    fv = f(left[..., None] + h[..., None] * _NODES)
    value = 0.5 * h * (fv[..., 0] + fv[..., 1])
    sums = np.empty(pts.shape[0])
    for count in set(pieces.tolist()):
        rows = pieces == count
        sums[rows] = np.sum(value[rows, :count], axis=1)
    return sums
