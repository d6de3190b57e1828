"""Sup-convolution regularization and the approximate-subsolution certificate.

The sup-convolution of a grid field,

    (u_delta)_j = max_k [ u_k - d(x_k, x_j)^2 / (2*delta) ],

with d the wrapped (periodic) distance, dominates u pointwise, is 1/delta
semiconvex (discrete second differences >= -h^2/delta, an exact consequence
of d(k, j+1)^2 + d(k, j-1)^2 <= 2 d(k, j)^2 + 2 h^2), and stays within
Lip(u)^2 * delta / 2 of u. Applied to a discounted solution u_lambda it
yields an approximate subsolution: the positive part of
lambda*u_delta + H(x, D u_delta) is O(delta) plus a stencil term.

Only nearby sources can attain the maximum. With L = max|D+u|, a source at
periodic distance d has u_k - d^2/(2*delta) <= u_j + L*d - d^2/(2*delta),
which is below u_j, the value at d = 0, once d > 2*delta*L. So the scan
covers the m = min(ceil(2*delta*L/h) + 1, n//2) nodes on each side of every
node, computing each distance and candidate by the same floating-point
expression as a brute-force scan over all n sources, and returns that scan's
maximum bit for bit; the brute-force scans of the tests and the benchmark
are its oracles. It is blocked to keep the distance matrix small, since m
reaches n/2 when delta*L is large.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (HamiltonianModel, ScalarField, central_gradient, check_positive,
                   forward_difference)

_BLOCK = 512


def sup_convolution(u: ScalarField, delta: float) -> ScalarField:
    """Periodic sup-convolution with quadratic penalty 1/(2*delta), scanned
    over the window of nodes that can attain each maximum."""
    check_positive("delta", delta)
    grid = u.grid
    n, x, vals, length = grid.n, grid.x, u.values, grid.length
    lip = float(np.max(np.abs(forward_difference(vals, grid.h))))
    m = min(math.ceil(2.0 * delta * lip / grid.h) + 1, n // 2)
    # node j's window is entries j .. j + 2m of the wrapped copies: nodes j - m .. j + m
    wrap = np.arange(-m, n + m) % n
    x_win = sliding_window_view(x[wrap], 2 * m + 1)
    vals_win = sliding_window_view(vals[wrap], 2 * m + 1)
    out = np.empty(n)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        gap = np.abs(x[start:stop, None] - x_win[start:stop])
        dist = np.minimum(gap, length - gap)
        out[start:stop] = np.max(vals_win[start:stop] - dist * dist / (2.0 * delta), axis=1)
    return ScalarField(grid, out)


def subsolution_defect(u_delta: ScalarField, lam: float,
                       model: HamiltonianModel) -> float:
    """max_j of the positive part of lambda*(u_delta)_j + H(x_j, D(u_delta)_j).

    Zero means the field certifies as a discrete subsolution; for the
    sup-convolution of a discounted solution the defect is bounded by
    C*delta plus an O(h) stencil contribution at the semiconvex kinks.
    """
    check_positive("lambda", lam)
    du = central_gradient(u_delta).values
    resid = lam * u_delta.values + np.asarray(model.h(u_delta.grid.x, du), dtype=float)
    return float(max(np.max(resid), 0.0))
