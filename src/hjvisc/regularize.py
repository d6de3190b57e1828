"""Sup-convolution regularization and the approximate-subsolution certificate.

The sup-convolution of a grid field,

    (u_delta)_j = max_k [ u_k - d(x_k, x_j)^2 / (2*delta) ],

with d the wrapped (periodic) distance, dominates u pointwise, is 1/delta
semiconvex (discrete second differences >= -h^2/delta, an exact consequence
of d(k, j+1)^2 + d(k, j-1)^2 <= 2 d(k, j)^2 + 2 h^2), and stays within
Lip(u)^2 * delta / 2 of u. Applied to a discounted solution u_lambda it
yields an approximate subsolution: the positive part of
lambda*u_delta + H(x, D u_delta) is O(delta) plus a stencil term.

The maximization is brute force over all n source nodes, blocked to keep the
pairwise distance matrix small; at desk scales (n <= 4096) this is cheap and
serves as its own unambiguous oracle.
"""

from __future__ import annotations

import numpy as np

from .core import HamiltonianModel, ScalarField, central_gradient, check_positive

_BLOCK = 512


def sup_convolution(u: ScalarField, delta: float) -> ScalarField:
    """Brute-force periodic sup-convolution with quadratic penalty 1/(2*delta)."""
    check_positive("delta", delta)
    grid = u.grid
    x = grid.x
    vals = u.values
    length = grid.length
    out = np.empty(grid.n)
    for start in range(0, grid.n, _BLOCK):
        stop = min(start + _BLOCK, grid.n)
        gap = np.abs(x[start:stop, None] - x[None, :])
        dist = np.minimum(gap, length - gap)
        out[start:stop] = np.max(vals[None, :] - dist * dist / (2.0 * delta), axis=1)
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
