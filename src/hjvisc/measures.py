"""Ergodic-constant estimation and discrete occupational measures on (x, v).

For a fixed viscosity eps the map lambda -> lambda * u(x0) of the discounted
solutions converges, as lambda -> 0, to -c(H) - c(eps), with c(H) = max V
and c(H) + c(eps) the c of the cell problem H(x, Du) = eps*Lu + c: a shift of
V moves c(H) alone (Davini, Fathi, Iturriaga and Zavidovique, Invent. Math.
206 (2016)). Writing u = omega - (c(H) + c(eps))/lambda, the centered part
omega stays bounded, so polynomial (Richardson) extrapolation of
lambda * u(x0) in lambda recovers the limit at first order and better.

The measure mu built from a solved pair (u, theta) puts weight
h*(theta_j + theta_{j+1})/2 on the half-node phase point (x_{j+1/2}, b_{j+1/2}),
b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j) the drift of the Newton Jacobian J. Since
theta solves J^T theta = lambda*delta_{x0}/h, its Lagrangian action equals
lambda * u(x0) up to the Newton residual and solver roundoff, and it is
eps-closed: h*sum_j theta_j*(J phi - lambda*phi)_j = lambda*(phi(x0) - <phi, theta>)
for every grid function phi. closedness_defect gauges that quantity from the
measure alone, up to O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adjoint import drift_field
from .core import (DensityField, Grid1D, HamiltonianModel, ScalarField, check_lambdas,
                   check_nonnegative, check_positive, check_unit_mass, discrete_laplacian,
                   forward_difference, shift)
from .viscous import solve_viscous


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on finitely many phase points (x_j, v_j).

    Weights are nonnegative to roundoff (>= -1e-12) and sum to 1 within 1e-8.
    """

    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        vel = np.array(self.velocities, dtype=float)
        wts = np.array(self.weights, dtype=float)
        for arr in (pos, vel, wts):
            arr.setflags(write=False)
        if not (pos.shape == vel.shape == wts.shape) or pos.ndim != 1 or pos.size == 0:
            raise ValueError("measure needs matching nonempty 1-d position/velocity/weight arrays")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel)) and np.all(np.isfinite(wts))):
            raise ValueError("measure data contains non-finite entries")
        check_unit_mass("measure", float(wts.sum()), float(wts.min()))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)
        object.__setattr__(self, "weights", wts)


def _extrapolate_to_zero(lams: np.ndarray, vals: np.ndarray) -> float:
    """Neville polynomial extrapolation of vals(lam) to lam = 0.

    With k nodes this cancels the first k-1 terms of a power-series error,
    so an O(lambda) quantity is resolved to O(lambda^k) when smooth.
    """
    tab = vals.astype(float).copy()
    k = len(tab)
    for level in range(1, k):
        for i in range(k - level):
            lo, hi = lams[i + level], lams[i]
            tab[i] = (lo * tab[i] - hi * tab[i + 1]) / (lo - hi)
    return float(tab[0])


def estimate_ergodic_constant(model: HamiltonianModel, eps: float,
                              lam_seq: Sequence[float], grid: Grid1D) -> float:
    """c(eps) from the small-lambda limit of the discounted solutions.

    Solves the viscous equation for each lambda in the decreasing sequence,
    extrapolates lambda * u(x0) to lambda = 0 (x0 fixed at node 0 for
    reproducibility) and returns c(eps) = -limit - c(H), c(H) the model's
    critical value on the grid. A non-converged inner solve aborts the
    estimate.
    """
    lams = np.asarray(check_lambdas(lam_seq, 3))
    check_positive("eps", eps)

    vals = np.empty(lams.size)
    for i, lam in enumerate(lams):
        u, report = solve_viscous(model, float(lam), eps, grid)
        report.require_converged(f"viscous solve at lambda = {lam:.6g}, eps = {eps:.6g}")
        vals[i] = lam * u.values[0]
    # (0 - limit) - c(H) keeps a zero limit at +0 for the flat model
    return (0.0 - _extrapolate_to_zero(lams, vals)) - model.critical_value(grid)


def extract_measure(model: HamiltonianModel, u: ScalarField,
                    theta: DensityField) -> DiscreteMeasure:
    """Push theta onto the graph of the optimal velocity field.

    Support points are the n half nodes (x_{j+1/2}, b_{j+1/2}), b the drift
    of adjoint.drift_field; the weight at x_{j+1/2} is h*(theta_j + theta_{j+1})/2,
    renormalized to sum exactly 1. ``model`` is unread; the benchmark
    workloads pass it positionally.
    """
    if not isinstance(theta, DensityField):
        raise ValueError("theta must be a DensityField")
    if u.grid != theta.grid:
        raise ValueError("u and theta live on different grids")
    grid = u.grid
    weights = 0.5 * grid.h * (theta.values + shift(theta.values, 1))
    weights = weights / float(weights.sum())
    return DiscreteMeasure(grid.x_half, drift_field(model, u).values, weights)


def measure_action(mu: DiscreteMeasure, model: HamiltonianModel) -> float:
    """Lagrangian action sum_j w_j * L(x_j, v_j) of the measure."""
    vals = np.asarray(model.lagrangian(mu.positions, mu.velocities), dtype=float)
    return float(np.sum(mu.weights * vals))


def closedness_defect(mu: DiscreteMeasure, eps: float,
                      test_fn: ScalarField) -> float:
    """|sum_j w_j * (v_j * D+phi_j - eps * (Lphi_j + Lphi_{j+1})/2)| for a grid test field.

    The support must sit on the test grid's half nodes x_{j+1/2}, where the
    point j carries the forward difference D+phi_j. For the measure of a
    discounted solve this equals |lambda*(phi(x0) - h*sum_j theta_j*phi_j)| up
    to the O(eps*h^2) of the averaged Lphi: an O(lambda) + O(h^2) gauge that
    shrinks proportionally to lambda, so the measure is eps-closed in the limit.
    """
    check_nonnegative("eps", eps)
    grid = test_fn.grid
    idx = np.rint(mu.positions / grid.h - 0.5).astype(int) % grid.n
    if float(np.max(np.abs(grid.x_half[idx] - np.mod(mu.positions, grid.length)))) > 1e-9:
        raise ValueError("measure support does not sit on the test field's half nodes")
    dphi = forward_difference(test_fn.values, grid.h)
    lphi = discrete_laplacian(test_fn).values
    lphi = 0.5 * (lphi + shift(lphi, 1))
    integrand = mu.velocities * dphi[idx] - eps * lphi[idx]
    return float(abs(np.sum(mu.weights * integrand)))
