"""Adjoint (occupation density) solvers for the linearized transport operator.

Given a solved u and its half-node drift b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j),
the same drift the Newton Jacobian differentiates, the stationary adjoint
density solves

    lambda*theta - D[b*theta] = eps*L*theta + lambda*delta_{x0},

where D[.] is a conservative flux-form divergence: differences of half-node
fluxes F_{j+1/2} = b_{j+1/2} * (theta_j + theta_{j+1})/2, and L the periodic
Laplacian stencil. Its matrix is J^T, the transpose of the Newton Jacobian
J = viscous_jacobian(u), so h*theta^T J v = lambda*v(x0) holds for every
grid function v up to linear-solver roundoff. Column sums of the divergence
telescope to zero, so h * sum(theta) = 1 holds to the same roundoff.

The same operator drives the Fokker-Planck evolution

    d rho/dt = D[b*rho] + eps*L*rho,   rho(., 0) = delta_{x0}/h,

stepped by implicit Euler (mass-exact), and theta is recovered from it by the
discounted time average lim_T int_0^T lambda*exp(-lambda*t) rho(., t) dt.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .core import (ConvergenceError, DensityField, Grid1D, HamiltonianModel,
                   ScalarField)
from .tridiag import (CyclicTridiagonalMatrix, factor_cyclic_tridiagonal,
                      solve_cyclic_tridiagonal)
from .viscous import _half_node_drift, drift_diffusion_bands, viscous_jacobian

NEGATIVITY_REJECT = -1e-8


def drift_field(model: HamiltonianModel, u: ScalarField) -> ScalarField:
    """Half-node drift b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j), stored at index j:
    the drift of the Newton Jacobian, the adjoint and the measure."""
    return ScalarField(u.grid, _half_node_drift(model, u.grid, u.values))


def _check_source(grid: Grid1D, x0_index: int) -> None:
    if (isinstance(x0_index, bool) or not isinstance(x0_index, (int, np.integer))
            or not 0 <= x0_index < grid.n):
        raise ValueError(f"x0_index must be an integer in 0..{grid.n - 1}, got {x0_index!r}")


def solve_adjoint_stationary(model: HamiltonianModel, u: ScalarField, lam: float,
                             eps: float, x0_index: int = 0) -> DensityField:
    """Stationary adjoint density with a unit Dirac source at node x0_index.

    The Dirac is the discrete delta 1/h at one node, and the matrix is the
    transpose of the Newton Jacobian at u. Where the cell Peclet number
    |b_{j+1/2}|*h/(2*eps) exceeds 1 the half-node stencil is not monotone and
    theta can dip below zero: entries below -1e-8 reject the solve (refine
    the grid or raise eps); milder negative dips are roundoff and are clamped
    before the final renormalization, whose factor must stay within 1e-6 of 1
    and is recorded on the returned field.
    """
    grid = u.grid
    if not (lam > 0.0 and math.isfinite(lam) and eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"lambda and eps must be positive and finite, got {lam!r}, {eps!r}")
    _check_source(grid, x0_index)

    system = viscous_jacobian(model, u, lam, eps).transpose()
    rhs = np.zeros(grid.n)
    rhs[x0_index] = lam / grid.h
    theta = solve_cyclic_tridiagonal(system, rhs)

    lo = float(theta.min())
    if lo < NEGATIVITY_REJECT:
        raise ConvergenceError(
            f"stationary adjoint density has entry {lo:.3e} < {NEGATIVITY_REJECT:.0e}: "
            "non-monotone discretization at this resolution, refine the grid")
    theta = np.maximum(theta, 0.0)
    mass = grid.h * float(theta.sum())
    factor = 1.0 / mass
    if abs(factor - 1.0) > 1e-6:
        raise ConvergenceError(
            f"adjoint renormalization factor {factor!r} deviates from 1 beyond 1e-6")
    return DensityField(grid, theta * factor, renorm_factor=factor)


def evolve_fokker_planck(drift: ScalarField, eps: float, x0_index: int,
                         t_final: float, dt: float | None = None
                         ) -> Iterator[tuple[float, DensityField]]:
    """Implicit-Euler Fokker-Planck evolution from a discrete Dirac.

    The drift is a half-node field, b_{j+1/2} stored at index j (drift_field
    of a solved u, or an averaged_drift); dt defaults to the grid spacing h.
    Yields (t_k, rho_k) lazily, starting with (0, delta/h), so long horizons
    never materialize in memory; wrap in list() for short runs. The stepping
    matrix is factorized once, by the same cyclic tridiagonal factorization
    as every other banded solve. Every snapshot is validated through
    DensityField (mass within 1e-8 of 1, entries >= -1e-12).
    """
    grid = drift.grid
    if dt is None:
        dt = grid.h
    if not all(v > 0.0 and math.isfinite(v) for v in (eps, dt, t_final)):
        raise ValueError(f"eps, dt, t_final must be positive and finite: {eps}, {dt}, {t_final}")
    if t_final < dt:
        raise ValueError("horizon shorter than one step")
    _check_source(grid, x0_index)

    # -(D[b*.] + eps*L): the Jacobian's stencil at lambda = 0, transposed
    gen = drift_diffusion_bands(grid, drift.values, 0.0, eps).transpose()
    step = factor_cyclic_tridiagonal(CyclicTridiagonalMatrix(
        diag=1.0 + dt * gen.diag, sub=dt * gen.sub, super=dt * gen.super))

    rho = np.zeros(grid.n)
    rho[x0_index] = 1.0 / grid.h
    yield 0.0, DensityField(grid, rho)
    steps = int(round(t_final / dt))
    for k in range(1, steps + 1):
        rho = step(rho)
        yield k * dt, DensityField(grid, rho)


def stationary_from_transient(rho_sequence: Iterable[tuple[float, DensityField]],
                              lam: float) -> DensityField:
    """Discounted time average of an evolution, int_0^T lambda e^{-lambda t} rho dt.

    Piecewise-linear-in-time rho against the exactly integrated exponential
    weight (product trapezoid), plus the tail estimate e^{-lambda*T} rho(., T).
    Applied to rho == 1 the weights sum to exactly 1 - e^{-lambda T}, so the
    output inherits unit mass. A horizon with e^{-lambda T} > 1e-6 (T below
    roughly 14/lambda) is rejected as too short to truncate.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive, got {lam!r}")

    it = iter(rho_sequence)
    try:
        t_prev, rho_prev = next(it)
    except StopIteration:
        raise ValueError("empty evolution sequence") from None
    grid = rho_prev.grid
    acc = np.zeros(grid.n)
    coef_a = coef_b = None
    dt_ref = None
    count = 1
    for t, rho in it:
        dt = t - t_prev
        if dt <= 0.0:
            raise ValueError("snapshot times must increase")
        if dt_ref is None:
            dt_ref = dt
            e = math.exp(-lam * dt)
            # int_0^dt lam e^{-lam s} (1 - s/dt) ds and the mirrored weight
            coef_b = (1.0 - e) / (lam * dt) - e
            coef_a = (1.0 - e) - coef_b
        elif abs(dt - dt_ref) > 1e-9 * dt_ref:
            raise ValueError("discounted averaging expects a uniform time step")
        w = math.exp(-lam * t_prev)
        acc += (w * coef_a) * rho_prev.values + (w * coef_b) * rho.values
        t_prev, rho_prev = t, rho
        count += 1
    if count < 2:
        raise ValueError("evolution sequence needs at least two snapshots")
    tail = math.exp(-lam * t_prev)
    if tail > 1e-6:
        raise ConvergenceError(
            f"horizon T = {t_prev:.6g} too short: e^(-lambda T) = {tail:.3e} > 1e-6, "
            "extend to at least 20/lambda")
    acc += tail * rho_prev.values
    return DensityField(grid, acc)


def averaged_drift(u_eps: ScalarField, u_delta: ScalarField,
                   model: HamiltonianModel) -> ScalarField:
    """vartheta_{j+1/2} = int_0^1 dH/dp(x_{j+1/2}, r*D+u_eps_j + (1-r)*D+u_delta_j) dr.

    The half-node secant drift, stored at index j: drift_diffusion_bands at
    vartheta maps u_eps - u_delta to F(u_eps) - F(u_delta), F the viscous
    residual. Four Gauss-Legendre points on [0, 1] integrate any dH/dp of
    degree <= 7 in p exactly.
    """
    if u_eps.grid != u_delta.grid:
        raise ValueError("fields live on different grids")
    grid = u_eps.grid
    nodes, weights = np.polynomial.legendre.leggauss(4)
    out = np.zeros(grid.n)
    for ri, wi in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        # D+ is linear: the gradient of the blend is the blend of the gradients
        blend = ri * u_eps.values + (1.0 - ri) * u_delta.values
        out += wi * _half_node_drift(model, grid, blend)
    return ScalarField(grid, out)


def entropy_diagnostic(rho: DensityField) -> float:
    """h * sum_j |log rho_j| * rho_j with rho clamped below at 1e-300.

    A crude information-size gauge: log(1/h) for a one-node spike, log(2*pi)
    for the uniform density on the default torus.
    """
    vals = np.maximum(rho.values, 1e-300)
    return float(rho.grid.h * np.sum(np.abs(np.log(vals)) * rho.values))
