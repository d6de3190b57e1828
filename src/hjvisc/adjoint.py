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
The step matrix P is constant, so a long stream is averaged in blocks of n
exact steps through the n x n propagator P^n, built once (O(n^3) work).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import (ConvergenceError, DensityField, Grid1D, HamiltonianModel,
                   ScalarField)
from .tridiag import (CyclicTridiagonalMatrix, factor_cyclic_tridiagonal,
                      solve_cyclic_tridiagonal)
from .viscous import _half_node_drift, drift_diffusion_bands, viscous_jacobian

NEGATIVITY_REJECT = -1e-8
_CHUNK = 32  # identity columns stepped at once: keeps the build's temporaries small


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


class FokkerPlanckStream:
    """Lazy implicit-Euler snapshots (t_k, rho_k), t_k = k*dt, k = 0..steps,
    each validated through DensityField. Holds the factorized step
    rho -> P rho, dt, the step count and the source node."""

    def __init__(self, grid: Grid1D, step, dt: float, steps: int,
                 x0_index: int) -> None:
        self.grid, self.step, self.dt = grid, step, dt
        self.steps, self.x0_index = steps, x0_index
        self._k = -1                  # index of the last snapshot yielded
        self._rho = np.zeros(grid.n)  # that snapshot, or the Dirac before it
        self._rho[x0_index] = 1.0 / grid.h

    def __iter__(self) -> FokkerPlanckStream:
        return self

    def __next__(self) -> tuple[float, DensityField]:
        if self._k >= self.steps:
            raise StopIteration
        rho = self.step(self._rho) if self._k >= 0 else self._rho
        field = DensityField(self.grid, rho)
        self._k, self._rho = self._k + 1, rho
        return self._k * self.dt, field


def evolve_fokker_planck(drift: ScalarField, eps: float, x0_index: int,
                         t_final: float, dt: float | None = None
                         ) -> FokkerPlanckStream:
    """Implicit-Euler Fokker-Planck evolution from a discrete Dirac.

    The drift is a half-node field, b_{j+1/2} stored at index j (drift_field
    of a solved u, or an averaged_drift); dt defaults to the grid spacing h.
    Arguments are checked, and the stepping matrix factorized once, at the
    call (the one cyclic tridiagonal factorization of every banded solve).
    The returned FokkerPlanckStream yields (t_k, rho_k) lazily, starting with
    (0, delta/h), so long horizons never materialize in memory; wrap in
    list() for short runs.
    """
    grid = drift.grid
    if dt is None:
        dt = grid.h
    if not all(v > 0.0 and math.isfinite(v) for v in (eps, dt, t_final)):
        raise ValueError(f"eps, dt, t_final must be positive and finite: {eps}, {dt}, {t_final}")
    if t_final < dt:
        raise ValueError("horizon shorter than one step")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"step count t_final/dt must be finite: {t_final}/{dt}")
    _check_source(grid, x0_index)

    # -(D[b*.] + eps*L): the Jacobian's stencil at lambda = 0, transposed
    gen = drift_diffusion_bands(grid, drift.values, 0.0, eps).transpose()
    step = factor_cyclic_tridiagonal(CyclicTridiagonalMatrix(
        diag=1.0 + dt * gen.diag, sub=dt * gen.sub, super=dt * gen.super))
    return FokkerPlanckStream(grid, step, dt, int(round(t_final / dt)), x0_index)


def _trapezoid_weights(lam: float, dt: float) -> tuple[float, float]:
    """int_0^dt lam e^{-lam s} (1 - s/dt) ds and the mirrored weight: the
    product-trapezoid weights (c_a, c_b) of a step's two end snapshots."""
    e = math.exp(-lam * dt)
    coef_b = (1.0 - e) / (lam * dt) - e
    return (1.0 - e) - coef_b, coef_b


def _check_unit_sources(grid: Grid1D, cols: np.ndarray) -> None:
    """DensityField's rules on each snapshot cols[:, j]/h of a unit source."""
    if not np.all(np.isfinite(cols)):
        raise ValueError("density contains non-finite values")
    mass = cols.sum(axis=0)
    worst = float(mass[np.argmax(np.abs(mass - 1.0))])
    if abs(worst - 1.0) > 1e-8:
        raise ValueError(f"density mass {worst!r} deviates from 1 beyond 1e-8")
    lo = float(cols.min()) / grid.h
    if lo < -1e-12:
        raise ValueError(f"density entry {lo!r} below the -1e-12 floor")


def _skip_blocks(stream: FokkerPlanckStream, lam: float):
    """Average of the first B*m steps, m = n, B = (steps - 1) // m, and the
    snapshot (t, rho) at step B*m, after which the stream goes on.

    The average is sum_b e^{-lam b m dt} Q rho_{bm} = Q s, with Q =
    sum_{i<m} e^{-lam i dt} (c_a P^i + c_b P^{i+1}): m trapezoid steps from
    s, so Q is never formed. P^m is the identity stepped m times.
    """
    grid, step, dt = stream.grid, stream.step, stream.dt
    n = m = grid.n
    prop = np.empty((n, n))
    for lo in range(0, n, _CHUNK):
        cols = np.eye(n, min(_CHUNK, n - lo), -lo)
        for _ in range(m):
            cols = step(cols)
            _check_unit_sources(grid, cols)
        prop[:, lo:lo + cols.shape[1]] = cols

    rho, s, blocks = stream._rho, np.zeros(n), (stream.steps - 1) // m
    for b in range(blocks):
        s += math.exp(-lam * (b * m * dt)) * rho
        field = DensityField(grid, prop @ rho)
        rho = field.values
    stream._k, stream._rho = blocks * m, rho

    coef_a, coef_b = _trapezoid_weights(lam, dt)
    acc = np.zeros(n)
    for i in range(m):
        nxt = step(s)
        w = math.exp(-lam * (i * dt))
        acc += (w * coef_a) * s + (w * coef_b) * nxt
        s = nxt
    return acc, (stream._k * dt, field)


def stationary_from_transient(rho_sequence: Iterable[tuple[float, DensityField]],
                              lam: float) -> DensityField:
    """Discounted time average of an evolution, int_0^T lambda e^{-lambda t} rho dt.

    Piecewise-linear-in-time rho against the exactly integrated exponential
    weight (product trapezoid), plus the tail estimate e^{-lambda*T} rho(., T).
    Applied to rho == 1 the weights sum to exactly 1 - e^{-lambda T}, so the
    output inherits unit mass. A horizon with e^{-lambda T} > 1e-6 (T below
    roughly 14/lambda) is rejected as too short to truncate.

    An untouched FokkerPlanckStream of at least n**2 steps is averaged in
    blocks of m = n implicit-Euler steps (_skip_blocks) and its last 1..m
    steps are streamed; any other sequence is streamed snapshot by snapshot.
    The blocked route checks every column of P^i, i = 1..m (the snapshot
    from a unit source at each node), and every block boundary rho_{bm}.
    A snapshot P^i rho_{bm} in between combines checked columns with weights
    h*rho_{bm} that sum to 1 within 1e-8 and are >= -1e-12*h, so its mass is
    within about 2e-8 of 1 and its entries are >= about -(n + 1)*1e-12.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive, got {lam!r}")

    acc, it = 0.0, iter(rho_sequence)
    if (isinstance(rho_sequence, FokkerPlanckStream) and rho_sequence._k < 0
            and rho_sequence.steps >= rho_sequence.grid.n ** 2):
        acc, first = _skip_blocks(rho_sequence, lam)
    else:
        first = next(it, None)
    if first is None:
        raise ValueError("empty evolution sequence")
    t_prev, rho_prev = first
    dt_ref = None
    for t, rho in it:
        dt = t - t_prev
        if dt <= 0.0:
            raise ValueError("snapshot times must increase")
        if dt_ref is None:
            dt_ref = dt
            coef_a, coef_b = _trapezoid_weights(lam, dt)
        elif abs(dt - dt_ref) > 1e-9 * dt_ref:
            raise ValueError("discounted averaging expects a uniform time step")
        w = math.exp(-lam * t_prev)
        acc += (w * coef_a) * rho_prev.values + (w * coef_b) * rho.values
        t_prev, rho_prev = t, rho
    if dt_ref is None:
        raise ValueError("evolution sequence needs at least two snapshots")
    tail = math.exp(-lam * t_prev)
    if tail > 1e-6:
        raise ConvergenceError(
            f"horizon T = {t_prev:.6g} too short: e^(-lambda T) = {tail:.3e} > 1e-6, "
            "extend to at least 20/lambda")
    acc += tail * rho_prev.values
    return DensityField(rho_prev.grid, acc)


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
