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
The step matrix S = I + dt*G is constant, so past its first step a long
stream is averaged in closed form: a geometric sum of the propagator
P = S^-1, one cyclic tridiagonal solve with S - e^{-lambda dt} I, plus the
unrelaxed tail taken from binary powers of the dense P, squared until a
power is rank one (at most O(n^3 log steps) work in BLAS products).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import core
from .core import (ConvergenceError, DensityField, Grid1D, HamiltonianModel,
                   ScalarField, check_index, check_positive, forward_difference)
from .tridiag import (CyclicTridiagonalMatrix, factor_cyclic_tridiagonal,
                      solve_cyclic_tridiagonal)
from .viscous import drift_diffusion_bands, viscous_jacobian

NEGATIVITY_REJECT = -1e-8
_CHUNK = 32  # identity columns stepped at once: keeps the build's temporaries small
_RANK_ONE_SPREAD = 64 * np.finfo(float).eps  # row spread of a power taken as rank one
_SERIES_BELOW = 0.5  # lam*dt below which the trapezoid weight c_b is summed as a series
# its coefficients (-1)^(m+1) m/(m+1)!, m = 16..1 for Horner: the first term left
# out is under 1e-17 of c_b at lam*dt = 1/2
_SERIES = tuple((-1) ** (m + 1) * m / math.factorial(m + 1) for m in range(16, 0, -1))


def drift_field(model: HamiltonianModel, u: ScalarField) -> ScalarField:
    """Half-node drift b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j) = D+u_j at index j,
    for every model: the drift of the Newton Jacobian, adjoint and measure.
    ``model`` is unread; the benchmark workloads pass it positionally."""
    return ScalarField(u.grid, forward_difference(u.values, u.grid.h))


def solve_adjoint_stationary(model: HamiltonianModel, u: ScalarField, lam: float,
                             eps: float, x0_index: int = 0) -> DensityField:
    """Stationary adjoint density with a unit Dirac source at node x0_index.

    The Dirac is the discrete delta 1/h at one node, and the matrix is the
    transpose of the Newton Jacobian at u. Where the cell Peclet number
    |b_{j+1/2}|*h/(2*eps) exceeds 1 the half-node stencil is not monotone and
    theta can dip below zero: entries below -1e-8 reject the solve (refine
    the grid or raise eps); milder negative dips are roundoff and are clamped
    before the final renormalization, whose factor must stay within 1e-6 of 1
    and is recorded on the returned field. ``model`` is unread; the benchmark
    workloads pass it positionally.
    """
    grid = u.grid
    check_positive("lambda", lam)
    check_positive("eps", eps)
    check_index("x0_index", x0_index, 0, grid.n)

    system = viscous_jacobian(u, lam, eps).transpose()
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
    each validated through DensityField. Holds the step matrix S, its
    prepared solve rho -> P rho = S^-1 rho, dt and the step count; it starts
    from the Dirac at x0_index."""

    def __init__(self, grid: Grid1D, matrix: CyclicTridiagonalMatrix, dt: float,
                 steps: int, x0_index: int) -> None:
        self.grid, self.matrix, self.dt, self.steps = grid, matrix, dt, steps
        self.step = factor_cyclic_tridiagonal(matrix)
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
    Arguments are checked, and the step matrix's solve prepared
    (factor_cyclic_tridiagonal), at the call.
    The returned FokkerPlanckStream yields (t_k, rho_k) lazily, starting with
    (0, delta/h), so long horizons never materialize in memory; wrap in
    list() for short runs.
    """
    grid = drift.grid
    if dt is None:
        dt = grid.h
    check_positive("eps", eps)
    check_positive("t_final", t_final)
    check_positive("dt", dt)
    if t_final < dt:
        raise ValueError("horizon shorter than one step")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"step count t_final/dt must be finite: {t_final}/{dt}")
    check_index("x0_index", x0_index, 0, grid.n)

    # -(D[b*.] + eps*L): the Jacobian's stencil at lambda = 0, transposed
    gen = drift_diffusion_bands(grid, drift.values, 0.0, eps).transpose()
    matrix = CyclicTridiagonalMatrix(diag=1.0 + dt * gen.diag, sub=dt * gen.sub,
                                     super=dt * gen.super)
    return FokkerPlanckStream(grid, matrix, dt, int(round(t_final / dt)), x0_index)


def _trapezoid_weights(lam: float, dt: float) -> tuple[float, float]:
    """int_0^dt lam e^{-lam s} (1 - s/dt) ds and the mirrored weight: the
    product-trapezoid weights (c_a, c_b) of a step's two end snapshots.
    With x = lam dt, c_b = (1 - e^{-x})/x - e^{-x} = sum_{m>=1} (-1)^(m+1)
    x^m m/(m+1)!; below x = 1/2 it is summed from the series, whose terms
    are all small, rather than as a difference of two numbers near 1.
    1 - e^{-x} comes from expm1, not from the rounded e^{-x}, so c_a + c_b
    is 1 - e^{-x} to roundoff."""
    x = lam * dt
    one_minus_e = -math.expm1(-x)
    if x < _SERIES_BELOW:
        coef_b = 0.0
        for c in _SERIES:
            coef_b = coef_b * x + c
        coef_b *= x
    else:
        coef_b = one_minus_e / x - math.exp(-x)
    return one_minus_e - coef_b, coef_b


def _is_rank_one(power: np.ndarray) -> bool:
    """Whether the columns of a nonnegative power agree to within
    _RANK_ONE_SPREAD of its largest entry. Two columns are compared first,
    in O(n), so that a power still far from rank one costs no full pass."""
    a, b = power[:, 0], power[:, power.shape[1] // 2]
    if np.abs(a - b).max() > _RANK_ONE_SPREAD * max(a.max(), b.max()):
        return False
    return bool(np.ptp(power, axis=1).max() <= _RANK_ONE_SPREAD * power.max())


def _closed_form(stream: FokkerPlanckStream, lam: float):
    """Average of the k steps from the stream's snapshot rho_0 at t_j to
    step steps - 1, in units of e^{-lam t_j}, and the snapshot (t, rho_k)
    there, at which the stream goes on.

    With P = S^-1 and q = e^{-lam dt}, the sum sum_{i<k} q^i (c_a rho_i +
    c_b rho_{i+1}) is (c_a I + c_b P)(I - qP)^-1 (rho_0 - q^k rho_k), and
    (I - qP)^-1 v = (S - qI)^-1 S v. rho_k applies the binary powers of P,
    stepped from the identity in column chunks and squared into one spare
    buffer. Squaring stops at the first power M whose columns agree
    (_is_rank_one): P is column-stochastic and nonnegative, so every column
    of a higher power is a convex combination of M's columns, and M rho
    stands for the rest of the powers to within M's row spread times
    ||rho||_1. S - qI is within 1 - q of singular along the invariant
    density, where the solve's roundoff grows by 1/(1 - q); the mass
    sum(v)/(1 - q) that a column-stochastic P fixes is restored along rho_k.
    """
    grid, matrix, step, dt = stream.grid, stream.matrix, stream.step, stream.dt
    n, k = grid.n, stream.steps - 1 - stream._k
    power = np.empty((n, n))
    for lo in range(0, n, _CHUNK):
        power[:, lo:lo + _CHUNK] = step(np.eye(n, min(_CHUNK, n - lo), -lo))
    spare, rho, bits = np.empty((n, n)), stream._rho, k
    while bits:
        if bits & 1:
            rho = power @ rho
        bits >>= 1
        if bits:
            np.matmul(power, power, out=spare)
            power, spare = spare, power
            if _is_rank_one(power):
                rho, bits = power @ rho, 0
    field = DensityField(grid, rho)

    q = math.exp(-lam * dt)
    shifted = CyclicTridiagonalMatrix(diag=matrix.diag - q, sub=matrix.sub,
                                      super=matrix.super)
    w = stream._rho - math.exp(-lam * (k * dt)) * rho
    x = solve_cyclic_tridiagonal(shifted, matrix.matvec(w))
    x += (w.sum() / -math.expm1(-lam * dt) - x.sum()) / rho.sum() * rho
    coef_a, coef_b = _trapezoid_weights(lam, dt)
    stream._k, stream._rho = stream.steps - 1, rho
    return coef_a * x + coef_b * step(x), (stream._k * dt, field)


def _snapshot(index: int, item, grid: Grid1D | None) -> tuple[float, DensityField]:
    """The index-th snapshot read, as (t, rho): a pair of a finite real time and a
    DensityField, on ``grid`` unless it is None; ValueError naming the snapshot
    otherwise. The class comes from core, since tracing wraps this module's
    DensityField."""
    if not (isinstance(item, tuple) and len(item) == 2):
        raise ValueError(f"snapshot {index} is not a (time, DensityField) pair")
    t, rho = item
    if not (isinstance(t, (int, float, np.integer, np.floating)) and math.isfinite(t)):
        raise ValueError(f"snapshot {index}: times must be real and finite, got t = {t!r}")
    if not isinstance(rho, core.DensityField):
        raise ValueError(f"snapshot {index}: snapshots must be DensityFields, "
                         f"got {type(rho).__name__}")
    if grid is not None and rho.grid != grid:
        raise ValueError(f"snapshot {index}: snapshots live on different grids")
    return t, rho


def stationary_from_transient(rho_sequence: Iterable[tuple[float, DensityField]],
                              lam: float) -> DensityField:
    """Discounted time average of an evolution, int_0^T lambda e^{-lambda t} rho dt.

    The sequence starts at t = 0, and its snapshots are finite times and
    DensityFields on one grid (ValueError otherwise). Piecewise-linear-in-time
    rho against the exactly integrated exponential weight (product trapezoid),
    plus the tail estimate e^{-lambda*T} rho(., T).
    Applied to rho == 1 the weights sum to exactly 1 - e^{-lambda T}, so the
    output inherits unit mass. A horizon with e^{-lambda T} > 1e-6 (T below
    roughly 14/lambda) is rejected as too short to truncate.

    A FokkerPlanckStream of at least n**2 steps, read from t = 0, whose step
    matrix S has no positive off-diagonal is streamed for its first step,
    which fixes dt and the weights, and its last one, and averaged in closed
    form in between (_closed_form); any other sequence is streamed snapshot
    by snapshot. The two routes agree to roundoff, not bit for bit: the
    same stream wrapped in a generator can give a criterion 06 gap that
    differs in its last bits. Such an S is an M-matrix with unit column
    sums (Varga, "Matrix Iterative Analysis", 1962), so P = S^-1 is
    nonnegative and column-stochastic: every snapshot the closed
    form skips is a density up to roundoff and would pass DensityField's
    checks. The snapshot it stops at and the average are still checked.
    """
    check_positive("lambda", lam)

    seq = rho_sequence
    closed = (isinstance(seq, FokkerPlanckStream) and seq.steps >= seq.grid.n ** 2
              and max(seq.matrix.sub.max(), seq.matrix.super.max()) <= 0.0)
    it = iter(seq)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty evolution sequence") from None
    acc, (t_prev, rho_prev), dt_ref = 0.0, _snapshot(0, first, None), None
    if t_prev != 0.0:
        raise ValueError(f"evolution sequence must start at t = 0, got t = {t_prev!r}")
    grid = rho_prev.grid
    for index, item in enumerate(it, 1):
        t, rho = _snapshot(index, item, grid)
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
        if closed and seq._k == 1:
            jump, (t_prev, rho_prev) = _closed_form(seq, lam)
            acc += math.exp(-lam * t) * jump
    if dt_ref is None:
        raise ValueError("evolution sequence needs at least two snapshots")
    tail = math.exp(-lam * t_prev)
    if tail > 1e-6:
        raise ConvergenceError(
            f"horizon T = {t_prev:.6g} too short: e^(-lambda T) = {tail:.3e} > 1e-6, "
            "extend to at least 20/lambda")
    acc += tail * rho_prev.values
    return DensityField(grid, acc)


def averaged_drift(u_eps: ScalarField, u_delta: ScalarField) -> ScalarField:
    """vartheta_{j+1/2} = int_0^1 dH/dp(x_{j+1/2}, r*D+u_eps_j + (1-r)*D+u_delta_j) dr.

    The half-node secant drift, stored at index j: drift_diffusion_bands at
    vartheta maps u_eps - u_delta to F(u_eps) - F(u_delta), F the viscous
    residual. With dH/dp = p the integral is the midpoint of the two D+ fields.
    """
    if u_eps.grid != u_delta.grid:
        raise ValueError("fields live on different grids")
    h = u_eps.grid.h
    return ScalarField(u_eps.grid, 0.5 * (forward_difference(u_eps.values, h)
                                          + forward_difference(u_delta.values, h)))

