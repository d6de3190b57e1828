"""Damped Newton solver for the discounted viscous equation on the torus.

The discrete problem is

    F_j(u) = lambda*u_j + (H(x_{j+1/2}, D+u_j) + H(x_{j-1/2}, D-u_j))/2 - eps*Lu_j = 0,

with D+u_j = (u_{j+1} - u_j)/h, D-u_j = D+u_{j-1}, x_{j+1/2} = x_j + h/2 and
Lu the periodic central Laplacian, all from core's one periodic shift. Averaging H over the two
one-sided gradients keeps the scheme second order and, unlike H(x_j, Du_j)
at the central gradient, lets the Hamiltonian see the node-alternating mode
(-1)^j. V at the half nodes is taken once per Newton run; the Jacobian
needs no H (its drift dH/dp = p is the half-node gradient) and is cyclic
tridiagonal, so every Newton step is one banded solve.

Every Newton run stops by one rule: the residual inf-norm is at most
max(TOL, floor(u)), floor(u) = 4*eps/h^2 * ulp(max|u|) at the current
iterate, the double-precision floor of eps*Lu below which no field of that
size can go. Along eps = lambda^(1+alpha) -> 0, eps/h^2 and |u| grow until
floor(u) passes TOL (Deuflhard, "Newton Methods for Nonlinear Problems",
2004). The averaged scheme is not monotone: a Newton run that meets the stop
still counts as unconverged when its final Jacobian has an expansion row
(see _expansion_free). A cold start that fails is always restarted from zero
along a factor-2 descent in eps from 0.5, warm-starting each level with the
previous solution. A Newton run from a given start (run_sweep passes the
previous lambda's field, Deuflhard's ch. 5) comes first; the cold start
follows only if it fails.
"""

from __future__ import annotations

import numpy as np

from .core import (ConvergenceError, Grid1D, HamiltonianModel, ScalarField, SolveReport,
                   check_positive, forward_difference, shift)
from .tridiag import CyclicTridiagonalMatrix, solve_cyclic_tridiagonal

DAMPING = 0.5
MIN_DAMPING_STEP = 2.0 ** -20
MAX_NEWTON_ITERS = 200
TOL = 1e-10


def _residual_arr(model: HamiltonianModel, v_half: np.ndarray, h: float, u: np.ndarray,
                  lam: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, D+u): F_j = lambda*u_j + (G_{j+1/2} + G_{j-1/2})/2 - eps*Lu_j with
    G_{j+1/2} = H(x_{j+1/2}, D+u_j), and D+u, the half-node drift of F's Jacobian."""
    up = shift(u, 1)  # u_{j+1}, shared by D+u and Lu
    lap = (up - 2.0 * u + shift(u, -1)) / (h * h)
    dplus = (up - u) / h
    # G in model.h's order, (p^2/2 + V) + level, from v_half = V(x_{j+1/2}) taken once per
    # Newton run; F accumulates in place to spare the hot path n-length temporaries
    g = 0.5 * dplus ** 2
    g += v_half
    g += model.level
    g += shift(g, -1)
    g *= 0.5
    g += lam * u
    lap *= eps
    g -= lap
    return g, dplus


def drift_diffusion_bands(grid: Grid1D, b_half: np.ndarray, lam: float,
                          eps: float) -> CyclicTridiagonalMatrix:
    """Bands of v -> lambda*v_j + (b_{j+1/2}*D+v_j + b_{j-1/2}*D-v_j)/2 - eps*Lv_j.

    super_j = b_{j+1/2}/(2h) - eps/h^2, sub_j = -b_{j-1/2}/(2h) - eps/h^2,
    diag_j = lambda + 2 eps/h^2 + (b_{j-1/2} - b_{j+1/2})/(2h), with periodic
    corners. Every row sums to lambda. At the half-node drift of u this is
    the Newton Jacobian; its transpose is the adjoint (Fokker-Planck) operator.
    """
    h = grid.h
    visc = eps / (h * h)
    drift = b_half / (2.0 * h)
    diag = shift(b_half, -1) - b_half  # b_{j-1/2} - b_{j+1/2}
    diag /= 2.0 * h
    diag += lam + 2.0 * visc
    # -visc - a rounds as -a - visc: sub_j = -b_{j-1/2}/(2h) - visc
    return CyclicTridiagonalMatrix(diag=diag, sub=-visc - shift(drift, -1), super=drift - visc)


def _expansion_free(sub: np.ndarray, sup: np.ndarray) -> bool:
    """True when no Jacobian row has both off-diagonal entries positive.

    Such a row is an expansion node: dH/dp on both half nodes points away
    from x_j faster than 2*eps/h, so the viscosity no longer dominates the
    non-monotone averaged Hamiltonian and a zero residual there can belong
    to an entropy-violating convex kink rather than to the viscous solution.
    """
    return not bool(np.any((sub > 0.0) & (sup > 0.0)))


def viscous_residual(model: HamiltonianModel, u: ScalarField, lam: float,
                     eps: float) -> ScalarField:
    """Pointwise residual lambda*u + (H(D+u) + H(D-u))/2 - eps*Lu of a candidate field."""
    v_half = model.potential(u.grid.x_half)
    return ScalarField(u.grid, _residual_arr(model, v_half, u.grid.h, u.values, lam, eps)[0])


def viscous_jacobian(u: ScalarField, lam: float, eps: float) -> CyclicTridiagonalMatrix:
    """Exact Jacobian of the residual at u, for every model: drift_diffusion_bands
    at the half-node drift b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j) = D+u_j."""
    return drift_diffusion_bands(u.grid, forward_difference(u.values, u.grid.h), lam, eps)


def _newton(model: HamiltonianModel, lam: float, eps: float, grid: Grid1D,
            u0: np.ndarray, fallback: bool = False) -> tuple[np.ndarray, int, float, bool]:
    """One damped Newton run at fixed eps from u0. Returns (u, iters, residual, converged).

    It stops at the residual max(TOL, floor(u)) of the module docstring and
    converges only if the Jacobian at its final iterate is expansion free. A
    non-finite start raises ValueError. A linear solve that the tridiagonal
    solver rejects raises ConvergenceError, unless the run has a fallback:
    then the run ends unconverged, the rejected solve counted as an iteration.
    """
    u = u0.copy()
    v_half = model.potential(grid.x_half)
    res, dplus = _residual_arr(model, v_half, grid.h, u, lam, eps)
    rnorm = float(np.max(np.abs(res)))
    if not np.isfinite(rnorm):
        raise ValueError(f"residual at the starting field is {rnorm!r}: "
                         "the model or the start is not finite")
    it = 0
    ulp_scale = 4.0 * eps / (grid.h * grid.h)  # floor(u) = ulp_scale * ulp(max|u|)
    while rnorm > max(TOL, ulp_scale * float(np.spacing(np.max(np.abs(u))))):
        if it == MAX_NEWTON_ITERS:
            return u, it, rnorm, False
        it += 1
        try:
            step = solve_cyclic_tridiagonal(drift_diffusion_bands(grid, dplus, lam, eps), -res)
        except ConvergenceError:
            if not fallback:
                raise
            return u, it, rnorm, False
        t = 1.0
        while True:
            trial = u + t * step
            trial_res, trial_dplus = _residual_arr(model, v_half, grid.h, trial, lam, eps)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and trial_norm < rnorm:
                u, res, dplus, rnorm = trial, trial_res, trial_dplus, trial_norm
                break
            t *= DAMPING
            if t < MIN_DAMPING_STEP:
                # stalled: no damped step reduces the residual
                return u, it, rnorm, False
    jac = drift_diffusion_bands(grid, dplus, lam, eps)
    return u, it, rnorm, _expansion_free(jac.sub, jac.super)


def _continuation_chain(eps: float) -> list[float]:
    """Viscosities 0.5, 0.25, ... down to eps (its last entry); empty for eps >= 0.5."""
    chain = []
    level = 0.5
    while level > eps:
        chain.append(level)
        level /= 2.0
    return chain + [eps] if chain else []


def solve_viscous(model: HamiltonianModel, lam: float, eps: float, grid: Grid1D,
                  start: ScalarField | None = None) -> tuple[ScalarField, SolveReport]:
    """Solve the discounted viscous equation; non-convergence is reported.

    Given a start on grid, Newton first runs from it at eps and, if that run
    converges, returns its field. Otherwise, or without a start, Newton runs
    cold from zero at eps to the module's Newton stop. If that fails, it
    restarts from zero at eps = 0.5 and descends the continuation chain, each
    level warm-started from the previous one, until a level fails or eps is
    reached. A failed warm run, a rejected linear solve in it included, only
    adds its iterations, so a start never loses a field the cold path finds.
    The report carries the iteration count (summed over all runs), the final
    residual inf-norm, the convergence flag, how many continuation levels
    ran (0 for a successful warm or cold start) and the viscosity of the
    returned field (eps, unless a continuation level failed: then that
    level's). converged=False covers a Newton stall, an exhausted iteration
    budget (MAX_NEWTON_ITERS per run), and a residual that meets the stop at
    a field whose Jacobian has an expansion row, where the non-monotone
    averaged scheme cannot be trusted.
    Only a cold-path linear solve that the tridiagonal solver rejects raises,
    as ConvergenceError; a model that is not finite on the grid, or a start
    on another grid, raises ValueError.
    """
    check_positive("lambda", lam)
    check_positive("eps", eps)
    total = 0
    if start is not None:
        if start.grid != grid:
            raise ValueError(f"start lives on a grid of n={start.grid.n}, not n={grid.n}")
        u, total, rnorm, ok = _newton(model, lam, eps, grid, start.values, fallback=True)
        if ok:
            return ScalarField(grid, u), SolveReport(total, rnorm, True, 0, eps)
    zero = np.zeros(grid.n)
    for steps, level in enumerate([eps] + _continuation_chain(eps)):
        # the cold start and the first continuation level both start from zero
        u, it, rnorm, ok = _newton(model, lam, level, grid, u if steps > 1 else zero)
        total += it
        if ok == (steps == 0):
            # a converged cold start needs no continuation; a failed level ends it
            break
    return ScalarField(grid, u), SolveReport(total, rnorm, ok, steps, level)
