"""Damped Newton solver for the discounted viscous equation on the torus.

The discrete problem is

    F_j(u) = lambda*u_j + (H(x_{j+1/2}, D+u_j) + H(x_{j-1/2}, D-u_j))/2 - eps*Lu_j = 0,

with D+u_j = (u_{j+1} - u_j)/h, D-u_j = D+u_{j-1}, x_{j+1/2} = x_j + h/2 and
Lu the periodic central Laplacian from core. Averaging H over the two
one-sided gradients keeps the scheme second order and, unlike H(x_j, Du_j)
at the central gradient, lets the Hamiltonian see the node-alternating mode
(-1)^j. Each evaluation needs one H call on the n half-node gradients. The
Jacobian is a cyclic tridiagonal matrix, so every Newton step is one banded
solve. The averaged scheme is not monotone: a Newton run whose residual meets
the tolerance still counts as unconverged when its final Jacobian has an
expansion row (see _expansion_free). A cold start that fails is always
restarted from zero along a factor-2 descent in eps from 0.5, warm-starting
each level with the previous solution.
"""

from __future__ import annotations

import numpy as np

from .core import Grid1D, HamiltonianModel, ScalarField, SolveReport
from .tridiag import CyclicTridiagonalMatrix, solve_cyclic_tridiagonal

DAMPING = 0.5
MIN_DAMPING_STEP = 2.0 ** -20
MAX_NEWTON_ITERS = 200


def _residual_arr(model: HamiltonianModel, grid: Grid1D, u: np.ndarray,
                  lam: float, eps: float) -> np.ndarray:
    """F_j = lambda*u_j + (G_{j+1/2} + G_{j-1/2})/2 - eps*Lu_j, G_{j+1/2} = H(x_{j+1/2}, D+u_j)."""
    h = grid.h
    up = np.roll(u, -1)
    lap = (up - 2.0 * u + np.roll(u, 1)) / (h * h)
    # model.h returns a fresh array; accumulating F in place saves the
    # n-length temporaries (and heap churn) of this hot path
    g = model.h(grid.x + 0.5 * h, (up - u) / h)
    g += np.roll(g, 1)
    g *= 0.5
    g += lam * u
    g -= eps * lap
    return g


def _half_node_drift(model: HamiltonianModel, grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j)."""
    return model.dhdp(grid.x + 0.5 * grid.h, (np.roll(u, -1) - u) / grid.h)


def drift_diffusion_bands(grid: Grid1D, b_half: np.ndarray, lam: float,
                          eps: float) -> CyclicTridiagonalMatrix:
    """Bands of v -> lambda*v_j + (b_{j+1/2}*D+v_j + b_{j-1/2}*D-v_j)/2 - eps*Lv_j.

    super_j = b_{j+1/2}/(2h) - eps/h^2, sub_j = -b_{j-1/2}/(2h) - eps/h^2,
    diag_j = lambda + 2 eps/h^2 + (b_{j-1/2} - b_{j+1/2})/(2h), with periodic
    corners. Every row sums to lambda. At the half-node drift of u this is
    the Newton Jacobian; its transpose is the adjoint (Fokker-Planck) operator.
    """
    h = grid.h
    bm = np.roll(b_half, 1)  # b_{j-1/2}
    visc = eps / (h * h)
    return CyclicTridiagonalMatrix(diag=lam + 2.0 * visc + (bm - b_half) / (2.0 * h),
                                   sub=-bm / (2.0 * h) - visc,
                                   super=b_half / (2.0 * h) - visc)


def _jacobian_arr(model: HamiltonianModel, grid: Grid1D, u: np.ndarray,
                  lam: float, eps: float) -> CyclicTridiagonalMatrix:
    return drift_diffusion_bands(grid, _half_node_drift(model, grid, u), lam, eps)


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
    return ScalarField(u.grid, _residual_arr(model, u.grid, u.values, lam, eps))


def viscous_jacobian(model: HamiltonianModel, u: ScalarField, lam: float,
                     eps: float) -> CyclicTridiagonalMatrix:
    """Exact Jacobian of the residual at u: drift_diffusion_bands at the
    half-node drift b_{j+1/2} = dHdp(x_{j+1/2}, D+u_j)."""
    return _jacobian_arr(model, u.grid, u.values, lam, eps)


def _newton(model: HamiltonianModel, lam: float, eps: float, grid: Grid1D,
            u0: np.ndarray, tol: float) -> tuple[np.ndarray, int, float, bool]:
    """One damped Newton run at fixed eps from u0. Returns (u, iters, residual, converged).

    A run whose residual meets the tolerance converges only if the Jacobian
    at its final iterate is expansion free.
    """
    u = u0.copy()
    res = _residual_arr(model, grid, u, lam, eps)
    rnorm = float(np.max(np.abs(res)))
    it = 0
    while rnorm > tol:
        if it == MAX_NEWTON_ITERS:
            return u, it, rnorm, False
        step = solve_cyclic_tridiagonal(_jacobian_arr(model, grid, u, lam, eps), -res)
        it += 1
        t = 1.0
        while True:
            trial = u + t * step
            trial_res = _residual_arr(model, grid, trial, lam, eps)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and trial_norm < rnorm:
                u, res, rnorm = trial, trial_res, trial_norm
                break
            t *= DAMPING
            if t < MIN_DAMPING_STEP:
                # stalled: no damped step reduces the residual
                return u, it, rnorm, False
    jac = _jacobian_arr(model, grid, u, lam, eps)
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
                  tol: float = 1e-10) -> tuple[ScalarField, SolveReport]:
    """Solve the discounted viscous equation; never raises on non-convergence.

    Newton runs cold from zero at eps to the residual inf-norm tol. If that
    fails, it restarts from zero at eps = 0.5 and descends the continuation
    chain, each level warm-started from the previous one, until a level fails
    or eps is reached. The report carries the iteration count (summed over
    all runs), the final residual inf-norm, the convergence flag and how many
    continuation levels ran (0 for a successful cold start). converged=False
    covers a Newton stall, an exhausted iteration budget (MAX_NEWTON_ITERS
    per run), and a residual that meets the tolerance at a field whose
    Jacobian has an expansion row, where the non-monotone averaged scheme
    cannot be trusted.
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError(f"lambda must be positive, got {lam!r}")
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    zero = np.zeros(grid.n)
    total = 0
    for steps, level in enumerate([eps] + _continuation_chain(eps)):
        # the cold start and the first continuation level both start from zero
        u, it, rnorm, ok = _newton(model, lam, level, grid, u if steps > 1 else zero, tol)
        total += it
        if ok == (steps == 0):
            # a converged cold start needs no continuation; a failed level ends it
            break
    return ScalarField(grid, u), SolveReport(total, rnorm, ok, steps)
