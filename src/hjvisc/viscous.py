"""Damped Newton solver for the discounted viscous equation on the torus.

The discrete problem is

    F_j(u) = lambda*u_j + H(x_j, Du_j) - eps*Lu_j = 0,

with Du and Lu the periodic central stencils from core. The Jacobian is a
cyclic tridiagonal matrix, so every Newton step is one banded solve. With
continuation enabled, a cold start that stalls is restarted along a factor-2
descent in eps from max(eps, 0.5), warm-starting each level with the previous
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, HamiltonianModel, ScalarField, SolveReport
from .tridiag import CyclicTridiagonalMatrix, solve_cyclic_tridiagonal

MIN_DAMPING_STEP = 2.0 ** -20


@dataclass
class ViscousOptions:
    tol_residual_inf: float = 1e-10
    max_newton_iters: int = 200
    damping: float = 0.5
    continuation: bool = True
    initial_guess: ScalarField | None = None

    def __post_init__(self) -> None:
        if not (self.tol_residual_inf > 0.0):
            raise ValueError("tol_residual_inf must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if not (0.0 < self.damping < 1.0):
            raise ValueError("damping factor must lie in (0, 1)")


def _residual_arr(model: HamiltonianModel, grid: Grid1D, u: np.ndarray,
                  lam: float, eps: float) -> np.ndarray:
    """F_j = lambda*u_j + H(x_j, (u_{j+1}-u_{j-1})/(2h)) - eps*(u_{j+1}-2u_j+u_{j-1})/h^2."""
    h = grid.h
    up = np.roll(u, -1)
    um = np.roll(u, 1)
    du = (up - um) / (2.0 * h)
    lap = (up - 2.0 * u + um) / (h * h)
    return lam * u + model.h(grid.x, du) - eps * lap


def _jacobian_arr(model: HamiltonianModel, grid: Grid1D, u: np.ndarray,
                  lam: float, eps: float) -> CyclicTridiagonalMatrix:
    h = grid.h
    du = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)
    hp = model.dhdp(grid.x, du)
    visc = eps / (h * h)
    diag = np.full(grid.n, lam + 2.0 * visc)
    sub = -hp / (2.0 * h) - visc
    sup = hp / (2.0 * h) - visc
    return CyclicTridiagonalMatrix(diag=diag, sub=sub, super=sup)


def viscous_residual(model: HamiltonianModel, u: ScalarField, lam: float,
                     eps: float) -> ScalarField:
    """Pointwise residual lambda*u + H(x, Du) - eps*Lu of a candidate field."""
    return ScalarField(u.grid, _residual_arr(model, u.grid, u.values, lam, eps))


def viscous_jacobian(model: HamiltonianModel, u: ScalarField, lam: float,
                     eps: float) -> CyclicTridiagonalMatrix:
    """Exact Jacobian of the residual at u.

    diag_j = lambda + 2 eps/h^2, sub/super_j = -/+ dHdp(x_j, Du_j)/(2h) - eps/h^2,
    with periodic corners.
    """
    return _jacobian_arr(model, u.grid, u.values, lam, eps)


def _newton(model, lam, eps, grid, u0, opts) -> tuple[np.ndarray, int, float, bool]:
    """One damped Newton run at fixed eps. Returns (u, iters, residual, converged)."""
    u = u0.copy()
    res = _residual_arr(model, grid, u, lam, eps)
    rnorm = float(np.max(np.abs(res)))
    for it in range(opts.max_newton_iters):
        if rnorm <= opts.tol_residual_inf:
            return u, it, rnorm, True
        jac = _jacobian_arr(model, grid, u, lam, eps)
        step = solve_cyclic_tridiagonal(jac, -res)
        t = 1.0
        while True:
            trial = u + t * step
            trial_res = _residual_arr(model, grid, trial, lam, eps)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and trial_norm < rnorm:
                u, res, rnorm = trial, trial_res, trial_norm
                break
            t *= opts.damping
            if t < MIN_DAMPING_STEP:
                # stalled: no damped step reduces the residual
                return u, it + 1, rnorm, False
    return u, opts.max_newton_iters, rnorm, rnorm <= opts.tol_residual_inf


def _continuation_chain(eps: float) -> list[float]:
    top = max(eps, 0.5)
    chain = [top]
    while chain[-1] / 2.0 > eps:
        chain.append(chain[-1] / 2.0)
    if chain[-1] != eps:
        chain.append(eps)
    return chain


def solve_viscous(model: HamiltonianModel, lam: float, eps: float, grid: Grid1D,
                  opts: ViscousOptions | None = None) -> tuple[ScalarField, SolveReport]:
    """Solve the discounted viscous equation; never raises on non-convergence.

    The report carries the iteration count (summed over continuation levels),
    the final residual inf-norm, the convergence flag and how many
    continuation levels ran (0 for a successful cold start).
    """
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ValueError(f"lambda must be positive, got {lam!r}")
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")
    opts = opts or ViscousOptions()
    if opts.initial_guess is not None:
        if opts.initial_guess.grid != grid:
            raise ValueError("initial guess lives on a different grid")
        u0 = opts.initial_guess.values.copy()
    else:
        u0 = np.zeros(grid.n)

    u, iters, rnorm, ok = _newton(model, lam, eps, grid, u0, opts)
    if ok or not opts.continuation:
        return ScalarField(grid, u), SolveReport(iters, rnorm, ok, 0)

    chain = _continuation_chain(eps)
    if chain == [eps]:
        # nothing larger to descend from; the cold start already was this solve
        return ScalarField(grid, u), SolveReport(iters, rnorm, False, 0)
    total = iters
    warm = u0
    steps = 0
    for level in chain:
        warm, it, rnorm, ok = _newton(model, lam, level, grid, warm, opts)
        total += it
        steps += 1
        if not ok:
            break
    return ScalarField(grid, warm), SolveReport(total, rnorm, ok and chain[-1] == eps, steps)


# ----------------------------------------------------------------------------
# Neumann variant on the half interval [0, pi]


@dataclass(frozen=True)
class HalfIntervalField:
    """Nodal values on x_j = j*pi/n_half, j = 0..n_half (both endpoints kept)."""

    n_half: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        if vals.shape != (self.n_half + 1,):
            raise ValueError("half-interval field needs n_half + 1 values")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return np.pi / self.n_half

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.n_half + 1)


def _check_reflection_symmetry(model: HamiltonianModel, n_probe: int = 64) -> None:
    """The Neumann reduction assumes H(x, p) = H(2*pi - x, -p)."""
    xs = np.linspace(0.0, np.pi, n_probe)
    ps = np.linspace(-3.0, 3.0, 7)
    a = model.h(xs[:, None], ps[None, :])
    b = model.h((2.0 * np.pi - xs)[:, None], (-ps)[None, :])
    gap = float(np.max(np.abs(a - b)))
    if gap > 1e-9:
        raise ValueError(
            f"model {model.descriptor!r} is not symmetric under x -> 2*pi - x, p -> -p "
            f"(gap {gap:.3e}); the Neumann reduction does not apply")


def neumann_residual(model: HamiltonianModel, lam: float, eps: float,
                     u: np.ndarray, n_half: int) -> np.ndarray:
    """Residual on [0, pi] with ghost nodes u_{-1} = u_1 and u_{N+1} = u_{N-1}."""
    h = np.pi / n_half
    x = h * np.arange(n_half + 1)
    ext = np.concatenate([[u[1]], u, [u[-2]]])
    du = (ext[2:] - ext[:-2]) / (2.0 * h)
    lap = (ext[2:] - 2.0 * u + ext[:-2]) / (h * h)
    return lam * u + model.h(x, du) - eps * lap


def solve_viscous_neumann(model: HamiltonianModel, lam: float, eps: float,
                          n_half: int, opts: ViscousOptions | None = None
                          ) -> tuple[HalfIntervalField, SolveReport]:
    """Half-interval solve for reflection-symmetric models.

    The even extension of the solution solves the torus problem, so this is
    the torus solver restricted to [0, pi] with homogeneous Neumann ends
    realized through ghost nodes.
    """
    if not (lam > 0.0 and math.isfinite(lam) and eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"lambda and eps must be positive and finite, got {lam!r}, {eps!r}")
    if n_half < 4:
        raise ValueError("n_half must be at least 4")
    _check_reflection_symmetry(model)
    opts = opts or ViscousOptions()

    h = np.pi / n_half
    x = h * np.arange(n_half + 1)
    visc = eps / (h * h)
    m = n_half + 1

    def jac_banded(u: np.ndarray):
        from scipy.linalg import solve_banded

        ext = np.concatenate([[u[1]], u, [u[-2]]])
        du = (ext[2:] - ext[:-2]) / (2.0 * h)
        hp = model.dhdp(x, du)
        diag = np.full(m, lam + 2.0 * visc)
        sup = hp / (2.0 * h) - visc
        sub = -hp / (2.0 * h) - visc
        # ghost rows: Du is identically zero there, only diffusion couples
        sup[0] = -2.0 * visc
        sub[-1] = -2.0 * visc
        ab = np.zeros((3, m))
        ab[0, 1:] = sup[:-1]
        ab[1, :] = diag
        ab[2, :-1] = sub[1:]

        def solve(rhs):
            return solve_banded((1, 1), ab, rhs, check_finite=False)

        return solve

    u = np.zeros(m)
    res = neumann_residual(model, lam, eps, u, n_half)
    rnorm = float(np.max(np.abs(res)))
    iters = 0
    ok = False
    for it in range(opts.max_newton_iters):
        if rnorm <= opts.tol_residual_inf:
            ok = True
            iters = it
            break
        step = jac_banded(u)(-res)
        t = 1.0
        while True:
            trial = u + t * step
            trial_res = neumann_residual(model, lam, eps, trial, n_half)
            trial_norm = float(np.max(np.abs(trial_res)))
            if np.isfinite(trial_norm) and trial_norm < rnorm:
                u, res, rnorm = trial, trial_res, trial_norm
                break
            t *= opts.damping
            if t < MIN_DAMPING_STEP:
                return HalfIntervalField(n_half, u), SolveReport(it + 1, rnorm, False, 0)
    else:
        iters = opts.max_newton_iters
        ok = rnorm <= opts.tol_residual_inf
    return HalfIntervalField(n_half, u), SolveReport(iters, rnorm, ok, 0)
