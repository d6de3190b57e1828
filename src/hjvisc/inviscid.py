"""Inviscid discounted solutions: exact pendulum branch ODE and a monotone scheme.

Two independent routes to u_lambda with eps = 0:

* the pendulum admits the explicit branch ODE
      u'(x) = sqrt(2 * (1 - cos x - lambda * u)),  u(0) = 0  on [0, pi],
  extended to the torus by the even reflection u(2*pi - x) = u(x), and
  solved to roundoff by Hermite-Simpson collocation in whole-grid sweeps;
* the monotone Lax-Friedrichs scheme, which is the viscous equation at
  eps = sigma*h/2 solved by damped Newton, works for any potential V and
  serves as the cross oracle. In a sweep its Newton run starts from the
  viscous field at the same lambda; a lone solve starts cold.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (ConvergenceError, Grid1D, HamiltonianModel, ScalarField, SolveReport,
                   check_index, check_positive, forward_difference)
from .viscous import solve_viscous

RADICAND_REJECT = -1e-8
MAX_SWEEPS = 200


def checked_radicand(r: float) -> float:
    """Clamp roundoff-negative radicands to zero; reject genuine branch failure.

    Values in [-1e-8, 0) are treated as arithmetic dips and clamped; anything
    below -1e-8 means the square-root branch left its domain.
    """
    if r >= 0.0:
        return r
    if r < RADICAND_REJECT:
        raise ConvergenceError(
            f"branch ODE radicand {r:.3e} fell below {RADICAND_REJECT:.0e}; "
            "the explicit pendulum branch is not valid here")
    return 0.0


def _branch_sweeps(a: np.ndarray, am: np.ndarray, lam: float, h: float) -> np.ndarray:
    """The sweeps of solve_pendulum_ode for u' = f = sqrt(2(a - lam*u)), u(0) = 0, step h, a at
    the nodes, am at the midpoints. With a ~ x^2/2 at the root, u ~ k x^2/2 (k^2 = 1 - lam*k) and
    a sweep scales that error mode by -lam/(2k); relaxing by 1/(1 + lam/(2k)) cancels it."""
    relax = 1.0 / (1.0 + lam / (math.sqrt(lam * lam + 4.0) - lam))
    u = np.zeros_like(a)
    for _ in range(MAX_SWEEPS):
        r = a - lam * u
        f = np.sqrt(2.0 * np.maximum(r, 0.0))
        rm = am - lam * (0.5 * (u[:-1] + u[1:]) + (h / 8.0) * (f[:-1] - f[1:]))
        fm = np.sqrt(2.0 * np.maximum(rm, 0.0))
        step = np.concatenate(([0.0], np.cumsum((h / 6.0) * (f[:-1] + 4.0 * fm + f[1:])))) - u
        move = float(np.max(np.abs(step)))
        if move <= 1e-15 * max(1.0, float(u[-1])):  # iterates are nondecreasing
            checked_radicand(float(min(np.min(r), np.min(rm))))
            return u
        u += relax * step
    raise ConvergenceError(f"branch ODE sweeps did not settle in {MAX_SWEEPS} at lambda {lam:.3e}")


def solve_pendulum_ode(lam: float, n_half: int) -> ScalarField:
    """Hermite-Simpson (Lobatto IIIA) collocation of the pendulum branch ODE at step pi/n_half,
    u_mid = (u_j + u_{j+1})/2 + h/8 (f_j - f_{j+1}), u_{j+1} = u_j + h/6 (f_j + 4 f_mid + f_{j+1}),
    solved on the whole grid by the relaxed Picard sweeps of _branch_sweeps until one moves u
    by at most 1e-15*max(1, max u). Iterates clamp radicands at 0; checked_radicand sees only
    the converged iterate's least radicand, and MAX_SWEEPS sweeps without settling raise
    ConvergenceError. Returns the even reflection on the n = 2*n_half torus nodes."""
    check_positive("lambda", lam)
    check_index("n_half", n_half, 4)
    h = math.pi / n_half
    c = 1.0 - np.cos(np.arange(2 * n_half + 1) * (0.5 * h))  # nodes and midpoints
    half = _branch_sweeps(c[::2], c[1::2], lam, h)
    return ScalarField(Grid1D(2 * n_half), np.concatenate((half, half[n_half - 1:0:-1])))


def solve_discounted_lax_friedrichs(model: HamiltonianModel, lam: float, grid: Grid1D,
                                    sigma: float, start: ScalarField | None = None
                                    ) -> tuple[ScalarField, SolveReport]:
    """Solve the monotone Lax-Friedrichs scheme

        lambda*u_j + [H(x_{j+1/2}, D+u_j) + H(x_{j-1/2}, D-u_j)]/2 - (sigma/2)(D+u_j - D-u_j) = 0,

    which is the viscous equation at eps = sigma*h/2, by the damped Newton of
    solve_viscous and to its stop, from start if given (run_sweep passes the
    viscous field at the same lambda) and cold otherwise; report.iterations
    counts Newton iterations. The scheme is monotone only if
    sigma >= max|D+u_j|, the largest |dH/dp|; a solution violating that, checked
    at the returned u, or a Newton stall raises ConvergenceError advising a
    larger sigma.
    """
    check_positive("lambda", lam)
    check_positive("sigma", sigma)
    u, report = solve_viscous(model, lam, 0.5 * sigma * grid.h, grid, start=start)
    report.require_converged(
        f"the Lax-Friedrichs scheme at sigma = {sigma:.3e} (retry with a larger sigma)")
    speed = float(np.max(np.abs(forward_difference(u.values, grid.h))))
    if speed > sigma:
        raise ConvergenceError(
            f"max |dH/dp| = {speed:.3e} on the solution exceeds sigma = {sigma:.3e}, "
            "so the scheme is not monotone; retry with a larger sigma")
    return u, report
