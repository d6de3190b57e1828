"""Inviscid discounted solutions: exact pendulum branch ODE and a monotone scheme.

Two independent routes to u_lambda with eps = 0:

* the pendulum admits the explicit branch ODE
      u'(x) = sqrt(2 * (1 - cos x - lambda * u)),  u(0) = 0  on [0, pi],
  extended to the torus by the even reflection u(2*pi - x) = u(x);
* the monotone Lax-Friedrichs scheme, which is the viscous equation at
  eps = sigma*h/2 solved by damped Newton, works for any potential V and
  serves as the cross oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (ConvergenceError, Grid1D, HamiltonianModel, ScalarField, SolveReport,
                   check_index, check_positive)
from .viscous import _half_node_drift, solve_viscous

RADICAND_REJECT = -1e-8


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


def solve_pendulum_ode(lam: float, n_half: int) -> ScalarField:
    """Integrate the pendulum branch ODE with classical RK4 at step pi/n_half.

    Returns the even-reflected solution as a ScalarField on the full torus
    grid with n = 2*n_half nodes (the integration nodes j*pi/n_half coincide
    with torus nodes j*2*pi/n).
    """
    check_positive("lambda", lam)
    check_index("n_half", n_half, 4)

    h = math.pi / n_half

    def f(x: float, u: float) -> float:
        r = checked_radicand(1.0 - math.cos(x) - lam * u)
        return math.sqrt(2.0 * r)

    half = np.empty(n_half + 1)
    half[0] = 0.0
    u = 0.0
    for j in range(n_half):
        x = j * h
        k1 = f(x, u)
        k2 = f(x + 0.5 * h, u + 0.5 * h * k1)
        k3 = f(x + 0.5 * h, u + 0.5 * h * k2)
        k4 = f(x + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        half[j + 1] = u

    n = 2 * n_half
    full = np.empty(n)
    full[: n_half + 1] = half
    full[n_half + 1:] = half[n_half - 1: 0: -1]
    return ScalarField(Grid1D(n), full)


def solve_discounted_lax_friedrichs(model: HamiltonianModel, lam: float, grid: Grid1D,
                                    sigma: float) -> tuple[ScalarField, SolveReport]:
    """Solve the monotone Lax-Friedrichs scheme

        lambda*u_j + [H(x_{j+1/2}, D+u_j) + H(x_{j-1/2}, D-u_j)]/2 - (sigma/2)(D+u_j - D-u_j) = 0,

    which is the viscous equation at eps = sigma*h/2, by the damped Newton of
    solve_viscous and to its stop; report.iterations counts Newton
    iterations. The scheme is monotone only if
    sigma >= max|D+u_j|, the largest |dH/dp|; a solution violating that, checked
    at the returned u, or a Newton stall raises ConvergenceError advising a
    larger sigma.
    """
    check_positive("lambda", lam)
    check_positive("sigma", sigma)
    u, report = solve_viscous(model, lam, 0.5 * sigma * grid.h, grid)
    report.require_converged(
        f"the Lax-Friedrichs scheme at sigma = {sigma:.3e} (retry with a larger sigma)")
    speed = float(np.max(np.abs(_half_node_drift(grid, u.values))))
    if speed > sigma:
        raise ConvergenceError(
            f"max |dH/dp| = {speed:.3e} on the solution exceeds sigma = {sigma:.3e}, "
            "so the scheme is not monotone; retry with a larger sigma")
    return u, report
