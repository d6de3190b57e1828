"""Inviscid discounted solutions: pendulum ODE branch and Lax-Friedrichs."""

import numpy as np
import pytest

import hjvisc as hv
from hjvisc.inviscid import checked_radicand


def test_checked_radicand_paths():
    assert checked_radicand(0.5) == 0.5
    assert checked_radicand(0.0) == 0.0
    assert checked_radicand(-1e-9) == 0.0  # roundoff dip clamps to zero
    with pytest.raises(hv.ConvergenceError):
        checked_radicand(-1e-7)


def test_pendulum_ode_structure(ode_reference):
    vals = ode_reference.values
    n = vals.shape[0]
    assert n == 2048
    assert vals[0] == 0.0
    # even reflection: u(2*pi - x) = u(x) exactly by construction
    idx = (-np.arange(n)) % n
    assert np.array_equal(vals, vals[idx])
    # nondecreasing from the bottom of the well to the separatrix
    half = vals[:n // 2 + 1]
    assert np.all(np.diff(half) >= 0.0)
    assert np.all(vals >= 0.0)
    # discrete gradient vanishes at the symmetry point x = 0
    du0 = (vals[1] - vals[-1]) / (2.0 * ode_reference.grid.h)
    assert du0 == 0.0


def test_pendulum_ode_scaling_with_lambda():
    # stronger discounting shrinks the value function
    u_small = hv.solve_pendulum_ode(0.05, 128)
    u_large = hv.solve_pendulum_ode(0.5, 128)
    assert np.all(u_large.values <= u_small.values + 1e-12)
    with pytest.raises(ValueError):
        hv.solve_pendulum_ode(0.0, 128)
    with pytest.raises(ValueError):
        hv.solve_pendulum_ode(0.05, 3)


def test_pendulum_ode_rejects_non_integer_half_grid():
    with pytest.raises(ValueError, match="integer"):
        hv.solve_pendulum_ode(0.1, 4.5)


def test_lax_friedrichs_flat_is_exact():
    u, report = hv.solve_discounted_lax_friedrichs(
        hv.flat_hamiltonian(), 0.1, hv.Grid1D(128), 1.0)
    assert np.all(u.values == 0.0)
    assert report.converged
    assert report.iterations <= 1


def test_lax_friedrichs_cross_validates_ode(pendulum):
    """Fixed point vs the characteristic ODE at lambda = 0.05, sigma = 2.

    The first-order scheme carries an O(h) kink error; the rescaled gap
    C = ||gap||/h sits near 19.5 and moves under 1 percent when h halves.
    """
    cs = {}
    for n in (512, 1024):
        u, report = hv.solve_discounted_lax_friedrichs(
            pendulum, 0.05, hv.Grid1D(n), 2.0)
        assert report.converged
        ref = hv.solve_pendulum_ode(0.05, n // 2)
        cs[n] = float(np.max(np.abs(u.values - ref.values))) / u.grid.h
        # discounted sup bound: lambda * max u <= max(-V) = 2
        assert 0.05 * float(np.max(np.abs(u.values))) <= 2.0
    assert 15.0 <= cs[512] <= 25.0, cs
    assert abs(cs[1024] / cs[512] - 1.0) <= 0.02, cs


def test_lax_friedrichs_monotone_update(pendulum):
    """Raising any nodal value never lowers the updated value elsewhere."""
    n = 64
    g = hv.Grid1D(n)
    rng = np.random.RandomState(11)
    base = 0.4 * np.sin(g.x) + 0.05 * rng.standard_normal(n)
    lam, sigma = 0.1, 3.0
    omega = g.h / (sigma + lam * g.h)

    def update(v):
        right = np.roll(v, -1)
        left = np.roll(v, 1)
        ham = pendulum.h(g.x, (right - left) / (2.0 * g.h))
        return (1.0 - lam * omega) * v + omega * (
            -ham + sigma * (right - 2.0 * v + left) / (2.0 * g.h))

    ref = update(base)
    for k in (0, 7, 33, 50):
        bumped = base.copy()
        bumped[k] += 1e-6
        drop = float(np.min(update(bumped) - ref))
        assert drop >= -1e-15


def test_lax_friedrichs_divergence_advice(pendulum):
    # sigma far below the gradient bound breaks monotonicity and blows up
    with pytest.raises(hv.ConvergenceError, match="sigma"):
        hv.solve_discounted_lax_friedrichs(pendulum, 0.05, hv.Grid1D(256), 0.05)


def test_lax_friedrichs_validation(pendulum):
    g = hv.Grid1D(64)
    with pytest.raises(ValueError):
        hv.solve_discounted_lax_friedrichs(pendulum, 0.0, g, 1.0)
    with pytest.raises(ValueError):
        hv.solve_discounted_lax_friedrichs(pendulum, 0.1, g, 0.0)


def test_lax_friedrichs_solves_viscous_equation_at_numerical_viscosity(pendulum):
    """The scheme is the viscous equation at eps = sigma*h/2, solved to the Newton stop."""
    lam, sigma = 0.05, 2.0
    g = hv.Grid1D(256)
    eps = 0.5 * sigma * g.h
    u, report = hv.solve_discounted_lax_friedrichs(pendulum, lam, g, sigma)
    assert report.converged
    res = float(np.max(np.abs(hv.viscous_residual(pendulum, u, lam, eps).values)))
    floor = 4.0 * eps / g.h ** 2 * np.spacing(np.max(np.abs(u.values)))
    assert res <= max(hv.viscous.TOL, floor)


def test_lax_friedrichs_rejects_speed_above_sigma(pendulum):
    """Newton converges here, but max |dH/dp| = 1.57 on the solution exceeds sigma = 1."""
    lam, sigma = 0.25, 1.0
    g = hv.Grid1D(256)
    _, report = hv.solve_viscous(pendulum, lam, 0.5 * sigma * g.h, g)
    assert report.converged
    with pytest.raises(hv.ConvergenceError, match="sigma"):
        hv.solve_discounted_lax_friedrichs(pendulum, lam, g, sigma)
