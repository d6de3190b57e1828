"""Inviscid discounted solutions: pendulum ODE branch and Lax-Friedrichs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _dop853_branch(lam, n_half):
    """DOP853 (rtol 1e-13, atol 1e-15) solution of the branch ODE at the nodes j*pi/n_half."""
    from scipy.integrate import solve_ivp  # oracle only; hjvisc never imports it

    def rhs(t, y):
        return np.sqrt(2.0 * np.maximum(1.0 - np.cos(t) - lam * y, 0.0))
    sol = solve_ivp(rhs, (0.0, np.pi), [0.0], method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    return sol.sol(np.arange(n_half + 1) * (np.pi / n_half))[0]


def test_pendulum_ode_matches_dop853():
    """The collocation is solved to roundoff: within 1e-11 of DOP853 on both
    sweep grids and every default lambda (classical RK4 was 8e-9 off)."""
    for n_half in (1024, 8192):
        for lam in hv.DEFAULT_LAMBDA_LIST:
            u = hv.solve_pendulum_ode(lam, n_half).values[: n_half + 1]
            assert float(np.max(np.abs(u - _dop853_branch(lam, n_half)))) <= 1e-11, (n_half, lam)


def test_pendulum_ode_settles_past_the_two_cycle():
    """From lambda ~ 0.6 plain sweeps crawl or two-cycle; relaxed ones settle on the
    collocation (the RK4 this replaced raised from lambda = 0.8 even at n_half = 8192)."""
    for lam in (0.6, 0.7, 0.9, 1.1):
        u = hv.solve_pendulum_ode(lam, 1024).values[:1025]
        assert float(np.max(np.abs(u - _dop853_branch(lam, 1024)))) <= 1e-11, lam


@settings(derandomize=True, deadline=None, max_examples=40)
@given(lams=st.lists(st.floats(1e-3, 0.3), min_size=2, max_size=2), k=st.integers(4, 13))
def test_pendulum_ode_invariants(lams, k):
    """u(0) = 0, exact even reflection, nondecreasing on [0, pi], and
    nonincreasing in lambda up to the sweeps' roundoff stop (about 4e-15)."""
    n_half = 2 ** k
    n = 2 * n_half
    lo, hi = sorted(lams)
    u_lo = hv.solve_pendulum_ode(lo, n_half).values
    u_hi = hv.solve_pendulum_ode(hi, n_half).values
    for vals in (u_lo, u_hi):
        assert vals[0] == 0.0
        assert np.array_equal(vals, vals[(-np.arange(n)) % n])
        assert np.all(np.diff(vals[: n_half + 1]) >= 0.0)
    assert np.all(u_hi <= u_lo + 1e-14)


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
    """At eps = sigma*h/2 and max|D+u| <= sigma, the program's residual is a
    monotone scheme: raising u_k never raises F_j at any j != k, and the
    Jacobian's off-diagonals are nonpositive."""
    n = 64
    g = hv.Grid1D(n)
    rng = np.random.RandomState(11)
    base = hv.ScalarField(g, 0.4 * np.sin(g.x) + 0.05 * rng.standard_normal(n))
    lam, sigma = 0.1, 3.0
    eps = 0.5 * sigma * g.h
    assert np.max(np.abs(hv.drift_field(pendulum, base).values)) <= sigma
    jac = hv.viscous_jacobian(base, lam, eps)
    assert np.all(jac.sub <= 0.0) and np.all(jac.super <= 0.0)
    ref = hv.viscous_residual(pendulum, base, lam, eps).values
    for k in (0, 7, 33, 50):
        bumped = base.values.copy()
        bumped[k] += 1e-6
        res = hv.viscous_residual(pendulum, hv.ScalarField(g, bumped), lam, eps).values
        drop = np.delete(ref - res, k)
        assert float(np.min(drop)) >= -1e-15
        assert float(np.max(drop)) > 0.0  # the bump reaches the neighbours


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
