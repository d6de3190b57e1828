"""Shared fixtures. The expensive solves are session-scoped and reused
across the module tests and the acceptance criteria."""

import pytest

import hjvisc as hv


@pytest.fixture(scope="session")
def pendulum():
    return hv.pendulum_hamiltonian()


@pytest.fixture(scope="session")
def grid2048():
    return hv.Grid1D(2048)


@pytest.fixture(scope="session")
def sweep_a02(pendulum):
    """Rate sweep at alpha = 0.2, n = 2048 (fully resolved regime)."""
    return hv.run_sweep(pendulum, 0.2)


@pytest.fixture(scope="session")
def sweep_a06(pendulum):
    """Rate sweep at alpha = 0.6, n = 2048.

    From lambda of about 2e-2 down, eps = lambda^1.6 falls below the grid
    step h and the non-monotone half-node scheme rings in the nodes next to
    the concave kink at x = pi (a node-alternating ripple of at most about
    1e-4 in u). The gap keeps its analytic O(lambda^0.6) size down the whole
    ladder; tests that need a resolved kink (second differences, measures)
    use only the head records.
    """
    return hv.run_sweep(pendulum, 0.6)


@pytest.fixture(scope="session")
def std_run(pendulum, grid2048):
    """Reference discounted solve at (lambda, eps) = (1e-2, 5e-2), n = 2048."""
    lam, eps = 1e-2, 5e-2
    u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
    assert report.converged
    theta0 = hv.solve_adjoint_stationary(pendulum, u, lam, eps, 0)
    theta_half = hv.solve_adjoint_stationary(pendulum, u, lam, eps,
                                             grid2048.n // 2)
    return {"lam": lam, "eps": eps, "grid": grid2048, "u": u,
            "report": report, "theta0": theta0, "theta_half": theta_half}


@pytest.fixture(scope="session")
def ode_reference():
    """Inviscid pendulum solution at lambda = 0.05 on the n = 2048 torus."""
    return hv.solve_pendulum_ode(0.05, 1024)


@pytest.fixture(scope="session")
def transient_pair(pendulum):
    """Stationary adjoint density vs the discounted time average of the
    transient flow at (lambda, eps) = (1.25e-3, 2.5e-2), n = 256, with
    horizon T = 20/lambda and dt = h.

    Averages about 6.5e5 implicit Euler steps in blocks of n = 256 (about
    half a second, against about 17 s when streamed one step at a time);
    shared by the module test and the acceptance criterion.
    """
    grid = hv.Grid1D(256)
    lam, eps = 1.25e-3, 2.5e-2
    u, report = hv.solve_viscous(pendulum, lam, eps, grid)
    assert report.converged
    stationary = hv.solve_adjoint_stationary(pendulum, u, lam, eps, 0)
    drift = hv.drift_field(pendulum, u)
    snaps = hv.evolve_fokker_planck(drift, eps, 0, 20.0 / lam)
    averaged = hv.stationary_from_transient(snaps, lam)
    return {"stationary": stationary, "averaged": averaged}
