"""Ergodic constant estimation and discrete measure extraction."""

import numpy as np
import pytest

import hjvisc as hv


def test_discrete_measure_validation():
    p = np.linspace(0.0, 3.0, 4)
    v = np.zeros(4)
    w = np.full(4, 0.25)
    mu = hv.DiscreteMeasure(p, v, w)
    assert len(mu.support) == 4
    assert mu.support[2] == (p[2], 0.0)

    with pytest.raises(ValueError):
        hv.DiscreteMeasure(p, v, np.full(4, 0.3))  # sums to 1.2
    with pytest.raises(ValueError):
        hv.DiscreteMeasure(p, v, np.array([0.5, 0.6, -0.1, 0.0]))
    with pytest.raises(ValueError):
        hv.DiscreteMeasure(p, np.zeros(3), w)
    with pytest.raises(ValueError):
        hv.DiscreteMeasure(np.array([]), np.array([]), np.array([]))


def test_flat_potential_ergodic_constant_is_zero():
    c = hv.estimate_ergodic_constant(hv.flat_hamiltonian(), 0.1,
                                     (1e-2, 5e-3, 2.5e-3), hv.Grid1D(128))
    assert abs(c) <= 1e-8


def test_ergodic_constant_validation(pendulum):
    g = hv.Grid1D(128)
    with pytest.raises(ValueError):
        hv.estimate_ergodic_constant(pendulum, 0.1, (1e-2, 5e-3), g)
    with pytest.raises(ValueError):
        hv.estimate_ergodic_constant(pendulum, 0.1, (1e-2, 1e-2, 5e-3), g)
    with pytest.raises(ValueError):
        hv.estimate_ergodic_constant(pendulum, 0.1, (1e-2, 5e-3, -1e-3), g)
    with pytest.raises(ValueError):
        hv.estimate_ergodic_constant(pendulum, -0.1, (1e-2, 5e-3, 2.5e-3), g)


def test_ergodic_constant_propagates_solver_failure(pendulum, monkeypatch):
    monkeypatch.setattr(hv.viscous, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(hv.ConvergenceError):
        hv.estimate_ergodic_constant(pendulum, 0.1, (1e-2, 5e-3, 2.5e-3),
                                     hv.Grid1D(256))


def test_pendulum_ergodic_constant_scale(pendulum):
    # c(eps) sits just below zero at roughly -eps for this potential
    c = hv.estimate_ergodic_constant(pendulum, 0.1, (1e-2, 5e-3, 2.5e-3),
                                     hv.Grid1D(1024))
    assert -0.11 <= c <= -0.09
    assert abs(c + 0.0987338) <= 1e-3  # frozen reference value


def test_extract_measure_contract(pendulum, std_run):
    mu = hv.extract_measure(pendulum, std_run["u"], std_run["theta0"])
    assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-12
    assert np.all(mu.weights >= 0.0)
    assert mu.positions.shape == mu.velocities.shape == mu.weights.shape

    grid = hv.Grid1D(64)
    zero = hv.ScalarField(grid, np.zeros(64))
    theta = hv.solve_adjoint_stationary(hv.flat_hamiltonian(), zero,
                                        0.1, 0.1, 0)
    mu0 = hv.extract_measure(hv.flat_hamiltonian(), zero, theta)
    assert np.all(mu0.velocities == 0.0)
    assert hv.measure_action(mu0, hv.flat_hamiltonian()) == 0.0

    with pytest.raises(ValueError):
        hv.extract_measure(pendulum, std_run["u"], zero)  # not a DensityField
    u32, _ = hv.solve_viscous(pendulum, 0.1, 0.1, grid)
    with pytest.raises(ValueError):
        hv.extract_measure(pendulum, u32, std_run["theta0"])


def test_measure_action_is_exact(pendulum, std_run):
    """sum w L(x_{j+1/2}, b_{j+1/2}) = lambda * u(x0) to solver roundoff at
    both sources: theta solves J^T theta = lambda*delta/h, and J u pays out
    the half-node Lagrangians (L_{j+1/2} + L_{j-1/2})/2 where F(u) = 0."""
    lam, u = std_run["lam"], std_run["u"]
    for theta, x0 in ((std_run["theta0"], 0),
                      (std_run["theta_half"], std_run["grid"].n // 2)):
        mu = hv.extract_measure(pendulum, u, theta)
        action = hv.measure_action(mu, pendulum)
        target = lam * float(u.values[x0])
        assert abs(action - target) <= 1e-9 * abs(target), (x0, action, target)


def test_measure_concentrates_at_potential_maximum(pendulum, grid2048):
    """Small lambda: the measure piles onto the projected Aubry set.

    For H = p^2/2 + cos x - 1 the potential maximum (and the only point
    where L(x, 0) = 0) is x = 0, so that is where mass accumulates. eps is
    kept at 5e-3, the smallest value the n = 2048 grid resolves.
    """
    lam, eps = 1e-3, 5e-3
    u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
    assert report.converged
    theta = hv.solve_adjoint_stationary(pendulum, u, lam, eps, 0)
    mu = hv.extract_measure(pendulum, u, theta)
    dist = np.minimum(mu.positions, hv.TWO_PI - mu.positions)
    near = float(np.sum(mu.weights[dist <= 1.0]))
    assert near >= 0.9
    far = float(np.sum(mu.weights[np.abs(mu.positions - np.pi) <= 1.0]))
    assert far <= 1e-6
    assert int(np.argmax(theta.values)) == 0


def test_action_identity_on_resolved_sweep_records(pendulum, grid2048,
                                                   sweep_a02, sweep_a06):
    """sum w L(x, v) = lambda * u(x0) within 1e-3 on records whose eps the
    grid resolves; underresolved tails are covered by the rejection tests."""
    resolved = list(sweep_a02.records)[:5] + list(sweep_a06.records)[:3]
    for rec in resolved:
        u, report = hv.solve_viscous(pendulum, rec.lam, rec.epsilon, grid2048)
        assert report.converged
        theta = hv.solve_adjoint_stationary(pendulum, u, rec.lam,
                                            rec.epsilon, 0)
        mu = hv.extract_measure(pendulum, u, theta)
        action = hv.measure_action(mu, pendulum)
        target = rec.lam * float(u.values[0])
        assert abs(action - target) / abs(target) <= 1e-3, (rec.lam, action)


def test_closedness_defect_trivial_and_symmetric(pendulum, std_run):
    grid = std_run["grid"]
    mu = hv.extract_measure(pendulum, std_run["u"], std_run["theta0"])
    const = hv.ScalarField(grid, np.full(grid.n, 3.0))
    assert hv.closedness_defect(mu, std_run["eps"], const) == 0.0
    # source on the symmetry axis: the sin moments cancel exactly
    phi = hv.ScalarField(grid, np.sin(grid.x))
    assert hv.closedness_defect(mu, std_run["eps"], phi) <= 1e-12


def test_closedness_defect_shrinks_with_lambda(pendulum, grid2048):
    """Defect = |lambda*(phi(x0) - int phi dmu)| + O(h^2), so it scales
    linearly in lambda; x0 = n/4 keeps the phi moments from cancelling."""
    eps, x0 = 5e-3, grid2048.n // 4
    phi = hv.ScalarField(grid2048, np.sin(grid2048.x))

    def defect(lam):
        u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
        assert report.converged
        theta = hv.solve_adjoint_stationary(pendulum, u, lam, eps, x0)
        mu = hv.extract_measure(pendulum, u, theta)
        return hv.closedness_defect(mu, eps, phi)

    d_big, d_small = defect(1e-2), defect(1e-3)
    assert d_small <= 2.0 * 1e-3 * 1.0 + 1e-3  # 2*lambda*max|phi| + 1e-3
    assert 5.0 <= d_big / d_small <= 15.0
    assert d_big <= 3.0 * 1e-2  # observed constant <= 3*max|phi|


def test_eps_closedness_is_exact_for_the_jacobian(pendulum, std_run):
    """h*sum theta_j*(J phi - lambda*phi)_j = lambda*(phi(x0) - h*sum theta_j*phi_j),
    J the Newton Jacobian, to 1e-9 relative to lambda at both sources."""
    lam, eps, grid = std_run["lam"], std_run["eps"], std_run["grid"]
    jac = hv.viscous_jacobian(pendulum, std_run["u"], lam, eps)
    for phi in (np.sin(grid.x), np.cos(2.0 * grid.x)):
        for theta, x0 in ((std_run["theta0"], 0),
                          (std_run["theta_half"], grid.n // 2)):
            lhs = grid.h * float(np.sum(theta.values * (jac.matvec(phi) - lam * phi)))
            rhs = lam * (phi[x0] - grid.h * float(np.sum(theta.values * phi)))
            assert abs(lhs - rhs) <= 1e-9 * lam, (x0, lhs, rhs)


def test_closedness_requires_half_node_support(pendulum, std_run):
    grid = std_run["grid"]
    mu = hv.extract_measure(pendulum, std_run["u"], std_run["theta0"])
    shifted = hv.DiscreteMeasure(mu.positions + grid.h / 4.0,
                                 mu.velocities, mu.weights)
    phi = hv.ScalarField(grid, np.sin(grid.x))
    with pytest.raises(ValueError, match="half nodes"):
        hv.closedness_defect(shifted, std_run["eps"], phi)
    for bad_eps in (np.nan, np.inf, -np.inf, -0.1):
        with pytest.raises(ValueError, match="eps"):
            hv.closedness_defect(mu, bad_eps, phi)
