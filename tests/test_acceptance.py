"""Acceptance gate: the eleven headline checks, one test each.

Every criterion is implemented at its stated tolerance against the shared
session fixtures.
"""

import math

import numpy as np

import hjvisc as hv


def _both(sweep_a02, sweep_a06):
    return list(sweep_a02.records) + list(sweep_a06.records)


def test_criterion_01_rate_recovery(sweep_a02, sweep_a06):
    """Fitted log-log slope of sup|u^eps - u| vs lambda within alpha +- 0.15.

    Both sweeps run at n = 2048. A centered gradient H(x_j, Du_j) would
    annihilate the node-alternating mode, leaving it damped only by
    lambda + 4 eps / h^2; with eps = lambda^1.6 its sawtooth swamps the
    alpha = 0.6 tail and the slope falls to 0.05. The half-node average
    of H over the one-sided gradients sees that mode, and the fitted
    slopes are about 0.19 and 0.59.
    """
    assert len(sweep_a02.records) == 10
    assert len(sweep_a06.records) == 10
    s02 = sweep_a02.fitted_slope
    s06 = sweep_a06.fitted_slope
    assert abs(s02 - 0.2) <= 0.15, f"alpha=0.2 fitted slope {s02:.6f}"
    assert abs(s06 - 0.6) <= 0.15, f"alpha=0.6 fitted slope {s06:.6f}"


def test_criterion_02_two_sided_constants(sweep_a02, sweep_a06):
    """C_up and C_low each vary by a factor <= 5 across all records.

    As in harness.check_lower_bound, a record with no undershoot puts no
    constraint on C_low; when no record undershoots, the lower bound holds
    with C_low = 0 and there is no spread to gate. The centered gradient's
    undamped alternating mode drifted both constants by factors of 18-19;
    the half-node scheme keeps the C_up spread near 1.06 and undershoots
    nowhere.
    """
    records = _both(sweep_a02, sweep_a06)
    up = np.array([r.c_delta_ratio for r in records])
    low = np.array([max(r.neg_gap, 0.0)
                    / (r.epsilon / r.lam + r.epsilon * abs(math.log(r.epsilon)))
                    for r in records])
    up_live = up[up > 1e-9]
    low_live = low[low > 1e-9]
    up_spread = float(up_live.max() / up_live.min())
    assert up_spread <= 5.0, f"C_up spread {up_spread:.3f}"
    if low_live.size == 0:
        print("no record undershoots: C_low = 0")
        return
    low_spread = float(low_live.max() / low_live.min())
    assert low_spread <= 5.0, f"C_low spread {low_spread:.3f}"


def test_criterion_03_zero_point_identity(pendulum, grid2048,
                                          sweep_a02, sweep_a06):
    """|lambda*u^eps(0) - eps*Lap_h u^eps(0)| <= 10*tol + 5h^2 per record."""
    budget = 10.0 * 1e-10 + 5.0 * grid2048.h ** 2
    for rec in _both(sweep_a02, sweep_a06):
        u, report = hv.solve_viscous(pendulum, rec.lam, rec.epsilon, grid2048)
        assert report.converged
        lap0 = float(hv.discrete_laplacian(u).values[0])
        gap = abs(rec.lam * float(u.values[0]) - rec.epsilon * lap0)
        assert gap <= budget, (rec.lam, rec.epsilon, gap)


def test_criterion_04_manufactured_order():
    """u* = 0.3 sin x: halving h divides the error by [3, 5]; n=2048 <= 1e-6."""
    lam, eps = 0.1, 0.05

    def potential(x):
        return (eps * (-0.3 * np.sin(x)) - lam * 0.3 * np.sin(x)
                - (0.3 * np.cos(x)) ** 2 / 2.0)

    model = hv.separable_hamiltonian(potential, name="manufactured")
    errs = []
    for n in (256, 512, 1024, 2048):
        grid = hv.Grid1D(n)
        u, report = hv.solve_viscous(model, lam, eps, grid)
        assert report.converged
        errs.append(float(np.max(np.abs(u.values - 0.3 * np.sin(grid.x)))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(3.0 <= r <= 5.0 for r in ratios), ratios
    assert errs[-1] <= 1e-6, errs[-1]


def test_criterion_05_adjoint_identities(pendulum, std_run):
    """Both duality identities within 1e-3 relative; mass and sign gates."""
    lam, eps = std_run["lam"], std_run["eps"]
    u = std_run["u"]
    grid = std_run["grid"]

    for theta in (std_run["theta0"], std_run["theta_half"]):
        assert abs(grid.h * float(theta.values.sum()) - 1.0) <= 1e-8
        assert float(theta.values.min()) >= -1e-12

    # (i) Lagrangian action along the feedback drift pays out lambda*u(x0)
    du = hv.central_gradient(u).values
    lag = pendulum.lagrangian(grid.x, pendulum.dhdp(grid.x, du))
    for theta, x0 in ((std_run["theta0"], 0),
                      (std_run["theta_half"], grid.n // 2)):
        lhs = grid.h * float(np.sum(lag * theta.values))
        rhs = lam * float(u.values[x0])
        assert abs(lhs - rhs) / abs(rhs) <= 1e-3, (x0, lhs, rhs)

    # (ii) the generator of the drift diffusion integrates against theta
    # like a point evaluation; x0 = n/2 keeps the right side away from its
    # cancellation at the potential maximum. The half-node drift b_{j+1/2}
    # pairs with D+psi_j at the weight (theta_j + theta_{j+1})/2.
    psi = np.cos(grid.x)
    dpsi = (np.roll(psi, -1) - psi) / grid.h
    lpsi = hv.discrete_laplacian(hv.ScalarField(grid, psi)).values
    b = hv.drift_field(pendulum, u).values
    theta = std_run["theta_half"]
    theta_mid = 0.5 * (theta.values + np.roll(theta.values, -1))
    lhs = grid.h * float(np.sum(dpsi * b * theta_mid - eps * lpsi * theta.values))
    avg = grid.h * float(np.sum(psi * theta.values))
    rhs = lam * (psi[grid.n // 2] - avg)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-3, (lhs, rhs)


def test_criterion_06_transient_matches_stationary(transient_pair):
    """Discounted time average of the flow reproduces the stationary density."""
    s = transient_pair["stationary"].values
    a = transient_pair["averaged"].values
    rel = float(np.max(np.abs(a - s))) / float(np.max(np.abs(s)))
    assert rel <= 1e-3, rel


def test_criterion_07_measure_action_identity(pendulum, grid2048):
    """int L dmu = lambda*u(x0) within 1e-3; action approaches -c(eps)."""
    eps = 5e-2
    lam_seq = (1e-2, 5e-3, 2.5e-3)
    c_eps = hv.estimate_ergodic_constant(pendulum, eps, lam_seq, grid2048)

    actions = []
    for lam in lam_seq:
        u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
        assert report.converged
        theta = hv.solve_adjoint_stationary(pendulum, u, lam, eps, 0)
        mu = hv.extract_measure(pendulum, u, theta)
        action = hv.measure_action(mu, pendulum)
        # lambda*omega(x0) - c(eps) telescopes to lambda*u(x0)
        target = lam * float(u.values[0])
        if lam == 1e-2:
            assert abs(action - target) / abs(target) <= 1e-3, (action, target)
        actions.append(action)

    gaps = [abs(a - (-c_eps)) for a in actions]
    assert gaps[0] > gaps[1] > gaps[2], (c_eps, actions)


def test_criterion_08_ergodic_constant_scaling(pendulum):
    """|c(eps)| <= K*eps for one fitted K; flat potential gives exactly zero."""
    lam_seq = (1e-2, 5e-3, 2.5e-3)
    grid = hv.Grid1D(1024)
    eps_list = (0.2, 0.1, 0.05, 0.025)
    # eps = 0.2 at the smallest lambda plateaus just above the default
    # Newton tolerance; 1e-8 residual is far below the scale of c(eps)
    cs = [hv.estimate_ergodic_constant(pendulum, e, lam_seq, grid, tol=1e-8)
          for e in eps_list]
    ratios = [abs(c) / e for c, e in zip(cs, eps_list)]
    k_fit = max(ratios)
    assert k_fit <= 1.5, (k_fit, cs)
    assert all(abs(c) <= k_fit * e for c, e in zip(cs, eps_list))
    assert max(ratios) / min(ratios) <= 1.05, ratios  # genuinely one K
    mags = [abs(c) for c in cs]
    assert all(a > b for a, b in zip(mags, mags[1:])), cs

    c_flat = hv.estimate_ergodic_constant(hv.flat_hamiltonian(), 0.1,
                                          lam_seq, hv.Grid1D(128))
    assert abs(c_flat) <= 1e-8


def test_criterion_09_sup_convolution_suite(pendulum, ode_reference):
    """Domination, single-constant sandwich, semiconvexity floor, defect."""
    h = ode_reference.grid.h
    deltas = (0.04, 0.02, 0.01)
    ratios, defects = [], []
    for delta in deltas:
        u_d = hv.sup_convolution(ode_reference, delta)
        gap = u_d.values - ode_reference.values
        assert float(np.min(gap)) >= 0.0  # domination, exact
        ratios.append(float(np.max(gap)) / delta)
        second = np.roll(u_d.values, -1) - 2.0 * u_d.values \
            + np.roll(u_d.values, 1)
        assert float(np.min(second)) >= -h * h / delta - 1e-12
        defects.append(hv.subsolution_defect(u_d, 0.05, pendulum))

    c = max(ratios)
    assert max(ratios) / min(ratios) <= 1.01, ratios  # one C fits the ladder
    lip = float(np.max(np.abs(hv.central_gradient(ode_reference).values)))
    assert c <= lip ** 2 / 2.0 + 1e-6
    for delta, d in zip(deltas, defects):
        assert d <= c * delta + 2.0 * h, (delta, d)


def test_criterion_10_cross_oracle_inviscid(pendulum, grid2048):
    """Monotone sweep vs characteristic integration agree within C*h, C <= 5."""
    lam, sigma = 0.25, 2.0
    u_lf, report = hv.solve_discounted_lax_friedrichs(pendulum, lam,
                                                      grid2048, sigma)
    assert report.converged
    u_ode = hv.solve_pendulum_ode(lam, grid2048.n // 2)
    c = float(np.max(np.abs(u_lf.values - u_ode.values))) / grid2048.h
    print(f"cross-oracle constant C = {c:.4f}")
    assert c <= 5.0, f"C = {c:.4f}"


def test_criterion_11_small_instance_brute_force(pendulum):
    """Dense LU reproduces the adjoint solve; O(n^2) scan the envelope.

    eps = 0.2 keeps the coarse-grid discretization monotone so the density
    passes its own sign gate; the linear-system comparison is the point.
    """
    n, lam, eps, x0 = 32, 0.1, 0.2, 0
    grid = hv.Grid1D(n)
    u, report = hv.solve_viscous(pendulum, lam, eps, grid)
    assert report.converged
    theta = hv.solve_adjoint_stationary(pendulum, u, lam, eps, x0)
    # pendulum: b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j) = D+u_j
    b = (np.roll(u.values, -1) - u.values) / grid.h
    # flux form F_{j+1/2} = b_{j+1/2} * (theta_j + theta_{j+1})/2
    a = np.zeros((n, n))
    for j in range(n):
        k = (j + 1) % n
        c = 0.5 * b[j] / grid.h
        a[j, [j, k]] += c
        a[k, [j, k]] -= c
    lap = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / grid.h ** 2
    lap[0, n - 1] = 1.0 / grid.h ** 2
    lap[n - 1, 0] = 1.0 / grid.h ** 2
    m = lam * np.eye(n) - a - eps * lap
    rhs = np.zeros(n)
    rhs[x0] = lam / grid.h
    ref = np.linalg.solve(m, rhs)
    ref = ref / (float(ref.sum()) * grid.h)
    rel = np.max(np.abs(theta.values - ref)) / np.max(np.abs(ref))
    assert rel <= 1e-10, rel

    n2, delta = 600, 0.03
    g = hv.Grid1D(n2)
    u2 = hv.ScalarField(g, np.sin(g.x) + 0.3 * np.cos(3.0 * g.x))
    fast = hv.sup_convolution(u2, delta).values
    slow = np.empty(n2)
    for j in range(n2):
        shift = np.abs(g.x - g.x[j])
        d = np.minimum(shift, g.length - shift)
        slow[j] = np.max(u2.values - d * d / (2.0 * delta))
    assert np.array_equal(fast, slow)
