"""Stationary adjoint density, Fokker-Planck evolution, and diagnostics."""

import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hjvisc as hv


def _dense_laplacian(n, h):
    lap = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / h ** 2
    lap[0, n - 1] = 1.0 / h ** 2
    lap[n - 1, 0] = 1.0 / h ** 2
    return lap


def _dense_divergence(b, h):
    """(A theta)_j = (F_{j+1/2} - F_{j-1/2})/h with
    F_{j+1/2} = b_{j+1/2} * (theta_j + theta_{j+1})/2, b_{j+1/2} stored at j."""
    n = b.size
    a = np.zeros((n, n))
    for j in range(n):
        k = (j + 1) % n
        c = 0.5 * b[j] / h  # weight of theta_j and theta_k in F_{j+1/2}/h
        a[j, [j, k]] += c
        a[k, [j, k]] -= c
    return a


def test_stationary_matches_dense_solve(pendulum):
    """n = 32 brute force: same system, dense LU instead of cyclic bands.

    eps = 0.2 keeps the half-node divergence monotone on the coarse grid;
    weaker viscosity trips the negativity gate (covered separately).
    """
    n, lam, eps, x0 = 32, 0.1, 0.2, 0
    grid = hv.Grid1D(n)
    u, report = hv.solve_viscous(pendulum, lam, eps, grid)
    assert report.converged
    theta = hv.solve_adjoint_stationary(pendulum, u, lam, eps, x0)

    # pendulum: b_{j+1/2} = dH/dp(x_{j+1/2}, D+u_j) = D+u_j
    b = (np.roll(u.values, -1) - u.values) / grid.h
    a = _dense_divergence(b, grid.h)
    m = lam * np.eye(n) - a - eps * _dense_laplacian(n, grid.h)
    rhs = np.zeros(n)
    rhs[x0] = lam / grid.h
    ref = np.linalg.solve(m, rhs)
    ref = ref / (float(ref.sum()) * grid.h)
    rel = np.max(np.abs(theta.values - ref)) / np.max(np.abs(ref))
    assert rel <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=40)
@given(coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=3),
       lam=st.floats(1e-2, 1.0), n=st.integers(8, 512),
       eps_scale=st.floats(1.0, 8.0), source=st.floats(0.0, 1.0, exclude_max=True))
def test_random_potentials_solve_finite_and_adjoint_is_transpose(coeffs, lam, n,
                                                                 eps_scale, source):
    """V = sum_k a_k cos(kx) + b_k sin(kx), H = p^2/2 + V, eps at or above
    h*max|b|/2 (cell Peclet <= 1). solve_viscous returns a finite field; when
    it converged, the adjoint solves J^T theta = lambda*delta/h with unit
    mass, or rejects the state with the "refine" ConvergenceError."""
    def potential(x):
        return sum(a * np.cos(k * x) + b * np.sin(k * x)
                   for k, (a, b) in enumerate(coeffs, start=1))

    model = hv.separable_hamiltonian(potential)
    grid = hv.Grid1D(n)
    v = potential(np.linspace(0.0, hv.TWO_PI, 4097))
    # |u'| <= sqrt(2*osc V) for the inviscid solution; the pad covers viscous drift
    eps = eps_scale * grid.h * (np.sqrt(2.0 * float(v.max() - v.min())) + 0.1) / 2.0
    u, report = hv.solve_viscous(model, lam, eps, grid)
    assert np.all(np.isfinite(u.values)) and np.isfinite(report.final_residual_inf)
    if not report.converged:
        return
    # the Newton stop: TOL, or the roundoff floor of eps*Lu at the returned field
    res = float(np.max(np.abs(hv.viscous_residual(model, u, lam, eps).values)))
    assert res <= max(1e-10, 4.0 * eps / grid.h ** 2 * np.spacing(np.max(np.abs(u.values))))
    assume(grid.h * float(np.max(np.abs(hv.drift_field(model, u).values))) <= 2.0 * eps)
    x0 = int(source * n)
    try:
        theta = hv.solve_adjoint_stationary(model, u, lam, eps, x0)
    except hv.ConvergenceError as exc:
        assert "refine" in str(exc)
        return
    assert abs(grid.h * float(theta.values.sum()) - 1.0) <= 1e-12
    rhs = np.zeros(n)
    rhs[x0] = lam / (grid.h * theta.renorm_factor)
    jac_t = hv.viscous_jacobian(u, lam, eps).transpose()
    assert np.max(np.abs(jac_t.matvec(theta.values) - rhs)) <= 1e-9 * rhs[x0]


def test_zero_drift_density_is_symmetric_about_source():
    n, x0 = 64, 17
    grid = hv.Grid1D(n)
    u = hv.ScalarField(grid, np.zeros(n))
    theta = hv.solve_adjoint_stationary(hv.flat_hamiltonian(), u, 0.2, 0.3, x0)
    vals = theta.values
    mirrored = vals[(2 * x0 - np.arange(n)) % n]
    assert np.max(np.abs(vals - mirrored)) <= 1e-12
    assert abs(grid.h * float(vals.sum()) - 1.0) <= 1e-8
    assert int(np.argmax(vals)) == x0


def test_pendulum_density_contract(std_run):
    theta = std_run["theta0"]
    grid = std_run["grid"]
    assert abs(grid.h * float(theta.values.sum()) - 1.0) <= 1e-8
    assert float(theta.values.min()) >= -1e-12
    assert theta.renorm_factor is not None
    assert abs(theta.renorm_factor - 1.0) <= 1e-6
    # mass piles up around the potential maximum at x = 0
    assert int(np.argmax(theta.values)) == 0
    assert 1.5 <= float(theta.values.max()) <= 2.0


def test_adjoint_identity_lagrangian_action(pendulum, std_run):
    """h * sum L(x, H_p(x, Du)) theta = lambda * u(x0), both source points."""
    lam, eps = std_run["lam"], std_run["eps"]
    u = std_run["u"]
    grid = std_run["grid"]
    du = hv.central_gradient(u).values
    lag = pendulum.lagrangian(grid.x, du)
    for theta, x0 in ((std_run["theta0"], 0),
                      (std_run["theta_half"], grid.n // 2)):
        lhs = grid.h * float(np.sum(lag * theta.values))
        rhs = lam * float(u.values[x0])
        assert abs(lhs - rhs) / abs(rhs) <= 1e-3, (x0, lhs, rhs)


def test_adjoint_identity_test_function(pendulum, std_run):
    """h * sum (D+psi * b * theta_mid - eps * Lap psi * theta) = lambda*(psi(x0) - int psi theta).

    b_{j+1/2} pairs with D+psi_j at the half-node weight
    theta_mid_j = (theta_j + theta_{j+1})/2.

    At x0 = n/2 the two sides are O(lambda) and the plain relative error is
    meaningful. At x0 = 0 the right side nearly cancels (psi(0) is close to
    the theta average of psi), so the defect is gauged against the natural
    scale lambda * max|psi| instead of the collapsing denominator.
    """
    lam, eps = std_run["lam"], std_run["eps"]
    u = std_run["u"]
    grid = std_run["grid"]
    psi = np.cos(grid.x)
    dpsi = (np.roll(psi, -1) - psi) / grid.h
    lpsi = hv.discrete_laplacian(hv.ScalarField(grid, psi)).values
    b = hv.drift_field(pendulum, u).values

    def defect(theta, x0):
        theta_mid = 0.5 * (theta.values + np.roll(theta.values, -1))
        lhs = grid.h * float(np.sum(dpsi * b * theta_mid - eps * lpsi * theta.values))
        avg = grid.h * float(np.sum(psi * theta.values))
        rhs = lam * (psi[x0] - avg)
        return lhs, rhs

    lhs, rhs = defect(std_run["theta_half"], grid.n // 2)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-3

    lhs, rhs = defect(std_run["theta0"], 0)
    assert abs(lhs - rhs) / lam <= 1e-3  # scale-normalized; see docstring


def test_stationary_system_is_jacobian_transpose(pendulum, std_run):
    """J^T theta = lambda*delta_{x0}/(h*renorm_factor), J the Newton Jacobian,
    at both sources: the adjoint solves the transpose, not a neighbour of it."""
    lam, eps = std_run["lam"], std_run["eps"]
    grid = std_run["grid"]
    jac_t = hv.viscous_jacobian(std_run["u"], lam, eps).transpose()
    for theta, x0 in ((std_run["theta0"], 0),
                      (std_run["theta_half"], grid.n // 2)):
        rhs = np.zeros(grid.n)
        rhs[x0] = lam / (grid.h * theta.renorm_factor)
        err = np.max(np.abs(jac_t.matvec(theta.values) - rhs))
        assert err <= 1e-9 * rhs[x0], (x0, err)


def test_negative_density_is_rejected_not_clamped(pendulum, grid2048):
    # off the symmetry axes the half-node drift stencil loses monotonicity
    # once the cell Peclet number passes 1; entries below -1e-8 must reject
    lam, eps = 1e-2, 1e-3
    u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
    assert report.converged
    with pytest.raises(hv.ConvergenceError, match="refine"):
        hv.solve_adjoint_stationary(pendulum, u, lam, eps, grid2048.n // 4)


def test_adjoint_argument_validation(pendulum):
    grid = hv.Grid1D(64)
    u, _ = hv.solve_viscous(pendulum, 0.1, 0.1, grid)
    for bad in (-1, 64, 2.5, np.float64(3.0), True):
        with pytest.raises(ValueError):
            hv.solve_adjoint_stationary(pendulum, u, 0.1, 0.1, bad)
    with pytest.raises(ValueError):
        hv.solve_adjoint_stationary(pendulum, u, 0.0, 0.1, 0)
    with pytest.raises(ValueError):
        hv.solve_adjoint_stationary(pendulum, u, 0.1, -0.1, 0)
    for lam, eps in ((math.inf, 0.1), (math.nan, 0.1), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            hv.solve_adjoint_stationary(pendulum, u, lam, eps, 0)


def test_fokker_planck_relaxes_to_uniform():
    """Zero drift: by t = 5*length^2/eps the density is uniform to 1e-6.

    Mass stays at exactly 1 (conservative flux form telescopes); checked at
    step 1000 along the way.
    """
    n, eps = 128, 1.0
    grid = hv.Grid1D(n)
    drift = hv.ScalarField(grid, np.zeros(n))
    t_final = 5.0 * grid.length ** 2 / eps
    uniform = 1.0 / grid.length
    last = None
    for k, (t, rho) in enumerate(hv.evolve_fokker_planck(drift, eps, 0, t_final)):
        if k == 0:
            assert t == 0.0
            assert rho.values[0] == 1.0 / grid.h  # point-mass start
        if k == 1000:
            assert abs(grid.h * float(rho.values.sum()) - 1.0) <= 1e-8
        last = rho
    assert float(np.max(np.abs(last.values - uniform))) <= 1e-6


def test_fokker_planck_preserves_drift_symmetry():
    n, x0, eps = 64, 17, 0.5
    grid = hv.Grid1D(n)
    # half-node drift b_{j+1/2}, odd about x0
    drift = hv.ScalarField(grid, np.sin(grid.x + 0.5 * grid.h - grid.x[x0]))
    worst = 0.0
    for t, rho in hv.evolve_fokker_planck(drift, eps, x0, 3.0):
        vals = rho.values
        mirrored = vals[(2 * x0 - np.arange(n)) % n]
        worst = max(worst, float(np.max(np.abs(vals - mirrored))))
    assert worst <= 1e-12


def test_fokker_planck_is_lazy_and_validates():
    grid = hv.Grid1D(64)
    drift = hv.ScalarField(grid, np.zeros(64))
    it = hv.evolve_fokker_planck(drift, 0.5, 0, 1.0)
    assert hasattr(it, "__next__")  # generator, not a materialized list
    with pytest.raises(ValueError):
        list(hv.evolve_fokker_planck(drift, 0.0, 0, 1.0))
    for bad in (99, 2.5, np.float64(3.0), True):
        with pytest.raises(ValueError):
            list(hv.evolve_fokker_planck(drift, 0.5, bad, 1.0))
    with pytest.raises(ValueError):
        list(hv.evolve_fokker_planck(drift, 0.5, 0, 1.0, dt=-0.1))
    for eps, t_final, dt in ((math.inf, 1.0, None), (math.nan, 1.0, None),
                             (0.5, math.inf, None), (0.5, math.nan, None),
                             (0.5, 1.0, math.inf), (0.5, 1.0, math.nan),
                             (0.5, 1e308, 1e-10)):  # t_final/dt overflows
        with pytest.raises(ValueError, match="finite"):
            next(hv.evolve_fokker_planck(drift, eps, 0, t_final, dt))
    snaps = list(hv.evolve_fokker_planck(drift, 0.5, 0, 1.0, 0.25))
    assert len(snaps) == 5  # t = 0 plus 4 steps
    assert snaps[-1][0] == pytest.approx(1.0)


def test_discounted_average_passthrough_weights():
    """Uniform in, uniform out: the quadrature weights plus the e^(-lam*T)
    tail term sum to exactly 1, so a constant sequence is reproduced."""
    n, lam, dt = 64, 1.0, 0.1
    grid = hv.Grid1D(n)
    uniform = hv.DensityField(grid, np.full(n, 1.0 / grid.length))
    seq = [(k * dt, uniform) for k in range(201)]  # T = 20
    out = hv.stationary_from_transient(seq, lam)
    assert float(np.max(np.abs(out.values - uniform.values))) <= 1e-12
    assert abs(grid.h * float(out.values.sum()) - 1.0) <= 1e-12


def test_discounted_average_rejections():
    n = 64
    grid = hv.Grid1D(n)
    uniform = hv.DensityField(grid, np.full(n, 1.0 / grid.length))
    short = [(0.1 * k, uniform) for k in range(11)]  # T = 1, tail e^-1
    with pytest.raises(hv.ConvergenceError, match="horizon"):
        hv.stationary_from_transient(short, 1.0)
    ragged = [(0.0, uniform), (0.1, uniform), (0.25, uniform)]
    with pytest.raises(ValueError):
        hv.stationary_from_transient(ragged, 1.0)
    with pytest.raises(ValueError):
        hv.stationary_from_transient([(0.0, uniform)], 1.0)
    # every snapshot is a finite time and a DensityField on the first one's grid
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hv.stationary_from_transient([(0.0, uniform), (t, uniform)], 1.0)
    not_density = hv.ScalarField(grid, uniform.values)
    for seq in ([(0.0, uniform.values), (0.1, uniform.values)],
                [(0.0, uniform), (0.1, uniform.values)], [(0.0, uniform), (0.1, not_density)]):
        with pytest.raises(ValueError, match="DensityField"):
            hv.stationary_from_transient(seq, 1.0)
    coarse = hv.DensityField(hv.Grid1D(n // 2), uniform.values[::2])
    with pytest.raises(ValueError, match="grids"):
        hv.stationary_from_transient([(0.0, uniform), (0.1, coarse)], 1.0)
    # anything but a (real time, DensityField) pair is rejected by its index,
    # the first snapshot included
    for bad in (("1", uniform), (0.1,), None):
        with pytest.raises(ValueError, match="snapshot 1"):
            hv.stationary_from_transient([(0.0, uniform), bad], 1.0)
    for bad in ((0.0,), ("0", uniform), (0.0, uniform, 0.1)):
        with pytest.raises(ValueError, match="snapshot 0"):
            hv.stationary_from_transient([bad, (0.1, uniform)], 1.0)


def _half_node_drift(grid, amplitudes):
    """sum_k a_k cos(k x_{j+1/2}) + b_k sin(k x_{j+1/2}), stored at index j."""
    xh = grid.x + 0.5 * grid.h
    return hv.ScalarField(grid, sum(a * np.cos(k * xh) + b * np.sin(k * xh)
                                    for k, (a, b) in enumerate(amplitudes, start=1)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(8, 48),
       amplitudes=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                           min_size=1, max_size=3),
       eps_scale=st.floats(1.0, 8.0), lam=st.floats(0.05, 1.0),
       source=st.floats(0.0, 1.0, exclude_max=True), extra=st.integers(0, 200),
       horizon=st.sampled_from([14.0, 20.0]))
def test_closed_form_average_equals_streamed(n, amplitudes, eps_scale, lam, source, extra,
                                             horizon):
    """Random trigonometric half-node drift at cell Peclet <= 1 and
    dt = T/k with k >= n**2 steps: the closed-form average gives the streamed
    average. At T = 14/lam the unrelaxed tail e^-14 sits just under the
    horizon gate, where the q^k rho_k term of the closed form is largest."""
    grid = hv.Grid1D(n)
    drift = _half_node_drift(grid, amplitudes)
    eps = eps_scale * max(grid.h * float(np.max(np.abs(drift.values))) / 2.0, 1e-3)
    t_final = horizon / lam

    def average(wrap):
        stream = hv.evolve_fokker_planck(drift, eps, int(source * n), t_final,
                                         t_final / (n * n + extra))
        return hv.stationary_from_transient(wrap(stream), lam)

    # a generator wrapper hides the stream and forces the streamed route
    closed, streamed = average(iter), average(lambda stream: (x for x in stream))
    rel = np.max(np.abs(closed.values - streamed.values)) / np.max(streamed.values)
    assert rel <= 1e-11
    assert abs(grid.h * float(closed.values.sum()) - 1.0) <= 1e-12


@pytest.fixture
def step_solves(monkeypatch):
    """Right-hand-side shapes of every solve with a Fokker-Planck step
    solver prepared while the fixture is active."""
    calls = []
    factor = hv.adjoint.factor_cyclic_tridiagonal

    def counting(matrix):
        solve = factor(matrix)

        def counted(rhs):
            calls.append(rhs.shape)
            return solve(rhs)
        return counted

    monkeypatch.setattr(hv.adjoint, "factor_cyclic_tridiagonal", counting)
    return calls


def test_closed_form_and_streamed_routes_reject_alike(step_solves):
    n = 64
    grid = hv.Grid1D(n)
    # cell Peclet 3*h/(2*0.05) = 2.9: the stream from x0 = 3 dips to -7.4e-4
    drift = _half_node_drift(grid, [(0.0, 3.0)])
    routes = (iter, lambda stream: (x for x in stream))  # closed form, streamed
    solves = []
    for wrap in routes:
        step_solves.clear()
        with pytest.raises(ValueError, match="floor"):
            hv.stationary_from_transient(
                wrap(hv.evolve_fokker_planck(drift, 0.05, 3, 500.0)), 0.04)
        solves.append(len(step_solves))
    # S has positive off-diagonals, so the closed form is not taken: the
    # stream is stepped and rejected at its first negative snapshot, before
    # step n
    assert solves[0] < n

    # e^(-lam*T) = e^-10 > 1e-6 after n**2 = 4096 steps
    drift = _half_node_drift(grid, [(0.0, 0.5)])
    for wrap in routes:
        with pytest.raises(hv.ConvergenceError, match="horizon"):
            hv.stationary_from_transient(
                wrap(hv.evolve_fokker_planck(drift, 0.5, 3, 20.0, 20.0 / 4096)), 0.5)


def test_long_streams_take_the_closed_form(step_solves):
    """Streaming costs one solve per step, the closed form a fixed four at
    n = 32, whatever the step count: its one streamed first step, the one
    chunk of n/32 identity columns stepped into P, one step of the
    average, and the streamed last step. A stream that has already yielded
    its t = 0 snapshot is rejected before it is stepped further."""
    n, lam, t_final = 32, 0.5, 40.0
    drift = _half_node_drift(hv.Grid1D(n), [(0.3, 0.5)])
    for steps in (n * n - 1, n * n, 3 * n * n + 5):
        step_solves.clear()
        hv.stationary_from_transient(
            hv.evolve_fokker_planck(drift, 0.5, 0, t_final, t_final / steps), lam)
        assert len(step_solves) == (steps if steps < n * n else 4), (steps, len(step_solves))

    started = hv.evolve_fokker_planck(drift, 0.5, 0, t_final, t_final / (n * n))
    next(started)
    step_solves.clear()
    # the average needs the snapshot at t = 0: rejected at the first snapshot read
    with pytest.raises(ValueError, match="t = 0"):
        hv.stationary_from_transient(started, lam)
    assert len(step_solves) <= 1


def test_closed_form_stops_squaring_at_rank_one(monkeypatch):
    """The closed form squares P until a power is rank one and applies that
    power for all higher ones. A fast-mixing stream stops squaring early, a
    zero-drift stream at small eps never reaches rank one; both give the
    streamed average."""
    checks = []
    is_rank_one = hv.adjoint._is_rank_one

    def recording(power):
        checks.append(is_rank_one(power))
        return checks[-1]

    monkeypatch.setattr(hv.adjoint, "_is_rank_one", recording)
    n = 32
    grid = hv.Grid1D(n)
    for amplitudes, eps, lam, stops in (([(0.3, 0.5)], 0.5, 0.02, True),
                                        ([(0.0, 0.0)], 0.01, 0.5, False)):
        drift, t_final = _half_node_drift(grid, amplitudes), 20.0 / lam
        for steps in (n * n, 3 * n * n + 5):
            def stream():
                return hv.evolve_fokker_planck(drift, eps, 3, t_final, t_final / steps)

            checks.clear()
            closed = hv.stationary_from_transient(stream(), lam)
            # the closed form spans steps - 2 steps: one squaring per binary digit
            # after the leading one, each checked until one is rank one
            squarings = (steps - 2).bit_length() - 1
            if stops:
                assert len(checks) < squarings and checks[-1], (steps, checks)
            else:
                assert checks == [False] * squarings, (steps, checks)
            streamed = hv.stationary_from_transient((x for x in stream()), lam)
            rel = np.max(np.abs(closed.values - streamed.values)) / np.max(streamed.values)
            assert rel <= 1e-11, (steps, rel)
            assert abs(grid.h * float(closed.values.sum()) - 1.0) <= 1e-12


def test_transient_average_matches_stationary(transient_pair):
    stat = transient_pair["stationary"].values
    avg = transient_pair["averaged"].values
    rel = float(np.max(np.abs(avg - stat))) / float(np.max(np.abs(stat)))
    assert rel <= 1e-3, rel


def test_smaller_lambda_averages_closer_to_uniform():
    # with zero drift the late-time density is uniform, and discounted
    # averaging weights late times more as lambda shrinks; the spike at
    # t = 0 dominates the large-lambda average
    n, eps = 256, 0.2
    grid = hv.Grid1D(n)
    zero = hv.ScalarField(grid, np.zeros(n))
    uniform = 1.0 / grid.length

    def distance(lam):
        seq = hv.evolve_fokker_planck(zero, eps, 0, 20.0 / lam)
        theta = hv.stationary_from_transient(seq, lam)
        return float(np.max(np.abs(theta.values - uniform)))

    d_small, d_large = distance(0.05), distance(0.5)
    assert d_small <= 0.2
    assert d_large >= 0.5
    assert d_small < d_large / 3.0


def test_averaged_drift_closed_forms(pendulum):
    grid = hv.Grid1D(512)
    u1, _ = hv.solve_viscous(pendulum, 0.1, 0.05, grid)
    u2, _ = hv.solve_viscous(pendulum, 0.1, 0.02, grid)

    same = hv.averaged_drift(u1, u1)
    direct = hv.drift_field(pendulum, u1)
    assert float(np.max(np.abs(same.values - direct.values))) <= 1e-12

    # H_p = p is linear, so the r-integral is the midpoint of D+ exactly
    mid = hv.averaged_drift(u1, u2)
    expect = 0.5 * ((np.roll(u1.values, -1) - u1.values)
                    + (np.roll(u2.values, -1) - u2.values)) / grid.h
    assert float(np.max(np.abs(mid.values - expect))) <= 1e-12

    # secant identity: the bands at vartheta map u1 - u2 to F(u1) - F(u2)
    lam, eps = 0.1, 0.05
    secant = hv.viscous.drift_diffusion_bands(grid, mid.values, lam, eps)
    diff = (hv.viscous_residual(pendulum, u1, lam, eps).values
            - hv.viscous_residual(pendulum, u2, lam, eps).values)
    err = np.max(np.abs(secant.matvec(u1.values - u2.values) - diff))
    assert err <= 1e-12 * np.max(np.abs(diff)), err

    other = hv.ScalarField(hv.Grid1D(64), np.zeros(64))
    with pytest.raises(ValueError):
        hv.averaged_drift(u1, other)



def test_trapezoid_weights_sum_to_one_minus_discount():
    # c_a + c_b is 1 - e^{-lam dt} to roundoff, with no rounding of
    # e^{-lam dt} in between: the rounding of q once cost up to
    # ulp(q)/(2(1 - q)) relative, 9e-13 at 1 - q = 6.1e-5
    dt = hv.TWO_PI / 256
    for x in np.logspace(-9.0, 0.0, 181):
        lam = float(x) / dt
        coef_a, coef_b = hv.adjoint._trapezoid_weights(lam, dt)
        exact = -math.expm1(-lam * dt)
        assert abs((coef_a + coef_b) - exact) <= 2.0 * math.ulp(exact), x
        assert coef_a > 0.0 and coef_b > 0.0


def test_trapezoid_weights_match_50_digit_integrals():
    """Each weight alone, not only their sum, is within 1e-15 relative of its
    integral in 50-digit decimal arithmetic: c_b = (1 - e^-x)/x - e^-x
    loses ulp(1)/x to cancellation when formed as written, 1.4e-7 relative
    at x = lam*dt = 1e-9. The perfbench adjoint stream has x = 6.1e-5."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for x in (1e-9, 6.1e-5, 2.45e-2, 1.0):
            coef_a, coef_b = hv.adjoint._trapezoid_weights(x, 1.0)
            big_x = decimal.Decimal(x)
            e = (-big_x).exp()
            exact_b = (1 - e * (1 + big_x)) / big_x
            exact_a = (1 - e) - exact_b
            for got, exact in ((coef_a, exact_a), (coef_b, exact_b)):
                rel = abs(decimal.Decimal(got) - exact) / exact
                assert rel <= decimal.Decimal("1e-15"), (x, float(rel))
