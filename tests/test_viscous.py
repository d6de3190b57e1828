"""Damped Newton solver for the discounted viscous equation."""

import numpy as np
import pytest

import hjvisc as hv


def _solve(model, lam, eps, n):
    u, report = hv.solve_viscous(model, lam, eps, hv.Grid1D(n))
    assert report.converged
    return u, report


def test_residual_closed_forms(pendulum):
    g = hv.Grid1D(64)
    zero = hv.ScalarField(g, np.zeros(64))
    # H is averaged over the half nodes x -+ h/2, and the mean of
    # cos(x - h/2) and cos(x + h/2) is cos(h/2)*cos(x)
    res = hv.viscous_residual(pendulum, zero, 0.3, 0.1).values
    assert np.max(np.abs(res - (np.cos(0.5 * g.h) * np.cos(g.x) - 1.0))) <= 1e-15

    flat = hv.flat_hamiltonian()
    assert np.all(hv.viscous_residual(flat, zero, 0.3, 0.1).values == 0.0)

    const = hv.ScalarField(g, np.full(64, 1.7))
    res_c = hv.viscous_residual(pendulum, const, 0.3, 0.1).values
    assert np.max(np.abs(res_c - (0.3 * 1.7 + np.cos(0.5 * g.h) * np.cos(g.x)
                                  - 1.0))) <= 1e-14


def test_jacobian_structure(pendulum):
    g = hv.Grid1D(32)
    lam, eps = 0.3, 0.07
    zero = hv.ScalarField(g, np.zeros(32))
    jac = hv.viscous_jacobian(zero, lam, eps)
    k = eps / g.h ** 2
    assert np.max(np.abs(jac.diag - (lam + 2.0 * k))) <= 1e-12
    assert np.max(np.abs(jac.sub + k)) <= 1e-12
    assert np.max(np.abs(jac.super + k)) <= 1e-12

    # advective terms cancel in each row sum, leaving exactly lambda
    rng = np.random.RandomState(7)
    u = hv.ScalarField(g, 0.3 * rng.standard_normal(32))
    jac = hv.viscous_jacobian(u, lam, eps)
    row_sums = jac.diag + jac.sub + jac.super
    assert np.max(np.abs(row_sums - lam)) <= 1e-10


@pytest.mark.parametrize("potential", [None, np.sin])
def test_jacobian_matches_finite_differences(pendulum, potential):
    model = pendulum if potential is None else hv.separable_hamiltonian(potential)
    g = hv.Grid1D(32)
    lam, eps, step = 0.3, 0.07, 1e-6
    rng = np.random.RandomState(7)
    base = 0.3 * rng.standard_normal(32)
    jac = hv.viscous_jacobian(hv.ScalarField(g, base), lam, eps).dense()
    num = np.zeros_like(jac)
    for j in range(32):
        up = base.copy()
        dn = base.copy()
        up[j] += step
        dn[j] -= step
        fu = hv.viscous_residual(model, hv.ScalarField(g, up), lam, eps).values
        fd = hv.viscous_residual(model, hv.ScalarField(g, dn), lam, eps).values
        num[:, j] = (fu - fd) / (2.0 * step)
    rel = np.max(np.abs(num - jac)) / np.max(np.abs(jac))
    assert rel <= 1e-6


def test_flat_potential_solution_is_zero():
    u, report = _solve(hv.flat_hamiltonian(), 0.2, 0.1, 128)
    assert np.all(u.values == 0.0)
    assert report.final_residual_inf == 0.0


def test_manufactured_solution_second_order():
    """Potential engineered so u* = 0.3 sin x solves the equation exactly."""
    lam, eps = 0.1, 0.05

    def potential(x):
        return (eps * (-0.3 * np.sin(x)) - lam * 0.3 * np.sin(x)
                - (0.3 * np.cos(x)) ** 2 / 2.0)

    model = hv.separable_hamiltonian(potential)
    errs = []
    for n in (256, 512, 1024, 2048):
        u, _ = _solve(model, lam, eps, n)
        errs.append(float(np.max(np.abs(u.values - 0.3 * np.sin(u.grid.x)))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(3.0 <= r <= 5.0 for r in ratios), ratios
    assert errs[-1] <= 1e-6
    # frozen reference run: the pure h^2 error of the half-node scheme,
    # errs * n^2 = 1.8310 against 1.8309 from the leading truncation term
    expected = (2.793888e-5, 6.984429e-6, 1.746089e-6, 4.365211e-7)
    assert np.allclose(errs, expected, rtol=1e-2)


def test_zero_point_balance(std_run):
    # at the potential maximum the solution is even, so the one-sided
    # gradients are D+-u(0) = +-h*Lap u(0)/2 and the residual at node 0
    # reduces to lambda*u(0) - eps*Lap u(0) + (h*Lap u(0))^2/8 + cos(h/2) - 1,
    # which vanishes up to the Newton tolerance
    u = std_run["u"]
    h = u.grid.h
    lap0 = hv.discrete_laplacian(u).values[0]
    gap = abs(std_run["lam"] * u.values[0] - std_run["eps"] * lap0
              + (h * lap0) ** 2 / 8.0 + np.cos(0.5 * h) - 1.0)
    assert gap <= 1e-9


def test_torus_solution_reflection_symmetry(std_run):
    vals = std_run["u"].values
    n = vals.shape[0]
    idx = (-np.arange(n)) % n
    assert np.max(np.abs(vals - vals[idx])) <= 1e-9


def test_newton_residual_certificate(pendulum):
    for lam, eps in ((0.1, 0.05), (0.02, 0.1)):
        u, report = _solve(pendulum, lam, eps, 512)
        res = hv.viscous_residual(pendulum, u, lam, eps).values
        assert float(np.max(np.abs(res))) <= 1e-10
        assert report.final_residual_inf <= 1e-10


def test_lipschitz_bound_uniform_over_sweeps(pendulum, sweep_a02, sweep_a06):
    """max |Du| stays within one multiplicative factor over both sweeps."""
    grid = hv.Grid1D(2048)
    slopes = []
    for rec in list(sweep_a02.records) + list(sweep_a06.records):
        u, report = hv.solve_viscous(pendulum, rec.lam, rec.epsilon, grid)
        assert report.converged
        slopes.append(float(np.max(np.abs(hv.central_gradient(u).values))))
    lo, hi = min(slopes), max(slopes)
    assert hi / lo <= 3.0, (lo, hi)
    assert 1.5 <= lo and hi <= 3.0


def test_semiconcavity_upper_bound_resolved_records(pendulum, sweep_a02,
                                                    sweep_a06):
    """max Lap_h u is O(1) wherever the kink width sqrt(eps) resolves h.

    Only the leading records qualify: further down the ladder the
    node-alternating mesh mode dominates the second difference.
    """
    grid = hv.Grid1D(2048)
    resolved = list(sweep_a02.records)[:5] + list(sweep_a06.records)[:3]
    for rec in resolved:
        u, report = hv.solve_viscous(pendulum, rec.lam, rec.epsilon, grid)
        assert report.converged
        top = float(np.max(hv.discrete_laplacian(u).values))
        assert 0.9 <= top <= 1.05, (rec.lam, rec.epsilon, top)


def test_stalled_newton_reports_failure(pendulum, monkeypatch):
    # one iteration per run: the cold start and the first continuation
    # level (eps = 0.5) both exhaust their budget
    monkeypatch.setattr(hv.viscous, "MAX_NEWTON_ITERS", 1)
    u, report = hv.solve_viscous(pendulum, 0.1, 0.05, hv.Grid1D(128))
    assert not report.converged
    assert report.iterations == 2
    assert report.continuation_steps == 1
    assert 1.0 <= report.final_residual_inf <= 2.0
    assert np.all(np.isfinite(u.values))


def test_underresolved_viscosity_is_flagged_not_faked(pendulum, grid2048):
    # eps = lambda^2 = 1e-6: the kink width sqrt(eps) is far below h. The
    # continuation ladder reaches residuals at the roundoff floor, but the
    # drift at the kink x = 0 outruns the viscosity, and that one expansion
    # row makes the solve report failure rather than return the field
    lam, eps = 1e-3, 1e-6
    u, report = hv.solve_viscous(pendulum, lam, eps, grid2048)
    assert not report.converged
    assert report.final_residual_inf <= 1e-10
    jac = hv.viscous_jacobian(u, lam, eps)
    assert int(np.sum((jac.sub > 0.0) & (jac.super > 0.0))) == 1
    # the field and its residual belong to the failed level 0.5/2^18 = 1.9e-6
    assert report.continuation_steps == 19
    assert report.final_eps == 0.5 / 2.0 ** 18
    res = hv.viscous_residual(pendulum, u, lam, report.final_eps)
    assert float(np.max(np.abs(res.values))) == report.final_residual_inf


def _residual_longdouble(model, grid, u, lam, eps):
    """The residual of _residual_arr in np.longdouble, on the same double V samples."""
    h = np.longdouble(grid.h)
    v_half = np.asarray(model.potential(grid.x + 0.5 * grid.h), dtype=np.longdouble)
    up = np.roll(u, -1)
    g = 0.5 * ((up - u) / h) ** 2 + v_half + np.longdouble(model.level)
    return lam * u + 0.5 * (g + np.roll(g, 1)) - eps * (up - 2.0 * u + np.roll(u, 1)) / (h * h)


_LAMS = hv.DEFAULT_LAMBDA_LIST
# the n = 16384 sweep points and the adjoint/ergodic CLI points (|u| up to
# 500) whose Newton runs end above 1e-10, at the roundoff floor
_FLOOR_POINTS = ([(16384, lam, lam ** 1.2) for lam in _LAMS[:4]]
                 + [(16384, _LAMS[0], _LAMS[0] ** 1.6), (4096, 1e-4, 0.05),
                    (1024, 2.5e-3, 0.2)])


@pytest.mark.parametrize("n, lam, eps", _FLOOR_POINTS)
def test_floor_stop_agrees_with_extended_precision(pendulum, n, lam, eps):
    """A field accepted at the roundoff floor is the discrete solution to 1e-12.

    The reference refines the field by Newton steps whose residual is formed
    in np.longdouble and whose correction is the double Jacobian solve
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., ch. 12).
    """
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is no wider than double on this platform")
    g = hv.Grid1D(n)
    u, report = hv.solve_viscous(pendulum, lam, eps, g)
    assert report.converged
    ref = u.values.astype(np.longdouble)
    for _ in range(3):
        res = _residual_longdouble(pendulum, g, ref, lam, eps)
        jac = hv.viscous_jacobian(hv.ScalarField(g, ref.astype(float)), lam, eps)
        ref = ref + hv.solve_cyclic_tridiagonal(jac, -res.astype(float))
    ref_res = float(np.max(np.abs(_residual_longdouble(pendulum, g, ref, lam, eps))))
    assert ref_res <= 1e-2 * report.final_residual_inf
    assert float(np.max(np.abs(u.values - ref))) <= 1e-12


def _rescued_point():
    """A point whose cold start fails and which continuation rescues."""
    g = hv.Grid1D(256)
    model = hv.separable_hamiltonian(
        0.3 * (np.cos(g.x) - 1.0) + 0.06 * np.sin(2.0 * g.x), g)
    lam = 5e-3
    return model, lam, lam ** 1.2, g


def test_continuation_rescues_failed_cold_start():
    model, lam, eps, g = _rescued_point()
    _, _, cold_res, cold_ok = hv.viscous._newton(model, lam, eps, g, np.zeros(g.n))
    assert not cold_ok and cold_res > 1e-10
    u, report = hv.solve_viscous(model, lam, eps, g)
    assert report.converged
    assert report.continuation_steps >= 1
    assert np.max(np.abs(hv.viscous_residual(model, u, lam, eps).values)) <= 1e-10
    jac = hv.viscous_jacobian(u, lam, eps)
    assert not np.any((jac.sub > 0.0) & (jac.super > 0.0))


def test_options_and_argument_validation(pendulum):
    g = hv.Grid1D(64)
    with pytest.raises(ValueError):
        hv.solve_viscous(pendulum, 0.0, 0.05, g)
    with pytest.raises(ValueError):
        hv.solve_viscous(pendulum, 0.1, -0.05, g)
    for lam, eps in ((np.inf, 0.1), (np.nan, 0.1), (0.1, np.inf), (0.1, np.nan)):
        with pytest.raises(ValueError):
            hv.solve_viscous(pendulum, lam, eps, g)
    # a start on another grid, and a non-finite start: ScalarField rejects
    # one, and solve_viscous one whose values were swapped past that check
    with pytest.raises(ValueError, match="grid"):
        hv.solve_viscous(pendulum, 0.1, 0.05, g,
                         start=hv.ScalarField(hv.Grid1D(128), np.zeros(128)))
    nan = np.full(g.n, np.nan)
    with pytest.raises(ValueError):
        hv.ScalarField(g, nan)
    smuggled = hv.ScalarField(g, np.zeros(g.n))
    object.__setattr__(smuggled, "values", nan)
    with pytest.raises(ValueError, match="start is not finite"):
        hv.solve_viscous(pendulum, 0.1, 0.05, g, start=smuggled)


def test_non_finite_model_raises_instead_of_converging():
    # a NaN residual at u = 0 once skipped the Newton loop and read as converged
    def spiked(x):
        return np.where((x > 3.0) & (x < 3.1), np.nan, np.cos(x))

    for build in (lambda: hv.HamiltonianModel(np.cos, level=float("nan")),
                  lambda: hv.HamiltonianModel(spiked)):
        with pytest.raises(ValueError):
            hv.solve_viscous(build(), 0.1, 0.05, hv.Grid1D(64))


def test_converged_start_is_returned_after_zero_iterations(pendulum):
    g = hv.Grid1D(256)
    rescued = _rescued_point()
    for model, lam, eps, grid in ((pendulum, 1e-2, 1e-2 ** 1.6, g), rescued):
        cold, cold_report = hv.solve_viscous(model, lam, eps, grid)
        assert cold_report.converged
        warm, report = hv.solve_viscous(model, lam, eps, grid, start=cold)
        assert np.array_equal(warm.values, cold.values)
        assert (report.iterations, report.continuation_steps) == (0, 0)
        assert report.converged and report.final_residual_inf == cold_report.final_residual_inf
        assert report.final_eps == cold_report.final_eps == eps


def test_failed_start_falls_back_to_the_cold_path(monkeypatch):
    model, lam, eps, g = _rescued_point()
    cold, cold_report = hv.solve_viscous(model, lam, eps, g)
    assert cold_report.converged and cold_report.continuation_steps >= 1
    # the zero field is a start from which Newton fails at eps: the warm run
    # repeats the cold start, and the cold path then runs as without a start
    _, failed_iters, _, failed_ok = hv.viscous._newton(model, lam, eps, g, np.zeros(g.n))
    assert not failed_ok
    warm, report = hv.solve_viscous(model, lam, eps, g, start=hv.ScalarField(g, np.zeros(g.n)))
    assert np.array_equal(warm.values, cold.values)
    assert report.iterations == cold_report.iterations + failed_iters
    assert report.continuation_steps == cold_report.continuation_steps
    # a linear solve the tridiagonal solver rejects in the warm run (the first
    # solve of the call) ends that run; the cold path is untouched
    solve = hv.viscous.solve_cyclic_tridiagonal
    calls = []

    def reject_first(matrix, rhs):
        calls.append(1)
        if len(calls) == 1:
            raise hv.ConvergenceError("rejected")
        return solve(matrix, rhs)

    monkeypatch.setattr(hv.viscous, "solve_cyclic_tridiagonal", reject_first)
    start = hv.ScalarField(g, 0.5 * cold.values)
    warm, report = hv.solve_viscous(model, lam, eps, g, start=start)
    assert np.array_equal(warm.values, cold.values)
    assert report.iterations == cold_report.iterations + 1
    assert report.continuation_steps == cold_report.continuation_steps
