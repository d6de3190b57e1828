"""Sweep harness: rate fitting, bound constants, CSV rendering."""

import dataclasses

import numpy as np
import pytest

import hjvisc as hv


def test_fit_recovers_exact_power_laws():
    xs = np.logspace(-3, -1, 8)
    slope, intercept, r2 = hv.fit_loglog_slope([(x, x * x) for x in xs])
    assert abs(slope - 2.0) <= 1e-12
    assert abs(intercept) <= 1e-12
    assert abs(r2 - 1.0) <= 1e-12

    slope, intercept, r2 = hv.fit_loglog_slope(
        [(x, 3.0 * x ** 0.6) for x in xs])
    assert abs(slope - 0.6) <= 1e-12
    assert abs(intercept - np.log(3.0)) <= 1e-12


def test_fit_tolerates_small_noise():
    rng = np.random.RandomState(19)
    xs = np.logspace(-3, -1, 10)
    ys = 2.0 * xs ** 0.7 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, 10))
    slope, _, r2 = hv.fit_loglog_slope(list(zip(xs, ys)))
    assert abs(slope - 0.7) <= 0.02
    assert r2 >= 0.999


def test_fit_validation():
    with pytest.raises(ValueError):
        hv.fit_loglog_slope([(0.1, 1.0), (0.2, 2.0)])  # need three points
    with pytest.raises(ValueError):
        hv.fit_loglog_slope([(0.1, 1.0), (-0.2, 2.0), (0.3, 1.0)])
    with pytest.raises(ValueError):
        hv.fit_loglog_slope([(0.1, 0.0), (0.2, 2.0), (0.3, 1.0)])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            hv.fit_loglog_slope([(0.1, 1.0), (0.2, bad), (0.3, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            hv.fit_loglog_slope([(bad, 1.0), (0.2, 2.0), (0.3, 1.0)])


def test_sweep_validation(pendulum):
    with pytest.raises(ValueError):
        hv.run_sweep(pendulum, 0.2, lam_list=())
    with pytest.raises(ValueError):
        hv.run_sweep(pendulum, 0.2, lam_list=(0.1, 0.2, 0.05))  # not decreasing
    with pytest.raises(ValueError):
        hv.run_sweep(pendulum, 0.2, lam_list=(1.5, 0.1, 0.05))  # outside (0,1)
    with pytest.raises(ValueError):
        hv.run_sweep(pendulum, 1.2)
    with pytest.raises(ValueError):
        hv.run_sweep(pendulum, 0.2, n=1023)  # pendulum ODE needs even n


def test_resolved_sweep_recovers_rate(sweep_a02):
    assert len(sweep_a02.records) == 10
    assert sweep_a02.failed_lambdas == ()
    assert 0.05 <= sweep_a02.fitted_slope <= 0.35
    assert sweep_a02.r_squared >= 0.99
    for rec in sweep_a02.records:
        assert rec.lam > 0 and rec.epsilon > 0
        assert np.isfinite(rec.sup_diff) and rec.sup_diff > 0
        assert abs(rec.epsilon - rec.lam ** 1.2) <= 1e-12


# (lambda, c_delta_ratio, neg_gap) of the alpha = 0.6, n = 2048 sweep as the
# centered-gradient scheme H(x_j, Du_j) computed it: its undamped
# node-alternating mode made the per-record constants drift by factors of
# 17.9 (upper) and 19.3 (lower)
_DRIFTING_A06 = (
    (0.1, 0.948026, -0.185130),
    (0.059948425031894084, 0.969069, -0.156025),
    (0.03593813663804628, 0.981576, -0.123753),
    (0.021544346900318843, 0.989015, -0.095775),
    (0.01291549665014884, 1.015441, -0.071109),
    (0.007742636826811269, 1.145784, -0.045983),
    (0.004641588833612782, 1.520460, -0.016180),
    (0.0027825594022071257, 2.659874, 0.030831),
    (0.001668100537200059, 6.164033, 0.122078),
    (0.001, 16.947609, 0.317884),
)


def _drifting_records():
    records = []
    for lam, c_up, neg in _DRIFTING_A06:
        eps = lam ** 1.6
        gap = c_up * eps / lam
        records.append(hv.SweepRecord(lam, eps, gap, gap, c_up, 7, neg_gap=neg))
    return records


def test_upper_bound_constant_resolved_vs_polluted(sweep_a02, sweep_a06):
    c_up = hv.check_upper_bound(sweep_a02.records)
    assert 0.9 <= c_up <= 1.2
    assert 0.9 <= hv.check_upper_bound(sweep_a06.records) <= 1.2

    # a tail riding an undamped mesh mode: the per-record constants drift
    # far beyond the factor-5 stability gate
    with pytest.raises(AssertionError):
        hv.check_upper_bound(_drifting_records())


def test_lower_bound_constant(sweep_a02, sweep_a06):
    # resolved sweeps: the viscous solution dominates everywhere, no
    # undershoot, and the empirical constant degenerates to zero
    assert hv.check_lower_bound(sweep_a02.records) == 0.0
    assert hv.check_lower_bound(sweep_a06.records) == 0.0
    with pytest.raises(AssertionError):
        hv.check_lower_bound(_drifting_records())


def test_restricted_alpha06_head_recovers_rate(pendulum):
    """The first five lambdas keep eps resolvable and the rate comes back."""
    lams = tuple(np.logspace(-1, -3, 10)[:5])
    res = hv.run_sweep(pendulum, 0.6, lam_list=lams)
    assert 0.45 <= res.fitted_slope <= 0.75
    assert res.r_squared >= 0.999
    # frozen reference; n = 4096 gives 0.57773 as well
    assert abs(res.fitted_slope - 0.577722) <= 5e-3


def test_flat_model_degenerate_fit():
    res = hv.run_sweep(hv.flat_hamiltonian(), 0.3,
                       lam_list=(1e-1, 5e-2, 2.5e-2), n=128)
    assert res.fitted_slope == 0.0
    assert res.r_squared == 0.0
    for rec in res.records:
        assert rec.sup_diff == 0.0


def test_generic_model_uses_lax_friedrichs_reference():
    # non-pendulum models take the LF fallback for the inviscid side
    m = hv.separable_hamiltonian(lambda x: 0.3 * (np.cos(x) - 1.0))
    res = hv.run_sweep(m, 0.3, lam_list=(2e-1, 1e-1, 5e-2), n=256)
    assert len(res.records) == 3
    assert res.failed_lambdas == ()
    for rec in res.records:
        assert np.isfinite(rec.sup_diff) and rec.sup_diff > 0.0


def test_inviscid_reference_is_chosen_by_model_equality(monkeypatch):
    """Only a model equal to pendulum_hamiltonian() takes the branch ODE.

    V = cos x at level 0 (c(H) = 1) is not the pendulum and takes
    Lax-Friedrichs; against the pendulum ODE its gaps would read 9.8 .. 49.9.
    The pendulum rebuilt from its fields takes the ODE and reproduces the
    pendulum sweep exactly.
    """
    calls = []
    ode = hv.harness.solve_pendulum_ode
    monkeypatch.setattr(hv.harness, "solve_pendulum_ode",
                        lambda *args: calls.append(args) or ode(*args))
    lams = (0.1, 0.05, 0.02)
    shifted = hv.run_sweep(hv.separable_hamiltonian(np.cos), 0.3, lams, n=256)
    assert calls == []
    assert shifted.failed_lambdas == ()
    assert max(r.sup_diff for r in shifted.records) < 2.0
    rebuilt = hv.run_sweep(hv.HamiltonianModel(np.cos, level=-1.0), 0.3, lams, n=256)
    assert len(calls) == 3
    reference = hv.run_sweep(hv.pendulum_hamiltonian(), 0.3, lams, n=256)
    assert hv.sweep_to_csv(rebuilt) == hv.sweep_to_csv(reference)


def test_slope_is_grid_stable(pendulum, sweep_a02):
    res1024 = hv.run_sweep(pendulum, 0.2, n=1024)
    assert 0.05 <= res1024.fitted_slope <= 0.35
    assert abs(res1024.fitted_slope - sweep_a02.fitted_slope) <= 0.05


def test_partial_failure_reports_lambdas(pendulum, monkeypatch):
    # every n = 512 point converges, so the solve reports failure at two
    # named lambdas and the sweep must list exactly those
    lams = tuple(np.logspace(-1, -3, 10))
    failing = (lams[3], lams[7])
    solve = hv.harness.solve_viscous

    def flaky_solve(model, lam, eps, grid, start=None):
        u, report = solve(model, lam, eps, grid, start=start)
        return u, dataclasses.replace(report, converged=report.converged and lam not in failing)

    monkeypatch.setattr(hv.harness, "solve_viscous", flaky_solve)
    res = hv.run_sweep(pendulum, 0.2, n=512)
    assert len(res.records) >= 1
    assert len(res.failed_lambdas) >= 1
    assert len(res.records) + len(res.failed_lambdas) == 10
    for lam in res.failed_lambdas:
        assert any(abs(lam - v) <= 1e-15 for v in lams)
    assert tuple(res.failed_lambdas) == failing


def test_all_failed_sweep_raises(pendulum, monkeypatch):
    monkeypatch.setattr(hv.viscous, "MAX_NEWTON_ITERS", 1)
    with pytest.raises(ValueError, match="no records"):
        hv.run_sweep(pendulum, 0.2, n=2048)


def test_csv_layout(sweep_a02):
    text = hv.sweep_to_csv(sweep_a02)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,epsilon,sup_diff,diff_at_zero,c_delta_ratio,newton_iters"
    assert len(lines) == 1 + 10 + 3
    assert lines[-3] == "# alpha=0.20000000000000001"
    assert lines[-2].startswith("# fitted_slope=")
    assert lines[-1].startswith("# r_squared=")
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 0.1
    assert first[5].isdigit()


def test_sweep_is_deterministic_across_reruns(pendulum):
    first = hv.sweep_to_csv(hv.run_sweep(pendulum, 0.2, n=256))
    second = hv.sweep_to_csv(hv.run_sweep(pendulum, 0.2, n=256))
    assert first == second


def _v_asym(x):
    return np.cos(x) + 0.25 * np.cos(2.0 * x + 1.0)


def _v_shifted_cos(x):
    return 0.3 * (np.cos(x) - 1.0)


@pytest.mark.parametrize("alpha", [0.2, 0.6])
@pytest.mark.parametrize("potential", [_v_asym, _v_shifted_cos], ids=["V_asym", "shifted_cos"])
def test_warm_started_sweep_matches_cold_solves(monkeypatch, potential, alpha):
    """Each point starts from the previous lambda's field; the gaps match
    independent cold solves to 1e-9, and V_asym needs no continuation.

    The cold solves are compared against the same inviscid reference the
    sweep used. Cold, V_asym takes 16-252 Newton iterations per point after
    the first.
    """
    model = hv.HamiltonianModel(potential)
    lams = tuple(np.logspace(-1.0, np.log10(5e-3), 6))
    references = {}
    lax_friedrichs = hv.harness.solve_discounted_lax_friedrichs

    def keep_reference(model, lam, grid, sigma, start=None):
        references[lam] = lax_friedrichs(model, lam, grid, sigma=sigma, start=start)[0]
        return references[lam], None

    monkeypatch.setattr(hv.harness, "solve_discounted_lax_friedrichs", keep_reference)
    res = hv.run_sweep(model, alpha, lams, n=2048)
    grid = hv.Grid1D(2048)
    checked = 0
    for rec in res.records:
        cold, report = hv.solve_viscous(model, rec.lam, rec.epsilon, grid)
        if report.converged:
            cold_gap = float(np.max(np.abs(cold.values - references[rec.lam].values)))
            assert abs(rec.sup_diff - cold_gap) <= 1e-9, rec.lam
            checked += 1
    assert checked == len(lams)
    if potential is _v_asym:
        assert max(rec.newton_iters for rec in res.records[1:]) <= 10


@pytest.mark.parametrize("potential, n, alpha, lams", [
    (_v_shifted_cos, 256, 0.3, (0.2, 0.1, 0.05)),
    (_v_asym, 2048, 0.2, tuple(np.logspace(-1.0, np.log10(5e-3), 6))),
], ids=["shifted_cos-256", "V_asym-2048"])
def test_lax_friedrichs_reference_starts_from_the_viscous_field(monkeypatch, potential, n,
                                                                alpha, lams):
    """Each point's Lax-Friedrichs run starts from the viscous field at its
    lambda, and its reference matches an independent cold solve to 1e-12."""
    model = hv.HamiltonianModel(potential)
    lax_friedrichs = hv.harness.solve_discounted_lax_friedrichs
    seen = []

    def compare_with_cold(model, lam, grid, sigma, start=None):
        assert start is not None and start.grid == grid
        warm, report = lax_friedrichs(model, lam, grid, sigma=sigma, start=start)
        cold = lax_friedrichs(model, lam, grid, sigma=sigma)[0]
        seen.append(float(np.max(np.abs(warm.values - cold.values))))
        return warm, report

    monkeypatch.setattr(hv.harness, "solve_discounted_lax_friedrichs", compare_with_cold)
    res = hv.run_sweep(model, alpha, lams, n=n)
    assert len(res.records) == len(seen) == len(lams)
    assert max(seen) <= 1e-12
