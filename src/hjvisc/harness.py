"""Vanishing-viscosity convergence sweep: rate fitting and bound checks.

A sweep couples the viscosity to the discount through eps = lambda^(1+alpha)
and records, for each lambda on a decreasing list, the gap between the
viscous and inviscid discounted solutions on one shared grid. The headline
number is the log-log slope of ||u^eps - u||_inf against lambda, which the
two-sided bounds

    -C_low * (eps/lambda + eps*|log eps|)  <=  u^eps - u  <=  C_up * eps/lambda

pin to alpha when eps/lambda = lambda^alpha dominates. check_upper_bound and
check_lower_bound recover the empirical constants and assert they are
uniform (within a factor 5) across the sweep.

CSV layout (one row per record, then a comment summary):

    lambda,epsilon,sup_diff,diff_at_zero,c_delta_ratio,newton_iters
    ...
    # alpha=...
    # fitted_slope=...
    # r_squared=...

printed with 17 significant digits, bit-identical across reruns of one
config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adjoint import drift_field
from .core import ConvergenceError, Grid1D, HamiltonianModel, ScalarField
from .inviscid import solve_discounted_lax_friedrichs, solve_pendulum_ode
from .viscous import solve_viscous

DEFAULT_LAMBDA_LIST = tuple(np.logspace(-1.0, -3.0, 10))


@dataclass(frozen=True)
class SweepRecord:
    """One (lambda, eps) comparison point of a sweep.

    neg_gap keeps the signed maximum of u - u^eps for the lower-bound
    constant; it is not part of the CSV row.
    """

    lam: float
    epsilon: float
    sup_diff: float
    diff_at_zero: float
    c_delta_ratio: float
    newton_iters: int
    neg_gap: float = 0.0

    def __post_init__(self) -> None:
        fields = (self.lam, self.epsilon, self.sup_diff, self.diff_at_zero,
                  self.c_delta_ratio, self.neg_gap)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("sweep record contains non-finite entries")
        if not (self.lam > 0.0 and self.epsilon > 0.0):
            raise ValueError("lambda and epsilon must be positive")


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    alpha: float
    fitted_slope: float
    fitted_intercept: float
    r_squared: float
    failed_lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.records) == 0:
            raise ValueError("sweep produced no records")
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared {self.r_squared!r} outside [0, 1]")


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares of log y against log x.

    Returns (slope, intercept, r_squared); intercept is in log units, so
    points on y = 3 x^0.6 give (0.6, log 3, 1). Needs at least 3 strictly
    positive, finite points.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points to fit")
    if not np.all((pts > 0.0) & np.isfinite(pts)):
        raise ValueError("log-log fit needs strictly positive finite coordinates")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        # constant data: a flat line either nails it or data were degenerate
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    r2 = min(max(r2, 0.0), 1.0)
    return float(slope), float(intercept), float(r2)


def _lf_speed_bound(model: HamiltonianModel, u_eps: ScalarField) -> float:
    """Artificial-viscosity speed for the LF fallback, padded 25% above the
    largest |dH/dp| seen along the viscous solution's gradient range."""
    speed = float(np.max(np.abs(drift_field(model, u_eps).values)))
    return max(1.25 * speed, 1.0)


def _sweep_point(model: HamiltonianModel, lam: float, alpha: float,
                 grid: Grid1D) -> SweepRecord:
    eps = lam ** (1.0 + alpha)
    u_eps, report = solve_viscous(model, lam, eps, grid)
    if not report.converged:
        raise ConvergenceError(
            f"viscous solve at lambda = {lam:.6g} stalled "
            f"(residual {report.final_residual_inf:.3e})")
    if model.descriptor == "pendulum":
        u_inv = solve_pendulum_ode(lam, grid.n // 2)
    else:
        u_inv, _ = solve_discounted_lax_friedrichs(
            model, lam, grid, sigma=_lf_speed_bound(model, u_eps))
    gap = u_eps.values - u_inv.values
    return SweepRecord(
        lam=lam,
        epsilon=eps,
        sup_diff=float(np.max(np.abs(gap))),
        diff_at_zero=float(abs(gap[0])),
        c_delta_ratio=float(np.max(gap)) * lam / eps,
        newton_iters=report.iterations,
        neg_gap=float(np.max(-gap)),
    )


def run_sweep(model: HamiltonianModel, alpha: float,
              lam_list: Sequence[float] = DEFAULT_LAMBDA_LIST,
              n: int = 2048) -> SweepResult:
    """Run the eps = lambda^(1+alpha) comparison over a decreasing lambda list.

    The inviscid reference is the pendulum branch ODE when the model is the
    pendulum (sampled on the same torus nodes; n must be even for that) and
    the Lax-Friedrichs scheme otherwise. A failing point is dropped from
    the records and reported in failed_lambdas. All-zero gaps (flat model)
    fit degenerately to slope = intercept = r_squared = 0.
    """
    lams = [float(v) for v in lam_list]
    if len(lams) == 0:
        raise ValueError("lambda list is empty")
    if not all(0.0 < v < 1.0 for v in lams):
        raise ValueError("each lambda must lie in (0, 1)")
    if not all(a > b for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda list must be strictly decreasing")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if model.descriptor == "pendulum" and n % 2 != 0:
        raise ValueError("pendulum sweeps need even n to share nodes with the ODE")
    grid = Grid1D(n)

    records = []
    failed = []
    for lam in lams:
        try:
            records.append(_sweep_point(model, lam, alpha, grid))
        except ConvergenceError:
            failed.append(lam)

    fit_pts = [(r.lam, r.sup_diff) for r in records if r.sup_diff > 0.0]
    if len(fit_pts) >= 3:
        slope, intercept, r2 = fit_loglog_slope(fit_pts)
    else:
        slope, intercept, r2 = 0.0, 0.0, 0.0
    return SweepResult(tuple(records), alpha, slope, intercept, r2, tuple(failed))


def check_upper_bound(records: Sequence[SweepRecord]) -> float:
    """Empirical constant C_up with (u^eps - u) <= (eps/lambda) * C_up.

    Returns the largest per-record ratio (max_j gap) * lambda / eps and
    asserts the meaningful ratios agree within a factor 5: the bound uses one
    uniform constant. Records with no positive gap put no constraint on C_up
    and are skipped by the stability check.
    """
    if len(records) == 0:
        raise ValueError("no records to check")
    ratios = np.array([r.c_delta_ratio for r in records])
    live = ratios[ratios > 1e-9]
    if live.size >= 2:
        assert float(live.max() / live.min()) <= 5.0, \
            f"upper-bound constant drifts: {live.min():.3e} .. {live.max():.3e}"
    return float(ratios.max()) if live.size else 0.0


def check_lower_bound(records: Sequence[SweepRecord]) -> float:
    """Empirical constant C_low with u - u^eps <= C_low*(eps/lambda + eps|log eps|).

    Returns the largest ratio of the positive undershoot to the theoretical
    envelope and asserts uniformity (factor 5) across the records that show
    any undershoot at all; a sweep whose viscous solution dominates
    everywhere yields 0.
    """
    if len(records) == 0:
        raise ValueError("no records to check")
    ratios = []
    for r in records:
        envelope = r.epsilon / r.lam + r.epsilon * abs(math.log(r.epsilon))
        ratios.append(max(r.neg_gap, 0.0) / envelope)
    arr = np.array(ratios)
    live = arr[arr > 1e-9]
    if live.size >= 2:
        assert float(live.max() / live.min()) <= 5.0, \
            f"lower-bound constant drifts: {live.min():.3e} .. {live.max():.3e}"
    return float(arr.max()) if live.size else 0.0


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep in the fixed CSV layout (deterministic, 17 digits)."""
    lines = ["lambda,epsilon,sup_diff,diff_at_zero,c_delta_ratio,newton_iters"]
    for r in result.records:
        lines.append(",".join([
            _g17(r.lam), _g17(r.epsilon), _g17(r.sup_diff),
            _g17(r.diff_at_zero), _g17(r.c_delta_ratio), str(r.newton_iters),
        ]))
    lines.append(f"# alpha={_g17(result.alpha)}")
    lines.append(f"# fitted_slope={_g17(result.fitted_slope)}")
    lines.append(f"# r_squared={_g17(result.r_squared)}")
    return "\n".join(lines) + "\n"
