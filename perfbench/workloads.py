"""The three benchmark workloads: inputs, one pass, and its output checks.

Each workload is built once per process (the set-up that `setup_s` times)
and then runs a fixed set of operations per pass. Every pass returns an
`Outcome`: operations attempted and failed, whether all output checks held,
and the oracle distance. A failure is a dropped sweep point, a
ConvergenceError, an unexpected CLI exit code or a failed output check.

Functions are always called through their module attribute
(`hv.adjoint.solve_adjoint_stationary`, `hv.cli.main`, ...), so the tracer
can swap them without touching the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SWEEP_ALPHAS = (0.2, 0.6)
SWEEP_NS = (2048, 16384)
SWEEP_POINTS = 10  # the default lambda list of `hjvisc sweep`

FP_N, FP_LAM, FP_EPS = 256, 2.5e-3, 2.5e-2        # criterion 06 stream
FP_GATE = 1e-3
MEASURE_N, MEASURE_EPS = 2048, 5e-2                 # criterion 07 path
MEASURE_LAMS = (1e-2, 5e-3, 2.5e-3)
ACTION_GATE = 1e-3

GENERIC_N, GENERIC_ALPHA = 256, 0.3
GENERIC_LAMS = (0.2, 0.1, 0.05)
GENERIC_LAM, GENERIC_DELTA = 0.05, 0.02


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    oracle_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.correct = False
        self.problems.append(why)


def _run_cli(hv, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hv.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _field_values(text: str) -> np.ndarray:
    """Values column of an `x,value` field CSV."""
    return np.array([float(ln.split(",")[1]) for ln in text.splitlines()[1:]])


def _csv_summary(text: str) -> tuple[int, float]:
    """(record rows, fitted slope) of a sweep CSV."""
    lines = text.splitlines()
    rows = sum(1 for ln in lines[1:] if ln and not ln.startswith("#"))
    slope = next(float(ln.split("=", 1)[1]) for ln in lines
                 if ln.startswith("# fitted_slope="))
    return rows, slope


class _Workload:
    """Common pass bookkeeping: outputs of the first pass are the reference
    that every later pass must reproduce exactly."""

    def __init__(self, hv, seed: int, workdir: Path) -> None:
        self.hv = hv
        self.workdir = workdir
        self.inputs: dict[str, object] = {}
        self.reference: dict[str, object] = {}

    def same_as_first(self, key: str, value: object, outcome: Outcome,
                      ops: int) -> None:
        ref = self.reference.setdefault(key, value)
        if ref != value:
            outcome.fail(ops, f"{key}: output differs from the first pass")

    def warmup(self) -> Outcome:
        return self.run_pass()


class Sweep(_Workload):
    """`hjvisc sweep` for the pendulum, alpha x n, through in-process cli.main."""

    seeded = "order of the four sweep calls"

    def __init__(self, hv, seed: int, workdir: Path) -> None:
        super().__init__(hv, seed, workdir)
        self.calls = [(a, n) for a in SWEEP_ALPHAS for n in SWEEP_NS]
        random.Random(seed).shuffle(self.calls)
        self.inputs = {"call_order": [f"alpha={a} n={n}" for a, n in self.calls]}

    def run_pass(self) -> Outcome:
        outcome = Outcome()
        worst = 0.0
        for alpha, n in self.calls:
            outcome.attempted += SWEEP_POINTS
            csv = self.workdir / f"sweep-a{alpha}-n{n}.csv"
            code, _, err = _run_cli(self.hv, ["sweep", "--alpha", str(alpha),
                                              "--n", str(n), "--out", str(csv)])
            dropped = [ln for ln in err.splitlines() if ln.startswith("failed lambda=")]
            if code != (2 if dropped else 0) or not csv.is_file():
                outcome.fail(SWEEP_POINTS, f"sweep alpha={alpha} n={n}: exit {code}")
                continue
            text = csv.read_text()
            csv.unlink()
            rows, slope = _csv_summary(text)
            outcome.failed += len(dropped)
            if rows + len(dropped) != SWEEP_POINTS:
                outcome.fail(SWEEP_POINTS - len(dropped),
                             f"sweep alpha={alpha} n={n}: {rows} rows + "
                             f"{len(dropped)} failed != {SWEEP_POINTS}")
            else:
                self.same_as_first(f"a{alpha}-n{n}", (text, dropped), outcome, rows)
            worst = max(worst, abs(slope - alpha))
        outcome.oracle_err = worst
        return outcome


class Adjoint(_Workload):
    """Criterion 06 Fokker-Planck stream and criterion 07 measure path."""

    seeded = "adjoint source node"

    def __init__(self, hv, seed: int, workdir: Path) -> None:
        super().__init__(hv, seed, workdir)
        self.model = hv.pendulum_hamiltonian()
        self.fp_grid = hv.Grid1D(FP_N)
        self.measure_grid = hv.Grid1D(MEASURE_N)
        self.node = random.Random(seed).randrange(FP_N)
        # the same point x0 on the finer grid
        self.measure_node = self.node * (MEASURE_N // FP_N)
        self.inputs = {"source_node_n256": self.node,
                       "source_node_n2048": self.measure_node}

    def _stream(self, t_final: float):
        hv = self.hv
        u, report = hv.viscous.solve_viscous(self.model, FP_LAM, FP_EPS, self.fp_grid)
        if not report.converged:
            raise hv.ConvergenceError("n = 256 viscous solve did not converge")
        drift = hv.adjoint.drift_field(self.model, u)
        return u, hv.adjoint.evolve_fokker_planck(drift, FP_EPS, self.node, t_final)

    def warmup(self) -> Outcome:
        # a short stream loads the sparse-LU path; a full one would cost a pass
        _, stream = self._stream(2000 * self.fp_grid.h)
        for _ in stream:
            pass
        outcome = Outcome(attempted=1)
        self._measure_path(outcome)
        return outcome

    def run_pass(self) -> Outcome:
        hv = self.hv
        outcome = Outcome(attempted=2)
        try:
            u, stream = self._stream(20.0 / FP_LAM)
            stationary = hv.adjoint.solve_adjoint_stationary(
                self.model, u, FP_LAM, FP_EPS, self.node)
            averaged = hv.adjoint.stationary_from_transient(stream, FP_LAM)
        except (hv.ConvergenceError, ValueError) as exc:
            outcome.fail(1, f"Fokker-Planck stream: {exc}")
        else:
            s, a = stationary.values, averaged.values
            gap = float(np.max(np.abs(a - s))) / float(np.max(np.abs(s)))
            outcome.oracle_err = gap
            if not gap <= FP_GATE:
                outcome.fail(1, f"transient-vs-stationary gap {gap:.3e} > {FP_GATE}")
            else:
                self.same_as_first("fp_gap", gap, outcome, 1)
        self._measure_path(outcome)
        return outcome

    def _measure_path(self, outcome: Outcome) -> None:
        hv = self.hv
        model, grid = self.model, self.measure_grid
        lam = MEASURE_LAMS[0]
        try:
            c_eps = hv.measures.estimate_ergodic_constant(
                model, MEASURE_EPS, MEASURE_LAMS, grid)
            u, report = hv.viscous.solve_viscous(model, lam, MEASURE_EPS, grid)
            if not report.converged:
                raise hv.ConvergenceError("n = 2048 viscous solve did not converge")
            theta = hv.adjoint.solve_adjoint_stationary(
                model, u, lam, MEASURE_EPS, self.measure_node)
            mu = hv.measures.extract_measure(model, u, theta)
            action = hv.measures.measure_action(mu, model)
        except (hv.ConvergenceError, ValueError) as exc:
            outcome.fail(1, f"measure path: {exc}")
            return
        target = lam * float(u.values[self.measure_node])
        rel = abs(action - target) / abs(target)
        if not (math.isfinite(c_eps) and rel <= ACTION_GATE):
            outcome.fail(1, f"measure path: c_eps {c_eps!r}, action gap {rel:.3e}")
        else:
            self.same_as_first("measure", (c_eps, action), outcome, 1)


class Generic(_Workload):
    """Custom separable Hamiltonian on the inline-potential config route."""

    seeded = None  # fixed potential and parameters: nothing to draw

    def __init__(self, hv, seed: int, workdir: Path) -> None:
        super().__init__(hv, seed, workdir)
        self.grid = grid = hv.Grid1D(GENERIC_N)
        self.expected_supconv = None
        potential = (0.3 * (np.cos(grid.x) - 1.0)).tolist()
        self.sweep_cfg = workdir / "generic-sweep.json"
        self.sweep_cfg.write_text(json.dumps({
            "command": "sweep", "potential": potential, "n": GENERIC_N,
            "alpha": GENERIC_ALPHA, "lambda-list": list(GENERIC_LAMS)}))
        self.supconv_cfg = workdir / "generic-supconv.json"
        self.supconv_cfg.write_text(json.dumps({
            "command": "supconv", "potential": potential, "n": GENERIC_N,
            "lambda": GENERIC_LAM, "delta": GENERIC_DELTA}))
        self.inviscid_cfg = workdir / "generic-inviscid.json"
        self.inviscid_cfg.write_text(json.dumps({
            "command": "solve-inviscid", "potential": potential, "n": GENERIC_N,
            "lambda": GENERIC_LAM}))

    def warmup(self) -> Outcome:
        """Build the sup-convolution oracle, then run one pass.

        `hjvisc solve-inviscid` on the supconv config's potential and lambda
        yields the field that `hjvisc supconv` regularizes. Its sup-convolution
        by a brute-force periodic scan (as in criterion 11) is what every
        pass's supconv output must match.
        """
        csv = self.workdir / "generic-inviscid.csv"
        code, _, err = _run_cli(self.hv, ["solve-inviscid", "--config",
                                          str(self.inviscid_cfg), "--out", str(csv)])
        if code != 0:
            sys.exit(f"perfbench: generic solve-inviscid exit {code}: {err.strip()}")
        u = _field_values(csv.read_text())
        x, length = self.grid.x, self.grid.length
        gap = np.abs(x[:, None] - x[None, :])
        dist = np.minimum(gap, length - gap)
        self.expected_supconv = np.max(u[None, :] - dist ** 2 / (2.0 * GENERIC_DELTA),
                                       axis=1)
        return self.run_pass()

    def run_pass(self) -> Outcome:
        outcome = Outcome(attempted=len(GENERIC_LAMS) + 1)
        csv = self.workdir / "generic-sweep.csv"
        code, _, err = _run_cli(self.hv, ["sweep", "--config", str(self.sweep_cfg),
                                          "--out", str(csv)])
        if code != 0 or not csv.is_file():
            outcome.fail(len(GENERIC_LAMS), f"generic sweep: exit {code}: {err.strip()}")
        else:
            text = csv.read_text()
            csv.unlink()
            rows, slope = _csv_summary(text)
            outcome.oracle_err = abs(slope - GENERIC_ALPHA)
            if rows != len(GENERIC_LAMS):
                outcome.fail(len(GENERIC_LAMS) - rows, f"generic sweep: {rows} rows")
            else:
                self.same_as_first("sweep", text, outcome, rows)

        csv = self.workdir / "generic-supconv.csv"
        code, out, err = _run_cli(self.hv, ["supconv", "--config", str(self.supconv_cfg),
                                            "--out", str(csv)])
        if code != 0 or not csv.is_file():
            outcome.fail(1, f"generic supconv: exit {code}: {err.strip()}")
            return outcome
        text = csv.read_text()
        csv.unlink()
        values = _field_values(text)
        second = np.roll(values, -1) - 2.0 * values + np.roll(values, 1)
        floor = -self.grid.h ** 2 / GENERIC_DELTA - 1e-12
        defect = float(out.strip().split("=", 1)[1])
        oracle_gap = float(np.max(np.abs(values - self.expected_supconv)))
        if not (float(second.min()) >= floor and math.isfinite(defect)
                and oracle_gap <= 1e-12):
            outcome.fail(1, f"generic supconv: min second difference "
                            f"{second.min():.3e} (floor {floor:.3e}), defect {defect!r}, "
                            f"{oracle_gap:.3e} off the brute-force scan")
        else:
            self.same_as_first("supconv", (text, out), outcome, 1)
        return outcome


WORKLOADS = {"sweep": Sweep, "adjoint": Adjoint, "generic": Generic}
