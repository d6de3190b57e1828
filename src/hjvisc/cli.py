"""Command-line front end: config resolution, solver dispatch, CSV output.

Subcommands: solve-viscous, solve-inviscid, adjoint, ergodic, supconv,
sweep. Parameters come from flags, from a strict JSON config file
(--config PATH; unknown keys are rejected), or both, with flags winning.
--dump-config prints the fully resolved configuration as canonical JSON and
exits without solving, so a dumped config reparses to an identical run.

Exit codes: 0 success, 1 validation/usage error, 2 solver non-convergence.
Field output is CSV with rows `x,value`; sweeps use the harness layout. All
floats are printed with 17 significant digits; nothing here is randomized.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .adjoint import solve_adjoint_stationary
from .core import (ConvergenceError, Grid1D, HamiltonianModel, ScalarField,
                   SolveReport, flat_hamiltonian, pendulum_hamiltonian,
                   separable_hamiltonian)
from .harness import DEFAULT_LAMBDA_LIST, run_sweep, sweep_to_csv, _g17
from .inviscid import solve_discounted_lax_friedrichs, solve_pendulum_ode
from .measures import estimate_ergodic_constant
from .regularize import sup_convolution, subsolution_defect
from .viscous import solve_viscous


@dataclass(frozen=True)
class _Param:
    kind: str                 # str | int | float | floats (config only)
    default: Any = None
    required: bool = False
    positive: bool = False
    help: str = ""


_MODEL = {
    "hamiltonian": _Param("str", default="pendulum", help="model name: pendulum or flat"),
    "potential": _Param("floats", help="inline potential samples on the run grid (config only)"),
}
_LAMBDA = _Param("float", required=True, positive=True, help="discount factor")
_EPS = _Param("float", required=True, positive=True, help="viscosity")
_TOL = _Param("float", default=1e-10, positive=True, help="Newton residual tolerance")
_SIGMA = _Param("float", positive=True, help="Lax-Friedrichs speed bound")
_OUT = _Param("str", help="output CSV path")
_N1024 = _Param("int", default=1024, positive=True, help="grid size")
_N2048 = _Param("int", default=2048, positive=True, help="grid size")

_SCHEMAS: dict[str, dict[str, _Param]] = {
    "solve-viscous": {
        **_MODEL, "n": _N1024, "lambda": _LAMBDA, "epsilon": _EPS, "tol": _TOL, "out": _OUT,
    },
    "solve-inviscid": {
        **_MODEL, "n": _N1024, "lambda": _LAMBDA,
        "method": _Param("str", help="ode (pendulum only) or lf; default by model"),
        "sigma": _SIGMA,
        "tol": _Param("float", default=1e-8, positive=True,
                      help="Newton stops at omega*|F|_inf <= tol*lambda, omega = h/(sigma+lambda*h)"),
        "out": _OUT,
    },
    "adjoint": {
        **_MODEL, "n": _N2048, "lambda": _LAMBDA, "epsilon": _EPS,
        "x0-index": _Param("int", default=0, help="source node index"),
        "tol": _TOL, "out": _OUT,
    },
    "ergodic": {
        **_MODEL, "n": _N1024, "epsilon": _EPS,
        "lambda-seq": _Param("floats", default=(1e-2, 5e-3, 2.5e-3),
                             help="decreasing discount sequence (config only)"),
        "out": _OUT,
    },
    "supconv": {
        **_MODEL, "n": _N2048, "lambda": _LAMBDA,
        "delta": _Param("float", required=True, positive=True, help="sup-convolution parameter"),
        "sigma": _SIGMA, "out": _OUT,
    },
    "sweep": {
        **_MODEL, "n": _N2048,
        "alpha": _Param("float", required=True, positive=True, help="coupling exponent"),
        "lambda-list": _Param("floats", default=tuple(DEFAULT_LAMBDA_LIST),
                              help="decreasing discount list (config only)"),
        "out": _OUT,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved, validated run: one command plus its parameters."""

    command: str
    params: dict[str, Any]

    def __post_init__(self) -> None:
        schema = _SCHEMAS[self.command]
        missing = [k for k, p in schema.items()
                   if p.required and self.params.get(k) is None]
        if missing:
            raise ValueError(f"missing required parameter(s): {', '.join(sorted(missing))}")
        for key, p in schema.items():
            val = self.params.get(key)
            if p.positive and val is not None and not val > 0:
                raise ValueError(f"{key} must be positive, got {val!r}")

    def dump(self) -> str:
        return json.dumps({"command": self.command, **self.params}, indent=2, sort_keys=True)


def _is_number(val: Any) -> bool:
    return isinstance(val, (int, float, np.floating)) and not isinstance(val, bool)


def _coerce(key: str, p: _Param, val: Any) -> Any:
    if val is None:
        return None
    if p.kind == "int":
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise ValueError(f"{key} must be an integer, got {val!r}")
        return int(val)
    if p.kind == "float":
        if not _is_number(val):
            raise ValueError(f"{key} must be a number, got {val!r}")
        return float(val)
    if p.kind == "floats":
        if not (isinstance(val, (list, tuple)) and all(map(_is_number, val))):
            raise ValueError(f"{key} must be a list of numbers")
        return tuple(float(v) for v in val)
    if not isinstance(val, str):
        raise ValueError(f"{key} must be a string, got {val!r}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjvisc",
        description="Discounted Hamilton-Jacobi solvers on the torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, schema in _SCHEMAS.items():
        p = sub.add_parser(cmd, help=f"{cmd} run")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved config as JSON and exit")
        for key, param in schema.items():
            if param.kind == "floats":
                continue  # list-valued: config only
            typ = {"int": int, "float": float, "str": str}[param.kind]
            p.add_argument(f"--{key}", dest=key, type=typ, default=None,
                           help=param.help)
    return parser


def _resolve(command: str, ns_map: dict[str, Any]) -> RunConfig:
    schema = _SCHEMAS[command]
    values = {k: p.default for k, p in schema.items()}
    cfg_path = ns_map.get("config")
    if cfg_path is not None:
        text = Path(cfg_path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        cfg_cmd = raw.pop("command", None)
        if cfg_cmd is not None and cfg_cmd != command:
            raise ValueError(
                f"config is for command {cfg_cmd!r}, invoked as {command!r}")
        unknown = sorted(set(raw) - set(schema))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key, val in raw.items():
            values[key] = _coerce(key, schema[key], val)
    for key, param in schema.items():
        if ns_map.get(key) is not None:
            values[key] = _coerce(key, param, ns_map[key])
    return RunConfig(command, values)


def _build_model(cfg: RunConfig, grid: Grid1D) -> HamiltonianModel:
    pot = cfg.params.get("potential")
    if pot is not None:
        return separable_hamiltonian(pot, grid)
    name = cfg.params["hamiltonian"]
    if name == "pendulum":
        return pendulum_hamiltonian()
    if name == "flat":
        return flat_hamiltonian()
    raise ValueError(f"unknown hamiltonian {name!r} (pendulum, flat, or inline potential)")


def field_to_csv(field: ScalarField) -> str:
    """`x,value` rows for a nodal field (a DensityField is one too)."""
    lines = ["x,value"]
    for x, v in zip(field.grid.x, field.values):
        lines.append(f"{_g17(x)},{_g17(v)}")
    return "\n".join(lines) + "\n"


def _write_out(cfg: RunConfig, text: str) -> None:
    out = cfg.params.get("out")
    if out is not None:
        Path(out).write_text(text)


def _solve_inviscid_field(cfg: RunConfig, model: HamiltonianModel,
                          grid: Grid1D) -> ScalarField:
    pendulum = model == pendulum_hamiltonian()
    method = cfg.params.get("method")
    if method is None:
        method = "ode" if pendulum else "lf"
    if method == "ode":
        if not pendulum:
            raise ValueError("the branch ODE reference applies to the pendulum only")
        if grid.n % 2 != 0:
            raise ValueError("the ODE reference needs an even grid size")
        return solve_pendulum_ode(cfg.params["lambda"], grid.n // 2)
    if method == "lf":
        # default: 1.25 * max|dH/dp| = 1.25 * max|p| over |p| <= 3
        sigma = cfg.params.get("sigma") or 3.75
        tol = cfg.params.get("tol", 1e-8)
        u, _report = solve_discounted_lax_friedrichs(model, cfg.params["lambda"],
                                                     grid, sigma, tol=tol)
        return u
    raise ValueError(f"unknown method {method!r} (ode or lf)")


def _solve_viscous_checked(cfg: RunConfig, model: HamiltonianModel,
                           grid: Grid1D) -> tuple[ScalarField, SolveReport]:
    u, report = solve_viscous(model, cfg.params["lambda"], cfg.params["epsilon"],
                              grid, cfg.params["tol"])
    if not report.converged:
        raise ConvergenceError(
            f"Newton stalled at residual {report.final_residual_inf:.3e} "
            f"after {report.iterations} iterations")
    return u, report


def _cmd_solve_viscous(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    u, report = _solve_viscous_checked(cfg, model, grid)
    _write_out(cfg, field_to_csv(u))
    print(f"iterations={report.iterations} residual_inf={_g17(report.final_residual_inf)} "
          f"continuation_steps={report.continuation_steps}")
    return 0


def _cmd_solve_inviscid(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    u = _solve_inviscid_field(cfg, model, grid)
    _write_out(cfg, field_to_csv(u))
    print(f"max_u={_g17(float(np.max(u.values)))}")
    return 0


def _cmd_adjoint(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    u, _report = _solve_viscous_checked(cfg, model, grid)
    theta = solve_adjoint_stationary(model, u, cfg.params["lambda"], cfg.params["epsilon"],
                                     cfg.params["x0-index"])
    _write_out(cfg, field_to_csv(theta))
    print(f"mass={_g17(grid.h * float(np.sum(theta.values)))} "
          f"renorm_factor={_g17(theta.renorm_factor)}")
    return 0


def _cmd_ergodic(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    eps = cfg.params["epsilon"]
    c_eps = estimate_ergodic_constant(model, eps, cfg.params["lambda-seq"], grid)
    _write_out(cfg, f"epsilon,c_eps\n{_g17(eps)},{_g17(c_eps)}\n")
    print(f"c_eps={_g17(c_eps)}")
    return 0


def _cmd_supconv(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    u = _solve_inviscid_field(cfg, model, grid)
    u_delta = sup_convolution(u, cfg.params["delta"])
    defect = subsolution_defect(u_delta, cfg.params["lambda"], model)
    _write_out(cfg, field_to_csv(u_delta))
    print(f"subsolution_defect={_g17(defect)}")
    return 0


def _cmd_sweep(cfg: RunConfig, model: HamiltonianModel, grid: Grid1D) -> int:
    result = run_sweep(model, cfg.params["alpha"], cfg.params["lambda-list"], grid.n)
    _write_out(cfg, sweep_to_csv(result))
    print(f"fitted_slope={_g17(result.fitted_slope)} r_squared={_g17(result.r_squared)} "
          f"records={len(result.records)} failed={len(result.failed_lambdas)}")
    if result.failed_lambdas:
        for lam in result.failed_lambdas:
            print(f"failed lambda={_g17(lam)}", file=sys.stderr)
        return 2
    return 0


_DISPATCH = {
    "solve-viscous": _cmd_solve_viscous,
    "solve-inviscid": _cmd_solve_inviscid,
    "adjoint": _cmd_adjoint,
    "ergodic": _cmd_ergodic,
    "supconv": _cmd_supconv,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; --help exits 0, errors exit 1
        return 0 if exc.code == 0 else 1
    ns_map = vars(ns)
    command = ns_map["command"]
    try:
        cfg = _resolve(command, ns_map)
        if ns_map.get("dump_config"):
            print(cfg.dump())
            return 0
        grid = Grid1D(cfg.params["n"])
        return _DISPATCH[command](cfg, _build_model(cfg, grid), grid)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Console-script wrapper around main()."""
    raise SystemExit(main(sys.argv[1:]))
