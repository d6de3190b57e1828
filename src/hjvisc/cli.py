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
                   flat_hamiltonian, pendulum_hamiltonian,
                   separable_hamiltonian)
from .harness import DEFAULT_LAMBDA_LIST, run_sweep, sweep_to_csv, _g17
from .inviscid import solve_discounted_lax_friedrichs, solve_pendulum_ode
from .measures import estimate_ergodic_constant
from .regularize import sup_convolution, subsolution_defect
from .viscous import solve_viscous


@dataclass(frozen=True)
class _Param:
    kind: str                 # str | int | float | floats
    default: Any = None
    required: bool = False
    flag: bool = True         # exposed as a command-line flag
    positive: bool = False
    help: str = ""


_HAM = _Param("str", default="pendulum", help="model name: pendulum or flat")
_POT = _Param("floats", flag=False,
              help="inline potential samples on the run grid (config only)")
_OUT = _Param("str", help="output CSV path")


def _n_param(default: int) -> _Param:
    return _Param("int", default=default, positive=True, help="grid size")


_SCHEMAS: dict[str, dict[str, _Param]] = {
    "solve-viscous": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(1024),
        "lambda": _Param("float", required=True, positive=True, help="discount factor"),
        "epsilon": _Param("float", required=True, positive=True, help="viscosity"),
        "tol": _Param("float", default=1e-10, positive=True, help="Newton residual tolerance"),
        "out": _OUT,
    },
    "solve-inviscid": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(1024),
        "lambda": _Param("float", required=True, positive=True, help="discount factor"),
        "method": _Param("str", help="ode (pendulum only) or lf; default by model"),
        "sigma": _Param("float", positive=True, help="Lax-Friedrichs speed bound"),
        "tol": _Param("float", default=1e-8, positive=True,
                      help="Newton stops at omega*|F|_inf <= tol*lambda, omega = h/(sigma+lambda*h)"),
        "out": _OUT,
    },
    "adjoint": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(2048),
        "lambda": _Param("float", required=True, positive=True, help="discount factor"),
        "epsilon": _Param("float", required=True, positive=True, help="viscosity"),
        "x0-index": _Param("int", default=0, help="source node index"),
        "tol": _Param("float", default=1e-10, positive=True, help="Newton residual tolerance"),
        "out": _OUT,
    },
    "ergodic": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(1024),
        "epsilon": _Param("float", required=True, positive=True, help="viscosity"),
        "lambda-seq": _Param("floats", default=(1e-2, 5e-3, 2.5e-3), flag=False,
                             help="decreasing discount sequence (config only)"),
        "out": _OUT,
    },
    "supconv": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(2048),
        "lambda": _Param("float", required=True, positive=True, help="discount factor"),
        "delta": _Param("float", required=True, positive=True, help="sup-convolution parameter"),
        "sigma": _Param("float", positive=True, help="Lax-Friedrichs speed bound"),
        "out": _OUT,
    },
    "sweep": {
        "hamiltonian": _HAM, "potential": _POT, "n": _n_param(2048),
        "alpha": _Param("float", required=True, positive=True, help="coupling exponent"),
        "lambda-list": _Param("floats", default=tuple(DEFAULT_LAMBDA_LIST), flag=False,
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
            if val is None:
                continue
            if p.positive and p.kind in ("int", "float") and not val > 0:
                raise ValueError(f"{key} must be positive, got {val!r}")

    def dump(self) -> str:
        doc: dict[str, Any] = {"command": self.command}
        for key in sorted(self.params):
            val = self.params[key]
            if isinstance(val, tuple):
                val = list(val)
            doc[key] = val
        return json.dumps(doc, indent=2, sort_keys=True)


def _coerce(key: str, p: _Param, val: Any) -> Any:
    if val is None:
        return None
    if p.kind == "int":
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise ValueError(f"{key} must be an integer, got {val!r}")
        return int(val)
    if p.kind == "float":
        if isinstance(val, bool) or not isinstance(val, (int, float, np.floating)):
            raise ValueError(f"{key} must be a number, got {val!r}")
        return float(val)
    if p.kind == "floats":
        if not isinstance(val, (list, tuple)):
            raise ValueError(f"{key} must be a list of numbers")
        return tuple(float(v) for v in val)
    if p.kind == "str":
        if not isinstance(val, str):
            raise ValueError(f"{key} must be a string, got {val!r}")
        return val
    raise AssertionError(f"unhandled parameter kind {p.kind!r}")


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
            if not param.flag:
                continue
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
        if param.flag and ns_map.get(key) is not None:
            values[key] = _coerce(key, param, ns_map[key])
    return RunConfig(command, values)


def _build_model(cfg: RunConfig) -> HamiltonianModel:
    pot = cfg.params.get("potential")
    if pot is not None:
        grid = Grid1D(cfg.params["n"])
        return separable_hamiltonian(np.asarray(pot, dtype=float), grid, name="inline")
    name = cfg.params["hamiltonian"]
    if name == "pendulum":
        return pendulum_hamiltonian()
    if name == "flat":
        return flat_hamiltonian()
    raise ValueError(f"unknown hamiltonian {name!r} (pendulum, flat, or inline potential)")


def field_to_csv(field: ScalarField | Any) -> str:
    """`x,value` rows for a nodal field (ScalarField or DensityField)."""
    lines = ["x,value"]
    for x, v in zip(field.grid.x, field.values):
        lines.append(f"{_g17(x)},{_g17(v)}")
    return "\n".join(lines) + "\n"


def _write_out(cfg: RunConfig, text: str) -> None:
    out = cfg.params.get("out")
    if out is not None:
        Path(out).write_text(text)


def _lf_sigma(model: HamiltonianModel, grid: Grid1D, given: float | None) -> float:
    if given is not None:
        return given
    ps = np.linspace(-3.0, 3.0, 13)
    speed = float(np.max(np.abs(np.asarray(
        model.dhdp(grid.x[:, None], ps[None, :]), dtype=float))))
    return max(1.25 * speed, 1.0)


def _solve_inviscid_field(cfg: RunConfig, model: HamiltonianModel,
                          grid: Grid1D) -> ScalarField:
    method = cfg.params.get("method")
    if method is None:
        method = "ode" if model.descriptor == "pendulum" else "lf"
    if method == "ode":
        if model.descriptor != "pendulum":
            raise ValueError("the branch ODE reference applies to the pendulum only")
        if grid.n % 2 != 0:
            raise ValueError("the ODE reference needs an even grid size")
        return solve_pendulum_ode(cfg.params["lambda"], grid.n // 2)
    if method == "lf":
        sigma = _lf_sigma(model, grid, cfg.params.get("sigma"))
        tol = cfg.params.get("tol", 1e-8)
        u, _report = solve_discounted_lax_friedrichs(model, cfg.params["lambda"],
                                                     grid, sigma, tol=tol)
        return u
    raise ValueError(f"unknown method {method!r} (ode or lf)")


def _cmd_solve_viscous(cfg: RunConfig) -> int:
    grid = Grid1D(cfg.params["n"])
    model = _build_model(cfg)
    u, report = solve_viscous(model, cfg.params["lambda"], cfg.params["epsilon"],
                              grid, cfg.params["tol"])
    if not report.converged:
        raise ConvergenceError(
            f"Newton stalled at residual {report.final_residual_inf:.3e} "
            f"after {report.iterations} iterations")
    _write_out(cfg, field_to_csv(u))
    print(f"iterations={report.iterations} residual_inf={_g17(report.final_residual_inf)} "
          f"continuation_steps={report.continuation_steps}")
    return 0


def _cmd_solve_inviscid(cfg: RunConfig) -> int:
    grid = Grid1D(cfg.params["n"])
    model = _build_model(cfg)
    u = _solve_inviscid_field(cfg, model, grid)
    _write_out(cfg, field_to_csv(u))
    print(f"max_u={_g17(float(np.max(u.values)))}")
    return 0


def _cmd_adjoint(cfg: RunConfig) -> int:
    grid = Grid1D(cfg.params["n"])
    model = _build_model(cfg)
    lam, eps = cfg.params["lambda"], cfg.params["epsilon"]
    u, report = solve_viscous(model, lam, eps, grid, cfg.params["tol"])
    if not report.converged:
        raise ConvergenceError(
            f"Newton stalled at residual {report.final_residual_inf:.3e}")
    theta = solve_adjoint_stationary(model, u, lam, eps, cfg.params["x0-index"])
    _write_out(cfg, field_to_csv(theta))
    print(f"mass={_g17(grid.h * float(np.sum(theta.values)))} "
          f"renorm_factor={_g17(theta.renorm_factor)}")
    return 0


def _cmd_ergodic(cfg: RunConfig) -> int:
    grid = Grid1D(cfg.params["n"])
    model = _build_model(cfg)
    eps = cfg.params["epsilon"]
    c_eps = estimate_ergodic_constant(model, eps, cfg.params["lambda-seq"], grid)
    _write_out(cfg, f"epsilon,c_eps\n{_g17(eps)},{_g17(c_eps)}\n")
    print(f"c_eps={_g17(c_eps)}")
    return 0


def _cmd_supconv(cfg: RunConfig) -> int:
    grid = Grid1D(cfg.params["n"])
    model = _build_model(cfg)
    u = _solve_inviscid_field(cfg, model, grid)
    u_delta = sup_convolution(u, cfg.params["delta"])
    defect = subsolution_defect(u_delta, cfg.params["lambda"], model)
    _write_out(cfg, field_to_csv(u_delta))
    print(f"subsolution_defect={_g17(defect)}")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    result = run_sweep(model, cfg.params["alpha"], cfg.params["lambda-list"],
                       cfg.params["n"])
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
        return _DISPATCH[command](cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Console-script wrapper around main()."""
    raise SystemExit(main(sys.argv[1:]))
