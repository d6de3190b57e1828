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
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .adjoint import solve_adjoint_stationary
from .core import (ConvergenceError, Grid1D, HamiltonianModel, ScalarField,
                   check_positive, flat_hamiltonian, pendulum_hamiltonian,
                   separable_hamiltonian)
from .harness import DEFAULT_LAMBDA_LIST, g17, run_sweep, sweep_to_csv
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
_SIGMA = _Param("float", positive=True, help="Lax-Friedrichs speed bound")
_OUT = _Param("str", help="output CSV path")
_N1024 = _Param("int", default=1024, positive=True, help="grid size")
_N2048 = _Param("int", default=2048, positive=True, help="grid size")


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjvisc",
        description="Discounted Hamilton-Jacobi solvers on the torus")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_handler, schema) in _COMMANDS.items():
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


def _resolve(command: str, ns_map: dict[str, Any]) -> dict[str, Any]:
    """The run's parameters: config values, then flags, each coerced to its
    kind; required keys present and positive ones positive and finite."""
    schema = _COMMANDS[command][1]
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
    missing = [k for k, p in schema.items() if p.required and values[k] is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(sorted(missing))}")
    for key, param in schema.items():
        if param.positive and values[key] is not None:
            check_positive(key, values[key])
    return values


def _build_model(params: dict[str, Any], grid: Grid1D) -> HamiltonianModel:
    pot = params.get("potential")
    if pot is not None:
        return separable_hamiltonian(pot, grid)
    name = params["hamiltonian"]
    if name == "pendulum":
        return pendulum_hamiltonian()
    if name == "flat":
        return flat_hamiltonian()
    raise ValueError(f"unknown hamiltonian {name!r} (pendulum, flat, or inline potential)")


def field_to_csv(field: ScalarField) -> str:
    """`x,value` rows for a nodal field (a DensityField is one too)."""
    lines = ["x,value"]
    for x, v in zip(field.grid.x, field.values):
        lines.append(f"{g17(x)},{g17(v)}")
    return "\n".join(lines) + "\n"


def _write_out(params: dict[str, Any], text: str) -> None:
    out = params.get("out")
    if out is not None:
        Path(out).write_text(text)


def _solve_inviscid_field(params: dict[str, Any], model: HamiltonianModel,
                          grid: Grid1D) -> ScalarField:
    """The branch ODE for the pendulum, Lax-Friedrichs at --sigma for any other model."""
    if model == pendulum_hamiltonian():
        if grid.n % 2 != 0:
            raise ValueError("the ODE reference needs an even grid size")
        return solve_pendulum_ode(params["lambda"], grid.n // 2)
    # default: 1.25 * max|dH/dp| = 1.25 * max|p| over |p| <= 3
    sigma = params.get("sigma") or 3.75
    u, _report = solve_discounted_lax_friedrichs(model, params["lambda"], grid, sigma)
    return u


def _cmd_solve_viscous(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    u, report = solve_viscous(model, params["lambda"], params["epsilon"], grid)
    report.require_converged("viscous solve")
    _write_out(params, field_to_csv(u))
    print(f"iterations={report.iterations} residual_inf={g17(report.final_residual_inf)} "
          f"continuation_steps={report.continuation_steps}")
    return 0


def _cmd_solve_inviscid(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    u = _solve_inviscid_field(params, model, grid)
    _write_out(params, field_to_csv(u))
    print(f"max_u={g17(float(np.max(u.values)))}")
    return 0


def _cmd_adjoint(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    u, report = solve_viscous(model, params["lambda"], params["epsilon"], grid)
    report.require_converged("viscous solve")
    theta = solve_adjoint_stationary(model, u, params["lambda"], params["epsilon"],
                                     params["x0-index"])
    _write_out(params, field_to_csv(theta))
    print(f"mass={g17(grid.h * float(np.sum(theta.values)))} "
          f"renorm_factor={g17(theta.renorm_factor)}")
    return 0


def _cmd_ergodic(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    eps = params["epsilon"]
    c_eps = estimate_ergodic_constant(model, eps, params["lambda-seq"], grid)
    _write_out(params, f"epsilon,c_eps\n{g17(eps)},{g17(c_eps)}\n")
    print(f"c_eps={g17(c_eps)}")
    return 0


def _cmd_supconv(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    u = _solve_inviscid_field(params, model, grid)
    u_delta = sup_convolution(u, params["delta"])
    defect = subsolution_defect(u_delta, params["lambda"], model)
    _write_out(params, field_to_csv(u_delta))
    print(f"subsolution_defect={g17(defect)}")
    return 0


def _cmd_sweep(params: dict[str, Any], model: HamiltonianModel, grid: Grid1D) -> int:
    result = run_sweep(model, params["alpha"], params["lambda-list"], grid.n)
    _write_out(params, sweep_to_csv(result))
    print(f"fitted_slope={g17(result.fitted_slope)} r_squared={g17(result.r_squared)} "
          f"records={len(result.records)} failed={len(result.failed_lambdas)}")
    if result.failed_lambdas:
        for lam in result.failed_lambdas:
            print(f"failed lambda={g17(lam)}", file=sys.stderr)
        return 2
    return 0


# each command's handler and parameters, in --help order
_COMMANDS: dict[str, tuple[Callable[..., int], dict[str, _Param]]] = {
    "solve-viscous": (_cmd_solve_viscous, {
        **_MODEL, "n": _N1024, "lambda": _LAMBDA, "epsilon": _EPS, "out": _OUT,
    }),
    "solve-inviscid": (_cmd_solve_inviscid, {
        **_MODEL, "n": _N1024, "lambda": _LAMBDA, "sigma": _SIGMA, "out": _OUT,
    }),
    "adjoint": (_cmd_adjoint, {
        **_MODEL, "n": _N2048, "lambda": _LAMBDA, "epsilon": _EPS,
        "x0-index": _Param("int", default=0, help="source node index"),
        "out": _OUT,
    }),
    "ergodic": (_cmd_ergodic, {
        **_MODEL, "n": _N1024, "epsilon": _EPS,
        "lambda-seq": _Param("floats", default=(1e-2, 5e-3, 2.5e-3),
                             help="decreasing discount sequence (config only)"),
        "out": _OUT,
    }),
    "supconv": (_cmd_supconv, {
        **_MODEL, "n": _N2048, "lambda": _LAMBDA,
        "delta": _Param("float", required=True, positive=True, help="sup-convolution parameter"),
        "sigma": _SIGMA, "out": _OUT,
    }),
    "sweep": (_cmd_sweep, {
        **_MODEL, "n": _N2048,
        "alpha": _Param("float", required=True, positive=True, help="coupling exponent"),
        "lambda-list": _Param("floats", default=tuple(DEFAULT_LAMBDA_LIST),
                              help="decreasing discount list (config only)"),
        "out": _OUT,
    }),
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code instead of exiting.

    The parser is built once per process and reused by every call; each
    call parses into a fresh namespace, so no value carries over.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; --help exits 0, errors exit 1
        return 0 if exc.code == 0 else 1
    ns_map = vars(ns)
    command = ns_map["command"]
    try:
        params = _resolve(command, ns_map)
        if ns_map.get("dump_config"):
            print(json.dumps({"command": command, **params}, indent=2, sort_keys=True))
            return 0
        grid = Grid1D(params["n"])
        return _COMMANDS[command][0](params, _build_model(params, grid), grid)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Console-script wrapper around main()."""
    raise SystemExit(main(sys.argv[1:]))
