"""Shared numerical core: periodic grid, fields, Tonelli Hamiltonians, stencils.

Everything downstream (viscous and inviscid solvers, adjoint densities,
measures) works on a uniform grid over the flat torus of circumference
``length`` (default 2*pi) with nodes x_j = j*h, j = 0..n-1, h = length/n.
Derivatives are the standard second-order periodic stencils

    Du_j  = (u_{j+1} - u_{j-1}) / (2h)
    Lu_j  = (u_{j+1} - 2u_j + u_{j-1}) / h^2

with indices wrapping mod n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """An iterative solve failed or a solver-side guard rejected the state."""


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on a circle of given circumference.

    n must be at least 8; coarser grids cannot carry the second-order
    stencils meaningfully and are rejected outright.
    """

    n: int
    length: float = TWO_PI

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 8:
            raise ValueError(f"grid needs an integer n >= 8, got {self.n!r}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length!r}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.n)


@dataclass(frozen=True)
class ScalarField:
    """Real nodal values on a Grid1D. Values are finite and read-only."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field length {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DensityField:
    """Nonnegative (to roundoff) probability density: h * sum(values) == 1.

    Entries may dip to -1e-12 from finite arithmetic; anything below that is
    rejected, as is a mass deviating from 1 by more than 1e-8. The optional
    renorm_factor records the mass correction a solver applied before
    constructing the field.
    """

    grid: Grid1D
    values: np.ndarray
    renorm_factor: float | None = None

    def __post_init__(self) -> None:
        vals = _frozen(self.values)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"density length {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("density contains non-finite values")
        mass = self.grid.h * float(vals.sum())
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density mass {mass!r} deviates from 1 beyond 1e-8")
        lo = float(vals.min())
        if lo < -1e-12:
            raise ValueError(f"density entry {lo!r} below the -1e-12 floor")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SolveReport:
    """Iteration diagnostics shared by the nonlinear solvers."""

    iterations: int
    final_residual_inf: float
    converged: bool
    continuation_steps: int = 0


@dataclass(frozen=True)
class HamiltonianModel:
    """A Tonelli Hamiltonian H(x, p) with its momentum derivatives and Lagrangian.

    All callables are vectorized over numpy arrays (broadcasting in x and p).
    ``lagrangian(x, v)`` is the Legendre transform sup_p(v*p - H(x, p)); the
    constructors below supply closed forms, and ``generic_hamiltonian`` falls
    back to a numeric maximization.
    """

    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dhdp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2hdp2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lagrangian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = "custom"
    # Ergodic (critical) constant c(H) of the model, supplied rather than
    # computed; 0 for the pendulum and the flat model.
    critical_constant: float = 0.0


def _quadratic_dhdp(x, p):
    """dH/dp = p of every H(x, p) = p^2/2 + V(x), broadcast against x."""
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))[1].copy()


def _quadratic_d2hdp2(x, p):
    """d2H/dp2 = 1 of every H(x, p) = p^2/2 + V(x), broadcast against x."""
    return np.ones(np.broadcast_shapes(np.shape(x), np.shape(p)))


def pendulum_hamiltonian() -> HamiltonianModel:
    """The pendulum model H(x, p) = p^2/2 + cos x - 1.

    Its Legendre dual is L(x, v) = v^2/2 - cos x + 1 >= 0, vanishing only at
    (x, v) = (0, 0), which is the rest point the discounted dynamics settle on.
    """

    def h(x, p):
        return 0.5 * np.asarray(p) ** 2 + np.cos(x) - 1.0

    def lagrangian(x, v):
        return 0.5 * np.asarray(v) ** 2 - np.cos(x) + 1.0

    return HamiltonianModel(h, _quadratic_dhdp, _quadratic_d2hdp2, lagrangian,
                            descriptor="pendulum")


def separable_hamiltonian(
    potential: Callable[[np.ndarray], np.ndarray] | ScalarField | np.ndarray,
    grid: Grid1D | None = None,
    name: str = "separable",
    critical_constant: float = 0.0,
) -> HamiltonianModel:
    """Mechanical model H(x, p) = p^2/2 + V(x), L(x, v) = v^2/2 - V(x).

    The potential may be a vectorized callable, a ScalarField, or an array of
    n samples on ``grid`` (samples are evaluated off-node by periodic linear
    interpolation, exact at the nodes). Non-finite samples are rejected.
    """

    if isinstance(potential, ScalarField):
        if grid is not None and grid != potential.grid:
            raise ValueError("potential field lives on a different grid")
        grid = potential.grid
        potential = potential.values

    if callable(potential):
        v_fn = potential
        probe = np.asarray(v_fn(np.linspace(0.0, TWO_PI, 16)))
        if not np.all(np.isfinite(probe)):
            raise ValueError("potential callable produced non-finite values")
    else:
        samples = np.asarray(potential, dtype=float)
        if grid is None:
            raise ValueError("sampled potential needs the grid it lives on")
        if samples.shape != (grid.n,):
            raise ValueError(
                f"potential has {samples.shape} samples, grid expects {grid.n}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("potential samples contain non-finite values")
        xs = np.append(grid.x, grid.length)
        vs = np.append(samples, samples[0])
        period = grid.length

        def v_fn(x, xs=xs, vs=vs, period=period):
            return np.interp(np.mod(x, period), xs, vs)

    def h(x, p):
        return 0.5 * np.asarray(p) ** 2 + v_fn(np.asarray(x, dtype=float))

    def lagrangian(x, v):
        return 0.5 * np.asarray(v) ** 2 - v_fn(np.asarray(x, dtype=float))

    return HamiltonianModel(h, _quadratic_dhdp, _quadratic_d2hdp2, lagrangian,
                            descriptor=name, critical_constant=critical_constant)


def flat_hamiltonian() -> HamiltonianModel:
    """H(x, p) = p^2/2 (zero potential); the discounted solution is u == 0."""
    return separable_hamiltonian(lambda x: np.zeros_like(np.asarray(x, dtype=float)), name="flat")


def _numeric_legendre(
    h_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Legendre transform by scalar maximization of p -> v*p - H(x, p).

    Golden-section search (xtol 1e-10) on a bracket grown geometrically until
    the objective decreases at both ends; superlinearity of H guarantees the
    bracket exists.
    """
    from scipy.optimize import minimize_scalar

    def single(x: float, v: float) -> float:
        def neg(p: float) -> float:
            return -(v * p - float(h_fn(x, p)))

        half = 1.0
        for _ in range(60):
            if neg(-half) > neg(0.0) < neg(half):
                break
            half *= 2.0
        else:
            raise ValueError("could not bracket the Legendre maximizer; H not superlinear?")
        res = minimize_scalar(neg, bracket=(-half, 0.0, half), method="golden",
                              options={"xtol": 1e-10})
        return -float(res.fun)

    def lagrangian(x, v):
        xb, vb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
        out = np.empty(xb.shape)
        for idx in np.ndindex(xb.shape):
            out[idx] = single(float(xb[idx]), float(vb[idx]))
        if out.shape == ():
            return float(out)
        return out

    return lagrangian


def generic_hamiltonian(
    h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dhdp: Callable[[np.ndarray, np.ndarray], np.ndarray],
    d2hdp2: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lagrangian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    descriptor: str = "custom",
    critical_constant: float = 0.0,
) -> HamiltonianModel:
    """Wrap hand-written H derivatives; derive L numerically when not given."""
    if lagrangian is None:
        lagrangian = _numeric_legendre(h)
    return HamiltonianModel(h, dhdp, d2hdp2, lagrangian, descriptor=descriptor,
                            critical_constant=critical_constant)


def verify_tonelli(model: HamiltonianModel, grid: Grid1D) -> float:
    """Check positive definiteness in p on the working window |p| <= 10.

    Returns the convexity floor min d2H/dp2 sampled at 41 momenta; raises if
    it is not above 1e-8. The window covers every momentum the solvers
    evaluate (gradients of discounted solutions stay well inside |p| <= 10
    for the models exercised here).
    """
    ps = np.linspace(-10.0, 10.0, 41)
    vals = model.d2hdp2(grid.x[:, None], ps[None, :])
    floor = float(np.min(vals))
    if not floor > 1e-8:
        raise ValueError(f"model {model.descriptor!r} is not uniformly convex in p (min d2H/dp2 = {floor})")
    return floor


def central_gradient(u: ScalarField) -> ScalarField:
    """Second-order periodic central difference (u_{j+1} - u_{j-1}) / (2h)."""
    v = u.values
    out = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * u.grid.h)
    return ScalarField(u.grid, out)


def discrete_laplacian(u: ScalarField) -> ScalarField:
    """Second-order periodic stencil (u_{j+1} - 2u_j + u_{j-1}) / h^2."""
    v = u.values
    out = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (u.grid.h ** 2)
    return ScalarField(u.grid, out)


def inf_norm_diff(a: ScalarField, b: ScalarField) -> float:
    """max_j |a_j - b_j|; the fields must share one grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return float(np.max(np.abs(a.values - b.values)))
