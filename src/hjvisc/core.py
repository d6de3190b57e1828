"""Shared numerical core: periodic grid, fields, the model H = p^2/2 + V(x), stencils.

Everything downstream (viscous and inviscid solvers, adjoint densities,
measures) works on a uniform grid over the flat torus of circumference 2*pi
with nodes x_j = j*h, j = 0..n-1, h = 2*pi/n.
Every module builds its stencils from the one periodic shift kept here,
shift(v, +-1) = v_{j+-1} with indices wrapping mod n:

    D+u_j = (u_{j+1} - u_j) / h                 (forward_difference, at x_{j+1/2})
    Du_j  = (u_{j+1} - u_{j-1}) / (2h)          (central_gradient)
    Lu_j  = (u_{j+1} - 2u_j + u_{j-1}) / (h*h)  (discrete_laplacian)

A half-node value at x_{j+1/2} = x_j + h/2 (Grid1D.x_half) sits at index j.
The one model class is H(x, p) = p^2/2 + V(x): its drift dH/dp is the
momentum itself, and its critical value is c(H) = max V.

Every entry point checks its input with the one copy of each rule kept here
(ValueError on failure, bools rejected): check_positive, check_nonnegative,
check_index, check_lambdas and check_unit_mass. SolveReport.require_converged
turns an unconverged report into a ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """An iterative solve failed or a solver-side guard rejected the state."""


def check_positive(name: str, value) -> None:
    """Reject anything but a positive finite number; a bool is not a number here."""
    if isinstance(value, bool) or not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Reject anything but a nonnegative finite number; a bool is not a number here."""
    if isinstance(value, bool) or not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def check_index(name: str, value, lo: int, hi: float = math.inf) -> None:
    """Reject anything but an integer in [lo, hi); a bool is not an integer here."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not lo <= value < hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


def check_lambdas(values, min_len: int) -> list[float]:
    """The floats of a strictly decreasing list of at least min_len positive lambdas."""
    values = list(values)
    if len(values) < min_len:
        raise ValueError(f"need at least {min_len} lambda value(s), got {len(values)}")
    for v in values:
        check_positive("lambda", v)
    if not all(a > b for a, b in zip(values, values[1:])):
        raise ValueError("lambda values must be strictly decreasing")
    return [float(v) for v in values]


def check_unit_mass(what: str, mass: float, lowest: float) -> None:
    """A probability: mass within 1e-8 of 1 and no entry below -1e-12 (NaN fails both)."""
    if not abs(mass - 1.0) <= 1e-8:
        raise ValueError(f"{what} mass {mass!r} deviates from 1 beyond 1e-8")
    if not lowest >= -1e-12:
        raise ValueError(f"{what} entry {lowest!r} below the -1e-12 floor")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of n nodes on the 2*pi torus.

    n must be at least 8; coarser grids cannot carry the second-order
    stencils meaningfully and are rejected outright.
    """

    n: int
    length: ClassVar[float] = TWO_PI

    def __post_init__(self) -> None:
        check_index("grid size n", self.n, 8)

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    @property
    def x_half(self) -> np.ndarray:
        """The half nodes x_{j+1/2} = x_j + h/2, x_{j+1/2} at index j."""
        return self.x + 0.5 * self.h


@dataclass(frozen=True)
class ScalarField:
    """Real nodal values on a Grid1D. Values are finite and read-only."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field length {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DensityField(ScalarField):
    """Nonnegative (to roundoff) probability density: h * sum(values) == 1.

    Entries may dip to -1e-12 from finite arithmetic; anything below that is
    rejected, as is a mass deviating from 1 by more than 1e-8. The optional
    renorm_factor records the mass correction a solver applied before
    constructing the field.
    """

    renorm_factor: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_unit_mass("density", self.grid.h * float(self.values.sum()),
                        float(self.values.min()))


@dataclass(frozen=True)
class SolveReport:
    """Iteration diagnostics shared by the nonlinear solvers. final_eps is the
    viscosity of the returned field: the requested one, or that of the
    continuation level that failed."""

    iterations: int
    final_residual_inf: float
    converged: bool
    continuation_steps: int
    final_eps: float

    def require_converged(self, what: str) -> None:
        """Raise ConvergenceError naming ``what`` unless the solve converged."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} did not converge: residual {self.final_residual_inf:.3e} "
                f"after {self.iterations} Newton iterations")


@dataclass(frozen=True)
class HamiltonianModel:
    """H(x, p) = p^2/2 + V(x) + level, V the vectorized ``potential``; dH/dp = p,
    L(x, v) = v^2/2 - V(x) - level and c(H) = max V + level follow from V.
    H(x, 0) must be finite at 16 probe points x in [0, 2*pi].

    ``level`` only fixes the floating-point order: the pendulum is V = cos x
    at level -1, so H is (p^2/2 + cos x) - 1 as in its closed form, which
    V = cos x - 1 would round differently. Adding 0 and subtracting -1 are
    exact, so L and c(H) keep their bits too.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    level: float = 0.0

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.h(np.linspace(0.0, TWO_PI, 16), 0.0))):
            raise ValueError("model H(x, 0) is not finite on the 16-point probe")

    def h(self, x, p):
        return 0.5 * np.asarray(p) ** 2 + self.potential(np.asarray(x, dtype=float)) + self.level

    def lagrangian(self, x, v):
        """The Legendre dual sup_p(v*p - H(x, p))."""
        return 0.5 * np.asarray(v) ** 2 - self.potential(np.asarray(x, dtype=float)) - self.level

    def critical_value(self, grid: Grid1D) -> float:
        """c(H) = max V + level, V maximized over the grid nodes: exact for
        samples on this grid and for the pendulum (x = 0 is a node)."""
        return float(np.max(self.potential(grid.x))) + self.level


def pendulum_hamiltonian() -> HamiltonianModel:
    """The pendulum model H(x, p) = p^2/2 + cos x - 1, with c(H) = 0.

    Its Legendre dual is L(x, v) = v^2/2 - cos x + 1 >= 0, vanishing only at
    (x, v) = (0, 0), which is the rest point the discounted dynamics settle on.
    """
    return HamiltonianModel(np.cos, level=-1.0)


def separable_hamiltonian(
    potential: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    grid: Grid1D | None = None,
) -> HamiltonianModel:
    """The model H(x, p) = p^2/2 + V(x) for a checked potential V.

    The potential may be a vectorized callable or an array of n samples on
    ``grid`` (samples are evaluated off-node by periodic linear
    interpolation, exact at the nodes). Non-finite samples are rejected, and
    every model probes H(x, 0) for finiteness when it is built.
    Solvers tell models apart by equality, never by how they were built:
    only a model equal to pendulum_hamiltonian() gets the branch-ODE
    reference, so separable_hamiltonian(np.cos), which is V = cos x at
    level 0, is solved by Lax-Friedrichs like any other potential.
    """
    if callable(potential):
        return HamiltonianModel(potential)
    samples = np.asarray(potential, dtype=float)
    if grid is None:
        raise ValueError("sampled potential needs the grid it lives on")
    if samples.shape != (grid.n,):
        raise ValueError(f"potential has {samples.shape} samples, grid expects {grid.n}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("potential samples contain non-finite values")
    xs, vs = np.append(grid.x, grid.length), np.append(samples, samples[0])

    def v_fn(x):
        return np.interp(np.mod(x, grid.length), xs, vs)

    return HamiltonianModel(v_fn)


def flat_hamiltonian() -> HamiltonianModel:
    """H(x, p) = p^2/2 (zero potential); the discounted solution is u == 0."""
    return HamiltonianModel(np.zeros_like)


def shift(v: np.ndarray, k: int) -> np.ndarray:
    """v_{j+k} for k = +1 or -1 along the first axis, wrapping mod n, as one slice copy."""
    return np.concatenate((v[k:], v[:k]))


def forward_difference(v: np.ndarray, h: float) -> np.ndarray:
    """D+v_j = (v_{j+1} - v_j) / h, the half-node value at x_{j+1/2} stored at index j."""
    return (shift(v, 1) - v) / h


def central_gradient(u: ScalarField) -> ScalarField:
    """Second-order periodic central difference (u_{j+1} - u_{j-1}) / (2h)."""
    v = u.values
    return ScalarField(u.grid, (shift(v, 1) - shift(v, -1)) / (2.0 * u.grid.h))


def discrete_laplacian(u: ScalarField) -> ScalarField:
    """Second-order periodic stencil (u_{j+1} - 2u_j + u_{j-1}) / (h*h)."""
    v, h = u.values, u.grid.h
    return ScalarField(u.grid, (shift(v, 1) - 2.0 * v + shift(v, -1)) / (h * h))
