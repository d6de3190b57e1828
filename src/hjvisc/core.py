"""Shared numerical core: periodic grid, fields, the model H = p^2/2 + V(x), stencils.

Everything downstream (viscous and inviscid solvers, adjoint densities,
measures) works on a uniform grid over the flat torus of circumference 2*pi
with nodes x_j = j*h, j = 0..n-1, h = 2*pi/n.
Derivatives are the standard second-order periodic stencils

    Du_j  = (u_{j+1} - u_{j-1}) / (2h)
    Lu_j  = (u_{j+1} - 2u_j + u_{j-1}) / h^2

with indices wrapping mod n. The one model class is H(x, p) = p^2/2 + V(x):
its drift dH/dp is the momentum itself, and its critical value is
c(H) = max V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """An iterative solve failed or a solver-side guard rejected the state."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of n nodes on the 2*pi torus.

    n must be at least 8; coarser grids cannot carry the second-order
    stencils meaningfully and are rejected outright.
    """

    n: int
    length: ClassVar[float] = TWO_PI

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 8:
            raise ValueError(f"grid needs an integer n >= 8, got {self.n!r}")

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
        mass = self.grid.h * float(self.values.sum())
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density mass {mass!r} deviates from 1 beyond 1e-8")
        lo = float(self.values.min())
        if lo < -1e-12:
            raise ValueError(f"density entry {lo!r} below the -1e-12 floor")


@dataclass(frozen=True)
class SolveReport:
    """Iteration diagnostics shared by the nonlinear solvers."""

    iterations: int
    final_residual_inf: float
    converged: bool
    continuation_steps: int = 0


@dataclass(frozen=True)
class HamiltonianModel:
    """H(x, p) = p^2/2 + V(x) + level, V the vectorized ``potential``; dH/dp = p,
    L(x, v) = v^2/2 - V(x) - level and c(H) = max V + level follow from V.

    ``level`` only fixes the floating-point order: the pendulum is V = cos x
    at level -1, so H is (p^2/2 + cos x) - 1 as in its closed form, which
    V = cos x - 1 would round differently. Adding 0 and subtracting -1 are
    exact, so L and c(H) keep their bits too.
    """

    potential: Callable[[np.ndarray], np.ndarray]
    level: float = 0.0

    def h(self, x, p):
        return 0.5 * np.asarray(p) ** 2 + self.potential(np.asarray(x, dtype=float)) + self.level

    def dhdp(self, x, p):
        """dH/dp = p, broadcast against x."""
        return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))[1].copy()

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
    interpolation, exact at the nodes). Non-finite samples are rejected.
    Solvers tell models apart by equality, never by how they were built:
    only a model equal to pendulum_hamiltonian() gets the branch-ODE
    reference, so separable_hamiltonian(np.cos), which is V = cos x at
    level 0, is solved by Lax-Friedrichs like any other potential.
    """
    if callable(potential):
        v_fn = potential
        if not np.all(np.isfinite(v_fn(np.linspace(0.0, TWO_PI, 16)))):
            raise ValueError("potential callable produced non-finite values")
    else:
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
