"""Discounted Hamilton-Jacobi equations on the torus: viscous and inviscid
solvers, adjoint densities, occupational measures, sup-convolution
regularization, and a vanishing-viscosity convergence harness."""

from .core import (ConvergenceError, DensityField, Grid1D, HamiltonianModel,
                   ScalarField, SolveReport, TWO_PI, central_gradient,
                   discrete_laplacian, flat_hamiltonian, generic_hamiltonian,
                   inf_norm_diff, pendulum_hamiltonian, separable_hamiltonian,
                   verify_tonelli)
from .tridiag import CyclicTridiagonalMatrix, solve_cyclic_tridiagonal
from .viscous import solve_viscous, viscous_jacobian, viscous_residual
from .inviscid import (checked_radicand, solve_discounted_lax_friedrichs,
                       solve_pendulum_ode)
from .adjoint import (averaged_drift, drift_field, entropy_diagnostic,
                      evolve_fokker_planck, solve_adjoint_stationary,
                      stationary_from_transient)
from .measures import (DiscreteMeasure, closedness_defect,
                       estimate_ergodic_constant, extract_measure,
                       measure_action)
from .regularize import subsolution_defect, sup_convolution
from .harness import (DEFAULT_LAMBDA_LIST, SweepRecord, SweepResult,
                      check_lower_bound, check_upper_bound, fit_loglog_slope,
                      run_sweep, sweep_to_csv)
from .cli import RunConfig, field_to_csv, main

__all__ = [
    "ConvergenceError", "DensityField", "Grid1D", "HamiltonianModel",
    "ScalarField", "SolveReport", "TWO_PI", "central_gradient",
    "discrete_laplacian", "flat_hamiltonian", "generic_hamiltonian",
    "inf_norm_diff", "pendulum_hamiltonian", "separable_hamiltonian",
    "verify_tonelli",
    "CyclicTridiagonalMatrix", "solve_cyclic_tridiagonal",
    "solve_viscous", "viscous_jacobian", "viscous_residual",
    "checked_radicand", "solve_discounted_lax_friedrichs", "solve_pendulum_ode",
    "averaged_drift", "drift_field", "entropy_diagnostic", "evolve_fokker_planck",
    "solve_adjoint_stationary", "stationary_from_transient",
    "DiscreteMeasure", "closedness_defect", "estimate_ergodic_constant",
    "extract_measure", "measure_action",
    "subsolution_defect", "sup_convolution",
    "DEFAULT_LAMBDA_LIST", "SweepRecord", "SweepResult", "check_lower_bound",
    "check_upper_bound", "fit_loglog_slope", "run_sweep", "sweep_to_csv",
    "RunConfig", "field_to_csv", "main",
    "__version__",
]

__version__ = "0.1.0"
