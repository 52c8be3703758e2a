"""Two-time correlation functions of a single damped/driven bosonic mode.

Three independent computational routes (quantum regression on a truncated
Fock space, coherent-state-propagator phase-space integrals, and Q-function
integrals) that cross-validate against each other and against analytic
oracles.
"""

from .hilbert import (
    DensityMatrix,
    FockCutoff,
    coherent_dm,
    coherent_overlap,
    coherent_vector,
    fock_dm,
    husimi_q,
    ladder_matrices,
    normal_order_coeffs,
    reconstruct_from_normal_order,
    superposition_dm,
    thermal_dm,
    two_variable_q,
)
from .dynamics import (
    DampingChannel,
    Propagated,
    QuadraticHamiltonian,
    evolve_lindblad,
    evolve_unitary,
    hamiltonian_matrix,
    lindblad_generator,
    propagated_map,
    steady_state,
)
from .propagator import GaussianKernel, kernel_harmonic, kernel_numeric, kernel_quadratic
from .correlators import (
    CorrelationSeries,
    InitialState,
    SystemSpec,
    regression_raw,
    regression_series,
)
from .quadrature import IntegrationConfig, PolyGaussian, integrate
from .phasespace import phase_space_series
from .analysis import StatisticsReport, classify
from .scenario import Scenario, parse_scenario

__all__ = [
    "DensityMatrix",
    "FockCutoff",
    "coherent_dm",
    "coherent_overlap",
    "coherent_vector",
    "fock_dm",
    "husimi_q",
    "ladder_matrices",
    "normal_order_coeffs",
    "reconstruct_from_normal_order",
    "superposition_dm",
    "thermal_dm",
    "two_variable_q",
    "DampingChannel",
    "Propagated",
    "QuadraticHamiltonian",
    "evolve_lindblad",
    "evolve_unitary",
    "hamiltonian_matrix",
    "lindblad_generator",
    "propagated_map",
    "steady_state",
    "GaussianKernel",
    "kernel_harmonic",
    "kernel_numeric",
    "kernel_quadratic",
    "CorrelationSeries",
    "InitialState",
    "SystemSpec",
    "regression_raw",
    "regression_series",
    "IntegrationConfig",
    "PolyGaussian",
    "integrate",
    "phase_space_series",
    "StatisticsReport",
    "classify",
    "Scenario",
    "parse_scenario",
]
