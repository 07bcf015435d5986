"""Collective spin ensemble coupled to one driven bosonic mode.

Simulates N two-level emitters (symmetric Dicke ladder) exchanging quanta
with a truncated oscillator prepared in superpositions of coherent states,
and analyzes the metrological content of the spin state with and without
conditioning on a field measurement.
"""

from .errors import (CatqedError, ConfigError, DimensionMismatchError,
                     GridConvergenceError, ImpossibleOutcomeError,
                     NumericalError, PeakError, QuadratureConvergenceError,
                     StateValidationError, TruncationError)
from .hilbert import (CompositeState, DickeSpace, ElectronDensityMatrix,
                      FockSpace, product_state, reduce_to_electron)
from .operators import (OBSERVABLES, HamiltonianAction, ModelParams,
                        apply_hamiltonian, expectation, field_expectation)
from .stateprep import (PhotonicSpec, coherent_vector, photonic_vector,
                        prepare_initial, required_n_max)
from .propagator import (PeakInfo, PropagationPlan, TimeSeries, peak_and_fwhm,
                         propagate, run, snapshots)
from .measurement import (ParityOutcome, PostselectionResult, QuadratureSpec,
                          hermite_functions, parity_postselect,
                          parity_probabilities, quadrature_amplitudes,
                          quadrature_postselect)
from .qfi import (QfiResult, entanglement_depth_bound, qfi_mixed, qfi_pure,
                  spin_matrices)
from .wigner import (WignerGrid, kernel_weights, rotation_matrix,
                     wigner_function)
from .semiclassical import (RabiDrive, classically_driven_state,
                            classically_driven_trajectory,
                            coherent_expansion_state, depletion_ratio,
                            expansion_weights, rabi_cat_state,
                            rabi_kitten_state, rabi_solution)
from .monitors import build_quadrature_monitors, monitor_names

__version__ = "0.1.0"

__all__ = [
    "CatqedError", "ConfigError", "DimensionMismatchError",
    "GridConvergenceError", "ImpossibleOutcomeError", "NumericalError",
    "PeakError", "QuadratureConvergenceError", "StateValidationError",
    "TruncationError",
    "CompositeState", "DickeSpace", "ElectronDensityMatrix", "FockSpace",
    "product_state", "reduce_to_electron",
    "OBSERVABLES", "HamiltonianAction", "ModelParams", "apply_hamiltonian",
    "expectation", "field_expectation",
    "PhotonicSpec", "coherent_vector", "photonic_vector", "prepare_initial",
    "required_n_max",
    "PeakInfo", "PropagationPlan", "TimeSeries", "monitor_names",
    "peak_and_fwhm", "propagate", "run", "snapshots",
    "ParityOutcome", "PostselectionResult", "QuadratureSpec",
    "hermite_functions", "parity_postselect", "parity_probabilities",
    "quadrature_amplitudes", "quadrature_postselect",
    "QfiResult", "entanglement_depth_bound", "qfi_mixed", "qfi_pure",
    "spin_matrices",
    "WignerGrid", "kernel_weights", "rotation_matrix", "wigner_function",
    "RabiDrive", "classically_driven_state", "classically_driven_trajectory",
    "coherent_expansion_state", "depletion_ratio", "expansion_weights",
    "rabi_cat_state", "rabi_kitten_state", "rabi_solution",
    "build_quadrature_monitors",
    "__version__",
]
