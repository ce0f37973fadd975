"""Steady-state phonon occupation of dark-state cooling for a single trapped ion.

Three estimator families are provided and cross-validated: the exact
steady state of the dense Lindblad generator on a truncated phonon ladder,
a projected seven-level model solved without further approximation, and
closed-form expressions including the second-order recoil correction.
"""

from .analytic import (
    SubspaceDiagonals,
    nbar_equal,
    nbar_second,
    nbar_second_terms,
    nbar_sideband,
    nbar_standing_wave,
    nbar_weak_g,
    nbar_zeroth,
    subspace_diagonals,
)
from .errors import (
    ConfigurationError,
    DegenerateSteadyStateError,
    EitCoolError,
    FormulaDivergenceError,
    NumericalFailureError,
)
from .liouvillian import (
    SteadyState,
    Superoperator,
    build_liouvillian,
    phonon_occupation,
    steady_state,
    time_evolve,
    vectorize,
    devectorize,
)
from .physics import (
    CoolingParams,
    DerivedEit,
    derive_eit,
    eit_resonance_delta,
    hamiltonian_full,
    hamiltonian_ld,
    jump_operators,
)
from .subspace import (
    ProjectedSystem,
    build_projected,
    nbar_projected,
    solve_stationarity,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CoolingParams",
    "DegenerateSteadyStateError",
    "DerivedEit",
    "EitCoolError",
    "FormulaDivergenceError",
    "NumericalFailureError",
    "ProjectedSystem",
    "SteadyState",
    "SubspaceDiagonals",
    "Superoperator",
    "build_liouvillian",
    "build_projected",
    "derive_eit",
    "devectorize",
    "eit_resonance_delta",
    "hamiltonian_full",
    "hamiltonian_ld",
    "jump_operators",
    "nbar_equal",
    "nbar_projected",
    "nbar_second",
    "nbar_second_terms",
    "nbar_sideband",
    "nbar_standing_wave",
    "nbar_weak_g",
    "nbar_zeroth",
    "phonon_occupation",
    "solve_stationarity",
    "steady_state",
    "subspace_diagonals",
    "time_evolve",
    "vectorize",
    "__version__",
]
