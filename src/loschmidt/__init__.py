"""Fidelity amplitude (Loschmidt echo) simulators for kicked quantum maps.

Computes the overlap of one initial state evolved under two Hamiltonians
four ways: exact grid propagation plus zeroth-, first- and second-order
phase-space estimators, with preset benchmark scenarios and a batch CLI.
"""

from .hamiltonians import (
    CoordFunction,
    HamiltonianPair,
    SeparableHamiltonian,
    cosine_potential,
    expansion_remainder,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    quadratic_kinetic,
)
from .states import GaussianComponent, InitialState, sample, wigner_density
from .dynamics import TrajectoryEscapeError, map_step
from .series import FidelitySeries, NonFiniteSeriesError, NumericalError
from .estimators import (
    EstimatorConfig,
    SingularExponentError,
    f0,
    f1_dr,
    f2_gaussian_chain,
    f2_mc,
)
from .qgrid import (
    AliasingError,
    Grid,
    GridLeakError,
    fidelity_exact,
    grid_for_state,
)
from .spectra import Spectrum, spectrum
from .presets import SCENARIO_NAMES, Scenario, displaced_ho_pair, load

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "CoordFunction",
    "EstimatorConfig",
    "FidelitySeries",
    "GaussianComponent",
    "Grid",
    "GridLeakError",
    "HamiltonianPair",
    "InitialState",
    "NonFiniteSeriesError",
    "NumericalError",
    "SCENARIO_NAMES",
    "Scenario",
    "SeparableHamiltonian",
    "SingularExponentError",
    "Spectrum",
    "TrajectoryEscapeError",
    "cosine_potential",
    "displaced_ho_pair",
    "expansion_remainder",
    "f0",
    "f1_dr",
    "f2_gaussian_chain",
    "f2_mc",
    "fidelity_exact",
    "grid_for_state",
    "hamiltonian_1d",
    "harmonic_potential",
    "load",
    "make_pair",
    "map_step",
    "polynomial_term",
    "quadratic_kinetic",
    "sample",
    "spectrum",
    "wigner_density",
]
