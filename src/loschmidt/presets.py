"""Named scenarios: Hamiltonian pair, initial state and run parameters.

Each scenario's exactness predictions are derived from its Hamiltonian pair
by ``hamiltonians.predicted_exactness``: the order-k estimator is exact when
the average/difference expansion terminates at order k.  With degrees taken
over the average Hamiltonian and delta-H, f0 needs a constant average and an
affine delta-H, f1 an average of degree <= 2 and an affine delta-H, f2_mc an
average of degree <= 2 and a delta-H of degree <= 3, f2_gaussian both of
degree <= 2; a cosine term makes every estimator approximate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import (  # EXACT and APPROXIMATE name the verdicts
    APPROXIMATE,
    EXACT,
    HamiltonianPair,
    SeparableHamiltonian,
    cosine_potential,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    predicted_exactness,
    quadratic_kinetic,
    ZERO_TERM,
)
from .states import InitialState


@dataclass(frozen=True)
class Scenario:
    """Fully specified benchmark system."""

    name: str
    pair: HamiltonianPair
    state: InitialState
    tau: float = 0.05
    n_steps: int = 252
    hbar: float = 1.0
    description: str = ""
    # grid hints for the exact reference; without them it sizes its own grid
    grid_extent: tuple[float, float] | None = None
    grid_points: int | None = None
    periodic: bool = False

    @property
    def exactness(self) -> dict:
        """Estimator name -> ``EXACT`` or ``APPROXIMATE``, from the pair."""
        return predicted_exactness(self.pair)


def displaced_ho_pair(
    k: float = 1.0, mass: float = 1.0, displacement: float = 1.0, dims: int = 1
) -> HamiltonianPair:
    """Identical harmonic wells displaced by ``displacement`` along each axis.

    The unperturbed well sits at +displacement/2, the perturbed one at
    -displacement/2, so the perturbation is +k*displacement*q per coordinate.
    """
    kin = (quadratic_kinetic(mass),) * dims
    v_prime = (harmonic_potential(k, +displacement / 2.0),) * dims
    v_double = (harmonic_potential(k, -displacement / 2.0),) * dims
    return make_pair(
        SeparableHamiltonian(kin, v_prime), SeparableHamiltonian(kin, v_double)
    )


_KIN = quadratic_kinetic(1.0)
_STANDARD_STATE = InitialState.gaussian([0.0], [0.0], [1.0])
_DELTA_BETA = 1.0  # linear_gradient: difference of the gradients
_DELTA_PHI = 0.05  # cubic_perturbation: difference of the cubic coefficients
_KICK = 5.0  # kicked_rotor: mean kick strength, perturbed by 1%

_SCENARIOS = {sc.name: sc for sc in (
    Scenario(
        "linear_gradient",
        make_pair(
            hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, -0.5 * _DELTA_BETA)),
            hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, +0.5 * _DELTA_BETA)),
        ),
        _STANDARD_STATE,
        description="opposite linear gradients, vanishing average Hamiltonian",
    ),
    Scenario(
        "displaced_ho",
        displaced_ho_pair(k=1.0, mass=1.0, displacement=1.0),
        # ground state of the unperturbed well (centred at +a/2, width 1)
        InitialState.gaussian([0.5], [0.0], [1.0]),
        description="displaced harmonic oscillators, m = k = displacement = 1",
    ),
    Scenario(
        "ho_diff_k",
        make_pair(
            hamiltonian_1d(_KIN, harmonic_potential(1.0)),
            hamiltonian_1d(_KIN, harmonic_potential(1.21)),
        ),
        _STANDARD_STATE,
        n_steps=100,
        description="harmonic oscillators with force constants 1 and 1.21",
    ),
    Scenario(
        "cubic_perturbation",
        make_pair(
            hamiltonian_1d(_KIN, harmonic_potential(1.0)
                           + polynomial_term(0.0, 0.0, 0.0, -0.5 * _DELTA_PHI)),
            hamiltonian_1d(_KIN, harmonic_potential(1.0)
                           + polynomial_term(0.0, 0.0, 0.0, +0.5 * _DELTA_PHI)),
        ),
        _STANDARD_STATE,
        description="harmonic average with a weak cubic perturbation",
    ),
    Scenario(
        "kicked_rotor",
        make_pair(
            hamiltonian_1d(_KIN, cosine_potential(_KICK - 0.01 * _KICK / 2.0)),
            hamiltonian_1d(_KIN, cosine_potential(_KICK + 0.01 * _KICK / 2.0)),
        ),
        InitialState.gaussian([np.pi], [0.0], [0.5]),
        tau=1.0,
        n_steps=50,
        description="kicked rotor, K = 5 with a 1% kick-strength perturbation",
        grid_extent=(0.0, 2.0 * np.pi),
        grid_points=1024,
        periodic=True,
    ),
    Scenario(
        "morse_like",
        # quartic-truncated anharmonic wells; quartic coefficients keep both
        # branches confining
        make_pair(
            hamiltonian_1d(_KIN, polynomial_term(0.0, 0.0, 0.5, -0.10, 0.05)),
            hamiltonian_1d(_KIN, polynomial_term(0.0, 0.0, 0.55, -0.12, 0.055)),
        ),
        _STANDARD_STATE,
        description="anharmonic (quartic-truncated) wells, all orders approximate",
    ),
)}

SCENARIO_NAMES = tuple(_SCENARIOS)


def load(name: str) -> Scenario:
    """Load a named scenario; raises KeyError for unknown names."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        ) from None
