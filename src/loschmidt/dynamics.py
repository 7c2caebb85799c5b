"""Classical symplectic map generated by a separable Hamiltonian.

One step is drift-then-kick: positions advance with the old momenta, momenta
are kicked with the gradient at the *new* positions.  This ordering mirrors
the quantum kicked-map splitting exactly, so classical and quantum evolutions
stay step-for-step comparable; no symmetric variant is offered.
"""
from __future__ import annotations

import numpy as np

from .hamiltonians import SeparableHamiltonian

ESCAPE_LIMIT = 1e12


class TrajectoryEscapeError(RuntimeError):
    """Raised when a trajectory leaves the numerically safe region."""


def map_step(q, p, h: SeparableHamiltonian, tau: float):
    """Advance one kick-map step: q' = q + tau T'(p), then p' = p - tau V'(q').

    ``q`` and ``p`` carry coordinates on the last axis and may hold whole
    ensembles in leading axes.  Returns the new ``(q, p)``.
    """
    q = h._coords(q)
    p = h._coords(p)
    q_new = q + tau * h.kinetic_d1(p)
    p_new = p - tau * h.potential_d1(q_new)
    return q_new, p_new


def check_escape(q, p) -> None:
    """Abort when an ensemble member escapes beyond the overflow guard."""
    bad = not (
        np.all(np.abs(q) < ESCAPE_LIMIT) and np.all(np.abs(p) < ESCAPE_LIMIT)
    )
    if bad:
        raise TrajectoryEscapeError(
            f"trajectory escaped: |x| exceeded {ESCAPE_LIMIT:g} "
            "(unbounded potential or too large a step)"
        )
