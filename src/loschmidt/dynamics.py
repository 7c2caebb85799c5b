"""Classical symplectic map generated by a separable Hamiltonian.

One step is drift-then-kick: positions advance with the old momenta, momenta
are kicked with the gradient at the *new* positions.  This ordering mirrors
the quantum kicked-map splitting exactly, so classical and quantum evolutions
stay step-for-step comparable; no symmetric variant is offered.
"""
from __future__ import annotations

import numpy as np

from .hamiltonians import SeparableHamiltonian
from .series import NumericalError

ESCAPE_LIMIT = 1e12


class TrajectoryEscapeError(NumericalError):
    """Raised when a trajectory leaves the numerically safe region."""


def drift(q, p, h: SeparableHamiltonian, tau: float, work) -> None:
    """The drift of one step, in place: q += tau T'(p).  ``work``, an array
    of q's shape and dtype, is scratch."""
    np.multiply(tau, h.kinetic_d1(p, work), out=work)
    np.add(q, work, out=q)


def kick(q, p, h: SeparableHamiltonian, tau: float, work) -> None:
    """The kick of one step, in place: p -= tau V'(q), at the drifted q."""
    np.multiply(tau, h.potential_d1(q, work), out=work)
    np.subtract(p, work, out=p)


def map_step(q, p, h: SeparableHamiltonian, tau: float):
    """Advance one kick-map step: q' = q + tau T'(p), then p' = p - tau V'(q').

    ``q`` and ``p`` carry coordinates on the last axis and may hold whole
    ensembles in leading axes.  Returns the new ``(q, p)``: ``drift`` and
    ``kick`` applied to copies.
    """
    q, p = h._coords(q), h._coords(p)
    dtype = np.result_type(q, p)
    q, p = (np.array(x, dtype) for x in np.broadcast_arrays(q, p))
    work = np.empty_like(q)
    drift(q, p, h, tau, work)
    kick(q, p, h, tau, work)
    return q, p


def check_escape(q, p, work=None) -> None:
    """Abort when an ensemble member escapes beyond the overflow guard.

    ``work``, a float array of the shape of q and p, takes |q| and then |p|;
    the largest of them is NaN where any is, which also aborts."""
    for x in (q, p):
        if not np.max(np.abs(x, out=work), initial=0.0) < ESCAPE_LIMIT:
            raise TrajectoryEscapeError(
                f"trajectory escaped: |x| exceeded {ESCAPE_LIMIT:g} "
                "(unbounded potential or too large a step)"
            )
