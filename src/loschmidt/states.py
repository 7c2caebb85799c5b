"""Initial quantum states: Gaussian wavepackets and their mixtures.

Gaussian mixtures are the supported family because their Wigner functions
are nonnegative and can be sampled exactly, which makes them usable as
Monte Carlo measures in phase space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


def _readonly(arr) -> np.ndarray:
    out = np.atleast_1d(np.asarray(arr, dtype=float)).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianComponent:
    """Single Gaussian wavepacket.

    ``sigma`` is the position-space width scale: the wavefunction is
    proportional to exp[-(q - q0)**2 / (2 sigma**2) + i p0 (q - q0) / hbar],
    so |psi|**2 has standard deviation sigma / sqrt(2) per coordinate.
    """

    center_q: np.ndarray
    center_p: np.ndarray
    sigma: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        q = _readonly(self.center_q)
        p = _readonly(self.center_p)
        s = _readonly(self.sigma)
        if s.shape == (1,) and q.shape != (1,):
            s = _readonly(np.full(q.shape, s[0]))
        if not (q.shape == p.shape == s.shape):
            raise ValueError("center_q, center_p and sigma must share one shape")
        for name, values in (("center_q", q), ("center_p", p), ("sigma", s)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values}")
        if np.any(s <= 0.0):
            raise ValueError("sigma must be positive")
        w = float(self.weight)
        if not 0.0 < w <= 1.0:
            raise ValueError("weight must lie in (0, 1]")
        object.__setattr__(self, "center_q", q)
        object.__setattr__(self, "center_p", p)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "weight", w)

    @property
    def dims(self) -> int:
        return self.center_q.shape[0]


@dataclass(frozen=True)
class InitialState:
    """Finite mixture of Gaussian wavepackets with weights summing to one."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("at least one component required")
        dims = comps[0].dims
        if any(c.dims != dims for c in comps):
            raise ValueError("all components must share the same dimension")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    @property
    def dims(self) -> int:
        return self.components[0].dims

    @classmethod
    def gaussian(cls, center_q, center_p, sigma) -> "InitialState":
        """Pure single-Gaussian state."""
        return cls((GaussianComponent(center_q, center_p, sigma, 1.0),))


def wigner_density(state: InitialState, q, p, hbar: float = 1.0):
    """Wigner quasi-probability of a Gaussian mixture at phase-space points.

    Normalised so that the phase-space integral divided by h**D equals one;
    a single component centred at the evaluation point gives 2**D.
    ``q`` and ``p`` carry the coordinates on the last axis.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim == 0:
        q = q.reshape(1)
    if p.ndim == 0:
        p = p.reshape(1)
    dims = state.dims
    if q.shape[-1] != dims or p.shape[-1] != dims:
        raise ValueError(f"phase-space point must have {dims} coordinates")
    out = 0.0
    for comp in state.components:
        expo = np.sum(
            (q - comp.center_q) ** 2 / comp.sigma**2
            + (p - comp.center_p) ** 2 * comp.sigma**2 / hbar**2,
            axis=-1,
        )
        out = out + comp.weight * 2.0**dims * np.exp(-expo)
    return out


def sample(state: InitialState, n: int, seed: int, hbar: float = 1.0):
    """Draw ``n`` phase-space points from the normalised Wigner density.

    Exact sampler: component chosen by weight, then per-coordinate normal
    draws with std sigma/sqrt(2) in position and hbar/(sigma*sqrt(2)) in
    momentum.  Uses a counter-based Philox stream keyed on ``seed``, so the
    result depends only on (state, n, seed) and never on scheduling.  The
    draws are scaled and shifted in place, so one component takes 16 bytes
    per point and coordinate, the result itself; a mixture takes
    temporaries of its chosen components' centres and widths.

    Returns
    -------
    (q, p) : arrays of shape (n, dims)
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(seed))
    comps = state.components

    if len(comps) == 1:
        idx = 0  # every row broadcasts against the one component's rows
    else:
        cum = np.cumsum([c.weight for c in comps])
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")

    centers_q = np.stack([c.center_q for c in comps])
    centers_p = np.stack([c.center_p for c in comps])
    sigmas = np.stack([c.sigma for c in comps])

    # centre + draw * sigma / sqrt(2), and centre + draw * hbar / (sigma
    # sqrt(2)): the operations of the expressions, in their order
    q = rng.standard_normal((n, state.dims))
    p = rng.standard_normal((n, state.dims))
    q *= sigmas[idx]
    q /= np.sqrt(2.0)
    q += centers_q[idx]
    p *= hbar
    p /= sigmas[idx] * np.sqrt(2.0)
    p += centers_p[idx]
    return q, p
