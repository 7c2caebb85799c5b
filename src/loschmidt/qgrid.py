"""Exact reference: kicked-map propagation of wavefunctions on position grids.

One step applies exp(-i tau V / hbar) after a kinetic factor applied in
Fourier space, which realises the kicked-map evolution operator exactly on
the discrete periodic grid; there is no additional splitting error.  Grids
are uniform with power-of-two point counts, in any number of dimensions.
Every Hamiltonian is separable and every Gaussian component a product over
coordinates, so the step is a product of commuting one-axis steps, which
``fidelity_exact`` applies to stacks of 1-D wavefunctions, one stack per
axis.  The step runs in place in per-axis buffers allocated once per call
(``out=`` on ``np.fft``, NumPy 2.0), so no step allocates a stack-sized
array.  Probability near the position edges or the Nyquist edge of the
momentum grid aborts the run rather than silently aliasing; the check reads
only those bands.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hamiltonians import HamiltonianPair
from .series import FidelitySeries, NumericalError
from .states import GaussianComponent, InitialState

DEFAULT_POINTS = 4096
DEFAULT_PAD_SIGMAS = 8.0
LEAK_TOL = 1e-8
EDGE_FRACTION = 0.05


class GridLeakError(NumericalError):
    """Probability reached the position-grid edges."""


class AliasingError(NumericalError):
    """Momentum content reached the edge of the conjugate grid."""


def _is_power_of_two(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic position grid, one extent/point-count pair per axis."""

    extents: tuple[tuple[float, float], ...]
    points: tuple[int, ...]
    periodic: bool = False

    def __post_init__(self) -> None:
        extents = tuple((float(a), float(b)) for a, b in self.extents)
        points = tuple(int(m) for m in self.points)
        if not extents or len(points) != len(extents):
            raise ValueError("a grid needs one extent and one point count per axis")
        for (lo, hi), m in zip(extents, points):
            if hi <= lo:
                raise ValueError("grid extent must be increasing")
            if not _is_power_of_two(m):
                raise ValueError(f"point count {m} is not a power of two")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "points", points)

    @property
    def dims(self) -> int:
        return len(self.points)

    def spacing(self, d: int) -> float:
        lo, hi = self.extents[d]
        return (hi - lo) / self.points[d]

    def axis(self, d: int) -> np.ndarray:
        lo, _ = self.extents[d]
        return lo + self.spacing(d) * np.arange(self.points[d])

    def wavenumbers(self, d: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points[d], d=self.spacing(d))


def grid_for_state(
    state: InitialState,
    points: int = DEFAULT_POINTS,
    pad_sigmas: float = DEFAULT_PAD_SIGMAS,
) -> Grid:
    """Grid whose extent covers every component to ``pad_sigmas`` widths."""
    dims = state.dims
    extents = []
    for d in range(dims):
        lo = min(c.center_q[d] - pad_sigmas * c.sigma[d] for c in state.components)
        hi = max(c.center_q[d] + pad_sigmas * c.sigma[d] for c in state.components)
        extents.append((lo, hi))
    return Grid(tuple(extents), (points,) * dims)


def _gaussian_factor(
    comp: GaussianComponent, grid: Grid, d: int, hbar: float
) -> np.ndarray:
    """Axis-d factor exp[-(q-q0)^2/(2 sigma^2) + i p0 (q-q0)/hbar] of a
    product Gaussian, renormalised so its discrete norm on that axis is one."""
    dq = grid.axis(d) - comp.center_q[d]
    psi = np.exp(
        -(dq**2) / (2.0 * comp.sigma[d] ** 2) + 1j * comp.center_p[d] * dq / hbar
    )
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing(d))


def _axis_factors(hs, grid: Grid, tau: float, hbar: float, d: int):
    """exp(-i tau T_d / hbar) on the momenta and exp(-i tau V_d / hbar) on
    the positions of axis d, one row per Hamiltonian in ``hs``, shaped to
    broadcast over the components of a (branch, component, point) stack."""
    t = np.array([h.kinetic[d].value(hbar * grid.wavenumbers(d)) for h in hs])
    v = np.array([h.potential[d].value(grid.axis(d)) for h in hs])
    return np.exp(-1j * tau * t / hbar)[:, None], np.exp(-1j * tau * v / hbar)[:, None]


def _band_mass(values: np.ndarray, band: slice) -> np.ndarray:
    a = np.abs(values[..., band])
    return (a * a).sum(axis=-1)


def _check_leaks(grid: Grid, dx: list, phats: list, stacks: list) -> None:
    """Largest probability, over branches and components, in the Nyquist band
    of each axis, then in the position edge bands of each axis; every row has
    discrete norm one."""
    bands = [max(1, int(EDGE_FRACTION * m)) for m in grid.points]
    for d, (phat, b) in enumerate(zip(phats, bands)):
        m = grid.points[d]
        frac = _band_mass(phat, slice(m // 2 - b, m // 2 + b)).max() * dx[d]
        if frac > LEAK_TOL:
            raise AliasingError(
                f"momentum probability {frac:.3e} near the Nyquist edge "
                f"of axis {d}; enlarge the grid or reduce tau"
            )
    if grid.periodic:
        return
    for d, (psi, b) in enumerate(zip(stacks, bands)):
        edges = _band_mass(psi, slice(0, b)) + _band_mass(psi, slice(-b, None))
        frac = edges.max() * dx[d]
        if frac > LEAK_TOL:
            raise GridLeakError(
                f"position probability {frac:.3e} within "
                f"{EDGE_FRACTION:.0%} of the edges of axis {d}"
            )


def fidelity_exact(
    state: InitialState,
    pair: HamiltonianPair,
    n_steps: int,
    tau: float,
    *,
    hbar: float = 1.0,
    grid: Grid | None = None,
    points: int = DEFAULT_POINTS,
    check_leaks: bool = True,
) -> FidelitySeries:
    """Exact fidelity amplitude by propagating both branches on the grid.

    Each component is evolved under both kicked maps.  The Hamiltonians are
    separable and each component is a product over coordinates, so the
    states stay products and, by linearity of the trace,
    f(n) = sum_k w_k prod_d <psi'_{k,d}(n)|psi''_{k,d}(n)>.  Axis d holds one
    stack of 1-D wavefunctions (2 branches, K components, M_d points) that
    one batched FFT pair steps in place, with a momentum buffer of the
    stack's shape and a (K, M_d) overlap row allocated once per axis.
    f(0) = 1 by construction.  Unless ``check_leaks`` is false, each step
    checks the Nyquist band of every axis, then the position edge bands of
    every axis (not on a periodic grid), dividing the band probability by
    the discrete norm, which is one.
    """
    if pair.dims != state.dims:
        raise ValueError("state and Hamiltonian dimensions differ")
    if grid is None:
        grid = grid_for_state(state, points=points)
    if grid.dims != state.dims:
        raise ValueError("state and grid dimensions differ")
    comps = state.components
    weights = np.array([c.weight for c in comps])
    hs = (pair.h_prime, pair.h_double_prime)
    dx = [grid.spacing(d) for d in range(grid.dims)]
    stacks, factors = [], []
    for d in range(grid.dims):
        psi0 = np.array([_gaussian_factor(c, grid, d, hbar) for c in comps])
        stacks.append(np.stack([psi0, psi0]))
        factors.append(_axis_factors(hs, grid, tau, hbar, d))

    phats = [np.empty_like(s) for s in stacks]
    rows = [np.empty_like(s[0]) for s in stacks]
    values = np.empty(n_steps + 1, dtype=complex)
    values[0] = 1.0
    for n in range(1, n_steps + 1):
        for stack, phat, (exp_t, exp_v) in zip(stacks, phats, factors):
            np.fft.fft(stack, norm="ortho", out=phat)
            np.multiply(exp_t, phat, out=stack)
            np.fft.ifft(stack, norm="ortho", out=stack)
            np.multiply(exp_v, stack, out=stack)
        if check_leaks:
            _check_leaks(grid, dx, phats, stacks)
        overlaps = [
            np.multiply(np.conj(psi[0], out=w), psi[1], out=w).sum(axis=-1) * h
            for psi, w, h in zip(stacks, rows, dx)
        ]
        values[n] = np.dot(weights, reduce(np.multiply, overlaps))

    times = tau * np.arange(n_steps + 1)
    meta = {
        "estimator": "exact",
        "n_traj": None,
        "seed": None,
        "tau": tau,
        "n_steps": n_steps,
        "hbar": hbar,
        "grid_points": grid.points,
        "grid_extents": grid.extents,
    }
    return FidelitySeries(times, values, np.zeros(n_steps + 1), meta)
