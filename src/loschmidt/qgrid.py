"""Exact reference: kicked-map propagation of wavefunctions on position grids.

One step applies exp(-i tau V / hbar) after a kinetic factor applied in
Fourier space, which realises the kicked-map evolution operator exactly on
the discrete periodic grid; there is no additional splitting error.  Grids
are uniform with power-of-two point counts in one or two dimensions.  Every
Hamiltonian is separable and every Gaussian component a product over
coordinates, so the step is a product of commuting one-axis steps, which
``kick_step`` applies along each axis of a full array and ``fidelity_exact``
applies to 1-D wavefunctions per axis.  Probability near the position edges
or the Nyquist edge of the momentum grid aborts the run rather than silently
aliasing; the check reads only those bands.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hamiltonians import SeparableHamiltonian, HamiltonianPair
from .series import FidelitySeries
from .states import GaussianComponent, InitialState

DEFAULT_POINTS = 4096
DEFAULT_PAD_SIGMAS = 8.0
LEAK_TOL = 1e-8
EDGE_FRACTION = 0.05


class GridLeakError(RuntimeError):
    """Probability reached the position-grid edges."""


class AliasingError(RuntimeError):
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
        if not 1 <= len(extents) <= 2 or len(points) != len(extents):
            raise ValueError("grids support one or two axes")
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

    @property
    def cell_volume(self) -> float:
        return float(np.prod([self.spacing(d) for d in range(self.dims)]))


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


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes on a grid, normalised at construction."""

    values: np.ndarray
    grid: Grid
    hbar: float = 1.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.points:
            raise ValueError("value array does not match the grid")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)
        )

    def overlap(self, other: "GridWavefunction") -> complex:
        if other.grid != self.grid:
            raise ValueError("overlap requires a shared grid")
        return complex(
            np.sum(np.conj(self.values) * other.values) * self.grid.cell_volume
        )


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


def gaussian_wavefunction(
    comp: GaussianComponent, grid: Grid, hbar: float = 1.0
) -> GridWavefunction:
    """Gaussian wavepacket on the grid: the outer product of its per-axis
    factors, each with discrete norm one, so the product has norm one."""
    if comp.dims != grid.dims:
        raise ValueError("component and grid dimensions differ")
    factors = [_gaussian_factor(comp, grid, d, hbar) for d in range(grid.dims)]
    return GridWavefunction(reduce(np.multiply.outer, factors), grid, hbar)


def _axis_factors(hs, grid: Grid, tau: float, hbar: float, d: int):
    """exp(-i tau T_d / hbar) on the momenta and exp(-i tau V_d / hbar) on
    the positions of axis d, one row per Hamiltonian in ``hs``."""
    t = np.array([h.kinetic[d].value(hbar * grid.wavenumbers(d)) for h in hs])
    v = np.array([h.potential[d].value(grid.axis(d)) for h in hs])
    return np.exp(-1j * tau * t / hbar), np.exp(-1j * tau * v / hbar)


def _axis_step(values, exp_t, exp_v, axis):
    """One kicked step along ``axis``: returns the momentum amplitudes before
    the kinetic factor (orthonormal FFT) and the stepped values."""
    phat = np.fft.fft(values, axis=axis, norm="ortho")
    return phat, exp_v * np.fft.ifft(exp_t * phat, axis=axis, norm="ortho")


def kick_step(
    psi: GridWavefunction, h: SeparableHamiltonian, tau: float
) -> GridWavefunction:
    """One kicked-map step exp(-i tau V/hbar) F^-1 exp(-i tau T/hbar) F psi.

    For separable H this is the product of the one-axis steps, applied along
    each axis in turn.  tau = 0 returns the input amplitudes unchanged (exact
    identity, no transform round-trip noise).
    """
    grid = psi.grid
    if h.dims != grid.dims:
        raise ValueError("Hamiltonian and grid dimensions differ")
    if tau == 0.0:
        return GridWavefunction(psi.values.copy(), grid, psi.hbar)
    values = psi.values
    for d in range(grid.dims):
        shape = (-1,) + (1,) * (grid.dims - 1 - d)  # broadcast along axis d
        exp_t, exp_v = (f.reshape(shape) for f in _axis_factors((h,), grid, tau, psi.hbar, d))
        values = _axis_step(values, exp_t, exp_v, d)[1]
    return GridWavefunction(values, grid, psi.hbar)


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
    pad_sigmas: float = DEFAULT_PAD_SIGMAS,
    check_leaks: bool = True,
) -> FidelitySeries:
    """Exact fidelity amplitude by propagating both branches on the grid.

    Each component is evolved under both kicked maps.  The Hamiltonians are
    separable and each component is a product over coordinates, so the
    states stay products and, by linearity of the trace,
    f(n) = sum_k w_k prod_d <psi'_{k,d}(n)|psi''_{k,d}(n)>.  Axis d holds one
    stack of 1-D wavefunctions (2 branches, K components, M_d points) that
    one batched FFT steps.  f(0) = 1 by construction.  Unless
    ``check_leaks`` is false, each step checks the Nyquist band of every
    axis, then the position edge bands of every axis (not on a periodic
    grid), dividing the band probability by the discrete norm, which is one.
    """
    if state.dims > 2:
        raise ValueError("grid propagation supports at most two dimensions")
    if pair.dims != state.dims:
        raise ValueError("state and Hamiltonian dimensions differ")
    if grid is None:
        grid = grid_for_state(state, points=points, pad_sigmas=pad_sigmas)
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
        factors.append([f[:, None] for f in _axis_factors(hs, grid, tau, hbar, d)])

    values = np.empty(n_steps + 1, dtype=complex)
    values[0] = 1.0
    for n in range(1, n_steps + 1):
        steps = [_axis_step(s, *f, axis=-1) for s, f in zip(stacks, factors)]
        stacks = [psi for _, psi in steps]
        if check_leaks:
            _check_leaks(grid, dx, [phat for phat, _ in steps], stacks)
        overlaps = [(np.conj(psi[0]) * psi[1]).sum(axis=-1) * h for psi, h in zip(stacks, dx)]
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
