"""Exact reference: kicked-map propagation of wavefunctions on position grids.

The single step applies exp(-i tau V / hbar) after a kinetic factor applied
in Fourier space, which realises the kicked-map evolution operator exactly on
the discrete periodic grid; there is no additional splitting error.  Grids
are uniform with power-of-two point counts in one or two dimensions.
Probability accumulating near the position edges or near the Nyquist edge of
the conjugate momentum grid aborts the run rather than silently aliasing.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    def position_mesh(self):
        axes = [self.axis(d) for d in range(self.dims)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def momentum_mesh(self, hbar: float):
        axes = [hbar * self.wavenumbers(d) for d in range(self.dims)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


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


def gaussian_wavefunction(
    comp: GaussianComponent, grid: Grid, hbar: float = 1.0
) -> GridWavefunction:
    """Gaussian wavepacket exp[-(q-q0)^2/(2 sigma^2) + i p0 (q-q0)/hbar] on
    the grid, renormalised so the discrete norm is exactly one."""
    if comp.dims != grid.dims:
        raise ValueError("component and grid dimensions differ")
    mesh = grid.position_mesh()
    psi = np.ones(grid.points, dtype=complex)
    for d, qd in enumerate(mesh):
        dq = qd - comp.center_q[d]
        psi = psi * np.exp(
            -(dq**2) / (2.0 * comp.sigma[d] ** 2)
            + 1j * comp.center_p[d] * dq / hbar
        )
    nrm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    return GridWavefunction(psi / nrm, grid, hbar)


class _KickPropagator:
    """Cached split factors for repeated steps of one Hamiltonian."""

    def __init__(
        self,
        h: SeparableHamiltonian,
        grid: Grid,
        tau: float,
        hbar: float,
        leak_tol: float = LEAK_TOL,
        check_leaks: bool = True,
    ):
        if h.dims != grid.dims:
            raise ValueError("Hamiltonian and grid dimensions differ")
        self.grid = grid
        self.check_leaks = check_leaks
        self.leak_tol = leak_tol
        pos = grid.position_mesh()
        mom = grid.momentum_mesh(hbar)
        v = sum(h.potential[d].value(pos[d]) for d in range(grid.dims))
        t = sum(h.kinetic[d].value(mom[d]) for d in range(grid.dims))
        self.exp_v = np.exp(-1j * tau * v / hbar)
        self.exp_t = np.exp(-1j * tau * t / hbar)
        self._bands = tuple(
            max(1, int(EDGE_FRACTION * m)) for m in grid.points
        )

    def _edge_fraction(self, density: np.ndarray, axis: int, centered: bool) -> float:
        b = self._bands[axis]
        m = density.shape[axis]
        sl_all = [slice(None)] * density.ndim
        if centered:
            sl_all[axis] = slice(m // 2 - b, m // 2 + b)
            band = density[tuple(sl_all)].sum()
        else:
            sl_all[axis] = slice(0, b)
            band = density[tuple(sl_all)].sum()
            sl_all[axis] = slice(m - b, m)
            band += density[tuple(sl_all)].sum()
        return float(band / density.sum())

    def step(self, values: np.ndarray) -> np.ndarray:
        phat = np.fft.fftn(values, norm="ortho")
        if self.check_leaks:
            density = np.abs(phat) ** 2
            for axis in range(self.grid.dims):
                frac = self._edge_fraction(density, axis, centered=True)
                if frac > self.leak_tol:
                    raise AliasingError(
                        f"momentum probability {frac:.3e} near the Nyquist edge "
                        f"of axis {axis}; enlarge the grid or reduce tau"
                    )
        out = self.exp_v * np.fft.ifftn(self.exp_t * phat, norm="ortho")
        if self.check_leaks and not self.grid.periodic:
            density = np.abs(out) ** 2
            for axis in range(self.grid.dims):
                frac = self._edge_fraction(density, axis, centered=False)
                if frac > self.leak_tol:
                    raise GridLeakError(
                        f"position probability {frac:.3e} within "
                        f"{EDGE_FRACTION:.0%} of the edges of axis {axis}"
                    )
        return out


def kick_step(
    psi: GridWavefunction, h: SeparableHamiltonian, tau: float
) -> GridWavefunction:
    """One kicked-map step exp(-i tau V/hbar) F^-1 exp(-i tau T/hbar) F psi.

    tau = 0 returns the input amplitudes unchanged (exact identity, no
    transform round-trip noise).
    """
    if tau == 0.0:
        return GridWavefunction(psi.values.copy(), psi.grid, psi.hbar)
    prop = _KickPropagator(h, psi.grid, tau, psi.hbar, check_leaks=False)
    return GridWavefunction(prop.step(psi.values), psi.grid, psi.hbar)


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

    Each mixture component is evolved once under the unperturbed and once
    under the perturbed kicked map; the amplitude at step n is the weighted
    sum of branch overlaps, which handles mixed states by linearity of the
    trace.  f(0) = 1 by construction.
    """
    if state.dims > 2:
        raise ValueError("grid propagation supports at most two dimensions")
    if pair.dims != state.dims:
        raise ValueError("state and Hamiltonian dimensions differ")
    if grid is None:
        grid = grid_for_state(state, points=points, pad_sigmas=pad_sigmas)
    prop_prime = _KickPropagator(
        pair.h_prime, grid, tau, hbar, check_leaks=check_leaks
    )
    prop_double = _KickPropagator(
        pair.h_double_prime, grid, tau, hbar, check_leaks=check_leaks
    )
    cell = grid.cell_volume

    values = np.zeros(n_steps + 1, dtype=complex)
    for comp in state.components:
        psi0 = gaussian_wavefunction(comp, grid, hbar).values
        branch_prime = psi0.copy()
        branch_double = psi0.copy()
        values[0] += comp.weight * np.sum(np.conj(branch_prime) * branch_double) * cell
        for n in range(1, n_steps + 1):
            branch_prime = prop_prime.step(branch_prime)
            branch_double = prop_double.step(branch_double)
            values[n] += (
                comp.weight * np.sum(np.conj(branch_prime) * branch_double) * cell
            )

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
