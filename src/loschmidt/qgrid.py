"""Exact reference: kicked-map propagation of wavefunctions on position grids.

One step applies exp(-i tau V / hbar) after a kinetic factor applied in
Fourier space, which realises the kicked-map evolution operator exactly on
the discrete periodic grid; there is no additional splitting error.  Grids
are uniform with power-of-two point counts, in any number of dimensions.
Every Hamiltonian is separable and every Gaussian component a product over
coordinates, so the step is a product of commuting one-axis steps, which
``fidelity_exact`` applies to stacks of 1-D wavefunctions, one stack per
axis.  The steps run in blocks (``_block_steps``: about 4096 numbers of the
longest axis per block, 1 to 64 steps).  Each axis steps a whole block into
a ring of slots allocated once per call, so no step allocates a stack-sized
array, and one batched overlap per axis then fills the block's amplitudes.
Probability near the position edges or the Nyquist edge of the momentum
grid aborts the run rather than silently aliasing.  ``_check_block`` checks
each block once, against band weights worked out once per run.  It takes
one mass per step, branch and component in each band of each axis, with
the bits that a block of one step gives, so the abort names the first step
above ``LEAK_TOL``, its axis and its mass.

The grid follows one rule.  A hint that is given (an extent, a point
count, or an explicit ``Grid``, which gives both) stays fixed.  A hint that
is left out is derived from the state (``grid_for_state``) and may grow:
after each abort the run restarts on a larger grid if the hint that the
abort needs is free, up to ``MAX_POINTS`` points per axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .estimators import EstimatorConfig
from .hamiltonians import HamiltonianPair
from .series import FidelitySeries, NumericalError
from .states import GaussianComponent, InitialState

DEFAULT_PAD_SIGMAS = 8.0
LEAK_TOL = 1e-8
EDGE_FRACTION = 0.05
MAX_POINTS = 2**16  # per axis, where a derived grid stops growing


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
            if not -np.inf < lo < hi < np.inf:
                raise ValueError(f"grid extent must be finite and increasing, got {(lo, hi)}")
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
    points: int | None = None,
    hbar: float = 1.0,
    extent: tuple[float, float] | None = None,
    periodic: bool = False,
) -> Grid:
    """Grid on ``extent`` on every axis, by default the box that covers every
    component to ``DEFAULT_PAD_SIGMAS`` = 8 widths, with ``points`` per axis,
    by default the smallest power of two M that keeps p_hi = max over
    components of |p0| + 8 hbar / sigma below the Nyquist band of the leak
    check, p_hi <= (1 - 2 EDGE_FRACTION) pi hbar M / L, and at most
    ``MAX_POINTS`` (64 for a packet of unit width at hbar = 1).  A periodic
    grid needs an ``extent``."""
    if periodic and extent is None:
        raise ValueError("a periodic grid needs an extent, which sets the period")
    comps = state.components
    extents = [extent] * state.dims if extent is not None else [
        (min(c.center_q[d] - DEFAULT_PAD_SIGMAS * c.sigma[d] for c in comps),
         max(c.center_q[d] + DEFAULT_PAD_SIGMAS * c.sigma[d] for c in comps))
        for d in range(state.dims)
    ]
    counts = [points] * state.dims
    if points is None:
        for d, (lo, hi) in enumerate(extents):
            p_hi = max(abs(c.center_p[d]) + DEFAULT_PAD_SIGMAS * hbar / c.sigma[d] for c in comps)
            m = p_hi / (1.0 - 2.0 * EDGE_FRACTION) * (hi - lo) / (math.pi * hbar)
            counts[d] = min(MAX_POINTS, max(2, 2 ** math.ceil(math.log2(m))))
    return Grid(tuple(extents), tuple(counts), periodic)


def _grown(
    grid: Grid, leak: NumericalError, free_extent: bool, free_points: bool, growths: int
) -> Grid:
    """The grid to rerun on after ``leak`` on ``grid``, reached after
    ``growths`` restarts.  An ``AliasingError`` needs free points and a
    ``GridLeakError`` a free extent, which doubles about its centre on every
    axis; free points double on every axis after either.  When the hint the
    leak needs is fixed, or the next grid would pass ``MAX_POINTS``, raises a
    leak of its type that names ``grid``, the growths and the reason."""
    position = isinstance(leak, GridLeakError)
    reached = f"points {grid.points} on extents {grid.extents} (grid_growths = {growths})"
    if not (free_extent if position else free_points):
        fixed = "extent" if position else "point count"
        raise type(leak)(
            f"{leak}; grid reached: {reached}; its {fixed} was given, so it stays fixed"
        ) from leak
    extents = grid.extents
    if position:
        extents = tuple((lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo)) for lo, hi in extents)
    points = tuple(2 * m for m in grid.points) if free_points else grid.points
    if max(points) > MAX_POINTS:
        raise type(leak)(f"{leak}; largest grid tried: {reached}") from leak
    return Grid(extents, points, grid.periodic)


def _gaussian_factor(comp: GaussianComponent, grid: Grid, d: int, hbar: float) -> np.ndarray:
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


def _leak_bands(grid: Grid) -> list:
    """Per axis, the weights of the Nyquist band and of the two edge bands
    (None on a periodic grid), b = max(1, int(EDGE_FRACTION M)) points each:
    the spacing inside the band and 0 outside, repeated for the real and
    the imaginary part of every point."""
    bands = []
    for d, m in enumerate(grid.points):
        b = max(1, int(EDGE_FRACTION * m))
        nyquist, edges = np.zeros((2, m))
        nyquist[m // 2 - b : m // 2 + b] = edges[:b] = edges[-b:] = grid.spacing(d)
        bands.append((np.repeat(nyquist, 2), None if grid.periodic else np.repeat(edges, 2)))
    return bands


def _band_masses(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Probability under ``weights`` in each row of a complex stack."""
    return np.square(stack.view(np.float64)) @ weights


def _check_block(bands: list, phats: list, stacks: list, first: int, tau: float) -> None:
    """Raises at the first of the block's steps ``first``, ``first + 1``, ...,
    stacked along the leading axis of each per-axis array, with probability
    above ``LEAK_TOL`` in a band: in the Nyquist band of each axis, then in
    the position edge bands of each axis (none on a periodic grid), under the
    ``_leak_bands`` weights.  Every row has discrete norm one, and a step's
    mass in a band is the largest over its branches and components.  A block
    without a leak costs one maximum per band."""
    masses = [_band_masses(phat, nyquist) for phat, (nyquist, _) in zip(phats, bands)]
    masses += [_band_masses(psi, edges)
               for psi, (_, edges) in zip(stacks, bands) if edges is not None]
    if not max([m.max() for m in masses]) > LEAK_TOL:
        return
    # the largest mass per step (rows) and band (columns): the first above
    # LEAK_TOL in row-major order is the leak a step-by-step check meets first
    peaks = np.array([m.max(axis=(1, 2)) for m in masses]).T
    j, i = divmod(int(np.argmax(peaks > LEAK_TOL)), len(masses))
    frac, d = peaks[j, i], i % len(bands)
    at = f"axis {d} at step {first + j} (t = {(first + j) * tau:g})"
    if i < len(bands):
        raise AliasingError(f"momentum probability {frac:.3e} near the Nyquist edge of {at}; "
                            "enlarge the grid or reduce tau")
    raise GridLeakError(f"position probability {frac:.3e} within {EDGE_FRACTION:.0%} "
                        f"of the edges of {at}")


def _block_steps(grid: Grid, components: int) -> int:
    """Steps per block: a slot of one axis holds 2 K M_d numbers, and a block
    about 4096 of them on its longest axis (64 KiB), at most 64 steps."""
    return max(1, min(64, 4096 // (2 * components * max(grid.points))))


def _propagate(state, pair, config, grid: Grid, check_leaks: bool) -> np.ndarray:
    """The amplitude at steps 0 to n_steps on ``grid``, as fidelity_exact
    describes it."""
    # the gufuncs that np.fft.fft and np.fft.ifft call, without their per-call
    # Python; imported here, so that importing the package loads no numpy.fft
    from numpy.fft import _pocketfft_umath as pocketfft

    tau, hbar = config.tau, config.hbar
    comps = state.components
    weights = np.array([c.weight for c in comps])
    hs = (pair.h_prime, pair.h_double_prime)
    dx = [grid.spacing(d) for d in range(grid.dims)]
    bands = _leak_bands(grid)
    block = _block_steps(grid, len(comps))
    rings, factors = [], []
    for d in range(grid.dims):
        psi0 = np.array([_gaussian_factor(c, grid, d, hbar) for c in comps])
        rings.append(np.broadcast_to(psi0, (block + 1, 2, *psi0.shape)).copy())
        exp_t, exp_v = _axis_factors(hs, grid, tau, hbar, d)
        # norm="ortho"'s factor, computed as np.fft computes it
        factors.append((exp_t, exp_v, np.reciprocal(np.sqrt(grid.points[d], dtype=np.float64))))

    phats = [np.empty_like(ring[1:]) for ring in rings]
    rows = [np.empty_like(ring[1:, 0]) for ring in rings]
    # one view per slot, made once: indexing the rings costs a call per step
    slots = [(list(ring), list(phat), f) for ring, phat, f in zip(rings, phats, factors)]
    values = np.empty(config.n_steps + 1, dtype=complex)
    values[0] = 1.0
    last = 0  # the slot holding the latest step
    for n in range(1, config.n_steps + 1, block):
        used = min(block, config.n_steps + 1 - n)
        for psis, hats, (exp_t, exp_v, fct) in slots:
            for psi, phat, nxt in zip([psis[last], *psis[1:used]], hats, psis[1 : used + 1]):
                pocketfft.fft(psi, fct, out=phat)
                np.multiply(exp_t, phat, out=nxt)
                pocketfft.ifft(nxt, fct, out=nxt)
                np.multiply(exp_v, nxt, out=nxt)
        stacks = [ring[1 : used + 1] for ring in rings]
        if check_leaks:
            _check_block(bands, [phat[:used] for phat in phats], stacks, n, tau)
        overlaps = [
            np.multiply(np.conj(psi[:, 0], out=w), psi[:, 1], out=w).sum(axis=-1) * h
            for psi, w, h in zip(stacks, (row[:used] for row in rows), dx)
        ]
        prod = reduce(np.multiply, overlaps)
        # a batched component sum adds in another order than np.dot, whose
        # bits every series keeps; one component has nothing to add
        sums = prod @ weights if len(weights) == 1 else [np.dot(weights, p) for p in prod]
        values[n : n + used] = sums
        last = used
    return values


def fidelity_exact(
    state: InitialState, pair: HamiltonianPair, n_steps: int, tau: float, *, hbar: float = 1.0,
    grid: Grid | None = None, points: int | None = None,
    extent: tuple[float, float] | None = None, periodic: bool = False, check_leaks: bool = True,
) -> FidelitySeries:
    """Exact fidelity amplitude by propagating both branches on the grid.

    Each component is evolved under both kicked maps.  The Hamiltonians are
    separable and each component is a product over coordinates, so the
    states stay products and, by linearity of the trace,
    f(n) = sum_k w_k prod_d <psi'_{k,d}(n)|psi''_{k,d}(n)>.  Axis d holds one
    stack of 1-D wavefunctions (2 branches, K components, M_d points) that
    one batched FFT pair steps: ``pocketfft.fft(psi, fct, out=phat)`` and
    ``pocketfft.ifft(nxt, fct, out=nxt)``, the gufuncs of
    ``numpy.fft._pocketfft_umath`` that ``np.fft.fft`` and ``np.fft.ifft``
    call (NumPy 2.0), with fct = 1/sqrt(M_d) as norm="ortho" computes it,
    which gives np.fft's bits without its per-call Python.  The steps run in
    blocks of ``_block_steps`` = max(1, min(64, 4096 // (2 K max_d M_d)))
    steps: every axis steps the block into a ring of block + 1 slots, with
    block momentum slots and a (block, K, M_d) overlap buffer, all allocated
    once per axis; one batched overlap per axis then gives the block's
    amplitudes, and the next block steps on from the block's last slot.
    f(0) = 1 by construction.  The run fields are checked and recorded as an
    ``EstimatorConfig`` without ensemble.  Unless ``check_leaks`` is false,
    each block is checked once for probability above ``LEAK_TOL`` in the
    Nyquist band of every axis, then in the position edge bands of every
    axis (not on a periodic grid), dividing the band probability by the
    discrete norm, which is one; the first step with such a band raises,
    naming its axis, its mass and its step.

    The run takes ``grid``, else ``grid_for_state(state, points, hbar=hbar,
    extent=extent, periodic=periodic)``: ``points`` and ``extent`` hold on
    every axis.  A hint that is given stays fixed, and ``grid`` gives both.
    A hint that is left out is derived and may grow: after a leak the run
    restarts from step 0 on ``_grown``'s grid, with twice the points per axis
    after an ``AliasingError``, and twice every extent about its centre
    after a ``GridLeakError``, with twice the points too if they are free.
    A leak whose hint is fixed is raised, and so is a leak on a grid whose
    next size would pass ``MAX_POINTS`` points per axis; either names the
    grid it reached, the number of growths and why it stopped.
    The meta records the grid of the series and ``grid_growths``, the
    number of restarts.
    """
    config = EstimatorConfig(n_traj=None, seed=None, tau=tau, n_steps=n_steps, hbar=hbar)
    pair.check_state(state)
    free_extent, free_points = grid is None and extent is None, grid is None and points is None
    if grid is None:
        grid = grid_for_state(state, points, hbar=hbar, extent=extent, periodic=periodic)
    if grid.dims != state.dims:
        raise ValueError("state and grid dimensions differ")
    growths = 0
    while True:
        try:
            values = _propagate(state, pair, config, grid, check_leaks)
            break
        except (AliasingError, GridLeakError) as leak:
            grid, growths = _grown(grid, leak, free_extent, free_points, growths), growths + 1
    return config.series(
        "exact", values, grid_points=grid.points, grid_extents=grid.extents, grid_growths=growths
    )
