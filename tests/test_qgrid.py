from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loschmidt.hamiltonians import (
    ZERO_TERM,
    SeparableHamiltonian,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    quadratic_kinetic,
)
from loschmidt.presets import displaced_ho_pair, load
from loschmidt.qgrid import (
    AliasingError,
    Grid,
    GridLeakError,
    _axis_factors,
    _check_leaks,
    _gaussian_factor,
    fidelity_exact,
    grid_for_state,
)
from loschmidt.states import GaussianComponent, InitialState

# f(n tau) for the displaced-oscillator benchmark (m = k = hbar = 1,
# displacement 1, ground-width packet in the unperturbed well, tau = 0.05,
# M = 4096, extent +-8 sigma).  Frozen from a run that was checked to be
# grid-converged (M = 8192 changes f by < 1e-13) and within O(tau) = 4.3e-3
# of the tau/2 map at matched times.
GOLDEN_DISPLACED_HO = [
    (0, 1.0, 0.0),
    (21, 0.7017473074402029, -0.32513268721828753),
    (42, 0.4209610389838719, -0.1939204347198739),
    (63, 0.36796331232560614, 0.0016076757455035584),
    (84, 0.4372839502574936, 0.20374868091515153),
    (105, 0.7161107458891403, 0.3279566906275343),
    (126, 0.9998853941591591, -0.008737071284827124),
    (147, 0.6948793003110878, -0.3255708792996106),
    (168, 0.41867867090641053, -0.1906005929988064),
    (189, 0.3681520570722638, 0.004825255787833895),
    (210, 0.4397669587137804, 0.20716554493840172),
    (231, 0.7228167532987254, 0.32706255612367213),
    (252, 0.9995415863649966, -0.017466801329175014),
]

FREE = hamiltonian_1d(quadratic_kinetic(1.0), ZERO_TERM)
HARMONIC = hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0))


# the identity step: f of the pair (ZERO, h) is the autocorrelation
# <psi0|psi(t)> under h, and f of the pair (h, h) the squared norm of the
# state stepped by h
ZERO = hamiltonian_1d(ZERO_TERM, ZERO_TERM)
GROUND = InitialState.gaussian([0.0], [0.0], [1.0])


def squared_norms(state, h, n_steps, tau, **kw):
    return fidelity_exact(state, make_pair(h, h), n_steps, tau, **kw).values


# ---------------------------------------------------------------------------
# grids and wavefunctions


def test_grid_validation():
    with pytest.raises(ValueError, match="power of two"):
        Grid(((-1.0, 1.0),), (100,))
    with pytest.raises(ValueError, match="increasing"):
        Grid(((1.0, -1.0),), (64,))
    with pytest.raises(ValueError, match="per axis"):
        Grid(((-1.0, 1.0),) * 2, (64,))


def test_three_dimensional_displaced_wells_are_the_one_dimensional_series_cubed():
    # any number of axes: each steps on its own, so identical axes give f_1D^3
    f_1d = fidelity_exact(
        InitialState.gaussian([0.5], [0.0], [1.0]), displaced_ho_pair(dims=1), 30, 0.05, points=512
    )
    f_3d = fidelity_exact(
        InitialState.gaussian([0.5] * 3, [0.0] * 3, [1.0] * 3), displaced_ho_pair(dims=3), 30, 0.05,
        points=512,
    )
    np.testing.assert_allclose(f_3d.values, f_1d.values**3, rtol=0, atol=1e-14)


def test_grid_for_state_covers_eight_sigma():
    state = InitialState.gaussian([2.0], [0.0], [1.5])
    g = grid_for_state(state)
    assert g.extents[0][0] <= 2.0 - 8 * 1.5
    assert g.extents[0][1] >= 2.0 + 8 * 1.5


def test_wavefunction_normalised_on_construction():
    # every axis factor of the initial product state has discrete norm one,
    # which the overlaps and the leak checks rely on
    comp = GaussianComponent([0.3, -1.0], [0.5, 0.0], [1.0, 0.7])
    grid = grid_for_state(InitialState((comp,)), points=512)
    for d in range(2):
        psi = _gaussian_factor(comp, grid, d, 1.0)
        assert np.sum(np.abs(psi) ** 2) * grid.spacing(d) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# unitarity and the single-branch dynamics


def test_free_spreading_preserves_norm():
    # the default +-8 sigma grid is too narrow: before t = 5 the spreading
    # packet puts more than the leak tolerance into the edge bands
    grid = Grid(((-40.0, 40.0),), (4096,))
    assert np.max(np.abs(squared_norms(GROUND, FREE, 50, 0.1, grid=grid) - 1.0)) < 1e-12
    # the packet spreads as the free Gaussian, whose autocorrelation is
    # (1 + i t / 2)^(-1/2) at unit width, mass and hbar
    auto = fidelity_exact(GROUND, make_pair(ZERO, FREE), 50, 0.1, grid=grid)
    free = (1.0 + 0.5j * auto.times) ** -0.5
    np.testing.assert_allclose(auto.values, free, rtol=0, atol=1e-12)


def test_harmonic_autocorrelation_returns_after_period():
    # |<psi0|psi(T)>| returns to 1; the deviation vanishes at least first
    # order in tau under halving (measured: second order, since the modulus
    # is stationary at the recurrence)
    state = InitialState.gaussian([1.0], [0.0], [1.0])
    devs = []
    for tau in (0.05, 0.025):
        n = round(2 * np.pi / tau)
        auto = fidelity_exact(state, make_pair(ZERO, HARMONIC), n, tau)
        devs.append(1.0 - abs(auto.values[-1]))
    assert devs[0] < 0.05 * 0.05  # well within O(tau)
    assert devs[0] / devs[1] > 1.7  # at least first order


def test_norm_drift_thousand_steps():
    assert np.max(np.abs(squared_norms(GROUND, HARMONIC, 1000, 0.05) - 1.0)) < 1e-12


@st.composite
def separable_systems(draw):
    """A harmonic separable Hamiltonian and a one- or two-component product
    state in one or two dimensions, in the ranges of the chain property
    tests."""
    unit = st.floats(0.7, 1.4)
    centre = st.floats(-1.0, 1.0)
    dims = draw(st.integers(1, 2))
    h = SeparableHamiltonian(
        tuple(quadratic_kinetic(draw(unit)) for _ in range(dims)),
        tuple(harmonic_potential(draw(unit), draw(centre)) for _ in range(dims)),
    )
    k = draw(st.integers(1, 2))
    comps = tuple(
        GaussianComponent(
            [draw(centre) for _ in range(dims)],
            [draw(centre) for _ in range(dims)],
            [draw(st.floats(0.8, 1.25)) for _ in range(dims)],
            1.0 / k,
        )
        for _ in range(k)
    )
    return h, InitialState(comps)


@settings(max_examples=25, deadline=None)
@given(system=separable_systems())
def test_identical_branches_keep_unit_fidelity_on_random_systems(system):
    h, state = system
    f = squared_norms(state, h, 100, 0.05, grid=grid_for_state(state, points=512, pad_sigmas=16.0))
    assert np.max(np.abs(f - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# fidelity_exact


def test_fidelity_identical_hamiltonians_is_one():
    pair = make_pair(HARMONIC, HARMONIC)
    state = InitialState.gaussian([0.3], [0.2], [1.0])
    series = fidelity_exact(state, pair, 50, 0.05)
    np.testing.assert_allclose(series.values, 1.0, atol=1e-12)


def test_fidelity_zero_steps():
    sc = load("displaced_ho")
    series = fidelity_exact(sc.state, sc.pair, 0, sc.tau)
    assert series.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert len(series) == 1


def test_fidelity_golden_displaced_ho():
    sc = load("displaced_ho")
    series = fidelity_exact(sc.state, sc.pair, sc.n_steps, sc.tau, points=4096)
    for n, re, im in GOLDEN_DISPLACED_HO:
        assert series.values[n].real == pytest.approx(re, abs=1e-9)
        assert series.values[n].imag == pytest.approx(im, abs=1e-9)


def test_fidelity_grid_refinement_cauchy():
    sc = load("displaced_ho")
    a = fidelity_exact(sc.state, sc.pair, 60, sc.tau, points=2048)
    b = fidelity_exact(sc.state, sc.pair, 60, sc.tau, points=4096)
    assert np.max(np.abs(a.values - b.values)) < 1e-8


def test_fidelity_modulus_bounded():
    sc = load("ho_diff_k")
    series = fidelity_exact(sc.state, sc.pair, sc.n_steps, sc.tau)
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)


def test_fidelity_conjugation_on_swap():
    sc = load("ho_diff_k")
    fwd = fidelity_exact(sc.state, sc.pair, 80, sc.tau)
    rev = fidelity_exact(sc.state, sc.pair.swapped(), 80, sc.tau)
    np.testing.assert_allclose(rev.values, np.conj(fwd.values), atol=1e-12)


def test_fidelity_mixture_is_weighted_sum():
    pair = displaced_ho_pair()
    a = GaussianComponent([0.5], [0.0], [1.0], 0.5)
    b = GaussianComponent([-0.5], [0.5], [1.0], 0.5)
    mixed = fidelity_exact(InitialState((a, b)), pair, 40, 0.05)
    pure_a = fidelity_exact(InitialState((GaussianComponent([0.5], [0.0], [1.0]),)), pair, 40, 0.05)
    pure_b = fidelity_exact(InitialState((GaussianComponent([-0.5], [0.5], [1.0]),)), pair, 40, 0.05)
    np.testing.assert_allclose(
        mixed.values, 0.5 * pure_a.values + 0.5 * pure_b.values, atol=1e-12
    )


def test_fidelity_two_dimensional_product_factorises():
    # uncoupled identical axes: the 2D amplitude is the square of the 1D one
    pair_1d = displaced_ho_pair(dims=1)
    pair_2d = displaced_ho_pair(dims=2)
    state_1d = InitialState.gaussian([0.5], [0.0], [1.0])
    state_2d = InitialState.gaussian([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
    f1 = fidelity_exact(state_1d, pair_1d, 30, 0.05, points=512)
    f2 = fidelity_exact(state_2d, pair_2d, 30, 0.05, points=512)
    np.testing.assert_allclose(f2.values, f1.values**2, atol=1e-10)


def test_kicked_rotor_periodic_grid_runs():
    sc = load("kicked_rotor")
    grid = Grid((sc.grid_extent,), (sc.grid_points,), periodic=True)
    series = fidelity_exact(sc.state, sc.pair, 20, sc.tau, grid=grid)
    assert np.all(np.isfinite(series.values))
    assert np.all(np.abs(series.values) <= 1 + 1e-12)


def test_position_leak_detected():
    # fast free packet on a deliberately tight non-periodic grid
    state = InitialState.gaussian([0.0], [4.0], [1.0])
    pair = make_pair(FREE, hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, 1e-4)))
    grid = Grid(((-10.0, 10.0),), (512,))
    with pytest.raises(GridLeakError, match="position probability"):
        fidelity_exact(state, pair, 100, 0.2, grid=grid)


def test_momentum_aliasing_detected():
    # strong kicks push momentum to the Nyquist edge of a coarse grid
    state = InitialState.gaussian([0.0], [0.0], [1.0])
    steep = hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(4000.0))
    pair = make_pair(steep, HARMONIC)
    grid = Grid(((-8.0, 8.0),), (64,))
    with pytest.raises(AliasingError, match="momentum probability"):
        fidelity_exact(state, pair, 50, 0.5, grid=grid)


def test_fidelity_rejects_dimension_mismatch():
    state = InitialState.gaussian([0.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="dimensions"):
        fidelity_exact(state, displaced_ho_pair(dims=2), 10, 0.05)


def test_fidelity_rejects_grid_dimension_mismatch():
    grid = Grid(((-8.0, 8.0),) * 2, (64, 64))
    with pytest.raises(ValueError, match="grid dimensions"):
        fidelity_exact(GROUND, displaced_ho_pair(), 10, 0.05, grid=grid)


# ---------------------------------------------------------------------------
# the per-axis factorisation against full 2-D propagation

KIN = quadratic_kinetic(1.0)
# unequal extents and point counts, a different potential on each axis and a
# perturbation on both axes
GRID_2D = Grid(((-9.0, 10.0), (-8.0, 8.0)), (128, 256))
PAIR_2D = make_pair(
    SeparableHamiltonian(
        (KIN, quadratic_kinetic(2.0)), (harmonic_potential(1.0), polynomial_term(0.0, 0.0, 0.3, 0.0, 0.02))
    ),
    SeparableHamiltonian(
        (KIN, quadratic_kinetic(2.0)), (harmonic_potential(1.2, 0.1), polynomial_term(0.0, 0.05, 0.3, 0.01, 0.02))
    ),
)
MIXTURE_2D = InitialState((
    GaussianComponent([0.5, -0.3], [0.2, 0.4], [1.0, 0.8], 0.6),
    GaussianComponent([-0.4, 0.2], [0.0, -0.3], [0.9, 1.1], 0.4),
))


def full_grid_phases(h, grid, tau, hbar=1.0):
    """exp(-i tau T / hbar) and exp(-i tau V / hbar) on the full 2-D meshes,
    with the per-axis terms summed."""
    q = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij", sparse=True)
    k = np.meshgrid(*(hbar * grid.wavenumbers(d) for d in (0, 1)), indexing="ij", sparse=True)
    t = h.kinetic[0].value(k[0]) + h.kinetic[1].value(k[1])
    v = h.potential[0].value(q[0]) + h.potential[1].value(q[1])
    return np.exp(-1j * tau * t / hbar), np.exp(-1j * tau * v / hbar)


def full_grid_fidelity_2d(state, pair, n_steps, tau, grid, hbar=1.0):
    """Reference: each branch as one 2-D array, stepped by fftn/ifftn with
    the summed phase factors, starting from the normalised 2-D product."""
    q = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij", sparse=True)
    props = [full_grid_phases(h, grid, tau, hbar) for h in (pair.h_prime, pair.h_double_prime)]
    values = np.zeros(n_steps + 1, dtype=complex)
    for c in state.components:
        dq = [q[d] - c.center_q[d] for d in (0, 1)]
        psi = np.exp(sum(-(dq[d] ** 2) / (2 * c.sigma[d] ** 2) + 1j * c.center_p[d] * dq[d] / hbar for d in (0, 1)))
        cell = grid.spacing(0) * grid.spacing(1)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * cell)
        branches = [psi, psi]
        for n in range(n_steps + 1):
            values[n] += c.weight * np.sum(np.conj(branches[0]) * branches[1]) * cell
            branches = [ev * np.fft.ifftn(et * np.fft.fftn(b)) for b, (et, ev) in zip(branches, props)]
    return values


def test_factorised_exact_matches_full_2d_propagation():
    series = fidelity_exact(MIXTURE_2D, PAIR_2D, 60, 0.05, grid=GRID_2D)
    reference = full_grid_fidelity_2d(MIXTURE_2D, PAIR_2D, 60, 0.05, GRID_2D)
    assert np.max(np.abs(series.values - reference)) < 1e-12
    assert abs(series.values[-1]) < 0.99  # the perturbation acts


@pytest.mark.parametrize(
    "state, pair, grid",
    [
        (load("kicked_rotor").state, load("kicked_rotor").pair,
         Grid(((0.0, 2.0 * np.pi),), (1024,), periodic=True)),
        (InitialState((GaussianComponent([0.5], [0.0], [1.0], 0.5),
                       GaussianComponent([-0.5], [0.5], [1.0], 0.5))), displaced_ho_pair(), None),
        (InitialState.gaussian([0.5, 0.5], [0.0, 0.0], [1.0, 1.0]), displaced_ho_pair(dims=2),
         Grid(((-7.5, 8.5),) * 2, (256, 256))),
    ],
    ids=["one_d", "mixture", "two_d"],
)
def test_fidelity_starts_at_exactly_one(state, pair, grid):
    # the Monte Carlo estimators have stderr exactly 0 at step 0, and their
    # tests compare that step against this one
    assert fidelity_exact(state, pair, 3, 0.05, grid=grid).values[0] == 1.0


@pytest.mark.parametrize(
    "pair, state, grid, tau, n_steps, error, first_step",
    [
        (
            make_pair(
                SeparableHamiltonian((KIN, KIN), (ZERO_TERM, ZERO_TERM)),
                SeparableHamiltonian((KIN, KIN), (ZERO_TERM, polynomial_term(0.0, 1e-4))),
            ),
            InitialState.gaussian([0.0, 0.0], [0.0, 4.0], [1.0, 1.0]),
            Grid(((-10.0, 10.0), (-10.0, 10.0)), (64, 512)), 0.2, 100, GridLeakError, 5,
        ),
        (
            make_pair(
                SeparableHamiltonian((KIN, KIN), (harmonic_potential(1.0), harmonic_potential(4000.0))),
                SeparableHamiltonian((KIN, KIN), (harmonic_potential(1.0),) * 2),
            ),
            InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
            Grid(((-8.0, 8.0), (-8.0, 8.0)), (256, 64)), 0.5, 50, AliasingError, 2,
        ),
    ],
    ids=["position_axis_1", "momentum_axis_1"],
)
def test_two_dimensional_leak_names_first_axis_at_first_step(
    pair, state, grid, tau, n_steps, error, first_step
):
    # axes step in lockstep: axis 0 of the free packet leaks too, but only at
    # step 10, so running each axis through all steps in turn would blame it
    fidelity_exact(state, pair, first_step - 1, tau, grid=grid)
    with pytest.raises(error, match="axis 1"):
        fidelity_exact(state, pair, n_steps, tau, grid=grid)


# ---------------------------------------------------------------------------
# the in-place step against the out-of-place one, bit for bit


def out_of_place_exact(state, pair, n_steps, tau, grid, hbar=1.0):
    """The step with a fresh array for every operation, as it was before
    ``fidelity_exact`` stepped in place: same factors, overlaps and weights."""
    comps = state.components
    weights = np.array([c.weight for c in comps])
    hs = (pair.h_prime, pair.h_double_prime)
    dx = [grid.spacing(d) for d in range(grid.dims)]
    stacks, factors = [], []
    for d in range(grid.dims):
        psi0 = np.array([_gaussian_factor(c, grid, d, hbar) for c in comps])
        stacks.append(np.stack([psi0, psi0]))
        factors.append(_axis_factors(hs, grid, tau, hbar, d))
    values = np.empty(n_steps + 1, dtype=complex)
    values[0] = 1.0
    for n in range(1, n_steps + 1):
        phats = [np.fft.fft(s, norm="ortho") for s in stacks]
        stacks = [exp_v * np.fft.ifft(exp_t * phat, norm="ortho") for phat, (exp_t, exp_v) in zip(phats, factors)]
        _check_leaks(grid, dx, phats, stacks)
        overlaps = [(np.conj(psi[0]) * psi[1]).sum(axis=-1) * h for psi, h in zip(stacks, dx)]
        values[n] = np.dot(weights, reduce(np.multiply, overlaps))
    return values


ROTOR = load("kicked_rotor")
STATE_2D = InitialState.gaussian([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
IN_PLACE_CASES = {
    "one_d_4096": (InitialState.gaussian([0.5], [0.0], [1.0]), displaced_ho_pair(), 300, None),
    "kicked_rotor_1024": (ROTOR.state, ROTOR.pair, 300, Grid((ROTOR.grid_extent,), (1024,), periodic=True)),
    "mixture": (
        InitialState((GaussianComponent([0.5], [0.0], [1.0], 0.5),
                      GaussianComponent([-0.5], [0.5], [1.0], 0.5))),
        displaced_ho_pair(), 300, None,
    ),
    "two_d_256": (STATE_2D, displaced_ho_pair(dims=2), 100, grid_for_state(STATE_2D, points=256)),
}


@pytest.mark.parametrize("state, pair, n_steps, grid", IN_PLACE_CASES.values(), ids=IN_PLACE_CASES.keys())
def test_in_place_step_keeps_the_out_of_place_bits(monkeypatch, state, pair, n_steps, grid):
    grid = grid or grid_for_state(state)
    reference = out_of_place_exact(state, pair, n_steps, 0.05, grid)
    buffers = []

    def recording(func):
        def wrapper(*args, **kwargs):
            buffers.append(kwargs["out"])
            return func(*args, **kwargs)
        return wrapper

    for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (np, "conj")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    first = fidelity_exact(state, pair, n_steps, 0.05, grid=grid).values
    monkeypatch.undo()
    second = fidelity_exact(state, pair, n_steps, 0.05, grid=grid).values
    assert np.array_equal(first, reference)
    assert np.array_equal(second, first)
    assert buffers and not any(np.shares_memory(first, b) for b in buffers)


# ---------------------------------------------------------------------------
# known defects


@pytest.mark.xfail(
    strict=True,
    raises=GridLeakError,
    reason="grid_for_state sizes the grid from the initial width only; "
    "ROADMAP item 6 (grid_for_run) sizes it from the whole run",
)
def test_breathing_packet_stays_on_its_default_grid():
    # the squeezed packet breathes to 3.6 times its initial width in the
    # softer well within the run; it leaks even on a 16-sigma grid
    kinetic = (quadratic_kinetic(0.5),)
    pair = make_pair(
        SeparableHamiltonian(kinetic, (harmonic_potential(0.5),)),
        SeparableHamiltonian(kinetic, (harmonic_potential(1.0),)),
    )
    series = fidelity_exact(InitialState.gaussian([0.0], [0.0], [0.75]), pair, 60, 0.05)
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)
