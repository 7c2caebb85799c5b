from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loschmidt.estimators import EstimatorConfig, f2_gaussian_chain
from loschmidt.hamiltonians import (
    ZERO_TERM,
    CoordFunction,
    SeparableHamiltonian,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    quadratic_kinetic,
)
from loschmidt.presets import displaced_ho_pair, load
from loschmidt.qgrid import (
    MAX_POINTS,
    AliasingError,
    Grid,
    GridLeakError,
    _axis_factors,
    _band_mass,
    _block_steps,
    _check_block,
    _check_leaks,
    _gaussian_factor,
    _leak_bands,
    LEAK_TOL,
    SCREEN_TOL,
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


@pytest.mark.parametrize("field, build", [
    pytest.param("center_q", lambda bad: GaussianComponent([bad], [0.0], [1.0]), id="center_q"),
    pytest.param("center_p", lambda bad: GaussianComponent([0.0, 1.0], [0.0, bad], [1.0]),
                 id="center_p"),
    pytest.param("sigma", lambda bad: GaussianComponent([0.0], [0.0], [bad]), id="sigma"),
    pytest.param("grid extent", lambda bad: Grid(((bad, 0.0),), (8,)), id="extent"),
    pytest.param("grid extent", lambda bad: Grid(((-1.0, 1.0), (0.0, bad)), (8, 8)),
                 id="second-axis-extent"),
    pytest.param("coeffs", lambda bad: CoordFunction((0.0, bad, 0.5)), id="coeffs"),
    pytest.param("coeffs", lambda bad: polynomial_term(bad), id="constant"),
    pytest.param("cos_amp", lambda bad: CoordFunction((0.0,), cos_amp=bad), id="cos_amp"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_model_inputs_refuse_non_finite_values(field, build, bad):
    # refused where they are built, naming the field, rather than by a
    # numerical abort of whichever estimator first meets them
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build(bad)


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
def separable_systems(draw, dims=None):
    """A harmonic separable Hamiltonian and a one- or two-component product
    state in ``dims`` dimensions, by default one or two, in the ranges of
    the chain property tests."""
    unit = st.floats(0.7, 1.4)
    centre = st.floats(-1.0, 1.0)
    dims = dims or draw(st.integers(1, 2))
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


@st.composite
def separable_pairs(draw):
    """A state and a pair of two harmonic Hamiltonians from ``separable_systems``."""
    h_prime, state = draw(separable_systems())
    h_double_prime, _ = draw(separable_systems(dims=state.dims))
    return state, make_pair(h_prime, h_double_prime)


HO_DIFF_K = load("ho_diff_k")


@settings(max_examples=20, deadline=None)
@given(system=separable_pairs())
@example(system=(HO_DIFF_K.state, HO_DIFF_K.pair))
def test_fidelity_conjugation_on_swap(system):
    # on derived grids: both branches are checked for leaks, so the swapped
    # pair grows the same grid
    state, pair = system
    fwd = fidelity_exact(state, pair, 80, 0.05)
    rev = fidelity_exact(state, pair.swapped(), 80, 0.05)
    np.testing.assert_allclose(rev.values, np.conj(fwd.values), rtol=0, atol=1e-12)
    assert rev.meta["grid_points"] == fwd.meta["grid_points"]
    assert rev.meta["grid_growths"] == fwd.meta["grid_growths"]


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


def test_a_periodic_grid_needs_an_extent():
    # the extent is the period; a derived box would set an arbitrary one
    sc = load("kicked_rotor")
    with pytest.raises(ValueError, match="periodic grid needs an extent"):
        fidelity_exact(sc.state, sc.pair, 20, sc.tau, periodic=True)


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


@pytest.mark.parametrize(
    "name, kwargs",
    [("n_steps", {"n_steps": -1}), ("tau", {"tau": 0.0}), ("tau", {"tau": np.nan}),
     ("tau", {"tau": -0.05}), ("hbar", {"hbar": 0.0}), ("n_steps", {"n_steps": 2.5})],
    ids=["n_steps=-1", "tau=0", "tau=nan", "tau=-0.05", "hbar=0", "n_steps=2.5"],
)
def test_fidelity_checks_its_run_fields_before_any_grid_work(monkeypatch, name, kwargs):
    def no_grid(*args, **kw):
        raise AssertionError("grid built before the run fields were checked")

    monkeypatch.setattr("loschmidt.qgrid.grid_for_state", no_grid)
    run = {"n_steps": 10, "tau": 0.05, **kwargs}
    with pytest.raises(ValueError, match=name):
        fidelity_exact(GROUND, displaced_ho_pair(), **run)


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
    # the checks run step by step over all axes: axis 0 of the free packet
    # leaks too, but only at step 10, so checking each axis through all
    # steps in turn would blame it
    fidelity_exact(state, pair, first_step - 1, tau, grid=grid)
    with pytest.raises(error, match=f"axis 1 at step {first_step} "):
        fidelity_exact(state, pair, n_steps, tau, grid=grid)


@pytest.mark.parametrize(
    "points", [(2,), (4,), (64,), (2, 64), (4, 64)], ids=["2", "4", "64", "2x64", "4x64"]
)
def test_band_masses_are_the_slice_sums(points):
    # b = max(1, int(0.05 M)): 1 point at M = 2 and 4, 3 points at M = 64
    rng = np.random.default_rng(len(points) * 1000 + points[-1])
    grid = Grid(tuple((-1.0 - d, 2.0 + 3.0 * d) for d in range(len(points))), points)
    for d, (m, (nyquist, edges)) in enumerate(zip(points, _leak_bands(grid))):
        b = max(1, int(0.05 * m))
        x = rng.normal(size=(2, 3, m)) + 1j * rng.normal(size=(2, 3, m))
        mass = np.abs(x) ** 2 * grid.spacing(d)
        slices = {
            "nyquist": (nyquist, mass[..., m // 2 - b : m // 2 + b].sum(axis=-1)),
            "edges": (edges, mass[..., :b].sum(axis=-1) + mass[..., -b:].sum(axis=-1)),
        }
        for weights, expected in slices.values():
            assert _band_mass(x, weights) == pytest.approx(expected.max(), rel=1e-12, abs=0)
            for row in np.ndindex(2, 3):
                assert _band_mass(x[row], weights) == pytest.approx(expected[row], rel=1e-12, abs=0)


@pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
def test_leak_check_fires_just_above_the_tolerance(periodic):
    # one point of one row holds the whole band mass, 1e-9 relative above or
    # below LEAK_TOL; a periodic grid checks no edges
    grid = Grid(((-8.0, 8.0), (0.0, 4.0)), (64, 4), periodic=periodic)
    bands = _leak_bands(grid)
    for d, m in enumerate(grid.points):
        for in_momentum, index, error in ((True, m // 2, AliasingError), (False, 0, GridLeakError)):
            for factor in (1.0 + 1e-9, 1.0 - 1e-9):
                stacks = [np.zeros((2, 1, k), dtype=complex) for k in grid.points]
                phats = [np.zeros_like(s) for s in stacks]
                target = phats if in_momentum else stacks
                target[d][1, 0, index] = np.sqrt(factor * LEAK_TOL / grid.spacing(d))
                if factor > 1.0 and (in_momentum or not periodic):
                    with pytest.raises(error, match=f"axis {d}"):
                        _check_leaks(bands, phats, stacks)
                else:
                    _check_leaks(bands, phats, stacks)


# ---------------------------------------------------------------------------
# the in-place step against the out-of-place one, bit for bit


def out_of_place_exact(state, pair, n_steps, tau, grid, hbar=1.0):
    """The step with a fresh array for every operation, as it was before
    ``fidelity_exact`` stepped in place and in blocks: same factors,
    overlaps and weights, and the leak check after every step."""
    comps = state.components
    weights = np.array([c.weight for c in comps])
    hs = (pair.h_prime, pair.h_double_prime)
    dx = [grid.spacing(d) for d in range(grid.dims)]
    stacks, factors = [], []
    for d in range(grid.dims):
        psi0 = np.array([_gaussian_factor(c, grid, d, hbar) for c in comps])
        stacks.append(np.stack([psi0, psi0]))
        factors.append(_axis_factors(hs, grid, tau, hbar, d))
    bands = _leak_bands(grid)
    values = np.empty(n_steps + 1, dtype=complex)
    values[0] = 1.0
    for n in range(1, n_steps + 1):
        phats = [np.fft.fft(s, norm="ortho") for s in stacks]
        stacks = [exp_v * np.fft.ifft(exp_t * phat, norm="ortho") for phat, (exp_t, exp_v) in zip(phats, factors)]
        _check_leaks(bands, phats, stacks, f" at step {n} (t = {n * tau:g})")
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
    grid = grid or grid_for_state(state, points=4096)
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
# block stepping: block edges, the screen and the replay

MIXTURE = InitialState((GaussianComponent([0.5], [0.0], [1.0], 0.5),
                        GaussianComponent([-0.5], [0.5], [1.0], 0.5)))
BLOCK_CASES = {
    # name: state, pair, grid, steps per block
    "one_d_64": (GROUND, displaced_ho_pair(), grid_for_state(GROUND), 32),
    "two_components_64": (MIXTURE, displaced_ho_pair(), grid_for_state(MIXTURE), 16),
    "two_d_256": (STATE_2D, displaced_ho_pair(dims=2), grid_for_state(STATE_2D, points=256), 8),
    "two_d_two_components": (MIXTURE_2D, PAIR_2D, GRID_2D, 4),
    "periodic_1024": (ROTOR.state, ROTOR.pair, Grid((ROTOR.grid_extent,), (1024,), periodic=True), 2),
}


@pytest.mark.parametrize("check_leaks", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("state, pair, grid, block", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_every_block_edge_keeps_the_out_of_place_bits(state, pair, grid, block, check_leaks):
    assert _block_steps(grid, len(state.components)) == block
    tau = ROTOR.tau if grid.periodic else 0.05
    for n_steps in (0, 1, block - 1, block, block + 1, 3 * block + 2):
        reference = out_of_place_exact(state, pair, n_steps, tau, grid)
        series = fidelity_exact(state, pair, n_steps, tau, grid=grid, check_leaks=check_leaks)
        assert series.values.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes(), n_steps


def test_block_size_rule():
    # about 4096 numbers (64 KiB) of the longest axis per block, 1 to 64 steps
    assert _block_steps(Grid(((0.0, 1.0),), (2,)), 1) == 64
    assert _block_steps(Grid(((0.0, 1.0),) * 2, (64, 4096)), 1) == 1
    assert _block_steps(Grid(((0.0, 1.0),), (64,)), 3) == 10


def synthetic_block(grid, steps):
    """Zero stacks of ``steps`` steps per axis, as ``_check_block`` takes
    them: momenta and positions, each (steps, 2 branches, 1 component, M)."""
    stacks = [np.zeros((steps, 2, 1, m), dtype=complex) for m in grid.points]
    return [np.zeros_like(s) for s in stacks], stacks


def put_mass(target, grid, d, j, index, factor):
    """Give row (step j, branch 1, component 0) of axis d the band mass
    ``factor * LEAK_TOL``, all at one point."""
    target[d][j, 1, 0, index] = np.sqrt(factor * LEAK_TOL / grid.spacing(d))


def test_block_replay_raises_the_first_step_nyquist_before_edges():
    grid = Grid(((-8.0, 8.0), (0.0, 4.0)), (64, 4))
    bands = _leak_bands(grid)
    phats, stacks = synthetic_block(grid, 6)
    put_mass(stacks, grid, 1, 1, 0, 2.0)  # step 2: an edge leak on axis 1
    put_mass(phats, grid, 0, 4, 32, 2.0)  # step 5: a Nyquist leak on axis 0
    with pytest.raises(GridLeakError, match=r"axis 1 at step 2 \(t = 0\.1\)$"):
        _check_block(bands, phats, stacks, 1, 0.05)
    # within a step the Nyquist bands come first, on any axis
    put_mass(phats, grid, 1, 1, 2, 2.0)
    with pytest.raises(AliasingError, match=r"axis 1 at step 2 \(t = 0\.1\);"):
        _check_block(bands, phats, stacks, 1, 0.05)
    # the steps are numbered from the block's first
    with pytest.raises(AliasingError, match="at step 12 "):
        _check_block(bands, phats, stacks, 11, 0.05)


@pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
def test_block_screen_fires_just_above_the_tolerance_at_any_step(periodic):
    # one point of one row in one step holds the whole band mass, 1e-9
    # relative above or below LEAK_TOL; below, the screen may replay the
    # block, and the replay passes
    grid = Grid(((-8.0, 8.0), (0.0, 4.0)), (64, 4), periodic=periodic)
    bands = _leak_bands(grid)
    assert LEAK_TOL * (1.0 - 1e-9) < SCREEN_TOL < LEAK_TOL
    for d, m in enumerate(grid.points):
        for in_momentum, index, error in ((True, m // 2, AliasingError), (False, 0, GridLeakError)):
            for j in (0, 2, 4):
                for factor in (1.0 + 1e-9, 1.0 - 1e-9):
                    phats, stacks = synthetic_block(grid, 5)
                    put_mass(phats if in_momentum else stacks, grid, d, j, index, factor)
                    if factor > 1.0 and (in_momentum or not periodic):
                        with pytest.raises(error, match=f"axis {d} at step {7 + j} "):
                            _check_block(bands, phats, stacks, 7, 0.05)
                    else:
                        _check_block(bands, phats, stacks, 7, 0.05)


LEAK_CASES = {
    # name: state, pair, n_steps, tau, grid
    "position": (InitialState.gaussian([0.0], [4.0], [1.0]),
                 make_pair(FREE, hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, 1e-4))),
                 100, 0.2, Grid(((-10.0, 10.0),), (512,))),
    "aliasing": (GROUND, make_pair(hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(4000.0)),
                                   HARMONIC), 50, 0.5, Grid(((-8.0, 8.0),), (64,))),
    "rotor_64": (ROTOR.state, ROTOR.pair, 50, 1.0, Grid((ROTOR.grid_extent,), (64,), periodic=True)),
    "two_components_position": (MIXTURE, make_pair(FREE, FREE), 200, 0.2, grid_for_state(MIXTURE)),
    "two_d_aliasing": (STATE_2D, make_pair(
        SeparableHamiltonian((KIN, KIN), (harmonic_potential(1.0), harmonic_potential(4000.0))),
        SeparableHamiltonian((KIN, KIN), (harmonic_potential(1.0),) * 2)), 50, 0.5,
        Grid(((-8.0, 8.0), (-8.0, 8.0)), (256, 64))),
}


@pytest.mark.parametrize("state, pair, n_steps, tau, grid", LEAK_CASES.values(), ids=LEAK_CASES.keys())
def test_block_leak_raises_what_the_per_step_check_raises(state, pair, n_steps, tau, grid):
    # same type, axis, mass and first step: the message of the step-by-step
    # reference, then the grid it was raised on
    with pytest.raises((AliasingError, GridLeakError)) as reference:
        out_of_place_exact(state, pair, n_steps, tau, grid)
    with pytest.raises(reference.type) as blocked:
        fidelity_exact(state, pair, n_steps, tau, grid=grid)
    assert str(blocked.value).startswith(f"{reference.value}; grid reached: points {grid.points}")


def test_periodic_rotor_on_64_fixed_points_leaks_at_step_5():
    # the kicked rotor of tests/test_cli.py with grid_points = 64: the kicks
    # push the momenta into the Nyquist band in the first block
    grid = Grid((ROTOR.grid_extent,), (64,), periodic=True)
    assert _block_steps(grid, 1) == 32
    fidelity_exact(ROTOR.state, ROTOR.pair, 4, 1.0, grid=grid)
    with pytest.raises(AliasingError, match=r"probability 2\.768e-08 .* axis 0 at step 5 \(t = 5\);"):
        fidelity_exact(ROTOR.state, ROTOR.pair, 50, 1.0, grid=grid)
    with pytest.raises(AliasingError, match="at step 5 .*its point count was given"):
        fidelity_exact(ROTOR.state, ROTOR.pair, 50, 1.0, points=64, extent=ROTOR.grid_extent, periodic=True)


# ---------------------------------------------------------------------------
# the derived grid and its growth on a leak


def test_derived_grid_holds_the_momenta_clear_of_the_nyquist_band():
    # p_hi = |p0| + 8 hbar / sigma must stay below 90% of pi hbar M / L
    assert grid_for_state(GROUND).points == (64,)
    for p0, sigma, hbar in ((0.0, 1.0, 1.0), (3.0, 0.4, 0.5), (-2.0, 2.5, 2.0)):
        state = InitialState.gaussian([1.0], [p0], [sigma])
        grid = grid_for_state(state, hbar=hbar)
        (lo, hi), (m,) = grid.extents[0], grid.points
        p_hi = abs(p0) + 8.0 * hbar / sigma
        assert 0.9 * np.pi * hbar * m / (hi - lo) >= p_hi > 0.45 * np.pi * hbar * m / (hi - lo)
        assert grid.extents == grid_for_state(state, points=4096).extents


def test_breathing_packet_stays_on_its_default_grid():
    # the squeezed packet breathes to 3.6 times its initial width in the
    # softer well within the run; it leaks even on a 16-sigma grid, and the
    # derived grid grows once, doubling its extent and its point count
    kinetic = (quadratic_kinetic(0.5),)
    pair = make_pair(
        SeparableHamiltonian(kinetic, (harmonic_potential(0.5),)),
        SeparableHamiltonian(kinetic, (harmonic_potential(1.0),)),
    )
    series = fidelity_exact(InitialState.gaussian([0.0], [0.0], [0.75]), pair, 60, 0.05)
    assert np.all(np.abs(series.values) <= 1.0 + 1e-12)
    assert series.meta["grid_growths"] == 1
    assert series.meta["grid_points"] == (128,)
    assert series.meta["grid_extents"] == ((-12.0, 12.0),)


def test_displaced_distorted_oscillator_on_the_default_grid_matches_the_chain():
    # ground state of H' (omega' = 1) under H'' with omega'' = 0.8 centred at
    # d = 2: the packet swings past the 8-sigma box, so the grid grows
    kin = (quadratic_kinetic(1.0),)
    pair = make_pair(
        SeparableHamiltonian(kin, (harmonic_potential(1.0),)),
        SeparableHamiltonian(kin, (harmonic_potential(0.64, 2.0),)),
    )
    cfg = EstimatorConfig(n_traj=1, seed=1, tau=0.05, n_steps=400)
    series = fidelity_exact(GROUND, pair, 400, 0.05)
    assert series.meta["grid_growths"] == 1
    assert series.meta["grid_extents"] == ((-16.0, 16.0),)
    chain = f2_gaussian_chain(GROUND, pair, cfg)
    assert np.max(np.abs(series.values - chain.values)) <= 1e-12


@pytest.mark.parametrize("name, n_steps", [
    *((name, None) for name in ("linear_gradient", "displaced_ho", "ho_diff_k",
                                "cubic_perturbation", "morse_like")),
    ("displaced_ho", 1000), ("morse_like", 1000),
])
def test_derived_grid_agrees_with_the_4096_point_grid(name, n_steps):
    # the difference is FFT roundoff; against the closed-form chain the
    # derived grid is no farther than the 4096-point grid
    sc = load(name)
    n_steps = n_steps or sc.n_steps
    derived = fidelity_exact(sc.state, sc.pair, n_steps, sc.tau)
    fine = fidelity_exact(sc.state, sc.pair, n_steps, sc.tau, points=4096)
    assert np.max(np.abs(derived.values - fine.values)) <= 1e-12
    if max(sc.pair.average.degree, sc.pair.delta.degree) <= 2:
        cfg = EstimatorConfig(n_traj=1, seed=1, tau=sc.tau, n_steps=n_steps)
        chain = f2_gaussian_chain(sc.state, sc.pair, cfg).values
        assert np.max(np.abs(derived.values - chain)) <= np.max(np.abs(fine.values - chain)) + 1e-13


STIFF = make_pair(
    hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(16.0)),
    hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(16.8)),
)


def test_momentum_aliasing_doubles_the_points_on_the_same_extent():
    # the unit-width packet in a well of frequency 4 squeezes to width 1/4,
    # which spreads its momenta past the Nyquist band of 64 points on +-8
    first = grid_for_state(GROUND)
    with pytest.raises(AliasingError):
        fidelity_exact(GROUND, STIFF, 100, 0.05, grid=first)
    series = fidelity_exact(GROUND, STIFF, 100, 0.05)
    assert series.meta["grid_growths"] == 1
    assert series.meta["grid_extents"] == first.extents
    assert series.meta["grid_points"] == (128,)
    on_grown = fidelity_exact(GROUND, STIFF, 100, 0.05, grid=Grid(first.extents, (128,)))
    assert np.array_equal(series.values, on_grown.values)
    fine = fidelity_exact(GROUND, STIFF, 100, 0.05, points=4096)
    assert np.max(np.abs(series.values - fine.values)) <= 1e-12
    # the derived extent, given: it stays, and the points grow the same way
    given = fidelity_exact(GROUND, STIFF, 100, 0.05, extent=first.extents[0])
    assert given.meta == series.meta
    assert np.array_equal(given.values, series.values)


# the fast free packet of test_position_leak_detected, 40 steps: it travels
# 32 and spreads to width 8
FAST_PACKET = InitialState.gaussian([0.0], [4.0], [1.0])
DRIFT = make_pair(FREE, hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0.0, 1e-4)))
LEAKS = {
    "aliasing": (GROUND, STIFF, 100, 0.05, AliasingError),
    "position": (FAST_PACKET, DRIFT, 40, 0.2, GridLeakError),
}


@pytest.mark.parametrize("leak, hints, grown", [
    # the rule: a given hint stays, a left-out one may grow.  Aliasing needs
    # free points; a position leak needs a free extent, and doubles the
    # points too where they are free.  None: the leak is raised.
    ("aliasing", {}, (1, (-8.0, 8.0), 128)),
    ("aliasing", {"points": 64}, None),
    ("aliasing", {"extent": (-10.0, 10.0)}, (1, (-10.0, 10.0), 128)),
    ("aliasing", {"grid": Grid(((-8.0, 8.0),), (64,))}, None),
    ("position", {}, (4, (-128.0, 128.0), 2048)),
    ("position", {"points": 1024}, (4, (-128.0, 128.0), 1024)),
    ("position", {"extent": (-10.0, 10.0)}, None),
    ("position", {"grid": Grid(((-10.0, 10.0),), (512,))}, None),
], ids=[f"{leak}-{hint}" for leak in LEAKS for hint in ("neither", "points", "extent", "grid")])
def test_a_given_grid_hint_stays_fixed_and_a_left_out_one_grows(leak, hints, grown):
    state, pair, n_steps, tau, error = LEAKS[leak]
    if grown is None:
        with pytest.raises(error):
            fidelity_exact(state, pair, n_steps, tau, **hints)
        return
    series = fidelity_exact(state, pair, n_steps, tau, **hints)
    growths, extent, points = grown
    assert series.meta["grid_growths"] == growths
    assert series.meta["grid_extents"] == (extent,)
    assert series.meta["grid_points"] == (points,)
    direct = fidelity_exact(state, pair, n_steps, tau, grid=Grid((extent,), (points,)))
    assert np.array_equal(series.values, direct.values)


def test_unchecked_run_stays_on_the_first_derived_grid():
    series = fidelity_exact(GROUND, STIFF, 100, 0.05, check_leaks=False)
    assert series.meta["grid_growths"] == 0
    assert series.meta["grid_points"] == (64,)


@pytest.mark.parametrize("state, pair, tau, error", [
    # each kick scatters the momenta over the whole band on any grid
    (GROUND, make_pair(hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1e9)), HARMONIC),
     0.5, AliasingError),
    # the rule asks for 2^23 points; the run starts on 2^16 and leaks at once
    (InitialState.gaussian([0.0], [1e6], [1.0]), make_pair(FREE, FREE), 1.0, GridLeakError),
], ids=["aliasing", "start_above_the_cap"])
def test_growth_stops_at_the_cap_naming_the_largest_grid_tried(state, pair, tau, error):
    with pytest.raises(error, match=rf"largest grid tried: points \({MAX_POINTS},\) on"):
        fidelity_exact(state, pair, 50, tau)


def test_a_leak_whose_hint_is_fixed_names_the_grid_it_reached():
    # the free packet outruns five doublings of the extent, to +-256; on the
    # 1024 points it was given, the momenta then reach the Nyquist band
    with pytest.raises(AliasingError) as leak:
        fidelity_exact(FAST_PACKET, make_pair(FREE, FREE), 100, 0.2, points=1024)
    assert str(leak.value) == (
        "momentum probability 9.747e-03 near the Nyquist edge of axis 0 at step 1 (t = 0.2); "
        "enlarge the grid or reduce tau; grid reached: points (1024,) on extents "
        "((-256.0, 256.0),) (grid_growths = 5); its point count was given, so it stays fixed"
    )
    # a given grid names itself, after no growth, with its extent fixed
    with pytest.raises(GridLeakError, match=r"at step \d+ \(t = [\d.]+\); grid reached: points "
                       r"\(512,\) on extents \(\(-10\.0, 10\.0\),\) \(grid_growths = 0\); "
                       r"its extent was given, so it stays fixed"):
        fidelity_exact(FAST_PACKET, DRIFT, 100, 0.2, grid=Grid(((-10.0, 10.0),), (512,)))
