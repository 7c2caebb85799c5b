import _thread
import math
import mmap
import multiprocessing
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loschmidt import estimators
from loschmidt.dynamics import TrajectoryEscapeError, check_escape, drift, map_step
from loschmidt.estimators import (
    EstimatorConfig,
    FidelitySeries,
    SingularExponentError,
    ThimbleDivergenceError,
    _integrate_out,
    _thimble_kick,
    f0,
    f1_dr,
    f2_gaussian_chain,
    f2_mc,
)
from loschmidt.hamiltonians import (
    EXACT,
    ZERO_TERM,
    CoordFunction,
    SeparableHamiltonian,
    cosine_potential,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    predicted_exactness,
    quadratic_kinetic,
)
from loschmidt.presets import displaced_ho_pair, load
from loschmidt.qgrid import fidelity_exact
from loschmidt.series import NumericalError
from loschmidt.states import GaussianComponent, InitialState, sample, wigner_density

from conftest import wide_grid

STD_GAUSSIAN = InitialState.gaussian([0.0], [0.0], [1.0])


def config(**kw):
    base = dict(n_traj=20000, seed=7, tau=0.05, n_steps=40, hbar=1.0)
    base.update(kw)
    return EstimatorConfig(**base)


def exact_series(state, pair, cfg, grid=None):
    """``fidelity_exact`` with the run fields of ``cfg``, called as an estimator."""
    return fidelity_exact(state, pair, cfg.n_steps, cfg.tau, hbar=cfg.hbar, grid=grid)


def zero_pair():
    h = hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0))
    return make_pair(h, h)


def gradient_pair(delta_beta=1.0):
    return make_pair(
        hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, -0.5 * delta_beta)),
        hamiltonian_1d(ZERO_TERM, polynomial_term(0.0, +0.5 * delta_beta)),
    )


# ---------------------------------------------------------------------------
# configuration and series types


def test_estimator_config_validation():
    with pytest.raises(ValueError, match="n_traj"):
        config(n_traj=0)
    for name in ("tau", "hbar"):
        for value in (-0.1, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                config(**{name: value})
    with pytest.raises(ValueError, match="seed"):
        config(seed=-1)
    # counts and seeds are integers, NumPy's included, and never bools
    for name, value in (("n_traj", 100.5), ("n_traj", True), ("seed", 1.5), ("seed", False),
                        ("n_steps", 2.5), ("n_steps", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            config(**{name: value})
    cfg = config(n_traj=np.int64(300), seed=np.uint32(1), n_steps=np.int32(5))
    assert cfg.times.shape == (6,)


def test_monte_carlo_estimators_refuse_a_config_without_ensemble():
    cfg = config(n_traj=None, seed=None)
    assert cfg.run_meta["n_traj"] is None and cfg.run_meta["seed"] is None
    sc = load("displaced_ho")
    for est in (f1_dr, f2_mc):
        with pytest.raises(ValueError, match="n_traj"):
            est(sc.state, sc.pair, cfg)
    # f0 samples nothing, so it needs neither
    assert f0(sc.state, sc.pair, cfg).meta["n_traj"] is None
    # the real-axis f2_mc samples an ensemble of its own
    sc = load("cubic_perturbation")
    with pytest.raises(ValueError, match="n_traj"):
        f2_mc(sc.state, sc.pair, cfg)


def test_series_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        FidelitySeries(np.arange(3.0), np.ones(2, complex), np.zeros(3))


# ---------------------------------------------------------------------------
# zeroth order


def test_f0_zero_perturbation_is_one():
    series = f0(STD_GAUSSIAN, zero_pair(), config())
    assert np.all(series.values == 1.0 + 0.0j)
    assert np.all(series.stderr == 0.0)


def test_f0_linear_perturbation_matches_gaussian_characteristic_function():
    # delta H = q over the standard packet: f0(t) = exp(-t^2/4), 0.77880 at t=1
    pair = gradient_pair(1.0)
    cfg = config(n_traj=None, seed=None, n_steps=20)
    series = f0(STD_GAUSSIAN, pair, cfg)
    analytic = np.exp(-series.times**2 / 4.0)
    assert analytic[20] == pytest.approx(0.7788007830714049, abs=1e-12)
    assert np.max(np.abs(series.values - analytic)) <= 1e-12

    # quadrature oracle over the Wigner measure confirms the analytic curve
    q = np.linspace(-8, 8, 1601)
    p = np.linspace(-8, 8, 401)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    rho = wigner_density(STD_GAUSSIAN, qq[..., None], pp[..., None])
    for t in (0.5, 1.0):
        phase = np.exp(-1j * t * qq)  # delta H = q
        val = np.trapezoid(np.trapezoid(rho * phase, p, axis=1), q) / (2 * np.pi)
        assert val.real == pytest.approx(np.exp(-(t**2) / 4.0), abs=1e-8)
        assert val.imag == pytest.approx(0.0, abs=1e-8)


def test_f0_exact_for_linear_gradient_scenario():
    sc = load("linear_gradient")
    cfg = config(n_traj=None, seed=None, tau=sc.tau, n_steps=100)
    exact = fidelity_exact(sc.state, sc.pair, 100, sc.tau)
    series = f0(sc.state, sc.pair, cfg)
    assert np.max(np.abs(series.values - exact.values)) <= 1e-12


def test_f0_exact_for_mixed_state_on_linear_gradient():
    pair = gradient_pair(1.0)
    state = InitialState(
        (
            GaussianComponent([-1.0], [0.3], [0.8], 0.5),
            GaussianComponent([+1.5], [-0.2], [1.2], 0.5),
        )
    )
    cfg = config(n_traj=None, seed=None, n_steps=100)
    exact = fidelity_exact(state, pair, 100, cfg.tau)
    series = f0(state, pair, cfg)
    assert np.max(np.abs(series.values - exact.values)) <= 1e-12


def test_f0_samples_nothing_and_ignores_the_ensemble_fields(monkeypatch):
    # a quadrature: no draw, no ensemble driver and no chunk pool, and the
    # same bits for any seed, ensemble size or CPU count
    def refuse(*args, **kwargs):
        raise AssertionError("f0 sampled or split an ensemble")

    for name in ("sample", "_ensemble_series", "_run_chunks"):
        monkeypatch.setattr(estimators, name, refuse)
    sc = load("cubic_perturbation")
    runs = []
    for cpus, n_traj, seed in ((1, None, None), (3, 100_000, 1), (2, 7, 99)):
        monkeypatch.setattr(estimators, "_available_cpus", lambda cpus=cpus: cpus)
        cfg = config(n_traj=n_traj, seed=seed, tau=sc.tau, n_steps=sc.n_steps)
        runs.append(f0(sc.state, sc.pair, cfg))
    for series in runs:
        assert series.values.tobytes() == runs[0].values.tobytes()
        assert np.all(series.stderr == 0.0)
        assert series.meta["n_traj"] is None and series.meta["seed"] is None
    with pytest.raises(ValueError, match="dimensions differ"):
        f0(InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0]), sc.pair, config())


def test_f0_memory_does_not_grow_with_steps_times_nodes(monkeypatch):
    # at N = 1000 the cubic factor doubles its nodes up to 2049: an array of
    # a node per step would hold 33 MB, the step loop a few node-sized arrays
    nodes = []
    value = CoordFunction.value
    monkeypatch.setattr(CoordFunction, "value", lambda t, x: nodes.append(len(x)) or value(t, x))
    sc = load("cubic_perturbation")
    tracemalloc.start()
    try:
        f0(sc.state, sc.pair, config(tau=sc.tau, n_steps=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == [257, 513, 1025, 2049]
    assert peak < 2**20, peak


def test_f0_refuses_a_quadrature_that_does_not_converge():
    # a phase of 5e18 radians per unit q is noise on any node spacing, so the
    # doubling stops after 2**20 + 1 nodes with a numerical error (CLI exit 3)
    with pytest.raises(NumericalError, match="unconverged at 1048577 nodes"):
        f0(STD_GAUSSIAN, gradient_pair(1e20), config(n_steps=1))


@st.composite
def gaussian_mixtures(draw, dims):
    """One Gaussian component, or two with weights w and 1 - w, w in
    [0.2, 0.8]; on each of ``dims`` axes a centre q0, p0 in [-1, 1] and a
    width sigma in [0.8, 1.25]."""
    centre = st.floats(-1.0, 1.0)
    weight = draw(st.floats(0.2, 0.8))
    weights = draw(st.sampled_from([(1.0,), (weight, 1.0 - weight)]))
    return InitialState(tuple(
        GaussianComponent(
            [draw(centre) for _ in range(dims)],
            [draw(centre) for _ in range(dims)],
            [draw(st.floats(0.8, 1.25)) for _ in range(dims)],
            w,
        )
        for w in weights
    ))


@st.composite
def separable_systems(draw):
    """A state and two separable Hamiltonians in one or two coordinates.

    Every kinetic and potential term is a polynomial of degree 0 to 4 with
    coefficients in [-0.5, 0.5]; a potential term adds a cosine of amplitude
    in [-0.5, 0.5] half of the time.  So delta-H has polynomial, cosine and
    kinetic parts.  The state is drawn by ``gaussian_mixtures``."""
    dims = draw(st.integers(1, 2))

    def term(cosine):
        coeffs = draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=5))
        amp = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5))) if cosine else 0.0
        return CoordFunction(tuple(coeffs), amp)

    h_a, h_b = (
        SeparableHamiltonian(
            tuple(term(False) for _ in range(dims)), tuple(term(True) for _ in range(dims))
        )
        for _ in range(2)
    )
    return draw(gaussian_mixtures(dims)), h_a, h_b


@settings(max_examples=25, deadline=None)
@given(system=separable_systems())
def test_f0_invariants_on_random_separable_pairs(system):
    state, h_a, h_b = system
    cfg = config(n_traj=None, seed=None, n_steps=40)
    f = f0(state, make_pair(h_a, h_b), cfg).values
    swapped = f0(state, make_pair(h_b, h_a), cfg).values
    assert f[0] == 1.0
    assert np.all(np.abs(f) <= 1.0 + 1e-12)
    assert np.max(np.abs(swapped - np.conj(f))) <= 1e-15


@st.composite
def affine_systems(draw):
    """A state, a pair with a constant average and an affine delta-H, and hbar.

    Per coordinate H' = A - dH / 2 and H'' = A + dH / 2, with a constant A in
    [-1, 1] and dH = c + a q + b p, with c, a and b in [-1, 1]; one or two
    coordinates, a state drawn by ``gaussian_mixtures`` and hbar in
    [0.25, 1].  Over 40 steps of tau = 0.05 each branch moves a packet by at
    most 1 in q and in p, which a grid padded to 16 widths holds."""
    dims = draw(st.integers(1, 2))
    unit = st.floats(-1.0, 1.0)
    hs = ([], [], [], [])  # kinetic and potential terms of H', then of H''
    for _ in range(dims):
        level, c, a, b = (draw(unit) for _ in range(4))
        for sign, kinetic, potential in ((-0.5, *hs[:2]), (0.5, *hs[2:])):
            kinetic.append(polynomial_term(0.0, sign * b))
            potential.append(polynomial_term(level + sign * c, sign * a))
    h_prime, h_double_prime = (SeparableHamiltonian(*hs[i:i + 2]) for i in (0, 2))
    hbar = draw(st.floats(0.25, 1.0))
    return draw(gaussian_mixtures(dims)), make_pair(h_prime, h_double_prime), hbar


@settings(max_examples=10, deadline=None)
@given(system=affine_systems())
def test_f0_matches_exact_on_random_affine_pairs(system):
    state, pair, hbar = system
    assert predicted_exactness(pair)["f0"] == EXACT
    cfg = config(n_traj=None, seed=None, n_steps=40, hbar=hbar)
    grid = wide_grid(state, 4096)
    exact = fidelity_exact(state, pair, 40, cfg.tau, hbar=hbar, grid=grid)
    assert np.max(np.abs(f0(state, pair, cfg).values - exact.values)) <= 1e-12


# ---------------------------------------------------------------------------
# dephasing representation


def test_f1_zero_perturbation_is_one():
    series = f1_dr(STD_GAUSSIAN, zero_pair(), config(n_traj=500))
    assert np.all(series.values == 1.0 + 0.0j)
    assert np.all(series.stderr == 0.0)


def test_f1_exact_on_displaced_ho_with_average_reference():
    sc = load("displaced_ho")
    cfg = config(n_traj=20000, tau=sc.tau, n_steps=120)
    exact = fidelity_exact(sc.state, sc.pair, cfg.n_steps, sc.tau)
    series = f1_dr(sc.state, sc.pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-6)


def test_f1_fails_with_unperturbed_reference():
    sc = load("displaced_ho")
    cfg = config(n_traj=20000, tau=sc.tau, n_steps=120)
    exact = fidelity_exact(sc.state, sc.pair, cfg.n_steps, sc.tau)
    good = f1_dr(sc.state, sc.pair, cfg, reference="average")
    bad = f1_dr(sc.state, sc.pair, cfg, reference="h_prime")
    band = np.max(3 * good.stderr + 1e-6)
    assert np.max(np.abs(bad.values - exact.values)) >= 10 * band


def test_f1_rejects_unknown_reference():
    with pytest.raises(ValueError, match="reference"):
        f1_dr(STD_GAUSSIAN, zero_pair(), config(n_traj=10), reference="midpoint")


def test_f0_f1_modulus_bounded_by_one_plus_stderr():
    sc = load("morse_like")
    cfg = config(n_traj=5000, tau=sc.tau, n_steps=80, seed=2)
    for series in (f0(sc.state, sc.pair, cfg), f1_dr(sc.state, sc.pair, cfg)):
        assert np.all(np.abs(series.values) <= 1.0 + series.stderr + 1e-12)


def test_f0_f1_conjugate_under_swap():
    # f2_mc too: the thimble takes the principal root, which commutes with
    # conjugation, so each swapped smear is the conjugate of the original
    sc = load("ho_diff_k")
    cfg = config(n_traj=4000, tau=sc.tau, n_steps=60)
    for est in (f0, f1_dr, f2_mc):
        fwd = est(sc.state, sc.pair, cfg)
        rev = est(sc.state, sc.pair.swapped(), cfg)
        np.testing.assert_allclose(
            rev.values, np.conj(fwd.values), rtol=0.0, atol=1e-15
        )


def test_f1_stderr_scales_inverse_root_n():
    sc = load("displaced_ho")
    errs = []
    for n in (1000, 4000):
        cfg = config(n_traj=n, tau=sc.tau, n_steps=30, seed=5)
        errs.append(f1_dr(sc.state, sc.pair, cfg).stderr[30])
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)


@pytest.mark.parametrize(
    "name, estimator",
    [("linear_gradient", f1_dr), ("displaced_ho", f1_dr)],
    ids=["f1-linear_gradient", "f1-displaced_ho"],
)
def test_stderr_coverage_where_exact(name, estimator):
    # where the estimator is exact, f - exact is the Monte Carlo error alone.
    # A circular complex normal error lies within one stderr with probability
    # 1 - 1/e = 0.63; the mean share over seeds 1-20 measured 0.62 to 0.64,
    # and an error bar off by 1.5x in either direction reads 0.85 or 0.37
    sc = load(name)
    exact = fidelity_exact(sc.state, sc.pair, sc.n_steps, sc.tau, points=sc.grid_points)
    shares = []
    for seed in range(1, 21):
        series = estimator(sc.state, sc.pair, config(
            n_traj=4000, tau=sc.tau, n_steps=sc.n_steps, seed=seed
        ))
        dev = np.abs(series.values - exact.values)[1:]
        shares.append(np.mean(dev <= series.stderr[1:]))
    assert 0.5 <= np.mean(shares) <= 0.75


# ---------------------------------------------------------------------------
# second order, Monte Carlo


def test_f2_mc_reduces_to_f1_for_linear_perturbation():
    # linear delta V: a_n is an exact zero at every step, so paths, phases
    # and reductions coincide with the dephasing representation
    for name in ("displaced_ho", "linear_gradient"):
        sc = load(name)
        cfg = config(n_traj=3000, tau=sc.tau, n_steps=100)
        dr = f1_dr(sc.state, sc.pair, cfg)
        mc = f2_mc(sc.state, sc.pair, cfg)
        assert np.array_equal(mc.values, dr.values), name
        assert np.array_equal(mc.stderr, dr.stderr), name


def test_f2_mc_zero_steps():
    series = f2_mc(STD_GAUSSIAN, zero_pair(), config(n_traj=100, n_steps=0))
    assert series.values[0] == 1.0 + 0.0j and len(series) == 1


def test_f2_mc_matches_exact_on_diff_k():
    sc = load("ho_diff_k")
    cfg = config(n_traj=50000, tau=sc.tau, n_steps=50, seed=11)
    exact = fidelity_exact(sc.state, sc.pair, cfg.n_steps, sc.tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # unit path weights: no ESS warning
        series = f2_mc(sc.state, sc.pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr)
    # the estimator is informative (not vacuous) at early times
    assert series.stderr[1] < 1e-3
    assert np.median(series.stderr[:10]) < 0.1


def test_second_order_refuses_a_state_and_pair_of_different_dimensions():
    cfg = config(n_traj=10)
    state_2d = InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    # every estimator and the exact reference run the one check before any work
    for estimator in (f0, f1_dr, f2_mc, f2_gaussian_chain, exact_series):
        with pytest.raises(ValueError, match="dimensions differ"):
            estimator(state_2d, displaced_ho_pair(dims=1), cfg)
        with pytest.raises(ValueError, match="dimensions differ"):
            estimator(STD_GAUSSIAN, displaced_ho_pair(dims=2), cfg)


def test_f2_mc_preconditions():
    cfg = config(n_traj=10)
    # off the thimble f2_mc keeps its one-dimensional real-axis sampler
    kicked_2d = make_pair(
        SeparableHamiltonian((quadratic_kinetic(1.0),) * 2, (cosine_potential(4.95),) * 2),
        SeparableHamiltonian((quadratic_kinetic(1.0),) * 2, (cosine_potential(5.05),) * 2),
    )
    state_2d = InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="off the thimble supports one degree of freedom"):
        f2_mc(state_2d, kicked_2d, cfg)
    # momentum-dependent perturbation
    pair = make_pair(
        hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0)),
        hamiltonian_1d(quadratic_kinetic(2.0), harmonic_potential(1.0)),
    )
    with pytest.raises(ValueError, match="momentum independent"):
        f2_mc(STD_GAUSSIAN, pair, cfg)


@pytest.mark.parametrize(
    "name, contour",
    [("ho_diff_k", "thimble"), ("cubic_perturbation", "thimble"),
     ("kicked_rotor", "real"), ("morse_like", "real")],
)
def test_f2_mc_contour_follows_the_average(name, contour):
    # a polynomial average of degree <= 2 takes the thimble, with unit path
    # weights; any other average keeps the real-axis sampler
    sc = load(name)
    cfg = config(n_traj=200, tau=sc.tau, n_steps=5)
    meta = f2_mc(sc.state, sc.pair, cfg).meta
    assert meta["f2_contour"] == contour
    if contour == "thimble":
        assert meta["effective_sample_size"] == cfg.n_traj


def kick_scratch(q):
    """The scratch an orbit passes its kick: work (q's shape and dtype), and
    the float and the complex buffers of q's shape."""
    return np.empty_like(q), np.empty(q.shape), np.empty(q.shape, complex)


def test_thimble_kick_draws_on_the_steepest_descent_line():
    # eta^2 / (i a) = 2 hbar^2 xi^2 is real and nonnegative for real and
    # complex a of either sign; eta is an exact zero where a is
    hbar, tau = 0.7, 0.05
    pair = load("cubic_perturbation").pair  # V_delta'' = 0.3 q
    cfg = config(n_traj=8, tau=tau, hbar=hbar)
    kick = _thimble_kick(pair, cfg, range(8))
    p = np.linspace(-1.0, 1.0, 8)[:, None]
    for q in (
        np.array([0.0, 1.0, -2.0, 0.5, 3.0, -0.1, 0.0, 2.0]),
        np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1e-9j, -1e-9j, 0.0, 4 - 3j]),
    ):
        column = q[:, None]
        eta = (kick(column, p, *kick_scratch(column)) - p)[:, 0]
        a = tau * 0.3 * q / (8.0 * hbar)
        assert np.all(eta[q == 0] == 0)
        ratio = eta[q != 0] ** 2 / (1j * a[q != 0]) / (2 * hbar**2)
        assert np.all(ratio.real > 0)
        assert np.all(np.abs(ratio.imag) <= 1e-14 * ratio.real)


def test_thimble_kick_smears_complex_momenta_in_place():
    # the orbit's first smear turns real momenta complex in a new array; from
    # then on each smear adds to the complex momenta themselves
    kick = _thimble_kick(load("cubic_perturbation").pair, config(n_traj=8), range(8))
    q = np.linspace(-1.0, 1.0, 8)[:, None]
    real_p = np.zeros((8, 1))
    scratch = kick_scratch(q)
    first = kick(q, real_p, *scratch)
    assert first.dtype == complex and not np.shares_memory(first, real_p)
    assert not any(np.shares_memory(first, buffer) for buffer in scratch)
    assert np.all(real_p == 0.0)
    kept = first.copy()
    complex_p = first.copy()
    assert kick(q + 0j, complex_p, *kick_scratch(q + 0j)) is complex_p
    assert np.array_equal(first, kept)  # a later smear leaves the first result alone


def product_root_kick(pair, config, batches):
    """``_thimble_kick`` as it was: buffers of its own, and the principal
    root selected by products with g in {0, 1}; called as kick(q, p, work)."""
    edges = estimators._batch_edges(config.n_traj)
    lo = edges[batches.start]
    slices = [slice(edges[b] - lo, edges[b + 1] - lo) for b in batches]
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 1, b])))
        for b in batches
    ]
    t, small, g = np.empty((3, edges[batches.stop] - lo, pair.dims))
    root = np.empty(t.shape, complex)
    scale = 0.5 * np.sqrt(config.tau * config.hbar)

    def kick(q, p, work):
        u = pair.delta.potential_d2(q, work)
        np.add(np.abs(u.imag, out=t), np.abs(u, out=small), out=t)
        np.sqrt(np.multiply(t, 2.0, out=t), out=t)
        np.divide(u.real, np.maximum(t, np.finfo(float).tiny, out=small), out=small)
        larger = np.multiply(t, 0.5, out=t)
        np.less_equal(u.imag, 0.0, out=g)
        np.multiply(g, larger, out=root.real)
        np.multiply(g, small, out=root.imag)
        g_not = np.subtract(1.0, g, out=g)
        root.real += np.multiply(g_not, np.abs(small, out=small), out=small)
        np.copysign(larger, u.real, out=larger)
        root.imag += np.multiply(g_not, larger, out=larger)
        xi = t
        for stream, sl in zip(streams, slices):
            stream.standard_normal(out=xi[sl])
        np.multiply(root, np.multiply(xi, scale, out=xi), out=root)
        if p.dtype != root.dtype:
            return p + root
        p += root
        return p

    return kick


def curvature_is_q(dims):
    """A stand-in for a pair whose V_delta'' at q is q itself, so that a kick
    can be handed any curvature u."""
    def potential_d2(q, out):
        out[...] = q
        return out

    return SimpleNamespace(dims=dims, delta=SimpleNamespace(potential_d2=potential_d2))


@pytest.mark.parametrize("n, dims", [(1, 1), (33, 1), (1000, 1), (500, 2)])
def test_thimble_kick_selects_the_bits_of_the_product_root(n, dims):
    # random u of many scales on a real orbit (the first smear) and then on
    # complex ones, with zeros of either sign in each part, an Im u of either
    # sign and Re u = 0 beside a nonzero Im u: the same eta, bit for bit, as
    # the {0, 1}-product root, drawn from the same batch streams
    rng = np.random.default_rng(n * dims)
    pair, cfg = curvature_is_q(dims), config(n_traj=n, seed=n, tau=0.05, hbar=0.7)
    kick, reference = _thimble_kick(pair, cfg, range(min(32, n))), product_root_kick(
        pair, cfg, range(min(32, n)))

    def parts():
        x = rng.standard_normal((n, dims)) * 10.0 ** rng.integers(-200, 200, (n, dims))
        zeros = rng.integers(0, 4, (n, dims))
        x[zeros == 1] = 0.0
        x[zeros == 2] = -0.0
        return x

    curvatures = [parts()] + [parts() + 1j * parts() for _ in range(4)]
    p = rng.standard_normal((n, dims))
    for u in curvatures:
        want = reference(u, p.copy(), np.empty_like(u))
        got_p = p.copy()
        got = kick(u, got_p, *kick_scratch(u))
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        assert (got is got_p) == (p.dtype == complex)
        p = want


@pytest.mark.parametrize("name, n_steps", [("ho_diff_k", 100), ("cubic_perturbation", 252)])
def test_f2_mc_thimble_accuracy_gates(name, n_steps):
    # f2 is exact on both presets: every step within 4 stderr of exact, a
    # last-step stderr of at most 2e-3, and on the cubic perturbation a
    # smaller largest deviation than the dephasing representation's
    sc = load(name)
    exact = fidelity_exact(sc.state, sc.pair, n_steps, sc.tau, points=4096)
    for seed in range(1, 6):
        cfg = config(n_traj=100000, tau=sc.tau, n_steps=n_steps, seed=seed)
        mc = f2_mc(sc.state, sc.pair, cfg)
        dev = np.abs(mc.values - exact.values)
        assert np.all(dev <= 4 * mc.stderr), (seed, np.max(dev[1:] / mc.stderr[1:]))
        assert mc.stderr[-1] <= 2e-3, seed
        if name == "cubic_perturbation":
            f1_dev = np.abs(f1_dr(sc.state, sc.pair, cfg).values - exact.values)
            assert dev.max() < f1_dev.max(), seed


def test_thimble_f2_mc_steps_without_page_faults(monkeypatch):
    # the orbit steps in buffers allocated once per chunk, so a second call
    # pays page faults for its set-up only: 190 000 when every step took
    # fresh ensemble-sized arrays, about 4 000 with the reused ones
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 1)
    sc = load("cubic_perturbation")
    cfg = config(n_traj=100_000, tau=sc.tau, n_steps=sc.n_steps, seed=1)
    f2_mc(sc.state, sc.pair, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    f2_mc(sc.state, sc.pair, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20_000, faults


def _reference_phasors(h, delta, cfg, kick, q, p):
    """The orbit's phasors, step by step on fresh arrays: the public
    ``map_step``, ``delta.value`` and ``check_escape``, and a kick called
    with fresh scratch."""
    tau, hbar = cfg.tau, cfg.hbar
    phi = np.zeros(len(q))
    yield np.ones(len(q), dtype=complex)
    for n in range(1, cfg.n_steps + 1):
        q_new, p_new = map_step(q, p, h, tau)
        phi = phi + delta.value(q_new, p)
        q, p = q_new, p_new
        check_escape(q, p)
        z = np.empty(len(q), dtype=complex)
        z.real = np.cos(phi.real * (-tau / hbar))
        z.imag = np.sin(phi.real * (-tau / hbar))
        if phi.dtype.kind == "c":
            modulus = np.exp(phi.imag * (tau / hbar))
            z.real *= modulus
            z.imag *= modulus
        yield z
        if kick is not None and n < cfg.n_steps:
            p = kick(q, p, np.empty_like(q), np.empty(q.shape), np.empty(q.shape, complex))
            if p.dtype.kind == "c":
                phi = phi.astype(complex)


def _phasors_until_escape(steps):
    """Copies of the phasors ``steps`` yields, and whether it then escaped."""
    phasors = []
    try:
        for z in steps:
            phasors.append(z.copy())
    except TrajectoryEscapeError:
        return np.array(phasors), True
    return np.array(phasors), False


@settings(max_examples=40, deadline=None)
@given(
    system=separable_systems(), smear=st.booleans(), n=st.integers(1, 40),
    n_steps=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
)
def test_in_place_orbit_matches_a_reference_loop_to_the_bit(system, smear, n, n_steps, seed):
    # one or two coordinates, cosine terms and kinetic parts in delta-H; a
    # real orbit without a kick, and with the thimble kick one that turns
    # complex at its first smear (with a zero imaginary part where delta-V
    # is affine, where f2_mc passes no kick).
    # A quartic average can eject a trajectory: both then stop at that step.
    # The orbit overwrites the samples it is given, so each side gets a copy
    state, h_a, h_b = system
    pair = make_pair(h_a, h_b)
    cfg = config(n_traj=n, seed=seed, n_steps=n_steps)
    q, p = sample(state, n, seed, cfg.hbar)
    batches = range(len(estimators._batch_edges(n)) - 1)
    kick = partial(_thimble_kick, pair, cfg) if smear else None
    with np.errstate(over="ignore", invalid="ignore"):
        orbit, escaped = _phasors_until_escape(
            z for z, _ in estimators._orbit_phasors(
                pair.average, pair.delta, cfg, kick and kick(batches), q.copy(), p.copy()
            )
        )
        reference, reference_escaped = _phasors_until_escape(_reference_phasors(
            pair.average, pair.delta, cfg, kick and kick(batches), q.copy(), p.copy()
        ))
    assert escaped == reference_escaped
    assert orbit.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()


# ---------------------------------------------------------------------------
# the ensemble on several CPUs


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_batch_moments_merge_to_the_same_bits_for_any_split(n, seed, data):
    # phasor-like samples; the chunks are cut at a batch boundary
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    edges = np.array(estimators._batch_edges(n))
    starts, counts = edges[:-1], np.diff(edges)
    cut = data.draw(st.integers(1, max(1, len(starts) - 1)))

    def moments(lo, hi):
        inside = (starts >= lo) & (starts < hi)
        return estimators._moments(
            starts[inside] - lo, counts[inside], z[lo:hi].copy(), np.empty(hi - lo)
        )

    whole = estimators._merge_moments(*(m[None] for m in moments(0, n)), counts)
    parts = [moments(0, edges[cut]), moments(edges[cut], n)] if cut < len(starts) else [moments(0, n)]
    split = estimators._merge_moments(
        *(np.concatenate(m)[None] for m in zip(*parts)), counts
    )
    assert whole[0].tobytes() == split[0].tobytes()
    assert whole[1].tobytes() == split[1].tobytes()
    # the mean is the fixed-order sum of the samples
    assert whole[0][0] == np.add.reduceat(z, starts).sum() / n
    if n == 1:
        assert whole[1][0] == 0.0
        return
    # two passes: the mean from math.fsum, then exact squared deviations
    mean = [Fraction(math.fsum(part) / n) for part in (z.real, z.imag)]
    spread = sum((Fraction(x) - m) ** 2 for part, m in zip((z.real, z.imag), mean) for x in part)
    reference = math.sqrt(spread / ((n - 1) * n))
    assert abs(whole[1][0] - reference) <= 4e-16 * reference


def repeat_moments(starts, counts, z, theta):
    """``_moments`` as it was, subtracting an ensemble-sized array of the
    repeated batch means."""
    sums = np.add.reduceat(z, starts)
    np.subtract(z, np.repeat(sums / counts, counts), out=z)
    np.abs(z, out=theta)
    np.square(theta, out=theta)
    return sums, np.add.reduceat(theta, starts)


@pytest.mark.parametrize("n", [1, 31, 33, 1000, 100_000])
def test_batch_moments_subtract_in_place_with_the_bits_of_the_repeat(n):
    # same sums, moments, deviations and squared moduli, and no complex
    # ensemble-sized temporary: the peak inside the call stays below one
    rng = np.random.default_rng(n)
    z = rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    edges = np.array(estimators._batch_edges(n))
    starts, counts = edges[:-1], np.diff(edges)
    z_ref, theta_ref, theta = z.copy(), np.empty(n), np.empty(n)
    reference = repeat_moments(starts, counts, z_ref, theta_ref)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        moments = estimators._moments(starts, counts, z, theta)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    for got, want in zip((*moments, z, theta), (*reference, z_ref, theta_ref)):
        assert got.tobytes() == want.tobytes()
    if n >= 1000:
        assert peak < z.nbytes // 2, peak


@pytest.mark.parametrize("cpus, chunk_traj", [(1, 25_000), (2, 5000)], ids=["1", "2"])
def test_diverging_thimble_raises_without_numpy_warnings(monkeypatch, cpus, chunk_traj):
    # the CI diverge config at 800 steps: its moments overflow long after
    # the guard's step; one chunk, then four on two CPUs, two of them in a
    # worker
    monkeypatch.setattr(estimators, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", chunk_traj)
    kin = quadratic_kinetic(1.0)
    pair = make_pair(hamiltonian_1d(kin, polynomial_term(0.0, 0.0, 0.5)),
                     hamiltonian_1d(kin, polynomial_term(0.0, 0.0, 0.125)))
    cfg = config(n_traj=20000, seed=1, tau=0.05, n_steps=800)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ThimbleDivergenceError, match=r"diverged at step 104 \(t = 5\.2\)"):
            f2_mc(STD_GAUSSIAN, pair, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def test_orbit_loop_is_bit_identical_for_any_cpu_count(monkeypatch):
    # 32 000 trajectories at 30 steps, each layout run on 1, 2 and 3 CPUs:
    # fewer chunks than CPUs, as many, and more.  By trajectories per chunk:
    # 1 chunk, 3 uneven ones (10, 11 and 11 of the 32 error batches), 4 and
    # 32, whatever the CPU count, as 9.6e5 trajectory-steps are below two
    # chunks' floor; and with that floor lowered, one chunk per CPU
    n, n_steps = 32_000, 30
    floor = estimators._CHUNK_TRAJ_STEPS
    # (trajectories, trajectory-steps per chunk) -> the sizes on 1, 2, 3 CPUs
    layouts = {
        (n, floor): [[n]] * 3,
        (n, 1000): [[n], [16_000] * 2, [10_000, 11_000, 11_000]],
        (10_000, floor): [[10_000, 11_000, 11_000]] * 3,
        (8000, floor): [[8000] * 4] * 3,
        (1000, floor): [[1000] * 32] * 3,
    }
    runs = [
        (f1_dr, "displaced_ho"), (f1_dr, "cubic_perturbation"),
        (f2_mc, "linear_gradient"),  # a = 0 everywhere: the orbit stays real
        (f2_mc, "ho_diff_k"), (f2_mc, "cubic_perturbation"),  # thimble
    ]
    real_axis = (f2_mc, "kicked_rotor")  # one chunk whatever the layout: run on the first
    results = {}
    for (chunk_traj, chunk_steps), sizes in layouts.items():
        monkeypatch.setattr(estimators, "_CHUNK_TRAJ", chunk_traj)
        monkeypatch.setattr(estimators, "_CHUNK_TRAJ_STEPS", chunk_steps)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(estimators, "_available_cpus", lambda cpus=cpus: cpus)
            chunks = estimators._chunks(n, n_steps, estimators._can_fork())
            layout = [hi - lo for _, lo, hi in chunks]
            assert layout == sizes[cpus - 1], (chunk_traj, chunk_steps, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the real-axis ESS
                first = (chunk_traj, chunk_steps) == (n, floor)
                for estimator, name in runs + [real_axis] * first:
                    sc = load(name)
                    cfg = config(n_traj=n, tau=sc.tau, n_steps=n_steps, seed=5)
                    results[chunk_traj, chunk_steps, cpus, estimator, name] = estimator(
                        sc.state, sc.pair, cfg
                    )
    for estimator, name in runs + [real_axis]:
        one = results[n, floor, 1, estimator, name]
        for key, other in results.items():
            if key[3:] == (estimator, name):
                assert one.values.tobytes() == other.values.tobytes(), key
                assert one.stderr.tobytes() == other.stderr.tobytes(), key
                assert one.meta.get("f2_contour") == other.meta.get("f2_contour")


def test_concurrent_split_ensembles_keep_the_serial_bits(monkeypatch):
    # more callers than cores, each cutting its ensemble into six chunks run
    # on three CPUs, with a short switch interval: every result keeps the
    # serial bits
    sc = load("cubic_perturbation")
    cfg = config(n_traj=6000, tau=sc.tau, n_steps=20)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 1)
    serial = f2_mc(sc.state, sc.pair, cfg).values
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 3)
    results = [None] * 6

    def work(i):
        results[i] = f2_mc(sc.state, sc.pair, cfg).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(r is not None and r.tobytes() == serial.tobytes() for r in results)


def shared_counts(n):
    """n int64 counters in an anonymous shared mmap, which the caller and
    the workers it forks read and write alike."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.int64)


def wait_for(condition, timeout=60.0) -> bool:
    """Poll ``condition`` until it holds or ``timeout`` seconds pass."""
    end = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > end:
            return False
        time.sleep(1e-4)
    return True


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def on_either_worker(errors):
    """Parametrize a runner test by ``fork`` and each of ``errors``: on a
    forked worker, under the id the error alone gave it, and on a thread."""
    return pytest.mark.parametrize("fork, error", [
        *(pytest.param(True, e, marks=needs_fork, id=f"error{i}") for i, e in enumerate(errors)),
        *(pytest.param(False, e, id=f"thread-error{i}") for i, e in enumerate(errors)),
    ])


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_default_ensemble_at_the_sweep_steps_makes_one_chunk_per_cpu(monkeypatch, cpus):
    # the default 1e4 trajectories at a preset's 252 steps carry 2.52e6
    # trajectory-steps, enough for five chunks; 1e5 keep their four chunks
    # of 25 000 on up to four CPUs, and 1e4 at 20 steps stay one chunk.  A
    # caller that cannot fork, whose chunks would share the GIL, keeps one
    monkeypatch.setattr(estimators, "_available_cpus", lambda: cpus)

    def sizes(n, n_steps):
        return [hi - lo for _, lo, hi in estimators._chunks(n, n_steps, estimators._can_fork())]

    assert sizes(10_000, 252) == {1: [10_000], 2: [5000] * 2, 3: [3125, 3437, 3438]}[cpus]
    assert sizes(100_000, 252) == [25_000] * 4
    assert sizes(10_000, 20) == [10_000]
    monkeypatch.delattr(os, "fork", raising=False)
    assert sizes(10_000, 252) == [10_000]
    assert sizes(100_000, 252) == [25_000] * 4


@needs_fork
def test_an_ensemble_below_the_floor_forks_no_worker(monkeypatch):
    # on two CPUs 1e4 trajectories at 20 steps (2e5 trajectory-steps) run
    # in the caller; at 100 steps (1e6) they fork one worker, and keep the
    # caller's bits
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    sc = load("cubic_perturbation")
    for estimator in (f1_dr, f2_mc):
        estimator(sc.state, sc.pair, config(n_traj=10_000, tau=sc.tau, n_steps=20))
    assert len(forks) == 0
    cfg = config(n_traj=10_000, tau=sc.tau, n_steps=100)
    split = f1_dr(sc.state, sc.pair, cfg)
    assert len(forks) == 1
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 1)
    serial = f1_dr(sc.state, sc.pair, cfg)
    assert len(forks) == 1
    assert split.values.tobytes() == serial.values.tobytes()
    assert split.stderr.tobytes() == serial.stderr.tobytes()


@needs_fork
def test_split_ensemble_memory_is_the_sample_and_two_chunks(monkeypatch):
    # 8e5 trajectories make 32 chunks of 25 000, run two at a time on two
    # CPUs, one in the caller and one in its worker.  The caller's peak is the
    # sample (16 bytes a trajectory), one chunk of at most 50 000
    # trajectories at 100 bytes each and the per-step records; the worker's
    # peak above what it inherits is one chunk and its records.  Each chunk
    # holding its whole share of the ensemble took 106 MB here
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    caller, run_in_order, worker_peak = os.getpid(), estimators._run_in_order, shared_counts(1)

    def measured_run_in_order(tasks, stop):
        if os.getpid() == caller:
            return run_in_order(tasks, stop)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return run_in_order(tasks, stop)
        finally:
            worker_peak[0] = tracemalloc.get_traced_memory()[1] - base

    monkeypatch.setattr(estimators, "_run_in_order", measured_run_in_order)
    sc = load("cubic_perturbation")
    n = 800_000
    cfg = config(n_traj=n, tau=sc.tau, n_steps=3, seed=1)
    f2_mc(sc.state, sc.pair, config(n_traj=10, tau=sc.tau, n_steps=3))  # lazy set-up
    for estimator in (f1_dr, f2_mc):
        worker_peak[0] = -1
        tracemalloc.start()
        try:
            estimator(sc.state, sc.pair, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n + 50_000 * 100 + 2**20, (estimator.__name__, peak)
        assert 0 < worker_peak[0] <= 50_000 * 100 + 2**20, (estimator.__name__, worker_peak[0])


def _split_f1_in_child(state, pair, cfg):
    f1_dr(state, pair, cfg)


@needs_fork
def test_a_forked_child_splits_its_ensemble_on_its_own_pool(monkeypatch):
    # a forked child is a caller like any other: it forks workers of its own
    # for its chunks and reaps them
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    sc = load("cubic_perturbation")
    cfg = config(n_traj=4000, tau=sc.tau, n_steps=5)
    f1_dr(sc.state, sc.pair, cfg)
    child = multiprocessing.get_context("fork").Process(
        target=_split_f1_in_child, args=(sc.state, sc.pair, cfg)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def assert_the_first_failure_wins(monkeypatch, fork):
    """Three tasks on three CPUs, one in the caller and one in each of two
    workers, forked if ``fork`` and threads otherwise, which mark in shared
    memory when they start and finish."""
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 3)
    started, finished = shared_counts(3), shared_counts(3)

    def task(name, delay=0.0, error=None, after=None):
        def run():
            started[name] = 1
            if after is not None:
                wait_for(lambda: started[after])
            time.sleep(delay)
            finished[name] = 1
            if error is not None:
                raise error
            return name

        return run

    tasks = [task(0), task(1), task(2)]
    assert estimators._run_chunks(tasks, estimators._StopFlag(), fork) == [0, 1, 2]
    # the caller's chunk succeeds: the earliest failing chunk wins, not the
    # first to fail
    finished[:] = 0
    with pytest.raises(ValueError, match="second chunk"):
        estimators._run_chunks([
            task(0), task(1, 0.2, ValueError("second chunk")), task(2, 0.0, KeyError("third")),
        ], estimators._StopFlag(), fork)
    assert finished.tolist() == [1, 1, 1]
    # the caller's chunk fails once the worker's has started: the caller
    # still waits for it
    started[:] = finished[:] = 0
    with pytest.raises(RuntimeError, match="first chunk"):
        estimators._run_chunks(
            [task(0, 0.0, RuntimeError("first chunk"), after=1), task(1, 0.2)],
            estimators._StopFlag(),
            fork,
        )
    assert finished[:2].tolist() == [1, 1]
    assert_no_child_process()


@needs_fork
def test_run_chunks_raises_the_first_failure_once_every_chunk_finished(monkeypatch):
    assert_the_first_failure_wins(monkeypatch, True)


def test_threaded_chunks_raise_the_first_failure_once_every_chunk_finished(monkeypatch):
    # the same tasks on a caller that cannot fork, whose workers are threads
    monkeypatch.delattr(os, "fork", raising=False)
    assert_the_first_failure_wins(monkeypatch, False)


def timed_out(signum, frame):
    raise TimeoutError("the call is still waiting for its worker")


@on_either_worker([RuntimeError("caller's chunk"), KeyboardInterrupt()])
@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_worker_with_a_large_result_ends_when_its_caller_leaves(monkeypatch, fork, error):
    # the worker's result, 1 MiB, overflows its pipe's buffer, so the worker
    # writes until its caller reads.  The caller's task raises once the
    # worker's has returned, without reading: the caller closes its read
    # end, the worker's write fails, and the call returns with no worker
    # left, a thread's failed write raising nowhere
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    returned, workers, threads = shared_counts(1), [], threading.active_count()
    os_fork = getattr(os, "fork", None)

    def recorded_fork():
        workers.append(os_fork())
        return workers[-1]

    def callers_task():
        wait_for(lambda: returned[0])
        time.sleep(0.05)  # the worker is now writing its result
        raise error

    def workers_task():
        returned[0] = 1
        return bytes(2**20)

    if fork:
        monkeypatch.setattr(os, "fork", recorded_fork)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        with pytest.raises(type(error)) as caught:
            estimators._run_chunks([callers_task, workers_task], estimators._StopFlag(), fork)
    except TimeoutError:
        for pid in workers:  # a worker stuck in its write would outlive the tests
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert caught.value is error
    assert threading.active_count() == threads
    assert_no_child_process()


@needs_fork
def test_escape_in_a_split_ensemble_matches_the_serial_error(monkeypatch):
    # an inverted quartic ejects the packet; with the ensemble split, the
    # error surfaces only once no chunk is stepping any more
    h_ref = hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0, 0, 0, 0, -0.25))
    h_prime = hamiltonian_1d(quadratic_kinetic(1.0), polynomial_term(0, 0, 0.05, 0, -0.25))
    pair = make_pair(h_ref, h_prime)
    state = InitialState.gaussian([3.0], [0.0], [0.5])
    cfg = config(n_traj=100_000, tau=0.5, n_steps=400)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 1)
    with pytest.raises(TrajectoryEscapeError) as serial:
        f1_dr(state, pair, cfg)

    # drifts running in the caller and in the worker, and the worker's drifts
    caller, counts = os.getpid(), shared_counts(3)

    def lagging_drift(*args):
        worker = int(os.getpid() != caller)
        counts[worker] += 1
        try:
            if worker:
                counts[2] += 1
                time.sleep(0.02)  # the worker's chunk lags behind the caller's
            return drift(*args)
        finally:
            counts[worker] -= 1

    monkeypatch.setattr(estimators, "drift", lagging_drift)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    with pytest.raises(TrajectoryEscapeError) as split:
        f1_dr(state, pair, cfg)
    # no chunk is still stepping when the error surfaces
    assert counts[2] and counts[:2].tolist() == [0, 0], counts
    assert str(split.value) == str(serial.value)


def track_chunk_starts(monkeypatch):
    """Patch the chunk driver to count, in every process, the chunks that
    start, in slot 2 * (in the caller) + (the stop flag was already set);
    return the shared counts."""
    starts, chunk_moments, caller = shared_counts(4), estimators._chunk_moments, os.getpid()

    def tracked(steps, batch_starts, counts, stop):
        starts[2 * (os.getpid() == caller) + stop.is_set()] += 1
        return chunk_moments(steps, batch_starts, counts, stop)

    monkeypatch.setattr(estimators, "_chunk_moments", tracked)
    return starts


@needs_fork
@pytest.mark.parametrize("error", [TrajectoryEscapeError("caller's chunk"), KeyboardInterrupt()])
def test_a_failing_chunk_stops_the_other_chunks(monkeypatch, error):
    # four chunks on two CPUs: the caller works chunks 0 and 1, its worker
    # chunks 2 and 3.  Chunk 0 raises at its 3rd step once chunk 2 is
    # stepping; chunk 2 waits for that, then takes 1 ms a step, and must stop
    # long before its 2000th, and neither chunk 1 nor chunk 3 may start.
    # shared: chunk 2 is stepping, chunk 0 raised, chunk 2's steps, and
    # those of its steps that waited for the raise in vain
    caller, shared, caller_steps = os.getpid(), shared_counts(4), []

    def failing_check_escape(q, p, work):
        if os.getpid() == caller:
            caller_steps.append(None)
            if len(caller_steps) == 3:
                wait_for(lambda: shared[0])
                shared[1] = 1
                raise error
        else:
            shared[0] = 1
            shared[3] += not wait_for(lambda: shared[1])
            shared[2] += 1
            time.sleep(1e-3)

    monkeypatch.setattr(estimators, "check_escape", failing_check_escape)
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    chunk_starts = track_chunk_starts(monkeypatch)
    sc = load("cubic_perturbation")
    with pytest.raises(type(error)) as caught:
        f1_dr(sc.state, sc.pair, config(n_traj=4000, tau=sc.tau, n_steps=2000))
    assert caught.value is error
    assert shared[3] == 0 and 0 < shared[2] < 100, shared
    # one chunk started in each process, both before the stop
    assert chunk_starts.tolist() == [1, 0, 1, 0], chunk_starts


@needs_fork
@pytest.mark.parametrize("interrupt", ["sigint", "interrupt_main"])
def test_an_interrupt_after_the_callers_chunk_stops_the_other_chunks(monkeypatch, interrupt):
    # four chunks on two CPUs: the caller works chunks 0 and 1, its worker
    # chunks 2 and 3.  Chunk 2 holds its first step until the caller has run
    # all 2000 steps of both its chunks and returned, and the caller, now
    # waiting for its worker, is interrupted: by a SIGINT to the caller and
    # the worker, as Ctrl-C sends one to the process group, or by
    # _thread.interrupt_main() from a thread of the caller, as IDLE does,
    # which only sets Python's flag and so is seen only between the caller's
    # timed waits.  At 1 ms a step chunk 2 must stop long before its 2000th,
    # and chunk 3 may not start.  shared: the caller is done, chunk 2 may
    # go on, chunk 2's steps, and the worker is done
    caller, shared, interrupter = os.getpid(), shared_counts(4), []
    run_in_order = estimators._run_in_order

    def interrupt_caller():
        if wait_for(lambda: shared[2]):
            _thread.interrupt_main()

    def marked_run_in_order(tasks, stop):
        if os.getpid() == caller:
            results = run_in_order(tasks, stop)
            shared[0] = 1
            if interrupt == "interrupt_main":
                interrupter.append(threading.Thread(target=interrupt_caller))
                interrupter[0].start()
            return results
        try:
            return run_in_order(tasks, stop)
        finally:
            shared[3] = 1

    def slow_worker_check_escape(q, p, work):
        if os.getpid() != caller:
            if wait_for(lambda: shared[0]) and not shared[2] and interrupt == "sigint":
                os.kill(caller, signal.SIGINT)
                os.kill(os.getpid(), signal.SIGINT)  # which a worker ignores
            shared[2] += 1
            time.sleep(1e-3)

    monkeypatch.setattr(estimators, "_run_in_order", marked_run_in_order)
    monkeypatch.setattr(estimators, "check_escape", slow_worker_check_escape)
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    chunk_starts = track_chunk_starts(monkeypatch)
    sc = load("cubic_perturbation")
    try:
        with pytest.raises(KeyboardInterrupt):
            f1_dr(sc.state, sc.pair, config(n_traj=4000, tau=sc.tau, n_steps=2000))
    finally:
        for thread in interrupter:
            thread.join(timeout=60)
    # the worker ended and was reaped before the interrupt surfaced
    assert shared[0] == 1 and shared[3] == 1, shared
    assert 0 < shared[2] < 100, shared
    assert chunk_starts.tolist() == [1, 0, 2, 0], chunk_starts
    assert_no_child_process()


@needs_fork
def test_no_worker_outlives_a_call(monkeypatch):
    # four chunks on two CPUs: after a success, after the worker's chunk
    # raises at its 3rd step, and after the worker interrupts the caller
    # at its 3rd step, no child process is left to reap
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    sc = load("cubic_perturbation")
    cfg = config(n_traj=4000, tau=sc.tau, n_steps=50)
    caller, steps, fault = os.getpid(), shared_counts(1), []

    def faulty_check_escape(q, p, work):
        check_escape(q, p, work)
        if os.getpid() != caller and fault:
            steps[0] += 1
            if steps[0] == 3:
                if fault[0] == "escape":
                    raise TrajectoryEscapeError("worker's chunk")
                os.kill(caller, signal.SIGINT)

    monkeypatch.setattr(estimators, "check_escape", faulty_check_escape)
    assert_no_child_process()
    f1_dr(sc.state, sc.pair, cfg)
    assert_no_child_process()
    fault.append("escape")
    with pytest.raises(TrajectoryEscapeError, match="worker's chunk"):
        f1_dr(sc.state, sc.pair, cfg)
    assert_no_child_process()
    fault[0], steps[0] = "interrupt", 0
    with pytest.raises(KeyboardInterrupt):
        f1_dr(sc.state, sc.pair, replace(cfg, n_steps=2000))
    assert_no_child_process()


def no_fork():
    raise AssertionError("a caller with another thread alive forked")


@pytest.mark.parametrize("blocker", ["thread", "no_fork"])
def test_a_caller_that_cannot_fork_splits_its_chunks_over_threads(monkeypatch, blocker):
    # with another thread alive, or without os.fork, nothing is forked: two
    # chunks run on the caller's thread and two on one worker thread, and the
    # series keeps the serial bits
    monkeypatch.setattr(estimators, "_CHUNK_TRAJ", 1000)
    sc = load("cubic_perturbation")
    cfg = config(n_traj=4000, tau=sc.tau, n_steps=20)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 1)
    serial = f2_mc(sc.state, sc.pair, cfg)
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)
    chunk_threads, chunk_moments = [], estimators._chunk_moments

    def tracked(*args):
        chunk_threads.append(threading.get_ident())
        return chunk_moments(*args)

    monkeypatch.setattr(estimators, "_chunk_moments", tracked)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if blocker == "thread":
        monkeypatch.setattr(os, "fork", no_fork)
        other.start()
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    try:
        split = f2_mc(sc.state, sc.pair, cfg)
    finally:
        release.set()
        if other.is_alive():
            other.join()
    assert chunk_threads.count(threading.get_ident()) == 2, chunk_threads
    assert len(chunk_threads) == 4 and len(set(chunk_threads)) == 2, chunk_threads
    assert split.values.tobytes() == serial.values.tobytes()
    assert split.stderr.tobytes() == serial.stderr.tobytes()


class _TwoArgumentError(Exception):
    # pickles, but unpickling calls it with one argument and fails
    def __init__(self, what, detail):
        super().__init__(f"{what}: {detail}")


class _LockedError(Exception):
    # holds a lock, which does not pickle
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@on_either_worker([_TwoArgumentError("lost", "detail"), _LockedError("locked")])
def test_an_unpicklable_worker_exception_keeps_its_type_name_and_message(monkeypatch, fork, error):
    # a thread's exception, too, reaches the caller through a pickle
    monkeypatch.setattr(estimators, "_available_cpus", lambda: 2)

    def fail():
        raise error

    with pytest.raises(RuntimeError) as caught:
        estimators._run_chunks([lambda: 0, fail], estimators._StopFlag(), fork)
    assert str(caught.value) == f"{type(error).__name__}: {error}"
    assert_no_child_process()


# ---------------------------------------------------------------------------
# second order, closed form


def test_chain_zero_perturbation_is_one():
    series = f2_gaussian_chain(STD_GAUSSIAN, zero_pair(), config(n_steps=30))
    np.testing.assert_allclose(series.values, 1.0, atol=1e-12)


def test_chain_single_step_against_quadrature():
    # one step: f2(tau) = (1/h) iint rho_W(x0) exp(-i tau dV(q0 + tau p0)) dx0
    sc = load("ho_diff_k")
    cfg = config(tau=sc.tau, n_steps=1)
    series = f2_gaussian_chain(sc.state, sc.pair, cfg)
    q = np.linspace(-9, 9, 1501)
    p = np.linspace(-9, 9, 1501)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    rho = wigner_density(sc.state, qq[..., None], pp[..., None])
    q1 = qq + cfg.tau * pp
    integrand = rho * np.exp(-1j * cfg.tau * 0.105 * q1**2)
    val = np.trapezoid(np.trapezoid(integrand, p, axis=1), q) / (2 * np.pi)
    assert series.values[1] == pytest.approx(val, abs=1e-8)


def test_chain_matches_exact_on_diff_k():
    sc = load("ho_diff_k")
    cfg = config(tau=sc.tau, n_steps=sc.n_steps)
    exact = fidelity_exact(sc.state, sc.pair, sc.n_steps, sc.tau)
    series = f2_gaussian_chain(sc.state, sc.pair, cfg)
    assert np.max(np.abs(series.values - exact.values)) < 1e-6
    assert np.all(series.stderr == 0.0)


def test_chain_degenerate_branch_matches_exact_on_displaced_ho():
    sc = load("displaced_ho")
    cfg = config(tau=sc.tau, n_steps=150)
    exact = fidelity_exact(sc.state, sc.pair, cfg.n_steps, sc.tau)
    series = f2_gaussian_chain(sc.state, sc.pair, cfg)
    assert series.meta["degenerate_chain"] is True
    assert np.max(np.abs(series.values - exact.values)) < 1e-6


def test_chain_agrees_with_monte_carlo_within_errors():
    sc = load("ho_diff_k")
    cfg = config(n_traj=50000, tau=sc.tau, n_steps=50, seed=11)
    chain = f2_gaussian_chain(sc.state, sc.pair, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # unit path weights: no ESS warning
        mc = f2_mc(sc.state, sc.pair, cfg)
    assert np.all(np.abs(chain.values - mc.values) <= 3 * mc.stderr)


def test_chain_preconditions():
    cfg = config(n_traj=10)
    with pytest.raises(ValueError, match="degree"):
        f2_gaussian_chain(STD_GAUSSIAN, load("cubic_perturbation").pair, cfg)
    kicked = make_pair(
        hamiltonian_1d(quadratic_kinetic(1.0), cosine_potential(4.95)),
        hamiltonian_1d(quadratic_kinetic(1.0), cosine_potential(5.05)),
    )
    with pytest.raises(ValueError, match="polynomial"):
        f2_gaussian_chain(STD_GAUSSIAN, kicked, cfg)


@pytest.mark.parametrize(
    "name, n_steps, bound",
    [
        ("ho_diff_k", 200, 1e-11),
        ("displaced_ho", 500, 1e-12),
        ("ho_diff_k", 1000, 1e-10),
    ],
)
def test_chain_error_against_exact_stays_flat_in_n(name, n_steps, bound):
    # the forward pass carries one 2x2 Gaussian, so rounding must not grow
    # like a dense N x N form; N = 1000 also checks that the square-root
    # branch stays continuous over a long run
    sc = load(name)
    cfg = config(tau=sc.tau, n_steps=n_steps)
    exact = fidelity_exact(sc.state, sc.pair, n_steps, sc.tau)
    series = f2_gaussian_chain(sc.state, sc.pair, cfg)
    assert series.meta["degenerate_chain"] is (name == "displaced_ho")
    assert np.max(np.abs(series.values - exact.values)) <= bound
    assert 0.0 < series.meta["chain_min_pivot_ratio"] <= 1.0


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
def test_chain_near_degenerate_curvature_takes_the_fresnel_step(eps):
    # displaced wells plus a tiny curvature difference: the Fresnel step is
    # decided by d2 != 0 exactly, so a small d2 costs no accuracy
    sc = load("displaced_ho")
    pair = make_pair(
        hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0, center=0.5)),
        hamiltonian_1d(
            quadratic_kinetic(1.0),
            harmonic_potential(1.0, center=-0.5) + polynomial_term(0.0, 0.0, eps / 2),
        ),
    )
    cfg = config(tau=sc.tau, n_steps=500)
    exact = fidelity_exact(sc.state, pair, cfg.n_steps, sc.tau)
    series = f2_gaussian_chain(sc.state, pair, cfg)
    assert series.meta["degenerate_chain"] is False
    assert np.max(np.abs(series.values - exact.values)) <= 5e-12


def test_chain_singular_pivot_names_step_and_remedy():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(
        SingularExponentError,
        match=r"step 7: pivot ratio 0\.000e\+00 .*change tau or the initial width",
    ):
        _integrate_out(a, np.zeros(2, dtype=complex), 0.0, 1, 7)


def test_chain_rejects_extremely_squeezed_state():
    # widths 1e-7 and 1e7 in q and p leave no usable pivot after one drift
    squeezed = InitialState.gaussian([0.0], [0.0], [1e-7])
    with pytest.raises(SingularExponentError, match="step 1"):
        f2_gaussian_chain(squeezed, load("ho_diff_k").pair, config(n_steps=5))


KIN = quadratic_kinetic(1.0)


@pytest.mark.parametrize(
    "state, pair",
    [
        pytest.param(
            InitialState.gaussian([0.3, -0.2], [0.1, 0.2], [1.0, 0.9]),
            make_pair(
                SeparableHamiltonian(
                    (KIN, quadratic_kinetic(0.8)), (harmonic_potential(1.0), harmonic_potential(1.3, 0.2))
                ),
                SeparableHamiltonian(
                    (KIN, quadratic_kinetic(0.8)), (harmonic_potential(1.44), harmonic_potential(0.9, -0.1))
                ),
            ),
            id="product_2d",
        ),
        pytest.param(
            InitialState.gaussian([0.0, 0.3], [0.0, 0.0], [1.0, 1.0]),
            make_pair(
                SeparableHamiltonian(
                    (KIN, KIN), (polynomial_term(0.0, 0.0, 0.5, -0.025), harmonic_potential(1.0))
                ),
                SeparableHamiltonian(
                    (KIN, KIN), (polynomial_term(0.0, 0.0, 0.5, 0.025), harmonic_potential(1.44))
                ),
            ),
            id="cubic_times_quadratic_2d",  # the cubic_perturbation preset on axis 0
        ),
        pytest.param(
            InitialState((
                GaussianComponent([0.5], [0.0], [1.0], 0.4),
                GaussianComponent([-0.5], [0.5], [0.9], 0.6),
            )),
            load("ho_diff_k").pair,
            id="mixture",
        ),
    ],
)
def test_second_order_per_coordinate_and_component(state, pair):
    # separable pairs and product states: the chain is a weighted sum of
    # products of 1-D chains and the thimble smears each coordinate, so both
    # are exact wherever the ladder says so
    cfg = config(n_traj=20000, n_steps=100, seed=1)
    exact = fidelity_exact(state, pair, cfg.n_steps, cfg.tau, grid=wide_grid(state, 4096))
    assert np.max(np.abs(exact.values - 1.0)) > 0.1  # the perturbation acts
    mc = f2_mc(state, pair, cfg)
    assert mc.meta["f2_contour"] == "thimble"
    assert np.all(np.abs(mc.values - exact.values) <= 5 * mc.stderr)
    if predicted_exactness(pair)["f2_gaussian"] == EXACT:
        chain = f2_gaussian_chain(state, pair, cfg)
        assert np.max(np.abs(chain.values - exact.values)) <= 1e-9


def f2_mc_before_divergence(state, pair, cfg):
    """``f2_mc``, or where its guard fires at step n, ``f2_mc`` over the
    n - 1 steps before, which are the first steps of the full run."""
    try:
        return f2_mc(state, pair, cfg)
    except ThimbleDivergenceError as exc:
        step = int(re.search(r"at step (\d+) ", str(exc)).group(1))
    return f2_mc(state, pair, replace(cfg, n_steps=step - 1))


@st.composite
def quadratic_systems(draw):
    """Two harmonic Hamiltonians with shared masses in one or two
    coordinates, and a state drawn by ``gaussian_mixtures``."""
    unit = st.floats(0.7, 1.4)
    centre = st.floats(-1.0, 1.0)
    dims = draw(st.integers(1, 2))
    kin = tuple(quadratic_kinetic(draw(unit)) for _ in range(dims))
    h_a, h_b = (
        SeparableHamiltonian(
            kin, tuple(harmonic_potential(draw(unit), draw(centre)) for _ in range(dims))
        )
        for _ in range(2)
    )
    return draw(gaussian_mixtures(dims)), h_a, h_b


@settings(max_examples=25, deadline=None)
@given(system=quadratic_systems())
def test_chain_invariants_on_random_quadratic_pairs(system):
    state, h_a, h_b = system
    cfg = config(n_traj=1, n_steps=100)
    # packets that move need more room than the default 8-sigma grid
    grid = wide_grid(state, 4096)
    for est in (f2_gaussian_chain, partial(exact_series, grid=grid)):
        f = est(state, make_pair(h_a, h_b), cfg).values
        swapped = est(state, make_pair(h_b, h_a), cfg).values
        assert f[0] == 1.0
        assert np.all(np.abs(f) <= 1.0 + 1e-12)
        assert np.max(np.abs(swapped - np.conj(f))) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(system=quadratic_systems())
def test_thimble_matches_chain_on_random_quadratic_pairs(system):
    # both evaluate the same second-order integral: the Monte Carlo thimble
    # must lie within 5 of its standard errors of the closed form, up to the
    # step where its guard finds a standard error above 1
    state, h_a, h_b = system
    pair = make_pair(h_a, h_b)
    cfg = config(n_traj=20000, n_steps=100)
    chain = f2_gaussian_chain(state, pair, cfg)
    mc = f2_mc_before_divergence(state, pair, cfg)
    assert mc.meta["f2_contour"] == "thimble"
    n = len(mc.values)
    assert np.all(np.abs(mc.values - chain.values[:n]) <= 5 * mc.stderr + 1e-12)


@settings(max_examples=4, deadline=None)
@given(system=quadratic_systems())
def test_chain_matches_exact_on_random_quadratic_pairs(system):
    state, h_a, h_b = system
    pair = make_pair(h_a, h_b)
    cfg = config(n_traj=1, n_steps=60)
    # packets that move need more room than the default 8-sigma grid
    exact = fidelity_exact(state, pair, 60, cfg.tau, grid=wide_grid(state, 4096))
    chain = f2_gaussian_chain(state, pair, cfg)
    assert np.max(np.abs(chain.values - exact.values)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(system=quadratic_systems())
def test_f0_f1_invariants_on_random_quadratic_pairs(system):
    # f2_mc's guard, if it fires, fires on both pairs at the same step
    state, h_a, h_b = system
    cfg = config(n_traj=500, n_steps=100)
    for est in (f0, f1_dr, f2_mc_before_divergence):
        f = est(state, make_pair(h_a, h_b), cfg).values
        swapped = est(state, make_pair(h_b, h_a), cfg).values
        assert f[0] == 1.0
        # a mean of unit phasors; the thimble's complex orbits give phasors
        # of any modulus
        assert est is f2_mc_before_divergence or np.all(np.abs(f) <= 1.0 + 1e-12)
        assert np.max(np.abs(swapped - np.conj(f))) <= 1e-15


# ---------------------------------------------------------------------------
# cross-estimator sanity


def test_hbar_handled_consistently_everywhere():
    # dephasing representation stays exact for displaced wells at hbar != 1,
    # which cross-checks the hbar conventions of sampler, phases and grid
    hbar = 0.5
    kin = quadratic_kinetic(1.0)
    pair = make_pair(
        hamiltonian_1d(kin, harmonic_potential(1.0, +0.5)),
        hamiltonian_1d(kin, harmonic_potential(1.0, -0.5)),
    )
    state = InitialState.gaussian([0.5], [0.0], [np.sqrt(hbar)])
    exact = fidelity_exact(state, pair, 120, 0.05, hbar=hbar)
    cfg = EstimatorConfig(n_traj=20000, seed=7, tau=0.05, n_steps=120, hbar=hbar)
    dr = f1_dr(state, pair, cfg)
    assert np.all(np.abs(dr.values - exact.values) <= 3 * dr.stderr + 1e-6)
    chain = f2_gaussian_chain(state, pair, cfg)
    assert np.max(np.abs(chain.values - exact.values)) < 1e-9


def test_chain_with_linear_terms_matches_exact():
    # asymmetric wells and a tilted kinetic term exercise every linear
    # coefficient of the closed-form assembly
    state = InitialState.gaussian([0.2], [0.1], [1.0])
    cfg = config(n_traj=100, n_steps=100)
    kin = quadratic_kinetic(1.0)
    asymmetric = make_pair(
        hamiltonian_1d(kin, harmonic_potential(1.0, 0.0)),
        hamiltonian_1d(kin, harmonic_potential(1.21, -0.7)),
    )
    tilted = make_pair(
        hamiltonian_1d(polynomial_term(0.0, 0.3, 0.5), harmonic_potential(1.0)),
        hamiltonian_1d(polynomial_term(0.0, 0.3, 0.5), harmonic_potential(1.21)),
    )
    for pair in (asymmetric, tilted):
        exact = fidelity_exact(state, pair, 100, cfg.tau)
        chain = f2_gaussian_chain(state, pair, cfg)
        assert np.max(np.abs(chain.values - exact.values)) < 1e-8


def test_two_dimensional_mixture_f1_matches_grid():
    # non-product mixed state in two dimensions against the 2D grid oracle
    pair = displaced_ho_pair(dims=2)
    state = InitialState(
        (
            GaussianComponent([0.5, 0.3], [0.0, 0.2], [1.0, 1.0], 0.6),
            GaussianComponent([-0.2, 0.8], [0.3, 0.0], [0.9, 1.1], 0.4),
        )
    )
    exact = fidelity_exact(state, pair, 60, 0.05, points=256)
    cfg = config(n_traj=20000, n_steps=60)
    series = f1_dr(state, pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-6)


def test_momentum_displacement_variant_exact_for_f0_f1():
    # perturbation in momentum only (delta H = p): both low orders stay exact
    state = InitialState.gaussian([0.2], [0.1], [1.0])
    pair = make_pair(
        hamiltonian_1d(polynomial_term(0.0, -0.5), ZERO_TERM),
        hamiltonian_1d(polynomial_term(0.0, +0.5), ZERO_TERM),
    )
    # constant drift moves the packet, so pad the grid beyond the 8-sigma rule
    exact = fidelity_exact(state, pair, 150, 0.05, grid=wide_grid(state, 4096))
    cfg = config(n_traj=30000, n_steps=150)
    series = f1_dr(state, pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-8)
    assert np.max(np.abs(f0(state, pair, cfg).values - exact.values)) <= 1e-12


def test_all_estimators_start_at_unity():
    sc = load("ho_diff_k")
    cfg = config(n_traj=2000, tau=sc.tau, n_steps=10)
    runs = [
        f0(sc.state, sc.pair, cfg),
        f1_dr(sc.state, sc.pair, cfg),
        f2_mc(sc.state, sc.pair, cfg),
        f2_gaussian_chain(sc.state, sc.pair, cfg),
        fidelity_exact(sc.state, sc.pair, 10, sc.tau),
    ]
    for series in runs:
        assert series.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert series.stderr[0] == 0.0
