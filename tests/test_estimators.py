import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loschmidt.estimators import (
    EstimatorConfig,
    FidelitySeries,
    SingularExponentError,
    _integrate_out,
    f0,
    f1_dr,
    f2_gaussian_chain,
    f2_mc,
)
from loschmidt.hamiltonians import (
    ZERO_TERM,
    cosine_potential,
    hamiltonian_1d,
    harmonic_potential,
    make_pair,
    polynomial_term,
    quadratic_kinetic,
)
from loschmidt.presets import displaced_ho_pair, load
from loschmidt.qgrid import fidelity_exact
from loschmidt.states import GaussianComponent, InitialState, sample, wigner_density

STD_GAUSSIAN = InitialState.gaussian([0.0], [0.0], [1.0])


def config(**kw):
    base = dict(n_traj=20000, seed=7, tau=0.05, n_steps=40, hbar=1.0)
    base.update(kw)
    return EstimatorConfig(**base)


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
    with pytest.raises(ValueError, match="tau"):
        config(tau=-0.1)
    with pytest.raises(ValueError, match="seed"):
        config(seed=-1)


def test_series_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        FidelitySeries(np.arange(3.0), np.ones(2, complex), np.zeros(3))


# ---------------------------------------------------------------------------
# zeroth order


def test_f0_zero_perturbation_short_circuits():
    series = f0(STD_GAUSSIAN, zero_pair(), config())
    assert np.all(series.values == 1.0 + 0.0j)
    assert np.all(series.stderr == 0.0)


def test_f0_linear_perturbation_matches_gaussian_characteristic_function():
    # delta H = q over the standard packet: f0(t) = exp(-t^2/4), 0.77880 at t=1
    pair = gradient_pair(1.0)
    cfg = config(n_traj=200000, n_steps=20)
    series = f0(STD_GAUSSIAN, pair, cfg)
    analytic = np.exp(-series.times**2 / 4.0)
    assert analytic[20] == pytest.approx(0.7788007830714049, abs=1e-12)
    assert np.all(np.abs(series.values - analytic) <= 4 * series.stderr + 1e-12)

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
    cfg = config(n_traj=50000, tau=sc.tau, n_steps=100, seed=11)
    exact = fidelity_exact(sc.state, sc.pair, 100, sc.tau)
    series = f0(sc.state, sc.pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-8)


def test_f0_exact_for_mixed_state_on_linear_gradient():
    pair = gradient_pair(1.0)
    state = InitialState(
        (
            GaussianComponent([-1.0], [0.3], [0.8], 0.5),
            GaussianComponent([+1.5], [-0.2], [1.2], 0.5),
        )
    )
    cfg = config(n_traj=50000, n_steps=100, seed=3)
    exact = fidelity_exact(state, pair, 100, cfg.tau)
    series = f0(state, pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-8)


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
    sc = load("ho_diff_k")
    cfg = config(n_traj=4000, tau=sc.tau, n_steps=60)
    for est in (f0, f1_dr):
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


# ---------------------------------------------------------------------------
# second order, Monte Carlo


def test_f2_mc_reduces_to_f1_for_linear_perturbation():
    # linear delta V: every step takes the degenerate branch, so paths,
    # phases and reductions coincide with the dephasing representation.
    # The same holds for a nonzero curvature a_n held below the threshold:
    # both estimators then run one orbit loop with the classical kick.
    cases = [
        ("displaced_ho", 1e-10),
        ("cubic_perturbation", 1e300),
        ("morse_like", 1e300),
    ]
    for name, threshold in cases:
        sc = load(name)
        cfg = config(n_traj=3000, tau=sc.tau, n_steps=100, degenerate_a_threshold=threshold)
        dr = f1_dr(sc.state, sc.pair, cfg)
        mc = f2_mc(sc.state, sc.pair, cfg)
        assert np.array_equal(mc.values, dr.values), name


def test_f2_mc_zero_steps():
    series = f2_mc(STD_GAUSSIAN, zero_pair(), config(n_traj=100, n_steps=0))
    assert series.values[0] == 1.0 + 0.0j and len(series) == 1


def test_f2_mc_matches_exact_on_diff_k():
    sc = load("ho_diff_k")
    cfg = config(n_traj=50000, tau=sc.tau, n_steps=50, seed=11)
    exact = fidelity_exact(sc.state, sc.pair, cfg.n_steps, sc.tau)
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        series = f2_mc(sc.state, sc.pair, cfg)
    assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr)
    # the estimator is informative (not vacuous) at early times, before the
    # complex weights disperse
    assert series.stderr[1] < 1e-3
    assert np.median(series.stderr[:10]) < 0.1


def test_f2_mc_preconditions():
    cfg = config(n_traj=10)
    with pytest.raises(ValueError, match="one degree of freedom"):
        f2_mc(
            InitialState.gaussian([0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
            displaced_ho_pair(dims=2),
            cfg,
        )
    # momentum-dependent perturbation
    pair = make_pair(
        hamiltonian_1d(quadratic_kinetic(1.0), harmonic_potential(1.0)),
        hamiltonian_1d(quadratic_kinetic(2.0), harmonic_potential(1.0)),
    )
    with pytest.raises(ValueError, match="momentum independent"):
        f2_mc(STD_GAUSSIAN, pair, cfg)


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
    with pytest.warns(RuntimeWarning):
        mc = f2_mc(sc.state, sc.pair, cfg)
    assert np.all(np.abs(chain.values - mc.values) <= 3 * mc.stderr)


def test_chain_preconditions():
    cfg = config(n_traj=10)
    mixture = InitialState(
        (
            GaussianComponent([0.0], [0.0], [1.0], 0.5),
            GaussianComponent([1.0], [0.0], [1.0], 0.5),
        )
    )
    with pytest.raises(ValueError, match="single Gaussian"):
        f2_gaussian_chain(mixture, load("ho_diff_k").pair, cfg)
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


def test_chain_singular_pivot_names_step_and_remedy():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(
        SingularExponentError,
        match=r"step 7: pivot ratio 0\.000e\+00 .*change tau or degenerate_a_threshold",
    ):
        _integrate_out(a, np.zeros(2, dtype=complex), 0.0, 1, 7)


def test_chain_rejects_extremely_squeezed_state():
    # widths 1e-7 and 1e7 in q and p leave no usable pivot after one drift
    squeezed = InitialState.gaussian([0.0], [0.0], [1e-7])
    with pytest.raises(SingularExponentError, match="step 1"):
        f2_gaussian_chain(squeezed, load("ho_diff_k").pair, config(n_steps=5))


@st.composite
def quadratic_systems(draw):
    unit = st.floats(0.7, 1.4)
    centre = st.floats(-1.0, 1.0)
    kin = quadratic_kinetic(draw(unit))
    h_a = hamiltonian_1d(kin, harmonic_potential(draw(unit), draw(centre)))
    h_b = hamiltonian_1d(kin, harmonic_potential(draw(unit), draw(centre)))
    state = InitialState.gaussian(
        [draw(centre)], [draw(centre)], [draw(st.floats(0.8, 1.25))]
    )
    return state, h_a, h_b


@settings(max_examples=25, deadline=None)
@given(system=quadratic_systems())
def test_chain_invariants_on_random_quadratic_pairs(system):
    state, h_a, h_b = system
    cfg = config(n_traj=1, n_steps=100)
    f = f2_gaussian_chain(state, make_pair(h_a, h_b), cfg).values
    swapped = f2_gaussian_chain(state, make_pair(h_b, h_a), cfg).values
    assert f[0] == 1.0
    assert np.all(np.abs(f) <= 1.0 + 1e-12)
    assert np.max(np.abs(swapped - np.conj(f))) <= 1e-12


@settings(max_examples=4, deadline=None)
@given(system=quadratic_systems())
def test_chain_matches_exact_on_random_quadratic_pairs(system):
    state, h_a, h_b = system
    pair = make_pair(h_a, h_b)
    cfg = config(n_traj=1, n_steps=60)
    # packets that move need more room than the default 8-sigma grid
    exact = fidelity_exact(state, pair, 60, cfg.tau, pad_sigmas=16.0)
    chain = f2_gaussian_chain(state, pair, cfg)
    assert np.max(np.abs(chain.values - exact.values)) <= 1e-9


@pytest.mark.parametrize(
    "name, n_traj, seed, bound",
    [
        pytest.param("cubic_perturbation", 4000, 3, 1e-13, id="cubic_perturbation"),
        pytest.param("morse_like", 4000, 3, 1e-13, id="morse_like"),
    ]
    # one trajectory: no averaging hides the rounding of the products, which
    # reaches about 5e-14 by N = 1000 without the re-anchor
    + [
        pytest.param(name, 1, seed, 2e-14, id=f"{name}-one_traj-seed{seed}")
        for name in ("cubic_perturbation", "morse_like", "kicked_rotor")
        for seed in range(1, 6)
    ],
)
def test_f0_recurrence_tracks_direct_phasors(name, n_traj, seed, bound):
    # f0 multiplies its phasors by one step's factor and recomputes them every
    # 64 steps; the reference recomputes exp(-i t dH / hbar) at every step
    sc = load(name)
    cfg = config(n_traj=n_traj, tau=sc.tau, n_steps=1000, seed=seed)
    series = f0(sc.state, sc.pair, cfg)
    q, p = sample(sc.state, cfg.n_traj, cfg.seed, cfg.hbar)
    phi = sc.pair.delta.value(q, p)
    direct = np.array([np.exp(-1j * t / cfg.hbar * phi).mean() for t in cfg.times])
    assert np.max(np.abs(series.values - direct)) <= bound


@settings(max_examples=25, deadline=None)
@given(system=quadratic_systems())
def test_f0_f1_invariants_on_random_quadratic_pairs(system):
    state, h_a, h_b = system
    cfg = config(n_traj=500, n_steps=100)
    for est in (f0, f1_dr):
        f = est(state, make_pair(h_a, h_b), cfg).values
        swapped = est(state, make_pair(h_b, h_a), cfg).values
        assert f[0] == 1.0
        assert np.all(np.abs(f) <= 1.0 + 1e-12)
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
    exact = fidelity_exact(state, pair, 150, 0.05, pad_sigmas=16.0)
    cfg = config(n_traj=30000, n_steps=150)
    for est in (f0, f1_dr):
        series = est(state, pair, cfg)
        assert np.all(np.abs(series.values - exact.values) <= 3 * series.stderr + 1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
