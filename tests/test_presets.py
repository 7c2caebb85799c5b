import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loschmidt.dynamics import map_step
from loschmidt.estimators import EstimatorConfig, f1_dr
from loschmidt.hamiltonians import (
    CoordFunction,
    _exact_at,
    expansion_remainder,
    hamiltonian_1d,
    make_pair,
    predicted_exactness,
)
from loschmidt.presets import APPROXIMATE, EXACT, SCENARIO_NAMES, load
from loschmidt.qgrid import fidelity_exact
from loschmidt.states import sample

ESTIMATOR_ORDER = {"f0": 0, "f1": 1, "f2_mc": 2, "f2_gaussian": 2}
ORDERS = range(6)  # past order 4, where every polynomial pair here is exact


def _check_rule_against_remainder(pair, x, dx, context):
    """``_exact_at`` holds at an order iff the remainder there vanishes: below
    1e-12 where the rule says exact, above 1e-10 where it does not."""
    for order in ORDERS:
        rem = np.max(np.abs(expansion_remainder(pair, x, dx, order)))
        if _exact_at(pair, order):
            assert rem < 1e-12, (order, rem, context)
        else:
            assert rem > 1e-10, (order, rem, context)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_all_scenarios_load(name):
    sc = load(name)
    assert sc.name == name
    assert sc.pair.dims == sc.state.dims == 1
    assert sc.tau > 0 and sc.n_steps > 0 and sc.hbar > 0
    assert set(sc.exactness) == set(ESTIMATOR_ORDER)


def test_unknown_scenario():
    with pytest.raises(KeyError, match="unknown scenario"):
        load("harmonic_oscillator")


def test_displaced_ho_preset_matches_stated_algebra():
    sc = load("displaced_ho")
    assert sc.pair.delta.potential[0].coeffs == (0.0, 1.0)
    assert sc.pair.average.potential[0].coeffs == (0.125, 0.0, 0.5)
    assert sc.exactness["f1"] == EXACT
    assert sc.exactness["f0"] != EXACT
    # state is the unperturbed ground state
    assert sc.state.components[0].center_q[0] == 0.5
    assert sc.state.components[0].sigma[0] == 1.0


def test_ho_diff_k_preset_matches_stated_algebra():
    sc = load("ho_diff_k")
    np.testing.assert_allclose(sc.pair.delta.potential[0].coeffs, (0.0, 0.0, 0.105))
    np.testing.assert_allclose(sc.pair.average.potential[0].coeffs, (0.0, 0.0, 0.5525))
    assert sc.exactness["f2_mc"] == EXACT
    assert sc.exactness["f1"] != EXACT


def test_cubic_perturbation_preset():
    sc = load("cubic_perturbation")
    np.testing.assert_allclose(
        sc.pair.delta.potential[0].coeffs, (0.0, 0.0, 0.0, 0.05)
    )
    # average stays harmonic
    np.testing.assert_allclose(sc.pair.average.potential[0].coeffs, (0.0, 0.0, 0.5))
    assert sc.exactness["f2_mc"] == EXACT


def test_kicked_rotor_preset():
    sc = load("kicked_rotor")
    assert sc.periodic and sc.grid_extent == (0.0, 2.0 * np.pi)
    assert sc.pair.average.potential[0].cos_amp == pytest.approx(5.0)
    assert sc.pair.delta.potential[0].cos_amp == pytest.approx(0.05)
    assert sc.tau == 1.0 and sc.n_steps == 50


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_exactness_entries_consistent_with_remainder(name):
    # 'exact' prediction at order k requires a vanishing remainder at order k
    sc = load(name)
    rng = np.random.default_rng(8)
    for estimator, verdict in sc.exactness.items():
        order = ESTIMATOR_ORDER[estimator]
        rems = []
        for _ in range(6):
            x = (rng.normal(size=1), rng.normal(size=1))
            dx = (rng.normal(scale=0.5, size=1), rng.normal(scale=0.5, size=1))
            rems.append(abs(expansion_remainder(sc.pair, x, dx, order)))
        if verdict == EXACT:
            assert max(rems) < 1e-12, (estimator, name)
        else:
            # approximate verdicts must not accidentally be exact, except for
            # the closed-form chain whose extra precondition is structural
            if estimator != "f2_gaussian":
                assert max(rems) > 1e-10, (estimator, name)
    # and the rule behind the verdicts holds at every order
    x = (rng.normal(size=(6, 1)), rng.normal(size=(6, 1)))
    dx = (rng.normal(scale=0.5, size=(6, 1)), rng.normal(scale=0.5, size=(6, 1)))
    _check_rule_against_remainder(sc.pair, x, dx, name)


def test_derived_exactness_matches_the_recorded_ladder():
    # the exactness ladder of the presets, in the order f0, f1, f2_mc, f2_gaussian
    E, A = EXACT, APPROXIMATE
    recorded = {
        "linear_gradient": (E, E, E, E),
        "displaced_ho": (A, E, E, E),
        "ho_diff_k": (A, A, E, E),
        "cubic_perturbation": (A, A, E, A),
        "kicked_rotor": (A, A, A, A),
        "morse_like": (A, A, A, A),
    }
    assert set(recorded) == set(SCENARIO_NAMES)
    for name, verdicts in recorded.items():
        assert load(name).exactness == dict(zip(ESTIMATOR_ORDER, verdicts)), name


def test_morse_like_expansion_ends_at_order_four():
    # the quartic wells leave a remainder at order 3 and none at order 4
    pair = load("morse_like").pair
    assert not _exact_at(pair, 3) and _exact_at(pair, 4)
    rng = np.random.default_rng(5)
    x = (rng.normal(size=(16, 1)), rng.normal(size=(16, 1)))
    dx = (rng.normal(scale=0.5, size=(16, 1)), rng.normal(scale=0.5, size=(16, 1)))
    assert np.max(np.abs(expansion_remainder(pair, x, dx, 3))) > 1e-6
    assert np.max(np.abs(expansion_remainder(pair, x, dx, 4))) <= 1e-12


_NONZERO = st.one_of(st.floats(0.1, 2.0), st.floats(-2.0, -0.1))
_COEFF = st.one_of(st.just(0.0), _NONZERO)


@st.composite
def _hamiltonians(draw, cosine):
    """1-D Hamiltonian whose potential has degree 0-4 and whose kinetic term
    has at most that degree; with ``cosine`` either may carry a cosine."""
    degree = draw(st.integers(0, 4))
    pot = draw(st.lists(_COEFF, min_size=degree, max_size=degree)) + [draw(_NONZERO)]
    kin = draw(st.lists(_COEFF, min_size=1, max_size=degree + 1))
    kin_cos, pot_cos = draw(st.tuples(_COEFF, _COEFF)) if cosine else (0.0, 0.0)
    return hamiltonian_1d(CoordFunction(tuple(kin), kin_cos), CoordFunction(tuple(pot), pot_cos))


@st.composite
def _pairs(draw):
    """1-D pair from an average and a delta-H drawn directly."""
    cosine = draw(st.booleans())
    average, delta = draw(_hamiltonians(cosine)), draw(_hamiltonians(cosine))
    return make_pair(average - delta * 0.5, average + delta * 0.5)


@settings(max_examples=300, deadline=None)
@given(pair=_pairs())
def test_predicted_exactness_agrees_with_remainder_on_random_pairs(pair):
    rng = np.random.default_rng(8)
    x = (rng.normal(size=(16, 1)), rng.normal(size=(16, 1)))
    dx = (rng.normal(scale=0.5, size=(16, 1)), rng.normal(scale=0.5, size=(16, 1)))
    for estimator, verdict in predicted_exactness(pair).items():
        rem = np.max(np.abs(expansion_remainder(pair, x, dx, ESTIMATOR_ORDER[estimator])))
        if verdict == EXACT:
            assert rem < 1e-12, estimator
        elif estimator != "f2_gaussian":
            # the closed-form chain's extra precondition is structural
            assert rem > 1e-10, estimator
    _check_rule_against_remainder(pair, x, dx, "random pair")


@pytest.mark.parametrize("name", ["cubic_perturbation", "morse_like"])
def test_anharmonic_scenarios_stay_bounded(name):
    # the escape guard must not trigger over the run window
    sc = load(name)
    q, p = sample(sc.state, 2000, seed=1, hbar=sc.hbar)
    worst = np.argmax(np.abs(q[:, 0]))
    qw, pw = q[worst], p[worst]
    for _ in range(sc.n_steps):
        qw, pw = map_step(qw, pw, sc.pair.average, sc.tau)
        assert np.all(np.abs(qw) < 1e3)
    cfg = EstimatorConfig(n_traj=2000, seed=1, tau=sc.tau, n_steps=sc.n_steps)
    series = f1_dr(sc.state, sc.pair, cfg)  # must not raise
    assert np.all(np.isfinite(series.values))


def test_exactness_ladder_on_presets():
    # vanishing remainder at order k implies the order-k estimator tracks the
    # exact amplitude within statistical + grid tolerance, or within rounding
    # for f0 (light version of the acceptance run)
    from loschmidt.estimators import f0, f2_gaussian_chain

    checks = {
        "linear_gradient": ("f0", f0),
        "displaced_ho": ("f1", lambda s, p, c: f1_dr(s, p, c)),
        "ho_diff_k": ("f2_gaussian", f2_gaussian_chain),
    }
    for name, (est_name, runner) in checks.items():
        sc = load(name)
        assert sc.exactness[est_name] == EXACT
        n_steps = min(sc.n_steps, 80)
        cfg = EstimatorConfig(n_traj=20000, seed=13, tau=sc.tau, n_steps=n_steps)
        exact = fidelity_exact(sc.state, sc.pair, n_steps, sc.tau, hbar=sc.hbar)
        series = runner(sc.state, sc.pair, cfg)
        # f0 is a quadrature: its only error is rounding
        band = 1e-12 if est_name == "f0" else 3 * series.stderr + 1e-6
        assert np.all(np.abs(series.values - exact.values) <= band), name


def test_exactness_ladder_cubic_perturbation():
    # cubic perturbing potential: the second-order estimator stays within its
    # error bars while the dephasing representation drifts out of its own
    from loschmidt.estimators import f2_mc

    sc = load("cubic_perturbation")
    assert sc.exactness["f2_mc"] == EXACT
    cfg = EstimatorConfig(n_traj=50000, seed=7, tau=sc.tau, n_steps=60)
    exact = fidelity_exact(sc.state, sc.pair, 60, sc.tau, points=4096)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # unit path weights: no ESS warning
        mc = f2_mc(sc.state, sc.pair, cfg)
    assert np.all(np.abs(mc.values - exact.values) <= 3 * mc.stderr)
    dr = f1_dr(sc.state, sc.pair, cfg)
    dev = np.abs(dr.values - exact.values)
    assert np.any(dev > 3 * dr.stderr + 1e-6)
