"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical bands (3 standard errors) are evaluated at the pinned seeds
below; the seeds are part of the frozen test definition, as for any
fixed-realisation statistical criterion.
"""
import json
import warnings

import numpy as np
import pytest

import loschmidt as lm
from loschmidt.cli import build_run_config, run as cli_run
from loschmidt.hamiltonians import expansion_remainder
from loschmidt.presets import displaced_ho_pair
from loschmidt.states import GaussianComponent, InitialState

SEED = 7
F2_MC_SEEDS = range(1, 6)  # five realisations of the second-order band


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def estimator_config(sc, n_traj, n_steps=None, seed=SEED, tau=None):
    return lm.EstimatorConfig(
        n_traj=n_traj,
        seed=seed,
        tau=sc.tau if tau is None else tau,
        n_steps=sc.n_steps if n_steps is None else n_steps,
        hbar=sc.hbar,
    )


@pytest.fixture(scope="module")
def displaced():
    sc = lm.load("displaced_ho")
    exact = lm.fidelity_exact(sc.state, sc.pair, 252, sc.tau, points=4096)
    return sc, exact


@pytest.fixture(scope="module")
def diff_k():
    sc = lm.load("ho_diff_k")
    exact100 = lm.fidelity_exact(sc.state, sc.pair, 100, sc.tau, points=4096)
    exact252 = lm.fidelity_exact(sc.state, sc.pair, 252, sc.tau, points=4096)
    return sc, exact100, exact252


def test_criterion_01_dephasing_representation_exact(displaced):
    sc, exact = displaced
    cfg = estimator_config(sc, n_traj=10000, n_steps=252)
    series = lm.f1_dr(sc.state, sc.pair, cfg, reference="average")
    dev = np.abs(series.values - exact.values)
    band = 3 * series.stderr + 1e-6
    ok = bool(np.all(dev <= band))
    report(1, ok, f"f1(average) vs exact: max dev {dev.max():.2e}, "
                  f"max band {band.max():.2e}")


def test_criterion_02_reference_hamiltonian_failure(displaced):
    sc, exact = displaced
    cfg = estimator_config(sc, n_traj=10000, n_steps=252)
    good = lm.f1_dr(sc.state, sc.pair, cfg, reference="average")
    bad = lm.f1_dr(sc.state, sc.pair, cfg, reference="h_prime")
    # within two oscillator periods (the run covers exactly t <= 4 pi)
    window = exact.times <= 4 * np.pi
    dev = np.abs(bad.values - exact.values)[window]
    bound = 10 * np.max(3 * good.stderr + 1e-6)
    ok = bool(np.max(dev) >= bound)
    report(2, ok, f"f1(h_prime) max dev {np.max(dev):.3f} >= 10x band {bound:.3f}")


def test_criterion_03_static_average_exact_on_linear_gradient():
    sc = lm.load("linear_gradient")
    n_steps = 200  # t <= 10
    mixture = InitialState(
        (
            GaussianComponent([-1.0], [0.3], [0.8], 0.5),
            GaussianComponent([+1.5], [-0.2], [1.2], 0.5),
        )
    )
    msgs, ok = [], True
    for label, state in (("pure", sc.state), ("mixed", mixture)):
        exact = lm.fidelity_exact(state, sc.pair, n_steps, sc.tau)
        series = lm.f0(state, sc.pair, estimator_config(sc, 10000, n_steps))
        dev = np.abs(series.values - exact.values)
        band = 3 * series.stderr + 1e-8
        ok = ok and bool(np.all(dev <= band))
        msgs.append(f"{label}: max dev {dev.max():.2e}")
    report(3, ok, "f0 vs exact for t <= 10, " + "; ".join(msgs))


def test_criterion_04_second_order_exact_on_diff_k(diff_k):
    sc, exact100, exact252 = diff_k
    chain = lm.f2_gaussian_chain(sc.state, sc.pair, estimator_config(sc, 100))
    chain_dev = np.max(np.abs(chain.values - exact100.values))
    ok_chain = chain_dev <= 1e-6

    ok_mc = True
    for seed in F2_MC_SEEDS:
        cfg_mc = estimator_config(sc, n_traj=100000, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # unit path weights: no ESS warning
            mc = lm.f2_mc(sc.state, sc.pair, cfg_mc)
        mc_dev = np.abs(mc.values - exact100.values)
        ok_mc = ok_mc and bool(np.all(mc_dev <= 3 * mc.stderr))

    f1 = lm.f1_dr(sc.state, sc.pair, estimator_config(sc, 10000, n_steps=252))
    period = 2 * np.pi / np.sqrt(1.105)
    late = exact252.times > period
    f1_dev = np.abs(f1.values - exact252.values)
    f1_band = 3 * f1.stderr + 1e-6
    ok_f1 = bool(np.any(f1_dev[late] > f1_band[late]))

    report(4, ok_chain and ok_mc and ok_f1,
           f"chain max dev {chain_dev:.2e} <= 1e-6; f2_mc within 3 stderr for seeds 1-5: "
           f"{ok_mc}; f1 exceeds its band beyond one period: {ok_f1}")


def test_criterion_05_degeneracy_f2_equals_f1_on_linear_perturbation():
    sc = lm.load("displaced_ho")  # linear perturbing potential
    cfg = estimator_config(sc, n_traj=10000, n_steps=252)
    dr = lm.f1_dr(sc.state, sc.pair, cfg)
    mc = lm.f2_mc(sc.state, sc.pair, cfg)
    ok = bool(np.array_equal(mc.values, dr.values) and np.array_equal(mc.stderr, dr.stderr))
    report(5, ok, "f2_mc equals f1 path-by-path (bitwise, values and stderr) on linear delta-V")


def test_criterion_06_normalisation_and_trivial_limits():
    sc = lm.load("ho_diff_k")
    cfg = estimator_config(sc, n_traj=3000, n_steps=20)
    runs = {
        "exact": lm.fidelity_exact(sc.state, sc.pair, 20, sc.tau),
        "f0": lm.f0(sc.state, sc.pair, cfg),
        "f1": lm.f1_dr(sc.state, sc.pair, cfg),
        "f2_mc": lm.f2_mc(sc.state, sc.pair, cfg),
        "f2_gaussian": lm.f2_gaussian_chain(sc.state, sc.pair, cfg),
    }
    ok = all(abs(s.values[0] - 1.0) <= 1e-12 for s in runs.values())

    h = sc.pair.h_prime
    null_pair = lm.make_pair(h, h)
    trivial = {
        "exact": lm.fidelity_exact(sc.state, null_pair, 20, sc.tau),
        "f0": lm.f0(sc.state, null_pair, cfg),
        "f1": lm.f1_dr(sc.state, null_pair, cfg),
        "f2_mc": lm.f2_mc(sc.state, null_pair, cfg),
    }
    ok = ok and all(
        np.max(np.abs(s.values - 1.0)) <= 1e-12 for s in trivial.values()
    )
    report(6, bool(ok), "f(0) = 1 for every method; delta-H = 0 gives f = 1 to 1e-12")


def test_criterion_07_short_time_slope(displaced):
    sc, _ = displaced
    target = -1j * 0.5 / sc.hbar  # -i <delta H> / hbar with <q> = 0.5

    def first_step(method, tau):
        if method == "exact":
            s = lm.fidelity_exact(sc.state, sc.pair, 1, tau, points=4096)
        else:
            cfg = lm.EstimatorConfig(
                n_traj=400000, seed=SEED, tau=tau, n_steps=1, hbar=sc.hbar
            )
            s = method(sc.state, sc.pair, cfg)
        return (s.values[1] - 1.0) / tau

    msgs, ok = [], True
    for name, method in (
        ("exact", "exact"),
        ("f0", lm.f0),
        ("f1", lm.f1_dr),
        ("f2_mc", lm.f2_mc),
        ("f2_gaussian", lm.f2_gaussian_chain),
    ):
        # Richardson extrapolation of (f(tau) - 1)/tau under tau halving
        coeff = 2 * first_step(method, sc.tau / 2) - first_step(method, sc.tau)
        rel = abs(coeff - target) / abs(target)
        ok = ok and rel <= 0.01
        msgs.append(f"{name} {rel:.2%}")
    report(7, bool(ok), "slope matches -i<dH>/hbar to 1%: " + ", ".join(msgs))


def test_criterion_08_unitarity_and_bounds(displaced, diff_k):
    sc, exact_displaced = displaced
    _, _, exact_diffk = diff_k
    # f of the pair (h, h) is the squared norm of the state stepped by h
    h = sc.pair.average
    norms = lm.fidelity_exact(sc.state, lm.make_pair(h, h), 1000, sc.tau).values
    drift = float(np.max(np.abs(norms - 1.0)))
    ok = drift < 1e-12

    for series in (exact_displaced, exact_diffk):
        ok = ok and bool(np.all(np.abs(series.values) <= 1.0 + 1e-12))

    mixture = InitialState(
        (
            GaussianComponent([0.5], [0.0], [1.0], 0.5),
            GaussianComponent([-0.8], [0.4], [1.3], 0.5),
        )
    )
    cfg = estimator_config(sc, n_traj=5000, n_steps=120)
    for est in (lm.f0, lm.f1_dr):
        series = est(mixture, sc.pair, cfg)
        ok = ok and bool(
            np.all(np.abs(series.values) <= 1.0 + series.stderr + 1e-12)
        )
    report(8, bool(ok), f"norm drift {drift:.2e} over 1000 steps; "
                        "|f_exact| <= 1; |f0|, |f1| <= 1 + stderr")


def test_criterion_09_expansion_order_scaling():
    sc = lm.load("morse_like")
    x = (np.array([0.9]), np.array([0.4]))
    direction = (np.array([0.8]), np.array([0.6]))
    scales = np.logspace(-3, -1, 9)
    ok, msgs = True, []
    for order in (0, 1, 2):
        rems = [
            abs(
                expansion_remainder(
                    sc.pair, x, (s * direction[0], s * direction[1]), order
                )
            )
            for s in scales
        ]
        slope = np.polyfit(np.log(scales), np.log(rems), 1)[0]
        ok = ok and slope >= order + 0.9
        msgs.append(f"order {order}: slope {slope:.2f}")
    report(9, bool(ok), "; ".join(msgs))


def test_criterion_10_monte_carlo_convergence():
    sc = lm.load("displaced_ho")
    n_steps = 63  # t = pi, near maximal dephasing
    errs = []
    counts = (1000, 10000, 100000)
    for n in counts:
        cfg = estimator_config(sc, n_traj=n, n_steps=n_steps)
        errs.append(lm.f1_dr(sc.state, sc.pair, cfg).stderr[-1])
    slope = np.polyfit(np.log(counts), np.log(errs), 1)[0]
    ok = -0.55 <= slope <= -0.45

    def needed_trajectories(dims):
        pair = displaced_ho_pair(dims=dims)
        state = InitialState.gaussian([0.5] * dims, [0.0] * dims, [1.0] * dims)
        for n in (1000 * 2**k for k in range(7)):
            cfg = lm.EstimatorConfig(
                n_traj=n, seed=SEED, tau=sc.tau, n_steps=n_steps
            )
            if lm.f1_dr(state, pair, cfg).stderr[-1] <= 0.01:
                return n
        return 10**9

    needs = {dims: needed_trajectories(dims) for dims in (1, 2, 4, 8)}
    spread = max(needs.values()) / min(needs.values())
    ok = ok and spread < 2.0
    report(10, bool(ok), f"stderr slope {slope:.3f}; trajectories for "
                         f"stderr <= 0.01 across D: {needs} (ratio {spread:.2f})")


def test_criterion_11_kicked_rotor_smoke(tmp_path):
    entries = {
        "scenario": "kicked_rotor",
        "estimators": "exact f0 f1 f2_mc",
        "n_traj": "20000",
        "seed": str(SEED),
    }
    cfg = build_run_config(entries)
    # the cosine average keeps f2_mc on the real axis, whose weights degenerate
    with pytest.warns(RuntimeWarning, match="second-order path weights degenerated"):
        results = cli_run(cfg, tmp_path / "out")
    ok = results["f2_mc"].meta["f2_contour"] == "real"
    ok = ok and all(np.all(np.isfinite(s.values)) for s in results.values())
    ok = ok and all(len(s) == 51 for s in results.values())
    f1 = results["f1"]
    ok = ok and bool(np.all(np.abs(f1.values) <= 1.0 + f1.stderr + 1e-12))
    ok = ok and (tmp_path / "out" / "comparison.csv").is_file()
    summary = json.loads((tmp_path / "out" / "comparison_max.json").read_text())
    report(11, bool(ok), f"all estimators finite to N=50; |f1| bounded; "
                         f"comparison written (max devs {summary})")


def test_criterion_12_spectra(displaced):
    sc, exact = displaced
    times = sc.tau * np.arange(253)
    omega0 = 2.0
    pure = lm.FidelitySeries(times, np.exp(-1j * omega0 * times), np.zeros(253))
    spec = lm.spectrum(pure, damping_time=3.0)
    bin_width = spec.frequencies[1] - spec.frequencies[0]
    peak = spec.frequencies[np.argmax(spec.intensities)]
    ok = abs(peak - omega0) <= bin_width

    vib = lm.spectrum(exact, damping_time=4.0)
    peaks = vib.peak_frequencies(min_height_fraction=0.05)
    spacings = np.diff(peaks)
    ok = ok and len(spacings) >= 2
    ok = ok and bool(np.all(np.abs(spacings - 1.0) <= bin_width))
    report(12, bool(ok), f"shift-theorem peak at {peak:.3f} (target 2.0 "
                         f"+- {bin_width:.3f}); progression spacings {spacings.round(3)}")
