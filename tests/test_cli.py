import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loschmidt.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    _KEYS,
    build_run_config,
    main,
    parse_config_text,
    run,
)
from loschmidt import estimators as estimators_module
from loschmidt.estimators import _shared_ensembles, f1_dr, f2_mc
from loschmidt.qgrid import Grid, fidelity_exact, grid_for_state
from loschmidt.series import FidelitySeries, read_series

DISPLACED_CFG = """
# comparison run on the displaced-oscillator scenario
scenario = displaced_ho
estimators = exact, f1
n_traj = 2000
seed = 7
n_steps = 40
"""

INLINE_CFG = """
estimators = f0
kinetic_prime = 0
kinetic_double_prime = 0
potential_prime = 0 -0.5
potential_double_prime = 0 0.5
state_q = 0
state_p = 0
state_sigma = 1
n_traj = 4000
n_steps = 30
tau = 0.05
label = gradient_inline
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus = 1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def test_build_requires_estimators_and_system():
    with pytest.raises(ConfigError, match="estimator"):
        build_run_config({"scenario": "displaced_ho"})
    with pytest.raises(ConfigError, match="scenario or an inline"):
        build_run_config({"estimators": "f1"})
    with pytest.raises(ConfigError, match="unknown estimator"):
        build_run_config({"scenario": "displaced_ho", "estimators": "f7"})
    with pytest.raises(ConfigError, match="unknown scenario"):
        build_run_config({"scenario": "nope", "estimators": "f1"})


@pytest.mark.parametrize(
    "extra, keys",
    [
        ("potential_prime = 0 0 9\nstate_q = 5\n", "potential_prime, state_q"),
        ("kinetic_double_prime_cos = 1\n", "kinetic_double_prime_cos"),
    ],
    ids=["term_and_state", "cos_term"],
)
def test_main_rejects_scenario_with_inline_keys(tmp_path, capsys, extra, keys):
    # a preset defines the whole system; an inline key beside it is not applied
    cfg_path = write_cfg(tmp_path, DISPLACED_CFG + extra)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"takes no inline system keys; got {keys}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cos_key_alone_defines_an_inline_system():
    cfg = build_run_config({"estimators": "f0", "potential_prime_cos": "1"})
    assert cfg.system.name == "inline"
    assert cfg.system.pair.h_prime.potential[0].cos_amp == 1.0


def test_main_rejects_repeated_estimator(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, DISPLACED_CFG.replace("exact, f1", "f1, exact, f1"))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "duplicate estimator 'f1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inline_system_round_trip():
    entries = parse_config_text(INLINE_CFG)
    cfg = build_run_config(entries)
    assert cfg.system.name == "gradient_inline"
    assert cfg.system.pair.delta.potential[0].coeffs == (0.0, 1.0)
    assert cfg.system.state.dims == 1


def test_inline_mixture_defaults_to_equal_weights():
    text = (
        INLINE_CFG.replace("state_q = 0", "state_q = -1 0.5 2")
        .replace("state_p = 0", "state_p = 0 0 0")
        .replace("state_sigma = 1", "state_sigma = 1 1 1")
    )
    cfg = build_run_config(parse_config_text(text))
    assert [c.weight for c in cfg.system.state.components] == [1.0 / 3.0] * 3


def test_inline_state_q_alone_sets_every_component(tmp_path, capsys):
    # state_q = -1 1 alone is an equal mixture of two unit-width packets at rest
    text = (
        INLINE_CFG.replace("state_q = 0", "state_q = -1 1")
        .replace("state_p = 0\n", "")
        .replace("state_sigma = 1\n", "")
    )
    cfg = build_run_config(parse_config_text(text))
    comps = cfg.system.state.components
    assert [(c.center_q[0], c.center_p[0], c.sigma[0], c.weight) for c in comps] == [
        (-1.0, 0.0, 1.0, 0.5), (1.0, 0.0, 1.0, 0.5),
    ]
    explicit = text + "state_p = 0 0\nstate_sigma = 1 1\nstate_weights = 0.5 0.5\n"
    for name, config in (("short", text), ("explicit", explicit)):
        cfg_path = write_cfg(tmp_path, config, name=f"{name}.cfg")
        assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "short" / "f0.csv").read_bytes() == (
        tmp_path / "explicit" / "f0.csv"
    ).read_bytes()


def test_inline_state_q_needs_a_centre():
    text = INLINE_CFG.replace("state_q = 0", "state_q =")
    with pytest.raises(ConfigError, match="state_q"):
        build_run_config(parse_config_text(text))


def test_inline_system_validates_invariants():
    bad = INLINE_CFG.replace("state_sigma = 1", "state_sigma = -1")
    with pytest.raises(ConfigError, match="sigma"):
        build_run_config(parse_config_text(bad))


@pytest.mark.parametrize("double_prime, combination", [("0 0 1e308", "average"),
                                                        ("0 0 -1e308", "difference")])
def test_overflowing_pair_names_its_keys(tmp_path, capsys, double_prime, combination):
    # finite coefficients whose average or difference is not finite
    text = INLINE_CFG.replace("potential_prime = 0 -0.5", "potential_prime = 0 0 1e308")
    text = text.replace("potential_double_prime = 0 0.5", f"potential_double_prime = {double_prime}")
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (
        "invalid config: potential_prime, potential_double_prime: "
        f"the {combination} of the potential terms of coordinate 0 overflows"
    ) in err
    assert "inf" not in err


# ---------------------------------------------------------------------------
# full runs


def test_run_writes_expected_files(tmp_path):
    cfg = build_run_config(parse_config_text(DISPLACED_CFG))
    results = run(cfg, tmp_path / "out")
    assert set(results) == {"exact", "f1"}
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"exact.csv", "f1.csv", "comparison.csv", "comparison_max.json",
            "run_metadata.json"} <= names
    header = (tmp_path / "out" / "f1.csv").read_text().splitlines()[0]
    assert header == "step,time,re_f,im_f,abs_f_sq,stderr"
    summary = json.loads((tmp_path / "out" / "comparison_max.json").read_text())
    assert summary["f1"] < 0.05


def test_run_is_byte_deterministic(tmp_path):
    cfg = build_run_config(parse_config_text(DISPLACED_CFG))
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    for name in ("exact.csv", "f1.csv", "comparison.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_looks_estimators_up_at_call_time(tmp_path, monkeypatch):
    # a rebinding of the module-level name (as a span tracer does) is seen
    calls = []

    def counting_f1_dr(*args, **kwargs):
        calls.append(kwargs.get("reference"))
        return f1_dr(*args, **kwargs)

    monkeypatch.setattr("loschmidt.cli.f1_dr", counting_f1_dr)
    cfg = build_run_config(parse_config_text(DISPLACED_CFG))
    results = run(cfg, tmp_path / "out")
    assert calls == ["average"]
    assert results["f1"].meta["estimator"] == "f1"


def count_ensembles(monkeypatch):
    """Patch the ensemble sampler to record each ensemble it draws."""
    samples, sample = [], estimators_module.sample
    monkeypatch.setattr(
        estimators_module, "sample", lambda *args: samples.append(args[1]) or sample(*args)
    )
    return samples


SHARED_CFG = """
scenario = displaced_ho
n_traj = 2000
n_steps = 40
spectrum_damping_time = 4.0
"""


def test_run_computes_a_shared_ensemble_once(tmp_path, monkeypatch):
    # on displaced_ho delta-V is affine: f2_mc follows f1's orbit, and one
    # run computes that ensemble once; f2_mc.csv keeps the bytes it has alone
    samples = count_ensembles(monkeypatch)
    both = build_run_config(parse_config_text(SHARED_CFG + "estimators = f1, f2_mc\n"))
    results = run(both, tmp_path / "both")
    assert samples == [2000]
    run(build_run_config(parse_config_text(SHARED_CFG + "estimators = f2_mc\n")), tmp_path / "one")
    assert samples == [2000] * 2
    for name in ("f2_mc.csv", "spectrum_f2_mc.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    # the two series hold arrays of their own
    f2_values = results["f2_mc"].values.copy()
    results["f1"].values[:] = 0.0
    results["f1"].stderr[:] = 0.0
    assert results["f2_mc"].values.tobytes() == f2_values.tobytes()
    assert np.all(results["f2_mc"].stderr[1:] > 0.0)
    # the next run computes its ensemble again
    run(both, tmp_path / "again")
    assert samples == [2000] * 3
    assert (tmp_path / "again" / "f1.csv").read_bytes() == (tmp_path / "both" / "f1.csv").read_bytes()


def test_run_on_the_unperturbed_reference_computes_two_ensembles(tmp_path, monkeypatch):
    # f1 follows h_prime, f2_mc the average: two ensembles
    samples = count_ensembles(monkeypatch)
    text = SHARED_CFG + "estimators = f1, f2_mc\nreference = h_prime\n"
    run(build_run_config(parse_config_text(text)), tmp_path / "out")
    assert samples == [2000] * 2


def test_a_shared_ensemble_meets_the_divergence_guard(tmp_path, capsys, monkeypatch):
    # f1 takes any finite stderr; f2_mc, given f1's ensemble, still refuses
    # a stderr above 1
    merge = estimators_module._merge_moments

    def inflated(*args):
        mean, stderr = merge(*args)
        stderr[3:] = 2.0
        return mean, stderr

    monkeypatch.setattr(estimators_module, "_merge_moments", inflated)
    samples = count_ensembles(monkeypatch)
    cfg_path = write_cfg(tmp_path, SHARED_CFG + "estimators = f1, f2_mc\n")
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert samples == [2000]
    assert "diverged at step 3 (t = 0.15): stderr 2 > 1" in capsys.readouterr().err


def test_direct_estimator_calls_never_share_an_ensemble(monkeypatch):
    samples = count_ensembles(monkeypatch)
    sc = build_run_config(parse_config_text(SHARED_CFG + "estimators = f1\n"))
    state, pair, cfg = sc.system.state, sc.system.pair, sc.estimator_config
    f1_dr(state, pair, cfg)
    f2_mc(state, pair, cfg)
    assert samples == [2000] * 2
    # inside a scope a series written into leaves the shared one unchanged
    with _shared_ensembles():
        first = f1_dr(state, pair, cfg)
        values = first.values.copy()
        first.values[:] = 0.0
        second = f2_mc(state, pair, cfg)
    assert samples == [2000] * 3
    assert second.values.tobytes() == values.tobytes()
    f2_mc(state, pair, cfg)
    assert samples == [2000] * 4


def test_run_zero_perturbation_unit_modulus(tmp_path):
    text = """
estimators = f0
kinetic_prime = 0 0 0.5
kinetic_double_prime = 0 0 0.5
potential_prime = 0 0 0.5
potential_double_prime = 0 0 0.5
n_steps = 12
"""
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "f0.csv").read_text().splitlines()[1:]
    abs_sq = [float(line.split(",")[4]) for line in lines]
    assert all(v == 1.0 for v in abs_sq)


def test_run_json_format_and_spectrum(tmp_path, capsys):
    # CSV is the one table format; the key stays so that configs naming it run
    text = DISPLACED_CFG + "output_format = csv\nspectrum_damping_time = 4.0\n"
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "out")
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {"exact.csv", "f1.csv", "comparison.csv", "comparison_max.json",
                     "spectrum_exact.csv", "spectrum_f1.csv", "run_metadata.json"}
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    assert "output_format" not in meta
    json_text = text.replace("output_format = csv", "output_format = json")
    with pytest.raises(ConfigError, match="output_format: expected csv, got 'json'"):
        build_run_config(parse_config_text(json_text))
    cfg_path = write_cfg(tmp_path, json_text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "json")]) == EXIT_CONFIG
    assert "output_format: expected csv, got 'json'" in capsys.readouterr().err
    assert not (tmp_path / "json").exists()


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_main_run_and_seed_override(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, DISPLACED_CFG)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o1")]) == 0
    assert main([
        "run", str(cfg_path), "--output-dir", str(tmp_path / "o2"), "--seed", "9",
    ]) == 0
    meta1 = json.loads((tmp_path / "o1" / "run_metadata.json").read_text())
    meta2 = json.loads((tmp_path / "o2" / "run_metadata.json").read_text())
    assert meta1["seed"] == 7 and meta2["seed"] == 9
    assert (tmp_path / "o1" / "f1.csv").read_bytes() != (
        tmp_path / "o2" / "f1.csv"
    ).read_bytes()


def test_main_invalid_config_exit_two(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "estimators = f9\nscenario = displaced_ho\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    capsys.readouterr()
    cfg_path = write_cfg(tmp_path, INLINE_CFG + "potential_double_prime_cos = abc\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "potential_double_prime_cos" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    [
        "kinetic_prime",
        "potential_double_prime",
        "state_q",
        "state_p",
        "state_sigma",
        "state_weights",
        "grid_extent",
    ],
)
def test_main_bad_number_names_its_key(tmp_path, capsys, key):
    lines = [line for line in INLINE_CFG.splitlines() if not line.startswith(key + " ")]
    cfg_path = write_cfg(tmp_path, "\n".join(lines) + f"\n{key} = abc\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert f"invalid config: {key}: expected finite numbers, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau", "nan"),
        ("tau", "inf"),
        ("hbar", "nan"),
        ("state_sigma", "nan"),
        ("potential_prime", "0 0 nan"),
        ("potential_prime_cos", "nan"),
        ("grid_extent", "-inf 8"),
        ("spectrum_damping_time", "inf"),
    ],
)
def test_main_rejects_non_finite_number_before_running(tmp_path, capsys, key, value):
    lines = [line for line in INLINE_CFG.splitlines() if not line.startswith(key + " ")]
    cfg_path = write_cfg(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"invalid config: {key}: expected " in err and "finite number" in err
    assert not out_dir.exists()



_LIST_KEYS = (
    "kinetic_prime", "kinetic_double_prime", "potential_prime", "potential_double_prime",
    "state_q", "state_p", "state_sigma", "state_weights", "grid_extent",
)


@pytest.mark.parametrize(
    "key, value",
    [(key, "") for key in sorted(_KEYS)] + [(key, ",") for key in _LIST_KEYS],
)
def test_main_rejects_empty_value_naming_its_key(tmp_path, capsys, monkeypatch, key, value):
    # an empty value would otherwise run as a default (a zero term, say);
    # every key is refused before any estimator runs
    calls = []
    monkeypatch.setattr("loschmidt.cli.f0", lambda *args: calls.append(args))
    lines = [line for line in INLINE_CFG.splitlines() if not line.startswith(key + " ")]
    cfg_path = write_cfg(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    assert f"invalid config: {key}: " in capsys.readouterr().err
    assert not calls and not out_dir.exists()


KICKED_ROTOR_INLINE_CFG = """
estimators = exact
kinetic_prime = 0 0 0.5
kinetic_double_prime = 0 0 0.5
potential_prime_cos = 4.975
potential_double_prime_cos = 5.025
state_q = 3.141592653589793
state_sigma = 0.5
tau = 1
n_steps = 50
grid_extent = 0 6.283185307179586
grid_points = 1024
"""


@pytest.mark.parametrize("value", ["true", "yes", "1"])
def test_periodic_key_sets_a_periodic_grid(tmp_path, value):
    text = KICKED_ROTOR_INLINE_CFG + f"periodic = {value}\n"
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "out")
    written = read_series(tmp_path / "out" / "exact.csv")
    grid = Grid(((0.0, 2.0 * np.pi),), (1024,), periodic=True)
    expected = fidelity_exact(cfg.system.state, cfg.system.pair, 50, 1.0, grid=grid)
    assert written.values.view(np.uint64).tobytes() == expected.values.view(np.uint64).tobytes()


def test_grid_extent_without_grid_points_derives_the_points_for_that_extent(tmp_path):
    # +-16 for a unit-width packet at rest: twice the 8-sigma box, so twice
    # its 64 points; the run keeps that grid
    text = DISPLACED_CFG.replace("exact, f1", "exact") + "grid_extent = -16 16\n"
    run(build_run_config(parse_config_text(text)), tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())["series"]["exact"]
    assert meta["grid_points"] == [128] and meta["grid_extents"] == [[-16.0, 16.0]]
    assert meta["grid_growths"] == 0


def test_periodic_run_without_grid_points_grows_its_points_on_the_period(tmp_path):
    # the kicks push the momenta into the Nyquist band of the 64 points
    # derived for the packet; the extent is the period and stays, and the
    # points double until the run passes
    text = KICKED_ROTOR_INLINE_CFG.replace("grid_points = 1024\n", "") + "periodic = true\n"
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())["series"]["exact"]
    assert meta["grid_growths"] == 3 and meta["grid_points"] == [512]
    assert meta["grid_extents"] == [[0.0, 2.0 * np.pi]]
    cfg = build_run_config(parse_config_text(text))
    fine = Grid(((0.0, 2.0 * np.pi),), (1024,), periodic=True)
    expected = fidelity_exact(cfg.system.state, cfg.system.pair, 50, 1.0, grid=fine).values
    assert np.max(np.abs(read_series(out / "exact.csv").values - expected)) <= 1e-12


def test_periodic_run_on_too_few_given_points_names_the_leaking_step(tmp_path, capsys):
    # grid_points = 64 is given, so it stays; the momenta reach the Nyquist
    # band at step 5, inside the first block of steps
    text = KICKED_ROTOR_INLINE_CFG.replace("grid_points = 1024", "grid_points = 64") + "periodic = true\n"
    out_dir = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(out_dir)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "momentum probability 2.768e-08 near the Nyquist edge of axis 0 at step 5 (t = 5)" in err
    assert "grid reached: points (64,)" in err and "its point count was given" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["false", "no", "0"])
def test_periodic_key_false_keeps_the_edge_check(tmp_path, capsys, value):
    # the kicked packet reaches the edges of [0, 2 pi]; only a periodic grid
    # may let it wrap
    cfg_path = write_cfg(tmp_path, KICKED_ROTOR_INLINE_CFG + f"periodic = {value}\n")
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert "position probability" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [KICKED_ROTOR_INLINE_CFG + "periodic = maybe\n", INLINE_CFG + "periodic = true\n"],
    ids=["bad_value", "no_grid_extent"],
)
def test_main_rejects_bad_periodic(tmp_path, capsys, text):
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "invalid config: periodic:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    ["spectrum_damping_time = -1\n", "spectrum_damping_time = 4\nn_steps = 4\n"],
    ids=["negative_damping", "too_few_steps"],
)
def test_main_rejects_spectrum_request_before_running(tmp_path, capsys, extra):
    text = DISPLACED_CFG.replace("n_steps = 40\n", "") + extra
    cfg_path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "extra, args, key",
    [
        ("grid_points = 1000\n", [], "grid_points"),
        ("grid_extent = 5 -5\n", [], "grid_extent"),
        ("", ["--seed", "-1"], "seed"),
    ],
    ids=["grid_points_not_power_of_two", "grid_extent_decreasing", "negative_seed"],
)
def test_main_rejects_bad_settings_before_running(tmp_path, capsys, extra, args, key):
    # f1 would run before exact; the bad setting must stop the run first
    text = DISPLACED_CFG.replace("exact, f1", "f1, exact") + extra
    cfg_path = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir), *args]) == EXIT_CONFIG
    assert f"invalid config: {key}" in capsys.readouterr().err
    assert not out_dir.exists()


ESCAPE_CFG = """
estimators = f1
kinetic_prime = 0 0 0.5
kinetic_double_prime = 0 0 0.5
potential_prime = 0 0 0 0 -1
potential_double_prime = 0 0.1 0 0 -1
state_q = 3
n_traj = 100
n_steps = 400
tau = 0.5
"""


def test_main_numerical_abort_exit_three(tmp_path, capsys):
    # inverted quartic ejects trajectories -> numerical abort
    cfg_path = write_cfg(tmp_path, ESCAPE_CFG)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "numerical abort" in capsys.readouterr().err


def test_main_numerical_abort_in_a_split_ensemble_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(estimators_module, "_available_cpus", lambda: 2)
    cfg_path = write_cfg(tmp_path, ESCAPE_CFG.replace("n_traj = 100\n", "n_traj = 100000\n"))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_NUMERIC
    assert "numerical abort: trajectory escaped" in capsys.readouterr().err
    assert not out_dir.exists()


# force constants 1 and 0.25, sigma = 1: f2 is exact, but the thimble's
# stderr grows faster than exponentially and, unguarded, this run wrote
# |f(T)| = 5.9e38 and exited 0
DIVERGING_CFG = """
estimators = f2_mc
kinetic_prime = 0 0 0.5
kinetic_double_prime = 0 0 0.5
potential_prime = 0 0 0.5
potential_double_prime = 0 0 0.125
state_q = 0
state_sigma = 1
tau = 0.05
n_steps = 400
n_traj = 20000
seed = 1
"""


def test_main_diverging_thimble_exit_three(tmp_path, capsys, monkeypatch):
    # one chunk, then four on two CPUs: the guard fires at the same step with
    # the same message
    cfg_path = write_cfg(tmp_path, DIVERGING_CFG)
    messages = []
    for cpus, chunk_traj in ((1, 25_000), (2, 5000)):
        monkeypatch.setattr(estimators_module, "_available_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(estimators_module, "_CHUNK_TRAJ", chunk_traj)
        out_dir = tmp_path / f"out{cpus}"
        assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_NUMERIC
        assert not out_dir.exists()
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert "thimble diverged at step 104 (t = 5.2): stderr 1.03 > 1" in messages[0]
    assert "use f2_gaussian, or fewer steps" in messages[0]


def test_main_non_finite_series_exit_three(tmp_path, capsys, monkeypatch):
    # an estimator whose values turn NaN aborts the run before its output
    # directory is created
    def nan_f0(state, pair, config):
        values = np.ones(len(config.times), dtype=complex)
        values[-1] = np.nan
        return FidelitySeries(config.times, values, np.zeros(len(values)), {"estimator": "f0"})

    monkeypatch.setattr("loschmidt.cli.f0", nan_f0)
    out_dir = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, INLINE_CFG)
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical abort" in err and "estimator f0" in err and "step 30" in err
    assert not out_dir.exists()


def test_main_refused_estimator_creates_no_output_directory(tmp_path, capsys):
    # exact returns, then the chain refuses the cosine kick: nothing is written
    cfg_path = write_cfg(
        tmp_path, "scenario = kicked_rotor\nestimators = exact, f2_gaussian\n"
    )
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir)]) == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_metadata_records_stage_timings(tmp_path):
    text = DISPLACED_CFG.replace("exact, f1", "exact, f0, f1")
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    timings = meta["timings_s"]
    assert set(timings) == {"exact", "f0", "f1", "outputs"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


def test_run_metadata_holds_every_series_meta(tmp_path):
    # an affine delta-V (f2_mc without a smear) and a quadratic one (the
    # thimble kick): every series records the run's fields in one layout
    for scenario in ("displaced_ho", "ho_diff_k"):
        text = DISPLACED_CFG.replace("exact, f1", "exact, f0, f1, f2_mc, f2_gaussian")
        cfg = build_run_config(parse_config_text(text.replace("displaced_ho", scenario)))
        results = run(cfg, tmp_path / scenario)
        written = json.loads((tmp_path / scenario / "run_metadata.json").read_text())["series"]
        # JSON holds the tuples of the meta as lists
        assert written == json.loads(json.dumps({n: s.meta for n, s in results.items()}))
        assert set(written) == {"exact", "f0", "f1", "f2_mc", "f2_gaussian"}
        # the grid grid_for_state chose for exact, and f2_mc's contour and ESS
        extents = grid_for_state(cfg.system.state).extents
        assert written["exact"]["grid_extents"] == [list(extent) for extent in extents]
        assert written["f2_mc"]["f2_contour"] == "thimble"
        assert written["f2_mc"]["effective_sample_size"] == 2000.0
        # the Monte Carlo series carry the run's fields; the deterministic
        # ones carry them without ensemble, with a zero stderr
        run_meta = cfg.estimator_config.run_meta
        deterministic = {**run_meta, "n_traj": None, "seed": None}
        for name, series in results.items():
            assert series.meta["estimator"] == name
            recorded = {key: series.meta[key] for key in run_meta}
            if name in ("f1", "f2_mc"):
                assert recorded == run_meta
            else:
                assert recorded == deterministic
                assert series.stderr.tolist() == [0.0] * len(series)


def test_main_scenarios_lists_all(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in (
        "linear_gradient",
        "displaced_ho",
        "ho_diff_k",
        "cubic_perturbation",
        "kicked_rotor",
        "morse_like",
    ):
        assert name in out


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "loschmidt.cli", "scenarios"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "displaced_ho" in proc.stdout


def test_chain_estimator_rejected_on_kicked_rotor(tmp_path, capsys):
    # the closed-form chain needs polynomial potentials: invalid request
    cfg_path = write_cfg(
        tmp_path, "scenario = kicked_rotor\nestimators = f2_gaussian\n"
    )
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err


def test_comparison_reports_dephasing_band(tmp_path):
    # the reported maximum deviation sits inside the statistical band
    text = DISPLACED_CFG.replace("n_traj = 2000", "n_traj = 10000").replace(
        "n_steps = 40", "n_steps = 252"
    )
    cfg = build_run_config(parse_config_text(text))
    results = run(cfg, tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "comparison_max.json").read_text())
    band = 3 * results["f1"].stderr + 1e-6
    assert summary["f1"] <= band.max()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_examples_build():
    # every ```ini block of the README is a config that builds as written
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    configs = [build_run_config(parse_config_text(text)) for text in blocks]
    assert [(cfg.system.name, cfg.estimators) for cfg in configs] == [
        ("displaced_ho", ["exact", "f1"]), ("inline", ["exact", "f1"]),
    ]


def test_readme_documents_every_config_key():
    # by its full name: kinetic_prime inside kinetic_prime_cos does not count
    text = README.read_text()
    missing = [key for key in _KEYS if not re.search(rf"\b{key}\b", text)]
    assert missing == []


def test_readme_python_examples_run(capsys):
    # the ```python blocks of the README run in order in one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for text in blocks:
        exec(compile(text, str(README), "exec"), namespace)
    assert namespace["pair"].dims == namespace["state"].dims == 1
    printed = [float(line) for line in capsys.readouterr().out.split()]
    assert printed[0] < 1e-12  # the closed-form chain is exact on ho_diff_k
