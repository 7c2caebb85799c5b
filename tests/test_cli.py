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
    build_run_config,
    main,
    parse_config_text,
    run,
)
from loschmidt.estimators import f1_dr
from loschmidt.qgrid import Grid, fidelity_exact
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


@pytest.mark.parametrize("key, value", [("degenerate_a_threshold", "-1")])
def test_build_validates_estimator_settings(key, value):
    # rejected while parsing, before any estimator (exact included) has run
    entries = {"scenario": "cubic_perturbation", "estimators": "exact, f2_mc", key: value}
    with pytest.raises(ConfigError, match=key):
        build_run_config(entries)


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


def test_run_thread_count_does_not_change_results(tmp_path):
    text = DISPLACED_CFG.replace("exact, f1", "exact, f0, f1")
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "t1", threads=1)
    run(cfg, tmp_path / "t4", threads=4)
    for name in ("exact.csv", "f0.csv", "f1.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes()


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


def test_run_json_format_and_spectrum(tmp_path):
    text = DISPLACED_CFG + "output_format = json\nspectrum_damping_time = 4.0\n"
    cfg = build_run_config(parse_config_text(text))
    run(cfg, tmp_path / "out")
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"exact.json", "f1.json", "comparison.json", "spectrum_exact.csv",
            "spectrum_f1.csv"} <= names


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
    assert f"invalid config: {key}: expected numbers, got 'abc'" in capsys.readouterr().err


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


def test_main_rejects_threads_below_one(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, DISPLACED_CFG)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out_dir), "--threads", "0"]) == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err
    assert not out_dir.exists()


def test_main_numerical_abort_exit_three(tmp_path, capsys):
    # inverted quartic ejects trajectories -> numerical abort
    text = """
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
    cfg_path = write_cfg(tmp_path, text)
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "numerical abort" in capsys.readouterr().err


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
