"""Batch runner: parse a flat key=value config, run estimators, write files.

Output tables are written by ``loschmidt.series``, which also reads series
files back bit-exactly.  Exit codes: 0 success, 2 invalid configuration,
3 numerical abort (diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TrajectoryEscapeError
from .estimators import (
    EstimatorConfig,
    SingularExponentError,
    f0,
    f1_dr,
    f2_gaussian_chain,
    f2_mc,
)
from .hamiltonians import CoordFunction, SeparableHamiltonian, make_pair
from .presets import SCENARIO_NAMES, Scenario, load
from .qgrid import AliasingError, Grid, GridLeakError, _is_power_of_two, fidelity_exact
from .series import FidelitySeries, NonFiniteSeriesError, write_series, write_table
from .spectra import MIN_SERIES_LENGTH, spectrum
from .states import GaussianComponent, InitialState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    """Parsed configuration of one batch run.

    ``system`` is the preset or inline scenario with the run's step, grid
    hints and label (as its name) applied.
    """

    estimators: list
    system: Scenario
    estimator_config: EstimatorConfig
    reference: str = "average"
    output_format: str = "csv"
    spectrum_damping_time: float | None = None
    raw: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing

_INLINE_TERM_KEYS = (
    "kinetic_prime",
    "kinetic_double_prime",
    "potential_prime",
    "potential_double_prime",
)

# defaults of the EstimatorConfig fields that neither it nor a Scenario sets
_ESTIMATOR_DEFAULTS = {"n_traj": 10000, "seed": 7}


def _floats(value: str, key: str) -> list:
    try:
        return [float(tok) for tok in value.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {value!r}") from exc


def _extent(value: str) -> tuple:
    ext = _floats(value, "grid_extent")
    if len(ext) != 2:
        raise ValueError("needs two numbers")
    if not ext[0] < ext[1]:
        raise ValueError(f"expected an increasing pair, got {value!r}")
    return (ext[0], ext[1])


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(value: str) -> bool:
    try:
        return _FLAGS[value.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, yes/no or 1/0, got {value!r}") from None


# scalar settings, key -> parser, by where they go: the run's Scenario
# (``label`` becomes its name), its EstimatorConfig, the RunConfig itself
_SYSTEM_SETTINGS = {
    "tau": float, "n_steps": int, "hbar": float, "grid_points": int,
    "grid_extent": _extent, "periodic": _flag, "label": str,
}
_ESTIMATOR_SETTINGS = {"n_traj": int, "seed": int, "degenerate_a_threshold": float}
_RUN_SETTINGS = {"reference": str, "output_format": str, "spectrum_damping_time": float}

_KNOWN_KEYS = {*_SYSTEM_SETTINGS, *_ESTIMATOR_SETTINGS, *_RUN_SETTINGS} | {
    "scenario",
    "estimators",
    "state_q",
    "state_p",
    "state_sigma",
    "state_weights",
} | set(_INLINE_TERM_KEYS) | {key + "_cos" for key in _INLINE_TERM_KEYS}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _term(entries: dict, key: str) -> CoordFunction:
    coeffs = _floats(entries.get(key, "0"), key)
    try:
        cos_amp = float(entries.get(key + "_cos") or 0.0)
    except ValueError as exc:
        raise ConfigError(f"{key}_cos: {exc}") from exc
    try:
        return CoordFunction(tuple(coeffs), cos_amp)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _inline_system(entries: dict) -> Scenario:
    """One-dimensional scenario named ``inline`` from inline definition keys."""
    h_prime = SeparableHamiltonian(
        (_term(entries, "kinetic_prime"),), (_term(entries, "potential_prime"),)
    )
    h_double = SeparableHamiltonian(
        (_term(entries, "kinetic_double_prime"),),
        (_term(entries, "potential_double_prime"),),
    )
    qs = _floats(entries.get("state_q", "0"), "state_q")
    if not qs:
        raise ConfigError("state_q: needs at least one centre")
    # a missing key gives each of the K = len(qs) components its default
    defaults = (("state_p", 0.0), ("state_sigma", 1.0), ("state_weights", 1.0 / len(qs)))
    ps, sigmas, weights = (
        _floats(entries[key], key) if key in entries else [value] * len(qs)
        for key, value in defaults
    )
    if not len(qs) == len(ps) == len(sigmas) == len(weights):
        raise ConfigError("state_q, state_p, state_sigma, state_weights lengths differ")
    try:
        pair = make_pair(h_prime, h_double)
        comps = tuple(
            GaussianComponent([q], [p], [s], w)
            for q, p, s, w in zip(qs, ps, sigmas, weights)
        )
        state = InitialState(comps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario("inline", pair, state)


def _parse_settings(entries: dict, parsers: dict) -> dict:
    """Parse the ``entries`` that ``parsers`` names, naming the key of a bad value."""
    settings = {}
    for key, parse in parsers.items():
        if key in entries:
            try:
                settings[key] = parse(entries[key])
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return settings


def build_run_config(entries: dict, overrides: dict | None = None) -> RunConfig:
    entries = dict(entries)
    if overrides:
        entries.update({k: str(v) for k, v in overrides.items() if v is not None})

    est_raw = entries.get("estimators", "")
    estimators = [tok for tok in est_raw.replace(",", " ").split() if tok]
    if not estimators:
        raise ConfigError("at least one estimator must be requested")
    for name in estimators:
        if name not in ESTIMATORS:
            raise ConfigError(
                f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}"
            )

    scenario_name = entries.get("scenario")
    if scenario_name is not None:
        if scenario_name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {scenario_name!r}")
        sc = load(scenario_name)
    else:
        if not any(key in entries for key in _INLINE_TERM_KEYS):
            raise ConfigError("config needs either a scenario or an inline system")
        sc = _inline_system(entries)

    system_settings, est_settings, run_settings = (
        _parse_settings(entries, parsers)
        for parsers in (_SYSTEM_SETTINGS, _ESTIMATOR_SETTINGS, _RUN_SETTINGS)
    )
    system = replace(sc, name=system_settings.pop("label", sc.name), **system_settings)
    try:
        est_cfg = EstimatorConfig(
            tau=system.tau, n_steps=system.n_steps, hbar=system.hbar,
            **{**_ESTIMATOR_DEFAULTS, **est_settings},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(estimators, system, est_cfg, raw=dict(entries), **run_settings)

    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.output_format!r}")
    if cfg.reference not in ("average", "h_prime"):
        raise ConfigError(f"unknown reference {cfg.reference!r}")
    if not _is_power_of_two(system.grid_points):
        raise ConfigError(f"grid_points: expected a power of two, got {system.grid_points}")
    if system.periodic and system.grid_extent is None:
        raise ConfigError("periodic: needs grid_extent, which sets the period")
    if cfg.spectrum_damping_time is not None:
        if not cfg.spectrum_damping_time > 0.0:
            raise ConfigError("spectrum_damping_time must be positive")
        if est_cfg.n_steps + 1 < MIN_SERIES_LENGTH:
            raise ConfigError(f"spectra need n_steps >= {MIN_SERIES_LENGTH - 1}")
    return cfg


# ---------------------------------------------------------------------------
# running


def _exact(cfg: RunConfig) -> FidelitySeries:
    sc = cfg.system
    grid = None
    if sc.grid_extent is not None:
        dims = sc.state.dims
        grid = Grid((sc.grid_extent,) * dims, (sc.grid_points,) * dims, periodic=sc.periodic)
    return fidelity_exact(
        sc.state, sc.pair, sc.n_steps, sc.tau, hbar=sc.hbar, grid=grid, points=sc.grid_points
    )


# name -> estimator run on a RunConfig.  Each entry looks its estimator up by
# module-level name at call time, so a rebinding of that name (a tracer, a
# test double) is seen.
ESTIMATORS = {
    "exact": _exact,
    "f0": lambda cfg: f0(cfg.system.state, cfg.system.pair, cfg.estimator_config),
    "f1": lambda cfg: f1_dr(
        cfg.system.state, cfg.system.pair, cfg.estimator_config, reference=cfg.reference
    ),
    "f2_mc": lambda cfg: f2_mc(cfg.system.state, cfg.system.pair, cfg.estimator_config),
    "f2_gaussian": lambda cfg: f2_gaussian_chain(
        cfg.system.state, cfg.system.pair, cfg.estimator_config
    ),
}


def run(cfg: RunConfig, out_dir: Path, threads: int = 1) -> dict:
    """Execute the configured estimators and write all output files.

    Independent estimators may run on a thread pool; each one is computed by
    single-threaded deterministic reductions, so results do not depend on
    ``threads``.  ``out_dir`` is created only once every estimator has
    returned, so a run that aborts leaves no directory behind.  Returns the
    mapping estimator name -> FidelitySeries.
    """
    names = list(cfg.estimators)

    def timed(name):
        start = time.perf_counter()
        series = ESTIMATORS[name](cfg)
        return series, time.perf_counter() - start

    if threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(timed, names))
    else:
        outcomes = [timed(name) for name in names]
    results = {name: series for name, (series, _) in zip(names, outcomes)}
    timings = {name: seconds for name, (_, seconds) in zip(names, outcomes)}

    start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = cfg.output_format
    for name, series in results.items():
        write_series(series, out_dir / f"{name}.{suffix}")
    exact = results.get("exact")
    if exact is not None and len(results) > 1:
        devs = {n: s.deviation_from(exact) for n, s in results.items() if n != "exact"}
        write_table(out_dir / f"comparison.{suffix}", {
            "step": np.arange(len(exact)), "time": exact.times,
            **{f"abs_dev_{n}": dev for n, dev in devs.items()},
        })
        summary = {n: float(np.max(dev)) for n, dev in devs.items()}
        (out_dir / "comparison_max.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n"
        )
    if cfg.spectrum_damping_time is not None:
        for name, series in results.items():
            spec = spectrum(series, cfg.spectrum_damping_time)
            write_table(out_dir / f"spectrum_{name}.csv", {
                "frequency": spec.frequencies, "intensity": spec.intensities,
            })
    timings["outputs"] = time.perf_counter() - start

    metadata = {
        "package": "loschmidt",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": cfg.raw,
        "label": cfg.system.name,
        "scenario": cfg.raw.get("scenario"),
        "estimators": names,
        **cfg.estimator_config.run_meta,
        "reference": cfg.reference,
        "output_format": cfg.output_format,
        "timings_s": timings,
    }
    (out_dir / "run_metadata.json").write_text(
        json.dumps(metadata, indent=1, sort_keys=True) + "\n"
    )
    return results


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args) -> int:
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return EXIT_CONFIG
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        entries = parse_config_text(config_path.read_text())
        overrides = {"seed": args.seed}
        cfg = build_run_config(entries, overrides)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.output_dir) if args.output_dir else config_path.parent / (
        config_path.stem + "_out"
    )
    try:
        results = run(cfg, out_dir, threads=args.threads)
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        TrajectoryEscapeError,
        GridLeakError,
        AliasingError,
        SingularExponentError,
        NonFiniteSeriesError,
    ) as exc:
        print(f"error: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for name, series in sorted(results.items()):
        tail = abs(series.values[-1])
        print(f"{name}: {len(series)} steps written, |f(T)| = {tail:.6f}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _cmd_scenarios(_args) -> int:
    for name in SCENARIO_NAMES:
        sc = load(name)
        exact = ", ".join(k for k, v in sorted(sc.exactness.items()) if v == "exact")
        print(
            f"{name:20s} tau={sc.tau:<5g} N={sc.n_steps:<4d} "
            f"exact: {exact or 'none'}  ({sc.description})"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loschmidt",
        description="Fidelity-amplitude runs on kicked quantum maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)
    p_scen = sub.add_parser("scenarios", help="list preset scenarios")
    p_scen.set_defaults(func=_cmd_scenarios)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
