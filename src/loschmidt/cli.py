"""Batch runner: parse a flat key=value config, run estimators, write files.

Output tables are written by ``loschmidt.series``, which also reads series
files back bit-exactly.  Exit codes: 0 success, 2 invalid configuration,
3 numerical abort (a ``NumericalError``; diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import EstimatorConfig, _shared_ensembles, f0, f1_dr, f2_gaussian_chain, f2_mc
from .hamiltonians import CoordFunction, PairOverflowError, SeparableHamiltonian, make_pair
from .presets import SCENARIO_NAMES, Scenario, load
from .qgrid import _is_power_of_two, fidelity_exact
from .series import NumericalError, write_series, write_table
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
    spectrum_damping_time: float | None = None
    raw: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing

# defaults of the EstimatorConfig fields that neither it nor a Scenario sets
_ESTIMATOR_DEFAULTS = {"n_traj": 10000, "seed": 7}


def _number(text: str) -> float:
    """Parse any config number; nan and inf are refused before a run starts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str) -> list:
    """One or more finite numbers, separated by spaces or commas."""
    try:
        values = [_number(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []  # reported below, like a value with no numbers
    if not values:
        raise ValueError(f"expected finite numbers, got {text!r}")
    return values


def _checked(parse, ok, expected: str):
    """``parse``, refusing a value for which ``ok`` is false."""
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {text!r}")
        return value
    return parse_checked


def _one_of(*options: str):
    return _checked(str, options.__contains__, " or ".join(options))


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(text: str) -> bool:
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}") from None


def _estimator_names(text: str) -> list:
    names = text.replace(",", " ").split()
    for name in names or [text]:  # a value of commas only is an unknown name
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}")
        if names.count(name) > 1:
            raise ValueError(f"duplicate estimator {name!r}")
    return names


def _scenario(text: str) -> Scenario:
    if text not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {text!r}")
    return load(text)


def _polynomial(text: str) -> CoordFunction:
    return CoordFunction(tuple(_floats(text)))


_TERM_KEYS = (
    "kinetic_prime", "kinetic_double_prime", "potential_prime", "potential_double_prime"
)

# every config key -> (where its value goes, its parser).  A config names a
# ``scenario`` or defines an ``inline`` system; ``system`` values go into the
# run's Scenario (``label`` becomes its name), ``estimator`` values into its
# EstimatorConfig and ``run`` values into the RunConfig itself.  A parser
# takes the value's text and raises a plain ValueError; build_run_config puts
# the key in front of its message.
_KEYS = {
    "scenario": ("scenario", _scenario),
    **{key: ("inline", _polynomial) for key in _TERM_KEYS},
    **{key + "_cos": ("inline", _number) for key in _TERM_KEYS},
    **{f"state_{name}": ("inline", _floats) for name in ("q", "p", "sigma", "weights")},
    "tau": ("system", _number),
    "n_steps": ("system", int),
    "hbar": ("system", _number),
    "grid_points": ("system", _checked(int, _is_power_of_two, "a power of two")),
    "grid_extent": ("system", _checked(
        lambda text: tuple(_floats(text)), lambda ext: len(ext) == 2 and ext[0] < ext[1],
        "an increasing pair",
    )),
    "periodic": ("system", _flag),
    "label": ("system", str),
    "n_traj": ("estimator", int),
    "seed": ("estimator", int),
    "estimators": ("run", _estimator_names),
    "reference": ("run", _one_of("average", "h_prime")),
    # kept so that configs naming it still run; CSV is the only table format
    "output_format": ("run", _one_of("csv")),
    "spectrum_damping_time": ("run", _checked(_number, lambda t: t > 0.0, "a positive number")),
}


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _term(inline: dict, key: str) -> CoordFunction:
    return replace(inline.get(key, CoordFunction()), cos_amp=inline.get(key + "_cos", 0.0))


def _inline_system(inline: dict) -> Scenario:
    """One-dimensional scenario named ``inline`` from the parsed inline keys."""
    h_prime, h_double = (
        SeparableHamiltonian((_term(inline, "kinetic" + h),), (_term(inline, "potential" + h),))
        for h in ("_prime", "_double_prime")
    )
    qs = inline.get("state_q", [0.0])
    # a missing key gives each of the K = len(qs) components its default
    defaults = (("state_p", 0.0), ("state_sigma", 1.0), ("state_weights", 1.0 / len(qs)))
    ps, sigmas, weights = (inline.get(key, [value] * len(qs)) for key, value in defaults)
    if not len(qs) == len(ps) == len(sigmas) == len(weights):
        raise ConfigError("state_q, state_p, state_sigma, state_weights lengths differ")
    try:
        pair = make_pair(h_prime, h_double)
    except PairOverflowError as exc:
        keys = [f"{exc.part}{h}{cos}" for cos in ("", "_cos") for h in ("_prime", "_double_prime")]
        raise ConfigError(f"{', '.join(k for k in keys if k in inline)}: {exc}") from exc
    try:
        comps = tuple(
            GaussianComponent([q], [p], [s], w)
            for q, p, s, w in zip(qs, ps, sigmas, weights)
        )
        state = InitialState(comps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario("inline", pair, state)


def build_run_config(entries: dict) -> RunConfig:
    """Parse each of the ``entries`` (from ``parse_config_text``) once, by
    its key's parser, and check the values that depend on one another."""
    parsed = {dest: {} for dest, _ in _KEYS.values()}
    for key, text in entries.items():
        dest, parse = _KEYS[key]
        try:
            if not text:
                raise ValueError("needs a value")
            parsed[dest][key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    inline, settings, run_settings = parsed["inline"], parsed["system"], parsed["run"]
    run_settings.pop("output_format", None)
    if "estimators" not in run_settings:
        raise ConfigError("at least one estimator must be requested")
    sc = parsed["scenario"].get("scenario")
    if sc is None and not inline:
        raise ConfigError("config needs either a scenario or an inline system")
    if sc is not None and inline:
        raise ConfigError(
            f"scenario {sc.name!r} takes no inline system keys; got {', '.join(inline)}"
        )
    sc = sc or _inline_system(inline)

    system = replace(sc, name=settings.pop("label", sc.name), **settings)
    try:
        est_cfg = EstimatorConfig(
            tau=system.tau, n_steps=system.n_steps, hbar=system.hbar,
            **{**_ESTIMATOR_DEFAULTS, **parsed["estimator"]},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(system=system, estimator_config=est_cfg, raw=dict(entries), **run_settings)

    if system.periodic and system.grid_extent is None:
        raise ConfigError("periodic: needs grid_extent, which sets the period")
    if cfg.spectrum_damping_time is not None and est_cfg.n_steps + 1 < MIN_SERIES_LENGTH:
        raise ConfigError(f"spectra need n_steps >= {MIN_SERIES_LENGTH - 1}")
    return cfg


# ---------------------------------------------------------------------------
# running


# name -> estimator run on a RunConfig.  Each entry looks its estimator up by
# module-level name at call time, so a rebinding of that name (a tracer, a
# test double) is seen.
ESTIMATORS = {
    "exact": lambda cfg: fidelity_exact(
        cfg.system.state, cfg.system.pair, cfg.estimator_config.n_steps, cfg.estimator_config.tau,
        hbar=cfg.estimator_config.hbar, points=cfg.system.grid_points,
        extent=cfg.system.grid_extent, periodic=cfg.system.periodic,
    ),
    "f0": lambda cfg: f0(cfg.system.state, cfg.system.pair, cfg.estimator_config),
    "f1": lambda cfg: f1_dr(
        cfg.system.state, cfg.system.pair, cfg.estimator_config, reference=cfg.reference
    ),
    "f2_mc": lambda cfg: f2_mc(cfg.system.state, cfg.system.pair, cfg.estimator_config),
    "f2_gaussian": lambda cfg: f2_gaussian_chain(
        cfg.system.state, cfg.system.pair, cfg.estimator_config
    ),
}


def run(cfg: RunConfig, out_dir: Path) -> dict:
    """Execute the configured estimators in config order and write all
    output files.

    Estimators that follow one trajectory ensemble compute it once per run
    (``f1`` on the average Hamiltonian and ``f2_mc`` on an affine
    perturbation), and the later one's timing is then near zero.
    ``out_dir`` is created only once every estimator has returned, so a run
    that aborts leaves no directory behind.  ``run_metadata.json`` holds
    each series' meta under ``series``.
    Returns the mapping estimator name -> FidelitySeries.
    """
    results, timings = {}, {}
    with _shared_ensembles():
        for name in cfg.estimators:
            start = time.perf_counter()
            results[name] = ESTIMATORS[name](cfg)
            timings[name] = time.perf_counter() - start

    start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, series in results.items():
        write_series(series, out_dir / f"{name}.csv")
    exact = results.get("exact")
    if exact is not None and len(results) > 1:
        devs = {n: np.abs(s.values - exact.values) for n, s in results.items() if n != "exact"}
        write_table(out_dir / "comparison.csv", {
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
        "estimators": cfg.estimators,
        **cfg.estimator_config.run_meta,
        "reference": cfg.reference,
        "timings_s": timings,
        "series": {name: series.meta for name, series in results.items()},
    }
    (out_dir / "run_metadata.json").write_text(
        json.dumps(metadata, indent=1, sort_keys=True) + "\n"
    )
    return results


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.output_dir) if args.output_dir else config_path.parent / (
        config_path.stem + "_out"
    )
    try:
        entries = parse_config_text(config_path.read_text())
        if args.seed is not None:
            entries["seed"] = str(args.seed)
        results = run(build_run_config(entries), out_dir)
    except ValueError as exc:  # ConfigError included
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
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
    p_run.set_defaults(func=_cmd_run)
    p_scen = sub.add_parser("scenarios", help="list preset scenarios")
    p_scen.set_defaults(func=_cmd_scenarios)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
