"""Batch runner: parse a flat key=value config, run estimators, write files.

Series files carry the columns step,time,re_f,im_f,abs_f_sq,stderr with
17-significant-digit numbers, so reading a file back reproduces the
in-memory series exactly.  Exit codes: 0 success, 2 invalid configuration,
3 numerical abort (diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TrajectoryEscapeError
from .estimators import (
    EstimatorConfig,
    FidelitySeries,
    SingularExponentError,
    f0,
    f1_dr,
    f2_gaussian_chain,
    f2_mc,
)
from .hamiltonians import CoordFunction, SeparableHamiltonian, make_pair
from .presets import SCENARIO_NAMES, load
from .qgrid import AliasingError, Grid, GridLeakError, fidelity_exact
from .spectra import spectrum
from .states import GaussianComponent, InitialState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    """Parsed configuration of one batch run."""

    estimators: list
    estimator_config: EstimatorConfig
    scenario: str | None = None
    pair: object = None
    state: object = None
    reference: str = "average"
    output_format: str = "csv"
    spectrum_damping_time: float | None = None
    grid_points: int = 4096
    grid_extent: tuple | None = None
    periodic: bool = False
    label: str = "run"
    raw: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# config parsing

_INLINE_TERM_KEYS = (
    "kinetic_prime",
    "kinetic_double_prime",
    "potential_prime",
    "potential_double_prime",
)

# defaults of the EstimatorConfig fields that have none of their own
_ESTIMATOR_DEFAULTS = {"tau": 0.05, "n_steps": 252, "n_traj": 10000, "seed": 7}
_ESTIMATOR_FIELDS = {f.name for f in fields(EstimatorConfig)}


def _floats(value: str) -> list:
    try:
        return [float(tok) for tok in value.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {value!r}") from exc


def _extent(value: str) -> tuple:
    ext = _floats(value)
    if len(ext) != 2:
        raise ValueError("needs two numbers")
    return (ext[0], ext[1])


# scalar settings: key -> parser; keys naming an EstimatorConfig field go
# there, the rest are RunConfig fields
_SETTINGS = {
    "tau": float,
    "n_steps": int,
    "hbar": float,
    "n_traj": int,
    "seed": int,
    "reference": str,
    "proposal_width_factor": float,
    "degenerate_a_threshold": float,
    "output_format": str,
    "spectrum_damping_time": float,
    "grid_points": int,
    "grid_extent": _extent,
    "label": str,
}

_KNOWN_KEYS = set(_SETTINGS) | {
    "scenario",
    "estimators",
    "state_q",
    "state_p",
    "state_sigma",
    "state_weights",
    "kinetic_prime_cos",
    "kinetic_double_prime_cos",
    "potential_prime_cos",
    "potential_double_prime_cos",
} | set(_INLINE_TERM_KEYS)


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
    coeffs = _floats(entries.get(key, "0"))
    cos_amp = float(entries.get(key + "_cos", 0.0) or 0.0)
    try:
        return CoordFunction(tuple(coeffs), cos_amp)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _inline_system(entries: dict):
    """One-dimensional pair + state from inline definition keys."""
    h_prime = SeparableHamiltonian(
        (_term(entries, "kinetic_prime"),), (_term(entries, "potential_prime"),)
    )
    h_double = SeparableHamiltonian(
        (_term(entries, "kinetic_double_prime"),),
        (_term(entries, "potential_double_prime"),),
    )
    qs = _floats(entries.get("state_q", "0"))
    ps = _floats(entries.get("state_p", "0"))
    sigmas = _floats(entries.get("state_sigma", "1"))
    weights = _floats(entries.get("state_weights", " ".join(["1"] * len(qs))))
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
    return pair, state


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
        pair, state = sc.pair, sc.state
        settings = {
            "scenario": sc.name, "label": sc.name, "tau": sc.tau,
            "n_steps": sc.n_steps, "hbar": sc.hbar, "grid_points": sc.grid_points,
            "grid_extent": sc.grid_extent, "periodic": sc.periodic,
        }
    else:
        if not any(key in entries for key in _INLINE_TERM_KEYS):
            raise ConfigError("config needs either a scenario or an inline system")
        pair, state = _inline_system(entries)
        settings = {"label": "inline"}

    for key, parse in _SETTINGS.items():
        if key in entries:
            try:
                settings[key] = parse(entries[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    est_settings = {k: settings.pop(k) for k in list(settings) if k in _ESTIMATOR_FIELDS}
    try:
        est_cfg = EstimatorConfig(**{**_ESTIMATOR_DEFAULTS, **est_settings})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(
        estimators=estimators, estimator_config=est_cfg, pair=pair, state=state,
        raw=dict(entries), **settings,
    )

    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.output_format!r}")
    if cfg.reference not in ("average", "h_prime"):
        raise ConfigError(f"unknown reference {cfg.reference!r}")
    return cfg


# ---------------------------------------------------------------------------
# series file IO


def write_series_csv(series: FidelitySeries, path: Path) -> None:
    lines = ["step,time,re_f,im_f,abs_f_sq,stderr"]
    for n in range(len(series)):
        v = series.values[n]
        row = (n, series.times[n], v.real, v.imag, abs(v) ** 2, series.stderr[n])
        lines.append(
            "%d," % row[0] + ",".join(_FLOAT_FMT % x for x in row[1:])
        )
    path.write_text("\n".join(lines) + "\n")


def read_series_csv(path: Path) -> FidelitySeries:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header != ["step", "time", "re_f", "im_f", "abs_f_sq", "stderr"]:
        raise ValueError(f"unexpected series header in {path}")
    times, values, stderr = [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        times.append(float(cells[1]))
        values.append(complex(float(cells[2]), float(cells[3])))
        stderr.append(float(cells[5]))
    return FidelitySeries(np.array(times), np.array(values), np.array(stderr))


def write_series_json(series: FidelitySeries, path: Path) -> None:
    payload = {
        "meta": series.meta,
        "step": list(range(len(series))),
        "time": series.times.tolist(),
        "re_f": series.values.real.tolist(),
        "im_f": series.values.imag.tolist(),
        "abs_f_sq": (np.abs(series.values) ** 2).tolist(),
        "stderr": series.stderr.tolist(),
    }
    path.write_text(json.dumps(payload, indent=1, default=repr) + "\n")


def read_series_json(path: Path) -> FidelitySeries:
    payload = json.loads(Path(path).read_text())
    values = np.array(payload["re_f"]) + 1j * np.array(payload["im_f"])
    return FidelitySeries(
        np.array(payload["time"]), values, np.array(payload["stderr"]),
        payload.get("meta", {}),
    )


# ---------------------------------------------------------------------------
# running


def _exact(cfg: RunConfig) -> FidelitySeries:
    est = cfg.estimator_config
    grid = None
    if cfg.grid_extent is not None:
        grid = Grid(
            (cfg.grid_extent,) * cfg.state.dims,
            (cfg.grid_points,) * cfg.state.dims,
            periodic=cfg.periodic,
        )
    return fidelity_exact(
        cfg.state, cfg.pair, est.n_steps, est.tau, hbar=est.hbar,
        grid=grid, points=cfg.grid_points,
    )


# name -> estimator run on a RunConfig.  Each entry looks its estimator up by
# module-level name at call time, so a rebinding of that name (a tracer, a
# test double) is seen.
ESTIMATORS = {
    "exact": _exact,
    "f0": lambda cfg: f0(cfg.state, cfg.pair, cfg.estimator_config),
    "f1": lambda cfg: f1_dr(
        cfg.state, cfg.pair, cfg.estimator_config, reference=cfg.reference
    ),
    "f2_mc": lambda cfg: f2_mc(cfg.state, cfg.pair, cfg.estimator_config),
    "f2_gaussian": lambda cfg: f2_gaussian_chain(cfg.state, cfg.pair, cfg.estimator_config),
}


def _write_comparison(results: dict, out_dir: Path, fmt: str) -> None:
    exact = results["exact"]
    others = [name for name in results if name != "exact"]
    devs = {name: results[name].deviation_from(exact) for name in others}
    if fmt == "csv":
        header = "step,time," + ",".join(f"abs_dev_{n}" for n in others)
        lines = [header]
        for n in range(len(exact)):
            cells = ["%d" % n, _FLOAT_FMT % exact.times[n]]
            cells += [_FLOAT_FMT % devs[name][n] for name in others]
            lines.append(",".join(cells))
        (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "step": list(range(len(exact))),
            "time": exact.times.tolist(),
        }
        payload.update({f"abs_dev_{n}": devs[n].tolist() for n in others})
        (out_dir / "comparison.json").write_text(json.dumps(payload, indent=1) + "\n")
    summary = {name: float(np.max(devs[name])) for name in others}
    (out_dir / "comparison_max.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n"
    )


def run(cfg: RunConfig, out_dir: Path, threads: int = 1) -> dict:
    """Execute the configured estimators and write all output files.

    Independent estimators may run on a thread pool; each one is computed by
    single-threaded deterministic reductions, so results do not depend on
    ``threads``.  Returns the mapping estimator name -> FidelitySeries.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(cfg.estimators)
    if threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            series_list = list(pool.map(lambda n: ESTIMATORS[n](cfg), names))
        results = dict(zip(names, series_list))
    else:
        results = {name: ESTIMATORS[name](cfg) for name in names}

    writer = write_series_csv if cfg.output_format == "csv" else write_series_json
    suffix = "csv" if cfg.output_format == "csv" else "json"
    for name, series in results.items():
        writer(series, out_dir / f"{name}.{suffix}")
    if "exact" in results and len(results) > 1:
        _write_comparison(results, out_dir, cfg.output_format)
    if cfg.spectrum_damping_time is not None:
        for name, series in results.items():
            spec = spectrum(series, cfg.spectrum_damping_time)
            lines = ["frequency,intensity"]
            lines += [
                (_FLOAT_FMT + "," + _FLOAT_FMT) % (w, i)
                for w, i in zip(spec.frequencies, spec.intensities)
            ]
            (out_dir / f"spectrum_{name}.csv").write_text("\n".join(lines) + "\n")

    est = cfg.estimator_config
    metadata = {
        "package": "loschmidt",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": cfg.raw,
        "label": cfg.label,
        "scenario": cfg.scenario,
        "estimators": names,
        "seed": est.seed,
        "n_traj": est.n_traj,
        "tau": est.tau,
        "n_steps": est.n_steps,
        "hbar": est.hbar,
        "reference": cfg.reference,
        "output_format": cfg.output_format,
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
