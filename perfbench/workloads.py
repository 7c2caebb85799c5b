"""The four benchmark workloads: inputs built from a seed, and the calls
that make up one timed pass.

Every workload is a list of ``Call`` objects.  ``run`` is the timed part;
``collect`` turns its result into output series outside the timed section.
Calls look their estimator up on the package at call time, so a tracer
that rebinds the package names sees them.
"""
from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import loschmidt as lm

# estimator -> end-to-end metric that the time of its direct calls counts toward
METRIC_OF = {
    "exact": "exact_s",
    "f0": "f0_s",
    "f1": "f1_s",
    "f2_mc": "f2_mc_s",
    "f2_gaussian": "f2_gaussian_s",
}

# estimators each preset supports: the closed-form chain needs polynomial
# terms of degree <= 2, which rules out the cubic, cosine and quartic presets
SWEEP_ESTIMATORS = {
    "linear_gradient": ("exact", "f0", "f1", "f2_mc", "f2_gaussian"),
    "displaced_ho": ("exact", "f0", "f1", "f2_mc", "f2_gaussian"),
    "ho_diff_k": ("exact", "f0", "f1", "f2_mc", "f2_gaussian"),
    "cubic_perturbation": ("exact", "f0", "f1", "f2_mc"),
    "kicked_rotor": ("exact", "f0", "f1", "f2_mc"),
    "morse_like": ("exact", "f0", "f1", "f2_mc"),
}


@dataclass
class Series:
    """One output series with what the checks need to know about it."""

    estimator: str
    scenario: str | None  # preset name, or None for a hand-built input
    n_steps: int
    values: np.ndarray
    stderr: np.ndarray


@dataclass
class Call:
    id: str
    metric: str | None  # end-to-end metric the call's time counts toward
    expects: tuple  # ids of the series the call produces
    run: Callable[[], object]
    collect: Callable[[object], dict]
    # untimed, after collect: per-call numbers such as bytes written, and cleanup
    finish: Callable[[], dict] = dict


def _direct(sid, estimator, scenario, n_steps, run):
    def collect(result):
        return {sid: Series(estimator, scenario, n_steps, result.values, result.stderr)}

    return Call(sid, METRIC_OF[estimator], (sid,), run, collect)


# ---------------------------------------------------------------------------


def mc_ensemble(seed: int, smoke: bool, work: Path):
    sc = lm.load("cubic_perturbation")
    n_steps = 20 if smoke else 252
    cfg = lm.EstimatorConfig(
        n_traj=2_000 if smoke else 100_000, seed=seed, tau=sc.tau, n_steps=n_steps
    )
    name = sc.name
    return [
        _direct(f"{name}/f0", "f0", name, n_steps, lambda: lm.f0(sc.state, sc.pair, cfg)),
        _direct(f"{name}/f1", "f1", name, n_steps, lambda: lm.f1_dr(sc.state, sc.pair, cfg)),
        _direct(f"{name}/f2_mc", "f2_mc", name, n_steps, lambda: lm.f2_mc(sc.state, sc.pair, cfg)),
    ]


def grid_exact(seed: int, smoke: bool, work: Path):
    n_1d = 20 if smoke else 1000
    n_2d = 20 if smoke else 252
    dho = lm.load("displaced_ho")
    morse = lm.load("morse_like")
    rotor = lm.load("kicked_rotor")
    rotor_grid = lm.Grid((rotor.grid_extent,), (rotor.grid_points,), periodic=True)
    mixture = lm.InitialState(
        (
            lm.GaussianComponent([0.5], [0.0], [1.0], 0.5),
            lm.GaussianComponent([-0.5], [0.5], [1.0], 0.5),
        )
    )
    pair_2d = lm.displaced_ho_pair(dims=2)
    state_2d = lm.InitialState.gaussian([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])

    def exact(sid, scenario, state, pair, n, tau, **kw):
        return _direct(
            sid, "exact", scenario, n,
            lambda: lm.fidelity_exact(state, pair, n, tau, **kw),
        )

    return [
        exact("displaced_ho/exact", "displaced_ho", dho.state, dho.pair, n_1d, dho.tau),
        exact("morse_like/exact", "morse_like", morse.state, morse.pair, n_1d, morse.tau),
        exact("kicked_rotor/exact", "kicked_rotor", rotor.state, rotor.pair, n_1d,
              rotor.tau, grid=rotor_grid),
        exact("displaced_ho_mixture/exact", None, mixture, dho.pair, n_1d, dho.tau),
        exact("displaced_ho_2d/exact", None, state_2d, pair_2d, n_2d, dho.tau, points=256),
    ]


def chain_closed_form(seed: int, smoke: bool, work: Path):
    calls = []
    # ho_diff_k runs the dense (n+1)x(n+1) path, displaced_ho the
    # degenerate 2x2 path of the same chain code
    for name, n_steps in (("ho_diff_k", 10 if smoke else 150), ("displaced_ho", 20 if smoke else 500)):
        sc = lm.load(name)
        cfg = lm.EstimatorConfig(n_traj=1, seed=seed, tau=sc.tau, n_steps=n_steps)
        calls.append(
            _direct(
                f"{name}/f2_gaussian", "f2_gaussian", name, n_steps,
                lambda sc=sc, cfg=cfg: lm.f2_gaussian_chain(sc.state, sc.pair, cfg),
            )
        )
    return calls


def preset_sweep(seed: int, smoke: bool, work: Path):
    import loschmidt.cli  # part of this workload's set-up only

    calls = []
    for name, estimators in SWEEP_ESTIMATORS.items():
        lines = [
            f"scenario = {name}",
            f"estimators = {', '.join(estimators)}",
            f"seed = {seed}",
            "output_format = csv",
            "spectrum_damping_time = 4.0",
        ]
        if smoke:
            lines += ["n_traj = 500", "n_steps = 20"]
        cfg_path = work / f"{name}.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        out_dir = work / f"{name}_out"
        n_steps = 20 if smoke else lm.load(name).n_steps

        def run(cfg_path=cfg_path, out_dir=out_dir):
            return lm.cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)])

        def collect(code, name=name, estimators=estimators, out_dir=out_dir, n_steps=n_steps):
            if code != 0:
                raise RuntimeError(f"loschmidt run exited with code {code}")
            return {
                f"{name}/{est}": read_series_csv(out_dir / f"{est}.csv", est, name, n_steps)
                for est in estimators
            }

        def finish(out_dir=out_dir):
            if not out_dir.exists():
                return {}
            size = sum(p.stat().st_size for p in out_dir.iterdir())
            shutil.rmtree(out_dir)
            return {"bytes_written": size}

        calls.append(
            Call(f"{name}/cli_run", None, tuple(f"{name}/{e}" for e in estimators),
                 run, collect, finish)
        )
    return calls


def read_series_csv(path: Path, estimator: str, scenario: str, n_steps: int) -> Series:
    """Parse a series file written by ``loschmidt run`` (17 significant
    digits, so the parsed values are bit-identical to the computed ones).

    The benchmark parses the file itself rather than calling the package's
    reader, so a change that moves that reader needs no benchmark edit."""
    rows = path.read_text().strip().splitlines()
    if rows[0].split(",") != ["step", "time", "re_f", "im_f", "abs_f_sq", "stderr"]:
        raise ValueError(f"unexpected series header in {path.name}")
    table = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
    values = np.empty(len(table), dtype=complex)
    values.real, values.imag = table[:, 2], table[:, 3]
    return Series(estimator, scenario, n_steps, values, table[:, 5])


WORKLOADS = {
    "mc_ensemble": mc_ensemble,
    "grid_exact": grid_exact,
    "chain_closed_form": chain_closed_form,
    "preset_sweep": preset_sweep,
}
