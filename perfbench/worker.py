"""One workload in a fresh process: set-up, timed passes, optional tracing.

Started by ``run.py`` with one thread per numerical library; it writes its
measurements and the series of the first pass to ``<work>/child.json``.
With ``--setup-only`` it measures the set-up and exits.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# spans whose summed duration is ``hamiltonians.eval.s``
EVAL_SPANS = tuple(
    f"hamiltonians.SeparableHamiltonian.{m}"
    for m in ("value", "kinetic_d1", "potential_d1", "potential_d2")
)
MC_ESTIMATORS = {"f0": "estimators.f0", "f1": "estimators.f1_dr", "f2_mc": "estimators.f2_mc"}
MAP_STEP_PROBE_STEPS = 50


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    work = Path(args.work)

    t0 = time.perf_counter()
    import loschmidt

    if not Path(loschmidt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported loschmidt from {loschmidt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS[args.workload]
    calls = build(args.seed, args.smoke, work)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        _write(work, {"setup_s": setup_s})
        return 0

    out = {"setup_s": setup_s, "passes": [], "series": None}
    # the probe runs while the process is fresh: after a workload has run, the
    # allocator state it leaves behind changes the probe's time up to 3x
    probe_ns = _map_step_probe(args.seed, args.smoke) if args.trace else None
    start = time.perf_counter()
    if args.trace:
        import spans

        traced = []
        while not traced or time.perf_counter() - start < args.seconds:
            out["passes"].append(_timed_pass(calls, out))
            setup_tracer = spans.Tracer()
            with setup_tracer.installed(), setup_tracer.span(spans.ROOT):
                traced_calls = build(args.seed, args.smoke, work)
            tracer = spans.Tracer(_hooks())
            with tracer.installed(), tracer.span(spans.ROOT):
                p = _timed_pass(traced_calls, out, run_only=True)
            _collect(traced_calls, p, out)
            p["traced"] = True
            out["passes"].append(p)
            traced.append(_layer_metrics(tracer, p, setup_tracer))
        untraced_wall = statistics.median(p["wall_s"] for p in out["passes"] if not p["traced"])
        metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        metrics["tracing.overhead_frac"] = metrics.pop("traced_wall_s") / untraced_wall - 1.0
        metrics["dynamics.map_step.ns_per_point"] = probe_ns
        metrics["qgrid.leak_check_share"] = _leak_check_share(tracer.counts.get("exact_calls", []))
        out["layer_metrics"] = metrics
    else:
        while not out["passes"] or time.perf_counter() - start < args.seconds:
            out["passes"].append(_timed_pass(calls, out))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write(work, out)
    return 0


def _write(work: Path, payload: dict) -> None:
    (work / "child.json").write_text(json.dumps(payload))


def _digest(arr, dtype) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def _timed_pass(calls, out, run_only=False) -> dict:
    """Run every call back to back; ``wall_s`` covers exactly these runs."""
    results, call_s = [], {}
    begin = time.perf_counter()
    for call in calls:
        c0 = time.perf_counter()
        try:
            results.append(call.run())
        except Exception as exc:  # a failing call is counted, the pass goes on
            results.append(exc)
        call_s[call.id] = time.perf_counter() - c0
    wall = time.perf_counter() - begin
    times = {}
    for call in calls:
        if call.metric:
            times[call.metric] = times.get(call.metric, 0.0) + call_s[call.id]
    p = {"traced": False, "wall_s": wall, "times": times, "call_s": call_s, "results": results}
    if not run_only:
        _collect(calls, p, out)
    return p


def _collect(calls, p, out) -> None:
    """Turn a pass's results into digests (untimed); keep the first pass's series."""
    import numpy as np

    digests, errors, written = {}, {}, 0
    first = out["series"] is None
    series_out = {} if first else None
    for call, result in zip(calls, p.pop("results")):
        try:
            if isinstance(result, Exception):
                raise result
            series = call.collect(result)
        except Exception as exc:
            for sid in call.expects:
                errors[sid] = f"{type(exc).__name__}: {exc}"
            series = {}
        finally:
            written += call.finish().get("bytes_written", 0)
        for sid in call.expects:
            if sid not in series:
                errors.setdefault(sid, "series missing")
                continue
            s = series[sid]
            digests[sid] = [_digest(s.values, np.complex128), _digest(s.stderr, np.float64)]
            if first:
                series_out[sid] = {
                    "estimator": s.estimator,
                    "scenario": s.scenario,
                    "n_steps": s.n_steps,
                    "re": np.real(s.values).tolist(),
                    "im": np.imag(s.values).tolist(),
                    "stderr": np.asarray(s.stderr, dtype=float).tolist(),
                }
    if first:
        out["series"] = series_out
    p.update(digests=digests, errors=errors, bytes_written=written)


# ---------------------------------------------------------------------------
# tracing


def _hooks():
    def sample(a, result, counts):
        counts["sample_points"] = counts.get("sample_points", 0) + a["n"]

    def traj(a, result, counts):
        cfg = a["config"]
        counts["traj_steps"] = counts.get("traj_steps", 0) + cfg.n_traj * cfg.n_steps

    def f2_mc(a, result, counts):
        traj(a, result, counts)
        counts.setdefault("ess_frac", []).append(
            result.meta["effective_sample_size"] / a["config"].n_traj
        )

    def exact(a, result, counts):
        points = math.prod(result.meta["grid_points"])
        steps = points * 2 * len(a["state"].components) * a["n_steps"]
        counts["point_steps"] = counts.get("point_steps", 0) + steps
        counts.setdefault("exact_calls", []).append(dict(a))

    return {
        "states.sample": sample,
        "estimators.f0": traj,
        "estimators.f1_dr": traj,
        "estimators.f2_mc": f2_mc,
        "qgrid.fidelity_exact": exact,
    }


def _layer_metrics(tracer, p, setup_tracer) -> dict:
    import spans

    wall = p["wall_s"]
    dur = tracer.durations
    m = {"traced_wall_s": wall}
    m["states.sample.s"] = dur("states.sample")[0]
    m["states.sample.points"] = tracer.counts.get("sample_points", 0)
    evals = [dur(name) for name in EVAL_SPANS]
    m["hamiltonians.eval.s"] = sum(t for t, _ in evals)
    m["hamiltonians.eval.calls"] = sum(c for _, c in evals)
    m["dynamics.check_escape.s"], m["dynamics.check_escape.calls"] = dur("dynamics.check_escape")
    for short, name in MC_ESTIMATORS.items():
        m[f"estimators.{short}.self_s"] = tracer.self_time(lambda n, name=name: n == name)
    steps = tracer.counts.get("traj_steps", 0)
    mc_s = sum(dur(name)[0] for name in MC_ESTIMATORS.values())
    m["estimators.traj_steps"] = steps
    m["estimators.ns_per_traj_step"] = 1e9 * mc_s / steps if steps else 0.0
    m["estimators.f2_mc.ess_frac"] = min(tracer.counts.get("ess_frac", [0.0]))
    exact_s = dur("qgrid.fidelity_exact")[0]
    point_steps = tracer.counts.get("point_steps", 0)
    m["qgrid.fidelity_exact.s"] = exact_s
    m["qgrid.point_steps"] = point_steps
    m["qgrid.ns_per_point_step"] = 1e9 * exact_s / point_steps if point_steps else 0.0
    m["spectra.spectrum.s"] = dur("spectra.spectrum")[0]
    m["cli.main.s"] = dur("cli.main")[0]
    m["cli.bytes_written"] = p["bytes_written"]
    m["presets.load.s"] = dur("presets.load")[0] + setup_tracer.durations("presets.load")[0]
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = tracer.self_time(lambda n, layer=layer: spans.layer_of(n) == layer)
    m["bench.self_s"] = tracer.self_time(lambda n: n == spans.ROOT)
    m["tracing.spans"] = len(tracer.spans)
    root_s = dur(spans.ROOT)[0]
    m["tracing.self_sum_frac"] = tracer.self_time(lambda n: True) / root_s
    return m


def _map_step_probe(seed: int, smoke: bool) -> float:
    """ns per point of the public ``map_step`` on a 1e5-point ensemble."""
    import loschmidt as lm

    sc = lm.load("cubic_perturbation")
    n = 2_000 if smoke else 100_000
    runs = []
    for _ in range(3):
        q, p = lm.sample(sc.state, n, seed)
        t0 = time.perf_counter()
        for _ in range(MAP_STEP_PROBE_STEPS):
            q, p = lm.map_step(q, p, sc.pair.average, sc.tau)
        runs.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(runs) / (MAP_STEP_PROBE_STEPS * n)


def _leak_check_share(exact_calls) -> float:
    """1 - t(check_leaks=False) / t(check_leaks=True) over the workload's
    own ``fidelity_exact`` calls, untraced; 0 when it makes none."""
    import loschmidt as lm

    if not exact_calls:
        return 0.0
    t = {True: 0.0, False: 0.0}
    for kwargs in exact_calls:
        for check in (True, False):
            t0 = time.perf_counter()
            lm.fidelity_exact(**{**kwargs, "check_leaks": check})
            t[check] += time.perf_counter() - t0
    return 1.0 - t[False] / t[True]


if __name__ == "__main__":
    sys.exit(main())
