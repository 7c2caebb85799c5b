"""Benchmark of the loschmidt package; see README.md in this directory.

    python3 perfbench/run.py --workload mc_ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Each run starts the workload in fresh single-threaded processes (several
set-up-only ones, then the measured one), computes the reference series
itself afterwards, checks every output series and prints one metric per
line followed by a JSON summary as the last line.  A result file with the
environment, the digests and the series goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("mc_ensemble", "grid_exact", "chain_closed_form", "preset_sweep")
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_SAMPLES = 21  # processes that set up; setup_s is the median of their times
DEADLINE_S = 170.0  # a run must end within 180 s

# correctness tolerances
F0_TOL = 1e-12  # |f(0) - 1|
UNITARY_TOL = 1e-12  # |f| <= 1 + tol for exact, f0, f1
CHAIN_TOL = 1e-6  # f2_gaussian vs exact (acceptance criterion 04)
F1_BAND_SIGMAS = 5.0  # f1 vs exact where the preset marks f1 exact
F1_BAND_ABS = 1e-9

# end-to-end metrics printed and stored but not in BENCHMARK.json, which
# needs every metric on every workload and never 0
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "exact_s": "s",
    "f0_s": "s",
    "f1_s": "s",
    "f2_mc_s": "s",
    "f2_gaussian_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# running


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "loschmidt" / "__init__.py").is_file():
        raise BenchError(f"no loschmidt source under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment_record()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.smoke:
            base.append("--smoke")
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(child(base + ["--setup-only"], work, deadline)["setup_s"])
        data = child(base + ["--trace", str(args.trace)], work, deadline)
        setup.append(data["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    series = data["series"]
    refs = references(series)
    failures, attempted = verify(series, data["passes"], refs)
    quality = quality_metrics(series, refs)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in data["passes"] if not p["traced"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": data["peak_rss_mb"],
        "failed_frac": len(failures) / attempted,
    }
    for name in ("exact_s", "f0_s", "f1_s", "f2_mc_s", "f2_gaussian_s"):
        per_pass = [p["times"][name] for p in data["passes"] if not p["traced"] and name in p["times"]]
        if per_pass:
            metrics[name] = statistics.median(per_pass)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    if args.trace:
        metrics.update(data["layer_metrics"])
        metrics.update(quality)
    section = "per_layer" if args.trace else "end_to_end"
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "times", "call_s")} for p in data["passes"]
        ],
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "quality": quality,
        "attempted": attempted,
        "failures": failures,
        "digests": data["passes"][0]["digests"],
        "series": series,
    }
    suffix = "_smoke" if args.smoke else ""
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    for f in failures:
        print(f"FAILED {f['series']} (pass {f['pass']}): {f['reason']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


def child(extra, work: Path, deadline: float) -> dict:
    """Run worker.py in a fresh process with one thread per numerical library."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), *extra, "--work", str(work)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    path = work / "child.json"
    data = json.loads(path.read_text())
    path.unlink()
    return data


def _import_loschmidt():
    for name, value in SINGLE_THREAD.items():
        os.environ.setdefault(name, value)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loschmidt

    if not Path(loschmidt.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported loschmidt from {loschmidt.__file__}, not {SRC}")
    return loschmidt


def references(series: dict) -> dict:
    """Exact series, keyed ``scenario@n_steps``, for the series that need one.
    Computed here, after the workload process has ended, so they count
    toward no metric."""
    lm = _import_loschmidt()
    refs = {}
    for s in series.values():
        if s["scenario"] is None or s["estimator"] not in ("f1", "f2_mc", "f2_gaussian"):
            continue
        key = f"{s['scenario']}@{s['n_steps']}"
        if key in refs:
            continue
        sc = lm.load(s["scenario"])
        grid = None
        if sc.grid_extent is not None:  # as ``loschmidt run`` builds it
            grid = lm.Grid(
                (sc.grid_extent,) * sc.state.dims, (sc.grid_points,) * sc.state.dims,
                periodic=sc.periodic,
            )
        refs[key] = lm.fidelity_exact(
            sc.state, sc.pair, s["n_steps"], sc.tau, hbar=sc.hbar, grid=grid,
            points=sc.grid_points,
        ).values
    return refs


def _arrays(s):
    import numpy as np

    values = np.empty(len(s["re"]), dtype=complex)
    values.real, values.imag = s["re"], s["im"]
    return values, np.asarray(s["stderr"], dtype=float)


def check_series(s: dict, refs: dict) -> list:
    """Correctness problems of one series; empty when it passes."""
    import numpy as np

    lm = _import_loschmidt()
    values, stderr = _arrays(s)
    est = s["estimator"]
    if len(values) != s["n_steps"] + 1:
        return [f"{len(values)} points, expected {s['n_steps'] + 1}"]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(stderr))):
        return ["non-finite value or stderr"]
    problems = []
    if abs(values[0] - 1.0) > F0_TOL:
        problems.append(f"f(0) = {values[0]!r}")
    if est in ("exact", "f0", "f1") and np.max(np.abs(values)) > 1.0 + UNITARY_TOL:
        problems.append(f"max |f| = {np.max(np.abs(values))!r} > 1")
    ref = refs.get(f"{s['scenario']}@{s['n_steps']}")
    if est == "f2_gaussian":
        dev = np.max(np.abs(values - ref))
        if not dev <= CHAIN_TOL:
            problems.append(f"max |f2_gaussian - exact| = {dev:.3e} > {CHAIN_TOL:g}")
    if est == "f1" and s["scenario"] and lm.load(s["scenario"]).exactness.get("f1") == "exact":
        excess = np.abs(values - ref) - (F1_BAND_SIGMAS * stderr + F1_BAND_ABS)
        if np.max(excess) > 0:
            problems.append(f"f1 leaves the {F1_BAND_SIGMAS:g}-stderr band of exact")
    return problems


def verify(series: dict, passes: list, refs: dict):
    """Failures (one per failing series per pass) and series attempted.

    The first pass's series are checked; a later pass fails a series that
    failed there, that raised, or whose digest differs from the first pass.
    """
    first = passes[0]
    failures, attempted = [], 0
    bad = {}
    for sid in sorted(set(first["digests"]) | set(first["errors"])):
        if sid in first["errors"]:
            bad[sid] = first["errors"][sid]
        else:
            problems = check_series(series[sid], refs)
            if problems:
                bad[sid] = "; ".join(problems)
    for k, p in enumerate(passes):
        for sid in sorted(set(first["digests"]) | set(first["errors"]) | set(p["errors"])):
            attempted += 1
            reason = p["errors"].get(sid) or bad.get(sid)
            if reason is None and p["digests"].get(sid) != first["digests"][sid]:
                reason = "output differs from the first pass"
            if reason:
                failures.append({"series": sid, "pass": k, "reason": reason})
    return failures, attempted


def quality_metrics(series: dict, refs: dict) -> dict:
    """Reported, never gated: f2_mc z-scores and the chain's deviation."""
    import numpy as np

    max_z = max_abs = max_dev = 0.0
    for s in series.values():
        ref = refs.get(f"{s['scenario']}@{s['n_steps']}")
        if ref is None:
            continue
        values, stderr = _arrays(s)
        if s["estimator"] == "f2_mc":
            ok = (stderr > 0) & np.isfinite(stderr)
            if np.any(ok):
                max_z = max(max_z, float(np.max(np.abs(values - ref)[ok] / stderr[ok])))
            max_abs = max(max_abs, float(np.max(np.abs(values))))
        elif s["estimator"] == "f2_gaussian":
            max_dev = max(max_dev, float(np.max(np.abs(values - ref))))
    return {
        "estimators.f2_mc.max_z": max_z,
        "estimators.f2_mc.max_abs": max_abs,
        "estimators.f2_gaussian.max_dev": max_dev,
    }


# ---------------------------------------------------------------------------
# environment and comparison


def environment_record() -> dict:
    load = os.getloadavg()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    lm = _import_loschmidt()
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loschmidt": lm.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "loadavg_start": load,
    }


def git_sha():
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def compare(path_a: str, path_b: str) -> int:
    """Report which series differ between two result files and by how much.
    Exit code 0 when every shared series is bit-identical, 1 otherwise."""
    import numpy as np

    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differ, worst = 0, 0.0
    for sid in sorted(set(a["series"]) | set(b["series"])):
        if sid not in a["series"] or sid not in b["series"]:
            print(f"{sid}: only in {'A' if sid in a['series'] else 'B'}")
            differ += 1
            continue
        if a["digests"].get(sid) == b["digests"].get(sid):
            print(f"{sid}: identical")
            continue
        differ += 1
        va, sa = _arrays(a["series"][sid])
        vb, sb = _arrays(b["series"][sid])
        if va.shape != vb.shape:
            print(f"{sid}: MISMATCH, lengths {len(va)} vs {len(vb)}")
            worst = float("inf")
            continue
        df = float(np.max(np.abs(va - vb)))
        ds = float(np.max(np.abs(sa - sb)))
        worst = max(worst, df)
        print(f"{sid}: MISMATCH, max |df| = {df:.3e}, max |d stderr| = {ds:.3e}")
    print(f"{differ} series differ; largest |df| = {worst:.3e}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
