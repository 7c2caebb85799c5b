"""Self-test of the benchmark in smoke mode (tiny inputs).

    python3 -m pytest -q perfbench

Not part of the package's test suite: ``testpaths`` there is ``tests``.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert isinstance(summary["attempted"], int) and summary["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0
    if trace:
        assert summary["metrics"]["tracing.self_sum_frac"]["value"] == pytest.approx(1.0, abs=1e-9)
    result = json.loads((HERE / "out" / f"{workload}_seed3_trace{trace}_smoke.json").read_text())
    assert set(result["digests"]) == set(result["series"])
    assert result["environment"]["nproc"] >= 1
    assert result["metrics"]["failed_frac"]["value"] == 0


def test_compare_reports_identical_and_changed(tmp_path):
    assert bench("--workload", "chain_closed_form", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke").returncode == 0
    a = HERE / "out" / "chain_closed_form_seed3_trace0_smoke.json"
    same = bench("--compare", str(a), str(a))
    assert same.returncode == 0 and "0 series differ" in same.stdout
    changed = json.loads(a.read_text())
    sid = sorted(changed["series"])[0]
    changed["series"][sid]["re"][-1] += 0.5
    changed["digests"][sid] = ["edited", changed["digests"][sid][1]]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(changed))
    diff = bench("--compare", str(a), str(b))
    assert diff.returncode == 1
    assert f"{sid}: MISMATCH, max |df| = 5.000e-01" in diff.stdout


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mc_ensemble", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
