"""The benchmark's own checks, run on each workload's ``.smoke()`` specs.

Run from the repository root::

    python -m pytest perfbench/check_perfbench.py

(The file name keeps it out of the repository's default test collection;
it spawns a dozen short child processes per workload.)
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, canonical, compare  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SMOKE = ("--smoke",)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request):
    """``(workload, golden)``: the smoke rows of this commit as reference."""
    work_dir = run.ROOT / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    golden = run.spawn(request.param, work_dir, *SMOKE)["studies"]
    assert golden, f"{request.param}: the smoke pass produced no studies"
    return request.param, golden


def _measure(capsys, workload, golden, trace):
    result = run.measure(workload, seed=7, seconds=1, trace=trace,
                         golden=golden, flags=SMOKE)
    return result, capsys.readouterr().out.splitlines()


def _check_printed(result, lines, declared):
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name]
        assert f"{name}: {metric['value']!r} {metric['unit']}" in lines


def test_end_to_end_metrics_are_printed_with_units(capsys, smoke):
    workload, golden = smoke
    result, lines = _measure(capsys, workload, golden, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(len(study["rows"]) for study in golden)
    assert f"workload {workload}; seed 7; seconds 1; trace 0" in lines
    _check_printed(result, lines, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_fires_every_expected_wrapper(capsys, smoke):
    workload, golden = smoke
    result, lines = _measure(capsys, workload, golden, trace=True)
    assert not [line for line in lines if line.startswith("trace self-check")]
    assert result["correct"]
    _check_printed(result, lines, SPEC["per_layer"])
    metrics = result["metrics"]
    for counter in WORKLOADS[workload].layers:
        assert metrics[counter]["value"] > 0, counter
    assert metrics["simmpi.engine.calls"]["value"] == 0


def test_perturbed_row_raises_failed_fraction(capsys, smoke):
    workload, golden = smoke
    perturbed = copy.deepcopy(golden)
    study = perturbed[-1]
    row = json.loads(study["rows"][0])
    key = next(key for key, value in sorted(row.items())
               if isinstance(value, float) and value)
    row[key] *= 1.0 + 2.0 ** -40
    study["rows"][0] = canonical(row)
    result, lines = _measure(capsys, workload, perturbed, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"failed_fraction: {1 / result['attempted']!r} " \
        f"(1 of {result['attempted']} rows)" in lines
    assert any(f"{study['study']} row 0 differs" in line for line in lines)


def test_a_pass_that_raised_fails_every_row(smoke):
    workload, golden = smoke
    rows = sum(len(study["rows"]) for study in golden)
    assert compare(None, golden)[:2] == (rows, rows)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
