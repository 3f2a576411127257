"""The repository's benchmark: one workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload validation --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh child process (``child.py``).  Untraced
(``--trace 0``), passes repeat while another one fits in ``--seconds``
(at least one), set-up is sampled ``SETUP_SAMPLES`` times, and the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb`` are reported.
Traced (``--trace 1``), one untraced and one traced pass run; the traced
one reports the per-layer counters and self times, and the difference of
the two walls is the tracing overhead.  Every pass's rows are checked
against the workload's golden reference (``golden/<workload>.json``).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, compare, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is short and noisy, so each run samples it this many times.
SETUP_SAMPLES = 5
#: A single pass that exceeds this is a hang, not a measurement.
PASS_TIMEOUT_S = 150

#: Unit of every end-to-end metric.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Studies any workload runs; each gets an ``experiments.study_s.*`` entry.
STUDIES = sorted({study for workload in WORKLOADS.values()
                  for study, _ in workload.specs})


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith((".s", "_s")) or name.startswith("experiments.study_s."):
        return "s"
    return "count"


def spawn(workload: str, work_dir: Path, *flags: str) -> dict:
    """Run one child pass and return its result; exits if the child fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.NamedTemporaryFile(suffix=".json", dir=work_dir,
                                     delete=False) as handle:
        out = Path(handle.name)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--spawned", repr(spawned), "--out", str(out),
             "--work-dir", str(work_dir), *flags],
            env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: child pass failed with exit code "
                     f"{proc.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def check(passes: list[dict], golden: list[dict]) -> tuple[int, int]:
    """Attempted and failed rows over all passes; prints each problem."""
    attempted = failed = 0
    for index, result in enumerate(passes):
        rows, bad, problems = compare(result["studies"], golden)
        attempted += rows
        failed += bad
        for problem in problems:
            print(f"pass {index}: {problem}")
        if result.get("error"):
            print(f"pass {index} raised:\n{result['error']}")
    return attempted, failed


def untraced(workload: str, seconds: float, work_dir: Path,
             flags: tuple[str, ...] = ()) -> tuple[list, dict]:
    passes = []
    started = time.monotonic()
    while True:
        passes.append(spawn(workload, work_dir, *flags))
        elapsed = time.monotonic() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [result["setup_s"] for result in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, work_dir, "--setup-only",
                            *flags)["setup_s"])
    walls = [result["wall_s"] for result in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    print(f"passes: {len(passes)}; wall_s {walls}; setup_s {setups}; "
          f"peak_rss_mb {[r['peak_rss_mb'] for r in passes]}")
    errors = [r["model_error_pct"] for r in passes if r["model_error_pct"] is not None]
    if errors:
        print(f"model_error_pct (mean |error_pct| over table rows): {errors[0]!r}")
    return passes, {name: {"value": value, "unit": END_TO_END[name]}
                    for name, value in metrics.items()}


def traced(workload: str, work_dir: Path,
           flags: tuple[str, ...] = ()) -> tuple[list, dict, list[str]]:
    plain = spawn(workload, work_dir, *flags)
    result = spawn(workload, work_dir, "--trace", *flags)
    problems = []
    if result["studies"] != plain["studies"]:
        problems.append("the traced pass's rows differ from the untraced pass's")
    layers = result.get("layers") or {}
    for counter in WORKLOADS[workload].layers:
        if not layers.get(counter):
            problems.append(f"traced layer counter {counter} is zero")
    if layers.get("simmpi.engine.calls"):
        print(f"warning: {layers['simmpi.engine.calls']:g} run(s) fell back "
              "to the reference engine")
    for study in STUDIES:
        layers.setdefault(f"experiments.study_s.{study}", 0.0)
    layers["trace.wall_s"] = result["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = result["wall_s"] - plain["wall_s"]
    return [plain, result], {name: {"value": value, "unit": layer_unit(name)}
                             for name, value in sorted(layers.items())}, problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: list[dict], flags: tuple[str, ...] = ()) -> dict:
    """Run and check one workload, print every metric; returns the result."""
    work_dir = ROOT / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    # The study specs carry no seed (each machine preset fixes its own
    # noise seed), so the seed is recorded but selects no input.
    print(f"workload {workload}; seed {seed}; seconds {seconds:g}; "
          f"trace {int(trace)}")
    problems: list[str] = []
    if trace:
        passes, metrics, problems = traced(workload, work_dir, flags)
    else:
        passes, metrics = untraced(workload, seconds, work_dir, flags)
    attempted, failed = check(passes, golden)
    for problem in problems:
        print(f"trace self-check: {problem}")
    print(f"failed_fraction: {failed / attempted!r} ({failed} of {attempted} rows)")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_golden(args.workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
