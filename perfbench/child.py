"""One pass of one workload, in the fresh process ``run.py`` starts.

Set-up is timed from the moment the parent spawned this process
(``--spawned``, a ``time.monotonic()`` reading; the clock is system-wide)
until ``import repro.api``, ``StudyContext()`` and ``compiled_model()``
have finished.  The pass then runs the workload's specs through
``StudyRunner(context=...).run_many`` and writes the artifacts with
``write_study_artifacts``; ``wall_s`` covers exactly that.  The result
goes to ``--out`` as JSON.

Usage: python3 perfbench/child.py --workload NAME --spawned T --out FILE
       [--work-dir DIR] [--trace] [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, read_studies


def run_pass(workload: str, spawned: float, work_dir: Path, trace: bool,
             setup_only: bool = False, smoke: bool = False) -> dict:
    import repro.api as api

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with api.StudyContext() as context:
        context.compiled_model()
        result: dict = {"setup_s": time.monotonic() - spawned}
        if setup_only:
            return result
        out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_dir))
        try:
            _measure_pass(api, context, workload, out_dir, tracer, smoke, result)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        tracer.write_spans(work_dir / f"spans-{workload}.json")
    return result


def _measure_pass(api, context, workload: str, out_dir: Path, tracer,
                  smoke: bool, result: dict) -> None:
    specs = WORKLOADS[workload].build_specs(smoke=smoke)
    studies = error = None
    started = time.perf_counter()
    try:
        results = api.StudyRunner(context=context).run_many(specs)
        if tracer is None:
            api.write_study_artifacts(results, out_dir)
        else:
            tracer.span("experiments.artifacts", api.write_study_artifacts,
                        results, out_dir)
        result["wall_s"] = time.perf_counter() - started
        studies = read_studies(out_dir)
    except Exception:  # reported as failed rows, with the traceback
        result.setdefault("wall_s", time.perf_counter() - started)
        error = traceback.format_exc()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["studies"] = studies
    result["error"] = error
    result["model_error_pct"] = _model_error_pct(studies)
    if tracer is not None:
        tracer.counters["experiments.artifacts.bytes"] = float(
            sum(item.stat().st_size for item in out_dir.iterdir()))
        # Taken while the context still holds its plans: the bytes a
        # workload keeps alive until it ends.
        result["layers"] = tracer.metrics()
        tracer.uninstall()


def _model_error_pct(studies: list[dict] | None) -> float | None:
    """Mean |error_pct| over validation-table rows (None without any)."""
    errors = [abs(row["error_pct"]) for study in studies or ()
              for row in map(json.loads, study["rows"])
              if row.get("error_pct") is not None]
    return sum(errors) / len(errors) if errors else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, default=Path("."))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run_pass(args.workload, args.spawned, args.work_dir, args.trace,
                      setup_only=args.setup_only, smoke=args.smoke)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
