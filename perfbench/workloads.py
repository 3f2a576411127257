"""The benchmark's workloads and its golden-reference row check.

Each workload is a list of study specs run in order through one shared
:class:`repro.api.StudyContext`, with the CLI defaults (one worker, no
cache directory).  ``layers`` names the per-layer call counters that must
be non-zero on the workload; a traced run that sees a zero there fails
its self-check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Layers every workload passes through: the PSL compile in set-up, the
#: per-spec study runner and the artifact writer.
_COMMON = ("core.compile.calls", "experiments.study.calls",
           "experiments.artifacts.calls")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(study, params)`` pairs; params override the registry defaults.
    specs: tuple[tuple[str, dict], ...]
    #: Per-layer call counts that must be non-zero in a traced run.
    layers: tuple[str, ...]

    def build_specs(self, smoke: bool = False) -> list:
        from repro.api import build_spec
        specs = [build_spec(study, **params) for study, params in self.specs]
        return [spec.smoke() for spec in specs] if smoke else specs


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload("validation", (("table2", {}), ("table3", {})),
             _COMMON + ("core.predict.calls", "core.pipeline.calls",
                        "sweep3d.plans", "simmpi.capture.calls",
                        "simmpi.record.calls", "simmpi.replay.calls",
                        "simnet.noise.calls")),
    Workload("speculative", (("figure8", {}), ("figure9", {})),
             _COMMON + ("core.predict.calls", "core.pipeline.calls")),
    Workload("steady-long",
             (("steady-scaling", {"processor_counts": (1, 4, 16),
                                  "iteration_counts": (12, 100)}),),
             # Replay is only the steady tier's fallback here, so a
             # change that makes steady accept every point may zero it.
             _COMMON + ("sweep3d.plans", "simmpi.capture.calls",
                        "simmpi.record.calls", "simmpi.steady.calls")),
    Workload("multiseed",
             (("noise-sensitivity", {"target": "table2", "samples": 8}),),
             _COMMON + ("sweep3d.plans", "simmpi.capture.calls",
                        "simmpi.record.calls", "simmpi.replay_batch.calls",
                        "simnet.noise.calls")),
)}

#: Study-level fields that differ between any two runs of the same code
#: (the ones ``repro.experiments.artifacts._normalize_volatile`` zeroes).
VOLATILE_FIELDS = ("elapsed_s", "cache", "execution", "phases")
#: Per-study row columns that record provenance, not data: the tiers are
#: bit-identical, so which one served a row is not part of the result.
PROVENANCE_COLUMNS = {"steady-scaling": ("tier",)}


def canonical(value) -> str:
    """Sorted-key JSON; floats keep their exact ``repr``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonical_study(study_json: dict) -> dict:
    """One study artifact reduced to what a correct run must reproduce.

    Returns ``{"study", "meta", "rows"}``: ``meta`` is the artifact minus
    its rows and volatile accounting, ``rows`` the canonical row strings
    with provenance columns dropped.
    """
    study = study_json["study"]
    dropped = PROVENANCE_COLUMNS.get(study, ())
    meta = {key: value for key, value in study_json.items()
            if key not in VOLATILE_FIELDS and key != "rows"}
    if dropped:
        meta["columns"] = [column for column in meta.get("columns", [])
                           if column not in dropped]
    rows = [canonical({key: value for key, value in row.items()
                       if key not in dropped})
            for row in study_json["rows"]]
    return {"study": study, "meta": canonical(meta), "rows": rows}


def read_studies(out_dir: Path) -> list[dict]:
    """The canonical studies of an artifact directory, in manifest order."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return [canonical_study(json.loads(
                (out_dir / entry["artifacts"]["json"]).read_text()))
            for entry in manifest["studies"]]


def digest(studies: list[dict]) -> str:
    return hashlib.sha256(canonical(studies).encode()).hexdigest()


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> list[dict]:
    data = json.loads(golden_path(workload).read_text())
    if digest(data["studies"]) != data["digest"]:
        raise ValueError(f"golden reference {golden_path(workload)} does not "
                         "match its own digest")
    return data["studies"]


def compare(studies: list[dict] | None,
            golden: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` of a run's studies against golden.

    Rows are attempted once per golden row.  A row fails when it differs,
    is missing or is extra; a study whose metadata differs, or a run that
    raised (``studies is None``), fails every row of that study.
    """
    attempted = sum(len(study["rows"]) for study in golden)
    if studies is None:
        return attempted, attempted, ["the run raised; no rows produced"]
    failed = 0
    problems: list[str] = []
    by_name = {study["study"]: study for study in studies}
    extra = sorted(set(by_name) - {study["study"] for study in golden})
    if extra:
        problems.append(f"unexpected studies {extra}")
    for expected in golden:
        name = expected["study"]
        got = by_name.get(name)
        if got is None or got["meta"] != expected["meta"]:
            failed += len(expected["rows"])
            problems.append(f"{name}: study missing or its spec/columns differ")
            continue
        for index, row in enumerate(expected["rows"]):
            if index >= len(got["rows"]) or got["rows"][index] != row:
                failed += 1
                problems.append(f"{name} row {index} differs from golden: "
                                f"{got['rows'][index] if index < len(got['rows']) else 'missing'}")
        surplus = len(got["rows"]) - len(expected["rows"])
        if surplus > 0:
            attempted += surplus
            failed += surplus
            problems.append(f"{name}: {surplus} row(s) beyond the golden rows")
    return attempted, failed, problems
