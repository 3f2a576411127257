"""Machine-readable benchmark-gate reporting for the CI perf trajectory.

When the ``BENCH_JSON`` environment variable names a file, every
acceptance gate records its observed value there as it runs::

    {"gates": [{"gate": "...", "observed": 15.3, "threshold": 5.0,
                "unit": "x speedup", "passed": true,
                "seconds": {"naive": 2.2, "compiled": 0.15}}, ...]}

``seconds`` (optional) holds the absolute wall-clock seconds of each side
of a ratio, so a regression shows even when both sides slow down alike.

CI points ``BENCH_JSON`` at ``BENCH_sweep.json`` and uploads it as a
build artifact, so the speedup trajectory is tracked per commit instead
of living only in scrollback.  Without the variable this module is a
no-op, so local ``pytest benchmarks/`` runs are unaffected.
"""

from __future__ import annotations

import json
import os
from typing import Mapping


def record_gate(name: str, observed: float, threshold: float,
                unit: str = "x speedup",
                seconds: Mapping[str, float] | None = None) -> None:
    """Append one gate observation to the ``BENCH_JSON`` report file.

    Re-recording a gate (a retry loop's second pass) replaces its entry;
    the file is rewritten whole on every call, so a crashed later gate
    still leaves the earlier observations on disk.
    """
    path = os.environ.get("BENCH_JSON")
    if not path:
        return
    gates = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                gates = json.load(handle).get("gates", [])
        except (OSError, ValueError):
            gates = []
    gates = [gate for gate in gates if gate.get("gate") != name]
    entry = {
        "gate": name,
        "observed": round(float(observed), 3),
        "threshold": threshold,
        "unit": unit,
        "passed": bool(observed >= threshold),
    }
    if seconds is not None:
        entry["seconds"] = {side: round(float(value), 4) for side, value in seconds.items()}
    gates.append(entry)
    gates.sort(key=lambda gate: gate["gate"])
    with open(path, "w") as handle:
        json.dump({"gates": gates}, handle, indent=2, sort_keys=True)
        handle.write("\n")
