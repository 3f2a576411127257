"""Record the golden reference rows of one or more workloads.

Usage: python3 perfbench/record_golden.py [WORKLOAD ...]   (default: all)

Runs one untraced pass per workload and writes ``golden/<workload>.json``:
the canonical studies (see ``workloads.canonical_study``) and their
digest.  Record only from a commit whose rows are known to be right.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, spawn
from workloads import GOLDEN_DIR, WORKLOADS, digest, golden_path


def main(names: list[str]) -> int:
    work_dir = ROOT / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        result = spawn(name, work_dir)
        if result["studies"] is None:
            print(f"{name}: the pass raised\n{result['error']}", file=sys.stderr)
            return 1
        studies = result["studies"]
        golden_path(name).write_text(json.dumps(
            {"workload": name, "digest": digest(studies), "studies": studies},
            indent=1, sort_keys=True) + "\n")
        print(f"{name}: {sum(len(s['rows']) for s in studies)} rows, "
              f"digest {digest(studies)[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
