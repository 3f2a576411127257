"""Every example script runs to completion on a tiny configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: Tiny arguments per example; each run takes about a second.
EXAMPLE_ARGS = {
    "numeric_transport.py": ["--cells", "2", "--iterations", "2"],
    "procurement_study.py": ["--max-processors", "16"],
    "quickstart.py": ["--px", "2", "--py", "2", "--iterations", "1"],
    "validate_cluster.py": ["--table", "table2", "--max-pes", "4",
                            "--iterations", "2"],
}


def test_every_example_has_tiny_arguments():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) \
        == sorted(EXAMPLE_ARGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *EXAMPLE_ARGS[name]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout
