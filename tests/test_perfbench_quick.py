"""The benchmark's own smoke run: every workload once, traced, every check on.

It fails when a function the tracer wraps is no longer bound under the name
its callers look it up by, or when a CLI output drifts from the benchmark's
independent oracle.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
