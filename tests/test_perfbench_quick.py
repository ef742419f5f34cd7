"""The benchmark's own smoke run: every workload once, traced, every check on.

It fails when a function the tracer wraps is no longer bound under the name
its callers look it up by, or when a CLI output drifts from the benchmark's
independent oracle. A passing run removes the output directories it made
(``perfbench/out/*-p<pid>``); a failing one leaves them for inspection.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_passes():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, stderr[-2000:]
    for outdir in (ROOT / "perfbench" / "out").glob(f"*-p{proc.pid}"):
        shutil.rmtree(outdir)
