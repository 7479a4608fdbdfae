"""The benchmark harness still runs every workload, untraced and traced.

`perfbench/tracing.py` wraps named gilt functions from outside; a refactor
that renames or removes one breaks `--trace 1`. This runs the toy-size smoke
check (about 20 s) and sets no bound on its wall time.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
