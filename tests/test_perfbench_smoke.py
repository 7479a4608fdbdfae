"""The benchmark harness still runs every workload, untraced and traced.

`perfbench/tracing.py` wraps named gilt functions from outside; a refactor
that renames or removes one breaks `--trace 1`. The first test resolves
every name it rebinds, without running a round; the second runs the
toy-size smoke check (about 20 s) and sets no bound on its wall time.
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_the_tracer_rebinds_exists():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.Tracer()._targets()
               if attr not in owner.__dict__]
    assert not missing, f"perfbench/tracing.py rebinds missing names: {missing}"


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
