"""gilt benchmark: pretrain + evaluate one workload, print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

Run it from the root of a gilt checkout; the package is imported from
`src/` beside this directory, single-threaded (BLAS capped at one thread
before numpy loads, as `GILT_THREADS=1` does). The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` prints the end-to-end metrics, measured with no wrappers
installed. `--trace 1` runs the same fixed round twice, untraced then
traced, checks both give bit-equal losses and eval results, and prints
the per-layer metrics with the tracing overhead. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _import_pinned():
    """Put the checkout's package first on the path and cap BLAS threads
    before anything imports numpy."""
    if not (SRC / "gilt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gilt package under {SRC}; run from a gilt checkout")
    sys.path.insert(0, str(SRC))
    from gilt.cli import _THREAD_VARS   # imports no numerics
    os.environ["GILT_THREADS"] = "1"
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    import gilt
    if Path(gilt.__file__).resolve().parent != SRC / "gilt":
        sys.exit(f"perfbench: imported gilt from {gilt.__file__}, not {SRC}")
    return _THREAD_VARS


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(thread_vars) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("GILT_THREADS",) + tuple(thread_vars)},
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the eval phases may keep adding chunks for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny corpora for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    thread_vars = _import_pinned()
    import inputs
    from metrics import end_to_end, per_layer, wall_clock
    from workloads import (EVAL_SETUPS, TRACE_EPOCHS, WORKLOADS, check_outputs,
                           run_round, same_outputs)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    scale = inputs.TOY if args.scale == "toy" else inputs.FULL
    print("env " + json.dumps(environment(thread_vars), sort_keys=True), flush=True)

    corpus = w.corpus(args.seed, scale)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        def round_(epochs, tracer=None, seconds=0.0, setups=1):
            out = workdir / ("traced" if tracer else "plain")
            if scale.timed_epochs is not None:
                epochs = scale.timed_epochs
            return run_round(w, corpus, out, args.seed, scale,
                             epochs, seconds, setups, tracer)

        if args.trace:
            from tracing import Tracer
            plain = round_(TRACE_EPOCHS)
            tracer = Tracer()
            with tracer.installed():
                traced = round_(TRACE_EPOCHS, tracer)
            problems = check_outputs(w, plain) + check_outputs(w, traced)
            if not same_outputs(plain, traced):
                problems.append("traced round computed different losses or eval results")
            metrics = per_layer(tracer, traced, plain.wall_s) if traced.chunk_runs["link"] else {}
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            res = round_(w.timed_epochs, seconds=args.seconds, setups=EVAL_SETUPS)
            problems = check_outputs(w, res)
            metrics = end_to_end(res)
            print("wall " + json.dumps(wall_clock(res), sort_keys=True))
            attempted, failed = res.attempted, res.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
