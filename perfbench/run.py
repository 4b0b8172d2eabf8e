"""Benchmark entry point for llbar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh child process (workload.py) with BLAS and
pocketfft pinned to one thread each, and prints one JSON line: whether
every output check held, the operations attempted and failed, and the
metrics.  With --trace 0 these are setup_s (from this process starting
the child to the child being ready for its first timed operation),
op_s and peak_rss_mib; with --trace 1 the per-layer metrics of a traced
run.  Exits non-zero, printing no result, when the child fails.

This launcher uses the standard library only, so it adds nothing to
the child's set-up time or memory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0

# One thread everywhere: on a small shared machine threaded OpenBLAS
# products stall for milliseconds, and timings would measure the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "LLBAR_THREADS": "1"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    (HERE / "_runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_runs"))
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **THREAD_ENV},
        )
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            child.kill()
            child.wait()
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        print(f"workload process exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().split("\n")[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            "setup_s": {"value": result["ready"] - start, "unit": "s"},
            **metrics,
        }
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
