"""One run of one workload: set up, time operations, check every output.

Started by run.py in a fresh process whose BLAS and pocketfft thread
counts are pinned to 1.  Prints one JSON line: the operations attempted
and failed, whether every check held, the CLOCK_MONOTONIC instant at which
the first timed operation could begin, and the metrics (untraced: op_s and
peak_rss_mib; traced: the per-layer metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = Path(__file__).resolve().parent / "_traces"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (numpy only; never imports llbar)
import inputs  # noqa: E402
import llbar.cli as cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"llbar imported from {cli.__file__}, not from {ROOT / 'src'}")

from spans import Tracer  # noqa: E402

# a run stops starting operations once this much wall time has passed, so
# that it ends inside its time limit whatever --seconds says
WALL_LIMIT_S = 150.0


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class RunWorkload:
    def __init__(self, spec: inputs.RunSpec, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        self.ini = workdir / "run.ini"
        self.ini.write_text(spec.ini())

    def _argv(self, outdir: Path, *extra: str) -> list[str]:
        return ["run", str(self.ini), "--override", f"output.directory={outdir}", *extra]

    def warm_up(self) -> None:
        outdir = self.workdir / "warm"
        rc, _ = _call(self._argv(
            outdir, "--override", f"integrator.t_end={2 * self.spec.dt!r}",
            "--override", "output.cadence=1",
        ))
        if rc != 0:
            raise RuntimeError(f"warm-up run exited {rc}")
        shutil.rmtree(outdir)

    def operation(self, k: int):
        outdir = self.workdir / f"op{k}"
        argv = self._argv(outdir)
        return lambda: _call(argv)[0], outdir

    def check(self, outdir: Path, counts: dict | None) -> None:
        snapshot_bytes = checks.check_run(self.spec, str(outdir))
        shutil.rmtree(outdir)
        if counts is None:
            return
        spec = self.spec
        want = {
            "galerkin.nonlinear_term.calls": 2 * spec.steps,  # ETDRK2: two per step
            "stepping.step.calls": spec.steps,
            "diagnostics.norms.calls": spec.rows,
            "fields.write_snapshot.calls": spec.rows,
            "fields.write_snapshot.bytes": snapshot_bytes,
        }
        for name, value in want.items():
            if counts.get(name, 0) != value:
                raise checks.CheckFailed(f"trace: {name} = {counts.get(name, 0)}, want {value}")


class VerifyWorkload:
    def __init__(self, spec: inputs.VerifySpec, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir

    def warm_up(self) -> None:
        for command in ("verify-identities", "verify-inequalities"):
            rc, _ = _call(self.spec.args(command, count=1))
            if rc != 0:
                raise RuntimeError(f"warm-up {command} exited {rc}")

    def operation(self, k: int):
        outdir = self.workdir / f"op{k}"
        outdir.mkdir()
        identities = self.spec.args("verify-identities")
        inequalities = self.spec.args("verify-inequalities") + [
            "--output", str(outdir / "report.csv")
        ]

        def op() -> int:
            rc, printed = _call(identities)
            (outdir / "identities.txt").write_text(printed)
            return rc or _call(inequalities)[0]

        return op, outdir

    def check(self, outdir: Path, counts: dict | None) -> None:
        checks.check_verify(
            self.spec, (outdir / "identities.txt").read_text(), str(outdir / "report.csv")
        )
        shutil.rmtree(outdir)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    spec = inputs.make(args.workload, args.seed)
    kind = RunWorkload if isinstance(spec, inputs.RunSpec) else VerifyWorkload
    workload = kind(spec, workdir)
    workload.warm_up()
    tracer = Tracer() if args.trace else None
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    # Closed loop, one operation at a time.  A traced run alternates
    # untraced and traced operations, so the difference of their medians
    # is the tracing overhead measured under the same conditions.
    times = {False: [], True: []}
    attempted = failed = 0
    correct = True
    timed = 0.0
    while (timed < args.seconds or (args.trace and not times[True])) and (
        time.clock_gettime(time.CLOCK_MONOTONIC) - ready < WALL_LIMIT_S
    ):
        k = attempted
        traced = bool(args.trace) and k % 2 == 1
        op, outdir = workload.operation(k)
        attempted += 1
        t0 = time.perf_counter()
        try:
            rc = tracer.run(k, op) if traced else op()
        except Exception:
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - t0
        timed += elapsed
        if rc != 0:
            failed += 1
            shutil.rmtree(outdir, ignore_errors=True)
            continue
        times[traced].append(elapsed)
        try:
            counts = tracer.op_stats(k) if traced else None
            workload.check(outdir, counts)
        except checks.CheckFailed as err:
            print(f"operation {k}: check failed: {err}", file=sys.stderr)
            correct = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        metrics = tracer.layer_metrics(overhead)
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{args.workload}.csv")
    else:
        metrics = {
            "op_s": {"value": statistics.median(times[False]), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "ready": ready, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
