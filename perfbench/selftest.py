"""Show that each output check fails on output tampered in its way.

    python3 perfbench/selftest.py

Runs short versions of the workloads' operations, checks that their
untouched outputs pass, then tampers with a copy for each case (a ledger
cell, a snapshot byte, a report cell, a trace count) and requires the
matching check to fail with its own message.  Also checks that
BENCHMARK.json names exactly the metrics the benchmark prints.  Exits
non-zero if any case is not caught.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

from workload import ROOT, RunWorkload, VerifyWorkload  # puts src/ on sys.path
import checks
import inputs
from spans import LAYER_METRICS

END_TO_END = ("setup_s", "op_s", "peak_rss_mib")


def _edit_ledger(outdir: Path, row: int, column: str, edit) -> None:
    path = outdir / f"{inputs.LEDGER_PREFIX}_ledger.csv"
    lines = path.read_text().split("\n")
    j = checks.LEDGER_COLUMNS.index(column)
    cells = lines[1 + row].split(",")
    cells[j] = repr(edit(float(cells[j])))
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines))


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text().split("\n")
    path.write_text("\n".join(edit(lines)))


def _snapshot(outdir: Path, i: int) -> Path:
    return outdir / f"{inputs.LEDGER_PREFIX}_{i:06d}.snap"


def _scale_snapshot(path: Path, factor: float, index: int | None = None) -> None:
    raw = bytearray(path.read_bytes())
    dim = struct.unpack_from("<I", raw, 8)[0]
    head = 12 + 12 * dim
    count = (len(raw) - head) // 8
    values = list(struct.unpack_from(f"<{count}d", raw, head))
    if index is None:
        values = [v * factor for v in values]
    else:
        values[index] += factor
    struct.pack_into(f"<{count}d", raw, head, *values)
    path.write_bytes(bytes(raw))


def _scale_record(outdir: Path, row: int, factor: float) -> None:
    """Scale record ``row`` consistently in its snapshot and its L2 cell."""
    _scale_snapshot(_snapshot(outdir, row), factor)
    _edit_ledger(outdir, row, "L2", lambda v: v * factor)


def _run_cases(workload: RunWorkload) -> list[tuple[str, str, object]]:
    last = workload.spec.rows - 1
    cases = [
        ("ledger header renamed", "header",
         lambda d: _edit_lines(d / "state_ledger.csv",
                               lambda ls: [ls[0].replace("gradL2", "gradL3")] + ls[1:])),
        ("ledger row dropped", "rows",
         lambda d: _edit_lines(d / "state_ledger.csv", lambda ls: ls[:-2] + [""])),
        ("ledger t shifted", "cadence grid",
         lambda d: _edit_ledger(d, 1, "t", lambda v: v + 1e-9)),
        ("ledger L2 cell", "quadrature L2",
         lambda d: _edit_ledger(d, last, "L2", lambda v: v * (1 + 1e-8))),
        ("ledger balance_residual cell", "balance_residual",
         lambda d: _edit_ledger(d, last, "balance_residual", lambda v: v + 1e-6)),
        ("snapshot magic", "magic",
         lambda d: _snapshot(d, 1).write_bytes(b"LLBX" + _snapshot(d, 1).read_bytes()[4:])),
        ("snapshot truncated", "bytes for",
         lambda d: _snapshot(d, 1).write_bytes(_snapshot(d, 1).read_bytes()[:-8])),
        ("snapshot missing", "unexpected or missing",
         lambda d: _snapshot(d, last).unlink()),
        ("snapshot sample", "quadrature L2",
         lambda d: _scale_snapshot(_snapshot(d, 1), 1e-4, index=5)),
        ("record 0 rescaled in snapshot and ledger", "own draw",
         lambda d: _scale_record(d, 0, 1.001)),
    ]
    if workload.spec.rows >= 3:
        # a late record inflated consistently: only the energy law notices
        cases.append(("last record inflated in snapshot and ledger", "energy bound",
                      lambda d: _scale_record(d, last, 3.0)))
    else:
        cases.append(("balance_residual with two records", "nonzero",
                      lambda d: _edit_ledger(d, 0, "balance_residual", lambda v: 1e-3)))
    counts = {"galerkin.nonlinear_term.calls": 2 * workload.spec.steps - 1}
    cases.append(("trace count", "nonlinear_term", counts))
    return cases


def _verify_cases() -> list[tuple[str, str, object]]:
    def report_cell(name: str, column: int, edit):
        def tamper(d: Path) -> None:
            def change(lines):
                for n, line in enumerate(lines):
                    cells = line.split(",")
                    if cells[0] == name:
                        cells[column] = edit(cells[column])
                        lines[n] = ",".join(cells)
                return lines
            _edit_lines(d / "report.csv", change)
        return tamper

    return [
        ("report eq3 max, last digits", "recomputed",
         report_cell("eq3", 1, lambda c: repr(float(c) * (1 + 1e-11)))),
        ("report eq4 max above one", "1 + 1e-9", report_cell("eq4", 1, lambda c: "1.5")),
        ("report violations", "violations", report_cell("cross_diff_k1", 3, lambda c: "1")),
        ("report header", "header",
         lambda d: _edit_lines(d / "report.csv",
                               lambda ls: [ls[0].replace("max_ratio", "max")] + ls[1:])),
        ("identities line", "verify-identities",
         lambda d: _edit_lines(d / "identities.txt",
                               lambda ls: [ls[0].replace(" ok", " FAIL")] + ls[1:])),
    ]


def _expect_failure(workload, pristine: Path, label: str, needle: str, tamper) -> bool:
    copy = pristine.with_name(pristine.name + "-tampered")
    shutil.copytree(pristine, copy)
    counts = None
    if isinstance(tamper, dict):
        counts = tamper
    else:
        tamper(copy)
    try:
        workload.check(copy, counts)
    except checks.CheckFailed as err:
        caught = needle in str(err)
        print(f"{'caught' if caught else 'WRONG CHECK'}: {label}: {err}")
        return caught
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    print(f"MISSED: {label}")
    return False


def _check_benchmark_json() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    ok &= [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    ok &= [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    print(f"{'ok' if ok else 'MISMATCH'}: BENCHMARK.json names the printed metrics and workloads")
    return ok


def main() -> int:
    runs = Path(__file__).resolve().parent / "_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=runs))
    ok = _check_benchmark_json()
    try:
        short = {
            "run-d2-full-band": dict(steps=20, cadence=20),
            "run-d3-dense-records": dict(steps=10, cadence=1),
        }
        for name, change in short.items():
            spec = dataclasses.replace(inputs.make(name, 7), **change)
            sub = workdir / name
            sub.mkdir()
            workload = RunWorkload(spec, sub)
            op, outdir = workload.operation(0)
            ok &= op() == 0
            checks.check_run(spec, str(outdir))
            print(f"ok: untouched {name} output passes")
            for label, needle, tamper in _run_cases(workload):
                ok &= _expect_failure(workload, outdir, f"{name}: {label}", needle, tamper)

        spec = dataclasses.replace(inputs.make("verify-d2-ensembles", 7), count=4)
        sub = workdir / "verify"
        sub.mkdir()
        workload = VerifyWorkload(spec, sub)
        op, outdir = workload.operation(0)
        ok &= op() == 0
        checks.check_verify(spec, (outdir / "identities.txt").read_text(),
                            str(outdir / "report.csv"))
        print("ok: untouched verify output passes")
        for label, needle, tamper in _verify_cases():
            ok &= _expect_failure(workload, outdir, f"verify: {label}", needle, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
