"""Spans around the llbar functions the per-layer metrics name.

A :class:`Tracer` swaps each traced function for a timing wrapper on every
module attribute through which callers reach it (``operators`` imports
``_eval_series`` by name, ``galerkin`` calls ``fields._eval_series``, and
so on), and puts the originals back afterwards.  Each span records its
name, start, end, parent span and operation; spans stay in memory until
:meth:`Tracer.write` puts them in a CSV file at the end of the run.
Nothing in the program itself changes.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path, span name or None for "module.path", stats beyond
# calls/self_s that the wrapper must measure)
TARGETS = (
    ("cli", "main", None, ()),
    ("config", "parse_config", None, ()),
    ("config", "build_initial", None, ()),
    ("stepping", "integrate", None, ()),
    ("stepping", "step", None, ()),
    ("galerkin", "nonlinear_term", None, ("minflt",)),
    ("galerkin", "rhs", None, ()),
    ("fields", "_eval_series", "synthesis", ("nodes",)),
    ("fields", "_transform_series", "analysis", ("nodes",)),
    ("fields", "inverse", None, ()),
    ("fields", "write_snapshot", None, ("bytes",)),
    ("fields", "random_field", None, ()),
    ("operators", "padded_values", None, ()),
    ("operators", "padded_jacobian", None, ()),
    ("operators", "padded_laplacian_values", None, ()),
    ("operators", "padded_grad_laplacian", None, ()),
    ("operators", "cubic_gradient_values", None, ()),
    ("operators", "cubic_laplacian_values", None, ()),
    ("diagnostics", "norms", None, ("minflt",)),
    ("diagnostics", "energy_balance_residual", None, ()),
    ("diagnostics", "EnergyLedger.from_trajectory", None, ()),
    ("diagnostics", "EnergyLedger.write_csv", None, ("bytes",)),
    ("inequalities", "check_interp", None, ()),
    ("inequalities", "check_elliptic", None, ()),
    ("inequalities", "check_product_hs", None, ()),
    ("inequalities", "check_cubic_lipschitz", None, ()),
    ("inequalities", "check_cross_diff", None, ()),
    ("inequalities", "gn_check", None, ()),
)

# per-layer metrics, each the per-operation value's median over the
# traced operations of a run; the order is the README's table
LAYER_METRICS = (
    "stepping.step.calls", "stepping.step.self_s", "stepping.integrate.self_s",
    "galerkin.nonlinear_term.calls", "galerkin.nonlinear_term.self_s",
    "galerkin.nonlinear_term.minflt", "galerkin.rhs.self_s",
    "fields.synthesis_cos.calls", "fields.synthesis_cos.self_s", "fields.synthesis_cos.nodes",
    "fields.synthesis_mixed.calls", "fields.synthesis_mixed.self_s",
    "fields.synthesis_mixed.nodes",
    "fields.analysis_cos.calls", "fields.analysis_cos.self_s", "fields.analysis_cos.nodes",
    "fields.inverse.self_s",
    "fields.write_snapshot.calls", "fields.write_snapshot.self_s", "fields.write_snapshot.bytes",
    "fields.random_field.self_s",
    "operators.padded_values.self_s", "operators.padded_jacobian.self_s",
    "operators.padded_laplacian_values.self_s", "operators.padded_grad_laplacian.self_s",
    "operators.cubic_gradient_values.self_s", "operators.cubic_laplacian_values.self_s",
    "diagnostics.norms.calls", "diagnostics.norms.self_s", "diagnostics.norms.minflt",
    "diagnostics.EnergyLedger.from_trajectory.self_s",
    "diagnostics.energy_balance_residual.self_s",
    "diagnostics.EnergyLedger.write_csv.self_s", "diagnostics.EnergyLedger.write_csv.bytes",
    "inequalities.check_interp.self_s", "inequalities.check_elliptic.self_s",
    "inequalities.check_product_hs.self_s", "inequalities.check_cubic_lipschitz.self_s",
    "inequalities.check_cross_diff.self_s", "inequalities.gn_check.self_s",
    "config.parse_config.self_s", "config.build_initial.self_s",
    "cli.main.self_s",
    "process.minflt",
    "trace.overhead_s",
)

UNITS = {"calls": "count", "self_s": "s", "minflt": "count", "nodes": "count",
         "bytes": "B", "overhead_s": "s"}

ROOT = "process"


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _snapshot_bytes(args) -> int:
    # LLBR header (magic, version, dim, N_j u32, L_j f64) plus float64 samples
    u = args[1]
    return 12 + 12 * u.grid.dim + 8 * u.data.size


class Tracer:
    def __init__(self) -> None:
        # (op, span id, parent id, name, start, end, minflt, nodes, bytes)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._op = -1
        self._first: dict[int, int] = {}  # op -> index of its first span
        self._swaps: list[tuple[object, str, object, object]] = []
        modules = {
            name.partition(".")[2] or name: mod
            for name, mod in sys.modules.items()
            if name == "llbar" or name.startswith("llbar.")
        }
        for module, path, span, stats in TARGETS:
            owner = modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            name = f"{module}.{span or path}"
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, stats))
                self._swaps.append((owner, attr, original, wrapped))
                continue
            wrapped = self._wrap(original, name, stats)
            # every module attribute bound to this function object
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, key, original, wrapped))
            if cls_path:
                self._swaps.append((owner, attr, original, wrapped))

    def _wrap(self, fn, name: str, stats: tuple[str, ...]):
        spans, stack, ids = self.spans, self._stack, self._ids
        perf = time.perf_counter
        faults = "minflt" in stats
        by_parity = "nodes" in stats  # the two series transforms
        synthesis = fn.__name__ == "_eval_series"
        write_bytes = "bytes" in stats

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            f0 = _minflt() if faults else 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                f1 = _minflt() if faults else 0
                stack.pop()
            label, nodes, nbytes = name, 0, 0
            if by_parity:
                parities = args[2] if len(args) > 2 else kwargs["parities"]
                mixed = any(p != "cos" for p in parities)
                label = f"{name}_{'mixed' if mixed else 'cos'}"
                nodes = result.size if synthesis else args[0].size
            elif write_bytes:
                nbytes = (_snapshot_bytes(args) if fn.__name__ == "write_snapshot"
                          else os.path.getsize(args[1]))
            spans.append((self._op, sid, parent, label, t0, t1, f1 - f0, nodes, nbytes))
            return result

        return wrapper

    def install(self, op: int) -> None:
        self._op = op
        for owner, key, _, wrapped in self._swaps:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)

    def run(self, op: int, fn):
        """Call ``fn()`` as operation ``op`` under a root span with wrappers in place."""
        self._first[op] = len(self.spans)
        self.install(op)
        sid = next(self._ids)
        self._stack.append(sid)
        f0, t0 = _minflt(), time.perf_counter()
        try:
            return fn()
        finally:
            t1, f1 = time.perf_counter(), _minflt()
            self._stack.pop()
            self.uninstall()
            self.spans.append((op, sid, -1, ROOT, t0, t1, f1 - f0, 0, 0))

    def op_stats(self, op: int) -> dict[str, float]:
        """Calls, self time, faults, nodes and bytes per span name of one operation."""
        spans = [s for s in self.spans[self._first[op]:] if s[0] == op]
        child = defaultdict(float)
        for _, sid, parent, _, t0, t1, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        row: dict[str, float] = defaultdict(float)
        for _, sid, _, name, t0, t1, flt, nodes, nbytes in spans:
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += (t1 - t0) - child[sid]
            row[f"{name}.minflt"] += flt
            row[f"{name}.nodes"] += nodes
            row[f"{name}.bytes"] += nbytes
        return row

    def layer_metrics(self, overhead_s: float) -> dict[str, dict]:
        rows = [self.op_stats(op) for op in self._first]
        metrics = {}
        for name in LAYER_METRICS:
            stat = name.rpartition(".")[2]
            if name == "trace.overhead_s":
                value = overhead_s
            else:
                value = statistics.median(row.get(name, 0) for row in rows)
            metrics[name] = {"value": value, "unit": UNITS[stat]}
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s,minflt,nodes,bytes\n")
            for op, sid, parent, name, t0, t1, flt, nodes, nbytes in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{t0:.9f},{t1:.9f},{flt},{nodes},{nbytes}\n")
