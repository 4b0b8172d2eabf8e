"""Per-layer timings of llbar's transforms and time steps, one fresh process per sample.

Measures, for one or more checkouts, in rounds that alternate which
checkout runs first, the seconds per call of:

- ``synthesis``: the six-component padded-grid evaluation of
  ``nonlinear_term`` (u and Lap u on 2M points per axis), into a work pair;
- ``analysis``: the projection of six padded-grid products back onto
  the band, into the same pair;
- ``nonlinear_term``, and one ``step`` of each scheme (the IMEX-CNAB2 step
  from a state that carries its Adams--Bashforth remainder);
- ``norms`` of a snapshot and ``inverse`` onto the grid;

on three bands: d=2 32^2 on a 32^2 grid, d=3 8^3 on 16^3 and d=2 8^2 on
16^2; and, at the defaults of the two verify commands (d=2 8^2 on 16^2,
128 draws, seed 7):

- ``inequality_catalogue``: ``inequalities.check_catalogue`` of the
  catalogue ``verify-inequalities`` runs;
- ``identity_ensemble``: ``diagnostics.identity_ensemble``, the work of
  ``verify-identities``.

Both run at glibc's default malloc thresholds, not at the ones the CLI
sets.  Each process times every layer as the median of seven batches
of about ``BUDGET_S / 7`` seconds, so one sample per checkout and round,
``REPEATS`` rounds.  With ``--pairs N`` it also runs N alternating pairs
of ``perfbench/run.py --trace 0`` per ``--workload`` and records every
metric.  The JSON written to ``--output`` holds the
machine (cores, Python, numpy and scipy versions, BLAS thread count),
each checkout's git commit, every sample, and the median and quartiles
of each timing.  Standard library only, so the launcher itself imports
neither numpy nor scipy.

    python scripts/layer_bench.py --tree before=../parent --tree after=. \\
        --pairs 10 --workload run-d2-full-band --seed 4711 --output BENCH.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import launcher

# (label, extents, grid points, band); the band's padded grid is 2M per axis
CASES = (
    ("d2 32^2/32^2", (1.0, 0.8), (32, 32), (32, 32)),
    ("d3 8^3/16^3", (1.0, 0.8, 1.2), (16, 16, 16), (8, 8, 8)),
    ("d2 8^2/16^2", (1.0, 0.8), (16, 16), (8, 8)),
)
LAYERS = (
    "synthesis", "analysis", "nonlinear_term",
    "step_ETDRK2", "step_IMEX-CNAB2", "step_IMEX-Euler", "norms", "inverse",
)
VERIFY_CASE = "verify d2 8^2/16^2 x128"
VERIFY_LAYERS = ("inequality_catalogue", "identity_ensemble")
REPEATS = 11  # fresh processes per checkout
BUDGET_S = 0.35  # seconds per layer and process

# Runs in a fresh interpreter with the checkout's src first on sys.path.
# It reaches only names every checkout since the transform layer's
# work pairs has: fields._series_work/_eval_series/_transform_series,
# galerkin.nonlinear_term, stepping.step, diagnostics.norms,
# diagnostics.identity_ensemble, fields.inverse and
# inequalities.check_catalogue.
_PROBE = r"""
import json, math, statistics, sys, time
import numpy as np
from llbar import diagnostics, fields, galerkin, inequalities, stepping
from llbar.fields import GridSpec
from llbar.galerkin import LLBarParams

params = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)
cases, budget, verify_case = json.loads(sys.argv[1]), float(sys.argv[2]), sys.argv[3]


def per_call(fn):
    # calls per batch so that a batch lasts about budget / 7 seconds
    fn()
    t0 = time.perf_counter()
    fn()
    number = max(1, int(budget / 7 / max(time.perf_counter() - t0, 1e-7)))
    batches = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        batches.append((time.perf_counter() - t0) / number)
    return statistics.median(batches)


out = {}
for label, extents, points, modes in cases:
    grid = GridSpec(tuple(extents), tuple(points))
    modes, padded, all_cos = tuple(modes), grid.padded(tuple(modes)), ("cos",) * len(modes)
    u = fields.random_field(grid, modes, seed=3, decay=4.0, amplitude=0.8)
    rng = np.random.default_rng(0)
    coeffs, values = rng.standard_normal((6,) + modes), rng.standard_normal((6,) + padded)
    work = fields._series_work(6, modes, padded)
    row = {
        "synthesis": per_call(lambda: fields._eval_series(coeffs, grid.extents, all_cos, padded, work)),
        "analysis": per_call(lambda: fields._transform_series(values, grid.extents, all_cos, modes, work)),
        "nonlinear_term": per_call(lambda: galerkin.nonlinear_term(u, params)),
    }
    for scheme in stepping.SCHEMES:
        policy = stepping.IntegratorPolicy(dt=1e-3, t_end=1.0, scheme=scheme)
        state = stepping.step(stepping.SolverState(t=0.0, u=u, step_index=0), params, policy)
        row["step_" + scheme] = per_call(lambda: stepping.step(state, params, policy))
    row["norms"] = per_call(lambda: diagnostics.norms(u))
    row["inverse"] = per_call(lambda: fields.inverse(u))
    out[label] = row

# the defaults of verify-identities and verify-inequalities
grid, modes = GridSpec((1.0, 0.8), (16, 16)), (8, 8)
catalogue = inequalities.Catalogue(
    interp=True, elliptic=True, product_s=2, cubic_ks=(0, 1, 2), cross_ks=(0, 1, 2),
    gn=((0, 4.0, 0, 1), (0, math.inf, 0, 2)),
)
spec = inequalities.SampleSpec(seed=7, count=128, modes=modes)
out[verify_case] = {
    "inequality_catalogue": per_call(lambda: inequalities.check_catalogue(grid, spec, catalogue)),
    "identity_ensemble": per_call(lambda: diagnostics.identity_ensemble(grid, modes, params, 7, 128)),
}
print(json.dumps(out))
"""


def _layers(tree: Path, env: dict[str, str]) -> dict:
    """One fresh-process reading of every layer on every case for ``tree``."""
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(CASES), repr(BUDGET_S), VERIFY_CASE],
        env=dict(env, PYTHONPATH=str(tree / "src")), cwd=tree,
        capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout)


def _perfbench(tree: Path, env: dict[str, str], workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run of ``workload`` in ``tree``."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(run.stdout)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def _layer_names() -> list[tuple[str, tuple[str, ...]]]:
    """Each timed case with the layers timed on it."""
    return [(case, LAYERS) for case, *_ in CASES] + [(VERIFY_CASE, VERIFY_LAYERS)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    launcher.add_tree_argument(parser)
    parser.add_argument("--pairs", type=int, default=0, help="perfbench runs per checkout and workload")
    parser.add_argument("--workload", action="append", default=[], help="perfbench workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds")
    parser.add_argument("--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs == 1:
        parser.error("--pairs needs at least two runs (quartiles), or 0")
    if args.pairs and not args.workload:
        parser.error("--pairs needs at least one --workload")
    trees = launcher.checkouts(parser, args.tree)
    workloads = args.workload if args.pairs else []

    env = launcher.one_blas_thread()
    order = list(trees)
    layers: dict[str, list[dict]] = {label: [] for label in trees}
    for label in launcher.alternating(order, REPEATS):
        layers[label].append(_layers(trees[label], env))
    runs: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in workloads} for label in trees}
    for workload in workloads:
        for label in launcher.alternating(order, args.pairs):
            runs[label][workload].append(
                _perfbench(trees[label], env, workload, args.seed, args.seconds)
            )

    report = {
        "machine": launcher.machine(env),
        "repeats": REPEATS,
        "unit": "seconds per call",
        "trees": {},
    }
    if workloads:
        report["perfbench"] = {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds}
    for label, tree in trees.items():
        entry = {**launcher.commit(tree), "layers": {}}
        for case, names in _layer_names():
            entry["layers"][case] = {
                layer: launcher.summary([sample[case][layer] for sample in layers[label]])
                for layer in names
            }
        if workloads:
            entry["perfbench"] = {}
            for workload, rows in runs[label].items():
                entry["perfbench"][workload] = {"correct": all(row["correct"] for row in rows)}
                for name in rows[0]:
                    if name != "correct":
                        entry["perfbench"][workload][name] = launcher.summary([row[name] for row in rows])
        report["trees"][label] = entry
    if workloads and len(order) == 2:
        # pair k is run k of each checkout; count where the second reads lower
        report["perfbench"]["second_lower"] = {
            workload: {
                name: sum(b < a for a, b in zip(
                    *(report["trees"][label]["perfbench"][workload][name]["samples"] for label in order)
                ))
                for name in ("setup_s", "op_s", "peak_rss_mib")
            }
            for workload in workloads
        }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    first = order[0]
    for case, names in _layer_names():
        print(case)
        for layer in names:
            medians = [report["trees"][label]["layers"][case][layer]["median"] for label in order]
            cells = "  ".join(f"{label} {m * 1e6:9.1f} us" for label, m in zip(order, medians))
            ratios = "  ".join(f"{m / medians[0]:.3f}" for m in medians[1:])
            print(f"  {layer:20s} {cells}  {ratios and f'(/{first}: {ratios})'}")
    for workload in workloads:
        for label in order:
            stats = report["trees"][label]["perfbench"][workload]
            cells = ", ".join(
                f"{name} {stats[name]['median']:.4g}" for name in ("setup_s", "op_s", "peak_rss_mib")
            )
            print(f"{workload} {label}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
