"""Cold-start timings of the llbar command line, one fresh process per sample.

Measures, for one or more checkouts, in rounds that alternate which
checkout runs first:

- ``import_s``: ``import llbar.cli``, timed inside a fresh interpreter;
- ``verify_identities_s``: wall time of ``python -m llbar verify-identities``;
- ``depend_s``: wall time of ``python -m llbar depend``;

both commands at their defaults.  Each checkout's bytecode caches are
filled by one untimed run of every sample first.  The JSON written to
``--output`` holds the machine (cores, Python, numpy and scipy versions,
BLAS thread count), each checkout's git commit, every sample, and the
median and quartiles of each timing.  Standard library only, so the
launcher itself imports neither numpy nor scipy.

    python scripts/cold_start.py --tree before=../parent --tree after=. \\
        --repeats 11 --output BENCH.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import launcher

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import llbar.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    "print(elapsed, any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n"
)
COMMANDS = {
    "verify_identities_s": ["verify-identities"],
    "depend_s": ["depend"],
}


def _sample(tree: Path, env: dict[str, str], workdir: str) -> dict[str, float | bool]:
    """One fresh-process reading of every timing for ``tree``."""
    env = dict(env, PYTHONPATH=str(tree / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, cwd=workdir, capture_output=True, text=True, check=True,
    )
    elapsed, scipy_loaded = probe.stdout.split()
    out: dict[str, float | bool] = {"import_s": float(elapsed), "scipy_after_import": scipy_loaded == "True"}
    for name, argv in COMMANDS.items():
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "llbar", *argv],
            env=env, cwd=workdir, capture_output=True, check=True,
        )
        out[name] = time.perf_counter() - t0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    launcher.add_tree_argument(parser)
    parser.add_argument("--repeats", type=int, default=11, help="fresh processes per timing")
    parser.add_argument("--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (quartiles need two samples)")
    trees = launcher.checkouts(parser, args.tree)

    env = launcher.one_blas_thread()
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        for tree in trees.values():
            _sample(tree, env, workdir)  # fill the bytecode caches
        for label in launcher.alternating(list(trees), args.repeats):
            samples[label].append(_sample(trees[label], env, workdir))

    report = {"machine": launcher.machine(env), "repeats": args.repeats, "trees": {}}
    for label, tree in trees.items():
        rows = samples[label]
        entry = launcher.commit(tree)
        entry["scipy_after_import"] = any(row["scipy_after_import"] for row in rows)
        for name in ("import_s", *COMMANDS):
            entry[name] = launcher.summary([row[name] for row in rows])
        report["trees"][label] = entry
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    for label, entry in report["trees"].items():
        cells = ", ".join(
            f"{name} {entry[name]['median']:.3f} ({entry[name]['q1']:.3f}-{entry[name]['q3']:.3f})"
            for name in ("import_s", *COMMANDS)
        )
        print(f"{label}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
