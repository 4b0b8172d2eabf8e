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
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

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


def _git(tree: Path, *args: str) -> str:
    run = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else ""


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


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


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", action="append", default=[], metavar="LABEL=PATH",
        help="a checkout to measure (repeatable; default: this one, as 'this')",
    )
    parser.add_argument("--repeats", type=int, default=11, help="fresh processes per timing")
    parser.add_argument("--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (quartiles need two samples)")
    trees = {}
    for spec in args.tree or [f"this={REPO}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "llbar").is_dir():
            parser.error(f"--tree {spec!r}: expected LABEL=PATH of an llbar checkout")
        trees[label] = Path(path).resolve()

    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    samples: dict[str, list[dict]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        for tree in trees.values():
            _sample(tree, env, workdir)  # fill the bytecode caches
        order = list(trees)
        for round_ in range(args.repeats):
            for label in order if round_ % 2 == 0 else order[::-1]:
                samples[label].append(_sample(trees[label], env, workdir))

    report = {
        "machine": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "blas_threads": env["OPENBLAS_NUM_THREADS"],
        },
        "repeats": args.repeats,
        "trees": {},
    }
    for label, tree in trees.items():
        rows = samples[label]
        dirty = bool(_git(tree, "status", "--porcelain", "--untracked-files=no", "--", "src"))
        entry = {"commit": _git(tree, "rev-parse", "HEAD"), "src_modified": dirty}
        entry["scipy_after_import"] = any(row["scipy_after_import"] for row in rows)
        for name in ("import_s", *COMMANDS):
            values = [row[name] for row in rows]
            entry[name] = {**_summary(values), "samples": values}
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
