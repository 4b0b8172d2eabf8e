"""Shared pieces of the timing launchers in this directory.

``cold_start.py`` and ``layer_bench.py`` both time one or more llbar
checkouts in fresh processes, in rounds that alternate which checkout
runs first, and write JSON with the same machine block, per-checkout
commit and per-timing summary.  Those pieces live here.  Standard
library only, so a launcher imports neither numpy nor scipy.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parents[1]


def add_tree_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tree", action="append", default=[], metavar="LABEL=PATH",
        help="a checkout to measure (repeatable; default: this one, as 'this')",
    )


def checkouts(parser: argparse.ArgumentParser, specs: list[str]) -> dict[str, Path]:
    """The ``--tree LABEL=PATH`` arguments as labelled checkout roots."""
    trees = {}
    for spec in specs or [f"this={REPO}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "llbar").is_dir():
            parser.error(f"--tree {spec!r}: expected LABEL=PATH of an llbar checkout")
        trees[label] = Path(path).resolve()
    return trees


def alternating(labels: list[str], rounds: int) -> Iterator[str]:
    """Every label once per round, in reversed order every other round."""
    for round_ in range(rounds):
        yield from labels if round_ % 2 == 0 else labels[::-1]


def one_blas_thread() -> dict[str, str]:
    """This process's environment, with one OpenBLAS thread unless set."""
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine(env: dict[str, str]) -> dict:
    """Cores, platform, Python, numpy and scipy versions, BLAS threads."""
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


def _git(tree: Path, *args: str) -> str:
    run = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else ""


def commit(tree: Path) -> dict:
    """The checkout's git commit and whether its ``src`` differs from it."""
    dirty = bool(_git(tree, "status", "--porcelain", "--untracked-files=no", "--", "src"))
    return {"commit": _git(tree, "rev-parse", "HEAD"), "src_modified": dirty}


def summary(values: list[float]) -> dict:
    """Median, quartiles and every sample of one timing."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": values}
