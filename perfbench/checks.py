"""Output checks, written from the README's file formats and the method.

Nothing here imports llbar.  Ledgers and snapshots are parsed with this
module's own readers (``struct`` and numpy), the initial field is redrawn
from the README's recipe, and every comparison is against an independent
computation or a property the method must have, never against a stored
copy of earlier output.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from inputs import LEDGER_PREFIX

LEDGER_COLUMNS = (
    "t", "L2", "L4", "L6", "Linf", "gradL2", "deltaL2", "gradDeltaL2",
    "delta2L2", "gradDelta2L2", "uDotGradU", "absUabsGradU", "uDotDeltaU",
    "absUabsDeltaU", "balance_residual",
)
REPORT_COLUMNS = ("inequality", "max_ratio", "median_ratio", "violations", "witness_seed")

TIME_TOL = 1e-12
# Parseval (program) against midpoint quadrature of the written samples
# (here): both exact for a band below the grid, so only rounding separates
# them (<= 1e-15 measured).
L2_TOL = 1e-10
INITIAL_TOL = 1e-12
# The L2 law holds for the Galerkin ODE; ETDRK2 at dt = 1e-3 may overshoot
# it by its O(dt^2) global error at most.
ENERGY_SLACK = 1e-6
# Recomputing the defect column repeats the same arithmetic on the same
# %.17g cells, so only rounding may differ.
DEFECT_AGREE_TOL = 1e-9
# Defect of the discrete L2 law relative to the largest term of the law.
# It is the O(h^2) error of the centered differences (measured <= 3.4e-4
# over 60 seeds, growing like |u0|^4.5); any wrong or missing term of the
# law is O(1) instead.  See README.
DEFECT_TOL = 1e-2
CONSTANT_ONE_SLACK = 1e-9
RATIO_TOL = 1e-12


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_ledger(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[-1] == "", f"{path}: no final newline")
    header, rows = lines[0], lines[1:-1]
    _require(tuple(header.split(",")) == LEDGER_COLUMNS, f"{path}: header {header!r}")
    table = []
    for n, row in enumerate(rows, 2):
        cells = row.split(",")
        _require(len(cells) == len(LEDGER_COLUMNS), f"{path}:{n}: {len(cells)} cells")
        try:
            table.append([float(c) for c in cells])
        except ValueError as err:
            raise CheckFailed(f"{path}:{n}: {err}") from err
    data = np.array(table, dtype=float).reshape(len(table), len(LEDGER_COLUMNS))
    _require(bool(np.isfinite(data).all()), f"{path}: non-finite cell")
    return {name: data[:, j] for j, name in enumerate(LEDGER_COLUMNS)}


def read_snapshot(path) -> tuple[tuple[int, ...], tuple[float, ...], np.ndarray]:
    """Parse one LLBR file; returns (points, extents, samples[3, *points])."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _require(raw[:4] == b"LLBR", f"{path}: magic {raw[:4]!r}")
    _require(len(raw) >= 12, f"{path}: truncated header")
    version, dim = struct.unpack_from("<II", raw, 4)
    _require(version == 1 and dim in (1, 2, 3), f"{path}: version {version}, dim {dim}")
    head = 12 + 12 * dim
    _require(len(raw) >= head, f"{path}: truncated header")
    points = struct.unpack_from(f"<{dim}I", raw, 12)
    extents = struct.unpack_from(f"<{dim}d", raw, 12 + 4 * dim)
    count = 3 * math.prod(points)
    _require(len(raw) == head + 8 * count, f"{path}: {len(raw)} bytes for {points}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=head)
    samples = np.moveaxis(flat.reshape(points + (3,)), -1, 0)
    _require(bool(np.isfinite(samples).all()), f"{path}: non-finite sample")
    return points, extents, samples


def eigenvalues(extents, modes) -> np.ndarray:
    """Neumann eigenvalues sum_j (k_j pi / L_j)^2 on a mode box."""
    lam = np.zeros(tuple(modes))
    for j, (M, L) in enumerate(zip(modes, extents)):
        shape = [1] * len(modes)
        shape[j] = M
        lam = lam + ((np.arange(M) * math.pi / L) ** 2).reshape(shape)
    return lam


def normal_draw(seed: int, index: int, shape) -> np.ndarray:
    """Standard normals of the README's Philox4x64-10 stream keyed (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def initial_l2(spec) -> float:
    coeffs = normal_draw(spec.seed, 0, (3,) + tuple(spec.modes))
    coeffs *= spec.amplitude * (1.0 + eigenvalues(spec.extents, spec.modes)) ** (
        -spec.decay / 2.0
    )
    return math.sqrt(float((coeffs**2).sum()))


def _ddt(y: np.ndarray, h: float) -> np.ndarray:
    """Centered differences, second-order one-sided at both ends."""
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def energy_law_terms(spec, cols) -> list[np.ndarray]:
    """Terms of 1/2 d|u|^2/dt + b1|grad u|^2 + b2|Du|^2 + b3|u|_4^4
    + 2 b5|u.grad u|^2 + b5 ||u||grad u||^2 - b3|u|^2 = 0, per record."""
    b1, b2, b3, _, b5 = spec.params
    h = spec.dt * spec.cadence
    return [
        0.5 * _ddt(cols["L2"] ** 2, h),
        b1 * cols["gradL2"] ** 2,
        b2 * cols["deltaL2"] ** 2,
        b3 * cols["L4"] ** 4,
        2.0 * b5 * cols["uDotGradU"] ** 2,
        b5 * cols["absUabsGradU"] ** 2,
        -b3 * cols["L2"] ** 2,
    ]


def check_run(spec, outdir: str) -> int:
    """Check one ``llbar run`` output directory; returns the snapshot bytes on disk."""
    ledger_path = os.path.join(outdir, f"{LEDGER_PREFIX}_ledger.csv")
    cols = read_ledger(ledger_path)
    rows = spec.rows
    _require(len(cols["t"]) == rows, f"ledger has {len(cols['t'])} rows, want {rows}")
    snaps = [os.path.join(outdir, f"{LEDGER_PREFIX}_{i:06d}.snap") for i in range(rows)]
    expected = {os.path.basename(p) for p in snaps + [ledger_path]}
    found = set(os.listdir(outdir))
    _require(found == expected, f"files {sorted(found ^ expected)} unexpected or missing")

    t = cols["t"]
    want = np.arange(rows) * spec.dt * spec.cadence
    _require(bool(np.abs(t - want).max() <= TIME_TOL), "t column off the cadence grid")
    _require(abs(t[-1] - spec.t_end) <= TIME_TOL, f"last t {t[-1]:.17g} != t_end")

    cell = math.prod(L / N for L, N in zip(spec.extents, spec.points))
    total_bytes = 0
    for i, path in enumerate(snaps):
        points, extents, samples = read_snapshot(path)
        total_bytes += os.path.getsize(path)
        _require(points == tuple(spec.points), f"{path}: points {points}")
        _require(extents == tuple(spec.extents), f"{path}: extents {extents}")
        quad = math.sqrt(float((samples**2).sum()) * cell)
        gap = abs(quad - cols["L2"][i]) / cols["L2"][i]
        _require(gap <= L2_TOL, f"record {i}: quadrature L2 {quad:.17g} vs ledger "
                 f"{cols['L2'][i]:.17g} (rel {gap:.3g})")

    l2_0 = initial_l2(spec)
    gap = abs(cols["L2"][0] - l2_0) / l2_0
    _require(gap <= INITIAL_TOL, f"initial L2 {cols['L2'][0]:.17g} vs own draw {l2_0:.17g}")

    bound = max(cols["L2"][0], math.sqrt(math.prod(spec.extents))) * (1.0 + ENERGY_SLACK)
    worst = int(np.argmax(cols["L2"]))
    _require(cols["L2"][worst] <= bound,
             f"record {worst}: L2 {cols['L2'][worst]:.17g} above the energy bound {bound:.17g}")

    residual = cols["balance_residual"]
    if rows < 3:
        _require(bool((residual == 0.0).all()), "balance_residual nonzero with < 3 records")
    else:
        terms = energy_law_terms(spec, cols)
        defect = sum(terms)
        scale = np.max(np.abs(terms), axis=0)
        agree = np.abs(defect - residual) / scale
        _require(bool(agree.max() <= DEFECT_AGREE_TOL),
                 f"balance_residual disagrees with the recomputed defect "
                 f"(rel {agree.max():.3g} at record {int(np.argmax(agree))})")
        size = np.abs(defect) / scale
        _require(bool(size.max() <= DEFECT_TOL),
                 f"energy defect {size.max():.3g} of scale at record "
                 f"{int(np.argmax(size))} exceeds {DEFECT_TOL:g}")
    return total_bytes


def read_report(path) -> dict[str, tuple[float, float, int]]:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[-1] == "", f"{path}: no final newline")
    _require(tuple(lines[0].split(",")) == REPORT_COLUMNS, f"{path}: header {lines[0]!r}")
    out = {}
    for n, row in enumerate(lines[1:-1], 2):
        cells = row.split(",")
        _require(len(cells) == len(REPORT_COLUMNS), f"{path}:{n}: {len(cells)} cells")
        try:
            out[cells[0]] = (float(cells[1]), float(cells[2]), int(cells[3]))
        except ValueError as err:
            raise CheckFailed(f"{path}:{n}: {err}") from err
    return out


def interp_maxima(spec) -> tuple[float, float]:
    """Maxima over the ensemble of |Dv|^2/(|grad v||grad Dv|) and
    |grad Dv|^2/(|Dv||D^2 v|), from lambda-moments of flat-law draws."""
    modes = (spec.modes,) * spec.dim
    lam = eigenvalues(spec.extents, modes)
    eq3 = eq4 = 0.0
    for i in range(spec.count):
        c2 = (normal_draw(spec.seed, i, (3,) + modes) ** 2).sum(axis=0)
        m1, m2, m3, m4 = (float((lam**k * c2).sum()) for k in range(1, 5))
        eq3 = max(eq3, m2 / (math.sqrt(m1) * math.sqrt(m3)))
        eq4 = max(eq4, m3 / (math.sqrt(m2) * math.sqrt(m4)))
    return eq3, eq4


def check_verify(spec, identities_out: str, report_path: str) -> None:
    lines = identities_out.strip().split("\n")
    _require(len(lines) == 5, f"verify-identities printed {len(lines)} lines, want 5")
    for line in lines:
        _require(line.endswith(" ok") and f"over {spec.count} draws" in line,
                 f"verify-identities: {line!r}")
    report = read_report(report_path)
    for name, (_, _, violations) in report.items():
        _require(violations == 0, f"{name}: {violations} violations")
    for name, mine in zip(("eq3", "eq4"), interp_maxima(spec)):
        _require(name in report, f"report lacks {name}")
        theirs = report[name][0]
        _require(theirs <= 1.0 + CONSTANT_ONE_SLACK, f"{name} max {theirs!r} > 1 + 1e-9")
        _require(abs(theirs - mine) <= RATIO_TOL * mine,
                 f"{name} max {theirs!r} vs recomputed {mine!r}")
