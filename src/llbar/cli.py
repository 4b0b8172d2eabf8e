"""Command-line front end.

``llbar run <config>`` integrates a configured problem, writing the norm
ledger and state snapshots at the configured cadence.  The verification
subcommands re-run the certified checks on demand:

    verify-identities    algebraic identities on random band ensembles
    verify-inequalities  ratio ensembles for the inequality catalogue
    converge             Galerkin band-doubling self-convergence
    holder               Hoelder difference quotients along a trajectory
    depend               continuous dependence on initial data
    tstar                lower bound on the norm-inflation blow-up time

Exit codes: 0 success, 2 configuration error, 3 blow-up abort,
4 assertion failure, 5 I/O error.  Every failure path prints exactly one
``llbar: <code>: <detail>`` line to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import NoReturn

import numpy as np

from . import diagnostics, fields, galerkin, inequalities, operators, stepping
from .config import ConfigError, build_initial, parse_config
from .fields import GridSpec, SpectralField
from .galerkin import LLBarParams
from .inequalities import SampleSpec
from .stepping import BlowupError, IntegratorPolicy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ASSERT = 4
EXIT_IO = 5

_IDENTITY_TOL = 1e-9
# Draws per stacked evaluation in verify-identities.  At d=2 16/8 a block
# of 6 peaks at about 0.55 MB of temporaries, below what verify-inequalities
# peaks at; blocks of 8 or more ran at most 10% faster but raised the peak
# resident memory of a process that runs both commands.
_IDENTITY_BLOCK = 6

# mildly anisotropic box so axis-ordering mistakes cannot cancel out
_ENSEMBLE_EXTENTS = (1.0, 0.8, 1.2)

_DEFAULT_PARAMS = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)

# exponent table exercised by verify-inequalities, keyed by dimension
_GN_TABLE = (
    (1, 4.0, 1, 0, 3),
    (1, 4.0, 1, 1, 2),
    (2, 4.0, 0, 0, 1),
    (2, math.inf, 0, 0, 2),
    (3, 4.0, 0, 0, 1),
    (3, 4.0, 0, 0, 2),
    (3, math.inf, 0, 1, 2),
)


class VerificationFailure(Exception):
    """An on-demand check did not hold; the message names the witness."""


def _emit(code: str, detail: str) -> None:
    print(f"llbar: {code}: {detail}".replace("\n", " | "), file=sys.stderr)


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _ensemble_space(dim: int, points: int, modes: int) -> tuple[GridSpec, tuple[int, ...]]:
    problems = []
    if dim not in (1, 2, 3):
        problems.append(f"--dim: must be 1, 2 or 3, got {dim}")
    if modes < 1:
        problems.append(f"--modes: must be at least 1, got {modes}")
    if dim in (1, 2, 3) and modes > points:
        problems.append(f"--modes: band {modes} exceeds {points} grid points")
    if problems:
        raise ConfigError(problems)
    return _box_grid(dim, points, "--points"), (modes,) * dim


def _box_grid(dim: int, points: int, flag: str) -> GridSpec:
    try:
        return GridSpec(_ENSEMBLE_EXTENTS[:dim], (points,) * dim)
    except ValueError as err:
        raise ConfigError([f"{flag}: {err}"]) from err


def _require_completed(traj: stepping.Trajectory) -> stepping.Trajectory:
    if traj.aborted:
        raise BlowupError(*traj.blowup)
    return traj


def _coeff_l2(delta: np.ndarray) -> float:
    return float(np.sqrt((delta**2).sum()))


def _policy(args: argparse.Namespace) -> IntegratorPolicy:
    try:
        return IntegratorPolicy(dt=args.dt, t_end=args.tend)
    except ValueError as err:
        raise ConfigError([f"--dt/--tend: {err}"]) from err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.config, "r") as fh:
        text = fh.read()
    cfg = parse_config(text, args.override)
    try:
        u0 = build_initial(cfg.initial, cfg.grid, cfg.modes)
    except ValueError as err:
        raise ConfigError([f"[initial]: {err}"]) from err
    traj = stepping.integrate(
        u0, cfg.params, cfg.policy, modes=cfg.modes, cadence=cfg.cadence
    )
    while True:
        try:
            ledger = diagnostics.EnergyLedger.from_trajectory(traj, params=cfg.params)
            break
        except ValueError as err:  # a recorded norm overflowed the float range
            if not traj.aborted or len(traj) == 1:
                _emit("blowup", f"recorded norms overflowed ({err}); nothing written")
                return EXIT_BLOWUP
            # an aborted run keeps every record before the overflowing ones
            del traj.times[-1], traj.snapshots[-1]
    os.makedirs(cfg.directory, exist_ok=True)
    ledger.write_csv(os.path.join(cfg.directory, f"{cfg.prefix}_ledger.csv"))
    for i, u in enumerate(traj.snapshots):
        path = os.path.join(cfg.directory, f"{cfg.prefix}_{i:06d}.snap")
        fields.write_snapshot(path, fields.inverse(u))
    terminal = ledger.records[-1]
    for name in terminal.__dataclass_fields__:
        print(f"{name} = {getattr(terminal, name):.17g}")
    if traj.aborted:
        t_abort, norm = traj.blowup
        _emit(
            "blowup",
            f"norm {norm:.6g} passed the threshold at t={t_abort:.9g}; "
            f"partial ledger and snapshots flushed to {cfg.directory}",
        )
        return EXIT_BLOWUP
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def _identity_residuals(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, coeffs: np.ndarray
) -> dict[str, np.ndarray]:
    """The five identity residuals of each draw in a (n, 3, *modes) stack.

    One stacked synthesis gives u, Lap u and the Jacobians of both, and
    every residual but one is an array expression over the stack;
    ``l2_balance`` pairs each draw with ``galerkin.rhs``, the code the
    steppers run.
    """
    vol, lam = grid.padded_cell(modes), fields.eigenvalue_array(grid, modes)
    (u, lap), (ju, jlap) = operators.padded_samples(grid, coeffs)
    columns = (ju[:, :, j] for j in range(grid.dim))
    sq = diagnostics._norm_squares(lam, coeffs, u, lap, columns, vol)
    per_draw = inequalities._per_draw

    parseval = abs(vol * per_draw(u * u) - sq["L2"]) / np.maximum(1.0, sq["L2"])
    square = diagnostics._completed_square(u, ju, jlap, params, vol)

    pointwise = np.concatenate([
        operators._cubic_laplacian(u, ju, lap), operators._cubic(u), galerkin._precession(u, lap)
    ], axis=1)
    projected = fields._transform_series(
        pointwise.reshape(pointwise.shape[:2] + grid.padded(modes)),
        grid.extents, ("cos",) * grid.dim, modes,
    )
    direct, cubic, cross = np.split(projected, 3, axis=1)
    routes = np.sqrt(per_draw((direct + lam * cubic) ** 2)) / np.maximum(
        1.0, np.sqrt(per_draw(direct**2))
    )

    pairing = np.array([
        (galerkin.rhs(SpectralField(grid, modes, c), params).coeffs * c).sum() for c in coeffs
    ])
    balance = abs(diagnostics._l2_balance(params, sq, pairing)) / np.maximum(1.0, abs(pairing))
    precession = abs(per_draw(cross * coeffs)) / np.maximum(1.0, sq["L2"])

    return {
        "parseval": parseval,
        "cubic_laplacian_routes": routes,
        "l2_balance": balance,
        "precession_orthogonality": precession,
        "completed_square": square,
    }


def _identity_ensemble(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, seed: int, count: int
) -> dict[str, tuple[float, int]]:
    """Worst residual of each identity over draws 0..count-1 of ``seed``,
    with the first index that attains it.

    The draws are stacked and evaluated ``_IDENTITY_BLOCK`` at a time, so
    memory stays flat in ``count``.
    """
    blocks = []
    for start in range(0, count, _IDENTITY_BLOCK):
        coeffs = np.stack([
            fields.random_field(grid, modes, seed=seed, index=i, decay=4.0).coeffs
            for i in range(start, min(start + _IDENTITY_BLOCK, count))
        ])
        blocks.append(_identity_residuals(grid, modes, params, coeffs))
    residuals = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
    return {name: (float(r.max()), int(np.argmax(r))) for name, r in residuals.items()}


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    grid, modes = _ensemble_space(args.dim, args.points, args.modes)
    if args.count < 1:
        raise ConfigError([f"--count: must be at least 1, got {args.count}"])
    worst = _identity_ensemble(grid, modes, _DEFAULT_PARAMS, args.seed, args.count)
    failures = []
    for name in sorted(worst):
        value, index = worst[name]
        ok = value <= _IDENTITY_TOL
        print(
            f"{name:<26s} max residual {value:.3e} over {args.count} draws "
            f"{'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{name}: residual {value:.6g} > {_IDENTITY_TOL:g} "
                f"(witness seed {args.seed}, index {index})"
            )
    if failures:
        raise VerificationFailure("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-inequalities
# ---------------------------------------------------------------------------


def _cmd_verify_inequalities(args: argparse.Namespace) -> int:
    grid, modes = _ensemble_space(args.dim, args.points, args.modes)
    try:
        spec = SampleSpec(seed=args.seed, count=args.count, modes=modes)
    except ValueError as err:
        raise ConfigError([f"--count: {err}"]) from err
    catalogue = inequalities.Catalogue(
        interp=True, elliptic=True, product_s=grid.dim // 2 + 1,
        cubic_ks=(0, 1, 2), cross_ks=(0, 1, 2),
        gn=tuple((r, q, s1, s2) for d, q, r, s1, s2 in _GN_TABLE if d == grid.dim),
    )
    # open the report before sampling: a bad path fails before the work
    with open(args.output, "w", newline="") if args.output else nullcontext() as fh:
        reports = inequalities.check_catalogue(grid, spec, catalogue)
        print(inequalities.summarize(reports))
        if fh is not None:
            fh.write(inequalities.reports_to_csv(reports))
    bad = [r for r in reports if r.violations > 0]
    if bad:
        raise VerificationFailure(
            "; ".join(
                f"{r.inequality}: max ratio {r.max_ratio:.9g} "
                f"(witness seed {r.witness_seed}, index {r.witness_index})"
                for r in bad
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def _cmd_converge(args: argparse.Namespace) -> int:
    bands = args.bands
    problems = []
    if args.dim not in (1, 2, 3):
        problems.append(f"--dim: must be 1, 2 or 3, got {args.dim}")
    if len(bands) < 2:
        problems.append("--bands: need at least two band sizes")
    if any(b < 1 for b in bands):
        problems.append(f"--bands: sizes must be positive, got {bands}")
    if any(b >= c for b, c in zip(bands, bands[1:])):
        problems.append(f"--bands: sizes must increase, got {bands}")
    if args.initial not in ("random", "constant"):
        problems.append(f"--initial: unknown kind {args.initial!r}")
    if not args.decay >= 0.0:
        problems.append(f"--decay: must be nonnegative, got {args.decay}")
    if problems:
        raise ConfigError(problems)

    dim = args.dim
    top = bands[-1]
    grid = _box_grid(dim, top, "--bands: the top band sets the grid")
    if args.initial == "constant":
        zero = (0,) * dim
        coeffs = np.zeros((3,) + (top,) * dim)
        coeffs[(0, *zero)] = args.amplitude * math.sqrt(
            float(np.prod(grid.extents))
        )
        u_full = SpectralField(grid=grid, modes=(top,) * dim, coeffs=coeffs)
    else:
        u_full = fields.random_field(
            grid, (top,) * dim, seed=args.seed,
            decay=args.decay, amplitude=args.amplitude,
        )
    policy = _policy(args)

    terminals = []
    for b in bands:
        traj = _require_completed(
            stepping.integrate(u_full, _DEFAULT_PARAMS, policy, modes=(b,) * dim)
        )
        terminals.append(traj.terminal)

    diffs = []
    for small, large in zip(terminals, terminals[1:]):
        gap = _coeff_l2(large.coeffs - galerkin.project(small, large.modes).coeffs)
        diffs.append(gap)
        print(
            f"bands {small.modes} -> {large.modes}: terminal L2 difference "
            f"{gap:.6e}"
        )
    failures = []
    for i in range(1, len(diffs)):
        if diffs[i] < 1e-13 and diffs[i - 1] < 1e-13:
            print(f"doubling step {i}: both gaps at rounding level, factor skipped")
            continue
        factor = diffs[i - 1] / diffs[i] if diffs[i] > 0.0 else math.inf
        print(f"doubling step {i}: gap shrink factor {factor:.3g}")
        if factor < 10.0:
            failures.append(
                f"band doubling {bands[i]}->{bands[i + 1]} shrank the gap by "
                f"{factor:.3g} < 10 (seed {args.seed})"
            )
    if failures:
        raise VerificationFailure("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# holder
# ---------------------------------------------------------------------------


def _cmd_holder(args: argparse.Namespace) -> int:
    if args.amplitude == 0.0:
        raise ConfigError(["--amplitude: must be nonzero; a zero field has no quotients"])
    if not 0.0 < args.exponent < 1.0:
        raise ConfigError([f"--exponent: must lie in (0, 1), got {args.exponent}"])
    grid, modes = _ensemble_space(args.dim, args.points, args.modes)
    policy = _policy(args)
    n_full, remainder = stepping._step_plan(policy)
    records = 1 + n_full + (1 if remainder else 0)  # every step is recorded
    if (records + 1) // 2 < diagnostics._HOLDER_MIN_SNAPSHOTS:
        raise ConfigError([
            f"--tend/--dt: {records} snapshots, {(records + 1) // 2} at half "
            f"density; the quotients need at least "
            f"{diagnostics._HOLDER_MIN_SNAPSHOTS} snapshots in both"
        ])
    u0 = fields.random_field(grid, modes, seed=args.seed, decay=4.0, amplitude=args.amplitude)
    traj = _require_completed(
        stepping.integrate(u0, _DEFAULT_PARAMS, policy, modes=modes, cadence=1)
    )
    thin = replace(traj, times=traj.times[::2], snapshots=traj.snapshots[::2])
    dense = diagnostics.holder_quotient(traj, args.exponent, args.norm)
    sparse = diagnostics.holder_quotient(thin, args.exponent, args.norm)
    change = abs(dense.sup_quotient - sparse.sup_quotient) / dense.sup_quotient
    print(
        f"sup |u(t)-u(s)|_{args.norm} / |t-s|^{args.exponent:g} = "
        f"{dense.sup_quotient:.9g} over {dense.pair_count} pairs"
    )
    print(
        f"half snapshot density: {sparse.sup_quotient:.9g} "
        f"(relative change {change:.3%})"
    )
    if change > 0.10:
        raise VerificationFailure(
            f"holder quotient moved {change:.3%} (> 10%) under density halving "
            f"(exponent {args.exponent:g}, norm {args.norm}, seed {args.seed})"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# depend
# ---------------------------------------------------------------------------


def _cmd_depend(args: argparse.Namespace) -> int:
    if not all(0.0 < d < math.inf for d in args.delta):
        raise ConfigError(
            [f"--delta: perturbation sizes must be positive and finite, got {args.delta}"]
        )
    grid, modes = _ensemble_space(args.dim, args.points, args.modes)
    u0 = fields.random_field(grid, modes, seed=args.seed, decay=4.0, amplitude=args.amplitude)
    direction = fields.random_field(grid, modes, seed=args.seed, index=1)
    unit = direction.coeffs / _coeff_l2(direction.coeffs)
    policy = _policy(args)

    reports = []
    for delta in args.delta:
        v0 = SpectralField(grid=grid, modes=modes, coeffs=u0.coeffs + delta * unit)
        reports.append(
            diagnostics.continuous_dependence(u0, v0, _DEFAULT_PARAMS, policy, modes=modes)
        )
    merged = diagnostics.DependenceReport.merge(reports)

    ratios = [
        gap / delta for delta, gap in zip(merged.deltas, merged.terminal_diffs)
    ]
    for delta, gap, ratio, margin in zip(
        merged.deltas, merged.terminal_diffs, ratios, merged.margins
    ):
        print(
            f"delta0 {delta:.3e}: terminal gap {gap:.6e} "
            f"(amplification {ratio:.4g}, envelope margin {margin:.4g})"
        )
    print(f"worst Gronwall factor {merged.gronwall_factor:.6g}")
    failures = []
    spread = max(ratios) / min(ratios)
    if spread > 3.0:
        failures.append(
            f"amplification varies by {spread:.3g} (> 3) across deltas "
            f"{args.delta} (seed {args.seed})"
        )
    worst_margin = max(merged.margins)
    if worst_margin > 1.0 + 1e-12:
        failures.append(
            f"terminal gap exceeded the Gronwall envelope: margin "
            f"{worst_margin:.6g} > 1 (seed {args.seed})"
        )
    if failures:
        raise VerificationFailure("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tstar
# ---------------------------------------------------------------------------


def _cmd_tstar(args: argparse.Namespace) -> int:
    try:
        value = diagnostics.bihari_tstar(args.y0, args.c)
    except ValueError as err:
        raise ConfigError([f"--y0/--c: {err}"]) from err
    print(f"{value:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _add_ensemble_flags(p: argparse.ArgumentParser, dim: int, points: int, modes: int, count: int | None = None) -> None:
    p.add_argument("--dim", type=int, default=dim, help="spatial dimension (1-3)")
    p.add_argument("--points", type=int, default=points, help="grid points per axis")
    p.add_argument("--modes", type=int, default=modes, help="retained band per axis")
    p.add_argument("--seed", type=int, default=0, help="ensemble seed")
    if count is not None:
        p.add_argument("--count", type=int, default=count, help="number of draws")


class _Parser(argparse.ArgumentParser):
    """Turns a bad command line into a one-line ``ConfigError``; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        command = self.prog.partition(" ")[2]
        raise ConfigError([f"{command}: {message}" if command else message])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="llbar",
        description="Spectral Galerkin solver and verification suite for a "
        "sixth-order damped micromagnetic flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a configured problem")
    p.add_argument("config", help="path to an INI run file")
    p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "verify-identities", help="algebraic identities on random ensembles"
    )
    _add_ensemble_flags(p, dim=2, points=16, modes=8, count=16)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser(
        "verify-inequalities", help="ratio ensembles for the inequality catalogue"
    )
    _add_ensemble_flags(p, dim=2, points=16, modes=8, count=16)
    p.add_argument("--output", default=None, help="write the report CSV here")
    p.set_defaults(func=_cmd_verify_inequalities)

    p = sub.add_parser("converge", help="band-doubling self-convergence")
    p.add_argument("--bands", type=_csv_ints, default=(8, 16, 32), help="band sizes, e.g. 8,16,32")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--tend", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", default="random", help="'random' or 'constant'")
    p.add_argument("--decay", type=_finite_float, default=4.0, help="spectral decay of the draw")
    p.add_argument("--amplitude", type=_finite_float, default=0.8)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("holder", help="Hoelder quotients along a trajectory")
    _add_ensemble_flags(p, dim=2, points=16, modes=8)
    p.add_argument("--exponent", type=float, default=0.5)
    p.add_argument("--norm", default="L2", choices=("L2", "Linf"))
    p.add_argument("--tend", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--amplitude", type=_finite_float, default=0.8)
    p.set_defaults(func=_cmd_holder)

    p = sub.add_parser("depend", help="continuous dependence on initial data")
    _add_ensemble_flags(p, dim=2, points=16, modes=8)
    p.add_argument(
        "--delta", type=_csv_floats, default=(1e-3, 1e-4, 1e-5),
        help="initial L2 separations, e.g. 1e-3,1e-4",
    )
    p.add_argument("--tend", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--amplitude", type=_finite_float, default=0.8)
    p.set_defaults(func=_cmd_depend)

    p = sub.add_parser("tstar", help="blow-up time lower bound")
    p.add_argument("--y0", type=float, required=True, help="initial norm level")
    p.add_argument("--c", type=float, default=0.0, help="forcing offset")
    p.set_defaults(func=_cmd_tstar)

    return parser


def main(argv: list[str] | None = None) -> int:
    # overflow turns into inf/nan, which the commands report as a blow-up
    # or a violation; numpy's warnings would break the one-line contract
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as err:
        _emit("config-error", "; ".join(err.problems))
        return EXIT_CONFIG
    except BlowupError as err:
        _emit("blowup", str(err))
        return EXIT_BLOWUP
    except VerificationFailure as err:
        _emit("assertion-failure", str(err))
        return EXIT_ASSERT
    except (OSError, fields.SnapshotError) as err:
        _emit("io-error", str(err))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
