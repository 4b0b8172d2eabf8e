"""Norm suites, balance residuals, the estimate monitors and the identity ensemble.

Everything here reads trajectories or ledgers; nothing mutates solver
state.  The L2-family norms come from Parseval on the retained
coefficients and are exact for band-limited fields; L4/L6/Linf and the
mixed quartic products are quadratures on the band's padded grid (twice
the band per axis), where the quartic ones are themselves exact thanks
to the dealiasing margin.  Balance residuals replace d/dt by
second-order differences over the recorded times (three-point stencils
that allow a short final interval, one-sided at the ends), so their
magnitude converges at the integrator's order under dt refinement ---
that convergence, not smallness per se, is the claim being checked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import fields, galerkin, operators
from .fields import SpectralField
from .galerkin import LLBarParams
from .inequalities import _per_draw
from .stepping import BlowupError, IntegratorPolicy, Trajectory, integrate

__all__ = [
    "LEDGER_HEADER",
    "HOLDER_MIN_SNAPSHOTS",
    "NormSuite",
    "EnergyLedger",
    "HolderReport",
    "DependenceReport",
    "norms",
    "energy_balance_residual",
    "h1_balance_residual",
    "weak_residual",
    "bihari_tstar",
    "bihari_general",
    "holder_quotient",
    "continuous_dependence",
    "three_d_energy_identity",
    "identity_ensemble",
]

LEDGER_HEADER = (
    "t,L2,L4,L6,Linf,gradL2,deltaL2,gradDeltaL2,delta2L2,gradDelta2L2,"
    "uDotGradU,absUabsGradU,uDotDeltaU,absUabsDeltaU,balance_residual"
)

_INTERP_SLACK = 1e-9
# the Parseval ladder |(-Lap)^(m/2) u|, m = 0..5
_LEVEL_COLUMNS = ("L2", "gradL2", "deltaL2", "gradDeltaL2", "delta2L2", "gradDelta2L2")


@dataclass(frozen=True)
class NormSuite:
    """Instantaneous norm readings of one snapshot.

    All entries are nonnegative; the Laplacian chain obeys the two
    interpolation inequalities with constant one (slack 1e-9, scaled),
    which is asserted at construction.
    """

    t: float
    L2: float
    L4: float
    L6: float
    Linf: float
    gradL2: float
    deltaL2: float
    gradDeltaL2: float
    delta2L2: float
    gradDelta2L2: float
    uDotGradU: float
    absUabsGradU: float
    uDotDeltaU: float
    absUabsDeltaU: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "t" and value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        rhs3 = self.gradL2 * self.gradDeltaL2
        if self.deltaL2**2 > rhs3 + _INTERP_SLACK * max(1.0, rhs3):
            raise ValueError(
                f"interpolation bound violated: |Dv|^2 = {self.deltaL2**2!r} "
                f"> |grad v| |grad Dv| = {rhs3!r}"
            )
        rhs4 = self.deltaL2 * self.delta2L2
        if self.gradDeltaL2**2 > rhs4 + _INTERP_SLACK * max(1.0, rhs4):
            raise ValueError(
                f"interpolation bound violated: |grad Dv|^2 = "
                f"{self.gradDeltaL2**2!r} > |Dv| |D^2 v| = {rhs4!r}"
            )

    def as_row(self, balance_residual: float) -> str:
        cells = [
            self.t, self.L2, self.L4, self.L6, self.Linf,
            self.gradL2, self.deltaL2, self.gradDeltaL2,
            self.delta2L2, self.gradDelta2L2,
            self.uDotGradU, self.absUabsGradU,
            self.uDotDeltaU, self.absUabsDeltaU,
            balance_residual,
        ]
        return ",".join(f"{c:.17g}" for c in cells)


# the rows of _norm_squares: the ladder, the node integrals, the sup
_SQUARES = _LEVEL_COLUMNS + ("L6", "uDotDeltaU", "absUabsDeltaU", "absUabsGradU", "uDotGradU",
                             "L4", "Linf")


def _norm_squares(
    grid: fields.GridSpec, modes: tuple[int, ...], coeffs: np.ndarray, vals: np.ndarray,
    lap: np.ndarray, columns: Iterable[np.ndarray], scratch: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Every :class:`NormSuite` reading but ``t``, squared (``L4`` and ``L6``
    to their own powers), per leading index of a (..., 3, *modes) stack.

    ``vals``, ``lap`` and each of ``columns`` hold the stack's samples of
    u, Lap u and d_j u on the band's padded grid, (..., 3, nodes).  The
    six pointwise integrands are built in place in the six node arrays of
    ``scratch`` (default: fresh ones) and reduced in one pass.
    """
    c2 = (coeffs**2).sum(axis=-len(modes) - 1).reshape(coeffs.shape[: -len(modes) - 1] + (-1,))
    weights = fields._ladder_weights(grid, modes)
    ladder = (weights.reshape((6,) + (1,) * (c2.ndim - 1) + (-1,)) * c2).sum(axis=-1)
    if scratch is None:
        scratch = np.empty((6,) + vals.shape[:-2] + vals.shape[-1:])
    mag2, lap_dot, lap2, grad2, u_dot_grad2, tmp = scratch
    np.einsum("...cn,...cn->...n", vals, vals, out=mag2)
    np.einsum("...cn,...cn->...n", vals, lap, out=lap_dot)
    np.einsum("...cn,...cn->...n", lap, lap, out=lap2)
    grad2.fill(0.0)
    u_dot_grad2.fill(0.0)
    for col in columns:
        grad2 += np.einsum("...cn,...cn->...n", col, col, out=tmp)
        np.einsum("...cn,...cn->...n", vals, col, out=tmp)  # u . d_j u
        u_dot_grad2 += np.multiply(tmp, tmp, out=tmp)
    sup = mag2.max(axis=-1)
    # each row becomes the integrand of its reading in _SQUARES; mag2 last
    np.multiply(mag2, mag2, out=tmp)
    np.multiply(mag2, grad2, out=grad2)
    np.multiply(mag2, lap2, out=lap2)
    np.multiply(lap_dot, lap_dot, out=lap_dot)
    np.multiply(tmp, mag2, out=mag2)
    integrals = scratch.sum(axis=-1) * grid.padded_cell(modes)
    return dict(zip(_SQUARES, np.concatenate([ladder, integrals, sup[None]])))


def norms(u: SpectralField, t: float = 0.0) -> NormSuite:
    """Full norm suite of a snapshot.

    The L2 ladder is Parseval over the coefficients; everything involving
    pointwise products is integrated on the oversampled grid.  One
    synthesis evaluates u and Lap u together, the Jacobian comes one
    column at a time, and :func:`_norm_squares` reduces every pointwise
    quantity into a few node vectors, all in the work set that
    ``fields._padded_work`` caches per band for this and
    ``galerkin.nonlinear_term``.
    """
    grid, modes = u.grid, u.modes
    extents, points, dim = grid.extents, grid.padded(modes), grid.dim
    stack, values_work, column_work, nodes = fields._padded_work(grid.dealias_pad, modes)
    stack[:3] = u.coeffs
    np.multiply(u.coeffs, -u.eigenvalues[None], out=stack[3:])
    both = fields._eval_series(stack, extents, ("cos",) * dim, points, values_work)
    vals, lap = np.split(both.reshape(6, -1), 2)

    def columns() -> Iterator[np.ndarray]:
        for j in range(dim):
            orders = tuple(int(a == j) for a in range(dim))
            dc, parities = fields._derivative_multiplier(u.coeffs, extents, orders)
            yield fields._eval_series(dc, extents, parities, points, column_work).reshape(3, -1)

    sq = _norm_squares(grid, modes, u.coeffs, vals, lap, columns(), nodes[:6])
    return NormSuite(
        t=t,
        L4=sq.pop("L4") ** 0.25,
        L6=sq.pop("L6") ** (1.0 / 6.0),
        **{name: math.sqrt(value) for name, value in sq.items()},
    )


@dataclass
class EnergyLedger:
    """Time-ordered norm records with per-tick balance residuals."""

    records: list[NormSuite] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        t = self.times
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("ledger times must be strictly increasing")
        if len(self.residuals) not in (0, len(self.records)):
            raise ValueError("residual column must match the record count")
        if not self.residuals:
            self.residuals = [0.0] * len(self.records)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "EnergyLedger":
        records = [norms(u, t) for t, u in zip(traj.times, traj.snapshots)]
        ledger = cls(records=records)
        if len(records) >= 3:
            ledger.residuals = list(energy_balance_residual(ledger, traj.params))
        return ledger

    def write_csv(self, path) -> None:
        lines = [LEDGER_HEADER]
        lines += [r.as_row(res) for r, res in zip(self.records, self.residuals)]
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")


def energy_balance_residual(
    ledger: EnergyLedger, params: LLBarParams
) -> np.ndarray:
    """Residual of the L2 balance identity per ledger tick.

    1/2 d/dt |u|^2 + beta1 |grad u|^2 + beta2 |Du|^2 + beta3 |u|_L4^4
      + 2 beta5 |u . grad u|^2 + beta5 ||u||grad u||^2 - beta3 |u|^2 = 0.
    """
    if len(ledger) < 3:
        raise ValueError(
            f"balance residual needs at least 3 records, got {len(ledger)}"
        )
    half_ddt = 0.5 * np.gradient(ledger.column("L2") ** 2, ledger.times, edge_order=2)
    names = ("L2", "L4", "gradL2", "deltaL2", "uDotGradU", "absUabsGradU")
    return _l2_balance(
        params, {name: ledger.column(name) ** (4 if name == "L4" else 2) for name in names}, half_ddt
    )


def _l2_balance(params: LLBarParams, sq: dict, start: np.ndarray) -> np.ndarray:
    """``start`` plus the terms of the L2 balance identity, from squared
    readings as :func:`_norm_squares` gives them (``L4`` to the fourth)."""
    return (
        start
        + params.beta1 * sq["gradL2"]
        + params.beta2 * sq["deltaL2"]
        + params.beta3 * sq["L4"]
        + 2.0 * params.beta5 * sq["uDotGradU"]
        + params.beta5 * sq["absUabsGradU"]
        - params.beta3 * sq["L2"]
    )


def h1_balance_residual(traj: Trajectory, params: LLBarParams) -> np.ndarray:
    """Residual of the gradient-level balance identity per snapshot.

    Testing against -Lap(u) turns the cubic into
    <grad(|u|^2 u), grad u> = 2 |u.grad u|^2 + ||u||grad u||^2 and leaves
    the quartic-damping inner product <Lap(|u|^2 u), Lap u>, which is not
    a ledger scalar; hence this residual wants snapshots, not a ledger.
    That inner product is read by Parseval as sum lambda^2 c3 . c, with c3
    the band projection of |u|^2 u (``operators.cubic_band``): Lap u lies
    in the band and the cosine basis diagonalises the Neumann Laplacian.
    The precession term drops exactly.
    """
    if len(traj.times) < 3:
        raise ValueError(
            f"balance residual needs at least 3 snapshots, got {len(traj.times)}"
        )
    ledger = EnergyLedger(
        records=[norms(s, t) for t, s in zip(traj.times, traj.snapshots)]
    )
    grad_sq, delta_sq, grad_delta_sq, u_dot_grad_sq, mixed_sq = (
        ledger.column(name) ** 2
        for name in ("gradL2", "deltaL2", "gradDeltaL2", "uDotGradU", "absUabsGradU")
    )
    quartic_inner = np.array([
        (s.eigenvalues**2 * operators.cubic_band(s).coeffs * s.coeffs).sum()
        for s in traj.snapshots
    ])
    return (
        0.5 * np.gradient(grad_sq, ledger.times, edge_order=2)
        + params.beta1 * delta_sq
        + params.beta2 * grad_delta_sq
        - params.beta3 * grad_sq
        + params.beta3 * (2.0 * u_dot_grad_sq + mixed_sq)
        + params.beta5 * quartic_inner
    )


def weak_residual(traj: Trajectory, phi: SpectralField) -> np.ndarray:
    """Residual of the time-integrated weak form against one test function.

    <u(t),phi> - <u0,phi> + int_0^t [ beta1 <grad u, grad phi>
      + beta2 <Du, Dphi> - beta3 <(1-|u|^2)u, phi> + beta4 <u x Du, phi>
      + beta5 <grad(|u|^2 u), grad phi> ] ds

    evaluated per snapshot with composite trapezoid in time.  The bracket
    is -<rhs(u), phi>, read from one ``galerkin.rhs`` evaluation per
    snapshot.  ``phi`` must live in the trajectory's retained band.
    """
    if phi.grid != traj.grid:
        raise ValueError("test function must live on the trajectory grid")
    total = float(np.sqrt((phi.coeffs**2).sum()))
    projected = galerkin.project(phi, traj.modes)
    kept = float(np.sqrt((projected.coeffs**2).sum()))
    if total > 0.0 and abs(total - kept) > 1e-10 * total:
        raise ValueError(
            "test function is not representable in the retained band"
        )
    d = projected.coeffs
    pairing = np.array([(s.coeffs * d).sum() for s in traj.snapshots])
    integrand = np.array(
        [-(galerkin.rhs(s, traj.params).coeffs * d).sum() for s in traj.snapshots]
    )
    t = np.asarray(traj.times)
    accumulated = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))]
    )
    return pairing - pairing[0] + accumulated


def bihari_tstar(y0: float, c: float = 0.0) -> float:
    """Guaranteed local time for the quintic comparison ODE: (y0+c)^-4 / 4.

    Raises ``ValueError`` where that time overflows the float range or
    falls below the smallest normal double, where it would print as 0
    or as a subnormal without a digit to trust.
    """
    y0 = float(y0)
    c = float(c)
    if not (y0 > 0.0 and math.isfinite(y0)):
        raise ValueError(f"y0 must be positive, got {y0}")
    if not (c >= 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be nonnegative, got {c}")
    try:
        value = 0.25 * (y0 + c) ** -4
    except OverflowError:
        raise ValueError(f"(y0+c)^-4 / 4 overflows the float range at y0+c = {y0 + c:g}") from None
    if value < sys.float_info.min:
        raise ValueError(
            f"(y0+c)^-4 / 4 underflows the normal float range at y0+c = {y0 + c:g}"
        )
    return value


def bihari_general(
    y0: float,
    g: Callable[[float], float],
    f: Callable[[float], float],
) -> float:
    """Local time from the comparison principle for general growth f.

    Solves T = F(y0 + int_0^T g) by bisection to 1e-12, where F(x) is the
    tail integral of 1/f from x; f must be positive and non-decreasing on
    the range it is evaluated on, and 1/f must be integrable at infinity.
    """
    from scipy import integrate as sci_integrate

    y0 = float(y0)
    if not (y0 > 0.0 and math.isfinite(y0)):
        raise ValueError(f"y0 must be positive, got {y0}")

    def tail(x: float) -> float:
        value, _ = sci_integrate.quad(lambda s: 1.0 / f(s), x, np.inf, limit=200)
        return value

    top = tail(y0)
    if not (math.isfinite(top) and top > 0.0):
        raise ValueError("1/f must have a finite positive tail integral")

    def accumulated(T: float) -> float:
        if T == 0.0:
            return 0.0
        value, _ = sci_integrate.quad(g, 0.0, T, limit=200)
        if value < 0.0:
            raise ValueError("g must be nonnegative")
        return value

    probes = np.linspace(y0, y0 + accumulated(top) + 1.0, 64)
    f_vals = np.array([f(x) for x in probes])
    if np.any(f_vals <= 0.0):
        raise ValueError("f must be positive on the comparison range")
    if np.any(np.diff(f_vals) < -1e-12 * np.abs(f_vals[:-1])):
        raise ValueError("f must be non-decreasing on the comparison range")

    lo, hi = 0.0, top
    # h(T) = F(y0 + G(T)) - T is positive at 0 and <= 0 at T = F(y0)
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if tail(y0 + accumulated(mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class HolderReport:
    """Sup of pairwise difference quotients along a trajectory."""

    exponent: float
    norm: str
    sup_quotient: float
    pair_count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.sup_quotient):
            raise ValueError(f"sup quotient must be finite, got {self.sup_quotient}")


HOLDER_MIN_SNAPSHOTS = 10


def holder_quotient(traj: Trajectory, exponent: float, norm: str = "L2") -> HolderReport:
    """Sup over snapshot pairs of |u(t)-u(s)|_norm / |t-s|^exponent."""
    if not 0.0 < exponent < 1.0:
        raise ValueError(f"exponent must lie in (0,1), got {exponent}")
    if norm not in ("L2", "Linf"):
        raise ValueError(f"norm must be 'L2' or 'Linf', got {norm!r}")
    n = len(traj.snapshots)
    if n < HOLDER_MIN_SNAPSHOTS:
        raise ValueError(f"at least {HOLDER_MIN_SNAPSHOTS} snapshots required, got {n}")
    t = np.asarray(traj.times)
    if norm == "L2":
        flat = np.stack([s.coeffs.ravel() for s in traj.snapshots])
    else:
        flat = np.stack(
            [operators.padded_values(s).reshape(3, -1) for s in traj.snapshots]
        )
    sup = 0.0
    for i in range(n - 1):
        dt = t[i + 1 :] - t[i]
        if norm == "L2":
            diffs = np.sqrt(((flat[i + 1 :] - flat[i]) ** 2).sum(axis=1))
        else:
            gap = flat[i + 1 :] - flat[i]
            diffs = np.sqrt((gap**2).sum(axis=1).max(axis=1))
        sup = max(sup, float((diffs / dt**exponent).max()))
    return HolderReport(
        exponent=exponent,
        norm=norm,
        sup_quotient=sup,
        pair_count=n * (n - 1) // 2,
    )


@dataclass(frozen=True)
class DependenceReport:
    """Continuous-dependence records for perturbed initial data."""

    deltas: tuple[float, ...]
    terminal_diffs: tuple[float, ...]
    gronwall_factor: float
    margins: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.deltas) != len(self.terminal_diffs):
            raise ValueError("deltas and terminal_diffs must have equal length")
        values = (*self.deltas, *self.terminal_diffs, self.gronwall_factor)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("dependence report entries must be finite")


def continuous_dependence(
    u0: SpectralField,
    v0s: Sequence[SpectralField],
    params: LLBarParams,
    policy: IntegratorPolicy,
    modes: tuple[int, ...] | None = None,
) -> DependenceReport:
    """Run the base data once and each perturbed datum in ``v0s``, and
    compare every terminal separation to its Gronwall envelope
    exp(int (1 + |u|_Linf^4 + |v|_Linf^4)).

    The margin is the measured ratio of terminal separation to
    sqrt(factor) times the initial separation; it is recorded, not
    asserted against a constant.  The report keeps the largest factor.
    """
    if not v0s:
        raise ValueError("at least one perturbed datum required")

    def run(w0: SpectralField, band: tuple[int, ...] | None) -> Trajectory:
        traj = integrate(w0, params, policy, modes=band)
        if traj.aborted:
            raise BlowupError(*traj.blowup)
        return traj

    def linf4(traj: Trajectory) -> np.ndarray:
        return np.array(
            [(operators.padded_values(s) ** 2).sum(axis=0).max() ** 2 for s in traj.snapshots]
        )

    def gap(a: SpectralField, b: SpectralField) -> float:
        return float(np.sqrt(((a.coeffs - b.coeffs) ** 2).sum()))

    traj_u = run(u0, modes)
    t = np.asarray(traj_u.times)
    base = 1.0 + linf4(traj_u)
    rows = []  # (delta0, delta_T, factor, margin) per perturbed datum
    for v0 in v0s:
        traj_v = run(v0, traj_u.modes)
        if traj_u.times != traj_v.times:
            raise ValueError("trajectories recorded different tick schedules")
        factor = float(np.exp(np.trapezoid(base + linf4(traj_v), t)))
        delta0 = gap(traj_u.snapshots[0], traj_v.snapshots[0])
        delta_T = gap(traj_u.terminal, traj_v.terminal)
        margin = delta_T / (math.sqrt(factor) * delta0) if delta0 > 0.0 else 0.0
        rows.append((delta0, delta_T, factor, margin))
    deltas, gaps, factors, margins = zip(*rows)
    return DependenceReport(
        deltas=deltas, terminal_diffs=gaps, gronwall_factor=max(factors), margins=margins
    )


def _completed_square(
    u: np.ndarray, ju: np.ndarray, jlap: np.ndarray, params: LLBarParams, vol: float
) -> np.ndarray:
    """Relative residual of the completed square, per leading index.

    With alpha = beta5/(2 beta2), the combination

        2 beta2 |grad Du|^2 - (4 alpha beta2 + 2 beta5) <grad Du, grad(|u|^2 u)>
          + 4 alpha beta5 |grad(|u|^2 u)|^2

    equals |sqrt(2 beta2) grad Du - sqrt(4 alpha beta5) grad(|u|^2 u)|^2
    identically.  Both sides are read from the same padded samples of u,
    (..., 3, nodes), and of the Jacobians of u and Lap u, (..., 3, d,
    nodes), so the residual probes pure floating-point algebra.
    """
    if params.beta2 <= 0.0:
        raise ValueError("the completed square needs beta2 > 0")
    alpha = params.beta5 / (2.0 * params.beta2)
    x, y = jlap, operators._cubic_gradient(u, ju)

    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return vol * (a * b).sum(axis=(-3, -2, -1))

    lhs = (
        2.0 * params.beta2 * inner(x, x)
        - (4.0 * alpha * params.beta2 + 2.0 * params.beta5) * inner(x, y)
        + 4.0 * alpha * params.beta5 * inner(y, y)
    )
    y *= math.sqrt(4.0 * alpha * params.beta5)
    z = math.sqrt(2.0 * params.beta2) * x
    z -= y
    rhs = inner(z, z)
    return abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


def three_d_energy_identity(traj: Trajectory, params: LLBarParams) -> np.ndarray:
    """Completed-square residual (:func:`_completed_square`) per snapshot,
    all snapshots in one stacked evaluation.

    The quartic/sextic monitors entering the three-dimensional estimate
    are checked finite along the way: :class:`NormSuite` raises
    ``ValueError`` on any non-finite reading.
    """
    for t, s in zip(traj.times, traj.snapshots):
        norms(s, t)
    stack = np.stack([s.coeffs for s in traj.snapshots])
    (u, _), (ju, jlap) = operators.padded_samples(traj.grid, stack)
    return _completed_square(u, ju, jlap, params, traj.grid.padded_cell(traj.modes))


# Draws per stacked evaluation in identity_ensemble.  At d=2 16/8 a block
# of 6 peaks at about 0.55 MB of temporaries, below what the inequality
# ensemble peaks at; blocks of 8 or more ran at most 10% faster but raised
# the peak resident memory of a process that runs both ensembles.
_IDENTITY_BLOCK = 6


def _identity_residuals(
    grid: fields.GridSpec, modes: tuple[int, ...], params: LLBarParams, coeffs: np.ndarray
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
    sq = _norm_squares(grid, modes, coeffs, u, lap, columns)

    parseval = abs(vol * _per_draw(u * u) - sq["L2"]) / np.maximum(1.0, sq["L2"])
    square = _completed_square(u, ju, jlap, params, vol)

    pointwise = np.concatenate([
        operators._cubic_laplacian(u, ju, lap), operators._cubic(u), np.cross(u, lap, axis=-2)
    ], axis=1)
    projected = fields._transform_series(
        pointwise.reshape(pointwise.shape[:2] + grid.padded(modes)),
        grid.extents, ("cos",) * grid.dim, modes,
    )
    direct, cubic, cross = np.split(projected, 3, axis=1)
    routes = np.sqrt(_per_draw((direct + lam * cubic) ** 2)) / np.maximum(
        1.0, np.sqrt(_per_draw(direct**2))
    )

    pairing = np.array([
        (galerkin.rhs(SpectralField(grid, modes, c), params).coeffs * c).sum() for c in coeffs
    ])
    balance = abs(_l2_balance(params, sq, pairing)) / np.maximum(1.0, abs(pairing))
    precession = abs(_per_draw(cross * coeffs)) / np.maximum(1.0, sq["L2"])

    return {
        "parseval": parseval,
        "cubic_laplacian_routes": routes,
        "l2_balance": balance,
        "precession_orthogonality": precession,
        "completed_square": square,
    }


def identity_ensemble(
    grid: fields.GridSpec, modes: tuple[int, ...], params: LLBarParams, seed: int, count: int
) -> dict[str, tuple[float, int]]:
    """Worst residual of each identity over draws 0..count-1 of ``seed``,
    with the first index that attains it.

    Draw ``i`` is ``fields.random_field(grid, modes, seed, i, decay=4.0)``.
    The draws are stacked and evaluated ``_IDENTITY_BLOCK`` at a time, so
    memory stays flat in ``count``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    blocks = []
    for start in range(0, count, _IDENTITY_BLOCK):
        coeffs = np.stack([
            fields.random_field(grid, modes, seed=seed, index=i, decay=4.0).coeffs
            for i in range(start, min(start + _IDENTITY_BLOCK, count))
        ])
        blocks.append(_identity_residuals(grid, modes, params, coeffs))
    residuals = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
    return {name: (float(r.max()), int(np.argmax(r))) for name, r in residuals.items()}
