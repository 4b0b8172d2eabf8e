"""Norm suites, balance residuals, and the estimate monitors.

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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import integrate as sci_integrate

from . import fields, galerkin, operators
from .fields import SpectralField, VectorField
from .galerkin import LLBarParams
from .stepping import BlowupError, IntegratorPolicy, Trajectory, integrate

__all__ = [
    "LEDGER_HEADER",
    "NormSuite",
    "EnergyLedger",
    "HolderReport",
    "DependenceReport",
    "AprioriReport",
    "norms",
    "energy_balance_residual",
    "h1_balance_residual",
    "apriori_monitor",
    "weak_residual",
    "bihari_tstar",
    "bihari_general",
    "holder_quotient",
    "continuous_dependence",
    "completed_square_residual",
    "three_d_energy_identity",
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


def _norm_squares(
    lam: np.ndarray, coeffs: np.ndarray, vals: np.ndarray, lap: np.ndarray,
    columns: Iterable[np.ndarray], vol: float, scratch: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Every :class:`NormSuite` reading but ``t``, squared (``L4`` and ``L6``
    to their own powers), per leading index of a (..., 3, *modes) stack.

    ``lam`` are the stack's eigenvalues; ``vals``, ``lap`` and each of
    ``columns`` hold its samples of u, Lap u and d_j u on the padded grid,
    (..., 3, nodes), with cell volume ``vol``.  The pointwise quantities go
    into the six node arrays of ``scratch`` (default: fresh ones).
    """
    c2 = (coeffs**2).sum(axis=-lam.ndim - 1).reshape(coeffs.shape[: -lam.ndim - 1] + (-1,))
    lam = lam.ravel()
    ladder = [(lam**m * c2).sum(axis=-1) for m in range(6)]
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

    def integral(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.multiply(a, b, out=tmp).sum(axis=-1) * vol

    return dict(
        zip(_LEVEL_COLUMNS, ladder),
        L4=integral(mag2, mag2),
        L6=integral(np.multiply(mag2, mag2, out=tmp), mag2),
        Linf=mag2.max(axis=-1),
        uDotGradU=u_dot_grad2.sum(axis=-1) * vol,
        absUabsGradU=integral(mag2, grad2),
        uDotDeltaU=integral(lap_dot, lap_dot),
        absUabsDeltaU=integral(mag2, lap2),
    )


def norms(u: SpectralField, t: float = 0.0) -> NormSuite:
    """Full norm suite of a snapshot.

    The L2 ladder is Parseval over the coefficients; everything involving
    pointwise products is integrated on the oversampled grid.  One
    synthesis evaluates u and Lap u together, the Jacobian comes one
    column at a time, and :func:`_norm_squares` reduces every pointwise
    quantity into a few node vectors, all in the work set that
    ``fields._padded_work`` caches per (grid, modes) for this and
    ``galerkin.nonlinear_term``.
    """
    grid = u.grid
    extents, points, dim = grid.extents, grid.padded(u.modes), grid.dim
    stack, values_work, column_work, nodes = fields._padded_work(grid, u.modes)
    stack[:3] = u.coeffs
    np.multiply(u.coeffs, -u.eigenvalues[None], out=stack[3:])
    both = fields._eval_series(stack, extents, ("cos",) * dim, points, values_work)
    vals, lap = np.split(both.reshape(6, -1), 2)

    def columns() -> Iterator[np.ndarray]:
        for j in range(dim):
            orders = tuple(int(a == j) for a in range(dim))
            dc, parities = fields._derivative_multiplier(u.coeffs, extents, orders)
            yield fields._eval_series(dc, extents, parities, points, column_work).reshape(3, -1)

    squares = _norm_squares(
        u.eigenvalues, u.coeffs, vals, lap, columns(), grid.padded_cell(u.modes), nodes[:6]
    )
    sq = {name: float(value) for name, value in squares.items()}
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
    def from_trajectory(
        cls, traj: Trajectory, params: LLBarParams | None = None
    ) -> "EnergyLedger":
        params = traj.params if params is None else params
        records = [norms(u, t) for t, u in zip(traj.times, traj.snapshots)]
        ledger = cls(records=records)
        if len(records) >= 3:
            ledger.residuals = list(energy_balance_residual(ledger, params))
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


@dataclass(frozen=True)
class AprioriReport:
    """Band-stability witness for the level-r estimate ladder."""

    level: int
    sup_norms: tuple[float, ...]
    dissipation_integrals: tuple[float, ...]
    passed: bool


def apriori_monitor(
    ledgers: Sequence[EnergyLedger], params: LLBarParams, r: int
) -> AprioriReport:
    """Check the level-r uniform bounds across a band-refinement sequence.

    For each ledger: sup over time of the level-r norm, and the trapezoid
    integral of the squared level-(r+2) norm.  The report passes when all
    quantities are finite and each consecutive band pair agrees within a
    factor of two --- the structural reading of "bounded independently of
    the band", whose constant is not constructive.
    """
    if not 0 <= r <= 3:
        raise ValueError(f"regularity level must be in 0..3, got {r}")
    if not ledgers:
        raise ValueError("at least one ledger required")
    sups = []
    integrals = []
    for ledger in ledgers:
        sup = float(ledger.column(_LEVEL_COLUMNS[r]).max())
        high = ledger.column(_LEVEL_COLUMNS[r + 2]) ** 2
        integrals.append(float(sci_integrate.trapezoid(high, ledger.times)))
        sups.append(sup)
    passed = all(np.isfinite(sups)) and all(np.isfinite(integrals))
    for seq in (sups, integrals):
        for a, b in zip(seq, seq[1:]):
            lo, hi = sorted((a, b))
            if hi > 1e-12 and (lo < 0.5 * hi):
                passed = False
    return AprioriReport(
        level=r,
        sup_norms=tuple(sups),
        dissipation_integrals=tuple(integrals),
        passed=passed,
    )


def weak_residual(traj: Trajectory, phi: VectorField | SpectralField) -> np.ndarray:
    """Residual of the time-integrated weak form against one test function.

    <u(t),phi> - <u0,phi> + int_0^t [ beta1 <grad u, grad phi>
      + beta2 <Du, Dphi> - beta3 <(1-|u|^2)u, phi> + beta4 <u x Du, phi>
      + beta5 <grad(|u|^2 u), grad phi> ] ds

    evaluated per snapshot with composite trapezoid in time.  The bracket
    is -<rhs(u), phi>, read from one ``galerkin.rhs`` evaluation per
    snapshot.  ``phi`` must live in the trajectory's retained band.
    """
    if isinstance(phi, VectorField):
        phi_s = fields.forward(phi)
    elif isinstance(phi, SpectralField):
        phi_s = phi
    else:
        raise TypeError(f"unsupported test function type {type(phi).__name__}")
    if phi_s.grid != traj.grid:
        raise ValueError("test function must live on the trajectory grid")
    total = float(np.sqrt((phi_s.coeffs**2).sum()))
    projected = galerkin.project(phi_s, traj.modes)
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
    """Guaranteed local time for the quintic comparison ODE: (y0+c)^-4 / 4."""
    y0 = float(y0)
    c = float(c)
    if not (y0 > 0.0 and math.isfinite(y0)):
        raise ValueError(f"y0 must be positive, got {y0}")
    if not (c >= 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be nonnegative, got {c}")
    return 0.25 * (y0 + c) ** -4


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


_HOLDER_MIN_SNAPSHOTS = 10


def holder_quotient(traj: Trajectory, exponent: float, norm: str = "L2") -> HolderReport:
    """Sup over snapshot pairs of |u(t)-u(s)|_norm / |t-s|^exponent."""
    if not 0.0 < exponent < 1.0:
        raise ValueError(f"exponent must lie in (0,1), got {exponent}")
    if norm not in ("L2", "Linf"):
        raise ValueError(f"norm must be 'L2' or 'Linf', got {norm!r}")
    n = len(traj.snapshots)
    if n < _HOLDER_MIN_SNAPSHOTS:
        raise ValueError(f"at least {_HOLDER_MIN_SNAPSHOTS} snapshots required, got {n}")
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

    @classmethod
    def merge(cls, reports: Sequence["DependenceReport"]) -> "DependenceReport":
        return cls(
            deltas=tuple(d for r in reports for d in r.deltas),
            terminal_diffs=tuple(d for r in reports for d in r.terminal_diffs),
            gronwall_factor=max(r.gronwall_factor for r in reports),
            margins=tuple(m for r in reports for m in r.margins),
        )


def continuous_dependence(
    u0: VectorField | SpectralField,
    v0: VectorField | SpectralField,
    params: LLBarParams,
    policy: IntegratorPolicy,
    modes: tuple[int, ...] | None = None,
    cadence: int = 1,
) -> DependenceReport:
    """Run both initial data and compare terminal separation to the
    Gronwall envelope exp(int (1 + |u|_Linf^4 + |v|_Linf^4)).

    The margin is the measured ratio of terminal separation to
    sqrt(factor) times the initial separation; it is recorded, not
    asserted against a constant.
    """
    traj_u = integrate(u0, params, policy, modes=modes, cadence=cadence)
    traj_v = integrate(v0, params, policy, modes=traj_u.modes, cadence=cadence)
    for traj in (traj_u, traj_v):
        if traj.aborted:
            raise BlowupError(*traj.blowup)
    if traj_u.times != traj_v.times:
        raise ValueError("trajectories recorded different tick schedules")

    def linf4(traj: Trajectory) -> np.ndarray:
        out = np.empty(len(traj.snapshots))
        for i, s in enumerate(traj.snapshots):
            mag2 = (operators.padded_values(s) ** 2).sum(axis=0)
            out[i] = mag2.max() ** 2
        return out

    t = np.asarray(traj_u.times)
    growth = 1.0 + linf4(traj_u) + linf4(traj_v)
    factor = float(np.exp(sci_integrate.trapezoid(growth, t)))
    delta0 = float(
        np.sqrt(((traj_u.snapshots[0].coeffs - traj_v.snapshots[0].coeffs) ** 2).sum())
    )
    delta_T = float(
        np.sqrt(((traj_u.terminal.coeffs - traj_v.terminal.coeffs) ** 2).sum())
    )
    margin = delta_T / (math.sqrt(factor) * delta0) if delta0 > 0.0 else 0.0
    return DependenceReport(
        deltas=(delta0,),
        terminal_diffs=(delta_T,),
        gronwall_factor=factor,
        margins=(margin,),
    )


def _completed_square(
    u: np.ndarray, ju: np.ndarray, jlap: np.ndarray, params: LLBarParams, vol: float
) -> np.ndarray:
    """Completed-square residual per leading index, from padded samples of
    u, (..., 3, nodes), and of the Jacobians of u and Lap u, (..., 3, d, nodes)."""
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


def completed_square_residual(s: SpectralField, params: LLBarParams) -> float:
    """Relative residual of the completed-square rearrangement at one field.

    With alpha = beta5/(2 beta2), the combination

        2 beta2 |grad Du|^2 - (4 alpha beta2 + 2 beta5) <grad Du, grad(|u|^2 u)>
          + 4 alpha beta5 |grad(|u|^2 u)|^2

    equals |sqrt(2 beta2) grad Du - sqrt(4 alpha beta5) grad(|u|^2 u)|^2
    identically; both sides are evaluated with the same quadrature, so the
    residual probes pure floating-point algebra.
    """
    (u, _), (ju, jlap) = operators.padded_samples(s.grid, s.coeffs)
    return float(_completed_square(u, ju, jlap, params, s.grid.padded_cell(s.modes)))


def three_d_energy_identity(traj: Trajectory, params: LLBarParams) -> np.ndarray:
    """Completed-square residual (:func:`completed_square_residual`) per
    snapshot, all snapshots in one stacked evaluation.

    The quartic/sextic monitors entering the three-dimensional estimate
    are checked finite along the way: :class:`NormSuite` raises
    ``ValueError`` on any non-finite reading.
    """
    for t, s in zip(traj.times, traj.snapshots):
        norms(s, t)
    stack = np.stack([s.coeffs for s in traj.snapshots])
    (u, _), (ju, jlap) = operators.padded_samples(traj.grid, stack)
    return _completed_square(u, ju, jlap, params, traj.grid.padded_cell(traj.modes))
