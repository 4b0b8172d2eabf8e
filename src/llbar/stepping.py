"""Exponential and implicit-explicit time steppers for the band-projected flow.

All schemes treat the diagonal symbol m(k) = -beta1*lambda - beta2*lambda^2
exactly or A-stably and the remainder explicitly:

ETDRK2      two-stage exponential integrator; reproduces the purely linear
            flow to rounding and is second order for the full equation.
IMEX-CNAB2  Crank--Nicolson on the symbol, second-order Adams--Bashforth on
            the remainder, bootstrapped with one IMEX-Euler step.  The
            remainder contains the quasilinear exchange-cubic term, whose
            effective stiffness ~ 3 beta5 |u|^2 lambda_max sits in the
            explicit part: expect a step restriction
            dt * 3 beta5 |u|^2 lambda_max < 1 on top of formal order 2.
IMEX-Euler  first order; kept for step-doubling comparisons.

Time is reconstructed as step_index * dt rather than accumulated, so
trajectories are bitwise reproducible regardless of restart points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fields, galerkin, operators
from .fields import GridSpec, SpectralField
from .galerkin import LLBarParams

__all__ = [
    "SCHEMES",
    "IntegratorPolicy",
    "SolverState",
    "BlowupError",
    "Trajectory",
    "phi1",
    "phi2",
    "step",
    "integrate",
]

SCHEMES = ("ETDRK2", "IMEX-CNAB2", "IMEX-Euler")

_PHI_SERIES_CUT = 1e-4


def phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(z) = (e^z - 1)/z, with the Taylor series below |z| = 1e-4."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs * zs * zs / 24.0
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(z) = (e^z - 1 - z)/z^2, series-protected like :func:`phi1`."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs * zs / 24.0 + zs * zs * zs / 120.0
    zl = z[~small]
    out[~small] = (np.expm1(zl) - zl) / (zl * zl)
    return out


@dataclass(frozen=True)
class IntegratorPolicy:
    """Scheme selection and step control.

    ``t_end = 0`` is allowed and yields a trajectory holding only the
    initial snapshot.  A horizon that needs more than ``max_steps`` steps
    of ``dt`` (counting a shorter closing step) is rejected here, before
    anything is integrated.
    """

    dt: float
    t_end: float
    scheme: str = "ETDRK2"
    max_steps: int = 1_000_000
    blowup_threshold: float = 1e6

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose one of {', '.join(SCHEMES)}"
            )
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if not (np.isfinite(self.blowup_threshold) and self.blowup_threshold > 0.0):
            raise ValueError(
                f"blowup_threshold must be positive, got {self.blowup_threshold}"
            )
        try:
            n_full, remainder = _step_plan(self)
        except OverflowError:  # t_end / dt beyond the float range
            n_full, remainder = float("inf"), 0.0
        total = n_full + (1 if remainder else 0)
        if total > self.max_steps:
            raise ValueError(
                f"{total} steps needed to reach t_end={self.t_end} "
                f"exceed max_steps={self.max_steps}"
            )


@dataclass(frozen=True)
class SolverState:
    """One point of the discrete flow.

    ``prev_nonlinear`` carries the remainder evaluated at the previous step
    for the Adams--Bashforth extrapolation; it is ``None`` before the first
    step and for the single-stage schemes.
    """

    t: float
    u: SpectralField
    step_index: int
    prev_nonlinear: SpectralField | None = None


class BlowupError(RuntimeError):
    """Raised when the iterate leaves the trust region of the solver."""

    def __init__(self, t: float, norm: float):
        self.t = float(t)
        self.norm = float(norm)
        super().__init__(
            f"solution norm {norm:.6g} exceeded the blow-up threshold at t={t:.6g}"
        )


@lru_cache(maxsize=32)
def _etdrk2_tables(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = galerkin.rhs_linear_factor(grid, modes, params)
    z = dt * m
    return np.exp(z), dt * phi1(z), dt * phi2(z)


@lru_cache(maxsize=32)
def _imex_tables(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = galerkin.rhs_linear_factor(grid, modes, params)
    euler_denom = 1.0 - dt * m
    cn_num = 1.0 + 0.5 * dt * m
    cn_denom = 1.0 - 0.5 * dt * m
    return euler_denom, cn_num, cn_denom


def _check_blowup(t: float, linf: float, threshold: float) -> None:
    if not np.isfinite(linf) or linf > threshold:
        raise BlowupError(t, linf)


def step(
    state: SolverState, params: LLBarParams, policy: IntegratorPolicy
) -> SolverState:
    """Advance one step of ``policy.dt``; raises :class:`BlowupError` when
    the max-norm passes ``policy.blowup_threshold`` or turns non-finite."""
    u = state.u
    grid, modes = u.grid, u.modes
    h = policy.dt
    n0, linf = galerkin.nonlinear_term(u, params)
    _check_blowup(state.t, linf, policy.blowup_threshold)
    prev: SpectralField | None = None
    if policy.scheme == "ETDRK2":
        expz, hphi1, hphi2 = _etdrk2_tables(grid, modes, params, h)
        a = expz[None] * u.coeffs + hphi1[None] * n0.coeffs
        stage = SpectralField(grid=grid, modes=modes, coeffs=a)
        na, _ = galerkin.nonlinear_term(stage, params)
        new = a + hphi2[None] * (na.coeffs - n0.coeffs)
    elif policy.scheme == "IMEX-Euler":
        euler_denom, _, _ = _imex_tables(grid, modes, params, h)
        new = (u.coeffs + h * n0.coeffs) / euler_denom[None]
    else:  # IMEX-CNAB2
        euler_denom, cn_num, cn_denom = _imex_tables(grid, modes, params, h)
        if state.prev_nonlinear is None:
            new = (u.coeffs + h * n0.coeffs) / euler_denom[None]
        else:
            explicit = 1.5 * n0.coeffs - 0.5 * state.prev_nonlinear.coeffs
            new = (cn_num[None] * u.coeffs + h * explicit) / cn_denom[None]
        prev = n0
    t_new = (state.step_index + 1) * h + (state.t - state.step_index * h)
    if not np.isfinite(new).all():
        raise BlowupError(t_new, float("inf"))
    return SolverState(
        t=t_new,
        u=SpectralField(grid=grid, modes=modes, coeffs=new),
        step_index=state.step_index + 1,
        prev_nonlinear=prev,
    )


@dataclass
class Trajectory:
    """Snapshots of one integration at a fixed step cadence.

    ``modes`` is the retained band every snapshot lives on.  ``times[0]``
    is always the initial instant; the final step is recorded even when it
    does not land on the cadence.  ``aborted`` flags a blow-up stop, in
    which case everything recorded up to the abort is retained and
    ``blowup`` holds the offending (t, norm) pair.
    """

    grid: GridSpec
    modes: tuple[int, ...]
    params: LLBarParams
    policy: IntegratorPolicy
    times: list[float] = field(default_factory=list)
    snapshots: list[SpectralField] = field(default_factory=list)
    aborted: bool = False
    blowup: tuple[float, float] | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def terminal(self) -> SpectralField:
        if not self.snapshots:
            raise ValueError("trajectory holds no snapshots")
        return self.snapshots[-1]


def _step_plan(policy: IntegratorPolicy) -> tuple[int, float]:
    """Full steps of ``policy.dt`` to ``policy.t_end`` and the length of a
    shorter closing step (0 when t_end is a step multiple to 1e-12)."""
    n_full, remainder = divmod(policy.t_end, policy.dt)
    n_full = int(n_full)
    if remainder <= 1e-12 * max(policy.dt, policy.t_end):
        remainder = 0.0
    elif policy.dt - remainder <= 1e-12 * max(policy.dt, policy.t_end):
        n_full += 1
        remainder = 0.0
    return n_full, remainder


def integrate(
    u0: fields.VectorField | SpectralField,
    params: LLBarParams,
    policy: IntegratorPolicy,
    modes: tuple[int, ...] | None = None,
    cadence: int = 1,
    monitor: Callable[[float, SpectralField], None] | None = None,
) -> Trajectory:
    """March ``u0`` to ``policy.t_end`` recording every ``cadence``-th step.

    The data is first projected onto ``modes`` (truncated or zero-filled;
    default: the field's own modes, all of the grid for vector-field data).
    When ``t_end`` is not a step multiple, a single shorter final step
    closes the gap.  A blow-up stops the march and returns the partial
    trajectory with ``aborted`` set instead of propagating the error; the
    final state is checked against ``policy.blowup_threshold`` too.
    """
    if cadence < 1:
        raise ValueError(f"cadence must be at least 1, got {cadence}")
    if isinstance(u0, fields.VectorField):
        s = fields.forward(u0)
    elif isinstance(u0, SpectralField):
        s = u0
    else:
        raise TypeError(f"cannot integrate initial data of type {type(u0).__name__}")
    s = galerkin.project(s, s.modes if modes is None else modes)

    n_full, remainder = _step_plan(policy)
    total = n_full + (1 if remainder else 0)

    traj = Trajectory(grid=s.grid, modes=s.modes, params=params, policy=policy)

    def record(t: float, u: SpectralField) -> None:
        traj.times.append(t)
        traj.snapshots.append(u.copy())
        if monitor is not None:
            monitor(t, u)

    state = SolverState(t=0.0, u=s, step_index=0)
    record(0.0, state.u)
    try:
        for i in range(n_full):
            state = step(state, params, policy)
            if state.step_index % cadence == 0 and not (
                state.step_index == total and remainder == 0.0
            ):
                record(state.t, state.u)
        if remainder:
            short = replace(policy, dt=remainder, t_end=remainder)
            state = replace(state, step_index=0, prev_nonlinear=None)
            state = step(state, params, short)
        if total > 0:
            record(policy.t_end, state.u)
            # no later step reads the final state's sup, so read it here
            _check_blowup(policy.t_end, operators.padded_sup(state.u), policy.blowup_threshold)
    except BlowupError as err:
        traj.aborted = True
        traj.blowup = (err.t, err.norm)
    return traj
