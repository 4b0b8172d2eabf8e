"""Exponential and implicit-explicit time steppers for the band-projected flow.

Both schemes treat the diagonal symbol m(k) = -beta1*lambda - beta2*lambda^2
exactly or A-stably and the remainder explicitly.  The remainder holds the
quasilinear exchange-cubic term, of stiffness ~ 3 beta5 |u|^2 lambda_max, so
both carry a step restriction dt * 3 beta5 |u|^2 lambda_max < 1:

ETDRK2      two-stage exponential integrator; reproduces the purely linear
            flow to rounding and is second order for the full equation.
IMEX-Euler  first order; it damps the stiff modes harder, so it finishes
            some runs with large data that ETDRK2 aborts.

Time is reconstructed as step_index * dt rather than accumulated, so
trajectories are bitwise reproducible regardless of restart points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

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

SCHEMES = ("ETDRK2", "IMEX-Euler")

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
            total = self.steps
        except OverflowError:  # t_end / dt beyond the float range
            total = float("inf")
        if total > self.max_steps:
            raise ValueError(
                f"{total:.6g} steps needed to reach t_end={self.t_end} "
                f"exceed max_steps={self.max_steps}"
            )

    @property
    def steps(self) -> int:
        """Steps of ``dt`` to ``t_end``, a shorter closing step counted."""
        n_full, remainder = _step_plan(self)
        return n_full + (1 if remainder else 0)


@dataclass(frozen=True)
class SolverState:
    """One point of the discrete flow."""

    t: float
    u: SpectralField
    step_index: int


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
    return tuple(map(fields._per_component, (np.exp(z), dt * phi1(z), dt * phi2(z))))


@lru_cache(maxsize=32)
def _euler_denominator(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, dt: float
) -> np.ndarray:
    return fields._per_component(1.0 - dt * galerkin.rhs_linear_factor(grid, modes, params))


@lru_cache(maxsize=8)
def _stage_work(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of a field's or a stack's coefficient ``shape`` for the
    stage arithmetic of :func:`step`.

    Every step writes them before it reads them, and nothing it returns
    points into them, so steps on any bands may interleave.  Not
    thread-safe, like ``fields._padded_work``.
    """
    return fields._page_aligned(shape), fields._page_aligned(shape)


def _check_blowup(t: float, linf: float, threshold: float) -> None:
    if not math.isfinite(linf) or linf > threshold:
        raise BlowupError(t, linf)


def step(
    state: SolverState, params: LLBarParams, policy: IntegratorPolicy
) -> SolverState:
    """Advance one step of ``policy.dt``; raises :class:`BlowupError` when
    the max-norm passes ``policy.blowup_threshold`` or turns non-finite.

    The stage arithmetic runs in place, in the operation order of the
    schemes' formulas, so only the returned state is allocated (besides
    the fresh remainders ``galerkin.nonlinear_term`` returns).  A stack
    of fields steps as one, each field with the bits of its own step;
    the max-norm is then the largest in the stack.
    """
    u = state.u
    grid, modes = u.grid, u.modes
    h = policy.dt
    n0, linf = galerkin.nonlinear_term(u, params)
    _check_blowup(state.t, linf, policy.blowup_threshold)
    a, b = _stage_work(u.coeffs.shape)
    new = np.empty_like(a)
    if policy.scheme == "ETDRK2":
        # a = e^z u + h phi1 n0;  new = a + h phi2 (na - n0)
        expz, hphi1, hphi2 = _etdrk2_tables(grid, modes, params, h)
        np.multiply(expz, u.coeffs, out=a)
        a += np.multiply(hphi1, n0.coeffs, out=b)
        na, _ = galerkin.nonlinear_term(SpectralField(grid=grid, modes=modes, coeffs=a), params)
        np.subtract(na.coeffs, n0.coeffs, out=b)
        np.add(a, np.multiply(hphi2, b, out=b), out=new)
    else:  # IMEX-Euler: new = (u + h n0) / (1 - h m)
        np.add(u.coeffs, np.multiply(n0.coeffs, h, out=b), out=b)
        np.divide(b, _euler_denominator(grid, modes, params, h), out=new)
    t_new = (state.step_index + 1) * h + (state.t - state.step_index * h)
    if not np.isfinite(new).all():
        raise BlowupError(t_new, float("inf"))
    return SolverState(
        t=t_new,
        u=SpectralField(grid=grid, modes=modes, coeffs=new),
        step_index=state.step_index + 1,
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
    u0: SpectralField,
    params: LLBarParams,
    policy: IntegratorPolicy,
    modes: tuple[int, ...] | None = None,
    cadence: int = 1,
) -> Trajectory:
    """March ``u0`` to ``policy.t_end`` recording every ``cadence``-th step.

    The data is first projected onto ``modes`` (truncated or zero-filled;
    default: the field's own modes).  When ``t_end`` is not a step
    multiple, a single shorter final step closes the gap.  A blow-up stops
    the march and returns the partial trajectory with ``aborted`` set
    instead of propagating the error; the final state is checked against
    ``policy.blowup_threshold`` too.  A stack of fields marches as one,
    each with the bits of its own march; a blow-up in any stops them all.
    """
    if cadence < 1:
        raise ValueError(f"cadence must be at least 1, got {cadence}")
    s = galerkin.project(u0, u0.modes if modes is None else modes)

    n_full, remainder = _step_plan(policy)
    total = policy.steps

    traj = Trajectory(grid=s.grid, modes=s.modes, params=params)

    def record(t: float, u: SpectralField) -> None:
        traj.times.append(t)
        traj.snapshots.append(u.copy())

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
            state = replace(state, step_index=0)
            state = step(state, params, short)
        if total > 0:
            record(policy.t_end, state.u)
            # no later step reads the final state's sup, so read it here
            _check_blowup(policy.t_end, operators.padded_sup(state.u), policy.blowup_threshold)
    except BlowupError as err:
        traj.aborted = True
        traj.blowup = (err.t, err.norm)
    return traj
