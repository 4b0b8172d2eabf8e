"""Retained-band projection and the Galerkin right-hand side.

The evolution solved here is

    du/dt = beta1 * Lap(u) - beta2 * Lap^2(u) + beta3 * (1 - |u|^2) u
            - beta4 * u x Lap(u) + beta5 * Lap(|u|^2 u),

projected onto a retained cosine band.  The right-hand side splits into a
diagonal linear part with symbol m(k) = -beta1*lambda(k) - beta2*lambda(k)^2
and a nonlinear remainder, ``nonlinear_term``, shared by ``rhs`` and the
steppers.  It reuses one cubic transform for the ``(1 - |u|^2) u`` and
``Lap(|u|^2 u)`` contributions, exact to rounding on the band's padded grid
(``dealias_pad`` = 2 midpoints per retained mode and axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fields
from .fields import GridSpec, SpectralField

__all__ = [
    "LLBarParams",
    "derive_beta1",
    "project",
    "rhs",
    "rhs_linear_factor",
    "nonlinear_term",
]

_CONSISTENCY_TOL = 1e-14


def derive_beta1(lambda_r: float, lambda_e: float, chi: float) -> float:
    """Exchange-relaxation combination ``lambda_r - lambda_e / (2 chi)``.

    The only coefficient in the model without a sign constraint.
    """
    chi = float(chi)
    if not math.isfinite(chi) or chi <= 0.0:
        raise ValueError(f"chi must be positive and finite, got {chi}")
    return float(lambda_r) - float(lambda_e) / (2.0 * chi)


@dataclass(frozen=True)
class LLBarParams:
    """Coefficients of the evolution equation.

    ``beta1`` may take either sign; ``beta2`` .. ``beta5`` must be
    nonnegative (zero switches the corresponding term off, which the
    degenerate diagnostic runs rely on).  The physical inputs are optional;
    when all four are given they must reproduce the betas through

        beta1 = lambda_r - lambda_e / (2 chi),   beta2 = lambda_e,
        beta3 = lambda_r / (2 chi),              beta4 = gamma,
        beta5 = lambda_e / (2 chi),

    to within 1e-14 (relative), otherwise construction fails.
    """

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float
    lambda_r: float | None = None
    lambda_e: float | None = None
    chi: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        for name in ("beta1", "beta2", "beta3", "beta4", "beta5"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("beta2", "beta3", "beta4", "beta5"):
            if getattr(self, name) < 0.0:
                raise ValueError(
                    f"{name} must be nonnegative, got {getattr(self, name)}"
                )
        physical = ("lambda_r", "lambda_e", "chi", "gamma")
        given = [name for name in physical if getattr(self, name) is not None]
        if not given:
            return
        if len(given) < len(physical):
            missing = [name for name in physical if name not in given]
            raise ValueError(
                "physical parameters are all-or-none; missing " + ", ".join(missing)
            )
        for name in physical:
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.chi <= 0.0 or not math.isfinite(self.chi):
            raise ValueError(f"chi must be positive and finite, got {self.chi}")
        if self.lambda_e < 0.0 or self.lambda_r < 0.0 or self.gamma < 0.0:
            raise ValueError("lambda_r, lambda_e and gamma must be nonnegative")
        derived = {
            "beta1": derive_beta1(self.lambda_r, self.lambda_e, self.chi),
            "beta2": self.lambda_e,
            "beta3": self.lambda_r / (2.0 * self.chi),
            "beta4": self.gamma,
            "beta5": self.lambda_e / (2.0 * self.chi),
        }
        for name, want in derived.items():
            have = getattr(self, name)
            if abs(have - want) > _CONSISTENCY_TOL * max(1.0, abs(want)):
                raise ValueError(
                    f"{name}={have!r} is inconsistent with the physical "
                    f"parameters (expected {want!r})"
                )

    @classmethod
    def from_physical(
        cls, lambda_r: float, lambda_e: float, chi: float, gamma: float
    ) -> "LLBarParams":
        """Build the betas from relaxation/exchange/susceptibility inputs."""
        chi = float(chi)
        return cls(
            beta1=derive_beta1(lambda_r, lambda_e, chi),
            beta2=float(lambda_e),
            beta3=float(lambda_r) / (2.0 * chi),
            beta4=float(gamma),
            beta5=float(lambda_e) / (2.0 * chi),
            lambda_r=float(lambda_r),
            lambda_e=float(lambda_e),
            chi=chi,
            gamma=float(gamma),
        )


def project(v: SpectralField, modes: tuple[int, ...]) -> SpectralField:
    """Orthogonal projection onto the first ``modes`` per axis (truncate,
    zero-fill), of one field or a stack; ``SpectralField`` checks
    ``modes`` against the grid."""
    shape = (*v.coeffs.shape[: -v.grid.dim], *modes)
    out = SpectralField(grid=v.grid, modes=modes, coeffs=np.zeros(shape))
    keep = (...,) + tuple(slice(0, min(m, b)) for m, b in zip(v.modes, out.modes))
    out.coeffs[keep] = v.coeffs[keep]
    return out


def rhs(v: SpectralField, params: LLBarParams) -> SpectralField:
    """Full Galerkin right-hand side at ``v``, one field or a stack of them:
    ``m(k) v + nonlinear_term(v)``."""
    linear = rhs_linear_factor(v.grid, v.modes, params)[None] * v.coeffs
    remainder, _ = nonlinear_term(v, params)
    return SpectralField(grid=v.grid, modes=v.modes, coeffs=linear + remainder.coeffs)


def rhs_linear_factor(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams
) -> np.ndarray:
    """Diagonal symbol ``m(k) = -beta1*lambda(k) - beta2*lambda(k)^2``.

    Shape ``modes``; broadcast against the leading component axis of a
    coefficient array.
    """
    lam = fields.eigenvalue_array(grid, modes)
    return -params.beta1 * lam - params.beta2 * lam * lam


@lru_cache(maxsize=32)
def _nonlinear_tables(
    grid: GridSpec, modes: tuple[int, ...], params: LLBarParams, stacked: bool
) -> tuple[tuple[int, ...], tuple[str, ...], np.ndarray, np.ndarray]:
    """The band's padded grid and parities, and per-component tables of
    ``-lambda(k)`` and ``beta5 * lambda(k)``, the first factor of
    ``beta5 * lambda * c3``: (3, *modes), or (3, 1, *modes) to broadcast
    over the fields of a component-major stack; built once per (grid,
    modes, params, stacked)."""
    lam = fields.eigenvalue_array(grid, modes)
    shape = (3,) + (1,) * stacked + modes
    tables = (fields._per_component(t).reshape(shape) for t in (-lam, params.beta5 * lam))
    return (grid.padded(modes), ("cos",) * grid.dim, *tables)


def nonlinear_term(
    v: SpectralField, params: LLBarParams
) -> tuple[SpectralField, float]:
    """Stiffly-stable splitting remainder ``rhs(v) - m(k) v``.

    Returns the remainder together with the pointwise-magnitude sup of
    ``v`` on the band's padded grid (the same reading as the ledger's Linf
    column), which steppers use for blow-up checks at no extra transform
    cost.  One evaluation pass serves ``v`` and ``Lap v``; one
    analysis pass serves the cubic and cross products, with the
    ``Lap(|v|^2 v)`` term folded in as ``-lambda(k)`` times the cubic
    coefficients.  Every padded-grid array comes from the work set that
    ``fields._padded_work`` caches per band, and the coefficients are
    combined in place in the one fresh array that is returned.  A stack
    of fields (see ``SpectralField``) takes the same passes, each over the
    whole stack, and the sup is then the largest in the stack.
    """
    grid, modes, extents = v.grid, v.modes, v.grid.extents
    lead = v.coeffs.shape[: -grid.dim - 1]
    points, all_cos, neg_lam, beta5_lam = _nonlinear_tables(grid, modes, params, bool(lead))
    stacked, series_work, _, nodes = fields._padded_work(grid.dealias_pad, modes, lead)
    # a stack goes component-major, (3, n, *modes), so each row below spans
    # it; rows u_0, Lap u_0, u_1, Lap u_1, ...: strided views then pair the
    # cross product's factors without copies.  The transforms take all rows
    # on one axis, so each product keeps its one-field row count and bits
    c = v.coeffs.swapaxes(0, len(lead))
    stacked[0::2] = c
    np.multiply(c, neg_lam, out=stacked[1::2])
    vals = fields._eval_series(stacked.reshape((-1,) + modes), extents, all_cos, points, series_work)
    vals = vals.reshape((6,) + lead + (-1,))
    u_vals = vals[0::2]
    products, spare = nodes[:6], nodes[6:]
    norm2 = spare[0]
    squares = np.multiply(u_vals, u_vals, out=products[:3])
    np.add(squares[0], squares[1], out=norm2)
    norm2 += squares[2]
    linf = math.sqrt(norm2.max())
    np.multiply(u_vals, norm2, out=products[:3])
    # u x Lap u = (u1 L2 - u2 L1, u2 L0 - u0 L2, u0 L1 - u1 L0)
    cross = products[3:]
    np.multiply(vals[2:5:2], vals[5::-4], out=cross[:2])  # u1 L2, u2 L0
    np.multiply(vals[0], vals[3], out=cross[2])  # u0 L1
    cross[:2] -= np.multiply(vals[4::-4], vals[3:6:2], out=spare)  # u2 L1, u0 L2
    cross[2] -= np.multiply(vals[2], vals[1], out=spare[0])  # u1 L0
    analysis = fields._transform_series(
        products.reshape((-1,) + points), extents, all_cos, modes, series_work
    ).reshape((6,) + lead + modes)
    c3, c4 = analysis[:3], analysis[3:]
    # beta3 (v - c3) - beta4 c4 - beta5 lambda c3, left to right, in place
    coeffs = np.subtract(c, c3)
    coeffs *= params.beta3
    coeffs -= np.multiply(c4, params.beta4, out=c4)
    coeffs -= np.multiply(beta5_lam, c3, out=c3)
    return SpectralField(grid=grid, modes=modes, coeffs=coeffs.swapaxes(0, len(lead))), linf
