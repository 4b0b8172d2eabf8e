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
    zero-fill); ``SpectralField`` checks ``modes`` against the grid."""
    out = SpectralField(grid=v.grid, modes=modes, coeffs=np.zeros((3, *modes)))
    keep = tuple(slice(0, min(m, b)) for m, b in zip(v.modes, out.modes))
    out.coeffs[(slice(None),) + keep] = v.coeffs[(slice(None),) + keep]
    return out


def rhs(v: SpectralField, params: LLBarParams) -> SpectralField:
    """Full Galerkin right-hand side at ``v``: ``m(k) v + nonlinear_term(v)``."""
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
    ``fields._padded_work`` caches per (grid, modes); the returned
    coefficients are fresh.
    """
    grid = v.grid
    extents, points, all_cos = grid.extents, grid.padded(v.modes), ("cos",) * grid.dim
    lam = fields.eigenvalue_array(grid, v.modes)
    stacked, series_work, _, nodes = fields._padded_work(grid, v.modes)
    stacked[:3] = v.coeffs
    np.multiply(v.coeffs, -lam[None], out=stacked[3:])
    vals = fields._eval_series(stacked, extents, all_cos, points, series_work)
    u_vals, lap_vals = np.split(vals.reshape(6, -1), 2)
    products, norm2, tmp = nodes[:6], nodes[6], nodes[7]
    np.multiply(u_vals[0], u_vals[0], out=norm2)
    for c in (1, 2):
        norm2 += np.multiply(u_vals[c], u_vals[c], out=tmp)
    linf = float(np.sqrt(norm2.max()))
    np.multiply(u_vals, norm2[None], out=products[:3])
    # cross product written out to skip np.cross's axis shuffling
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u_vals[a], lap_vals[b], out=products[3 + i])
        products[3 + i] -= np.multiply(u_vals[b], lap_vals[a], out=tmp)
    analysis = fields._transform_series(
        products.reshape((6,) + points), extents, all_cos, v.modes, series_work
    )
    c3, c4 = analysis[:3], analysis[3:]
    coeffs = (
        params.beta3 * (v.coeffs - c3)
        - params.beta4 * c4
        - params.beta5 * lam[None] * c3
    )
    return SpectralField(grid=grid, modes=v.modes, coeffs=coeffs), linf
