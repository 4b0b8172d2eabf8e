"""Spectral differential operators and the cubic identities of the model.

Everything here is exact on band-limited fields: Laplacian powers are
diagonal multipliers, odd derivatives swap an axis to sine parity, and
pointwise products are formed on the padded midpoint grid of the band
they are projected onto (``GridSpec.padded``: ``dealias_pad`` points per
mode and axis) before projecting back.  At the default factor 2 an
M-mode band's cubic projections and quartic integrals, of degree at most
4(M - 1), fall below the 4M that midpoint quadrature on 2M points
integrates exactly, so they carry no aliasing error.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    GridSpec,
    JacobianField,
    SpectralField,
    VectorField,
    _derivative_multiplier,
    _eval_series,
    _transform_series,
    eigenvalue_array,
    forward,
    inverse,
)

__all__ = [
    "gradient",
    "laplacian",
    "bilaplacian",
    "grad_laplacian",
    "cross",
    "dot",
    "nabla_cubic",
    "delta_cubic",
    "grid_inner",
    "face_normal_derivative",
]


def _as_spectral(u) -> SpectralField:
    return forward(u) if isinstance(u, VectorField) else u


# ---------------------------------------------------------------------------
# Linear operators.
# ---------------------------------------------------------------------------


def laplacian(u):
    """Delta u via the -lambda(k) multiplier; returns the input's type."""
    s = _as_spectral(u)
    out = SpectralField(s.grid, s.modes, -s.eigenvalues * s.coeffs)
    return inverse(out) if isinstance(u, VectorField) else out


def bilaplacian(u):
    """Delta^2 u via the lambda(k)^2 multiplier; returns the input's type."""
    s = _as_spectral(u)
    out = SpectralField(s.grid, s.modes, s.eigenvalues**2 * s.coeffs)
    return inverse(out) if isinstance(u, VectorField) else out


def _jacobian_values(s: SpectralField, points: tuple[int, ...]) -> np.ndarray:
    """All first derivatives of a cosine field, evaluated on a midpoint grid."""
    grid = s.grid
    cols = []
    for j in range(grid.dim):
        orders = tuple(1 if a == j else 0 for a in range(grid.dim))
        dc, parities = _derivative_multiplier(s.coeffs, grid.extents, orders)
        cols.append(_eval_series(dc, grid.extents, parities, points))
    return np.stack(cols, axis=1)


def gradient(u) -> JacobianField:
    """Jacobian with columns d_j u, exact for band-limited fields."""
    s = _as_spectral(u)
    return JacobianField(s.grid, _jacobian_values(s, s.grid.points))


def grad_laplacian(u) -> JacobianField:
    """nabla(Delta u) = Delta(nabla u): diagonal multiplier then gradient."""
    s = _as_spectral(u)
    return JacobianField(s.grid, _jacobian_values(laplacian(s), s.grid.points))


# ---------------------------------------------------------------------------
# Pointwise algebra (column-wise cross/dot conventions).
# ---------------------------------------------------------------------------


def cross(z, A):
    """z x A pointwise; with a Jacobian, each column is crossed separately."""
    if isinstance(z, VectorField) and isinstance(A, VectorField):
        if z.grid != A.grid:
            raise ValueError("cross: fields live on different grids")
        return VectorField(z.grid, np.cross(z.data, A.data, axis=0))
    if isinstance(z, VectorField) and isinstance(A, JacobianField):
        if z.grid != A.grid:
            raise ValueError("cross: fields live on different grids")
        return JacobianField(z.grid, np.cross(z.data[:, None], A.data, axis=0))
    raise TypeError(f"cross undefined for {type(z).__name__} x {type(A).__name__}")


def dot(A, B) -> np.ndarray:
    """Pointwise contraction: u.v, A:B over columns, or the row vector u.(nabla v)."""
    if isinstance(A, VectorField) and isinstance(B, VectorField):
        if A.grid != B.grid:
            raise ValueError("dot: fields live on different grids")
        return (A.data * B.data).sum(axis=0)
    if isinstance(A, JacobianField) and isinstance(B, JacobianField):
        if A.grid != B.grid:
            raise ValueError("dot: fields live on different grids")
        return (A.data * B.data).sum(axis=(0, 1))
    if isinstance(A, VectorField) and isinstance(B, JacobianField):
        if A.grid != B.grid:
            raise ValueError("dot: fields live on different grids")
        return (A.data[:, None] * B.data).sum(axis=0)
    raise TypeError(f"dot undefined for {type(A).__name__} . {type(B).__name__}")


# ---------------------------------------------------------------------------
# Padded-grid evaluation (dealiasing workhorse).
# ---------------------------------------------------------------------------


def padded_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """Field samples on the band's padded midpoint grid, shape (3, *points)."""
    grid = s.grid
    pts = grid.padded(s.modes) if points is None else points
    return _eval_series(s.coeffs, grid.extents, ("cos",) * grid.dim, pts)


def padded_jacobian(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    pts = s.grid.padded(s.modes) if points is None else points
    return _jacobian_values(s, pts)


def padded_laplacian_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    return padded_values(laplacian(s), points)


def padded_grad_laplacian(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    return padded_jacobian(laplacian(s), points)


def grid_inner(a: np.ndarray, b: np.ndarray, grid: GridSpec, points: tuple[int, ...]) -> float:
    """Midpoint-quadrature L2 inner product of two sample arrays.

    Exact whenever the pointwise product a*b is band-limited below twice the
    quadrature grid (the cosine-quadrature analogue of Parseval).
    """
    cell = 1.0
    for L, P in zip(grid.extents, points):
        cell *= L / P
    return float(cell * np.sum(a * b))


# ---------------------------------------------------------------------------
# The cubic identities (nabla and Delta of |v|^2 v).
# ---------------------------------------------------------------------------


def cubic_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """|v|^2 v sampled pointwise on the band's padded grid."""
    v = padded_values(s, points)
    return (v * v).sum(axis=0) * v


def cubic_gradient_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """nabla(|v|^2 v) = 2 v (v . nabla v) + |v|^2 nabla v, sampled pointwise."""
    pts = s.grid.padded(s.modes) if points is None else points
    v = padded_values(s, pts)
    J = padded_jacobian(s, pts)
    vg = (v[:, None] * J).sum(axis=0)  # rows v . d_j v
    v2 = (v * v).sum(axis=0)
    return 2.0 * v[:, None] * vg[None] + v2[None, None] * J


def cubic_laplacian_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """Delta(|v|^2 v) = 2|nabla v|^2 v + 2(v.Delta v)v + 4 nabla v (v.nabla v)^T + |v|^2 Delta v."""
    pts = s.grid.padded(s.modes) if points is None else points
    v = padded_values(s, pts)
    J = padded_jacobian(s, pts)
    Lv = padded_laplacian_values(s, pts)
    vg = (v[:, None] * J).sum(axis=0)
    v2 = (v * v).sum(axis=0)
    gradsq = (J * J).sum(axis=(0, 1))
    vLv = (v * Lv).sum(axis=0)
    return 2.0 * gradsq * v + 2.0 * vLv * v + 4.0 * (J * vg[None]).sum(axis=1) + v2 * Lv


def cubic_band(s: SpectralField, modes: tuple[int, ...] | None = None) -> SpectralField:
    """Projection of |v|^2 v onto a band, sampled on the wider band's padded grid."""
    grid = s.grid
    target = s.modes if modes is None else tuple(modes)
    w = cubic_values(s, grid.padded(tuple(map(max, s.modes, target))))
    coeffs = _transform_series(w, grid.extents, ("cos",) * grid.dim, target)
    return SpectralField(grid, target, coeffs)


def delta_cubic_band(s: SpectralField, modes: tuple[int, ...] | None = None) -> SpectralField:
    """Projection of Delta(|v|^2 v) onto a band, assembled from the identity form."""
    grid = s.grid
    target = s.modes if modes is None else tuple(modes)
    w = cubic_laplacian_values(s, grid.padded(tuple(map(max, s.modes, target))))
    coeffs = _transform_series(w, grid.extents, ("cos",) * grid.dim, target)
    return SpectralField(grid, target, coeffs)


def nabla_cubic(u: VectorField) -> JacobianField:
    """Band projection of nabla(|u|^2 u), assembled from the identity form."""
    s = _as_spectral(u)
    grid = s.grid
    W = cubic_gradient_values(s)
    cols = []
    for j in range(grid.dim):
        parities = tuple("sin" if a == j else "cos" for a in range(grid.dim))
        cj = _transform_series(W[:, j], grid.extents, parities, grid.points)
        cols.append(_eval_series(cj, grid.extents, parities, grid.points))
    return JacobianField(grid, np.stack(cols, axis=1))


def delta_cubic(u: VectorField) -> VectorField:
    """Band projection of Delta(|u|^2 u), assembled from the identity form."""
    s = _as_spectral(u)
    return inverse(delta_cubic_band(s))


# ---------------------------------------------------------------------------
# Boundary probe.
# ---------------------------------------------------------------------------


def face_normal_derivative(
    samples: np.ndarray, grid: GridSpec, axis: int, side: int, stencil: int = 7
) -> np.ndarray:
    """One-sided estimate of the normal derivative at a box face.

    ``samples`` is a scalar or component array over some midpoint grid
    (trailing ``dim`` axes are spatial).  Uses a ``stencil``-node one-sided
    difference (degree ``stencil - 1`` exact, i.e. 6th order for the
    default), evaluated at the face itself, which is half a cell outside
    the first node.
    """
    dim = grid.dim
    spatial = samples.shape[-dim:]
    h = grid.extents[axis] / spatial[axis]
    t = np.arange(stencil) + 0.5
    # Vandermonde: sum_i w_i t_i^q = delta_{q,1}  (derivative at the face, t=0)
    V = np.vander(t, N=stencil, increasing=True).T
    rhs = np.zeros(stencil)
    rhs[1] = 1.0
    w = np.linalg.solve(V, rhs)
    ax = samples.ndim - dim + axis
    if side == 0:
        picks = np.arange(stencil)
        sign = 1.0
    else:
        picks = spatial[axis] - 1 - np.arange(stencil)
        sign = -1.0
    sl = np.take(samples, picks, axis=ax)
    return sign / h * np.tensordot(w, np.moveaxis(sl, ax, 0), axes=(0, 0))
