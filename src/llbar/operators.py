"""Spectral differential operators and the cubic identities of the model.

Everything here acts on a ``SpectralField`` and is exact on band-limited
fields: the Laplacian is a diagonal multiplier, odd derivatives swap an
axis to sine parity, and pointwise products are formed on the padded
midpoint grid of the band they are projected onto (``GridSpec.padded``:
``dealias_pad`` points per mode and axis) before projecting back.  At the
default factor 2 an M-mode band's cubic projections and quartic
integrals, of degree at most 4(M - 1), fall below the 4M that midpoint
quadrature on 2M points integrates exactly, so they carry no aliasing
error.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    GridSpec,
    SpectralField,
    _derivative_multiplier,
    _eval_series,
    _transform_series,
    eigenvalue_array,
)

__all__ = [
    "laplacian",
    "padded_values",
    "padded_sup",
    "padded_jacobian",
    "padded_laplacian_values",
    "padded_grad_laplacian",
    "padded_samples",
    "grid_inner",
    "cubic_gradient_values",
    "cubic_laplacian_values",
    "cubic_band",
    "delta_cubic_band",
    "face_normal_derivative",
]


def laplacian(s: SpectralField) -> SpectralField:
    """Delta u via the -lambda(k) multiplier."""
    return SpectralField(s.grid, s.modes, -s.eigenvalues * s.coeffs)


def _jacobian_values(grid: GridSpec, coeffs: np.ndarray, points: tuple[int, ...]) -> np.ndarray:
    """All first derivatives of a (..., c, *modes) cosine coefficient stack,
    evaluated on a midpoint grid: shape (..., c, d, *points)."""
    cols = []
    for j in range(grid.dim):
        orders = tuple(1 if a == j else 0 for a in range(grid.dim))
        dc, parities = _derivative_multiplier(coeffs, grid.extents, orders)
        cols.append(_eval_series(dc, grid.extents, parities, points))
    return np.stack(cols, axis=-grid.dim - 1)


def _nodes(samples: np.ndarray, dim: int) -> np.ndarray:
    """View of midpoint-grid samples with the ``dim`` spatial axes flattened into one."""
    return samples.reshape(samples.shape[: samples.ndim - dim] + (-1,))


def padded_samples(grid: GridSpec, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and Lap u of a (..., 3, *modes) coefficient stack on the band's padded
    grid, (2, ..., 3, nodes), and their Jacobians, (2, ..., 3, d, nodes),
    index 0 holding u and 1 Lap u: one synthesis for the values and one
    per axis for the Jacobian columns."""
    dim = grid.dim
    modes = coeffs.shape[-dim:]
    points = grid.padded(modes)
    both = np.stack([coeffs, -eigenvalue_array(grid, modes) * coeffs])
    values = _eval_series(both, grid.extents, ("cos",) * dim, points)
    return _nodes(values, dim), _nodes(_jacobian_values(grid, both, points), dim)


# ---------------------------------------------------------------------------
# Padded-grid evaluation (dealiasing workhorse).
# ---------------------------------------------------------------------------


def padded_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """Field samples on the band's padded midpoint grid, shape (3, *points)."""
    grid = s.grid
    pts = grid.padded(s.modes) if points is None else points
    return _eval_series(s.coeffs, grid.extents, ("cos",) * grid.dim, pts)


def padded_sup(s: SpectralField) -> float:
    """Sup over the band's padded grid of the pointwise magnitude (the ledger's Linf)."""
    return float(np.sqrt((padded_values(s) ** 2).sum(axis=0).max()))


def padded_jacobian(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    pts = s.grid.padded(s.modes) if points is None else points
    return _jacobian_values(s.grid, s.coeffs, pts)


def padded_laplacian_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    return padded_values(laplacian(s), points)


def padded_grad_laplacian(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    return padded_jacobian(laplacian(s), points)


def grid_inner(a: np.ndarray, b: np.ndarray, grid: GridSpec, points: tuple[int, ...]) -> float:
    """Midpoint-quadrature L2 inner product of two sample arrays.

    Exact whenever the pointwise product a*b is band-limited below twice the
    quadrature grid (the cosine-quadrature analogue of Parseval).
    """
    return float(math.prod(L / P for L, P in zip(grid.extents, points)) * np.sum(a * b))


# ---------------------------------------------------------------------------
# The cubic identities (nabla and Delta of |v|^2 v).
# ---------------------------------------------------------------------------


# The pointwise forms take samples with any leading axes, the spatial axes
# flattened into one node axis: values and Laplacian (..., 3, nodes),
# Jacobian (..., 3, d, nodes).  The SpectralField entry points below are
# stacks of one.


def _cubic(v: np.ndarray) -> np.ndarray:
    """|v|^2 v, pointwise."""
    return (v * v).sum(axis=-2, keepdims=True) * v


def _cubic_gradient(v: np.ndarray, J: np.ndarray) -> np.ndarray:
    """nabla(|v|^2 v) = 2 v (v . nabla v) + |v|^2 nabla v, pointwise."""
    # einsum and the in-place sum keep a stack's (..., 3, d, nodes) temporaries to one
    vg = np.einsum("...cn,...cjn->...jn", v, J)  # rows v . d_j v
    out = (v * v).sum(axis=-2)[..., None, None, :] * J
    twice = v[..., None, :] * vg[..., None, :, :]
    twice *= 2.0
    out += twice
    return out


def _cubic_laplacian(v: np.ndarray, J: np.ndarray, Lv: np.ndarray) -> np.ndarray:
    """Delta(|v|^2 v) = 2|nabla v|^2 v + 2(v.Delta v)v + 4 nabla v (v.nabla v)^T + |v|^2 Delta v."""
    vg = np.einsum("...cn,...cjn->...jn", v, J)
    v2 = (v * v).sum(axis=-2, keepdims=True)
    gradsq = np.einsum("...cjn,...cjn->...n", J, J)[..., None, :]
    vLv = (v * Lv).sum(axis=-2, keepdims=True)
    return (
        2.0 * gradsq * v + 2.0 * vLv * v
        + 4.0 * np.einsum("...cjn,...jn->...cn", J, vg) + v2 * Lv
    )


def _pointwise(form, s: SpectralField, points, *samplers) -> np.ndarray:
    """``form`` of the samplers' readings of ``s`` on ``points`` (default:
    the band's padded grid), with the spatial axes restored."""
    pts = s.grid.padded(s.modes) if points is None else points
    out = form(*(_nodes(sample(s, pts), s.grid.dim) for sample in samplers))
    return out.reshape(out.shape[:-1] + pts)


def cubic_gradient_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """nabla(|v|^2 v) sampled pointwise, shape (3, d, *points)."""
    return _pointwise(_cubic_gradient, s, points, padded_values, padded_jacobian)


def cubic_laplacian_values(s: SpectralField, points: tuple[int, ...] | None = None) -> np.ndarray:
    """Delta(|v|^2 v) sampled pointwise from the identity form."""
    return _pointwise(
        _cubic_laplacian, s, points, padded_values, padded_jacobian, padded_laplacian_values
    )


def _band(s: SpectralField, modes: tuple[int, ...] | None, form, *samplers) -> SpectralField:
    """Projection of a pointwise form onto a band, sampled on the wider band's padded grid."""
    grid = s.grid
    target = s.modes if modes is None else tuple(modes)
    w = _pointwise(form, s, grid.padded(tuple(map(max, s.modes, target))), *samplers)
    return SpectralField(grid, target, _transform_series(w, grid.extents, ("cos",) * grid.dim, target))


def cubic_band(s: SpectralField, modes: tuple[int, ...] | None = None) -> SpectralField:
    """Projection of |v|^2 v onto a band."""
    return _band(s, modes, _cubic, padded_values)


def delta_cubic_band(s: SpectralField, modes: tuple[int, ...] | None = None) -> SpectralField:
    """Projection of Delta(|v|^2 v) onto a band, assembled from the identity form."""
    return _band(s, modes, _cubic_laplacian, padded_values, padded_jacobian, padded_laplacian_values)


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
