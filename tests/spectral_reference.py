"""Explicit basis-matrix references shared by the tests.

A field's coefficients are evaluated on a midpoint grid by one dense
matrix per axis, built from the closed form of the orthonormal cosines
and their derivatives, and pointwise products are projected back by
midpoint quadrature the same way.  Nothing here calls the transform
layer, so a reference built from these helpers is independent of the
code it checks.
"""

from __future__ import annotations

import numpy as np


def midpoints(L, P):
    """The P midpoints of [0, L]."""
    return (np.arange(P) + 0.5) * L / P


def basis(M, P, L, m):
    """d^m/dx^m of the first M orthonormal cosines at P midpoints of [0, L]."""
    x = midpoints(L, P)
    k = np.arange(M) * np.pi / L
    norm = np.where(np.arange(M) == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L))
    return norm * k**m * np.cos(np.outer(x, k) + m * np.pi / 2)


def contract(mats, arr):
    """Apply one matrix to each trailing axis of a (3, ...) array."""
    for j, mat in enumerate(mats):
        arr = np.moveaxis(np.tensordot(mat, arr, axes=(1, 1 + j)), 0, 1 + j)
    return arr


def alphas(dim, order):
    return [a for a in np.ndindex(*(order + 1,) * dim) if sum(a) == order]


def lam_of(grid, modes):
    """lambda(k) = sum_j (k_j pi / L_j)^2 on a mode box."""
    axes = np.meshgrid(*(np.arange(M) * np.pi / L for M, L in zip(modes, grid.extents)),
                       indexing="ij")
    return sum(k**2 for k in axes)


def cell(grid, pad):
    """Cell volume of the midpoint grid ``pad``."""
    return float(np.prod([L / P for L, P in zip(grid.extents, pad)]))


def values(grid, c, alpha, pad):
    """D^alpha of a (3, *modes) coefficient array at the midpoints of ``pad``."""
    return contract(
        [basis(M, P, L, a) for M, P, L, a in zip(c.shape[1:], pad, grid.extents, alpha)], c
    )


def jacobian(grid, c, pad):
    """Every first derivative of a (3, *modes) coefficient array, (3, d, *pad)."""
    dim = grid.dim
    return np.stack(
        [values(grid, c, tuple(int(a == j) for a in range(dim)), pad) for j in range(dim)], axis=1
    )


def project(grid, w, modes, pad):
    """Midpoint quadrature of (c, *pad) samples onto the first ``modes`` cosines."""
    return contract(
        [basis(M, P, L, 0).T * (L / P) for M, P, L in zip(modes, pad, grid.extents)], w
    )


def cubic_gradient(u, ju):
    """grad(|u|^2 u) = 2 u (u . grad u) + |u|^2 grad u from samples (3, ...) and (3, d, ...)."""
    u_dot_grad = np.einsum("c...,cj...->j...", u, ju)
    return 2.0 * u[:, None] * u_dot_grad[None] + (u * u).sum(axis=0) * ju


def cubic_laplacian(u, ju, lap):
    """Lap(|u|^2 u) = 2 |grad u|^2 u + 2 (u . Lap u) u + 4 grad u (u . grad u) + |u|^2 Lap u."""
    u_dot_grad = np.einsum("c...,cj...->j...", u, ju)
    return (
        2.0 * (ju * ju).sum(axis=(0, 1)) * u
        + 2.0 * (u * lap).sum(axis=0) * u
        + 4.0 * np.einsum("cj...,j...->c...", ju, u_dot_grad)
        + (u * u).sum(axis=0) * lap
    )
