"""Differential operators and the cubic product-rule identities.

Single cosine modes have closed-form cubes:

    e_k^3 = (3/(2L)) e_k + (1/(2L)) e_{3k}   on [0, L],

which gives exact pen-and-paper references for the nonlinear routes; the
linear operators are compared against analytic derivatives of explicit
mode combinations.
"""

from __future__ import annotations

import numpy as np
import pytest

from llbar import fields, operators
from llbar.fields import GridSpec, SpectralField, VectorField


def basis(k: int, L: float, x: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.full_like(x, np.sqrt(1.0 / L))
    return np.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)


def dbasis(k: int, L: float, x: np.ndarray) -> np.ndarray:
    return -(k * np.pi / L) * np.sqrt(2.0 / L) * np.sin(k * np.pi * x / L)


def mode_field(grid: GridSpec, entries: dict) -> SpectralField:
    """entries: {(component, k1, ..., kd): amplitude}"""
    coeffs = np.zeros((3,) + grid.points)
    for key, a in entries.items():
        coeffs[key] = a
    return SpectralField(grid, grid.points, coeffs)


def test_laplacian_is_eigenvalue_multiplier():
    grid = GridSpec(extents=(1.0, 0.6), points=(12, 10))
    s = mode_field(grid, {(0, 4, 3): 1.7})
    lam = (4 * np.pi / 1.0) ** 2 + (3 * np.pi / 0.6) ** 2
    out = operators.laplacian(s)
    assert out.coeffs[0, 4, 3] == pytest.approx(-lam * 1.7, rel=1e-14)
    assert np.count_nonzero(out.coeffs) == 1

    out2 = operators.bilaplacian(s)
    assert out2.coeffs[0, 4, 3] == pytest.approx(lam**2 * 1.7, rel=1e-14)


def test_gradient_matches_analytic():
    Lx, Ly = 1.0, 0.8
    grid = GridSpec(extents=(Lx, Ly), points=(16, 16))
    s = mode_field(grid, {(0, 2, 5): 0.9, (1, 3, 0): -0.4, (2, 0, 1): 1.1})
    J = operators.gradient(s)
    x = grid.axis_coords(0)[:, None]
    y = grid.axis_coords(1)[None, :]
    expected_dx = np.zeros((3, 16, 16))
    expected_dy = np.zeros((3, 16, 16))
    for (c, k, m), a in {(0, 2, 5): 0.9, (1, 3, 0): -0.4, (2, 0, 1): 1.1}.items():
        expected_dx[c] += a * dbasis(k, Lx, x) * basis(m, Ly, y)
        expected_dy[c] += a * basis(k, Lx, x) * dbasis(m, Ly, y)
    np.testing.assert_allclose(J.data[:, 0], expected_dx, atol=1e-12)
    np.testing.assert_allclose(J.data[:, 1], expected_dy, atol=1e-12)


def test_grad_laplacian_matches_analytic():
    L = 1.2
    grid = GridSpec(extents=(L,), points=(16,))
    k, a = 5, 0.7
    s = mode_field(grid, {(1, k): a})
    G = operators.grad_laplacian(s)
    lam = (k * np.pi / L) ** 2
    x = grid.axis_coords(0)
    np.testing.assert_allclose(G.data[1, 0], -lam * a * dbasis(k, L, x), atol=1e-11)


def test_cross_and_dot_pointwise():
    grid = GridSpec(extents=(1.0,), points=(8,))
    rng = np.random.default_rng(3)
    u = VectorField(grid, rng.standard_normal((3, 8)))
    v = VectorField(grid, rng.standard_normal((3, 8)))
    w = operators.cross(u, v)
    np.testing.assert_allclose(w.data, np.cross(u.data, v.data, axis=0), atol=0)
    np.testing.assert_allclose(
        operators.dot(u, v), (u.data * v.data).sum(axis=0), atol=0
    )
    # u x u = 0 and u . (u x v) = 0, the precession-neutrality kernel
    assert np.abs(operators.cross(u, u).data).max() == 0.0
    triple = operators.dot(u, operators.cross(u, v))
    assert np.abs(triple).max() < 1e-13, f"triple product {np.abs(triple).max()}"


def test_green_identity_no_boundary_term():
    # <Delta u, v> = -<grad u, grad v> exactly: the basis satisfies the
    # natural boundary condition, so integration by parts has no surplus.
    grid = GridSpec(extents=(1.0, 1.3), points=(12, 12))
    u = fields.random_field(grid, (12, 12), seed=4)
    v = fields.random_field(grid, (12, 12), seed=5)
    lap_u = operators.laplacian(u)
    lhs = float((lap_u.coeffs * v.coeffs).sum())
    Ju = operators.padded_jacobian(u)
    Jv = operators.padded_jacobian(v)
    rhs = -operators.grid_inner(Ju, Jv, grid, grid.padded(u.modes))
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs)), f"Green gap {lhs - rhs}"


def test_cubic_band_single_mode_closed_form():
    L, N, k, a = 1.4, 16, 2, 0.8
    grid = GridSpec(extents=(L,), points=(N,))
    s = mode_field(grid, {(0, k): a})
    c3 = operators.cubic_band(s)
    expected = np.zeros((3, N))
    expected[0, k] = a**3 * 3.0 / (2.0 * L)
    expected[0, 3 * k] = a**3 / (2.0 * L)
    np.testing.assert_allclose(c3.coeffs, expected, atol=1e-13)


def test_delta_cubic_single_mode_closed_form():
    L, N, k, a = 1.0, 16, 3, -0.6
    grid = GridSpec(extents=(L,), points=(N,))
    s = mode_field(grid, {(2, k): a})
    out = operators.delta_cubic_band(s)
    lam = lambda m: (m * np.pi / L) ** 2
    expected = np.zeros((3, N))
    expected[2, k] = -lam(k) * a**3 * 3.0 / (2.0 * L)
    expected[2, 3 * k] = -lam(3 * k) * a**3 / (2.0 * L)
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-10)


def test_nabla_cubic_single_mode_closed_form():
    L, N, k, a = 1.0, 24, 3, 0.9
    grid = GridSpec(extents=(L,), points=(N,))
    u = fields.inverse(mode_field(grid, {(1, k): a}))
    G = operators.nabla_cubic(u)
    x = grid.axis_coords(0)
    expected = a**3 * (
        3.0 / (2.0 * L) * dbasis(k, L, x) + 1.0 / (2.0 * L) * dbasis(3 * k, L, x)
    )
    np.testing.assert_allclose(G.data[1, 0], expected, atol=1e-11)
    assert np.abs(G.data[0]).max() == 0.0 and np.abs(G.data[2]).max() == 0.0


def test_delta_cubic_dual_routes_agree():
    # identity-form assembly (product rule, pointwise) against the direct
    # route -lambda * projection(|u|^2 u): distinct code paths, one answer
    for extents, points, band in [
        ((1.0,), (32,), (32,)),
        ((1.0, 0.9), (16, 12), (10, 8)),
    ]:
        grid = GridSpec(extents=extents, points=points)
        s = fields.random_field(grid, points, seed=6, decay=2.0)
        direct = operators.delta_cubic_band(s, band)
        c3 = operators.cubic_band(s, band)
        lam = fields.eigenvalue_array(grid, band)
        composed = -lam * c3.coeffs
        scale = np.abs(composed).max()
        gap = np.abs(direct.coeffs - composed).max()
        assert gap < 1e-11 * max(1.0, scale), f"route gap {gap} at band {band}"


def test_grid_inner_is_orthonormal_on_modes():
    grid = GridSpec(extents=(0.9,), points=(8,))
    x = grid.axis_coords(0)
    for j in range(8):
        for k in range(8):
            q = operators.grid_inner(
                basis(j, 0.9, x), basis(k, 0.9, x), grid, (8,)
            )
            want = 1.0 if j == k else 0.0
            assert abs(q - want) < 1e-13, f"<e{j},e{k}> = {q}"


def test_face_normal_derivative_vanishes_for_the_basis():
    # the defining property of the expansion: homogeneous Neumann data on
    # every face.  Low band on a fine probe grid keeps the one-sided
    # stencil's own truncation error below the certification level.
    grid = GridSpec(extents=(1.0,), points=(256,))
    s = fields.random_field(grid, (5,), seed=8, decay=2.0)
    vals = operators.padded_values(s, (256,))
    for side in (0, 1):
        g = operators.face_normal_derivative(vals, grid, axis=0, side=side)
        worst = np.abs(g).max()
        assert worst < 1e-9, f"side {side} normal derivative {worst}"


def test_face_normal_derivative_exact_on_polynomials():
    # degree-6-exact stencil: a linear ramp has derivative exactly 1 at
    # both faces (the probe reports the derivative along +axis)
    grid = GridSpec(extents=(2.0,), points=(32,))
    x = grid.axis_coords(0)
    ramp = np.broadcast_to(x, (3, 32)).copy()
    for side in (0, 1):
        g = operators.face_normal_derivative(ramp, grid, axis=0, side=side)
        np.testing.assert_allclose(g, 1.0, atol=1e-12)
