"""Differential operators and the cubic product-rule identities.

Single cosine modes have closed-form cubes:

    e_k^3 = (3/(2L)) e_k + (1/(2L)) e_{3k}   on [0, L],

which gives exact pen-and-paper references for the nonlinear routes; the
linear operators are compared against analytic derivatives of explicit
mode combinations.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from llbar import fields, galerkin, operators
from llbar.fields import GridSpec, SpectralField

import spectral_reference as ref


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


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer looks each (module, attribute path) of
    # perfbench/spans.py TARGETS up in the owner's __dict__; a deleted or
    # moved function breaks every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr_path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"llbar.{module}")
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"llbar.{module}.{attr_path} is gone"


def test_laplacian_is_eigenvalue_multiplier():
    grid = GridSpec(extents=(1.0, 0.6), points=(12, 10))
    s = mode_field(grid, {(0, 4, 3): 1.7})
    lam = (4 * np.pi / 1.0) ** 2 + (3 * np.pi / 0.6) ** 2
    out = operators.laplacian(s)
    assert out.coeffs[0, 4, 3] == pytest.approx(-lam * 1.7, rel=1e-14)
    assert np.count_nonzero(out.coeffs) == 1


def test_gradient_matches_analytic():
    Lx, Ly = 1.0, 0.8
    grid = GridSpec(extents=(Lx, Ly), points=(16, 16))
    s = mode_field(grid, {(0, 2, 5): 0.9, (1, 3, 0): -0.4, (2, 0, 1): 1.1})
    J = operators.padded_jacobian(s)
    x = ref.midpoints(Lx, 32)[:, None]
    y = ref.midpoints(Ly, 32)[None, :]
    expected_dx = np.zeros((3, 32, 32))
    expected_dy = np.zeros((3, 32, 32))
    for (c, k, m), a in {(0, 2, 5): 0.9, (1, 3, 0): -0.4, (2, 0, 1): 1.1}.items():
        expected_dx[c] += a * dbasis(k, Lx, x) * basis(m, Ly, y)
        expected_dy[c] += a * basis(k, Lx, x) * dbasis(m, Ly, y)
    np.testing.assert_allclose(J[:, 0], expected_dx, atol=1e-12)
    np.testing.assert_allclose(J[:, 1], expected_dy, atol=1e-12)


def test_grad_laplacian_matches_analytic():
    L = 1.2
    grid = GridSpec(extents=(L,), points=(16,))
    k, a = 5, 0.7
    s = mode_field(grid, {(1, k): a})
    G = operators.padded_grad_laplacian(s)
    lam = (k * np.pi / L) ** 2
    x = ref.midpoints(L, 32)
    np.testing.assert_allclose(G[1, 0], -lam * a * dbasis(k, L, x), atol=1e-11)


def test_green_identity_no_boundary_term():
    # <Delta u, v> = -<grad u, grad v> exactly: the basis satisfies the
    # natural boundary condition, so integration by parts has no surplus.
    grid = GridSpec(extents=(1.0, 1.3), points=(12, 12))
    u = fields.random_field(grid, (12, 12), seed=4)
    v = fields.random_field(grid, (12, 12), seed=5)
    lap_u = operators.laplacian(u)
    lhs = float((lap_u.coeffs * v.coeffs).sum())
    pad = grid.padded(u.modes)
    Ju = ref.jacobian(grid, u.coeffs, pad)
    Jv = ref.jacobian(grid, v.coeffs, pad)
    rhs = -ref.cell(grid, pad) * float((Ju * Jv).sum())
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
    # the product-rule form of Delta(|v|^2 v), projected by explicit
    # quadrature onto the band, against Delta of the closed-form cube
    L, N, k, a = 1.0, 16, 3, -0.6
    grid = GridSpec(extents=(L,), points=(N,))
    s = mode_field(grid, {(2, k): a})
    pad = grid.padded(s.modes)
    out = ref.project(grid, operators.cubic_laplacian_values(s), s.modes, pad)
    lam = lambda m: (m * np.pi / L) ** 2
    expected = np.zeros((3, N))
    expected[2, k] = -lam(k) * a**3 * 3.0 / (2.0 * L)
    expected[2, 3 * k] = -lam(3 * k) * a**3 / (2.0 * L)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_nabla_cubic_single_mode_closed_form():
    L, N, k, a = 1.0, 24, 3, 0.9
    grid = GridSpec(extents=(L,), points=(N,))
    s = mode_field(grid, {(1, k): a})
    G = operators.cubic_gradient_values(s)
    x = ref.midpoints(L, 2 * N)
    expected = a**3 * (
        3.0 / (2.0 * L) * dbasis(k, L, x) + 1.0 / (2.0 * L) * dbasis(3 * k, L, x)
    )
    np.testing.assert_allclose(G[1, 0], expected, atol=1e-11)
    assert np.abs(G[0]).max() == 0.0 and np.abs(G[2]).max() == 0.0


def test_delta_cubic_dual_routes_agree():
    # identity-form assembly (product rule, pointwise) against the direct
    # route -lambda * projection(|u|^2 u), truncated to a band: distinct
    # code paths, one answer
    for extents, points, band in [
        ((1.0,), (32,), (32,)),
        ((1.0, 0.9), (16, 12), (10, 8)),
    ]:
        grid = GridSpec(extents=extents, points=points)
        s = fields.random_field(grid, points, seed=6, decay=2.0)
        pad = grid.padded(s.modes)
        direct = ref.project(grid, operators.cubic_laplacian_values(s), band, pad)
        c3 = galerkin.project(operators.cubic_band(s), band)
        lam = fields.eigenvalue_array(grid, band)
        composed = -lam * c3.coeffs
        scale = np.abs(composed).max()
        gap = np.abs(direct - composed).max()
        assert gap < 1e-11 * max(1.0, scale), f"route gap {gap} at band {band}"


def test_synthesis_is_orthonormal_on_modes():
    # midpoint quadrature of synthesized unit modes is the identity matrix
    grid = GridSpec(extents=(0.9,), points=(8,))
    samples = [operators.padded_values(mode_field(grid, {(0, k): 1.0}))[0] for k in range(8)]
    gram = (0.9 / 16) * np.array([[float(a @ b) for b in samples] for a in samples])
    np.testing.assert_allclose(gram, np.eye(8), rtol=0.0, atol=1e-13)


def face_normal_derivative(samples, grid, side, stencil=7):
    """One-sided derivative along +x at a face of a 1-d box, from a
    ``stencil``-node difference exact to degree ``stencil - 1``, evaluated
    half a cell outside the first node."""
    h = grid.extents[0] / samples.shape[-1]
    t = np.arange(stencil) + 0.5
    # Vandermonde: sum_i w_i t_i^q = delta_{q,1}  (derivative at the face, t=0)
    w = np.linalg.solve(np.vander(t, N=stencil, increasing=True).T, np.eye(stencil)[1])
    picks = np.arange(stencil) if side == 0 else samples.shape[-1] - 1 - np.arange(stencil)
    return (1.0 if side == 0 else -1.0) / h * samples[..., picks] @ w


def test_face_normal_derivative_vanishes_for_the_basis():
    # the defining property of the expansion: homogeneous Neumann data on
    # every face.  Low band on a fine probe grid keeps the one-sided
    # stencil's own truncation error below the certification level.
    grid = GridSpec(extents=(1.0,), points=(256,))
    s = fields.random_field(grid, (5,), seed=8, decay=2.0)
    vals = fields.inverse(s).data
    ramp_grid = GridSpec(extents=(2.0,), points=(32,))
    for side in (0, 1):
        g = face_normal_derivative(vals, grid, side)
        worst = np.abs(g).max()
        assert worst < 1e-9, f"side {side} normal derivative {worst}"
        # the probe itself: a linear ramp has slope exactly 1 at both faces
        slope = face_normal_derivative(ref.midpoints(2.0, 32), ramp_grid, side)
        np.testing.assert_allclose(slope, 1.0, atol=1e-12)
