"""Transforms, bases and snapshot files.

The reference values here are analytic: single cosine modes evaluated
from the closed-form basis functions, so every transform property is
checked against pen-and-paper numbers rather than against the code
itself.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llbar import fields, galerkin
from llbar.fields import GridSpec, SpectralField, VectorField

from spectral_reference import midpoints


def basis_1d(k: int, L: float, x: np.ndarray) -> np.ndarray:
    """Orthonormal Neumann cosine e_k on [0, L]."""
    if k == 0:
        return np.full_like(x, np.sqrt(1.0 / L))
    return np.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)


def single_mode(grid: GridSpec, mode: tuple[int, ...], component: int = 0) -> SpectralField:
    coeffs = np.zeros((3,) + grid.points)
    coeffs[(component, *mode)] = 1.0
    return SpectralField(grid, grid.points, coeffs)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0, 1.0, 1.0, 1.0), points=(8, 8, 8, 8))
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0, 2.0), points=(8,))
    with pytest.raises(ValueError):
        GridSpec(extents=(-1.0,), points=(8,))
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0,), points=(3,))
    with pytest.raises(ValueError):
        GridSpec(extents=(1.0,), points=(8,), dealias_pad=0)
    g = GridSpec(extents=(1.0, 0.5), points=(8, 16))
    assert g.dim == 2
    assert g.padded((8, 16)) == (16, 32)
    assert g.padded((3, 5)) == (6, 10)


def test_single_mode_evaluates_to_basis_function():
    # d=2, anisotropic box: coefficients are w.r.t. the orthonormal basis,
    # so a unit coefficient must reproduce e_{k1}(x) e_{k2}(y) exactly.
    grid = GridSpec(extents=(1.0, 0.7), points=(12, 10))
    x = midpoints(1.0, 12)
    y = midpoints(0.7, 10)
    for mode in [(0, 0), (3, 0), (0, 4), (5, 2)]:
        s = single_mode(grid, mode, component=1)
        vals = fields.inverse(s).data
        expected = np.outer(
            basis_1d(mode[0], 1.0, x), basis_1d(mode[1], 0.7, y)
        )
        np.testing.assert_allclose(vals[1], expected, atol=1e-13)
        assert np.all(vals[0] == 0.0) and np.all(vals[2] == 0.0)


def test_forward_inverse_roundtrip_all_dims():
    for extents, points in [
        ((2.0,), (16,)),
        ((1.0, 0.8), (12, 8)),
        ((1.0, 0.8, 1.3), (8, 6, 10)),
    ]:
        grid = GridSpec(extents=extents, points=points)
        rng = np.random.default_rng(11)
        u = VectorField(grid, rng.standard_normal((3,) + points))
        back = fields.inverse(fields.forward(u))
        err = np.abs(back.data - u.data).max()
        assert err < 1e-12, f"roundtrip error {err} on {points}"


def test_parseval_identity():
    grid = GridSpec(extents=(1.0, 1.4), points=(16, 12))
    s = fields.random_field(grid, (16, 12), seed=5)
    u = fields.inverse(s)
    quad = (u.data**2).sum() * np.prod(np.divide(grid.extents, grid.points))
    coef = (s.coeffs**2).sum()
    assert abs(quad - coef) < 1e-12 * coef, f"Parseval gap {abs(quad - coef)}"


def test_eigenvalue_array():
    grid = GridSpec(extents=(1.0, 2.0), points=(8, 8))
    lam = fields.eigenvalue_array(grid, (4, 4))
    assert lam.shape == (4, 4)
    assert lam[0, 0] == 0.0
    assert lam[3, 2] == pytest.approx((3 * np.pi) ** 2 + (2 * np.pi / 2.0) ** 2)


def test_derivative_multiplier_matches_analytic():
    # d/dx of e_k is -(k pi / L) sqrt(2/L) sin(k pi x / L): sine parity,
    # stored at DST index k-1.
    L, N, k = 1.3, 16, 4
    grid = GridSpec(extents=(L,), points=(N,))
    s = single_mode(grid, (k,))
    dc, parities = fields._derivative_multiplier(s.coeffs, grid.extents, (1,))
    assert parities == ("sin",)
    vals = fields._eval_series(dc, grid.extents, parities, (N,))
    x = midpoints(L, N)
    expected = -(k * np.pi / L) * np.sqrt(2.0 / L) * np.sin(k * np.pi * x / L)
    np.testing.assert_allclose(vals[0], expected, atol=1e-12)

    # second derivative stays cosine with multiplier -lambda
    dc2, parities2 = fields._derivative_multiplier(s.coeffs, grid.extents, (2,))
    assert parities2 == ("cos",)
    vals2 = fields._eval_series(dc2, grid.extents, parities2, (N,))
    expected2 = -((k * np.pi / L) ** 2) * np.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
    np.testing.assert_allclose(vals2[0], expected2, atol=1e-11)


def test_derivative_multiplier_is_the_per_axis_product():
    # the cached factors give the bits of multiplying axis by axis, in a fresh array
    grid = GridSpec(extents=(1.0, 0.8, 1.2), points=(8, 8, 8))
    coeffs = fields.random_field(grid, (5, 4, 3), seed=4).coeffs[None].repeat(2, axis=0)
    for orders in ((0, 0, 0), (1, 0, 2), (3, 1, 0), (2, 2, 1)):
        want = coeffs.copy()
        for j, (m, L) in enumerate(zip(orders, grid.extents)):
            if m:
                factor = (1.0, -1.0, -1.0, 1.0)[m % 4] * (np.arange(coeffs.shape[2 + j]) * np.pi / L) ** m
                want = want * factor.reshape((-1,) + (1,) * (2 - j))
        got, parities = fields._derivative_multiplier(coeffs, grid.extents, orders)
        assert parities == tuple("sin" if m % 2 else "cos" for m in orders)
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, coeffs)
        got[...] = 0.0  # the caller owns the result: the next call is unaffected
        np.testing.assert_array_equal(fields._derivative_multiplier(coeffs, grid.extents, orders)[0], want)


def test_padded_evaluation_is_same_function():
    # Zero-padding the coefficients evaluates the same continuum field on
    # the finer midpoint grid; check against the explicit basis sum.
    grid = GridSpec(extents=(1.0,), points=(8,))
    s = fields.random_field(grid, (8,), seed=2)
    fine = fields._eval_series(s.coeffs, grid.extents, ("cos",), (24,))
    xf = midpoints(1.0, 24)
    expected = np.zeros((3, 24))
    for k in range(8):
        expected += s.coeffs[:, k, None] * basis_1d(k, 1.0, xf)[None]
    np.testing.assert_allclose(fine, expected, atol=1e-12)


def test_pad_to_band_preserves_coefficients():
    # galerkin.project zero-fills into a larger band and truncates into a smaller one
    grid = GridSpec(extents=(1.0, 1.0), points=(12, 12))
    s = fields.random_field(grid, (6, 5), seed=9)
    padded = galerkin.project(s, (12, 12))
    assert padded.modes == (12, 12)
    np.testing.assert_array_equal(padded.coeffs[:, :6, :5], s.coeffs)
    assert np.all(padded.coeffs[:, 6:, :] == 0.0)
    assert np.all(padded.coeffs[:, :, 5:] == 0.0)
    smaller = galerkin.project(s, (4, 4))
    assert smaller.modes == (4, 4)
    np.testing.assert_array_equal(smaller.coeffs, s.coeffs[:, :4, :4])


def test_random_field_counter_rng():
    grid = GridSpec(extents=(1.0,), points=(16,))
    a = fields.random_field(grid, (16,), seed=7, index=3)
    b = fields.random_field(grid, (16,), seed=7, index=3)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = fields.random_field(grid, (16,), seed=7, index=4)
    assert np.any(c.coeffs != a.coeffs)
    d = fields.random_field(grid, (16,), seed=8, index=3)
    assert np.any(d.coeffs != a.coeffs)


def test_random_field_streams_are_fresh_philox_streams():
    # the shared, re-keyed generator draws what a fresh Philox keyed by
    # (seed, index) draws, each masked to 64 bits, whatever came before
    grid = GridSpec(extents=(1.0, 0.8), points=(8, 8))
    for seed, index in ((7, 3), (0, 0), (2**63 + 5, 1), (2**64 - 1, 9), (-3, 2), (11, -1)):
        key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key)).standard_normal((3, 5, 4))
        got = fields.random_field(grid, (5, 4), seed=seed, index=index).coeffs
        np.testing.assert_array_equal(got, fresh)


@pytest.mark.parametrize("decay", [0.0, 4.0])
def test_ensemble_blocks_hold_the_random_field_bits(decay):
    # the ensembles draw a block straight into one stack; each row is the
    # random_field draw of its index, bit for bit
    grid = GridSpec(extents=(1.0, 0.8), points=(8, 8))
    block = fields._draws(grid, (5, 4), 7, range(3, 9), decay)
    assert block.shape == (6, 3, 5, 4)
    for row, index in zip(block, range(3, 9)):
        want = fields.random_field(grid, (5, 4), seed=7, index=index, decay=decay).coeffs
        assert row.tobytes() == want.tobytes()


def test_random_field_decay_law():
    # decay p rescales the flat draw by (1 + lambda)^(-p/2), same stream
    grid = GridSpec(extents=(1.0,), points=(16,))
    flat = fields.random_field(grid, (16,), seed=1, decay=0.0)
    shaped = fields.random_field(grid, (16,), seed=1, decay=4.0)
    lam = fields.eigenvalue_array(grid, (16,))
    np.testing.assert_allclose(
        shaped.coeffs, flat.coeffs * (1.0 + lam) ** -2.0, rtol=1e-15
    )
    amp = fields.random_field(grid, (16,), seed=1, decay=4.0, amplitude=2.5)
    np.testing.assert_allclose(amp.coeffs, 2.5 * shaped.coeffs, rtol=1e-15)


def test_snapshot_roundtrip_is_byte_identical(tmp_path):
    grid = GridSpec(extents=(1.0, 0.75), points=(8, 6))
    u = fields.inverse(fields.random_field(grid, (8, 6), seed=13))
    p1 = tmp_path / "a.snap"
    p2 = tmp_path / "b.snap"
    fields.write_snapshot(p1, u)
    v = fields.read_snapshot(p1)
    assert v.grid.points == grid.points
    np.testing.assert_array_equal(v.data, u.data)
    fields.write_snapshot(p2, v)
    assert p1.read_bytes() == p2.read_bytes(), "write-read-write changed bytes"


@pytest.mark.parametrize("points", [(8,), (8, 6), (4, 6, 5)])
def test_snapshot_bytes_follow_the_file_format(tmp_path, points):
    extents = (1.0, 0.75, 1.25)[: len(points)]
    grid = GridSpec(extents=extents, points=points)
    u = fields.inverse(fields.random_field(grid, points, seed=5))
    path = tmp_path / "x.snap"
    fields.write_snapshot(path, u)
    dim = len(points)
    header = b"LLBR" + struct.pack(f"<II{dim}I{dim}d", 1, dim, *points, *extents)
    body = np.ascontiguousarray(np.moveaxis(u.data, 0, -1), dtype="<f8").tobytes()
    assert path.read_bytes() == header + body


def test_snapshot_rejects_corruption(tmp_path):
    grid = GridSpec(extents=(1.0,), points=(8,))
    u = fields.inverse(fields.random_field(grid, (8,), seed=0))
    path = tmp_path / "x.snap"
    fields.write_snapshot(path, u)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.snap"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(fields.SnapshotError):
        fields.read_snapshot(bad_magic)

    truncated = tmp_path / "short.snap"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(fields.SnapshotError):
        fields.read_snapshot(truncated)


@pytest.mark.parametrize("points", [(8,), (8, 6), (4, 6, 5)])
def test_snapshot_rejects_every_truncated_header(tmp_path, points):
    # every prefix of the header, and the header without its samples
    grid = GridSpec(extents=(1.0, 0.75, 1.25)[: len(points)], points=points)
    path = tmp_path / "x.snap"
    fields.write_snapshot(path, fields.inverse(fields.random_field(grid, points, seed=5)))
    raw = path.read_bytes()
    cut = tmp_path / "cut.snap"
    for n in range(12 + 12 * len(points) + 1):
        cut.write_bytes(raw[:n])
        with pytest.raises(fields.SnapshotError):
            fields.read_snapshot(cut)


@pytest.mark.parametrize(
    "extents, modes, points",
    [
        ((1.0,), (20,), (64,)),  # 1-d, below the length rule
        ((1.3,), (200,), (600,)),  # 1-d, above it
        ((1.0, 0.7), (16, 16), (16, 16)),  # 2-d, unpadded
        ((1.0, 0.7), (12, 90), (24, 300)),  # 2-d, one axis on each side
        ((1.0, 0.8, 1.2), (6, 9, 7), (16, 18, 14)),  # 3-d, modes < points
    ],
)
def test_matrix_and_pocketfft_paths_agree(monkeypatch, extents, modes, points):
    # the dense-matrix route and the pocketfft route compute one linear
    # map for either parity; force every axis onto each route in turn,
    # for every cosine/sine assignment of the axes
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((3,) + modes)
    values = rng.standard_normal((3,) + points)
    rule = fields._MATRIX_MAX_POINTS
    for parities in itertools.product(("cos", "sin"), repeat=len(extents)):

        def transforms():
            synthesis = fields._eval_series(coeffs, extents, parities, points)
            # the same passes written into a work pair give the same bytes
            work = fields._series_work(3, modes, points)
            reused = fields._eval_series(coeffs, extents, parities, points, work)
            assert np.array_equal(reused, synthesis), parities
            analysis = fields._transform_series(values, extents, parities, modes)
            reused = fields._transform_series(values, extents, parities, modes, work)
            assert reused.tobytes() == analysis.tobytes(), parities
            return synthesis, analysis

        default = transforms()
        monkeypatch.setattr(fields, "_MATRIX_MAX_POINTS", 0)
        pocketfft = transforms()
        monkeypatch.setattr(fields, "_MATRIX_MAX_POINTS", 10**6)
        matrix = transforms()
        monkeypatch.setattr(fields, "_MATRIX_MAX_POINTS", rule)
        for ref, got_matrix, got_default in zip(pocketfft, matrix, default):
            scale = np.abs(ref).max()
            assert np.abs(got_matrix - ref).max() <= 1e-13 * scale, parities
            assert np.abs(got_default - ref).max() <= 1e-13 * scale, parities
        # the length rule routes whole grids as documented
        if max(points) <= rule:
            assert all(np.array_equal(a, b) for a, b in zip(default, matrix))
        if min(points) > rule:
            assert all(np.array_equal(a, b) for a, b in zip(default, pocketfft))
        # sine axes carry no k=0 coefficient
        analysis = default[1]
        for j, parity in enumerate(parities):
            if parity == "sin":
                assert np.all(np.take(analysis, 0, axis=1 + j) == 0.0), parities


@pytest.mark.parametrize("P", [4, 5, 7, 16, 17, 64, 256])
def test_axis_matrices_match_scipy(P):
    # the numpy-built matrices are scipy's orthonormal DCT-II / DST-II of
    # the identity, sine frequency k in DST row k-1, with the basis scales
    from scipy import fft as sfft

    L = 1.3
    eye = np.eye(P)
    dct = sfft.dct(eye, type=2, norm="ortho", axis=0)
    dst = np.vstack([np.zeros((1, P)), sfft.dst(eye, type=2, norm="ortho", axis=0)])
    for M in sorted({1, 2, P // 2, P}):
        for parity, ref in (("cos", dct[:M]), ("sin", dst[:M])):
            synthesis, analysis = fields._axis_matrices(parity, M, P, L)
            for got, want in ((synthesis, ref.T * np.sqrt(P / L)), (analysis, ref * np.sqrt(L / P))):
                scale = max(np.abs(want).max(), np.abs(got).max())
                assert np.abs(got - want).max() <= 1e-15 * scale, (parity, M)
    _, cos_rows = fields._axis_matrices("cos", P, P, L)
    _, sin_rows = fields._axis_matrices("sin", P, P, L)
    assert np.all(sin_rows[0] == 0.0)
    # mirrored midpoints give exactly negated entries in odd rows, so
    # those rows sum to exactly zero, as do all rows k >= 1 when P is a
    # power of two; for odd P an even row sums to zero only in exact
    # arithmetic (P = 5, k = 2: 2 cos 36 - 2 cos 72 - 1)
    for k in range(1, P):
        row_sum = math.fsum(cos_rows[k])
        if k % 2 or P & (P - 1) == 0:
            assert row_sum == 0.0, k
        else:
            assert abs(row_sum) <= 4e-16, k


def test_matrix_passes_multiply_contiguous_read_only_matrices(monkeypatch):
    # every matrix pass is a stack of GEMMs on contiguous operands: a
    # leading-axis pass multiplies slabs on the left by the cached matrix,
    # and a last-axis pass multiplies rows on the right by the cached
    # C-contiguous transpose, never by a transposed view
    matmul, seen = np.matmul, []

    def spy(a, b, *args, **kwargs):
        seen.append((a, b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(3)
    for extents, modes, points, lead in [
        ((1.3,), (20,), (64,), (3,)),
        ((1.0, 0.8), (32, 32), (64, 64), (6,)),
        ((1.0, 0.8, 1.2), (8, 8, 8), (16, 16, 16), (3,)),
        ((1.0, 0.8, 1.2), (5, 8, 7), (10, 16, 14), (2, 3)),
    ]:
        for parities in itertools.product(("cos", "sin"), repeat=len(extents)):
            coeffs = rng.standard_normal(lead + modes)
            work = fields._series_work(math.prod(lead), modes, points)
            for w in (None, work):
                values = fields._eval_series(coeffs, extents, parities, points, w).copy()
                fields._transform_series(values, extents, parities, modes, w)
    right = [b for a, b in seen if b.ndim == 2]  # rows @ transpose
    left = [a for a, b in seen if b.ndim == 3]  # matrix @ slabs
    assert right and left and len(right) + len(left) == len(seen)
    for matrix in right + left:
        assert matrix.ndim == 2 and matrix.flags["C_CONTIGUOUS"]
        assert not matrix.flags["WRITEABLE"]


def test_padded_work_starts_on_pages():
    # every padded-grid work buffer starts a 4 KiB page, so rows of equal
    # index in different buffers share their page offset (no 4K aliasing
    # between the read and written rows of the pointwise passes)
    grid = GridSpec(extents=(1.0, 0.8), points=(32, 32))
    stack, synthesis, column, nodes = fields._padded_work(grid.dealias_pad, (20, 32), ())
    for buffer in (stack, *synthesis, *column, nodes):
        assert buffer.ctypes.data % 4096 == 0
        assert buffer.flags["C_CONTIGUOUS"]
    assert nodes.shape == (8, 40 * 64)
    assert stack.shape == (6, 20, 32)


def test_padded_work_is_sized_by_the_band():
    # products of an 8^3 band are exact on its own 16^3 padded grid, so
    # the work set of a 16^3 grid holds 16^3 nodes per vector, not 32^3
    grid = GridSpec(extents=(1.0, 0.8, 1.2), points=(16, 16, 16))
    stack, synthesis, column, nodes = fields._padded_work(grid.dealias_pad, (8, 8, 8), ())
    assert nodes.shape == (8, 16**3)
    assert max(buffer.size for buffer in (*synthesis, *column)) == 6 * 16**3


_THREAD_PROBE = """
import hashlib
from llbar import diagnostics, fields, stepping
from llbar.fields import GridSpec
from llbar.galerkin import LLBarParams
from llbar.stepping import IntegratorPolicy

params = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)
digest = hashlib.sha256()
cases = [
    ((1.0, 0.8), (24, 160), (12, 160), 10),  # axis 1 pads past the rule
    ((1.0, 0.8, 1.2), (16, 16, 16), (16, 16, 16), 4),
    ((1.0, 0.8, 1.2), (32, 32, 32), (16, 16, 16), 2),
]
for extents, points, modes, steps in cases:
    grid = GridSpec(extents, points)
    u0 = fields.random_field(grid, modes, seed=11, decay=4.0, amplitude=0.8)
    policy = IntegratorPolicy(dt=1e-5, t_end=steps * 1e-5)
    traj = stepping.integrate(u0, params, policy, cadence=steps)
    assert not traj.aborted
    digest.update(traj.terminal.coeffs.tobytes())
    # the norm suite runs sine-parity (derivative) axes as well
    digest.update(repr(diagnostics.norms(traj.terminal)).encode())
print(digest.hexdigest())
"""


def test_results_independent_of_thread_counts():
    # the README promises bitwise-identical results for any BLAS thread
    # count, which governs the matrix products; OpenBLAS reads its count
    # once, when it loads, so each setting runs in its own interpreter
    src = str(Path(fields.__file__).resolve().parents[1])
    digests = {}
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests[blas] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
