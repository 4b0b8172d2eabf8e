"""Parameter validation, the band projection and the Galerkin right-hand side.

The nonlinear terms are checked three ways: closed-form single-mode
references, a quadrature weak form obtained by integrating by parts, and
the split ``rhs = linear multiplier + remainder`` used by the stepper.
"""

from __future__ import annotations

import resource

import numpy as np
import pytest

from llbar import diagnostics, fields, galerkin, operators
from llbar.fields import GridSpec, SpectralField
from llbar.galerkin import LLBarParams

import spectral_reference as ref


PARAMS = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)


def test_beta_sign_rules():
    LLBarParams(-0.3, 0.1, 0.2, 0.0, 0.0)  # beta1 may be negative
    for bad in range(2, 6):
        kwargs = {f"beta{i}": 0.1 for i in range(1, 6)}
        kwargs[f"beta{bad}"] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            LLBarParams(**kwargs)
    with pytest.raises(ValueError, match="finite"):
        LLBarParams(float("nan"), 0.1, 0.1, 0.1, 0.1)


def test_derive_beta1_and_from_physical():
    lambda_r, lambda_e, chi, gamma = 0.6, 0.08, 0.5, 1.1
    b1 = galerkin.derive_beta1(lambda_r, lambda_e, chi)
    assert b1 == pytest.approx(0.6 - 0.08, abs=0)
    p = LLBarParams.from_physical(lambda_r, lambda_e, chi, gamma)
    assert p.beta1 == pytest.approx(b1, abs=0)
    assert p.beta2 == lambda_e
    assert p.beta3 == pytest.approx(lambda_r / (2 * chi), abs=0)
    assert p.beta4 == gamma
    assert p.beta5 == pytest.approx(lambda_e / (2 * chi), abs=0)
    with pytest.raises(ValueError, match="chi"):
        LLBarParams.from_physical(0.6, 0.08, 0.0, 1.1)


def test_physical_parameters_all_or_none_and_consistent():
    with pytest.raises(ValueError, match="all-or-none"):
        LLBarParams(0.1, 0.1, 0.1, 0.1, 0.1, lambda_r=0.6)
    good = LLBarParams.from_physical(0.6, 0.08, 0.5, 1.1)
    # explicitly re-stating the consistent betas is fine
    LLBarParams(
        good.beta1, good.beta2, good.beta3, good.beta4, good.beta5,
        lambda_r=0.6, lambda_e=0.08, chi=0.5, gamma=1.1,
    )
    with pytest.raises(ValueError, match="inconsistent"):
        LLBarParams(
            good.beta1 + 1e-6, good.beta2, good.beta3, good.beta4, good.beta5,
            lambda_r=0.6, lambda_e=0.08, chi=0.5, gamma=1.1,
        )


def test_mode_band_and_projection():
    grid = GridSpec(extents=(1.0, 1.0), points=(8, 8))
    s = fields.random_field(grid, (8, 8), seed=1)
    with pytest.raises(ValueError):
        galerkin.project(s, (4, 0))
    with pytest.raises(ValueError):
        galerkin.project(s, (4,))
    p = galerkin.project(s, (4, 3))
    assert p.modes == (4, 3)
    np.testing.assert_array_equal(p.coeffs, s.coeffs[:, :4, :3])
    # projecting up zero-fills
    back = galerkin.project(p, (8, 8))
    np.testing.assert_array_equal(back.coeffs[:, :4, :3], p.coeffs)
    assert np.all(back.coeffs[:, 4:, :] == 0.0)
    with pytest.raises(ValueError):
        galerkin.project(s, (16, 16))


def test_f4_constant_times_mode_closed_form():
    # the precession term f4 = u x Delta u, read from the remainder with
    # only beta4 on:  u = (a e_k, b e_0, 0)  gives  (0, 0, lambda_k a b e_0 e_k)
    L, N, k = 1.0, 16, 3
    a, b = 0.8, -0.5
    grid = GridSpec(extents=(L,), points=(N,))
    coeffs = np.zeros((3, N))
    coeffs[0, k] = a
    coeffs[1, 0] = b
    s = SpectralField(grid=grid, modes=(N,), coeffs=coeffs)
    out, _ = galerkin.nonlinear_term(s, LLBarParams(0.0, 0.0, 0.0, 1.0, 0.0))
    lam = (k * np.pi / L) ** 2
    expected = np.zeros((3, N))
    expected[2, k] = lam * a * b * np.sqrt(1.0 / L)
    np.testing.assert_allclose(-out.coeffs, expected, atol=1e-12)


def reference_terms(v):
    """Band projections of |v|^2 v, v x Delta v and Delta(|v|^2 v) (the last
    in its product-rule form), from explicit basis matrices."""
    grid, modes = v.grid, v.modes
    pad, origin = grid.padded(modes), (0,) * grid.dim
    lam = ref.lam_of(grid, modes)
    u, lap = ref.values(grid, v.coeffs, origin, pad), ref.values(grid, -lam * v.coeffs, origin, pad)
    ju = ref.jacobian(grid, v.coeffs, pad)
    pointwise = ((u * u).sum(axis=0) * u, np.cross(u, lap, axis=0), ref.cubic_laplacian(u, ju, lap))
    return tuple(ref.project(grid, w, modes, pad) for w in pointwise)


def test_f5_equals_f1_of_f3():
    # two independent routes to Delta(|v|^2 v) on the band: the remainder
    # with only beta5 on, which composes -lambda with the projected cube
    # f1 = f3, against the product-rule assembly f5 from explicit basis
    # matrices.  Exact because the 2x-padded quadrature keeps all cubic
    # aliases outside the retained band.
    for extents, points, band in [
        ((1.0,), (32,), (32,)),
        ((1.0, 0.8), (12, 12), (8, 6)),
    ]:
        grid = GridSpec(extents=extents, points=points)
        s = galerkin.project(
            fields.random_field(grid, points, seed=3, decay=2.0), band
        )
        _, _, direct = reference_terms(s)
        composed, _ = galerkin.nonlinear_term(s, LLBarParams(0.0, 0.0, 0.0, 0.0, 1.0))
        gap = np.abs(direct - composed.coeffs).max()
        scale = max(1.0, np.abs(direct).max())
        assert gap < 1e-11 * scale, f"Lap-cubic routes differ by {gap} at {band}"


def test_rhs_weak_form_by_parts():
    # <rhs(u), phi> must equal the integrated-by-parts weak form
    #   -b1 <grad u, grad phi> - b2 <Delta u, Delta phi>
    #   + b3 <(1-|u|^2) u, phi> - b4 <u x Delta u, phi>
    #   - b5 <grad(|u|^2 u), grad phi>
    # for every phi in the band; quadratures on the band's padded grid,
    # every sample from explicit basis matrices.
    grid = GridSpec(extents=(1.0, 1.1), points=(12, 12))
    band = (8, 8)
    u = galerkin.project(fields.random_field(grid, (12, 12), seed=4, decay=3.0), band)
    phi = galerkin.project(fields.random_field(grid, (12, 12), seed=5, decay=3.0), band)
    r = galerkin.rhs(u, PARAMS)
    lhs = float((r.coeffs * phi.coeffs).sum())

    pts = grid.padded(band)
    lam = ref.lam_of(grid, band)
    uv, pv = (ref.values(grid, f.coeffs, (0, 0), pts) for f in (u, phi))
    Ju, Jp = (ref.jacobian(grid, f.coeffs, pts) for f in (u, phi))
    lap_u, lap_p = (ref.values(grid, -lam * f.coeffs, (0, 0), pts) for f in (u, phi))
    cross = np.cross(uv, lap_u, axis=0)
    cubic_grad = ref.cubic_gradient(uv, Ju)

    def inner(a, b):
        return ref.cell(grid, pts) * float((a * b).sum())

    rhs_weak = (
        -PARAMS.beta1 * inner(Ju, Jp)
        - PARAMS.beta2 * inner(lap_u, lap_p)
        + PARAMS.beta3 * (inner(uv, pv) - inner((uv**2).sum(axis=0) * uv, pv))
        - PARAMS.beta4 * inner(cross, pv)
        - PARAMS.beta5 * inner(cubic_grad, Jp)
    )
    assert abs(lhs - rhs_weak) < 1e-10 * max(1.0, abs(lhs)), (
        f"weak-form residual {lhs - rhs_weak}"
    )


def test_rhs_splits_into_linear_and_remainder():
    # rhs(v) = m(k) v + N(v); the remainder N, one shared padded pass,
    # must match its assembly from the cubic, precession and Lap-cubic
    # projections, each formed from explicit basis matrices
    grid = GridSpec(extents=(1.0,), points=(32,))
    band = (20,)
    v = galerkin.project(fields.random_field(grid, (32,), seed=6, decay=2.0), band)
    remainder, linf = galerkin.nonlinear_term(v, PARAMS)
    cubic, precession, delta_cubic = reference_terms(v)
    assembled = (
        PARAMS.beta3 * (v.coeffs - cubic)
        - PARAMS.beta4 * precession
        + PARAMS.beta5 * delta_cubic
    )
    gap = np.abs(remainder.coeffs - assembled).max()
    assert gap < 1e-11 * max(1.0, np.abs(assembled).max()), f"split gap {gap}"
    # reported sup norm matches the padded-grid evaluation
    mag = np.sqrt((operators.padded_values(v) ** 2).sum(axis=0)).max()
    assert linf == pytest.approx(mag, rel=1e-13)


def test_rhs_zero_on_unit_constant():
    # |u| = 1 constant: every term of the flow vanishes identically
    grid = GridSpec(extents=(1.0, 1.0), points=(8, 8))
    coeffs = np.zeros((3, 8, 8))
    coeffs[0, 0, 0] = 1.0  # e_0 x e_0 has value 1 on the unit box
    s = SpectralField(grid=grid, modes=(8, 8), coeffs=coeffs)
    r = galerkin.rhs(s, PARAMS)
    assert np.abs(r.coeffs).max() < 1e-14, (
        f"equilibrium residual {np.abs(r.coeffs).max()}"
    )


def test_nonlinear_term_reuses_its_buffers():
    # fresh padded-grid arrays cost first-touch page faults (hundreds per
    # call here); the remainder is evaluated in a cached work set
    grid = GridSpec(extents=(1.0, 0.8, 1.2), points=(16, 16, 16))
    s = fields.random_field(grid, (8, 8, 8), seed=1, decay=4.0, amplitude=0.8)
    galerkin.nonlinear_term(s, PARAMS)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        galerkin.nonlinear_term(s, PARAMS)
    per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
    assert per_call < 100, f"{per_call} minor page faults per nonlinear_term call"


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize(
    "extents, points, modes",
    [((1.3,), (16,), (8,)), ((1.0, 0.8), (16, 16), (8, 8)), ((1.0, 0.8, 1.2), (8, 8, 8), (4, 4, 4))],
)
def test_stacked_fields_give_the_per_field_bits(extents, points, modes, n):
    # an (n, 3, *modes) stack runs through the same passes as one field:
    # each field of the stacked nonlinear_term and rhs has the bits of its
    # own call, the sup is the largest, and nothing returned points into
    # the stack's work set
    grid = GridSpec(extents=extents, points=points)
    draws = [fields.random_field(grid, modes, seed=4, index=i, decay=2.0) for i in range(n)]
    singles, kept = [], []
    for u in draws:
        singles.append(galerkin.nonlinear_term(u, PARAMS))
        kept.append(singles[-1][0].coeffs.copy())
    stack = SpectralField(grid, modes, np.stack([u.coeffs for u in draws]))
    remainder, linf = galerkin.nonlinear_term(stack, PARAMS)
    full = galerkin.rhs(stack, PARAMS)
    assert remainder.coeffs.shape == full.coeffs.shape == (n, 3) + modes
    assert linf == max(sup for _, sup in singles)
    for i, u in enumerate(draws):
        assert remainder.coeffs[i].tobytes() == kept[i].tobytes()
        assert full.coeffs[i].tobytes() == galerkin.rhs(u, PARAMS).coeffs.tobytes()
    stacked_work, synthesis, column, nodes = fields._padded_work(grid.dealias_pad, modes, (n,))
    for buffer in (stacked_work, *synthesis, *column, nodes):
        assert not np.shares_memory(remainder.coeffs, buffer)
        assert not np.shares_memory(full.coeffs, buffer)
    # the single-field results held across the stacked calls are unchanged,
    # and a single field still gets a (3, *modes) result with the same bits
    again, sup = galerkin.nonlinear_term(draws[0], PARAMS)
    assert again.coeffs.shape == (3,) + modes and sup == singles[0][1]
    assert again.coeffs.tobytes() == kept[0].tobytes()
    for (held, _), want in zip(singles, kept):
        assert held.coeffs.tobytes() == want.tobytes()


def test_a_stack_has_one_leading_axis():
    grid = GridSpec(extents=(1.0, 0.8), points=(8, 8))
    SpectralField(grid, (4, 4), np.zeros((5, 3, 4, 4)))
    for shape in ((2, 2, 3, 4, 4), (4, 4), (5, 2, 4, 4), (3, 4, 3)):
        with pytest.raises(ValueError, match="coeffs shape"):
            SpectralField(grid, (4, 4), np.zeros(shape))


@pytest.mark.parametrize(
    "extents, points, modes",
    [
        ((1.0, 0.8, 1.2), (16, 16, 16), (8, 8, 8)),
        ((1.0, 0.7), (24, 150), (12, 150)),  # a 300-point padded pocketfft axis
    ],
)
def test_nonlinear_term_results_do_not_alias_the_work_set(extents, points, modes):
    # nonlinear_term and norms share one work set per band; what either
    # returns must survive later calls on other fields
    grid = GridSpec(extents=extents, points=points)
    a = fields.random_field(grid, modes, seed=2, decay=4.0, amplitude=0.8)
    b = fields.random_field(grid, modes, seed=3, decay=4.0, amplitude=0.8)
    na, linf_a = galerkin.nonlinear_term(a, PARAMS)
    kept = na.coeffs.copy()
    diagnostics.norms(b)
    nb, _ = galerkin.nonlinear_term(b, PARAMS)
    diagnostics.norms(a)
    assert np.array_equal(na.coeffs, kept)
    assert not np.array_equal(nb.coeffs, kept)
    stack, synthesis, column, nodes = fields._padded_work(grid.dealias_pad, modes, ())
    for buffer in (stack, *synthesis, *column, nodes):
        assert not np.shares_memory(na.coeffs, buffer)
    fields._padded_work.cache_clear()
    fresh, linf_fresh = galerkin.nonlinear_term(a, PARAMS)
    assert fresh.coeffs.tobytes() == kept.tobytes()
    assert linf_fresh == linf_a


def test_work_sets_are_kept_per_band():
    # a work set depends on the band's padded grid only, so boxes of other
    # extents share it, and converge's three bands (8, 16, 32) stay cached
    # together: a second pass over them builds no new set
    fields._padded_work.cache_clear()
    for extents in ((1.0,), (1.7,)):
        for M in (8, 16, 32, 8, 16, 32):
            u = fields.random_field(GridSpec(extents, (32,)), (M,), seed=M)
            galerkin.nonlinear_term(u, PARAMS)
            diagnostics.norms(u)
    assert fields._padded_work.cache_info().misses == 3


@pytest.mark.parametrize(
    "extents, points, modes",
    [
        ((1.3,), (16,), (7,)),
        ((1.0,), (8,), (1,)),
        ((1.0, 0.8), (12, 10), (5, 8)),
        ((1.0, 0.8, 1.2), (10, 8, 9), (5, 1, 4)),
    ],
)
def test_band_sized_padding_is_exact(extents, points, modes):
    # an M-mode band has degree M - 1, so its quartic integrands and the
    # projections of its cubic products have degree <= 4(M - 1), which
    # midpoint quadrature on the band's 2M points integrates exactly:
    # the same readings on 2N points (N > M) may differ only by rounding
    grid = GridSpec(extents=extents, points=points)
    s = fields.random_field(grid, modes, seed=13, decay=2.0, amplitude=0.9)
    fine = tuple(2 * N for N in points)
    vol = ref.cell(grid, fine)
    lam = s.eigenvalues
    zero = (0,) * grid.dim

    u = ref.values(grid, s.coeffs, zero, fine)
    lap = ref.values(grid, -lam * s.coeffs, zero, fine)
    jac = ref.jacobian(grid, s.coeffs, fine)
    mag2 = (u**2).sum(axis=0)
    expected = dict(
        L2=(mag2.sum() * vol) ** 0.5,
        L4=((mag2**2).sum() * vol) ** 0.25,
        gradL2=((jac**2).sum() * vol) ** 0.5,
        deltaL2=((lap**2).sum() * vol) ** 0.5,
        gradDeltaL2=((ref.jacobian(grid, -lam * s.coeffs, fine) ** 2).sum() * vol) ** 0.5,
        delta2L2=((ref.values(grid, lam**2 * s.coeffs, zero, fine) ** 2).sum() * vol) ** 0.5,
        gradDelta2L2=((ref.jacobian(grid, lam**2 * s.coeffs, fine) ** 2).sum() * vol) ** 0.5,
        uDotGradU=((np.einsum("c...,cj...->j...", u, jac) ** 2).sum() * vol) ** 0.5,
        absUabsGradU=((mag2 * (jac**2).sum(axis=(0, 1))).sum() * vol) ** 0.5,
        uDotDeltaU=(((u * lap).sum(axis=0) ** 2).sum() * vol) ** 0.5,
        absUabsDeltaU=((mag2 * (lap**2).sum(axis=0)).sum() * vol) ** 0.5,
    )
    suite = diagnostics.norms(s)
    for name, value in expected.items():
        assert getattr(suite, name) == pytest.approx(value, rel=1e-13, abs=0.0), name

    products = np.concatenate([mag2 * u, np.cross(u, lap, axis=0)])
    c3, c4 = np.split(
        fields._transform_series(products, extents, ("cos",) * grid.dim, modes), 2
    )
    want = PARAMS.beta3 * (s.coeffs - c3) - PARAMS.beta4 * c4 - PARAMS.beta5 * lam * c3
    got, _ = galerkin.nonlinear_term(s, PARAMS)
    scale = np.abs(want).max()
    assert np.abs(got.coeffs - want).max() <= 1e-13 * scale
