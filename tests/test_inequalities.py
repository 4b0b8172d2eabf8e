"""Inequality ensembles: exact exponents, constant-1 families, reports.

The Gagliardo--Nirenberg exponents are frozen as exact rationals computed
by hand from theta = (2q(s2-r) - d(q-2)) / (2q(s2-s1)); the ensemble
checks then confirm the empirical quotients stay finite and the
constant-1 families never exceed 1.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from llbar import fields, inequalities
from llbar.fields import GridSpec
from llbar.inequalities import Catalogue, SampleSpec

import spectral_reference as ref


def spec_for(band, seed=3, count=8, **kw):
    return SampleSpec(seed=seed, count=count, modes=band, **kw)


def test_gn_theta_reproduces_the_seven_exponents():
    # (d, q, r, s1, s2) -> theta, worked out by hand from the formula
    table = [
        ((1, 4.0, 1, 0, 3), Fraction(7, 12)),
        ((1, 4.0, 1, 1, 2), Fraction(3, 4)),
        ((2, 4.0, 0, 0, 1), Fraction(1, 2)),
        ((2, math.inf, 0, 0, 2), Fraction(1, 2)),
        ((3, 4.0, 0, 0, 1), Fraction(1, 4)),
        ((3, 4.0, 0, 0, 2), Fraction(5, 8)),
        ((3, math.inf, 0, 1, 2), Fraction(1, 2)),
    ]
    for args, expected in table:
        got = inequalities.gn_theta(*args)
        assert got == expected, f"theta{args} = {got}, expected {expected}"
        assert isinstance(got, Fraction)


def test_gn_theta_rejects_inadmissible_tuples():
    with pytest.raises(ValueError, match="dimension"):
        inequalities.gn_theta(4, 4.0, 0, 0, 1)
    with pytest.raises(ValueError, match="q > 2"):
        inequalities.gn_theta(1, 2.0, 0, 0, 1)
    with pytest.raises(ValueError, match="s2 > s1"):
        inequalities.gn_theta(1, 4.0, 0, 1, 1)
    with pytest.raises(ValueError, match="integer"):
        inequalities.gn_theta(1, 4.0, 0, 0.5, 1)
    # r too high: theta would be negative
    with pytest.raises(ValueError, match="<= 0"):
        inequalities.gn_theta(1, 4.0, 3, 0, 3)
    # s1 alone already controls the target norm: theta would exceed 1
    with pytest.raises(ValueError, match="> 1"):
        inequalities.gn_theta(1, 4.0, 0, 2, 3)


def test_sample_spec_validation():
    band = (6,)
    with pytest.raises(ValueError, match="count"):
        SampleSpec(seed=0, count=0, modes=band)
    # a witness index reproduces the catalogue's draw: the flat law keyed by (seed, index)
    grid, spec = GridSpec(extents=(1.0,), points=(8,)), SampleSpec(seed=3, count=4, modes=band)
    drawn = fields.random_field(grid, spec.modes, seed=spec.seed, index=5)
    block = fields._draws(grid, spec.modes, spec.seed, range(4, 8), 0.0)
    assert np.array_equal(drawn.coeffs, block[1])


def test_interp_ratios_are_exactly_one_on_eigenmodes():
    grid = GridSpec(extents=(1.0, 0.7), points=(8, 8))
    coeffs = np.zeros((3, 8, 8))
    coeffs[1, 2, 3] = 0.9
    (r3,), (r4,) = inequalities.catalogue_ratios(
        grid, Catalogue(interp=True), coeffs[None]
    )
    assert abs(r3 - 1.0) < 1e-12, f"eq3 off equality: {r3}"
    assert abs(r4 - 1.0) < 1e-12, f"eq4 off equality: {r4}"


def test_interp_family_never_exceeds_one():
    for extents, band in [((1.0,), (12,)), ((1.0, 0.8), (6, 6))]:
        grid = GridSpec(extents=extents, points=tuple(2 * b for b in band))
        reports = inequalities.check_interp(grid, spec_for(band, count=25))
        for rep in reports:
            assert rep.violations == 0, inequalities.summarize(reports)
            assert rep.max_ratio <= 1.0 + 1e-9
            assert rep.inequality in ("eq3", "eq4")


def test_elliptic_constants_are_modest_and_band_stable():
    grid = GridSpec(extents=(1.0,), points=(24,))
    maxes = {}
    for band in ((6,), (12,)):
        reports = inequalities.check_elliptic(grid, spec_for(band, count=16))
        assert [r.inequality for r in reports] == list(inequalities._ELLIPTIC_IDS)
        for rep in reports:
            assert rep.violations == 0
            assert math.isfinite(rep.max_ratio)
            # crude a priori caps from pairwise interpolation of the moments
            assert rep.max_ratio <= 2.0 + 1e-9, rep
            maxes.setdefault(rep.inequality, []).append(rep.max_ratio)
    for name, (lo_band, hi_band) in maxes.items():
        assert hi_band < 2.0 * lo_band + 1.0, (
            f"{name} constant blew up under band doubling: {lo_band} -> {hi_band}"
        )


def test_product_hs_finite_and_guarded():
    grid = GridSpec(extents=(1.0,), points=(16,))
    rep = inequalities.check_product_hs(grid, spec_for((8,), count=8), s=1)
    assert rep.inequality == "eq7_s1"
    assert rep.violations == 0
    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    with pytest.raises(ValueError, match="s > d/2"):
        inequalities.check_product_hs(grid, spec_for((8,)), s=0)
    with pytest.raises(ValueError, match="fractional"):
        inequalities.check_product_hs(grid, spec_for((8,)), s=1.5)


def test_cubic_lipschitz_k0_stays_below_three_halves():
    grid = GridSpec(extents=(1.0, 0.9), points=(8, 8))
    rep = inequalities.check_cubic_lipschitz(grid, spec_for((6, 6), count=12), 0)
    assert rep.violations == 0, f"k=0 quotient exceeded 3/2: {rep.max_ratio}"
    assert rep.max_ratio <= 1.5 + 1e-9
    for k in (1, 2):
        rep_k = inequalities.check_cubic_lipschitz(grid, spec_for((6, 6)), k)
        assert math.isfinite(rep_k.max_ratio)
        assert rep_k.inequality == f"cubic_lipschitz_k{k}"
    with pytest.raises(ValueError, match="k_order"):
        inequalities.check_cubic_lipschitz(grid, spec_for((6, 6)), 3)


def test_cross_diff_family_never_exceeds_one():
    grid = GridSpec(extents=(1.0,), points=(16,))
    # k = 0 is u x u - v x v = 0: the quotient degenerates to a clean 0
    rep0 = inequalities.check_cross_diff(grid, spec_for((8,)), 0)
    assert rep0.max_ratio == 0.0
    for k in (1, 2):
        rep = inequalities.check_cross_diff(grid, spec_for((8,), count=20), k)
        assert rep.violations == 0, f"cross-diff k={k} max {rep.max_ratio}"
        assert rep.max_ratio <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="0..2"):
        inequalities.check_cross_diff(grid, spec_for((8,)), 3)


def test_ratios_are_scale_invariant():
    grid = GridSpec(extents=(1.0,), points=(16,))
    spec = spec_for((8,), seed=11, count=2)
    pair = np.stack([
        fields.random_field(grid, spec.modes, seed=spec.seed, index=i).coeffs for i in (0, 1)
    ])
    # eq7 and cubic k=0 on the pair, GN on each of its two draws
    catalogue = Catalogue(product_s=1, cubic_ks=(0,), gn=((0, 4.0, 0, 1),))
    base = inequalities.catalogue_ratios(grid, catalogue, pair)
    for c in (0.1, 10.0):
        for got, want in zip(inequalities.catalogue_ratios(grid, catalogue, c * pair), base):
            assert got == pytest.approx(want, rel=1e-11)


def test_gn_check_labels_and_finiteness():
    grid = GridSpec(extents=(1.0, 0.8), points=(12, 12))
    rep = inequalities.gn_check(grid, spec_for((6, 6), count=8), 0, math.inf, 0, 2)
    assert rep.inequality == "gn_r0_qinf_s02_theta1-2"
    assert rep.violations == 0
    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    rep4 = inequalities.gn_check(grid, spec_for((6, 6), count=8), 0, 4.0, 0, 1)
    assert rep4.inequality == "gn_r0_q4_s01_theta1-2"


def test_report_csv_round_trip():
    grid = GridSpec(extents=(1.0,), points=(16,))
    reports = inequalities.check_interp(grid, spec_for((8,), count=4))
    text = inequalities.reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == inequalities.REPORT_HEADER
    assert len(lines) == 3
    name, max_r, med_r, viol, seed = lines[1].split(",")
    assert name == "eq3"
    assert float(max_r) == reports[0].max_ratio
    assert float(med_r) == reports[0].median_ratio
    assert int(viol) == 0
    assert int(seed) == 3
    summary = inequalities.summarize(reports)
    assert "ok" in summary and "VIOLATIONS" not in summary


@pytest.mark.parametrize("threshold", [None, 1.0])
def test_aggregate_counts_every_non_finite_ratio(threshold):
    spec = spec_for((4,))
    rep = inequalities._aggregate("x", [0.5, math.nan, 0.2, math.inf], spec, threshold)
    assert rep.violations == 2
    assert rep.witness_index == 1 and math.isnan(rep.max_ratio)
    rep = inequalities._aggregate("x", [0.5, 0.2, math.inf, math.nan], spec, threshold)
    assert rep.violations == 2 and rep.witness_index == 2
    clean = inequalities._aggregate("x", [0.5, 0.9, 0.2], spec, threshold)
    assert clean.violations == 0 and clean.witness_index == 1 and clean.max_ratio == 0.9
    over = inequalities._aggregate("x", [0.5, 1.2, 0.2], spec, threshold)
    assert over.violations == (0 if threshold is None else 1)


# ---------------------------------------------------------------------------
# The stacked ensemble against per-draw reference formulas.  The reference
# evaluates each field on the padded grid from explicit basis matrices and
# forms every ratio from its definition, one draw or pair at a time.
# ---------------------------------------------------------------------------

ZERO_CUT = 1e-14  # the degenerate-quotient rule: 0/0 -> 0, x/0 -> inf
GN_BY_DIM = {  # (r, q, s1, s2) as verify-inequalities runs them
    1: ((1, 4.0, 0, 3), (1, 4.0, 1, 2)),
    2: ((0, 4.0, 0, 1), (0, math.inf, 0, 2)),
    3: ((0, 4.0, 0, 1), (0, 4.0, 0, 2), (0, math.inf, 1, 2)),
}


def full_catalogue(dim):
    return Catalogue(
        interp=True, elliptic=True, product_s=dim // 2 + 1,
        cubic_ks=(0, 1, 2), cross_ks=(0, 1, 2), gn=GN_BY_DIM[dim],
    )


def h_sq(grid, c, s):
    lam = ref.lam_of(grid, c.shape[1:])
    return float((sum(lam**j for j in range(s + 1)) * (c**2).sum(axis=0)).sum())


def quotient(num, den):
    return (0.0 if num < ZERO_CUT else math.inf) if den < ZERO_CUT else num / den


def theta_of(dim, r, q, s1, s2):
    if math.isinf(q):
        return Fraction(2 * (s2 - r) - dim, 2 * (s2 - s1))
    q = Fraction(q)
    return (2 * q * (s2 - r) - dim * (q - 2)) / (2 * q * (s2 - s1))


def reference_rows(grid, spec, catalogue):
    """(name, threshold, per-draw ratios) of every row of a full catalogue."""
    dim, pad = grid.dim, grid.padded(grid.points)
    vol = ref.cell(grid, pad)
    draw = [
        fields.random_field(grid, spec.modes, seed=spec.seed, index=i).coeffs
        for i in range(2 * spec.count)
    ]

    def values(c, alpha):
        return ref.values(grid, c, alpha, pad)

    def project(w):  # midpoint quadrature onto the grid's cosines
        return ref.project(grid, w, grid.points, pad)

    def w_inf_sq(c, k):
        return max(
            float((values(c, a) ** 2).sum(axis=0).max())
            for o in range(k + 1)
            for a in ref.alphas(dim, o)
        )

    def single(c):
        lam, c2 = ref.lam_of(grid, c.shape[1:]), (c**2).sum(axis=0)
        m = [float((lam**k * c2).sum()) for k in range(6)]
        h = [sum(m[: s + 1]) for s in range(6)]
        out = [
            quotient(m[2], math.sqrt(m[1]) * math.sqrt(m[3])),
            quotient(m[3], math.sqrt(m[2]) * math.sqrt(m[4])),
        ]
        ell = [h[2] / (m[0] + m[2]), m[1] / (m[0] + m[2]), h[3] / (m[0] + m[1] + m[3]),
               h[4] / (m[0] + m[2] + m[4]), h[5] / (m[0] + m[1] + m[3] + m[5])]
        out += [0.0] * 5 if h[5] < ZERO_CUT else ell
        for r, q, s1, s2 in catalogue.gn:
            theta = float(theta_of(dim, r, q, s1, s2))
            if math.isinf(q):
                num = math.sqrt(w_inf_sq(c, r))
            else:
                num = sum(
                    float(((values(c, a) ** 2).sum(axis=0) ** (q / 2)).sum()) * vol
                    for o in range(r + 1) for a in ref.alphas(dim, o)
                ) ** (1 / q)
            out.append(quotient(num, math.sqrt(h[s1]) ** theta * math.sqrt(h[s2]) ** (1 - theta)))
        return out

    def pair(cu, cv):
        u, v = values(cu, (0,) * dim), values(cv, (0,) * dim)
        s = catalogue.product_s
        w = project(np.sqrt((u**2).sum(axis=0) * (v**2).sum(axis=0))[None])[0]
        lam = ref.lam_of(grid, grid.points)
        num = math.sqrt(float((sum(lam**j for j in range(s + 1)) * w**2).sum()))
        out = [quotient(num, math.sqrt(h_sq(grid, cu, s)) * math.sqrt(h_sq(grid, cv, s)))]
        gap = project((u**2).sum(axis=0) * u) - project((v**2).sum(axis=0) * v)
        for k in catalogue.cubic_ks:
            num = math.sqrt(sum(float((values(gap, a) ** 2).sum()) * vol for a in ref.alphas(dim, k)))
            den = (w_inf_sq(cu, k) + w_inf_sq(cv, k)) * math.sqrt(h_sq(grid, cu - cv, k))
            out.append(quotient(num, den))
        for k in catalogue.cross_ks:
            lhs = dgap = mixed = 0.0
            for a in ref.alphas(dim, k):
                du, dv = values(cu, a), values(cv, a)
                cross_gap = np.cross(u, du, axis=0) - np.cross(v, dv, axis=0)
                lhs += float((cross_gap**2).sum()) * vol
                dgap += float((values(cu - cv, a) ** 2).sum()) * vol
                mixed += float((((u - v) ** 2).sum(axis=0) * (dv**2).sum(axis=0)).sum()) * vol
            linf = math.sqrt(float((u**2).sum(axis=0).max()))
            out.append(quotient(math.sqrt(lhs), linf * math.sqrt(dgap) + math.sqrt(mixed)))
        return out

    singles = np.array([single(draw[i]) for i in range(spec.count)]).T
    pairs = np.array([pair(draw[2 * i], draw[2 * i + 1]) for i in range(spec.count)]).T
    names = ["eq3", "eq4", "eq1", "eq2", "eq5", "eq6", "eq8", f"eq7_s{catalogue.product_s}"]
    names += [f"cubic_lipschitz_k{k}" for k in catalogue.cubic_ks]
    names += [f"cross_diff_k{k}" for k in catalogue.cross_ks]
    for r, q, s1, s2 in catalogue.gn:
        t = theta_of(dim, r, q, s1, s2)
        label = "inf" if math.isinf(q) else f"{q:g}"
        names.append(f"gn_r{r}_q{label}_s{s1}{s2}_theta{t.numerator}-{t.denominator}")
    one = 1.0 + 1e-9
    thresholds = [one, one] + [None] * 6 + [1.5 + 1e-9, None, None, one, one, one]
    thresholds += [None] * len(catalogue.gn)
    ratios = [*singles[:7], *pairs, *singles[7:]]
    return list(zip(names, thresholds, ratios))


STACKED_CONFIGS = [  # (extents, points, modes, count)
    ((1.0,), (12,), (6,), 2 * inequalities._BLOCK_PAIRS + 1),
    ((1.0,), (8,), (8,), 3),  # band = grid
    ((1.0, 0.8), (8, 8), (4, 4), 2 * inequalities._BLOCK_PAIRS + 1),
    ((1.0, 0.8), (6, 6), (6, 6), 4),  # band = grid
    ((1.0, 0.8), (4, 4), (1, 1), 5),  # one mode: every derivative is 0/0
    ((1.0, 0.8, 1.2), (6, 6, 6), (3, 3, 3), 3),
]
# Fixed ids, the ones pytest derived from the values at _BLOCK_PAIRS = 4, so
# that a change of block size renames no case.
STACKED_IDS = [f"extents{i}-points{i}-modes{i}-{c}" for i, c in enumerate((9, 3, 9, 4, 5, 3))]


@pytest.mark.parametrize("extents, points, modes, count", STACKED_CONFIGS, ids=STACKED_IDS)
def test_stacked_ensemble_matches_per_draw_formulas(extents, points, modes, count):
    grid = GridSpec(extents=extents, points=points)
    spec = spec_for(modes, seed=17, count=count)
    catalogue = full_catalogue(grid.dim)
    reports = inequalities.check_catalogue(grid, spec, catalogue)
    expected = reference_rows(grid, spec, catalogue)
    assert [r.inequality for r in reports] == [name for name, _, _ in expected]
    for rep, (name, threshold, ratios) in zip(reports, expected):
        bad = ~np.isfinite(ratios) if threshold is None else ~(ratios <= threshold)
        assert rep.violations == int(bad.sum()), name
        assert rep.witness_seed == spec.seed
        top = float(ratios.max())
        if top < 1e-11:
            # rounding noise of a quantity that is exactly zero
            assert 0.0 <= rep.max_ratio < 1e-11 and rep.median_ratio < 1e-11, (name, rep)
            continue
        for got, want in ((rep.max_ratio, top), (rep.median_ratio, float(np.median(ratios)))):
            assert abs(got - want) <= 1e-13 * abs(want), (name, got, want)
        runner_up = np.sort(ratios)[-2] if len(ratios) > 1 else -math.inf
        if top - runner_up > 1e-12 * top:  # a maximum tied within rounding has no fixed witness
            assert rep.witness_index == int(np.argmax(ratios)), name
    if modes == (1, 1):
        got = {r.inequality: (r.max_ratio, r.median_ratio) for r in reports}
        for name in ("eq3", "eq4", "eq2", "cross_diff_k0", "cross_diff_k1", "cross_diff_k2"):
            assert got[name] == (0.0, 0.0), name
        for name in ("eq1", "eq5", "eq6", "eq8"):
            assert got[name] == (1.0, 1.0), name


def test_ensemble_memory_is_flat_in_count():
    grid = GridSpec(extents=(1.0, 0.8), points=(16, 16))
    catalogue = full_catalogue(2)
    block = inequalities._BLOCK_PAIRS
    inequalities.check_catalogue(grid, spec_for((8, 8), count=block), catalogue)  # warm caches
    peaks = []
    for count in (block, 8 * block):
        tracemalloc.start()
        try:
            inequalities.check_catalogue(grid, spec_for((8, 8), count=count), catalogue)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], f"peak {peaks[1]} B at 8 blocks vs {peaks[0]} B at one"


@pytest.mark.parametrize("extents, points, modes, count", STACKED_CONFIGS, ids=STACKED_IDS)
def test_reports_do_not_depend_on_the_block_size(monkeypatch, extents, points, modes, count):
    # phase 1 folds each block into its slice of the ensemble arrays, so the
    # block size only moves rounding: one-pair blocks turn GEMMs into GEMVs
    grid = GridSpec(extents=extents, points=points)
    spec = spec_for(modes, seed=17, count=count)
    catalogue = full_catalogue(grid.dim)
    default = inequalities._BLOCK_PAIRS
    want = inequalities.check_catalogue(grid, spec, catalogue)
    for block in sorted({1, 2, 3, default}):
        monkeypatch.setattr(inequalities, "_BLOCK_PAIRS", block)
        got = inequalities.check_catalogue(grid, spec, catalogue)
        assert [r.inequality for r in got] == [r.inequality for r in want]
        for a, b in zip(got, want):
            assert (a.violations, a.witness_seed) == (b.violations, b.witness_seed), (block, a, b)
            if b.max_ratio < 1e-11:
                # rounding noise of a quantity that is exactly zero
                assert a.max_ratio < 1e-11 and a.median_ratio < 1e-11, (block, a)
                continue
            assert a.witness_index == b.witness_index, (block, a, b)
            for x, y in ((a.max_ratio, b.max_ratio), (a.median_ratio, b.median_ratio)):
                assert abs(x - y) <= 1e-15 * abs(y), (block, a.inequality, x, y)
