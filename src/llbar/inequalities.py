"""Randomized verification of the standalone norm inequalities.

Two kinds of claims live here.  The constant-one inequalities (the
gradient/Laplacian interpolation pair and the cross-product difference
bound) are Cauchy--Schwarz or triangle inequalities in disguise and are
asserted with zero tolerance beyond rounding slack.  The elliptic,
product, cubic-difference and Gagliardo--Nirenberg families carry
non-constructive constants, so their checks report the empirical
constant and the caller (or test) asserts finiteness and stability under
band refinement instead of a magic number.

Sampling is deterministic: sample ``i`` of a spec is drawn from the
counter-based stream ``(seed, i)``, so a witness index pins down the
offending field exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import fields, operators
from .fields import GridSpec, SpectralField
from .galerkin import ModeBand

__all__ = [
    "SampleSpec",
    "RatioReport",
    "draw_sample",
    "interp_ratios",
    "elliptic_ratios",
    "product_hs_ratio",
    "cubic_lipschitz_ratio",
    "cross_diff_ratio",
    "gn_theta",
    "gn_ratio",
    "check_interp",
    "check_elliptic",
    "check_product_hs",
    "check_cubic_lipschitz",
    "check_cross_diff",
    "gn_check",
    "reports_to_csv",
    "summarize",
]

AMPLITUDE_LAWS = ("flat", "decay")
_CONSTANT_ONE_SLACK = 1e-9
_ZERO_CUT = 1e-14

REPORT_HEADER = "inequality,max_ratio,median_ratio,violations,witness_seed"


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic description of a random-field ensemble."""

    seed: int
    count: int
    band: ModeBand
    amplitude_law: str = "flat"
    decay: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if self.amplitude_law not in AMPLITUDE_LAWS:
            raise ValueError(
                f"amplitude_law must be one of {AMPLITUDE_LAWS}, got "
                f"{self.amplitude_law!r}"
            )
        if self.decay < 0.0:
            raise ValueError(f"decay exponent must be nonnegative, got {self.decay}")


@dataclass(frozen=True)
class RatioReport:
    """Aggregated ratio statistics for one inequality over an ensemble."""

    inequality: str
    max_ratio: float
    median_ratio: float
    violations: int
    witness_seed: int
    witness_index: int

    def as_row(self) -> str:
        return (
            f"{self.inequality},{self.max_ratio:.17g},{self.median_ratio:.17g},"
            f"{self.violations},{self.witness_seed}"
        )


def draw_sample(grid: GridSpec, spec: SampleSpec, index: int) -> SpectralField:
    decay = spec.decay if spec.amplitude_law == "decay" else 0.0
    return fields.random_field(
        grid, spec.band.modes, seed=spec.seed, index=index, decay=decay
    )


# ---------------------------------------------------------------------------
# Norm helpers.
# ---------------------------------------------------------------------------


def _sobolev_sq(v: SpectralField, s: int) -> float:
    """Squared H^s norm as the lambda-power sum over coefficients."""
    lam = v.eigenvalues
    weight = np.ones_like(lam)
    for m in range(1, s + 1):
        weight = weight + lam**m
    return float((weight[None] * v.coeffs**2).sum())


def _multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


def _derivative_values(v: SpectralField, alpha: tuple[int, ...]) -> np.ndarray:
    """Point values of D^alpha v on the oversampled grid."""
    coeffs, parities = fields._derivative_multiplier(
        v.coeffs, v.grid.extents, alpha
    )
    return fields._eval_series(
        coeffs, v.grid.extents, parities, v.grid.padded_points
    )


def _wrq_norm(v: SpectralField, r: int, q: float) -> float:
    """W^{r,q} norm over all derivative multi-indices up to order r."""
    grid = v.grid
    vol = float(
        np.prod([L / P for L, P in zip(grid.extents, grid.padded_points)])
    )
    if math.isinf(q):
        worst = 0.0
        for order in range(r + 1):
            for alpha in _multi_indices(grid.dim, order):
                mag2 = (_derivative_values(v, alpha) ** 2).sum(axis=0)
                worst = max(worst, float(mag2.max()))
        return math.sqrt(worst)
    acc = 0.0
    for order in range(r + 1):
        for alpha in _multi_indices(grid.dim, order):
            mag2 = (_derivative_values(v, alpha) ** 2).sum(axis=0)
            acc += float((mag2 ** (q / 2.0)).sum()) * vol
    return acc ** (1.0 / q)


def _linf(values: np.ndarray) -> float:
    return float(np.sqrt((values**2).sum(axis=0).max()))


# ---------------------------------------------------------------------------
# Per-field ratios.  Each is scale-invariant in its field arguments, which
# tests exploit by re-evaluating at 0.1x and 10x amplitude.
# ---------------------------------------------------------------------------


def interp_ratios(v: SpectralField) -> tuple[float, float]:
    """Ratios of the two constant-1 interpolation inequalities.

    First: |Dv|^2 / (|grad v| |grad Dv|); second: |grad Dv|^2 / (|Dv| |D^2 v|).
    Degenerate 0/0 cases report 0 (counted as a pass).
    """
    lam = v.eigenvalues
    c2 = (v.coeffs**2).sum(axis=0)
    moments = [(lam**m * c2).sum() for m in range(1, 5)]
    grad, delta, grad_delta, delta2 = [float(x) for x in moments]

    def ratio(num: float, a: float, b: float) -> float:
        denom = math.sqrt(a) * math.sqrt(b)
        if denom < _ZERO_CUT:
            return 0.0 if num < _ZERO_CUT else math.inf
        return num / denom

    return ratio(delta, grad, grad_delta), ratio(grad_delta, delta, delta2)


_ELLIPTIC_IDS = ("eq1", "eq2", "eq5", "eq6", "eq8")


def elliptic_ratios(v: SpectralField) -> tuple[float, ...]:
    """Empirical constants of the norm-equivalence inequalities.

    eq1: |v|_{H2}^2 <= C (|v|^2 + |Dv|^2)
    eq2: |grad v|^2 <= C |v|^2 + eps |Dv|^2        (evaluated at eps = 1)
    eq5: |v|_{H3}^2 <= C (|v|^2 + |grad v|^2 + |grad Dv|^2)
    eq6: |v|_{H4}^2 <= C (|v|^2 + |Dv|^2 + |D^2 v|^2)
    eq8: |v|_{H5}^2 <= C (|v|^2 + |grad v|^2 + |grad Dv|^2 + |grad D^2 v|^2)
    """
    lam = v.eigenvalues
    c2 = (v.coeffs**2).sum(axis=0)
    mom = [float((lam**m * c2).sum()) for m in range(6)]
    total = sum(mom)
    if total < _ZERO_CUT:
        return tuple(0.0 for _ in _ELLIPTIC_IDS)
    h = [sum(mom[: s + 1]) for s in range(6)]
    return (
        h[2] / (mom[0] + mom[2]),
        mom[1] / (mom[0] + mom[2]),
        h[3] / (mom[0] + mom[1] + mom[3]),
        h[4] / (mom[0] + mom[2] + mom[4]),
        h[5] / (mom[0] + mom[1] + mom[3] + mom[5]),
    )


def product_hs_ratio(u: SpectralField, v: SpectralField, s: int) -> float:
    """Empirical constant of ||u||v||_{H^s} <= C |u|_{H^s} |v|_{H^s}."""
    grid = u.grid
    if v.grid != grid:
        raise ValueError("product factors must share a grid")
    mag_u = np.sqrt((operators.padded_values(u) ** 2).sum(axis=0))
    mag_v = np.sqrt((operators.padded_values(v) ** 2).sum(axis=0))
    w = fields._transform_series(
        mag_u * mag_v, grid.extents, ("cos",) * grid.dim, grid.points
    )
    lam = fields.eigenvalue_array(grid, grid.points)
    weight = np.ones_like(lam)
    for m in range(1, s + 1):
        weight = weight + lam**m
    num = math.sqrt(float((weight * w**2).sum()))
    denom = math.sqrt(_sobolev_sq(u, s)) * math.sqrt(_sobolev_sq(v, s))
    if denom < _ZERO_CUT:
        return 0.0 if num < _ZERO_CUT else math.inf
    return num / denom


def cubic_lipschitz_ratio(u: SpectralField, v: SpectralField, k_order: int) -> float:
    """Lipschitz-type quotient for the cubic difference at derivative level k.

    Numerator: |D^k(|u|^2 u - |v|^2 v)|_{L^2} over all order-k multi-indices.
    Denominator: (|u|_{W^{k,inf}}^2 + |v|_{W^{k,inf}}^2) |u - v|_{H^k}.
    At k = 0 the pointwise factorization bounds the quotient by 3/2.
    """
    if k_order not in (0, 1, 2):
        raise ValueError(f"k_order must be 0, 1 or 2, got {k_order}")
    grid = u.grid
    if v.grid != grid:
        raise ValueError("sample pair must share a grid")
    vol = float(
        np.prod([L / P for L, P in zip(grid.extents, grid.padded_points)])
    )
    cu = operators.cubic_band(u, grid.points)
    cv = operators.cubic_band(v, grid.points)
    gap = SpectralField(grid=grid, modes=cu.modes, coeffs=cu.coeffs - cv.coeffs)
    num_sq = 0.0
    for alpha in _multi_indices(grid.dim, k_order):
        num_sq += float((_derivative_values(gap, alpha) ** 2).sum()) * vol
    diff = SpectralField(grid=grid, modes=u.modes, coeffs=u.coeffs - v.coeffs)
    denom = (
        _wrq_norm(u, k_order, math.inf) ** 2 + _wrq_norm(v, k_order, math.inf) ** 2
    ) * math.sqrt(_sobolev_sq(diff, k_order))
    num = math.sqrt(num_sq)
    if denom < _ZERO_CUT:
        return 0.0 if num < _ZERO_CUT else math.inf
    return num / denom


def cross_diff_ratio(u: SpectralField, v: SpectralField, k: int) -> float:
    """Quotient of the cross-product difference bound (constant 1).

    |u x D^k u - v x D^k v| <= |u|_inf |D^k(u-v)| + ||u-v||D^k v||.
    """
    if not 0 <= k <= 2:
        raise ValueError(f"derivative order must be in 0..2, got {k}")
    grid = u.grid
    if v.grid != grid:
        raise ValueError("sample pair must share a grid")
    vol = float(
        np.prod([L / P for L, P in zip(grid.extents, grid.padded_points)])
    )
    u_vals = operators.padded_values(u)
    v_vals = operators.padded_values(v)
    diff = SpectralField(grid=grid, modes=u.modes, coeffs=u.coeffs - v.coeffs)
    lhs_sq = 0.0
    dk_gap_sq = 0.0
    mixed_sq = 0.0
    for alpha in _multi_indices(grid.dim, k):
        du = _derivative_values(u, alpha)
        dv = _derivative_values(v, alpha)
        cross_gap = np.cross(u_vals, du, axis=0) - np.cross(v_vals, dv, axis=0)
        lhs_sq += float((cross_gap**2).sum()) * vol
        dgap = _derivative_values(diff, alpha)
        dk_gap_sq += float((dgap**2).sum()) * vol
        gap_mag2 = ((u_vals - v_vals) ** 2).sum(axis=0)
        mixed_sq += float((gap_mag2 * (dv**2).sum(axis=0)).sum()) * vol
    rhs = _linf(u_vals) * math.sqrt(dk_gap_sq) + math.sqrt(mixed_sq)
    lhs = math.sqrt(lhs_sq)
    if rhs < _ZERO_CUT:
        return 0.0 if lhs < _ZERO_CUT else math.inf
    return lhs / rhs


def gn_theta(d: int, q: float, r: int, s1: int, s2: int) -> Fraction:
    """Interpolation exponent theta of the Gagliardo--Nirenberg estimate.

    theta = (2q(s2 - r) - d(q - 2)) / (2q(s2 - s1)), with the q -> inf
    limit ((s2 - r) - d/2)/(s2 - s1).  Inadmissible parameters raise with
    the violated constraint named.
    """
    for name, value in (("d", d), ("r", r), ("s1", s1), ("s2", s2)):
        if int(value) != value:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if r < 0:
        raise ValueError(f"derivative order must be nonnegative, got {r}")
    if s1 < 0:
        raise ValueError(f"s1 must be nonnegative, got {s1}")
    if s2 <= s1:
        raise ValueError(f"requires s2 > s1, got s1={s1}, s2={s2}")
    if not (q > 2.0):
        raise ValueError(f"requires q > 2, got {q}")
    if math.isinf(q):
        theta = Fraction(2 * (s2 - r) - d, 2 * (s2 - s1))
    else:
        if q != int(q):
            q_frac = Fraction(q).limit_denominator(10**6)
        else:
            q_frac = Fraction(int(q))
        theta = (2 * q_frac * (s2 - r) - d * (q_frac - 2)) / (
            2 * q_frac * (s2 - s1)
        )
    if theta <= 0:
        raise ValueError(
            f"inadmissible exponent theta = {theta} <= 0 "
            f"(r too high for this q, d)"
        )
    if theta > 1:
        raise ValueError(
            f"inadmissible exponent theta = {theta} > 1 "
            f"(s1 already controls W^{{r,q}})"
        )
    return theta


def gn_ratio(v: SpectralField, r: int, q: float, s1: int, s2: int) -> float:
    """Ratio |v|_{W^{r,q}} / (|v|_{H^{s1}}^theta |v|_{H^{s2}}^{1-theta})."""
    theta = float(gn_theta(v.grid.dim, q, r, s1, s2))
    num = _wrq_norm(v, r, q)
    a = math.sqrt(_sobolev_sq(v, s1))
    b = math.sqrt(_sobolev_sq(v, s2))
    denom = a**theta * b ** (1.0 - theta)
    if denom < _ZERO_CUT:
        return 0.0 if num < _ZERO_CUT else math.inf
    return num / denom


# ---------------------------------------------------------------------------
# Ensemble drivers.
# ---------------------------------------------------------------------------


def _aggregate(
    inequality: str,
    ratios: Sequence[float],
    spec: SampleSpec,
    threshold: float | None,
) -> RatioReport:
    arr = np.asarray(ratios, dtype=float)
    worst = int(np.argmax(arr))
    if threshold is None:
        violations = int(np.isinf(arr).sum())
    else:
        violations = int((arr > threshold).sum())
    return RatioReport(
        inequality=inequality,
        max_ratio=float(arr[worst]),
        median_ratio=float(np.median(arr)),
        violations=violations,
        witness_seed=spec.seed,
        witness_index=worst,
    )


def check_interp(grid: GridSpec, spec: SampleSpec) -> list[RatioReport]:
    """eq3/eq4 over an ensemble: constant-1, zero violations expected."""
    r3, r4 = [], []
    for i in range(spec.count):
        a, b = interp_ratios(draw_sample(grid, spec, i))
        r3.append(a)
        r4.append(b)
    bound = 1.0 + _CONSTANT_ONE_SLACK
    return [
        _aggregate("eq3", r3, spec, bound),
        _aggregate("eq4", r4, spec, bound),
    ]


def check_elliptic(grid: GridSpec, spec: SampleSpec) -> list[RatioReport]:
    """Empirical constants of eq1/eq2/eq5/eq6/eq8; finiteness asserted,
    values reported for band-stability comparison by the caller."""
    columns: list[list[float]] = [[] for _ in _ELLIPTIC_IDS]
    for i in range(spec.count):
        ratios = elliptic_ratios(draw_sample(grid, spec, i))
        for col, value in zip(columns, ratios):
            col.append(value)
    return [
        _aggregate(name, col, spec, None)
        for name, col in zip(_ELLIPTIC_IDS, columns)
    ]


def check_product_hs(grid: GridSpec, spec: SampleSpec, s: int) -> RatioReport:
    """Empirical constant of the H^s product estimate (needs s > d/2)."""
    if int(s) != s:
        raise ValueError(f"fractional Sobolev order not supported, got s={s}")
    if not s > grid.dim / 2.0:
        raise ValueError(
            f"product estimate needs s > d/2; got s={s} with d={grid.dim}"
        )
    ratios = []
    for i in range(spec.count):
        u = draw_sample(grid, spec, 2 * i)
        v = draw_sample(grid, spec, 2 * i + 1)
        ratios.append(product_hs_ratio(u, v, int(s)))
    return _aggregate(f"eq7_s{s}", ratios, spec, None)


def check_cubic_lipschitz(
    grid: GridSpec, spec: SampleSpec, k_order: int
) -> RatioReport:
    """Cubic-difference quotients; the k=0 case is asserted below 3/2."""
    ratios = []
    for i in range(spec.count):
        u = draw_sample(grid, spec, 2 * i)
        v = draw_sample(grid, spec, 2 * i + 1)
        ratios.append(cubic_lipschitz_ratio(u, v, k_order))
    threshold = 1.5 + _CONSTANT_ONE_SLACK if k_order == 0 else None
    return _aggregate(f"cubic_lipschitz_k{k_order}", ratios, spec, threshold)


def check_cross_diff(grid: GridSpec, spec: SampleSpec, k: int) -> RatioReport:
    """Cross-product difference bound: constant 1, zero violations expected."""
    ratios = []
    for i in range(spec.count):
        u = draw_sample(grid, spec, 2 * i)
        v = draw_sample(grid, spec, 2 * i + 1)
        ratios.append(cross_diff_ratio(u, v, k))
    return _aggregate(
        f"cross_diff_k{k}", ratios, spec, 1.0 + _CONSTANT_ONE_SLACK
    )


def gn_check(
    grid: GridSpec, spec: SampleSpec, r: int, q: float, s1: int, s2: int
) -> RatioReport:
    """Gagliardo--Nirenberg quotient ensemble at the formula exponent."""
    theta = gn_theta(grid.dim, q, r, s1, s2)  # validates the tuple
    ratios = []
    for i in range(spec.count):
        ratios.append(gn_ratio(draw_sample(grid, spec, i), r, q, s1, s2))
    label = "inf" if math.isinf(q) else f"{q:g}"
    return _aggregate(
        f"gn_r{r}_q{label}_s{s1}{s2}_theta{theta.numerator}-{theta.denominator}",
        ratios,
        spec,
        None,
    )


def reports_to_csv(reports: Iterable[RatioReport]) -> str:
    lines = [REPORT_HEADER]
    lines += [r.as_row() for r in reports]
    return "\n".join(lines) + "\n"


def summarize(reports: Iterable[RatioReport]) -> str:
    lines = []
    for r in reports:
        status = "ok" if r.violations == 0 else f"{r.violations} VIOLATIONS"
        lines.append(
            f"{r.inequality:<28s} max {r.max_ratio:<12.6g} "
            f"median {r.median_ratio:<12.6g} {status} "
            f"(worst: seed {r.witness_seed} index {r.witness_index})"
        )
    return "\n".join(lines)
