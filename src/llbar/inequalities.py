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
offending field exactly.  Pair rows take draws ``2i`` and ``2i + 1``.

One pass evaluates a whole :class:`Catalogue`.  It draws each sample
once, in blocks of ``_BLOCK_PAIRS`` pairs, and the single-field rows
reuse the first draws.  Within a block each padded derivative D^alpha is
synthesized once for the whole stack of draws, one alpha at a time, and
folded into running per-draw sums and maxima; every ratio is then one
array expression over the block.  A single field is a stack of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import fields
from .fields import GridSpec, SpectralField

__all__ = [
    "SampleSpec",
    "RatioReport",
    "Catalogue",
    "draw_sample",
    "catalogue_ratios",
    "check_catalogue",
    "gn_theta",
    "check_interp",
    "check_elliptic",
    "check_product_hs",
    "check_cubic_lipschitz",
    "check_cross_diff",
    "gn_check",
    "reports_to_csv",
    "summarize",
]

_CONSTANT_ONE_SLACK = 1e-9
_ZERO_CUT = 1e-14
# Pairs per block of draws.  A block holds a handful of (2 * _BLOCK_PAIRS,
# 3, *padded) stacks at once, so memory does not grow with the ensemble.
_BLOCK_PAIRS = 2

REPORT_HEADER = "inequality,max_ratio,median_ratio,violations,witness_seed"


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic description of a random-field ensemble: ``count``
    draws keyed by ``seed`` on the first ``modes`` per axis, each from the
    flat law of :func:`fields.random_field`."""

    seed: int
    count: int
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")


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
    return fields.random_field(grid, spec.modes, seed=spec.seed, index=index)


_ELLIPTIC_IDS = ("eq1", "eq2", "eq5", "eq6", "eq8")


@dataclass(frozen=True)
class Catalogue:
    """The report rows of one ensemble pass, in this order.

    interp: eq3 |Dv|^2 <= |grad v| |grad Dv| and
        eq4 |grad Dv|^2 <= |Dv| |D^2 v|, both with constant 1.
    elliptic: empirical constants of the norm equivalences
        eq1: |v|_{H2}^2 <= C (|v|^2 + |Dv|^2)
        eq2: |grad v|^2 <= C |v|^2 + eps |Dv|^2        (evaluated at eps = 1)
        eq5: |v|_{H3}^2 <= C (|v|^2 + |grad v|^2 + |grad Dv|^2)
        eq6: |v|_{H4}^2 <= C (|v|^2 + |Dv|^2 + |D^2 v|^2)
        eq8: |v|_{H5}^2 <= C (|v|^2 + |grad v|^2 + |grad Dv|^2 + |grad D^2 v|^2)
    product_s: eq7 ||u||v||_{H^s} <= C |u|_{H^s} |v|_{H^s}, for s > d/2.
    cubic_ks: |D^k(|u|^2 u - |v|^2 v)| over
        (|u|_{W^{k,inf}}^2 + |v|_{W^{k,inf}}^2) |u - v|_{H^k}, with all
        order-k multi-indices; the pointwise factorization bounds k = 0 by 3/2.
    cross_ks: |u x D^k u - v x D^k v| <= |u|_inf |D^k(u-v)| + ||u-v||D^k v||.
    gn: (r, q, s1, s2) of |v|_{W^{r,q}} <= C |v|_{H^s1}^theta |v|_{H^s2}^(1-theta)
        at the exponent of :func:`gn_theta`.

    eq7, cubic and cross rows take a pair of draws per sample, the rest one.
    """

    interp: bool = False
    elliptic: bool = False
    product_s: int | None = None
    cubic_ks: tuple[int, ...] = ()
    cross_ks: tuple[int, ...] = ()
    gn: tuple[tuple[int, float, int, int], ...] = ()

    def __post_init__(self) -> None:
        for k in self.cubic_ks:
            if k not in (0, 1, 2):
                raise ValueError(f"k_order must be 0, 1 or 2, got {k}")
        for k in self.cross_ks:
            if not 0 <= k <= 2:
                raise ValueError(f"derivative order must be in 0..2, got {k}")

    @property
    def paired(self) -> bool:
        return self.product_s is not None or bool(self.cubic_ks or self.cross_ks)

    @property
    def top_order(self) -> int:
        """Highest derivative order needed on the padded grid; -1 for none."""
        orders = [*self.cubic_ks, *self.cross_ks, *(r for r, *_ in self.gn)]
        return max(orders, default=-1 if self.product_s is None else 0)

    def rows(self, dim: int) -> list[tuple[str, float | None, bool]]:
        """(name, threshold, paired) per row, checked against dimension ``dim``.

        A non-finite ratio or one above the threshold is a violation; with
        threshold None only a non-finite one is.
        """
        one = 1.0 + _CONSTANT_ONE_SLACK
        rows: list[tuple[str, float | None, bool]] = []
        if self.interp:
            rows += [("eq3", one, False), ("eq4", one, False)]
        if self.elliptic:
            rows += [(name, None, False) for name in _ELLIPTIC_IDS]
        s = self.product_s
        if s is not None:
            if int(s) != s:
                raise ValueError(f"fractional Sobolev order not supported, got s={s}")
            if not s > dim / 2.0:
                raise ValueError(f"product estimate needs s > d/2; got s={s} with d={dim}")
            rows.append((f"eq7_s{s}", None, True))
        three_halves = 1.5 + _CONSTANT_ONE_SLACK
        rows += [
            (f"cubic_lipschitz_k{k}", three_halves if k == 0 else None, True)
            for k in self.cubic_ks
        ]
        rows += [(f"cross_diff_k{k}", one, True) for k in self.cross_ks]
        for r, q, s1, s2 in self.gn:
            theta = gn_theta(dim, q, r, s1, s2)
            label = "inf" if math.isinf(q) else f"{q:g}"
            name = f"gn_r{r}_q{label}_s{s1}{s2}_theta{theta.numerator}-{theta.denominator}"
            rows.append((name, None, False))
        return rows


# ---------------------------------------------------------------------------
# Ratios over a stack of draws.
# ---------------------------------------------------------------------------


def _multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


def _per_draw(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the leading (draw) one."""
    return a.reshape(len(a), math.prod(a.shape[1:])).sum(axis=1)


def _quotient(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num / denom, where a denominator below _ZERO_CUT gives 0/0 -> 0, x/0 -> inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / denom
    return np.where(denom < _ZERO_CUT, np.where(num < _ZERO_CUT, 0.0, np.inf), ratio)


def _padded(grid: GridSpec, coeffs: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """D^alpha of a (n, 3, *modes) stack, padded for the N cosines the cubic rows project onto."""
    c, parities = fields._derivative_multiplier(coeffs, grid.extents, alpha)
    return fields._eval_series(c, grid.extents, parities, grid.padded(grid.points))


def _cross_gap(u, du, v, dv) -> np.ndarray:
    """u x du - v x dv pointwise, for (n, 3, ...) stacks."""
    out = np.empty_like(du)
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        out[:, j] = (u[:, a] * du[:, b] - u[:, b] * du[:, a]) - (
            v[:, a] * dv[:, b] - v[:, b] * dv[:, a]
        )
    return out


def catalogue_ratios(
    grid: GridSpec, catalogue: Catalogue, coeffs: np.ndarray, singles: int | None = None
) -> list[np.ndarray]:
    """Ratio arrays of every catalogue row, in row order, over a stack of draws.

    ``coeffs`` is an ``(n, 3, *modes)`` stack.  Single-field rows read its
    first ``singles`` draws (default: all), pair rows its pairs (0, 1),
    (2, 3), ...  Every ratio is scale-invariant in its field arguments.
    """
    dim = grid.dim
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    s = n if singles is None else singles
    if catalogue.paired and n % 2:
        raise ValueError(f"pair rows need an even number of draws, got {n}")
    lam = fields.eigenvalue_array(grid, c.shape[2:])
    c2 = (c * c).sum(axis=1)
    mom = [_per_draw(lam**k * c2) for k in range(6)]  # |(-Delta)^(k/2) v|^2
    h = np.cumsum(mom, axis=0)  # squared H^s norms, s = 0..5

    out = []
    if catalogue.interp:
        m1, m2, m3, m4 = (m[:s] for m in mom[1:5])
        out.append(_quotient(m2, np.sqrt(m1) * np.sqrt(m3)))
        out.append(_quotient(m3, np.sqrt(m2) * np.sqrt(m4)))
    if catalogue.elliptic:
        m, hs = [x[:s] for x in mom], h[:, :s]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (
                hs[2] / (m[0] + m[2]),
                m[1] / (m[0] + m[2]),
                hs[3] / (m[0] + m[1] + m[3]),
                hs[4] / (m[0] + m[2] + m[4]),
                hs[5] / (m[0] + m[1] + m[3] + m[5]),
            )
        out += [np.where(hs[5] < _ZERO_CUT, 0.0, r) for r in ratios]
    if catalogue.top_order < 0:
        return out

    # One padded synthesis per multi-index, shared by every row.  Orders
    # run upwards; after each, the running maxima and L^q sums become that
    # order's W^{k,inf} and W^{k,q} values.
    vol = grid.padded_cell(grid.points)
    pairs = n // 2
    qs = sorted({q for _, q, _, _ in catalogue.gn if not math.isinf(q)})
    running_max, running_q = np.zeros(n), {q: np.zeros(s) for q in qs}
    w_inf, w_q = [], {q: [] for q in qs}
    cubic_sq = {k: np.zeros(pairs) for k in catalogue.cubic_ks}
    cross_sq = {k: np.zeros((3, pairs)) for k in catalogue.cross_ks}
    for order in range(catalogue.top_order + 1):
        for alpha in _multi_indices(dim, order):
            vals = _padded(grid, c, alpha)
            mag2 = (vals * vals).sum(axis=1)
            np.maximum(running_max, mag2.reshape(n, -1).max(axis=1), out=running_max)
            for q in qs:
                running_q[q] += _per_draw(mag2[:s] ** (q / 2.0)) * vol
            if order == 0:
                u, v = vals[0::2], vals[1::2]
                gap_mag2 = ((u - v) ** 2).sum(axis=1)
                if catalogue.cubic_ks:
                    cubic = fields._transform_series(
                        mag2[:, None] * vals, grid.extents, ("cos",) * dim, grid.points
                    )
                    cubic_gap = cubic[0::2] - cubic[1::2]
                if catalogue.product_s is not None:
                    mag = np.sqrt(mag2)
                    product = fields._transform_series(
                        mag[0::2] * mag[1::2], grid.extents, ("cos",) * dim, grid.points
                    )
            if order in cross_sq:
                du, dv = vals[0::2], vals[1::2]
                cross_sq[order] += vol * np.array([
                    _per_draw(_cross_gap(u, du, v, dv) ** 2),
                    _per_draw((du - dv) ** 2),
                    _per_draw(gap_mag2 * mag2[1::2]),
                ])
            if order in cubic_sq:
                cubic_sq[order] += _per_draw(_padded(grid, cubic_gap, alpha) ** 2) * vol
        w_inf.append(running_max.copy())
        for q in qs:
            w_q[q].append(running_q[q].copy())

    if catalogue.product_s is not None:
        sp = int(catalogue.product_s)
        lam_grid = fields.eigenvalue_array(grid, grid.points)
        weight = sum(lam_grid**j for j in range(sp + 1))
        num = np.sqrt(_per_draw(weight * product**2))
        out.append(_quotient(num, np.sqrt(h[sp][0::2]) * np.sqrt(h[sp][1::2])))
    if catalogue.cubic_ks:
        d = c[0::2] - c[1::2]
        h_gap = np.cumsum([_per_draw(lam**k * (d * d).sum(axis=1)) for k in range(3)], axis=0)
        for k in catalogue.cubic_ks:
            denom = (w_inf[k][0::2] + w_inf[k][1::2]) * np.sqrt(h_gap[k])
            out.append(_quotient(np.sqrt(cubic_sq[k]), denom))
    for k in catalogue.cross_ks:
        lhs, gap_sq, mixed_sq = cross_sq[k]
        rhs = np.sqrt(w_inf[0][0::2]) * np.sqrt(gap_sq) + np.sqrt(mixed_sq)
        out.append(_quotient(np.sqrt(lhs), rhs))
    for r, q, s1, s2 in catalogue.gn:
        theta = float(gn_theta(dim, q, r, s1, s2))
        num = np.sqrt(w_inf[r][:s]) if math.isinf(q) else w_q[q][r] ** (1.0 / q)
        denom = np.sqrt(h[s1][:s]) ** theta * np.sqrt(h[s2][:s]) ** (1.0 - theta)
        out.append(_quotient(num, denom))
    return out


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


# ---------------------------------------------------------------------------
# Ensemble drivers.
# ---------------------------------------------------------------------------


def _aggregate(
    inequality: str,
    ratios: Sequence[float],
    spec: SampleSpec,
    threshold: float | None,
) -> RatioReport:
    """Report one row; every non-finite ratio is a violation and the first
    one is the witness, otherwise the largest ratio is."""
    arr = np.asarray(ratios, dtype=float)
    finite = np.isfinite(arr)
    worst = int(np.argmax(arr)) if finite.all() else int(np.argmin(finite))
    bad = ~finite if threshold is None else ~finite | (arr > threshold)
    return RatioReport(
        inequality=inequality,
        max_ratio=float(arr[worst]),
        median_ratio=float(np.median(arr)),
        violations=int(bad.sum()),
        witness_seed=spec.seed,
        witness_index=worst,
    )


def check_catalogue(
    grid: GridSpec, spec: SampleSpec, catalogue: Catalogue
) -> list[RatioReport]:
    """Every catalogue row over the ensemble, drawing each sample once."""
    rows = catalogue.rows(grid.dim)
    draws = 2 * spec.count if catalogue.paired else spec.count
    ratios = np.empty((len(rows), spec.count))
    for start in range(0, draws, 2 * _BLOCK_PAIRS):
        stop = min(start + 2 * _BLOCK_PAIRS, draws)
        coeffs = np.stack([draw_sample(grid, spec, i).coeffs for i in range(start, stop)])
        singles = max(0, min(stop, spec.count) - start)
        block = catalogue_ratios(grid, catalogue, coeffs, singles)
        for row, (_, _, paired), values in zip(ratios, rows, block):
            first = start // 2 if paired else start
            row[first : first + len(values)] = values
    return [
        _aggregate(name, row, spec, threshold)
        for row, (name, threshold, _) in zip(ratios, rows)
    ]


# One-row entry points.


def check_interp(grid: GridSpec, spec: SampleSpec) -> list[RatioReport]:
    return check_catalogue(grid, spec, Catalogue(interp=True))


def check_elliptic(grid: GridSpec, spec: SampleSpec) -> list[RatioReport]:
    return check_catalogue(grid, spec, Catalogue(elliptic=True))


def check_product_hs(grid: GridSpec, spec: SampleSpec, s: int) -> RatioReport:
    return check_catalogue(grid, spec, Catalogue(product_s=s))[0]


def check_cubic_lipschitz(grid: GridSpec, spec: SampleSpec, k_order: int) -> RatioReport:
    return check_catalogue(grid, spec, Catalogue(cubic_ks=(k_order,)))[0]


def check_cross_diff(grid: GridSpec, spec: SampleSpec, k: int) -> RatioReport:
    return check_catalogue(grid, spec, Catalogue(cross_ks=(k,)))[0]


def gn_check(
    grid: GridSpec, spec: SampleSpec, r: int, q: float, s1: int, s2: int
) -> RatioReport:
    return check_catalogue(grid, spec, Catalogue(gn=((r, q, s1, s2),)))[0]


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
