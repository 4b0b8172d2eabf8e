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

One pass evaluates a whole :class:`Catalogue` in two phases.  Phase 1
draws each sample once, in blocks of ``_BLOCK_PAIRS`` pairs (the
single-field rows reuse the first draws), and folds each block into
per-draw arrays as long as the ensemble: the lambda-moments, the
W^{k,inf} maxima and L^q sums per order, the cubic and cross sums and
the product numerator.  Within a block each padded derivative D^alpha
is synthesized once for the whole stack of draws.  The L2 norms of
band-limited fields come from coefficients by Parseval: the derivatives
of the projected cubic gap and of the pair gap u - v, which the padded
grid would integrate exactly anyway.  Phase 2 forms every ratio once,
as one array expression over the ensemble.  :func:`catalogue_ratios`
is one block followed by phase 2, so it runs the same code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import fields
from .fields import GridSpec, SpectralField

__all__ = [
    "SampleSpec",
    "RatioReport",
    "Catalogue",
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
# Pairs per block of draws.  A block holds a handful of (3, 2 * _BLOCK_PAIRS,
# *padded) stacks at once, so memory does not grow with the ensemble.  At
# the verify-inequalities defaults on a 2-vCPU Xeon, blocks of 2, 3, 4 and
# 6 pairs ran the catalogue in about 37, 35, 31 and 30 ms, with traced
# peaks of 0.56, 0.79, 1.04 and 1.53 MiB.
_BLOCK_PAIRS = 4

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


@lru_cache(maxsize=32)
def _order_weights(
    extents: tuple[float, ...], modes: tuple[int, ...], orders: tuple[int, ...]
) -> np.ndarray:
    """Row i: sum over |alpha| = orders[i] of prod_j (k_j pi / L_j)^(2 alpha_j),
    over the flattened mode box; read-only.

    Against squared coefficients, row i sums |D^alpha v|^2 over the
    order-``orders[i]`` multi-indices by Parseval: each D^alpha maps the
    orthonormal cosines to orthonormal cosines and sines.
    """
    dim = len(modes)
    mu = [
        ((np.arange(M) * np.pi / L) ** 2).reshape((M,) + (1,) * (dim - 1 - j))
        for j, (M, L) in enumerate(zip(modes, extents))
    ]
    weights = np.stack([
        sum(math.prod(m**a for m, a in zip(mu, alpha)) for alpha in _multi_indices(dim, k)).ravel()
        for k in orders
    ])
    weights.setflags(write=False)
    return weights


def _padded(grid: GridSpec, coeffs: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """D^alpha of a component-major (3, n, *modes) stack on the grid's
    padded nodes, (3, n, nodes)."""
    c, parities = fields._derivative_multiplier(coeffs, grid.extents, alpha)
    vals = fields._eval_series(c, grid.extents, parities, grid.padded(grid.points))
    return vals.reshape(vals.shape[:2] + (-1,))


def _cross_gap_sq(u: np.ndarray, du: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Node sums of |u x du - v x dv|^2 per pair, where u and v (du and dv)
    are draws 2i and 2i + 1 of (3, n, nodes) stacks; ``out`` is a
    (4, n, nodes) buffer."""
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        np.multiply(u[a], du[b], out=out[j])
        np.multiply(u[b], du[a], out=out[3])
        np.subtract(out[j], out[3], out=out[j])
    gap = np.subtract(out[:3, 0::2], out[:3, 1::2], out=out[:3, 0::2])
    return np.einsum("cpx,cpx->p", gap, gap)


class _Sums:
    """Per-draw sums of one ensemble, in arrays as long as the ensemble.

    Phase 1, :meth:`fold`, reduces one block of draws into its slice of
    every array; phase 2, :meth:`ratios`, forms every ratio once, as an
    array expression over the whole ensemble.  Draws are indexed as in
    :func:`catalogue_ratios`: single-field rows read the first
    ``singles``, pair rows the pairs (0, 1), (2, 3), ...
    """

    def __init__(self, grid: GridSpec, catalogue: Catalogue, draws: int, singles: int) -> None:
        self.grid, self.catalogue, self.singles = grid, catalogue, singles
        pairs, orders = draws // 2, catalogue.top_order + 1
        finite = [(r, q) for r, q, _, _ in catalogue.gn if not math.isinf(q)]
        self.qs = sorted({q for _, q in finite})
        self.q_orders = 1 + max((r for r, _ in finite), default=-1)
        self.mom = np.zeros((6, draws))  # |(-Lap)^(m/2) v|^2, m = 0..5
        # per order k: max over nodes and |alpha| <= k of |D^alpha v|^2, and
        # for each GN exponent q the sum over |alpha| <= k of |D^alpha v|_q^q,
        # up to the highest order a finite-q row reads
        self.w_inf = np.zeros((orders, draws))
        self.w_q = {q: np.zeros((self.q_orders, singles)) for q in self.qs}
        self.product = np.zeros(pairs)  # |(|u||v|)|_{H^s}^2, projected on the grid
        if catalogue.product_s is not None:  # sum_{j <= s} lambda^j on the grid's cosines
            lam_grid = fields.eigenvalue_array(grid, grid.points)
            self.product_weight = sum(lam_grid**j for j in range(int(catalogue.product_s) + 1))
        self.gap_mom = np.zeros((3, pairs))  # |(-Lap)^(m/2) (u - v)|^2, m = 0..2
        self.cubic = {k: np.zeros(pairs) for k in catalogue.cubic_ks}
        # per order k: |u x D^k u - v x D^k v|^2, |D^k (u - v)|^2 and ||u - v||D^k v||^2
        self.cross = {k: np.zeros((3, pairs)) for k in catalogue.cross_ks}

    def fold(self, coeffs: np.ndarray, start: int) -> None:
        """Reduce the (n, 3, *modes) stack of draws start .. start + n - 1."""
        grid, catalogue = self.grid, self.catalogue
        n, modes = len(coeffs), coeffs.shape[2:]
        drawn = slice(start, start + n)
        s = max(0, min(start + n, self.singles) - start)
        single, paired = slice(start, start + s), slice(start // 2, (start + n) // 2)
        weights = fields._ladder_weights(grid, modes)
        c2 = (coeffs * coeffs).sum(axis=1).reshape(n, -1)
        self.mom[:, drawn] = (weights[:, None] * c2).sum(axis=-1)
        if catalogue.paired:
            d = coeffs[0::2] - coeffs[1::2]
            d2 = (d * d).sum(axis=1).reshape(n // 2, -1)
            self.gap_mom[:, paired] = (weights[:3, None] * d2).sum(axis=-1)
            ks = tuple(self.cross)
            if ks:
                gap_sq = _order_weights(grid.extents, modes, ks) @ d2.T
                for k, row in zip(ks, gap_sq):
                    self.cross[k][1, paired] = row
        if catalogue.top_order < 0:
            return
        # component-major, so that each component of the block is one
        # contiguous run of nodes in the pointwise products below
        coeffs = np.ascontiguousarray(np.swapaxes(coeffs, 0, 1))

        # One padded synthesis per multi-index, shared by every row.  Orders
        # run upwards; after each, the running maxima and L^q sums become that
        # order's W^{k,inf} and W^{k,q} values.
        vol = grid.padded_cell(grid.points)
        running_max, running_q = np.zeros(n), {q: np.zeros(s) for q in self.qs}
        for order in range(catalogue.top_order + 1):
            qs = self.qs if order < self.q_orders else ()
            for alpha in _multi_indices(grid.dim, order):
                vals = _padded(grid, coeffs, alpha)
                mag2 = np.einsum("cnx,cnx->nx", vals, vals)
                np.maximum(running_max, mag2.max(axis=1), out=running_max)
                for q in qs:
                    running_q[q] += _per_draw(mag2[:s] ** (q / 2.0)) * vol
                if order == 0 and catalogue.paired:
                    self._fold_values(vals, mag2, paired)
                    base, gap_mag2 = vals, ((vals[:, 0::2] - vals[:, 1::2]) ** 2).sum(axis=0)
                    buffer = np.empty((4,) + vals.shape[1:]) if any(self.cross) else None
                if order in self.cross:
                    sums = self.cross[order][:, paired]
                    if order:  # u x u = 0, so order 0 leaves 0
                        sums[0] += _cross_gap_sq(base, vals, buffer) * vol
                    sums[2] += np.einsum("px,px->p", gap_mag2, mag2[1::2]) * vol
            self.w_inf[order, drawn] = running_max
            for q in qs:
                self.w_q[q][order, single] = running_q[q]

    def _fold_values(self, vals: np.ndarray, mag2: np.ndarray, paired: slice) -> None:
        """The rows that read only the padded values of the pairs: the
        product numerator and, by Parseval on the grid's cosines, the
        cubic gaps."""
        grid, catalogue = self.grid, self.catalogue
        all_cos, shape = ("cos",) * grid.dim, vals.shape[:2] + grid.padded(grid.points)
        if catalogue.cubic_ks:
            cubic = fields._transform_series(
                (mag2 * vals).reshape(shape), grid.extents, all_cos, grid.points
            )
            gap = cubic[:, 0::2] - cubic[:, 1::2]
            gap_sq = (gap * gap).sum(axis=0).reshape(gap.shape[1], -1)
            ks = tuple(self.cubic)
            weighted = _order_weights(grid.extents, grid.points, ks) @ gap_sq.T
            for k, row in zip(ks, weighted):
                self.cubic[k][paired] = row
        if catalogue.product_s is not None:
            mag = np.sqrt(mag2)
            product = fields._transform_series(
                (mag[0::2] * mag[1::2]).reshape((len(mag) // 2,) + shape[2:]),
                grid.extents, all_cos, grid.points,
            )
            self.product[paired] = _per_draw(self.product_weight * product**2)

    def ratios(self) -> list[np.ndarray]:
        """Ratio arrays of every catalogue row, in row order."""
        catalogue, s, mom, w_inf = self.catalogue, self.singles, self.mom, self.w_inf
        h = np.cumsum(mom, axis=0)  # squared H^s norms, s = 0..5
        out = []
        if catalogue.interp:
            m1, m2, m3, m4 = mom[1:5, :s]
            out.append(_quotient(m2, np.sqrt(m1) * np.sqrt(m3)))
            out.append(_quotient(m3, np.sqrt(m2) * np.sqrt(m4)))
        if catalogue.elliptic:
            m, hs = mom[:, :s], h[:, :s]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = (
                    hs[2] / (m[0] + m[2]),
                    m[1] / (m[0] + m[2]),
                    hs[3] / (m[0] + m[1] + m[3]),
                    hs[4] / (m[0] + m[2] + m[4]),
                    hs[5] / (m[0] + m[1] + m[3] + m[5]),
                )
            out += [np.where(hs[5] < _ZERO_CUT, 0.0, r) for r in ratios]
        if catalogue.product_s is not None:
            sp = int(catalogue.product_s)
            out.append(_quotient(np.sqrt(self.product), np.sqrt(h[sp][0::2]) * np.sqrt(h[sp][1::2])))
        h_gap = np.cumsum(self.gap_mom, axis=0)
        for k in catalogue.cubic_ks:
            denom = (w_inf[k][0::2] + w_inf[k][1::2]) * np.sqrt(h_gap[k])
            out.append(_quotient(np.sqrt(self.cubic[k]), denom))
        for k in catalogue.cross_ks:
            lhs, gap_sq, mixed_sq = self.cross[k]
            rhs = np.sqrt(w_inf[0][0::2]) * np.sqrt(gap_sq) + np.sqrt(mixed_sq)
            out.append(_quotient(np.sqrt(lhs), rhs))
        for r, q, s1, s2 in catalogue.gn:
            theta = float(gn_theta(self.grid.dim, q, r, s1, s2))
            num = np.sqrt(w_inf[r][:s]) if math.isinf(q) else self.w_q[q][r] ** (1.0 / q)
            denom = np.sqrt(h[s1][:s]) ** theta * np.sqrt(h[s2][:s]) ** (1.0 - theta)
            out.append(_quotient(num, denom))
        return out


def catalogue_ratios(
    grid: GridSpec, catalogue: Catalogue, coeffs: np.ndarray, singles: int | None = None
) -> list[np.ndarray]:
    """Ratio arrays of every catalogue row, in row order, over a stack of draws.

    ``coeffs`` is an ``(n, 3, *modes)`` stack.  Single-field rows read its
    first ``singles`` draws (default: all), pair rows its pairs (0, 1),
    (2, 3), ...  Every ratio is scale-invariant in its field arguments.
    The stack is one block of :func:`check_catalogue`.
    """
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    if catalogue.paired and n % 2:
        raise ValueError(f"pair rows need an even number of draws, got {n}")
    sums = _Sums(grid, catalogue, n, n if singles is None else singles)
    sums.fold(c, 0)
    return sums.ratios()


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
    sums = _Sums(grid, catalogue, draws, spec.count)
    for start in range(0, draws, 2 * _BLOCK_PAIRS):
        stop = min(start + 2 * _BLOCK_PAIRS, draws)
        sums.fold(fields._draws(grid, spec.modes, spec.seed, range(start, stop), 0.0), start)
    return [
        _aggregate(name, row, spec, threshold)
        for row, (name, threshold, _) in zip(sums.ratios(), rows)
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
