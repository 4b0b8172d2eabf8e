"""Vector fields on Neumann boxes and their cosine-spectral twins.

The domain is an axis-aligned box discretized by midpoint grids; the
Neumann Laplacian eigenbasis is then the tensor-product cosine family

    e_k(x) = prod_j e_{k_j}(x_j),   e_0 = sqrt(1/L),  e_k = sqrt(2/L) cos(k pi x / L),

with eigenvalues lambda(k) = sum_j (k_j pi / L_j)^2.  All coefficients in
this module are with respect to that L2-orthonormal basis, so Parseval is
an exact identity for band-limited fields.

Transforms ride on the orthonormal DCT-II/DST-II pair (midpoint
collocation), one axis at a time: an axis of at most _MATRIX_MAX_POINTS
points, of either parity, is a product with a numpy-built dense matrix,
and a longer axis is one pocketfft pass (``scipy.fft``, imported there
only).  With norm='ortho' on an N-point axis of length L the scale
bridge between samples and basis coefficients is a bare factor
sqrt(L/N) per axis, and zero-padding coefficients before the inverse
transform evaluates the same continuum field on a finer midpoint grid.
Odd derivatives flip an axis to sine parity; sine frequencies k = 1..P
live in DST index k-1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

__all__ = [
    "GridSpec",
    "VectorField",
    "SpectralField",
    "SnapshotError",
    "forward",
    "inverse",
    "eigenvalue_array",
    "random_field",
    "read_snapshot",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"LLBR"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a tensor-product midpoint grid.

    Parameters
    ----------
    extents : tuple of float
        Box edge lengths L_j > 0, one per axis; len gives the dimension d in {1,2,3}.
    points : tuple of int
        Grid sizes N_j >= 4 per axis.
    dealias_pad : int
        Oversampling factor (>= 1) for pointwise products: :meth:`padded`
        gives ``dealias_pad * M_j`` midpoints per axis for an M_j-mode band.
        The default 2 keeps the band's cubic projections exact; 1 aliases them.
    """

    extents: tuple[float, ...]
    points: tuple[int, ...]
    dealias_pad: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "points", tuple(int(N) for N in self.points))
        if not 1 <= len(self.extents) <= 3:
            raise ValueError(f"dim must be 1, 2 or 3, got {len(self.extents)}")
        if len(self.points) != len(self.extents):
            raise ValueError(
                f"points has {len(self.points)} axes but extents has {len(self.extents)}"
            )
        for L in self.extents:
            if not (np.isfinite(L) and L > 0):
                raise ValueError(f"extents must be positive and finite, got {L}")
        for N in self.points:
            if N < 4:
                raise ValueError(f"need at least 4 points per axis, got {N}")
        if int(self.dealias_pad) < 1:
            raise ValueError(f"dealias_pad must be >= 1, got {self.dealias_pad}")
        object.__setattr__(self, "dealias_pad", int(self.dealias_pad))

    @property
    def dim(self) -> int:
        return len(self.extents)

    def padded(self, modes: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dealias_pad * M for M in modes)

    def padded_cell(self, modes: tuple[int, ...]) -> float:
        """Cell volume of the band's padded midpoint grid."""
        return math.prod(L / P for L, P in zip(self.extents, self.padded(modes)))


def _check_finite(name: str, data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        bad = int(np.size(data) - np.isfinite(data).sum())
        raise ValueError(f"{name} contains {bad} non-finite entries")


@dataclass(frozen=True, eq=False)
class VectorField:
    """Samples of u: box -> R^3, stored as data[component, i1, ..., id]."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        expected = (3,) + self.grid.points
        if data.shape != expected:
            raise ValueError(f"VectorField data shape {data.shape}, expected {expected}")
        _check_finite("VectorField", data)
        object.__setattr__(self, "data", data)


@lru_cache(maxsize=32)
def eigenvalue_array(grid: GridSpec, modes: tuple[int, ...]) -> np.ndarray:
    """lambda(k) = sum_j (k_j pi / L_j)^2 on the given mode box, shape = modes.

    Built once per (grid, modes) and read-only: the cache hands the same
    array to every caller.
    """
    per_axis = [
        (np.arange(M) * np.pi / L) ** 2 for M, L in zip(modes, grid.extents)
    ]
    lam = per_axis[0]
    for arr in per_axis[1:]:
        lam = lam[..., None] + arr
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=32)
def _ladder_weights(grid: GridSpec, modes: tuple[int, ...]) -> np.ndarray:
    """lambda(k)**m for m = 0..5 over the flattened mode box, read-only.

    Row m summed against the squared coefficients is |(-Lap)^(m/2) v|^2
    by Parseval: the L2 ladder of the norm suite and of the inequality
    catalogue.
    """
    lam = eigenvalue_array(grid, modes).ravel()
    weights = np.stack([lam**m for m in range(6)])
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Cosine-basis coefficients of a vector field on a retained mode band.

    coeffs[component, k1, ..., kd] multiplies the orthonormal basis function
    e_k, so sum(coeffs**2) is exactly the squared L2 norm.  A band is just
    this ``modes`` tuple, and this is the one place it is checked against
    the grid: one count per axis, each in ``[1, points]``.  An (n, 3,
    *modes) array holds a stack of n fields on one band, which
    ``galerkin.project``, ``nonlinear_term`` and ``rhs``, ``stepping.step``
    and ``integrate``, and ``operators.padded_values`` and ``padded_sup``
    take in one pass; everything else takes a single field.
    """

    grid: GridSpec
    modes: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(int(M) for M in self.modes))
        if len(self.modes) != self.grid.dim:
            raise ValueError(f"modes has {len(self.modes)} axes, grid has {self.grid.dim}")
        for M, N in zip(self.modes, self.grid.points):
            if not 1 <= M <= N:
                raise ValueError(f"mode count {M} outside [1, {N}]")
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        expected = (3,) + self.modes
        if coeffs.shape[-len(expected) :] != expected or coeffs.ndim > len(expected) + 1:
            raise ValueError(
                f"SpectralField coeffs shape {coeffs.shape}, expected {expected} or a stack of them"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def eigenvalues(self) -> np.ndarray:
        return eigenvalue_array(self.grid, self.modes)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.modes, self.coeffs.copy())


# ---------------------------------------------------------------------------
# Low-level transforms, one axis at a time.
#
# Coefficient arrays are always indexed by frequency k along every axis.
# Parity 'cos' means basis sqrt(2-ish/L) cos(k pi x/L); parity 'sin' means
# sqrt(2/L) sin(k pi x/L) with the k=0 slot required to be zero.
#
# An axis of at most _MATRIX_MAX_POINTS grid points, of either parity, is
# a dense matrix product (BLAS GEMM); a longer axis is one pocketfft pass.
# On short axes the matrix product beats pocketfft plus scipy's dispatch
# layers; on long axes the O(P log P) transform wins.  In 1-d, with the
# band at half the padded grid, the measured crossover lies between 256
# and 320 points.
# ---------------------------------------------------------------------------

_MATRIX_MAX_POINTS = 256


@lru_cache(maxsize=32)
def _axis_matrices(parity: str, M: int, P: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense orthonormal DCT-II or DST-II pair between M modes and P midpoints on [0, L].

    Returns the synthesis matrix (P x M; zero-padding built in) and the
    analysis matrix (M x P; truncation built in), with the sqrt(P/L) and
    sqrt(L/P) basis scales folded in.  Sine frequency k is DST row k-1, so
    the sine k=0 row is zero.  Both are read-only: the cache hands the
    same arrays to every caller.
    """
    # basis[k, p] = cos(pi m / 2P), m = k(2p+1) less P for sine, reduced exactly
    # mod 4P and read from one quarter-wave table with q[P] = 0: mirrored nodes
    # give exactly negated entries (odd cosine rows sum to 0), sine row 0 is 0
    quarter = np.cos(np.arange(P + 1) * (np.pi / (2 * P)))
    quarter[P] = 0.0
    half = np.concatenate([quarter, -quarter[-2::-1]])  # cos on [0, pi]
    m = (np.arange(M)[:, None] * (2 * np.arange(P) + 1) - P * (parity == "sin")) % (4 * P)
    scale = np.where(np.arange(M)[:, None] == 0, math.sqrt(1 / P), math.sqrt(2 / P))
    basis = half[np.minimum(m, 4 * P - m)] * scale
    synthesis = np.ascontiguousarray(basis.T) * np.sqrt(P / L)
    analysis = basis * np.sqrt(L / P)
    synthesis.setflags(write=False)
    analysis.setflags(write=False)
    return synthesis, analysis


@lru_cache(maxsize=32)
def _axis_transposes(parity: str, M: int, P: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """C-contiguous, read-only copies of the transposed :func:`_axis_matrices` pair.

    A last-axis pass multiplies its rows on the right by a transpose.
    Against these copies OpenBLAS ran the d=2 products 1.5-1.8 times
    faster than against the transposed views.
    """
    transposes = tuple(np.ascontiguousarray(m.T) for m in _axis_matrices(parity, M, P, L))
    for m in transposes:
        m.setflags(write=False)
    return transposes


def _pocketfft_synthesis(arr: np.ndarray, *, axis: int, P: int, L: float, shift: int) -> np.ndarray:
    from scipy import fft as sfft
    # pocketfft zero-pads to n=P; the sine k=0 slot is dropped
    inverse_pass = sfft.idst if shift else sfft.idct
    return inverse_pass(
        arr[_along(axis, slice(shift, None))] * math.sqrt(P / L),
        type=2, n=P, axis=axis, norm="ortho",
    )


def _pocketfft_analysis(arr: np.ndarray, *, axis: int, M: int, P: int, L: float, shift: int) -> np.ndarray:
    from scipy import fft as sfft
    # keep the first M frequencies; DST index k-1 holds sine frequency k
    forward_pass = sfft.dst if shift else sfft.dct
    full = forward_pass(arr, type=2, norm="ortho", axis=axis)
    kept = np.zeros(arr.shape[:axis] + (M,) + arr.shape[axis + 1 :])
    kept[_along(axis, slice(shift, M))] = full[_along(axis, slice(0, M - shift))] * math.sqrt(L / P)
    return kept


@lru_cache(maxsize=128)
def _passes(
    shape: tuple[int, ...],
    extents: tuple[float, ...],
    parities: tuple[str, ...],
    sizes: tuple[int, ...],
    synthesis: bool,
    matrix_max: int,
) -> tuple[tuple, tuple[int, ...]]:
    """The axis passes that take an array of ``shape`` to ``sizes`` along
    its last ``len(extents)`` axes, and the shape they leave; cached, so
    a transform looks up its matrices, reshapes and sizes once.

    Synthesis (``sizes`` are points) goes last axis first, so the earlier
    passes run on the still-truncated slab; analysis (``sizes`` are
    modes) goes first axis first and truncates each axis as soon as it is
    transformed.  A pass is ``(fft, matrix, left, stacked_in, stacked_out,
    size)``.  A matrix pass is a stack of plain 2-D GEMMs on contiguous
    operands: ``matrix @ slab`` (``left``) for each slab of the axes
    before ``axis``, or, on the last axis, ``rows @ transpose`` for each
    slab of the leading axis.  OpenBLAS hands a product to its worker
    threads only above 2**18 multiply-adds, so per-slab products keep d=2
    grids up to N = 32 on the calling thread.  An axis longer than
    ``matrix_max`` points is a pocketfft pass, ``fft``.
    """
    lead = len(shape) - len(extents)
    shape = list(shape)
    plan = []
    for j in reversed(range(len(extents))) if synthesis else range(len(extents)):
        axis, n_in, n_out = lead + j, shape[lead + j], sizes[j]
        M, P = (n_in, n_out) if synthesis else (n_out, n_in)
        if synthesis and M > P:
            raise ValueError(f"cannot evaluate {M} modes on {P} points along axis {j}")
        before, after = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
        shift, which = int(parities[j] == "sin"), 0 if synthesis else 1
        if P > matrix_max:
            fft = (
                partial(_pocketfft_synthesis, axis=axis, P=P, L=extents[j], shift=shift)
                if synthesis
                else partial(_pocketfft_analysis, axis=axis, M=M, P=P, L=extents[j], shift=shift)
            )
            plan.append((fft, None, False, tuple(shape), None, 0))
        elif axis < len(shape) - 1:
            matrix = _axis_matrices(parities[j], M, P, extents[j])[which]
            stacked = (before, n_in, after), (before, n_out, after)
            plan.append((None, matrix, True, *stacked, before * n_out * after))
        else:
            matrix = _axis_transposes(parities[j], M, P, extents[j])[which]
            rows = (before,) if len(shape) < 3 else (shape[0], before // shape[0])
            plan.append((None, matrix, False, rows + (n_in,), rows + (n_out,), before * n_out))
        shape[axis] = n_out
    return tuple(plan), tuple(shape)


def _replay(
    plan: tuple, arr: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None
) -> np.ndarray:
    """Run the passes of a :func:`_passes` plan on ``arr``; matrix pass n
    writes ``work[n % 2]`` when ``work`` is given, a fresh array otherwise."""
    arr = np.ascontiguousarray(arr)
    for n, (fft, matrix, left, stacked_in, stacked_out, size) in enumerate(plan):
        arr = arr.reshape(stacked_in)
        if fft is not None:
            arr = fft(arr)
            continue
        out = None if work is None else work[n % 2][:size].reshape(stacked_out)
        arr = np.matmul(matrix, arr, out=out) if left else np.matmul(arr, matrix, out=out)
    return arr


def _along(axis: int, index: slice) -> tuple[slice, ...]:
    return (slice(None),) * axis + (index,)


_PAGE_BYTES = 4096


def _page_aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` that starts on a 4 KiB page.

    The hot loops read some arrays and write others, pass after pass.  A
    written array that starts a few bytes past a read one, modulo 4 KiB,
    makes each load wait on the store just before it whose low address
    bits it matches (4K aliasing).  Where heap placement put the arrays
    so, the pointwise products of the d=2 nonlinear term ran up to 1.5
    times slower on a 2-vCPU Xeon, and a product of two 3 x 32^2
    coefficient arrays 1.7 times slower.  On page-aligned arrays rows of
    equal index share their offset, and where a row holds a multiple of
    512 entries (any power-of-two padded grid of at least 512 nodes) all
    rows fill whole pages, so no such pair arises.
    """
    size = math.prod(shape)
    raw = np.empty(size + _PAGE_BYTES // 8)
    start = -raw.ctypes.data % _PAGE_BYTES // 8
    return raw[start : start + size].reshape(shape)


def _per_component(table: np.ndarray) -> np.ndarray:
    """A read-only, page-aligned copy of a per-mode table repeated over
    the three components: multiplying a coefficient block by it gives
    the bits of the broadcast product, faster.  With broadcast tables
    the ``run-d2-full-band`` benchmark's median ``op_s`` read 0.825 s
    against 0.787 s (10 alternating pairs on a 2-vCPU Xeon)."""
    stacked = _page_aligned((3,) + table.shape)
    stacked[...] = table
    stacked.setflags(write=False)
    return stacked


def _series_work(
    components: int, modes: tuple[int, ...], points: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """A pair of flat buffers with room for every pass of either series loop.

    Evaluating a ``(components, *modes)`` array on ``points`` takes one
    pass per axis, last axis first; pass n writes buffer n % 2, so each
    buffer is sized for the largest pass that writes it.  Projecting
    back with :func:`_transform_series` (first axis first) fits in the
    same pair: with modes <= points, its pass n is never larger than
    the evaluation pass n that writes the same buffer.
    """
    sizes = [
        components * math.prod(modes[:j]) * math.prod(points[j:])
        for j in reversed(range(len(modes)))
    ]
    return tuple(_page_aligned((max(sizes[k::2], default=0),)) for k in (0, 1))


@lru_cache(maxsize=4)
def _padded_work(dealias_pad: int, modes: tuple[int, ...], lead: tuple[int, ...]) -> tuple:
    """Padded-grid work set for one band, shared by its two users.

    ``diagnostics.norms`` and ``galerkin.nonlinear_term`` draw every
    padded-grid array from it.  Neither calls the other, and each
    reduces what it needs to scalars or fresh arrays before it returns,
    so nothing a caller holds points into the set; the next call simply
    overwrites it.  The arrays depend on the band's padded grid only, so
    the set is keyed by ``(dealias_pad, modes)`` and boxes of any extents
    share it, and by the ``lead`` shape of a stack of fields (``()`` for
    one field; ``norms`` takes one).  An entry holds at most about 22
    doubles per node of the padded grid and field (about 0.7 MiB for one
    8^3 band, padded to 16^3); four entries hold the three bands of
    ``llbar converge`` without eviction.  The set is not thread-safe: two
    threads evaluating on one band at once would overwrite each other's
    arrays.
    """
    points, n = tuple(dealias_pad * M for M in modes), math.prod(lead)
    return (
        _page_aligned((6,) + lead + modes),  # coefficients of u and Lap u
        _series_work(6 * n, modes, points),  # u and Lap u; projection of 6 products
        _series_work(3, modes, points),  # one Jacobian column d_j u
        _page_aligned((8,) + lead + (math.prod(points),)),  # node vectors
    )


def _eval_series(
    coeffs: np.ndarray,
    extents: tuple[float, ...],
    parities: tuple[str, ...],
    out_points: tuple[int, ...],
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Evaluate a frequency-indexed coefficient array on a midpoint grid.

    Axes go last first, so the earlier passes run on the still-truncated
    slab.  With ``work`` (see :func:`_series_work`; it must not overlap
    ``coeffs``) the matrix passes write into its two buffers in turn
    instead of fresh arrays, so the result may be a view into ``work``
    that the next call with the same pair overwrites.  Pocketfft passes
    (axes longer than _MATRIX_MAX_POINTS) leave ``work`` unused.
    """
    plan, shape = _passes(coeffs.shape, extents, parities, out_points, True, _MATRIX_MAX_POINTS)
    return _replay(plan, coeffs, work).reshape(shape)


def _transform_series(
    values: np.ndarray,
    extents: tuple[float, ...],
    parities: tuple[str, ...],
    modes: tuple[int, ...],
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Project midpoint-grid samples onto frequency-indexed coefficients.

    Each axis is truncated as soon as it is transformed, so the later
    passes work on the reduced slab.  ``work`` works as in
    :func:`_eval_series` (it must not overlap ``values``): the matrix
    passes write into its two buffers in turn, and the result may be a
    view into it.
    """
    plan, shape = _passes(values.shape, extents, parities, modes, False, _MATRIX_MAX_POINTS)
    return _replay(plan, values, work).reshape(shape)


_DERIV_SIGN = (1.0, -1.0, -1.0, 1.0)  # d^m/dx^m cos: sign pattern by m mod 4


@lru_cache(maxsize=64)
def _derivative_factors(
    extents: tuple[float, ...], modes: tuple[int, ...], orders: tuple[int, ...]
) -> tuple[tuple[np.ndarray, ...], tuple[str, ...]]:
    """The per-axis multipliers of d^orders on a ``modes`` box, each shaped
    to broadcast along its own axis, and the parities they leave; cached
    and read-only."""
    factors, parities = [], []
    for j, (m, M, L) in enumerate(zip(orders, modes, extents)):
        parities.append("sin" if m % 2 else "cos")
        if m:
            factor = (_DERIV_SIGN[m % 4] * (np.arange(M) * np.pi / L) ** m).reshape(
                (M,) + (1,) * (len(modes) - 1 - j)
            )
            factor.setflags(write=False)
            factors.append(factor)
    return tuple(factors), tuple(parities)


def _derivative_multiplier(
    coeffs: np.ndarray, extents: tuple[float, ...], orders: tuple[int, ...]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Apply d^orders to a cosine-parity coefficient array.

    Returns the new frequency-indexed coefficients (a fresh array)
    together with the resulting per-axis parity ('sin' wherever the
    order is odd).
    """
    factors, parities = _derivative_factors(
        tuple(extents), coeffs.shape[coeffs.ndim - len(extents) :], tuple(orders)
    )
    arr = coeffs
    for factor in factors:
        arr = arr * factor
    return (coeffs.copy() if arr is coeffs else arr), parities


# ---------------------------------------------------------------------------
# Public transforms.
# ---------------------------------------------------------------------------


def forward(u: VectorField) -> SpectralField:
    """Orthonormal cosine expansion of a sampled field on all of its grid,
    exact (to rounding) for fields band-limited to the grid."""
    grid = u.grid
    all_cos = ("cos",) * grid.dim
    coeffs = _transform_series(u.data, grid.extents, all_cos, grid.points)
    return SpectralField(grid, grid.points, coeffs)


def inverse(s: SpectralField) -> VectorField:
    """Evaluate a spectral field on its grid's midpoints."""
    grid = s.grid
    all_cos = ("cos",) * grid.dim
    values = _eval_series(s.coeffs, grid.extents, all_cos, grid.points)
    return VectorField(grid, values)


# ---------------------------------------------------------------------------
# Seeded fields (counter-based, reproducible).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _normals() -> np.random.Generator:
    """The one Philox4x64-10 generator that :func:`random_field` re-keys
    for every draw: building a fresh one per draw also seeds a throwaway
    SeedSequence from OS entropy, and took twice as long.  Shared, so not
    for concurrent use; built on first use, so importing llbar does not
    import numpy.random."""
    return np.random.Generator(np.random.Philox(0))


def random_field(
    grid: GridSpec,
    modes: tuple[int, ...],
    seed: int,
    index: int = 0,
    decay: float = 0.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Random band-limited field with per-mode Gaussian coefficients.

    Coefficients are i.i.d. standard normals scaled by
    ``amplitude * (1 + lambda(k))**(-decay/2)``; ``decay = 0`` is the flat
    law stressing inequalities hardest.  The stream is the counter-based
    Philox4x64-10 generator keyed by ``(seed, index)``, each masked to 64
    bits, so sample ``index`` of a batch is reproducible in isolation.
    """
    if decay < 0:
        raise ValueError(f"decay exponent must be >= 0, got {decay}")
    coeffs = _draws(grid, tuple(modes), seed, (index,), decay)[0]
    return SpectralField(grid, tuple(modes), amplitude * coeffs)


def _draws(
    grid: GridSpec, modes: tuple[int, ...], seed: int, indices: Sequence[int], decay: float
) -> np.ndarray:
    """The coefficients of the :func:`random_field` draws ``indices`` of
    ``seed`` at amplitude 1, as one (n, 3, *modes) stack: the ensembles'
    blocks, each draw's normals written straight into its row."""
    gen, blank = _normals(), np.zeros(4, np.uint64)
    out = np.empty((len(indices), 3) + modes)
    for row, index in zip(out, indices):
        key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
        gen.bit_generator.state = {  # counter 0 and an empty buffer: a fresh Philox(key=key)
            "bit_generator": "Philox", "state": {"counter": blank, "key": key},
            "buffer": blank, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        gen.standard_normal(out=row)
    if decay > 0.0:
        out *= (1.0 + eigenvalue_array(grid, modes)) ** (-decay / 2.0)
    return out


# ---------------------------------------------------------------------------
# Snapshot files: "LLBR" | version u32 | dim u32 | N_j u32... | L_j f64... |
# 3*prod(N) f64 samples, row-major over nodes with the component index
# innermost.  Everything little-endian.
# ---------------------------------------------------------------------------


class SnapshotError(Exception):
    """Malformed or mismatched snapshot file."""


def write_snapshot(path, u: VectorField) -> None:
    grid = u.grid
    header = SNAPSHOT_MAGIC
    header += struct.pack("<II", SNAPSHOT_VERSION, grid.dim)
    header += struct.pack(f"<{grid.dim}I", *grid.points)
    header += struct.pack(f"<{grid.dim}d", *grid.extents)
    # node-major, component innermost; written through the buffer protocol
    body = np.ascontiguousarray(np.moveaxis(u.data, 0, -1), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_snapshot(path, dealias_pad: int = 2) -> VectorField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise SnapshotError(f"{path}: header truncated at {len(raw)} bytes")
    version, dim = struct.unpack_from("<II", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    if not 1 <= dim <= 3:
        raise SnapshotError(f"{path}: bad dimension {dim}")
    offset = 12 + 12 * dim
    if len(raw) < offset:
        raise SnapshotError(f"{path}: header truncated at {len(raw)} bytes, expected {offset}")
    points = struct.unpack_from(f"<{dim}I", raw, 12)
    extents = struct.unpack_from(f"<{dim}d", raw, 12 + 4 * dim)
    count = 3 * int(np.prod(points))
    expected = offset + 8 * count
    if len(raw) != expected:
        raise SnapshotError(f"{path}: payload {len(raw) - offset} bytes, expected {8 * count}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    data = np.moveaxis(flat.reshape(points + (3,)), -1, 0)
    grid = GridSpec(extents, points, dealias_pad=dealias_pad)
    return VectorField(grid, data.copy())
