"""Norm ledger, balance residuals, comparison-ODE bounds, dependence.

The single-mode norm suite is frozen against hand-computed integrals
(int cos^4 = 3/8, int cos^6 = 5/16 over one period-half), so the ledger
columns are certified against paper arithmetic, not a second code path.
"""

from __future__ import annotations

import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llbar import diagnostics, fields, stepping
from llbar.diagnostics import EnergyLedger, NormSuite
from llbar.fields import GridSpec, SpectralField
from llbar.galerkin import LLBarParams
from llbar.stepping import IntegratorPolicy, Trajectory, integrate

PARAMS = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)

SMOOTH = dict(seed=7, decay=6.0, amplitude=0.8)


def smooth_run(dt: float, t_end: float = 0.2, points: int = 32) -> Trajectory:
    grid = GridSpec(extents=(1.0,), points=(points,))
    u0 = fields.random_field(grid, (points,), **SMOOTH)
    policy = IntegratorPolicy(dt=dt, t_end=t_end)
    traj = stepping.integrate(u0, PARAMS, policy, cadence=1)
    assert not traj.aborted
    return traj


def test_single_mode_norm_suite_closed_form():
    # u = (e_1, 0, 0) on [0,1]:  |u| = sqrt(2)|cos(pi x)|
    grid = GridSpec(extents=(1.0,), points=(16,))
    coeffs = np.zeros((3, 16))
    coeffs[0, 1] = 1.0
    s = SpectralField(grid=grid, modes=(16,), coeffs=coeffs)
    n = diagnostics.norms(s, t=0.25)
    assert n.t == 0.25
    assert n.L2 == pytest.approx(1.0, rel=1e-13)
    assert n.L4 == pytest.approx(1.5**0.25, rel=1e-13)       # int 4cos^4 = 3/2
    assert n.L6 == pytest.approx(2.5 ** (1 / 6), rel=1e-13)  # int 8cos^6 = 5/2
    # the sup is taken on the 32-point midpoint grid, whose first node sits
    # at x = 1/64: the discrete max of sqrt(2)|cos(pi x)| lands there exactly
    assert n.Linf == pytest.approx(math.sqrt(2.0) * math.cos(math.pi / 64), rel=1e-13)
    for level, name in enumerate(
        ["gradL2", "deltaL2", "gradDeltaL2", "delta2L2", "gradDelta2L2"], start=1
    ):
        assert getattr(n, name) == pytest.approx(math.pi**level, rel=1e-12), name
    # u . u_x = -pi sin(2 pi x) and |u||u_x| = pi |sin(2 pi x)|
    assert n.uDotGradU == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    assert n.absUabsGradU == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    # u . Du = -2 pi^2 cos^2, |u||Du| likewise
    assert n.uDotDeltaU == pytest.approx(math.pi**2 * math.sqrt(1.5), rel=1e-12)
    assert n.absUabsDeltaU == pytest.approx(math.pi**2 * math.sqrt(1.5), rel=1e-12)


def _closed_form_samples(coeffs, grid, orders, points):
    """d^orders of a cosine series at the midpoints, summed from the basis formula."""
    out = coeffs
    for j, (L, P, m) in enumerate(zip(grid.extents, points, orders)):
        k = np.arange(coeffs.shape[1 + j])
        x = (np.arange(P) + 0.5) * L / P
        scale = np.where(k == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L)) * (k * np.pi / L) ** m
        phase = np.outer(x, k * np.pi / L) + m * np.pi / 2  # d/dx cos = cos(. + pi/2)
        out = np.tensordot(out, np.cos(phase) * scale, axes=(1, 1))  # axis j -> last
    return out


@pytest.mark.parametrize(
    "extents, points, modes",
    [
        ((1.0,), (12,), (12,)),
        ((1.3,), (12,), (7,)),
        ((1.0, 0.8), (10, 8), (10, 8)),
        ((1.0, 0.8), (10, 8), (6, 5)),
        ((1.0, 0.8, 1.2), (8, 6, 8), (8, 6, 8)),
        ((1.0, 0.8, 1.2), (8, 6, 8), (5, 4, 3)),
    ],
)
def test_norm_suite_matches_whole_array_formulas(extents, points, modes):
    # every reading again, from the full Jacobian and whole-array numpy on
    # the band's padded grid, with samples summed from the closed-form basis
    grid = GridSpec(extents=extents, points=points)
    dim, pts = grid.dim, grid.padded(modes)
    s = fields.random_field(grid, modes, seed=11, decay=2.0, amplitude=0.9)
    lam = sum(
        np.reshape((np.arange(M) * np.pi / L) ** 2, [-1 if a == j else 1 for a in range(dim)])
        for j, (M, L) in enumerate(zip(modes, extents))
    )
    unit = (0,) * dim
    axis = [tuple(int(a == j) for a in range(dim)) for j in range(dim)]

    def samples(m, orders=unit):  # d^orders Lap^m u
        return _closed_form_samples((-lam) ** m * s.coeffs, grid, orders, pts)

    def jacobian(m):  # grad Lap^m u, shape (3, dim, *pts)
        return np.stack([samples(m, orders) for orders in axis], axis=1)

    vol = np.prod([L / P for L, P in zip(extents, pts)])
    u, lap, jac = samples(0), samples(1), jacobian(0)
    mag2 = (u**2).sum(axis=0)
    expected = dict(
        L2=np.sqrt(mag2.sum() * vol),
        L4=(mag2**2).sum() ** 0.25 * vol**0.25,
        L6=(mag2**3).sum() ** (1 / 6) * vol ** (1 / 6),
        Linf=np.sqrt(mag2.max()),
        gradL2=np.sqrt((jac**2).sum() * vol),
        deltaL2=np.sqrt((lap**2).sum() * vol),
        gradDeltaL2=np.sqrt((jacobian(1) ** 2).sum() * vol),
        delta2L2=np.sqrt((samples(2) ** 2).sum() * vol),
        gradDelta2L2=np.sqrt((jacobian(2) ** 2).sum() * vol),
        uDotGradU=np.sqrt((np.einsum("c...,cj...->j...", u, jac) ** 2).sum() * vol),
        absUabsGradU=np.sqrt((mag2 * (jac**2).sum(axis=(0, 1))).sum() * vol),
        uDotDeltaU=np.sqrt(((u * lap).sum(axis=0) ** 2).sum() * vol),
        absUabsDeltaU=np.sqrt((mag2 * (lap**2).sum(axis=0)).sum() * vol),
    )
    suite = diagnostics.norms(s, t=0.5)
    for name, value in expected.items():
        assert getattr(suite, name) == pytest.approx(value, rel=1e-13, abs=0.0), name
    # the work buffers are shared per (grid, modes): another field in
    # between must leave no trace in the next suite of the first
    other = fields.random_field(grid, modes, seed=12, decay=0.0, amplitude=3.0)
    assert diagnostics.norms(other, t=0.5) != suite
    assert diagnostics.norms(s, t=0.5) == suite


def test_norm_suite_reuses_its_buffers():
    # fresh padded-grid arrays cost first-touch page faults (about 2,000
    # per call here); the suite writes into buffers reused from call to call
    grid = GridSpec(extents=(1.0, 0.8, 1.2), points=(16, 16, 16))
    s = fields.random_field(grid, (8, 8, 8), seed=1, decay=4.0, amplitude=0.8)
    diagnostics.norms(s)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        diagnostics.norms(s)
    per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
    assert per_call < 100, f"{per_call} minor page faults per norms call"


def test_norm_suite_rejects_inconsistent_entries():
    base = dict(
        t=0.0, L2=1.0, L4=1.0, L6=1.0, Linf=1.0,
        gradL2=1.0, deltaL2=1.0, gradDeltaL2=1.0,
        delta2L2=1.0, gradDelta2L2=1.0,
        uDotGradU=0.0, absUabsGradU=0.0, uDotDeltaU=0.0, absUabsDeltaU=0.0,
    )
    NormSuite(**base)
    with pytest.raises(ValueError, match="nonnegative"):
        NormSuite(**{**base, "L4": -1.0})
    with pytest.raises(ValueError, match="finite"):
        NormSuite(**{**base, "L6": float("inf")})
    # |Dv|^2 <= |grad v| |grad Dv| is structural, not just plausible
    with pytest.raises(ValueError, match="interpolation"):
        NormSuite(**{**base, "deltaL2": 2.0})


def test_ledger_header_and_row_format():
    assert diagnostics.LEDGER_HEADER == (
        "t,L2,L4,L6,Linf,gradL2,deltaL2,gradDeltaL2,delta2L2,gradDelta2L2,"
        "uDotGradU,absUabsGradU,uDotDeltaU,absUabsDeltaU,balance_residual"
    )
    grid = GridSpec(extents=(1.0,), points=(8,))
    s = fields.random_field(grid, (8,), seed=1, decay=4.0)
    row = diagnostics.norms(s, t=1.0 / 3.0).as_row(1e-7)
    cells = row.split(",")
    assert len(cells) == 15
    # 17 significant digits survive a float round trip
    assert float(cells[0]) == 1.0 / 3.0
    assert float(cells[-1]) == 1e-7


def test_ledger_bookkeeping(tmp_path):
    traj = smooth_run(dt=1e-2, t_end=0.05, points=16)
    ledger = EnergyLedger.from_trajectory(traj)
    assert len(ledger) == 6
    assert ledger.column("L2").shape == (6,)
    assert len(ledger.residuals) == 6
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == diagnostics.LEDGER_HEADER
    assert len(lines) == 7
    with pytest.raises(ValueError, match="increasing"):
        EnergyLedger(records=[ledger.records[0], ledger.records[0]])


def test_l2_balance_residual_is_second_order():
    # the identity itself is exact in continuous time; what converges at
    # order 2 is the centered time derivative of the recorded |u|^2
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        ledger = EnergyLedger.from_trajectory(smooth_run(dt))
        res = diagnostics.energy_balance_residual(ledger, PARAMS)
        errs.append(np.abs(res).max())
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in slopes:
        assert abs(p - 2.0) < 0.2, f"L2 balance residual slopes {slopes}"


def test_h1_balance_residual_is_second_order():
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = diagnostics.h1_balance_residual(smooth_run(dt), PARAMS)
        errs.append(np.abs(res).max())
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in slopes:
        assert abs(p - 2.0) < 0.35, f"H1 balance residual slopes {slopes}"


def test_weak_residual_is_second_order():
    grid = GridSpec(extents=(1.0,), points=(32,))
    phi = fields.random_field(grid, (32,), seed=21, decay=4.0)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = diagnostics.weak_residual(smooth_run(dt), phi)
        assert res[0] == 0.0
        errs.append(np.abs(res).max())
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in slopes:
        assert abs(p - 2.0) < 0.3, f"weak residual slopes {slopes}"


def test_weak_residual_rejects_out_of_band_test_function():
    grid = GridSpec(extents=(1.0,), points=(32,))
    u0 = fields.random_field(grid, (32,), **SMOOTH)
    traj = stepping.integrate(
        u0, PARAMS, IntegratorPolicy(dt=1e-2, t_end=0.03), modes=(8,)
    )
    phi = fields.random_field(grid, (32,), seed=22)  # spills past mode 8
    with pytest.raises(ValueError, match="band"):
        diagnostics.weak_residual(traj, phi)


def test_apriori_bounds_are_band_stable():
    # the level-r bounds hold uniformly in the band: across a band doubling,
    # the sup over time of the level-r norm and the time integral of the
    # squared level-(r+2) norm stay finite and agree within a factor of two
    ladder = ("L2", "gradL2", "deltaL2", "gradDeltaL2")
    ledgers = []
    for points in (16, 32):
        grid = GridSpec(extents=(1.0,), points=(32,))
        u0 = fields.random_field(grid, (32,), **SMOOTH)
        traj = stepping.integrate(
            u0, PARAMS, IntegratorPolicy(dt=2e-3, t_end=0.1),
            modes=(points // 2,), cadence=5,
        )
        ledgers.append(EnergyLedger.from_trajectory(traj))
    for r in (0, 1):
        sups = [ledger.column(ladder[r]).max() for ledger in ledgers]
        integrals = [
            np.trapezoid(ledger.column(ladder[r + 2]) ** 2, ledger.times) for ledger in ledgers
        ]
        for pair in (sups, integrals):
            assert np.isfinite(pair).all() and max(pair) <= 2.0 * min(pair), (
                f"level {r} bounds moved: sup {sups}, dissipation {integrals}"
            )


def test_bihari_closed_form_and_monotonicity():
    assert diagnostics.bihari_tstar(1.0, 0.0) == 0.25
    assert diagnostics.bihari_tstar(2.0) == 0.25 / 16.0
    # shifting the offset is the same as raising the initial level
    assert diagnostics.bihari_tstar(1.0, 0.5) == diagnostics.bihari_tstar(1.5)
    ys = np.linspace(0.5, 4.0, 20)
    ts = [diagnostics.bihari_tstar(y) for y in ys]
    assert all(b < a for a, b in zip(ts, ts[1:])), "tstar must fall as y0 grows"
    with pytest.raises(ValueError):
        diagnostics.bihari_tstar(0.0)
    with pytest.raises(ValueError):
        diagnostics.bihari_tstar(1.0, -1.0)
    # (y0 + c)^-4 beyond the largest float
    with pytest.raises(ValueError, match="float range"):
        diagnostics.bihari_tstar(1e-300)


@given(
    y0=st.floats(min_value=0.1, max_value=5.0),
    c=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_bihari_tstar_shift_and_closed_form(y0, c):
    # the offset only ever enters through y0 + c, and the quintic
    # comparison ODE integrates to 1/(4 (y0+c)^4) exactly
    left = diagnostics.bihari_tstar(y0, c)
    assert left == diagnostics.bihari_tstar(y0 + c)
    want = 0.25 / (y0 + c) ** 4
    assert abs(left - want) <= 1e-12 * want, f"tstar({y0}, {c}) = {left}"


def test_bihari_general_reduces_to_closed_form():
    got = diagnostics.bihari_general(1.0, g=lambda t: 0.0, f=lambda s: s**5)
    assert abs(got - 0.25) < 1e-10, f"quintic tail gave {got}"


def test_bihari_general_satisfies_fixed_point():
    from scipy import integrate as sci

    y0 = 0.8
    g = lambda t: 0.3 + 0.1 * t
    f = lambda s: s**5
    T = diagnostics.bihari_general(y0, g, f)
    G, _ = sci.quad(g, 0.0, T)
    tail = 0.25 * (y0 + G) ** -4  # F(x) for the quintic
    assert abs(tail - T) < 1e-9, f"fixed point residual {tail - T}"
    # growth from g can only shorten the guaranteed time
    assert T < diagnostics.bihari_tstar(y0)


def synthetic_trajectory(times, snapshots, grid):
    return Trajectory(
        grid=grid,
        modes=snapshots[0].modes,
        params=PARAMS,
        times=list(times),
        snapshots=list(snapshots),
    )


def test_holder_quotient_linear_motion():
    # u(t) = t * w: the quotient is |w| |t-s|^(1-a), maximized by the
    # full time span
    grid = GridSpec(extents=(1.0,), points=(8,))
    w = np.zeros((3, 8))
    w[2, 1] = 1.0
    times = [0.1 * i for i in range(11)]
    snaps = [
        SpectralField(grid=grid, modes=(8,), coeffs=t * w) for t in times
    ]
    traj = synthetic_trajectory(times, snaps, grid)
    rep = diagnostics.holder_quotient(traj, exponent=0.5, norm="L2")
    assert rep.pair_count == 55
    assert rep.sup_quotient == pytest.approx(1.0, rel=1e-12)  # 1.0 * 1.0^0.5
    rep_inf = diagnostics.holder_quotient(traj, exponent=0.5, norm="Linf")
    # discrete sup of |e_1| on the 16-point midpoint grid
    assert rep_inf.sup_quotient == pytest.approx(
        math.sqrt(2.0) * math.cos(math.pi / 32), rel=1e-12
    )

    with pytest.raises(ValueError, match="exponent"):
        diagnostics.holder_quotient(traj, exponent=1.0)
    with pytest.raises(ValueError, match="norm"):
        diagnostics.holder_quotient(traj, exponent=0.5, norm="H1")
    short = synthetic_trajectory(times[:5], snaps[:5], grid)
    with pytest.raises(ValueError, match="snapshots"):
        diagnostics.holder_quotient(short, exponent=0.5)


def test_continuous_dependence_scaling_and_envelope():
    grid = GridSpec(extents=(1.0,), points=(16,))
    u0 = fields.random_field(grid, (16,), seed=9, decay=4.0, amplitude=0.6)
    direction = fields.random_field(grid, (16,), seed=9, index=1)
    unit = direction.coeffs / np.sqrt((direction.coeffs**2).sum())
    policy = IntegratorPolicy(dt=1e-3, t_end=0.05)

    v0s = [
        SpectralField(grid=grid, modes=(16,), coeffs=u0.coeffs + delta * unit)
        for delta in (1e-3, 1e-5)
    ]
    report = diagnostics.continuous_dependence(u0, v0s, PARAMS, policy)
    assert report.deltas[0] == pytest.approx(1e-3, rel=1e-12)
    assert report.deltas[1] == pytest.approx(1e-5, rel=1e-12)
    ratios = [d_T / d_0 for d_0, d_T in zip(report.deltas, report.terminal_diffs)]
    assert max(ratios) / min(ratios) < 1.5, f"nonlinear contamination: {ratios}"
    assert report.gronwall_factor > 1.0
    assert all(m <= 1.0 for m in report.margins), f"envelope breached: {report.margins}"


def test_continuous_dependence_integrates_the_base_once(monkeypatch):
    # one march of the stack whose rows are the base and every perturbed datum
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=2, decay=4.0)
    v0s = [SpectralField(grid, (8,), u0.coeffs * (1.0 + eps)) for eps in (1e-3, 1e-4, 1e-5)]
    policy = IntegratorPolicy(dt=1e-2, t_end=0.03)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "integrate", counted)
    report = diagnostics.continuous_dependence(u0, v0s, PARAMS, policy)
    (stack,) = calls
    assert np.array_equal(stack.coeffs, np.stack([u0.coeffs, *(v.coeffs for v in v0s)]))
    assert len(report.deltas) == len(report.margins) == 3
    with pytest.raises(ValueError, match="perturbed"):
        diagnostics.continuous_dependence(u0, [], PARAMS, policy)


def test_continuous_dependence_identical_data():
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=2, decay=4.0)
    policy = IntegratorPolicy(dt=1e-2, t_end=0.03)
    rep = diagnostics.continuous_dependence(u0, [u0], PARAMS, policy)
    assert rep.deltas == (0.0,)
    assert rep.terminal_diffs == (0.0,)
    assert rep.margins == (0.0,)


def test_completed_square_identity_along_three_d_run():
    grid = GridSpec(extents=(1.0, 0.9, 1.1), points=(8, 8, 8))
    u0 = fields.random_field(grid, (6, 6, 6), seed=14, decay=4.0, amplitude=0.6)
    policy = IntegratorPolicy(dt=1e-3, t_end=0.02)
    traj = stepping.integrate(u0, PARAMS, policy, cadence=5)
    assert not traj.aborted
    residuals = diagnostics.three_d_energy_identity(traj, PARAMS)
    assert residuals.shape == (len(traj.times),)
    assert residuals.max() < 1e-9, f"completed square residual {residuals.max()}"
    degenerate = LLBarParams(0.4, 0.0, 1.2, 0.7, 0.0)
    with pytest.raises(ValueError, match="beta2"):
        diagnostics.three_d_energy_identity(traj, degenerate)
