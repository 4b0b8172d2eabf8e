"""Acceptance gate: twelve certified properties of the solver suite.

Each test prints one summary line with its measured figures, so a -s run
reads as a checklist.  Tolerances are part of the contract and are not
to be loosened; if a criterion cannot be met the test should fail
honestly rather than shrink its claim.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from scipy import integrate as sci_integrate

from llbar import cli, diagnostics, fields, galerkin, inequalities, operators, stepping
from llbar.diagnostics import EnergyLedger
from llbar.fields import GridSpec, SpectralField
from llbar.galerkin import LLBarParams
from llbar.inequalities import SampleSpec
from llbar.stepping import IntegratorPolicy, Trajectory

PARAMS = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)
BOX = (1.0, 0.8, 1.2)


def unit_constant(grid: GridSpec) -> SpectralField:
    coeffs = np.zeros((3,) + grid.points)
    coeffs[(0,) + (0,) * grid.dim] = math.sqrt(float(np.prod(grid.extents)))
    return SpectralField(grid=grid, modes=grid.points, coeffs=coeffs)


def sup_gap(a: SpectralField, b: SpectralField) -> float:
    gap = SpectralField(grid=a.grid, modes=a.modes, coeffs=a.coeffs - b.coeffs)
    vals = operators.padded_values(gap)
    return float(np.sqrt((vals**2).sum(axis=0).max()))


def coeff_l2(delta: np.ndarray) -> float:
    return float(np.sqrt((delta**2).sum()))


def test_criterion_01_equilibrium_preserved():
    # (1,0,0) is a rest state: 1e4 steps may not move it past 1e-12 in sup
    # norm, and the 2-d N=32 run must finish inside 10 s
    grid = GridSpec(extents=(1.0, 1.0), points=(32, 32))
    u0 = unit_constant(grid)
    policy = IntegratorPolicy(dt=1e-3, t_end=10.0)
    t0 = time.perf_counter()
    traj = stepping.integrate(u0, PARAMS, policy, cadence=10_000)
    elapsed = time.perf_counter() - t0
    assert not traj.aborted
    drift = sup_gap(traj.terminal, u0)
    assert drift < 1e-12, f"equilibrium moved by {drift:.3e} in sup norm"
    assert elapsed < 10.0, f"N=32 d=2 equilibrium run took {elapsed:.2f}s >= 10s"

    # a second parameter set, negative beta1 included, on the 1-d box
    line = GridSpec(extents=(1.0,), points=(32,))
    v0 = unit_constant(line)
    other = LLBarParams(-0.5, 0.02, 0.8, 1.3, 0.1)
    traj1 = stepping.integrate(v0, other, policy, cadence=10_000)
    drift1 = sup_gap(traj1.terminal, v0)
    assert drift1 < 1e-12, f"1-d equilibrium moved by {drift1:.3e}"
    print(
        f"criterion 01 equilibrium: sup drift {drift:.3e} (d=2), "
        f"{drift1:.3e} (d=1), wall {elapsed:.2f}s"
    )


def test_criterion_02_linear_modes_are_spectrally_exact():
    # with the cubic, precession and exchange-cubic terms off, each mode
    # decays by exp(-(beta1*lam + beta2*lam^2) t) and ETDRK2 must track
    # that to rounding; the negative-beta1 case picks a mode whose
    # biharmonic part still wins, so the exact factor stays below one
    cases = [(0.4, 2), (-0.5, 3)]
    worst = 0.0
    for beta1, k in cases:
        params = LLBarParams(beta1, 0.01, 0.0, 0.0, 0.0)
        lam = (k * math.pi) ** 2
        m = -beta1 * lam - 0.01 * lam**2
        assert m < 0.0, f"mode {k} must decay for beta1={beta1}"
        grid = GridSpec(extents=(1.0,), points=(8,))
        coeffs = np.zeros((3, 8))
        coeffs[0, k] = 0.7
        u0 = SpectralField(grid=grid, modes=(8,), coeffs=coeffs)
        traj = stepping.integrate(
            u0, params, IntegratorPolicy(dt=1e-3, t_end=1.0), cadence=1000
        )
        got = traj.terminal.coeffs[0, k] / 0.7
        rel = abs(got - math.exp(m)) / abs(math.exp(m))
        assert rel <= 1e-12, (
            f"beta1={beta1}, mode {k}: coefficient off by rel {rel:.3e}"
        )
        worst = max(worst, rel)
    print(f"criterion 02 linear exactness: worst relative error {worst:.3e}")


def test_criterion_03_l2_energy_law_second_order():
    grid = GridSpec(extents=(1.0,), points=(32,))
    u0 = fields.random_field(grid, (32,), seed=7, decay=6.0, amplitude=0.8)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = stepping.integrate(
            u0, PARAMS, IntegratorPolicy(dt=dt, t_end=0.2), cadence=1
        )
        assert not traj.aborted
        ledger = EnergyLedger.from_trajectory(traj)
        res = diagnostics.energy_balance_residual(ledger, PARAMS)
        errs.append(float(np.abs(res).max()))
    slope = float(np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0])
    assert abs(slope - 2.0) <= 0.2, (
        f"balance residual slope {slope:.3f} outside 2.0 +- 0.2 (errs {errs})"
    )
    print(f"criterion 03 energy law: log-log slope {slope:.3f}")


def test_criterion_04_interpolation_pair_on_thousand_draws():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, modes, pts in ((1, 16, 32), (2, 8, 16), (3, 6, 12)):
        grid = GridSpec(extents=BOX[:dim], points=(pts,) * dim)
        spec = SampleSpec(seed=0, count=1000, modes=(modes,) * dim)
        for rep in inequalities.check_interp(grid, spec):
            assert rep.violations == 0, (
                f"d={dim} {rep.inequality}: ratio {rep.max_ratio} "
                f"(witness index {rep.witness_index})"
            )
            assert rep.max_ratio <= 1.0 + 1e-9
            worst = max(worst, rep.max_ratio)
    # pure eigenmodes sit exactly on the equality case
    grid2 = GridSpec(extents=BOX[:2], points=(16, 16))
    eq_gap = 0.0
    for mode in ((1, 0), (2, 3), (0, 5)):
        coeffs = np.zeros((3, 16, 16))
        coeffs[(1, *mode)] = 0.8
        (r3,), (r4,) = inequalities.catalogue_ratios(
            grid2, inequalities.Catalogue(interp=True), coeffs[None]
        )
        eq_gap = max(eq_gap, abs(r3 - 1.0), abs(r4 - 1.0))
    assert eq_gap <= 1e-12, f"eigenmode equality off by {eq_gap:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"ensemble took {elapsed:.2f}s >= 30s"
    print(
        f"criterion 04 interpolation pair: worst ratio {worst:.12f}, "
        f"eigenmode gap {eq_gap:.2e}, wall {elapsed:.2f}s"
    )


def test_criterion_05_band_doubling_convergence():
    policy = IntegratorPolicy(dt=1e-3, t_end=0.1)
    lines = []
    for dim in (1, 2):
        grid = GridSpec(extents=BOX[:dim], points=(32,) * dim)
        u_full = fields.random_field(
            grid, (32,) * dim, seed=0, decay=4.0, amplitude=0.8
        )
        terminals = []
        for b in (8, 16, 32):
            traj = stepping.integrate(
                u_full, PARAMS, policy, modes=(b,) * dim
            )
            assert not traj.aborted
            terminals.append(traj.terminal)
        gaps = []
        for small, large in zip(terminals, terminals[1:]):
            padded = galerkin.project(small, large.modes)
            gaps.append(coeff_l2(large.coeffs - padded.coeffs))
        factor = gaps[0] / gaps[1]
        assert factor >= 10.0, (
            f"d={dim}: gaps {gaps[0]:.3e} -> {gaps[1]:.3e}, "
            f"shrink factor {factor:.2f} < 10"
        )
        lines.append(f"d={dim} factor {factor:.0f}")
    print(f"criterion 05 band doubling: {', '.join(lines)}")


def test_criterion_06_blowup_time_bound():
    assert diagnostics.bihari_tstar(1.0, 0.0) == 0.25  # exact, not approx
    # closed form 1/(4 y0^4) at dyadic arguments is exact in floats too
    for y0 in (0.5, 1.0, 2.0, 4.0):
        assert diagnostics.bihari_tstar(y0) == 0.25 / y0**4
    ys = np.linspace(0.5, 3.0, 15)
    ts = [diagnostics.bihari_tstar(y) for y in ys]
    assert all(b < a for a, b in zip(ts, ts[1:])), "T* must fall as y0 grows"

    worst = 0.0
    for y0, g in ((0.8, lambda t: 0.3 + 0.1 * t), (1.0, lambda t: 0.0)):
        T = diagnostics.bihari_general(y0, g, lambda s: s**5)
        G, _ = sci_integrate.quad(g, 0.0, T)
        resid = abs(0.25 * (y0 + G) ** -4 - T)
        assert resid <= 1e-12, f"fixed point residual {resid:.3e} at y0={y0}"
        worst = max(worst, resid)
    print(f"criterion 06 blow-up bound: worst fixed-point residual {worst:.2e}")


def test_criterion_07_holder_quotients_stable():
    grid = GridSpec(extents=BOX[:2], points=(16, 16))
    u0 = fields.random_field(grid, (8, 8), seed=0, decay=4.0, amplitude=0.8)
    traj = stepping.integrate(
        u0, PARAMS, IntegratorPolicy(dt=1e-3, t_end=0.1),
        modes=(8, 8), cadence=1,
    )
    assert not traj.aborted
    thin = Trajectory(
        grid=traj.grid, modes=traj.modes, params=traj.params,
        times=traj.times[::2], snapshots=traj.snapshots[::2],
    )
    lines = []
    for exponent, norm in ((0.5, "L2"), (0.25, "Linf")):
        dense = diagnostics.holder_quotient(traj, exponent, norm)
        sparse = diagnostics.holder_quotient(thin, exponent, norm)
        assert math.isfinite(dense.sup_quotient) and dense.sup_quotient > 0
        change = abs(dense.sup_quotient - sparse.sup_quotient) / dense.sup_quotient
        assert change < 0.10, (
            f"{norm} quotient at exponent {exponent} moved {change:.2%} "
            f"under density doubling"
        )
        lines.append(f"{norm}@{exponent:g}: {dense.sup_quotient:.4g} ({change:.2%})")
    print(f"criterion 07 holder quotients: {', '.join(lines)}")


def test_criterion_08_continuous_dependence_envelope():
    grid = GridSpec(extents=BOX[:2], points=(16, 16))
    modes = (8, 8)
    u0 = fields.random_field(grid, modes, seed=0, decay=4.0, amplitude=0.8)
    direction = fields.random_field(grid, modes, seed=0, index=1)
    unit = direction.coeffs / coeff_l2(direction.coeffs)
    policy = IntegratorPolicy(dt=1e-3, t_end=0.1)
    v0s = [
        SpectralField(grid=grid, modes=modes, coeffs=u0.coeffs + delta * unit)
        for delta in (1e-3, 1e-4, 1e-5)
    ]
    report = diagnostics.continuous_dependence(u0, v0s, PARAMS, policy, modes=modes)
    ratios = [g / d for d, g in zip(report.deltas, report.terminal_diffs)]
    spread = max(ratios) / min(ratios)
    assert spread <= 3.0, f"amplification ratios {ratios} spread {spread:.3f} > 3"
    worst_margin = max(report.margins)
    assert worst_margin <= 1.0 + 1e-12, (
        f"terminal gap left the Gronwall envelope: margin {worst_margin:.6f}"
    )
    print(
        f"criterion 08 dependence: amplification {ratios[0]:.4f}, "
        f"spread {spread:.6f}, worst margin {worst_margin:.4f}"
    )


def test_criterion_09_precession_conserves_l2():
    params = LLBarParams(0.0, 0.0, 0.0, 0.7, 0.0)
    grid = GridSpec(extents=BOX[:2], points=(16, 16))
    u0 = fields.random_field(grid, (8, 8), seed=0, decay=4.0, amplitude=0.8)
    l2_start = coeff_l2(u0.coeffs)
    traj = stepping.integrate(
        u0, params, IntegratorPolicy(dt=1e-3, t_end=1.0), cadence=100
    )
    assert not traj.aborted
    drift = max(
        abs(coeff_l2(s.coeffs) - l2_start) for s in traj.snapshots
    )
    assert drift < 1e-6, f"precession-only L2 drift {drift:.3e} over unit time"
    print(f"criterion 09 precession neutrality: max L2 drift {drift:.3e}")


def test_criterion_10_completed_square_every_snapshot():
    grid = GridSpec(extents=BOX, points=(8, 8, 8))
    u0 = fields.random_field(grid, (6, 6, 6), seed=0, decay=4.0, amplitude=0.6)
    traj = stepping.integrate(
        u0, PARAMS, IntegratorPolicy(dt=1e-3, t_end=0.05), cadence=10
    )
    assert not traj.aborted
    residuals = diagnostics.three_d_energy_identity(traj, PARAMS)
    assert residuals.shape[0] == len(traj.times)
    peak = float(residuals.max())
    assert peak < 1e-9, f"completed-square residual peaked at {peak:.3e}"
    print(
        f"criterion 10 completed square: {len(residuals)} snapshots, "
        f"peak residual {peak:.2e}"
    )


def test_criterion_11_gn_exponent_table():
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
    print(f"criterion 11 exponent table: all {len(table)} tuples exact")


ACCEPTANCE_CONFIG = """\
[grid]
extents = 1.0, 0.8
points = 16, 16
modes = 8, 8

[params]
beta1 = 0.4
beta2 = 0.01
beta3 = 1.2
beta4 = 0.7
beta5 = 0.25

[integrator]
dt = 1e-3
t_end = 0.1

[initial]
kind = random_band
decay = 4.0
amplitude = 0.8

[output]
directory = {out}
cadence = 10
"""


def test_criterion_12_reruns_are_byte_identical(tmp_path):
    ini = tmp_path / "accept.ini"
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        ini.write_text(ACCEPTANCE_CONFIG.format(out=out))
        assert cli.main(["run", str(ini)]) == 0
        paths.append(out)
    first = sorted(p.name for p in paths[0].iterdir())
    second = sorted(p.name for p in paths[1].iterdir())
    assert first == second and len(first) == 12  # ledger + 11 snapshots
    for name in first:
        a = (paths[0] / name).read_bytes()
        b = (paths[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"criterion 12 determinism: {len(first)} files byte-identical")
