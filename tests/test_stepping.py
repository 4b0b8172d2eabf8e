"""Time integrators: exactness, orders, blow-up policing, cadences.

The linear-flow test is the sharpest one here: with the cubic, cross and
exchange-cubic terms switched off the exponential integrator must
reproduce exp(m t) to rounding, not merely to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from llbar import cli, fields, galerkin, operators, stepping
from llbar.fields import GridSpec, SpectralField
from llbar.galerkin import LLBarParams
from llbar.stepping import BlowupError, IntegratorPolicy, SolverState

PARAMS = LLBarParams(0.4, 0.01, 1.2, 0.7, 0.25)


def taylor_phi(z: float, shift: int, terms: int = 30) -> float:
    """phi_j(z) = sum_k z^k / (k + j)! computed term by term."""
    total = 0.0
    for k in reversed(range(terms)):
        total = total * z + 1.0 / math.factorial(k + shift)
    return total


def test_phi_functions_match_taylor_series():
    for z in [-2.0, -1e-3, -5e-5, 0.0, 5e-5, 1e-3, 2.0]:
        p1 = float(stepping.phi1(np.array(z)))
        p2 = float(stepping.phi2(np.array(z)))
        assert p1 == pytest.approx(taylor_phi(z, 1), rel=1e-14), f"phi1({z})"
        assert p2 == pytest.approx(taylor_phi(z, 2), rel=1e-14), f"phi2({z})"
    # both branches agree with the series right at the crossover
    for z in (0.9999e-4, 1.0001e-4, -0.9999e-4, -1.0001e-4):
        assert float(stepping.phi1(np.array(z))) == pytest.approx(
            taylor_phi(z, 1), rel=1e-13
        ), f"phi1 branch mismatch at {z}"
        assert float(stepping.phi2(np.array(z))) == pytest.approx(
            taylor_phi(z, 2), rel=1e-13
        ), f"phi2 branch mismatch at {z}"


def test_policy_validation():
    IntegratorPolicy(dt=1e-3, t_end=0.0)  # zero horizon is a legal no-op
    with pytest.raises(ValueError):
        IntegratorPolicy(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorPolicy(dt=1e-3, t_end=-1.0)
    for scheme in ("RK4", "IMEX-CNAB2"):
        with pytest.raises(ValueError, match="choose one of ETDRK2, IMEX-Euler"):
            IntegratorPolicy(dt=1e-3, t_end=1.0, scheme=scheme)
    with pytest.raises(ValueError):
        IntegratorPolicy(dt=1e-3, t_end=1.0, max_steps=0)
    with pytest.raises(ValueError):
        IntegratorPolicy(dt=1e-3, t_end=1.0, blowup_threshold=0.0)


def test_linear_flow_is_spectrally_exact():
    # beta3 = beta4 = beta5 = 0: every scheme's fixed point analysis aside,
    # ETDRK2 must be *exact*, since the remainder it interpolates vanishes.
    grid = GridSpec(extents=(1.0, 0.8), points=(12, 12))
    params = LLBarParams(0.3, 0.005, 0.0, 0.0, 0.0)
    u0 = fields.random_field(grid, (12, 12), seed=11)
    policy = IntegratorPolicy(dt=0.1, t_end=1.0, scheme="ETDRK2")
    traj = stepping.integrate(u0, params, policy)
    m = galerkin.rhs_linear_factor(grid, (12, 12), params)
    expected = np.exp(m)[None] * u0.coeffs
    err = np.abs(traj.terminal.coeffs - expected).max()
    scale = np.abs(expected).max()
    assert err < 1e-13 * max(1.0, scale), f"linear flow error {err}"


def test_negative_beta1_linear_growth_is_exact():
    # the sign-free coefficient in its amplifying regime, still exact;
    # a low band keeps the growth under the blow-up threshold
    grid = GridSpec(extents=(1.0,), points=(8,))
    params = LLBarParams(-0.5, 0.0, 0.0, 0.0, 0.0)
    u0 = fields.random_field(grid, (3,), seed=12)
    policy = IntegratorPolicy(dt=0.05, t_end=0.5)
    traj = stepping.integrate(u0, params, policy)
    assert not traj.aborted
    lam = fields.eigenvalue_array(grid, (3,))
    expected = np.exp(0.5 * 0.5 * lam)[None] * u0.coeffs
    np.testing.assert_allclose(traj.terminal.coeffs, expected, rtol=1e-12)


def test_equilibrium_is_a_fixed_point():
    grid = GridSpec(extents=(1.0, 1.0), points=(8, 8))
    coeffs = np.zeros((3, 8, 8))
    coeffs[0, 0, 0] = 1.0
    u0 = SpectralField(grid=grid, modes=(8, 8), coeffs=coeffs)
    for scheme in stepping.SCHEMES:
        policy = IntegratorPolicy(dt=1e-2, t_end=1.0, scheme=scheme)
        traj = stepping.integrate(u0, PARAMS, policy)
        drift = np.abs(traj.terminal.coeffs - coeffs).max()
        assert drift < 1e-13, f"{scheme} equilibrium drift {drift}"


def test_scheme_orders():
    # self-convergence against a fine reference; measured in the L2
    # coefficient norm, where the Richardson signal is clean.  The band
    # and steps sit inside the explicit remainder's stability region
    # (dt * 3 beta5 |u|^2 lambda_max < 1), where each formal order shows.
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=7, decay=6.0, amplitude=0.8)
    dts = [1e-3, 5e-4, 2.5e-4]

    def terminal(scheme, dt):
        policy = IntegratorPolicy(dt=dt, t_end=0.1, scheme=scheme)
        return stepping.integrate(u0, PARAMS, policy).terminal.coeffs

    expected = {"ETDRK2": 2.0, "IMEX-Euler": 1.0}
    for scheme, want in expected.items():
        ref = terminal(scheme, 6.25e-5)
        errs = [np.sqrt(((terminal(scheme, dt) - ref) ** 2).sum()) for dt in dts]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert abs(p - want) < 0.3, f"{scheme} measured orders {orders}"


@pytest.mark.parametrize("scheme", stepping.SCHEMES)
def test_interleaved_steps_share_no_buffers(scheme):
    # step and nonlinear_term keep their stage arrays and padded-grid work
    # sets per band; steps on two bands, and two fields on one band, taken
    # in turn must give each trajectory the bytes it has when run alone,
    # and nothing a step or a nonlinear_term call returns may change later
    runs = [
        (GridSpec((1.0, 0.8), (32, 32)), (32, 32), 1),
        (GridSpec((1.0, 0.8, 1.2), (16, 16, 16)), (8, 8, 8), 2),
        (GridSpec((1.0, 0.8), (32, 32)), (32, 32), 3),
    ]
    policy = IntegratorPolicy(dt=1e-3, t_end=1.0, scheme=scheme)

    def start(grid, modes, seed):
        u0 = fields.random_field(grid, modes, seed=seed, decay=4.0, amplitude=0.8)
        return SolverState(t=0.0, u=u0, step_index=0)

    def record(state):
        return state.u.coeffs.tobytes()

    alone = []
    for grid, modes, seed in runs:
        state, rows = start(grid, modes, seed), []
        for _ in range(4):
            state = stepping.step(state, PARAMS, policy)
            rows.append(record(state))
        alone.append(rows)

    states = [start(*run) for run in runs]
    held = [[] for _ in runs]
    for _ in range(4):
        for k, state in enumerate(states):
            states[k] = stepping.step(state, PARAMS, policy)
            held[k].append(states[k])
            assert record(states[k]) == alone[k][len(held[k]) - 1]
    remainder, _ = galerkin.nonlinear_term(held[0][0].u, PARAMS)
    kept = remainder.coeffs.tobytes()
    for k, run in enumerate(runs):
        galerkin.nonlinear_term(held[k][-1].u, PARAMS)
        stepping.step(held[k][-1], PARAMS, policy)
        assert [record(state) for state in held[k]] == alone[k], run
    assert remainder.coeffs.tobytes() == kept
    for state in held[0]:
        for buffer in stepping._stage_work((3, 32, 32)):
            assert not np.shares_memory(state.u.coeffs, buffer)


STACK_BANDS = (
    ((1.0,), (16,), (12,)),
    ((1.0, 0.8), (8, 8), (6, 5)),
    ((1.0, 0.8, 1.2), (6, 6, 6), (4, 3, 4)),
)


@pytest.mark.parametrize("n", (1, 2, 4))
@pytest.mark.parametrize("extents, points, modes", STACK_BANDS, ids=("d1", "d2", "d3"))
@pytest.mark.parametrize("scheme", stepping.SCHEMES)
def test_stacked_march_gives_each_field_its_own_bits(scheme, extents, points, modes, n):
    # t_end = 10.5 dt: ten steps and a shorter closing one, recorded every third
    grid = GridSpec(extents=extents, points=points)
    rows = [
        fields.random_field(grid, modes, seed=21, index=i, decay=2.0, amplitude=0.7)
        for i in range(n)
    ]
    stack = SpectralField(grid, modes, np.stack([u.coeffs for u in rows]))
    policy = IntegratorPolicy(dt=2e-3, t_end=0.021, scheme=scheme)
    traj = stepping.integrate(stack, PARAMS, policy, cadence=3)
    assert not traj.aborted and len(traj) == 5 and traj.times[-1] == 0.021
    assert operators.padded_sup(stack) == max(map(operators.padded_sup, rows))
    for i, u in enumerate(rows):
        alone = stepping.integrate(u, PARAMS, policy, cadence=3)
        assert traj.times == alone.times
        for s, a in zip(traj.snapshots, alone.snapshots, strict=True):
            assert s.coeffs[i].tobytes() == a.coeffs.tobytes()
    # one field above the threshold stops the whole march at its first step
    big = SpectralField(grid, modes, np.concatenate([stack.coeffs, 1e4 * stack.coeffs[:1]]))
    guarded = replace(policy, blowup_threshold=1e3)
    blown = stepping.integrate(big, PARAMS, guarded, cadence=3)
    assert blown.aborted and blown.times == [0.0] and blown.blowup[1] > 1e3
    alone = stepping.integrate(SpectralField(grid, modes, big.coeffs[-1]), PARAMS, guarded)
    assert blown.blowup == alone.blowup


def test_imex_euler_finishes_a_run_that_needs_its_damping():
    # amplitude-3 data on a full d=1 band: the explicit cubic's stiffness
    # dt * 3 beta5 |u|^2 lambda_max reads about 970 at t = 0 for dt 4e-3,
    # and backward Euler's damping of the high modes still carries the run
    grid = GridSpec(extents=(1.0,), points=(32,))
    u0 = fields.random_field(grid, (32,), seed=1, decay=4.0, amplitude=3.0)
    policy = IntegratorPolicy(dt=4e-3, t_end=0.05, scheme="IMEX-Euler")
    traj = stepping.integrate(u0, cli._DEFAULT_PARAMS, policy)
    assert not traj.aborted and traj.times[-1] == 0.05
    assert np.isfinite(traj.terminal.coeffs).all()


def test_step_blowup_pre_and_post_check():
    grid = GridSpec(extents=(1.0,), points=(8,))
    big = SpectralField(
        grid=grid, modes=(8,), coeffs=np.full((3, 8), 1e7)
    )
    state = SolverState(t=0.0, u=big, step_index=0)
    policy = IntegratorPolicy(dt=1e-3, t_end=1.0, blowup_threshold=1e6)
    with pytest.raises(BlowupError) as info:
        stepping.step(state, PARAMS, policy)
    assert info.value.norm > 1e6


def test_integrate_returns_partial_trajectory_on_blowup():
    grid = GridSpec(extents=(1.0,), points=(16,))
    params = LLBarParams(-5.0, 1e-6, 0.0, 0.0, 0.0)  # amplifying band
    u0 = fields.random_field(grid, (16,), seed=3)
    policy = IntegratorPolicy(dt=1e-2, t_end=10.0, blowup_threshold=1e3)
    traj = stepping.integrate(u0, params, policy, cadence=1)
    assert traj.aborted
    t_abort, norm = traj.blowup
    assert norm > 1e3 and 0.0 <= t_abort < 10.0
    assert len(traj.times) >= 1 and traj.times[0] == 0.0
    assert traj.times[-1] < 10.0


def test_zero_horizon_yields_single_snapshot():
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=1)
    traj = stepping.integrate(u0, PARAMS, IntegratorPolicy(dt=1e-3, t_end=0.0))
    assert traj.times == [0.0]
    np.testing.assert_array_equal(traj.terminal.coeffs, u0.coeffs)


def test_remainder_step_hits_t_end_exactly():
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=2, decay=4.0)
    # 0.05 = 2 full steps of 0.02 plus a 0.01 closer
    traj = stepping.integrate(u0, PARAMS, IntegratorPolicy(dt=0.02, t_end=0.05))
    assert traj.times[-1] == 0.05
    # a run with matching horizon but half the step lands within O(dt^2)
    fine = stepping.integrate(u0, PARAMS, IntegratorPolicy(dt=0.01, t_end=0.05))
    gap = np.sqrt(((traj.terminal.coeffs - fine.terminal.coeffs) ** 2).sum())
    assert gap < 1e-4, f"remainder-step mismatch {gap}"


def test_cadence_record_counts():
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=4, decay=4.0)

    def count(n_steps, cadence, dt=1e-3):
        policy = IntegratorPolicy(dt=dt, t_end=n_steps * dt)
        traj = stepping.integrate(u0, PARAMS, policy, cadence=cadence)
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(n_steps * dt)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        return len(traj.times)

    assert count(1000, 10) == 101
    assert count(100, 7) == 1 + 100 // 7 + 1  # initial, interior ticks, final
    assert count(10, 1) == 11
    assert count(5, 100) == 2  # just the endpoints


def test_max_steps_guard():
    # the policy itself refuses a horizon beyond max_steps, so no caller
    # can start an integration it cannot finish
    grid = GridSpec(extents=(1.0,), points=(8,))
    u0 = fields.random_field(grid, (8,), seed=6)
    with pytest.raises(ValueError, match="max_steps"):
        IntegratorPolicy(dt=1e-6, t_end=1.0, max_steps=1000)
    with pytest.raises(ValueError, match="max_steps"):
        IntegratorPolicy(dt=1e-300, t_end=1e300)  # t_end / dt overflows
    # a huge step count is reported in short form, not as 300 digits
    with pytest.raises(ValueError, match=r"^1e\+300 steps needed .* max_steps"):
        IntegratorPolicy(dt=1e-300, t_end=1.0)
    # exactly max_steps steps, the last one a shorter closing step, is fine
    policy = IntegratorPolicy(dt=1e-4, t_end=3.5e-4, max_steps=4)
    traj = stepping.integrate(u0, PARAMS, policy)
    assert traj.times[-1] == 3.5e-4 and not traj.aborted
    with pytest.raises(ValueError, match="max_steps"):
        IntegratorPolicy(dt=1e-4, t_end=3.5e-4, max_steps=3)
