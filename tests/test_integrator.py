"""Integrator: counter-based noise, stepping oracles, coupling, freezing."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avg_sfpde.coefficients import (
    AssumptionProfile,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    Oscillator,
)
from avg_sfpde.delay import ConstantTail, DelayMeasure, HistoryBuffer, delay_integral, seminorm_h
from avg_sfpde.integrator import (
    MAX_WIDTH,
    SLAB,
    BlowUpError,
    PathRunner,
    PathState,
    StepperConfig,
    Trajectory,
    coupled_run,
    khasminskii_freeze,
    normal_at,
    normal_block,
    run_path,
    step,
)
from avg_sfpde.presets import constant_xi, get_preset
from avg_sfpde.spectral import PdeOperator


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_w", [1, 3, 4, 7])
def test_noise_block_equals_stepwise_draws(k_w):
    blk = normal_block(seed=123, path_id=5, n_steps=13, k_w=k_w)
    for n in range(13):
        np.testing.assert_array_equal(normal_at(123, 5, n, k_w), blk[n])


def test_noise_streams_distinct_across_paths_and_seeds():
    a = normal_block(1, 0, 8, 2)
    b = normal_block(1, 1, 8, 2)
    c = normal_block(2, 0, 8, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name,k,k_w", [("scalar-linear-osc", None, 1),
                                        ("reaction-diffusion-delay", 8, 3),
                                        ("reaction-diffusion-delay", 32, 32)])
def test_slab_noise_equals_normal_block_across_slab_edges(monkeypatch, name, k, k_w):
    # 150 steps: two whole slabs and a short third; k_w = 3 puts slab edges
    # inside Philox's 4-output counter blocks
    p = get_preset(name, k=k)
    cfg = StepperConfig(dt=1e-3, T=0.15, noise_modes=k_w, seed=4)
    assert cfg.n_steps > 2 * SLAB and cfg.n_steps % SLAB
    seen = []
    real = PathRunner._advance

    def spy(self, n, dW):
        seen.append(dW.copy())
        return real(self, n, dW)

    monkeypatch.setattr(PathRunner, "_advance", spy)
    runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=5, rows=32)
    assert runner.k_w == k_w
    runner.run()
    dW = np.stack(seen, axis=1)
    for r in range(32):
        want = normal_block(4, 5 + r, cfg.n_steps, k_w) * math.sqrt(cfg.dt)
        np.testing.assert_array_equal(dW[r], want)


def test_noise_marginals_are_standard_normal():
    z = normal_block(7, 0, 4000, 4).ravel()
    assert abs(z.mean()) < 4.0 / math.sqrt(len(z))
    assert abs(z.std() - 1.0) < 4.0 / math.sqrt(len(z))


# ---------------------------------------------------------------------------
# deterministic stepping oracles
# ---------------------------------------------------------------------------

def heat_preset(k=8, dt=0.1, T=1.0):
    p = get_preset("heat-deterministic", k=k)
    cfg = StepperConfig(dt=dt, T=T, noise_modes=1, seed=0, eps=1.0)
    return p, cfg


def test_heat_decay_matches_discrete_closed_form():
    p, cfg = heat_preset(dt=0.1, T=1.0)
    lam = p.coefficients.space.eigenvalues[0]
    traj = run_path(p.operator, p.coefficients, cfg, p.initial)
    expected = (1.0 + 0.1 * lam) ** -10
    assert traj.states[-1, 0] == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(traj.states[-1, 1:])) == 0.0


def test_heat_decay_approaches_continuous_solution():
    # first-order bound exp(lam^2 dt T / 2) - 1 < 25% needs dt <= ~4.6e-3 here
    p, cfg = heat_preset(dt=4e-3, T=1.0)
    lam = p.coefficients.space.eigenvalues[0]
    traj = run_path(p.operator, p.coefficients, cfg, p.initial)
    exact = math.exp(-lam)
    assert abs(traj.states[-1, 0] - exact) / exact < 0.25
    # refinement tightens
    p2, cfg2 = heat_preset(dt=1e-3, T=1.0)
    traj2 = run_path(p2.operator, p2.coefficients, cfg2, p2.initial)
    assert abs(traj2.states[-1, 0] - exact) < abs(traj.states[-1, 0] - exact)


def test_dt_refinement_slope_first_order():
    _, _ = heat_preset()
    errs, dts = [], [4e-3, 2e-3, 1e-3]
    for dt in dts:
        p, cfg = heat_preset(dt=dt, T=1.0)
        lam = p.coefficients.space.eigenvalues[0]
        traj = run_path(p.operator, p.coefficients, cfg, p.initial)
        errs.append(abs(traj.states[-1, 0] - math.exp(-lam)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_zero_everything_stays_zero():
    p, cfg = heat_preset(dt=0.05, T=0.5)
    zero_init = HistoryBuffer.from_tail(1.0, ConstantTail(np.zeros(8)))
    traj = run_path(p.operator, p.coefficients, cfg, zero_init)
    assert np.all(traj.states == 0.0)


def batched_paths(p, cfg, n_paths):
    """Trajectories of paths 0 .. n_paths - 1 in order, stepped MAX_WIDTH at a time."""
    for first in range(0, n_paths, MAX_WIDTH):
        runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=first,
                            rows=MAX_WIDTH)
        batch = runner.run()
        for r in range(min(MAX_WIDTH, n_paths - first)):
            assert runner.errors[r] is None
            yield batch.row(r)


def test_ou_terminal_variance_matches_closed_form():
    # du = -u dt + dW from 0: Var u(1) = (1 - e^{-2})/2
    p = get_preset("scalar-linear-osc")
    p = dataclasses.replace(p, coefficients=p.coefficients.averaged())
    cfg = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=11)
    n_paths = 10_000
    vals = np.empty(n_paths)
    for pid, traj in enumerate(batched_paths(p, cfg, n_paths)):
        vals[pid] = traj.states[-1, 0] ** 2
    exact = (1.0 - math.exp(-2.0)) / 2.0
    se = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(vals.mean() - exact) < 3.0 * se


# ---------------------------------------------------------------------------
# runner vs reference step, determinism
# ---------------------------------------------------------------------------

def drive_reference(preset, cfg, path_id):
    st = PathState(buffer=preset.initial, t=0.0, seed=cfg.seed, path_id=path_id)
    for _ in range(cfg.n_steps):
        st = step(st, preset.operator, preset.coefficients, cfg)
    return st


def test_runner_bit_identical_to_step_without_delay():
    p = get_preset("scalar-linear-osc")
    cfg = StepperConfig(dt=1e-3, T=0.2, noise_modes=1, seed=9, eps=0.5)
    traj = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=4)
    st = drive_reference(p, cfg, 4)
    np.testing.assert_array_equal(traj.states[-1], st.buffer.head)


@pytest.mark.parametrize("name,k", [("scalar-holder-osc", None),
                                    ("reaction-diffusion-delay", 8)])
def test_runner_agrees_with_reference_step(name, k):
    p = get_preset(name, k=k)
    cfg = StepperConfig(dt=0.01, T=0.1, noise_modes=p.k_w, seed=5, eps=1.0)
    traj = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=0)
    st = drive_reference(p, cfg, 0)
    np.testing.assert_allclose(traj.states[-1], st.buffer.head, rtol=1e-10, atol=1e-14)


def test_delay_accumulator_tracks_reference_integral():
    p = get_preset("scalar-holder-osc")
    cfg = StepperConfig(dt=0.01, T=0.5, noise_modes=1, seed=3, eps=0.5)
    r = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=2)
    r.run()
    mu = p.coefficients.drift.delay_measure
    ref = delay_integral(r.buffer_view(), r.t, mu, 0.5)
    assert r.delay_acc.value[0] == pytest.approx(ref, rel=1e-12)


def test_determinism_same_inputs_same_trajectory():
    p = get_preset("reaction-diffusion-delay", k=8)
    cfg = StepperConfig(dt=5e-3, T=0.2, noise_modes=8, seed=21, eps=0.3)
    a = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=3)
    b = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=3)
    np.testing.assert_array_equal(a.states, b.states)


def test_segment_norm_dominates_state_along_path():
    p = get_preset("scalar-holder-osc")
    cfg = StepperConfig(dt=0.01, T=0.5, noise_modes=1, seed=13, eps=1.0)
    r = PathRunner(p.operator, p.coefficients, cfg, p.initial)
    r.run()
    buf = r.buffer_view()
    for t in (0.1, 0.25, 0.5):
        assert np.linalg.norm(buf.value_at(t)) <= seminorm_h(buf, t) + 1e-12


def test_apriori_bound_stable_under_path_doubling():
    # E sup ||u||^2 <= C (1 + ||phi||_h^2), C fitted once, stable within 20%
    p = get_preset("scalar-holder-osc")
    cfg = StepperConfig(dt=2e-3, T=1.0, noise_modes=1, seed=17, eps=1.0)
    phi_sq = seminorm_h(p.initial, 0.0) ** 2

    def fit_c(n_paths):
        sups = np.empty(n_paths)
        for pid, traj in enumerate(batched_paths(p, cfg, n_paths)):
            sups[pid] = np.max(np.sum(traj.states**2, axis=1))
        return sups.mean() / (1.0 + phi_sq)

    c100 = fit_c(100)
    c200 = fit_c(200)
    assert abs(c200 - c100) / c100 < 0.20


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

def test_coupled_constant_xi_exactly_zero():
    p = constant_xi(get_preset("reaction-diffusion-delay", k=8))
    cfg = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=2, eps=0.05)
    _, _, sup_err = coupled_run(p.operator, p.coefficients, cfg, p.initial)
    assert sup_err == 0.0


def test_coupled_run_matches_convolution_oracle():
    # deterministic difference: x(t) = int_0^t e^{-(t-s)} sin(s/eps) ds
    p = get_preset("scalar-linear-osc")
    eps = 0.01
    dt = 1e-4
    cfg = StepperConfig(dt=dt, T=1.0, noise_modes=1, seed=3, eps=eps)
    te, ta, sup_err = coupled_run(p.operator, p.coefficients, cfg, p.initial)
    lam = 1.0 / eps
    t = te.times
    oracle = (np.sin(lam * t) - lam * np.cos(lam * t) + lam * np.exp(-t)) / (1.0 + lam**2)
    sup_oracle = float(np.max(np.abs(oracle)))
    diff = np.abs(te.states[:, 0] - ta.states[:, 0])
    # the grid sup of the difference must match the closed form on the grid
    assert float(np.max(diff)) == pytest.approx(sup_oracle, rel=2e-2)
    assert sup_err == pytest.approx(sup_oracle**2, rel=4e-2)
    # transient doubles the steady amplitude: sup ~ 2 eps near t = pi eps
    assert sup_oracle < 2.1 * eps


def test_coupled_error_smaller_at_smaller_eps_same_seed():
    p = get_preset("scalar-holder-osc")
    errs = {}
    for eps in (1.0, 0.01):
        cfg = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=7, eps=eps)
        _, _, errs[eps] = coupled_run(p.operator, p.coefficients, cfg, p.initial)
    assert errs[0.01] < errs[1.0]
    assert errs[1.0] > 0.0


def test_coupled_rerun_reproduces_sup_error_exactly():
    p = get_preset("reaction-diffusion-delay", k=8)
    cfg = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=31, eps=0.2)
    args = (p.operator, p.coefficients, cfg, p.initial)
    _, _, e1 = coupled_run(*args)
    _, _, e2 = coupled_run(*args)
    assert e1 == e2


# ---------------------------------------------------------------------------
# the averaged system
# ---------------------------------------------------------------------------

# preset, dt and T of a short run
SHORT_RUNS = {"scalar": (get_preset("scalar-holder-osc"), 5e-3, 0.2),
              "field": (get_preset("reaction-diffusion-delay", k=8), 2e-3, 0.05)}


@pytest.mark.parametrize("kind", sorted(SHORT_RUNS))
@given(eps=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_averaged_system_does_not_depend_on_eps(kind, eps, seed):
    # the averaged coefficients carry constant oscillators, so the time scale
    # eps they are stepped at moves no bit of the path
    p, dt, T = SHORT_RUNS[kind]
    cs = p.coefficients.averaged()
    runs = [run_path(p.operator, cs, StepperConfig(dt=dt, T=T, noise_modes=p.k_w,
                                                   seed=seed, eps=e), p.initial)
            for e in (eps, 1.0)]
    np.testing.assert_array_equal(runs[0].states, runs[1].states)


@given(seed=st.integers(0, 2**32 - 1), path_id=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_averaged_linear_preset_is_ou_linear_in_the_noise(seed, path_id):
    # f* = 0 and g* = 1: the averaged scalar-linear-osc is OU from 0, and the
    # implicit step x <- (x + sqrt(dt) z) / (1 + dt) sums the noise linearly
    p = get_preset("scalar-linear-osc")
    dt, n = 1e-2, 50
    cfg = StepperConfig(dt=dt, T=0.5, seed=seed)
    traj = run_path(p.operator, p.coefficients.averaged(), cfg, p.initial, path_id)
    z = normal_block(seed, path_id, n, 1)[:, 0]
    want = np.sum(math.sqrt(dt) * z * (1.0 + dt) ** -(n - np.arange(n)))
    assert abs(traj.states[-1, 0] - want) <= 1e-12


# ---------------------------------------------------------------------------
# batch placement
# ---------------------------------------------------------------------------

PLACED = {"scalar": get_preset("scalar-holder-osc"),
          "field": get_preset("reaction-diffusion-delay", k=8)}


def _placed_row(p, cfg, path_id, rows, r, coupled):
    """Row r of the runner of ``rows`` rows that starts at path_id: its
    trajectory, or its sup distance to the averaged twin when coupled."""
    runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=path_id, rows=rows)
    if coupled:
        runner.couple(p.coefficients.averaged(), p.initial)
        runner.run()
        return runner.sup_sq[r]
    return runner.run().states[:, r]


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("kind", sorted(PLACED))
@given(width=st.sampled_from([16, 32, 64]), data=st.data(),
       path_id=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_path_bits_do_not_depend_on_its_place_in_the_batch(kind, coupled, width, data,
                                                           path_id, seed):
    # path p stepped as row r of a width-W batch starting at p - r has the
    # bits of row 0 of the 16-row batch starting at p
    p = PLACED[kind]
    r = data.draw(st.integers(0, min(width - 1, path_id)), label="row")
    cfg = StepperConfig(dt=p.dt, T=0.05, noise_modes=p.k_w, seed=seed, eps=0.1)
    placed = _placed_row(p, cfg, path_id - r, width, r, coupled)
    alone = _placed_row(p, cfg, path_id, 16, 0, coupled)
    np.testing.assert_array_equal(placed, alone)


# ---------------------------------------------------------------------------
# khasminskii freezing
# ---------------------------------------------------------------------------

def test_freeze_with_one_step_blocks_is_identity():
    times = np.linspace(0.0, 1.0, 11)
    states = np.sin(times)[:, None]
    traj = Trajectory(times, states)
    frozen = khasminskii_freeze(traj, d=0.1)
    np.testing.assert_array_equal(frozen.states, traj.states)


def test_freeze_constant_path_unchanged():
    times = np.linspace(0.0, 1.0, 101)
    traj = Trajectory(times, np.full((101, 1), 2.5))
    frozen = khasminskii_freeze(traj, d=0.2)
    np.testing.assert_array_equal(frozen.states, traj.states)


def test_freeze_holds_left_endpoint_values():
    times = np.linspace(0.0, 1.0, 11)
    traj = Trajectory(times, times[:, None])
    frozen = khasminskii_freeze(traj, d=0.5)
    np.testing.assert_allclose(frozen.states[:5, 0], 0.0)
    np.testing.assert_allclose(frozen.states[5:10, 0], 0.5)
    np.testing.assert_allclose(frozen.states[10, 0], 1.0)


def test_freeze_residual_decreases_with_block_length():
    p = get_preset("scalar-linear-osc")
    cfg = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=5)
    traj = run_path(p.operator, p.coefficients.averaged(), cfg, p.initial, path_id=0)
    dt = cfg.dt
    residuals = []
    for d in (0.2, 0.1, 0.05):
        frozen = khasminskii_freeze(traj, d)
        diff = traj.states - frozen.states
        residuals.append(float(np.sum(diff**2) * dt))
    assert residuals[0] > residuals[1] > residuals[2]


def test_freeze_rejects_non_multiple_block():
    traj = Trajectory(np.linspace(0.0, 1.0, 11), np.zeros((11, 1)))
    with pytest.raises(ValueError):
        khasminskii_freeze(traj, d=0.15)


# ---------------------------------------------------------------------------
# blow-up handling
# ---------------------------------------------------------------------------

def noiseless_coefficients(drift):
    """Scalar coefficients with the given drift, zero diffusion and xi = 1."""
    profile = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                                gamma=1.0, p=2.0, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    return CoefficientSet(
        drift=drift,
        diffusion=DiffusionSpec(kind="scalar", gain=0.0),
        osc1=Oscillator.constant(1.0), osc2=Oscillator.constant(1.0),
        profile=profile,
    )


def explosive_coefficients(gain):
    return noiseless_coefficients(DriftSpec(seminorm_power=4.0, seminorm_gain=gain))


def test_blow_up_raises_with_time_and_mode():
    cs = explosive_coefficients(1e3)
    op = PdeOperator("scalar_linear", a=1.0)
    init = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([10.0])))
    cfg = StepperConfig(dt=0.1, T=2.0, noise_modes=1, seed=0, eps=1.0)
    with pytest.raises(BlowUpError) as err:
        run_path(op, cs, cfg, init)
    assert err.value.t > 0.0
    assert err.value.mode_index == 0


def test_step_halving_salvages_overflowing_sum():
    # additive drift near the float ceiling: the full-step sum x + dt*C
    # overflows, but halved substeps interleave the implicit damping with the
    # accumulation and stay finite
    cs = noiseless_coefficients(DriftSpec(constant=5e307))
    op = PdeOperator("scalar_linear", a=4.0)
    x0 = 1.5e308
    init = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([x0])))
    cfg = StepperConfig(dt=1.0, T=3.0, noise_modes=1, seed=0, eps=1.0)
    # the raw full step overflows in the sum
    assert not math.isfinite((x0 + cfg.dt * 5e307) * 1.0)
    traj = run_path(op, cs, cfg, init)
    assert np.all(np.isfinite(traj.states))
    assert abs(traj.states[-1, 0]) < x0
    # the first step is rescued by one halving: it equals two reference steps
    # at dt/2 (the diffusion gain is 0, so the noise drops out)
    half = StepperConfig(dt=0.5, T=1.0, noise_modes=1, seed=0, eps=1.0)
    st = PathState(buffer=init, t=0.0)
    for _ in range(2):
        st = step(st, op, cs, half)
    assert traj.states[1, 0] == st.buffer.head[0]


def test_rescued_step_freezes_the_delay_term():
    # the full step's dt * rhs overflows; one halving rescues it.  The runner's
    # substeps keep the delay value V(0) of the step's start, where two
    # reference steps at dt/2 recompute V(dt/2) from the new sample.  The state
    # stays near 1.5e148, below the 1.3e154 where state_norm overflows.
    mu = DelayMeasure.exponential(1.0)
    gain, a, dt = 1e159, 1e160, 1.5
    cs = noiseless_coefficients(DriftSpec(constant=1.5e308, delay_kernel_power=1.0,
                                          delay_gain=gain, delay_measure=mu))
    op = PdeOperator("scalar_linear", a=a)
    init = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([1.0])))
    cfg = StepperConfig(dt=dt, T=3.0, noise_modes=1, seed=0, eps=1.0)
    v0 = delay_integral(init, 0.0, mu, 1.0)
    assert not math.isfinite(dt * (1.5e308 + gain * v0))
    traj = run_path(op, cs, cfg, init)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 1e154
    half = StepperConfig(dt=dt / 2, T=dt, noise_modes=1, seed=0, eps=1.0)
    st = step(PathState(buffer=init, t=0.0), op, cs, half)
    v_half = delay_integral(st.buffer, dt / 2, mu, 1.0)
    st = step(st, op, cs, half)
    gap = traj.states[1, 0] - st.buffer.head[0]
    assert gap != 0.0  # the frozen cache moves the result
    predicted = (dt / 2) * 1.0 * gain * (v0 - v_half) / (1.0 + a * dt / 2)
    assert gap == pytest.approx(predicted, rel=1e-12, abs=0)


@pytest.mark.parametrize("rows", [16, 64])
def test_rescued_step_freezes_the_seminorm_term(rows):
    # the seminorm counterpart of the delay case: the full step's dt * rhs
    # overflows and one halving rescues it.  The runner's substeps keep the
    # seminorm S(0) = 1 of the step's start, where two reference steps at
    # dt/2 recompute S(dt/2) ~ 1.5e148 from the new sample.
    gain, a, dt = 1e159, 1e160, 1.5
    cs = noiseless_coefficients(DriftSpec(constant=1.5e308, seminorm_power=1.0,
                                          seminorm_gain=gain))
    op = PdeOperator("scalar_linear", a=a)
    init = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([1.0])))
    cfg = StepperConfig(dt=dt, T=3.0, noise_modes=1, seed=0, eps=1.0)
    s0 = seminorm_h(init, 0.0)
    assert not math.isfinite(dt * (1.5e308 + gain * s0))
    runner = PathRunner(op, cs, cfg, init, rows=rows)
    traj = runner.run()
    assert runner.errors == [None] * rows
    assert np.all(np.isfinite(traj.states))
    assert np.all(traj.states[:, 1:] == traj.states[:, :1])
    half = StepperConfig(dt=dt / 2, T=dt, noise_modes=1, seed=0, eps=1.0)
    st = step(PathState(buffer=init, t=0.0), op, cs, half)
    s_half = seminorm_h(st.buffer, dt / 2)
    st = step(st, op, cs, half)
    gap = traj.states[1, 0, 0] - st.buffer.head[0]
    assert gap != 0.0  # the frozen cache moves the result
    predicted = (dt / 2) * 1.0 * gain * (s0 - s_half) / (1.0 + a * dt / 2)
    assert gap == pytest.approx(predicted, rel=1e-12, abs=0)


def test_operator_overflow_is_a_row_blow_up():
    # grid values of a 1e308 head overflow in to_values: every row ends in a
    # BlowUpError after the halving retry, and run() returns
    p = get_preset("reaction-diffusion-delay", k=8)
    init = HistoryBuffer.from_tail(p.initial.h, ConstantTail(np.full(8, 1e308)))
    cfg = StepperConfig(dt=1e-3, T=2e-3, noise_modes=8)
    runner = PathRunner(p.operator, p.coefficients, cfg, init)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runner.run()
    assert isinstance(runner.errors[0], BlowUpError)


@pytest.mark.parametrize("head", [1e308, 1e200])
def test_reference_step_overflow_raises_blow_up_without_warnings(head):
    # the same overflow through the reference step(): a BlowUpError at the
    # first step, and no RuntimeWarning on the way to it
    p = get_preset("reaction-diffusion-delay", k=8)
    init = HistoryBuffer.from_tail(p.initial.h, ConstantTail(np.full(8, head)))
    cfg = StepperConfig(dt=1e-3, T=2e-3, noise_modes=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            step(PathState(buffer=init, t=0.0), p.operator, p.coefficients, cfg)
    assert err.value.t == pytest.approx(1e-3)
    assert err.value.mode_index == 0


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, T=1.0, eps=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.3, T=1.0)  # not an integer multiple


def test_averaged_label_is_not_a_stepper_eps():
    # the averaged system is a coefficient set, cs.averaged(), not an eps
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, T=1.0, eps="averaged")
