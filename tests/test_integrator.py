"""Integrator: counter-based noise, stepping oracles, coupling, freezing."""

import dataclasses
import math

import numpy as np
import pytest

from avg_sfpde.coefficients import CoefficientSet, DiffusionSpec, DriftSpec, Oscillator
from avg_sfpde.delay import ConstantTail, DelayMeasure, HistoryBuffer, delay_integral, seminorm_h
from avg_sfpde.integrator import (
    AVERAGED,
    CHUNK,
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
    """Trajectories of paths 0 .. n_paths - 1 in order, stepped a chunk at a time."""
    for first in range(0, n_paths, CHUNK):
        runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=first)
        chunk = runner.run()
        for r in range(min(CHUNK, n_paths - first)):
            assert runner.errors[r] is None
            yield chunk.row(r)


def test_ou_terminal_variance_matches_closed_form():
    # du = -u dt + dW from 0: Var u(1) = (1 - e^{-2})/2
    p = get_preset("scalar-linear-osc")
    cfg = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=11, eps=AVERAGED)
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
    cfg_e = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=2, eps=0.05)
    cfg_a = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=2, eps=AVERAGED)
    _, _, sup_err = coupled_run(p.operator, p.coefficients, cfg_e, cfg_a,
                                shared_seed=2, initial=p.initial)
    assert sup_err == 0.0


def test_coupled_run_matches_convolution_oracle():
    # deterministic difference: x(t) = int_0^t e^{-(t-s)} sin(s/eps) ds
    p = get_preset("scalar-linear-osc")
    eps = 0.01
    dt = 1e-4
    cfg_e = StepperConfig(dt=dt, T=1.0, noise_modes=1, seed=3, eps=eps)
    cfg_a = StepperConfig(dt=dt, T=1.0, noise_modes=1, seed=3, eps=AVERAGED)
    te, ta, sup_err = coupled_run(p.operator, p.coefficients, cfg_e, cfg_a,
                                  shared_seed=3, initial=p.initial)
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
        cfg_e = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=7, eps=eps)
        cfg_a = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=7, eps=AVERAGED)
        _, _, errs[eps] = coupled_run(p.operator, p.coefficients, cfg_e, cfg_a,
                                      shared_seed=7, initial=p.initial)
    assert errs[0.01] < errs[1.0]
    assert errs[1.0] > 0.0


def test_coupled_rerun_reproduces_sup_error_exactly():
    p = get_preset("reaction-diffusion-delay", k=8)
    cfg_e = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=31, eps=0.2)
    cfg_a = StepperConfig(dt=2e-3, T=0.2, noise_modes=8, seed=31, eps=AVERAGED)
    args = (p.operator, p.coefficients, cfg_e, cfg_a)
    _, _, e1 = coupled_run(*args, shared_seed=31, initial=p.initial)
    _, _, e2 = coupled_run(*args, shared_seed=31, initial=p.initial)
    assert e1 == e2


def test_coupled_run_rejects_mismatched_grids():
    p = get_preset("scalar-linear-osc")
    cfg_e = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=0, eps=0.5)
    cfg_a = StepperConfig(dt=2e-3, T=1.0, noise_modes=1, seed=0, eps=AVERAGED)
    with pytest.raises(ValueError):
        coupled_run(p.operator, p.coefficients, cfg_e, cfg_a, 0, initial=p.initial)


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
    cfg = StepperConfig(dt=1e-3, T=1.0, noise_modes=1, seed=5, eps=AVERAGED)
    traj = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=0)
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

def explosive_coefficients(gain):
    from avg_sfpde.coefficients import AssumptionProfile
    profile = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                                gamma=1.0, p=2.0, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    return CoefficientSet(
        drift=DriftSpec(seminorm_power=4.0, seminorm_gain=gain),
        diffusion=DiffusionSpec(kind="scalar", gain=0.0),
        osc1=Oscillator.constant(1.0), osc2=Oscillator.constant(1.0),
        profile=profile,
    )


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
    from avg_sfpde.coefficients import AssumptionProfile
    profile = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                                gamma=1.0, p=2.0, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    cs = CoefficientSet(
        drift=DriftSpec(constant=5e307),
        diffusion=DiffusionSpec(kind="scalar", gain=0.0),
        osc1=Oscillator.constant(1.0), osc2=Oscillator.constant(1.0),
        profile=profile,
    )
    op = PdeOperator("scalar_linear", a=4.0)
    x0 = 1.5e308
    init = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([x0])))
    cfg = StepperConfig(dt=1.0, T=3.0, noise_modes=1, seed=0, eps=1.0)
    # the raw full step overflows in the sum
    assert not math.isfinite((x0 + cfg.dt * 5e307) * 1.0)
    traj = run_path(op, cs, cfg, init)
    assert np.all(np.isfinite(traj.states))
    assert abs(traj.states[-1, 0]) < x0


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


def test_runner_rejects_tabulated_delay_measure():
    p = get_preset("scalar-holder-osc")
    mu = DelayMeasure.tabulated([-1.0, 0.0], [1.0, 1.0])
    drift = dataclasses.replace(p.coefficients.drift, delay_measure=mu)
    cs = dataclasses.replace(p.coefficients, drift=drift)
    cfg = StepperConfig(dt=0.01, T=0.1, noise_modes=1, seed=0, eps=1.0)
    with pytest.raises(ValueError, match="'tabulated'"):
        PathRunner(p.operator, cs, cfg, p.initial)
    # the reference step still integrates a tabulated delay term
    st = step(PathState(buffer=p.initial, t=0.0), p.operator, cs, cfg)
    assert np.all(np.isfinite(st.buffer.head))
