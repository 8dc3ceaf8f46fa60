"""Integrator: counter-based noise, stepping oracles, coupling, freezing."""

import dataclasses
import itertools
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri

from avg_sfpde import integrator
from avg_sfpde.coefficients import (
    AssumptionProfile,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    Oscillator,
)
from avg_sfpde.delay import ConstantTail, DelayMeasure, HistoryBuffer, delay_integral, seminorm_h
from avg_sfpde.integrator import (
    MAX_STEPS,
    MAX_WIDTH,
    RETRY_HALVINGS,
    SLAB,
    BlowUpError,
    PathRunner,
    StepperConfig,
    Trajectory,
    _ndtri,
    _philox,
    _raw_to_normal,
    _sq_distance,
    coupled_run,
    khasminskii_freeze,
    normal_block,
    run_path,
)
from avg_sfpde.presets import constant_xi, get_preset, public_names
from avg_sfpde.spectral import PdeOperator, SpectralSpace
from oracles import reference_path, reference_step


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k_w", [1, 3, 4, 7])
def test_noise_block_equals_stepwise_draws(k_w):
    # the reference step reads step n as the last row of the (n + 1)-step block
    blk = normal_block(seed=123, path_id=5, n_steps=13, k_w=k_w)
    for n in range(1, 13):
        np.testing.assert_array_equal(normal_block(123, 5, n, k_w), blk[:n])


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


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_inverse_cdf_has_scipy_bits_on_philox_draws():
    # 2^20 draws of one stream: 27% of them take the tails' two logs, which
    # must be the C library's, as in scipy's Cephes
    raw = _philox(2024, 3).random_raw(2**20)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    assert_same_bits(_raw_to_normal(raw), scipy_ndtri(u))


def test_inverse_cdf_has_scipy_bits_on_the_draw_grid_edges():
    # the 2^20 points of the draw grid k 2^-53 + 2^-54 nearest 0 and nearest
    # 1; those below e^-32 take the far tail's P2/Q2, and the last rounds to 1
    k = np.arange(2**20, dtype=np.float64)
    for u in (k * 2.0**-53 + 2.0**-54, (2.0**53 - 1 - k) * 2.0**-53 + 2.0**-54):
        assert_same_bits(_ndtri(u), scipy_ndtri(u))


def test_inverse_cdf_has_scipy_bits_at_the_branch_edges():
    # the centre/tail switches at e^-2 and 1 - e^-2, and the switch from
    # P1/Q1 to P2/Q2 at x = 8, u = e^-32, each with its float neighbours
    edges = np.array([0.13533528323661269189, 1.0 - 0.13533528323661269189, math.exp(-32)])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    assert_same_bits(_ndtri(u), scipy_ndtri(u))


def test_largest_raw_output_draws_inf_without_a_warning():
    # (2^53 - 1) 2^-53 + 2^-54 rounds to exactly 1.0
    raw = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _raw_to_normal(raw)
    assert z[0] == np.inf and z[1] == z[0]
    assert math.isfinite(z[2]) and z[2] > 8.0


# (eps grid, dt) of the benchmark's stepping command lines, all at T = 1
WORKLOAD_LINES = [((0.5, 0.1, 0.02), 1e-3), ((0.5, 0.1, 0.02), 2e-3),
                  ((0.1, 0.01, 0.001), 2e-4), ((0.5,), 1e-3)]
ALL_PRESETS = public_names() + ["heat-deterministic", "broken-quadratic"]


@pytest.mark.parametrize("name", [n for n in ALL_PRESETS
                                  if get_preset(n).coefficients.osc1.amp
                                  or get_preset(n).coefficients.osc2.amp])
def test_oscillator_table_has_the_bits_of_scalar_eval(name):
    # run() tabulates xi_1(t / eps) and xi_2(t / eps) of every twin once per
    # slab; each entry must be scalar_eval's float at that time, on the whole
    # grid and at the substep times of the halving retry
    p = get_preset(name, k=8 if name in ("reaction-diffusion-delay", "porous-media-sin") else None)
    cs = p.coefficients
    for eps_grid, dt in WORKLOAD_LINES:
        cfg = StepperConfig(dt=dt, T=1.0, seed=0, eps=eps_grid[0])
        runner = PathRunner(p.operator, cs, cfg, p.initial, rows=16,
                            partners=[(cs, eps, p.initial) for eps in eps_grid[1:]])
        # the times at which the finest retry of step n evaluates them
        parts = 2**RETRY_HALVINGS
        substeps = list(itertools.accumulate(
            [runner.times[cfg.n_steps // 3]] + [dt * (1.0 / parts)] * (parts - 1)))
        for times in (runner.times, np.array(substeps)):
            table = runner._oscillators(times)
            for j, (twin, eps, _) in enumerate(runner.twins):
                for i, osc in enumerate((twin.osc1, twin.osc2)):
                    want = [osc.scalar_eval(t / eps) for t in times]
                    assert_same_bits(table[:, i, j, 0, 0], want)


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

def row_zero_history(r):
    """History of path path_id (row 0) of runner r after its run."""
    return HistoryBuffer(h=r.initial.h, tail=r.initial.tail, times=r.times,
                         samples=r.states[:, 0])


DELAY_FREE = [("scalar-linear-osc", None), ("heat-deterministic", None),
              ("porous-media-sin", 8), ("porous-media-sin", 32)]
WITH_MEMORY = [("scalar-holder-osc", None), ("reaction-diffusion-delay", 8),
               ("broken-quadratic", None)]
# (seed, eps, dt, T, path_id); 70 and 200 steps cross the runner's first slab edge
REFERENCE_RUNS = [(5, 1.0, 0.01, 0.7, 0), (2, 0.3, 0.01, 0.7, 3), (7, 0.05, 0.01, 0.7, 17),
                  (9, 0.5, 1e-3, 0.2, 4)]


@pytest.mark.parametrize("name,k", DELAY_FREE + WITH_MEMORY)
def test_runner_agrees_with_reference_step(name, k):
    # a preset without a delay or seminorm term steps bit for bit as the
    # reference; the runner accumulates those terms step by step, so with
    # one the two agree to rounding
    p = get_preset(name, k=k)
    for seed, eps, dt, T, path_id in REFERENCE_RUNS:
        cfg = StepperConfig(dt=dt, T=T, noise_modes=p.k_w, seed=seed, eps=eps)
        traj = run_path(p.operator, p.coefficients, cfg, p.initial, path_id=path_id)
        buf = reference_path(p.operator, p.coefficients, cfg, p.initial, path_id=path_id)
        assert np.all(np.isfinite(traj.states)) and np.any(traj.states[-1] != traj.states[0])
        if (name, k) in DELAY_FREE:
            np.testing.assert_array_equal(traj.states, buf.samples)
        else:
            np.testing.assert_allclose(traj.states, buf.samples, rtol=1e-10, atol=1e-14)


def test_delay_accumulator_tracks_reference_integral():
    p = get_preset("scalar-holder-osc")
    cfg = StepperConfig(dt=0.01, T=0.5, noise_modes=1, seed=3, eps=0.5)
    r = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=2, rows=16)
    r.run()
    mu = p.coefficients.drift.delay_measure
    ref = delay_integral(row_zero_history(r), mu, 0.5)
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
    r = PathRunner(p.operator, p.coefficients, cfg, p.initial, rows=16)
    r.run()
    buf = row_zero_history(r)
    for t in (0.1, 0.25, 0.5):
        # the history up to t: its samples through step t / dt
        j = round(t / cfg.dt)
        upto = HistoryBuffer(buf.h, buf.tail, buf.times[:j + 1], buf.samples[:j + 1])
        assert upto.head_time == pytest.approx(t, abs=1e-15)
        assert np.linalg.norm(upto.head) <= seminorm_h(upto) + 1e-12


def test_apriori_bound_stable_under_path_doubling():
    # E sup ||u||^2 <= C (1 + ||phi||_h^2), C fitted once, stable within 20%
    p = get_preset("scalar-holder-osc")
    cfg = StepperConfig(dt=2e-3, T=1.0, noise_modes=1, seed=17, eps=1.0)
    phi_sq = seminorm_h(p.initial) ** 2

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
# the Galerkin limit
# ---------------------------------------------------------------------------

def _galerkin_states(name, k, k_w, T):
    """Paths 0-7 of the k-mode projection of a field preset at eps = 0.1."""
    p = get_preset(name, k=k)
    cfg = StepperConfig(dt=1e-3, T=T, noise_modes=k_w, seed=0, eps=0.1)
    runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, rows=8)
    states = runner.run().states
    assert runner.errors == [None] * 8
    return states


@pytest.mark.parametrize("name, k_w, T, ks", [
    ("porous-media-sin", 1, 1.0, (8, 16, 32)),
    ("reaction-diffusion-delay", 8, 1.0, (8, 16, 32)),
    ("porous-media-sin", 1, 0.05, (256, 512, 1024)),    # k = 1024 steps on the DST
])
def test_galerkin_projections_converge_as_k_doubles(name, k_w, T, ks):
    # the k-mode runs share their noise (k_w fixed), so the mean over the
    # paths of sup_t ||u_k - u_2k||, u_k zero-padded, falls by a factor of
    # 0.18-0.26 per doubling; a broken transform, scaling or noise mapping
    # shows as a factor near 1
    small, mid, big = (_galerkin_states(name, k, k_w, T) for k in ks)

    def distance(a, b):
        pad = np.zeros(b.shape)
        pad[..., :a.shape[-1]] = a
        return np.sqrt(_sq_distance(pad, b)).max(axis=0).mean()

    assert distance(mid, big) <= 0.5 * distance(small, mid)


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
    partners = [(p.coefficients.averaged(), cfg.eps, p.initial)] if coupled else []
    runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=path_id, rows=rows,
                        partners=partners)
    if coupled:
        runner.run()
        return runner.sup_sq[0, r]
    return runner.run().states[:, r]


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("kind", sorted(PLACED))
@given(width=st.sampled_from([1, 5, 16, 20, 32, 64]), data=st.data(),
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


COUPLE_CFG = StepperConfig(dt=2e-3, T=0.01, noise_modes=8, seed=0, eps=0.5)


def test_couple_rejects_a_partner_the_runner_cannot_honour():
    # a partner shares the runner's grid, noise and state shape; only its
    # coefficients, eps and start may differ, and a state shape that differs
    # is named, never ignored
    p = PLACED["field"]
    other = get_preset("reaction-diffusion-delay", k=16).coefficients
    with pytest.raises(ValueError, match=r"partner dim = 16: "):
        PathRunner(p.operator, p.coefficients, COUPLE_CFG, p.initial, rows=16,
                   partners=[(other, COUPLE_CFG.eps, p.initial)])


def _partner_differing_in(field, p):
    """(cs, initial) of a partner that differs from the preset's runner in one
    field the stacked kernel shares between twins."""
    cs, init = p.coefficients, p.initial
    if field == "drift":
        return dataclasses.replace(
            cs, drift=dataclasses.replace(cs.drift, constant=cs.drift.constant + 1.0)), init
    if field == "diffusion":
        return dataclasses.replace(
            cs, diffusion=dataclasses.replace(cs.diffusion, gain=2.0 * cs.diffusion.gain)), init
    if field == "space":
        return dataclasses.replace(cs, space=SpectralSpace(2.0, cs.dim)), init
    return cs, HistoryBuffer.from_tail(2.0 * init.h, init.tail)


@pytest.mark.parametrize("field", ["drift", "diffusion", "space", "initial.h"])
def test_couple_rejects_a_partner_the_stacked_kernel_cannot_step(field):
    # the twins share one drift, diffusion, space and history weight; a
    # partner that differs in one of them is rejected, naming the field
    p = PLACED["field"]
    cs, initial = _partner_differing_in(field, p)
    with pytest.raises(ValueError, match=rf"partner {re.escape(field)}"):
        PathRunner(p.operator, p.coefficients, COUPLE_CFG, p.initial, rows=16,
                   partners=[(p.coefficients.averaged(), 0.1, p.initial),
                             (cs, COUPLE_CFG.eps, initial)])


@pytest.mark.parametrize("rows", [0, -16])
def test_runner_rejects_a_width_below_one_row(rows):
    p = PLACED["field"]
    with pytest.raises(ValueError, match=rf"runner width {rows}: need at least 1 row"):
        PathRunner(p.operator, p.coefficients, COUPLE_CFG, p.initial, rows=rows)


def test_couple_accepts_a_partner_at_another_eps():
    p = PLACED["field"]
    runner = PathRunner(p.operator, p.coefficients.averaged(), COUPLE_CFG, p.initial, rows=16,
                        partners=[(p.coefficients, e, p.initial) for e in (0.5, 0.1)])
    runner.run()
    assert runner.sup_sq.shape == (2, 16)
    assert np.all(runner.sup_sq > 0.0)


def test_partner_has_the_bits_of_two_uncoupled_runs():
    # a partner at another eps and another start: its sup_sq row is the
    # max over the grid of the squared distance between two separate runs.
    # The start differs by less than the eps twins drift apart, so the max
    # falls after t = 0 and depends on both.
    p = PLACED["field"]
    cfg = dataclasses.replace(COUPLE_CFG, T=0.1)
    shift = np.zeros(p.coefficients.dim)
    shift[0] = 1e-4
    start = HistoryBuffer.from_tail(p.initial.h, ConstantTail(p.initial.tail.value + shift))
    runner = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=3, rows=16,
                        partners=[(p.coefficients, 0.1, start)])
    runner.run()
    own = PathRunner(p.operator, p.coefficients, cfg, p.initial, path_id=3, rows=16).run()
    partner = PathRunner(p.operator, p.coefficients, dataclasses.replace(cfg, eps=0.1),
                         start, path_id=3, rows=16).run()
    dist = np.array([_sq_distance(b, a) for a, b in zip(own.states, partner.states)])
    np.testing.assert_array_equal(runner.sup_sq[0], dist.max(axis=0))
    assert np.all(dist.max(axis=0) > dist[0])


STACKED = {"scalar-linear-osc": (get_preset("scalar-linear-osc"), 1),
           "scalar-holder-osc": (get_preset("scalar-holder-osc"), 1),
           "reaction-diffusion-delay": (get_preset("reaction-diffusion-delay", k=8), 3),
           "porous-media-sin": (get_preset("porous-media-sin"), 1)}
GATED = Oscillator.sinusoid(1.0, 0.5, 1.0)      # a partner's xi_2 may oscillate too


class _Kicked(PathRunner):
    """A runner that sets state row ``row`` to inf before step ``step``."""

    def __init__(self, *args, row, step, **kwargs):
        super().__init__(*args, **kwargs)
        self.kick = (row, step)

    def _advance(self, n, dW):
        row, step = self.kick
        if n == step:
            self.x = self.x.copy()
            self.x[row] = np.inf
        super()._advance(n, dW)


@pytest.mark.parametrize("name", sorted(STACKED))
@given(width=st.sampled_from([5, 16, 64]), data=st.data(),
       path_id=st.integers(0, 10_000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_stacked_twins_have_the_bits_of_separate_runs(name, width, data, path_id, seed):
    # 1-3 partners at other eps and shifted starts, stacked below the shared
    # twin: each sup_sq row equals the grid max of the squared distance
    # between two separate uncoupled runs, bit for bit
    p, k_w = STACKED[name]
    cs, op = p.coefficients, p.operator
    cfg = StepperConfig(dt=2e-3, T=0.04, noise_modes=k_w, seed=seed, eps=1.0)
    shared = data.draw(st.sampled_from([cs, cs.averaged()]), label="shared")
    drawn = data.draw(st.lists(st.tuples(st.sampled_from([0.5, 0.1, 0.02, 0.005]),
                                         st.sampled_from([0.0, 1e-3, 0.1]), st.booleans()),
                               min_size=1, max_size=3, unique_by=lambda d: d[0]),
                      label="partners")
    partners = []
    for eps, delta, gated in drawn:
        shift = np.zeros(cs.dim)
        shift[0] = delta
        start = HistoryBuffer.from_tail(p.initial.h, ConstantTail(p.initial.tail.value + shift))
        partners.append((dataclasses.replace(cs, osc2=GATED) if gated else cs, eps, start))

    def stacked(runner_cls=PathRunner, **kick):
        runner = runner_cls(op, shared, cfg, p.initial, path_id=path_id, rows=width,
                            partners=partners, **kick)
        runner.run()
        return runner

    runner = stacked()
    own = PathRunner(op, shared, cfg, p.initial, path_id=path_id, rows=width).run()
    for j, (pcs, eps, start) in enumerate(partners):
        alone = PathRunner(op, pcs, dataclasses.replace(cfg, eps=eps), start,
                           path_id=path_id, rows=width).run()
        np.testing.assert_array_equal(runner.sup_sq[j],
                                      _sq_distance(alone.states, own.states).max(axis=0))

    # a row kicked to a blow-up in one twin block moves no other row
    block = data.draw(st.integers(0, len(partners)), label="block")
    r = data.draw(st.integers(0, width - 1), label="row")
    step_ = data.draw(st.integers(0, cfg.n_steps - 1), label="step")
    kicked = stacked(_Kicked, row=block * width + r, step=step_)
    assert [i for i, e in enumerate(kicked.errors) if e is not None] == [block * width + r]
    assert kicked.errors[block * width + r].t == pytest.approx(cfg.dt * (step_ + 1))
    others = np.ones(len(runner.x), dtype=bool)
    others[block * width + r] = False
    np.testing.assert_array_equal(kicked.x[others], runner.x[others])
    moved = np.zeros(runner.sup_sq.shape, dtype=bool)
    if block == 0:
        moved[:, r] = True              # every partner is measured against twin 0
    else:
        moved[block - 1, r] = True
    np.testing.assert_array_equal(kicked.sup_sq[~moved], runner.sup_sq[~moved])


class _Folding(PathRunner):
    """A runner that keeps the length of every record of states it folds."""

    def _partner_sq(self, states):
        if states.ndim == 3:
            self.folds.append(len(states))
        return super()._partner_sq(states)


@pytest.mark.parametrize("name", ["reaction-diffusion-delay", "scalar-linear-osc"])
def test_fold_length_moves_no_bit_of_sup_sq(monkeypatch, name):
    # records of 1, 3 and 7 states straddle the slab edge at step 64, the
    # last of 71 steps is partial, and by default a slab is one record
    p, k_w = STACKED[name]
    cs = p.coefficients
    cfg = StepperConfig(dt=2e-3, T=71 * 2e-3, noise_modes=k_w, seed=11, eps=1.0)
    shift = np.zeros(cs.dim)
    shift[0] = 0.1
    partners = [(cs, 0.1, p.initial),
                (cs, 0.02, HistoryBuffer.from_tail(
                    p.initial.h, ConstantTail(p.initial.tail.value + shift)))]
    sups, default = [], integrator.RECORD_BYTES
    for fold in (1, 3, 7, SLAB):
        runner = _Folding(p.operator, cs.averaged(), cfg, p.initial, path_id=5, rows=16,
                          partners=partners)
        runner.folds = []
        state = runner.x.nbytes
        record_bytes = {1: state // 2, 3: 3 * state, 7: 7 * state + state // 2,
                        SLAB: default}[fold]
        monkeypatch.setattr(integrator, "RECORD_BYTES", record_bytes)
        runner.run()
        assert runner.folds == [min(fold, cfg.n_steps - n) for n in range(0, cfg.n_steps, fold)]
        assert max(runner.folds) * state <= max(record_bytes, state)
        sups.append(runner.sup_sq)
    assert sups[0].shape == (2, 16) and np.all(sups[0] > 0)
    for sup in sups[1:]:
        np.testing.assert_array_equal(sup, sups[0])


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
                                gamma=1.0, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    return CoefficientSet(
        drift=drift,
        diffusion=DiffusionSpec(kind="rank_one", gain=0.0),
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


def test_blow_up_error_survives_pickling():
    # a worker process hands its censored paths back pickled
    err = BlowUpError(0.5, 3)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BlowUpError
    assert (back.t, back.mode_index, str(back)) == (err.t, err.mode_index, str(err))
    assert str(back) == "state blew up at t = 0.5 (mode 3)"


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
    assert traj.states[1, 0] == reference_path(op, cs, half, init).head[0]


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
    v0 = delay_integral(init, mu, 1.0)
    assert not math.isfinite(dt * (1.5e308 + gain * v0))
    traj = run_path(op, cs, cfg, init)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 1e154
    half = StepperConfig(dt=dt / 2, T=dt, noise_modes=1, seed=0, eps=1.0)
    buf = reference_step(init, op, cs, half)
    v_half = delay_integral(buf, mu, 1.0)
    buf = reference_step(buf, op, cs, half)
    gap = traj.states[1, 0] - buf.head[0]
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
    s0 = seminorm_h(init)
    assert not math.isfinite(dt * (1.5e308 + gain * s0))
    runner = PathRunner(op, cs, cfg, init, rows=rows)
    traj = runner.run()
    assert runner.errors == [None] * rows
    assert np.all(np.isfinite(traj.states))
    assert np.all(traj.states[:, 1:] == traj.states[:, :1])
    half = StepperConfig(dt=dt / 2, T=dt, noise_modes=1, seed=0, eps=1.0)
    buf = reference_step(init, op, cs, half)
    s_half = seminorm_h(buf)
    buf = reference_step(buf, op, cs, half)
    gap = traj.states[1, 0, 0] - buf.head[0]
    assert gap != 0.0  # the frozen cache moves the result
    predicted = (dt / 2) * 1.0 * gain * (s0 - s_half) / (1.0 + a * dt / 2)
    assert gap == pytest.approx(predicted, rel=1e-12, abs=0)


def test_operator_overflow_is_a_row_blow_up():
    # grid values of a 1e308 head overflow in to_values: every row ends in a
    # BlowUpError after the halving retry, and run() returns
    p = get_preset("reaction-diffusion-delay", k=8)
    init = HistoryBuffer.from_tail(p.initial.h, ConstantTail(np.full(8, 1e308)))
    cfg = StepperConfig(dt=1e-3, T=2e-3, noise_modes=8)
    runner = PathRunner(p.operator, p.coefficients, cfg, init, rows=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runner.run()
    assert isinstance(runner.errors[0], BlowUpError)


@pytest.mark.parametrize("head", [1e308, 1e200])
def test_reference_step_overflow_raises_blow_up_without_warnings(head):
    # the same overflow through the reference step: a BlowUpError at the
    # first step, and no RuntimeWarning on the way to it
    p = get_preset("reaction-diffusion-delay", k=8)
    init = HistoryBuffer.from_tail(p.initial.h, ConstantTail(np.full(8, head)))
    cfg = StepperConfig(dt=1e-3, T=2e-3, noise_modes=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as err:
            reference_step(init, p.operator, p.coefficients, cfg)
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
    with pytest.raises(ValueError, match=r"^T = inf: "):
        StepperConfig(dt=0.1, T=math.inf)
    with pytest.raises(ValueError, match=r"^T = nan: "):
        StepperConfig(dt=0.1, T=math.nan)
    with pytest.raises(ValueError, match=r"^dt = nan: "):
        StepperConfig(dt=math.nan, T=1.0)
    with pytest.raises(ValueError, match=r"^T = 10000000000.0, dt = 1e-300: T / dt overflows"):
        StepperConfig(dt=1e-300, T=1e10)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed = {seed}: "):
            StepperConfig(dt=0.1, T=1.0, seed=seed)


def test_a_step_count_above_max_steps_is_rejected_naming_dt_and_t():
    # T / dt = 1e300 passed every check, and the run died allocating its time
    # grid with numpy's "Maximum allowed size exceeded", naming neither key;
    # the bound is checked on construction, so these configs allocate nothing
    with pytest.raises(ValueError, match=r"^T = 1.0, dt = 1e-300: T / dt = 1e\+300 steps, "
                                         rf"more than MAX_STEPS = {MAX_STEPS}$"):
        StepperConfig(dt=1e-300, T=1.0)
    assert StepperConfig(dt=1.0, T=float(MAX_STEPS)).n_steps == MAX_STEPS
    with pytest.raises(ValueError, match=r"T / dt = 1e\+07 steps"):
        StepperConfig(dt=0.5, T=MAX_STEPS / 2 + 0.5)


def test_averaged_label_is_not_a_stepper_eps():
    # the averaged system is a coefficient set, cs.averaged(), not an eps
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, T=1.0, eps="averaged")
