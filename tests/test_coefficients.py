"""Coefficients: oscillators, functional evaluation, falsifiers, rate tables."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from avg_sfpde.coefficients import (
    OVERRIDE_KEYS,
    POINTWISE_MAPS,
    AssumptionProfile,
    CoefficientSet,
    DiffusionSpec,
    DriftSpec,
    Oscillator,
    check_growth,
    check_h5,
    check_holder,
    check_holder_averaged,
    estimate_rate,
    eval_diffusion_amplitude,
    eval_drift,
    libm_loop,
    pow_or_inf,
    sample_history,
    worst_draw,
)
from avg_sfpde.delay import (
    ConstantTail,
    DelayMeasure,
    HistoryBuffer,
    MomentDivergenceError,
    seminorm_h,
    state_norm,
)
from avg_sfpde.presets import constant_xi, get_preset, public_names
from avg_sfpde.spectral import SpectralSpace
from oracles import appended


def scalar_cs(drift, diffusion=None, osc1=None, osc2=None, profile=None, space=None):
    profile = profile or AssumptionProfile(
        alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0, gamma=1.0,
        mu1=DelayMeasure.point_mass(), mu2=DelayMeasure.point_mass())
    return CoefficientSet(
        drift=drift,
        diffusion=diffusion or DiffusionSpec(kind="scalar", gain=1.0),
        osc1=osc1 or Oscillator.constant(1.0),
        osc2=osc2 or Oscillator.constant(1.0),
        profile=profile,
        space=space,
    )


def const_buf(c, h=1.0, dim=1):
    return HistoryBuffer.from_tail(h, ConstantTail(np.full(dim, float(c))))


# ---------------------------------------------------------------------------
# oscillators
# ---------------------------------------------------------------------------

def test_oscillator_means():
    assert Oscillator.constant(2.5).mean() == 2.5
    assert Oscillator.sinusoid(2.0, 1.0, 1.0).mean() == 2.0


def test_oscillator_integral_closed_form_vs_quadrature():
    osc = Oscillator.sinusoid(2.0, 0.7, 3.0, phase=0.4)
    for a, b in [(0.0, 1.0), (2.0, 7.5), (-1.0, 12.0)]:
        oracle, _ = integrate.quad(lambda s: 2.0 + 0.7 * math.sin(3.0 * s + 0.4), a, b)
        assert osc.integral(a, b) == pytest.approx(oracle, rel=1e-10)
        oracle2, _ = integrate.quad(
            lambda s: (0.7 * math.sin(3.0 * s + 0.4)) ** 2, a, b)
        assert osc.square_deviation_integral(a, b) == pytest.approx(oracle2, rel=1e-10)


# ---------------------------------------------------------------------------
# eval_drift on the oscillating and the averaged coefficients
# ---------------------------------------------------------------------------

def test_eval_drift_identity_functional():
    cs = scalar_cs(DriftSpec(pointwise="identity"))
    assert eval_drift(cs, 0.3, const_buf(3.0))[0] == pytest.approx(3.0)


def test_eval_drift_section5_functional_closed_form():
    # F(phi) = cos(sqrt|phi(0)|) + int sqrt|phi(theta)| mu(dtheta), phi = 4:
    # cos 2 + 2, cross-checked by quadrature of the delay part
    mu = DelayMeasure.exponential(1.0)
    cs = scalar_cs(DriftSpec(pointwise="cos_sqrt_abs", delay_kernel_power=0.5,
                             delay_measure=mu))
    got = eval_drift(cs, 0.0, const_buf(4.0))[0]
    delay_oracle, _ = integrate.quad(
        lambda th: 2.0 * 2.0 * math.exp(2.0 * th), -np.inf, 0.0)
    assert got == pytest.approx(math.cos(2.0) + delay_oracle, rel=1e-10)
    assert got == pytest.approx(1.5838531634528576, rel=1e-12)


def test_eval_drift_oscillator_zero():
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   osc1=Oscillator.sinusoid(0.0, 1.0, 1.0))
    # sin(pi) vanishes to double rounding
    got = eval_drift(cs, math.pi, const_buf(1.0))[0]
    assert abs(got) < 1e-15


def test_averaged_drift_vanishes_for_mean_zero_oscillator():
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   osc1=Oscillator.sinusoid(0.0, 1.0, 1.0))
    assert eval_drift(cs.averaged(), 0.3, const_buf(3.7))[0] == 0.0


@pytest.mark.parametrize("power", [1.0, None])
def test_drift_delay_measure_must_be_exponential(power):
    # the runner accumulates the drift's delay term for the exponential
    # measure only, so a coefficient set with another kind is rejected
    with pytest.raises(ValueError, match="'point'"):
        scalar_cs(DriftSpec(pointwise="identity", delay_kernel_power=power,
                            delay_measure=DelayMeasure.point_mass()))
    # the point mass stays valid where the assumption profile uses it
    assert scalar_cs(DriftSpec(delay_kernel_power=power,
                               delay_measure=DelayMeasure.exponential(1.0))).profile.mu1.kind \
        == "point"


def test_averaged_drift_sinusoid_mean_is_offset():
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   osc1=Oscillator.sinusoid(2.0, 1.0, 1.0))
    buf = const_buf(3.0)
    assert eval_drift(cs.averaged(), 0.3, buf)[0] == pytest.approx(6.0)


def test_constant_oscillator_fast_equals_averaged_all_t():
    cs = scalar_cs(DriftSpec(pointwise="identity"), osc1=Oscillator.constant(1.7))
    buf = const_buf(2.0)
    avg = eval_drift(cs.averaged(), 0.0, buf)
    for t in (0.0, 0.37, 5.0):
        np.testing.assert_array_equal(eval_drift(cs, t / 0.01, buf), avg)


def map_samples():
    rng = np.random.default_rng(0)
    n = 100_000 // 4
    return np.concatenate([
        rng.standard_normal(n) * 10.0,
        rng.uniform(-1e6, 1e6, n),
        10.0 ** rng.uniform(-320.0, 300.0, n) * rng.choice([-1.0, 1.0], n),
        rng.uniform(-1.0, 1.0, n) * 2.2e-308,             # subnormals
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
    ])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("name,scalar", [
    ("sin_sqrt_abs", lambda s: math.sin(math.sqrt(abs(s)))),
    ("cos_sqrt_abs", lambda s: math.cos(math.sqrt(abs(s)))),
])
def test_pointwise_maps_bit_identical_to_libm_scalar_forms(name, scalar):
    # the batched kernel evaluates scalar states through these array maps; the
    # scalar reports stay bit-identical only while they agree with libm
    x = map_samples()
    want = [scalar(float(s)) for s in x]
    np.testing.assert_array_equal(bits(POINTWISE_MAPS[name](x)), bits(want))


@pytest.mark.parametrize("power", [0.5, 2.0, 4.0])
def test_pow_or_inf_bit_identical_to_python_pow(power):
    x = np.abs(map_samples())

    def py_pow(s):
        try:
            return s ** power
        except OverflowError:
            return math.inf

    want = [py_pow(float(s)) for s in x]
    np.testing.assert_array_equal(bits(pow_or_inf(x, power)), bits(want))


@pytest.mark.parametrize("ufunc, scalar", [(np.log, math.log), (np.sin, math.sin)])
def test_libm_loop_has_the_bits_of_the_c_library(ufunc, scalar):
    # numpy's SIMD log differs from the C library's on a fraction of a
    # percent of inputs on AVX-512 hosts; the noise's inverse CDF and the
    # oscillator table rely on libm_loop to stay off that path
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(1e-16, 1.0, 2**17), rng.uniform(1.0, 8.0, 2**15),
                        rng.uniform(-1e4, 1e4, 2**15)])
    if ufunc is np.log:
        x = np.abs(x) + 1e-300
    want = [scalar(float(s)) for s in x]
    np.testing.assert_array_equal(bits(libm_loop(ufunc, x)), bits(want))


def test_oscillator_values_have_the_bits_of_scalar_eval():
    t = np.random.default_rng(6).uniform(0.0, 1e3, 4096)
    for osc in (Oscillator.sinusoid(1.0, 0.5, 1.0, 0.25), Oscillator.constant(0.5)):
        want = [osc.scalar_eval(float(s)) for s in t]
        np.testing.assert_array_equal(bits(osc.values(t)), bits(want))


def test_diffusion_amplitudes():
    # diagonal: state independent, HS norm = gain * sqrt(sum 1/i^2)
    space = SpectralSpace(1.0, 4)
    cs = scalar_cs(DriftSpec(), DiffusionSpec(kind="diagonal", gain=0.5),
                   space=space)
    buf = HistoryBuffer.from_tail(1.0, ConstantTail(np.zeros(4)))
    amp = eval_diffusion_amplitude(cs, 0.0, buf)
    np.testing.assert_allclose(amp, 0.5 / np.arange(1, 5))
    assert state_norm(amp) == pytest.approx(0.5 * math.sqrt(np.sum(1.0 / np.arange(1, 5.0) ** 2)))
    # rank-one field: coefficients of the mapped head values
    cs2 = scalar_cs(DriftSpec(), DiffusionSpec(kind="pointwise_field",
                                               pointwise="cos_sqrt_abs", gain=2.0),
                    space=space)
    amp2 = eval_diffusion_amplitude(cs2, 0.0, buf)
    oracle = 2.0 * space.to_coeffs(np.cos(np.sqrt(np.abs(space.to_values(np.zeros(4))))))
    np.testing.assert_allclose(amp2, oracle)
    # applying noise scales by the first Wiener coordinate
    out = cs2.apply_noise(amp2, np.array([0.3]))
    np.testing.assert_allclose(out, 0.3 * amp2)


def test_a_rank_one_field_diffusion_without_a_map_is_rejected():
    with pytest.raises(ValueError, match="'pointwise_field' needs a pointwise map"):
        DiffusionSpec(kind="pointwise_field", gain=2.0)


# ---------------------------------------------------------------------------
# estimate_rate
# ---------------------------------------------------------------------------

def probe_set():
    return [const_buf(0.5), const_buf(2.0), const_buf(-4.0)]


def test_estimate_rate_sinusoid_bounded_by_two_over_r():
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   osc1=Oscillator.sinusoid(2.0, 1.0, 1.0))
    rate = estimate_rate(cs, probe_set(), [10.0, 100.0, 1000.0])
    norm = max(np.linalg.norm(cs.drift_functional(b)) /
               (seminorm_h(b) + cs.profile.M) for b in probe_set())
    for r, phi in zip(rate.windows, rate.raw_phi1):
        assert phi <= 2.0 / r * norm + 1e-12
    # the start-time maximization gets within 10% of the sharp 2|sin(r/2)|/r
    r0 = rate.windows[0]
    sharp = 2.0 * abs(math.sin(r0 / 2.0)) / r0 * norm
    assert rate.raw_phi1[0] >= 0.9 * sharp


def test_estimate_rate_constant_oscillator_is_zero():
    cs = scalar_cs(DriftSpec(pointwise="identity"), osc1=Oscillator.constant(3.0))
    rate = estimate_rate(cs, probe_set(), [10.0, 100.0])
    np.testing.assert_allclose(rate.phi1, 0.0, atol=1e-12)
    np.testing.assert_allclose(rate.phi2, 0.0, atol=1e-12)


def test_estimate_rate_cos_diffusion_table_matches_windowed_quadrature():
    # g(t, phi) = cos(t) * G(phi), g* = 0: the windowed square deviation
    # converges to the oscillation power 1/2, reported rather than hidden
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   DiffusionSpec(kind="scalar", gain=1.0),
                   osc2=Oscillator.sinusoid(0.0, 1.0, 1.0, phase=math.pi / 2))
    windows = [10.0, 100.0, 1000.0]
    rate = estimate_rate(cs, probe_set(), windows)
    starts = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    norm = max(state_norm(cs.diffusion_amplitude(b)) ** 2 /
               (seminorm_h(b) ** 2 + cs.profile.M) for b in probe_set())

    def window_mean_cos_sq(t0, r):
        s = np.linspace(t0, t0 + r, 20_001)
        return np.trapezoid(np.cos(s) ** 2, s) / r

    for r, got in zip(windows, rate.raw_phi2):
        oracle = max(window_mean_cos_sq(t0, r) for t0 in starts) * norm
        assert got == pytest.approx(oracle, rel=1e-5)
    assert np.all(np.diff(rate.phi1) <= 1e-15) and np.all(np.diff(rate.phi2) <= 1e-15)
    assert rate.phi2[-1] < rate.phi2[0]
    # the table converges to the oscillation power 1/2 (times normalization)
    assert rate.raw_phi2[-1] == pytest.approx(0.5 * norm, rel=1e-2)


def test_estimate_rate_envelope_decreasing_and_strictly_less_for_oscillation():
    cs = scalar_cs(DriftSpec(pointwise="identity"),
                   osc1=Oscillator.sinusoid(1.0, 1.0, 1.0))
    rate = estimate_rate(cs, probe_set(), [5.0, 50.0, 500.0])
    assert np.all(np.diff(rate.phi1) <= 1e-15) and np.all(np.diff(rate.phi2) <= 1e-15)
    assert rate.phi1[-1] < rate.phi1[0]


def test_estimate_rate_argument_errors():
    cs = scalar_cs(DriftSpec(pointwise="identity"))
    with pytest.raises(ValueError):
        estimate_rate(cs, [], [1.0, 2.0])
    with pytest.raises(ValueError):
        estimate_rate(cs, probe_set(), [2.0, 1.0])
    with pytest.raises(ValueError):
        estimate_rate(cs, probe_set()[:2], [1.0, 2.0])


# ---------------------------------------------------------------------------
# falsifiers
# ---------------------------------------------------------------------------

def test_holder_ratio_maps_pointwise_inequality():
    # |sin sqrt|a| - sin sqrt|b|| <= sqrt|a - b| over 10^4 sampled pairs
    rng = np.random.default_rng(0)
    a = rng.uniform(-25.0, 25.0, 10_000)
    b = rng.uniform(-25.0, 25.0, 10_000)
    for f in (lambda x: np.sin(np.sqrt(np.abs(x))), lambda x: np.cos(np.sqrt(np.abs(x)))):
        ratio = np.abs(f(a) - f(b)) / np.sqrt(np.abs(a - b))
        assert np.max(ratio) <= 1.0 + 1e-12


def test_check_holder_sin_sqrt_gamma_half():
    profile = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                                gamma=0.5, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    cs = scalar_cs(DriftSpec(pointwise="sin_sqrt_abs"), profile=profile)
    report = check_holder(cs, radius=5.0, trials=400, rng_seed=1)
    assert report.passed
    assert report.max_ratio <= 1.0


def test_check_holder_linear_gamma_one():
    cs = scalar_cs(DriftSpec(pointwise="identity"))
    report = check_holder(cs, radius=5.0, trials=400, rng_seed=2)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-12


def test_check_holder_constant_drift_zero_ratio():
    cs = scalar_cs(DriftSpec(constant=3.0))
    report = check_holder(cs, radius=5.0, trials=100, rng_seed=3)
    assert report.passed
    assert report.max_ratio == 0.0


def test_worst_draw_ranks_the_first_nan_gap_above_every_number():
    draws = iter([(1.0, "a"), (math.nan, "b"), (math.inf, "c"), (math.nan, "d")])
    [(gap, witness)] = worst_draw(4, lambda: next(draws), lambda x: x[0])
    assert math.isnan(gap) and witness[1] == "b"


def test_check_holder_with_nan_gaps_fails_on_the_first_nan_draw():
    # at radius 1e200 the seminorm term of broken-quadratic overflows, and 40
    # of the 50 draws score inf - inf: the first of them is the witness, so
    # the check fails, and no RuntimeWarning escapes the scan
    cs = get_preset("broken-quadratic").coefficients
    report = check_holder(cs, 1e200, 50, 0)
    assert math.isnan(report.max_ratio) and not report.passed
    a, b, t = report.witness
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(state_norm(eval_drift(cs, t, a) - eval_drift(cs, t, b)))


def test_holder_inheritance_averaged_passes_at_same_constant():
    # if the oscillating drift passes at (gamma, L_M), the averaged drift
    # passes on the same sample set with the same constant
    p = get_preset("scalar-holder-osc")
    cs = p.coefficients
    rep = check_holder(cs, radius=3.0, trials=300, rng_seed=4)
    rep_avg = check_holder_averaged(cs, radius=3.0, trials=300, rng_seed=4)
    assert rep.passed and rep_avg.passed
    assert rep_avg.max_ratio <= rep.bound


def test_check_h5_constant_coefficients_pass():
    cs = scalar_cs(DriftSpec(constant=2.0), DiffusionSpec(kind="scalar", gain=1.0))
    rep_f, rep_g = check_h5(cs, trials=50, rng_seed=5)
    assert rep_f.passed and rep_g.passed


def test_check_h5_identity_diffusion_equality_case():
    # g(phi) = phi(0), gamma = 1, mu2 = point mass: equality at alpha1 = 1
    profile = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                                gamma=1.0, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    cs = scalar_cs(DriftSpec(constant=0.0),
                   DiffusionSpec(kind="scalar", pointwise="identity", gain=1.0),
                   profile=profile)
    _, rep_g = check_h5(cs, trials=200, rng_seed=6)
    assert rep_g.passed


def test_check_h5_preset_passes():
    p = get_preset("scalar-holder-osc")
    rep_f, rep_g = check_h5(p.coefficients, trials=400, rng_seed=7)
    assert rep_f.passed, rep_f.max_ratio
    assert rep_g.passed, rep_g.max_ratio


def test_growth_audit_presets_pass_and_quadratic_fails():
    p = get_preset("scalar-holder-osc")
    rep = check_growth(p.coefficients, trials=1000, rng_seed=8)
    assert rep.passed
    broken = get_preset("broken-quadratic")
    rep_bad = check_growth(broken.coefficients, trials=1000, rng_seed=9)
    assert not rep_bad.passed
    assert rep_bad.witness is not None
    buf, t = rep_bad.witness
    s = seminorm_h(buf)
    assert s**2 > broken.coefficients.profile.alpha1 * s + broken.coefficients.profile.M


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("check", [
    lambda cs, n: check_growth(cs, n, 1),
    lambda cs, n: check_holder(cs, 3.0, n, 1),
    lambda cs, n: check_holder_averaged(cs, 3.0, n, 1),
    lambda cs, n: check_h5(cs, n, 1),
], ids=["growth", "holder", "holder_averaged", "h5"])
def test_falsifiers_reject_fewer_than_one_trial(check, trials):
    # no draws is no evidence: a vacuous PASS with max_ratio -inf is refused
    with pytest.raises(ValueError, match=f"trials = {trials}: need at least 1 trial"):
        check(get_preset("broken-quadratic").coefficients, trials)


def test_profile_measure_membership_enforced():
    from avg_sfpde.delay import MomentDivergenceError
    good = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                             gamma=0.5, mu1=DelayMeasure.exponential(1.0),
                             mu2=DelayMeasure.exponential(1.0))
    good.check_measure_membership(1.0)  # (gamma+1) h = 1.5 < 2
    bad = AssumptionProfile(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0,
                            gamma=1.0, mu1=DelayMeasure.exponential(0.5),
                            mu2=DelayMeasure.exponential(0.5))
    with pytest.raises(MomentDivergenceError):
        bad.check_measure_membership(1.0)  # (gamma+1) h = 2 >= 2 * 0.5


def test_a_profile_override_no_check_reads_is_rejected_by_name():
    # a misspelt key would leave its check on the generic constant
    args = dict(alpha1=1.0, alpha2=1.0, M=1.0, L_M=1.0, beta=1.0, gamma=0.5,
                mu1=DelayMeasure.point_mass(), mu2=DelayMeasure.point_mass())
    with pytest.raises(ValueError, match="profile override 'growth_alpa1'"):
        AssumptionProfile(**args, overrides={"growth_alpha1": 1.0, "growth_alpa1": 2.0})
    profile = AssumptionProfile(**args, overrides={"growthA_M": 2.0})
    assert profile.get("growthA_M") == 2.0
    with pytest.raises(KeyError, match="growth_alpa1"):
        profile.get("growth_alpa1")


def test_every_per_check_constant_falls_back_to_its_primary_field():
    profile = AssumptionProfile(alpha1=1.0, alpha2=2.0, M=3.0, L_M=4.0, beta=1.0,
                                gamma=0.5, mu1=DelayMeasure.point_mass(),
                                mu2=DelayMeasure.point_mass())
    got = {key: profile.get(key) for key in OVERRIDE_KEYS}
    assert got == {"growth_alpha1": 1.0, "growth_M": 3.0,
                   "growthA_alpha1": 1.0, "growthA_M": 3.0,
                   "coercivity_alpha1": 1.0, "coercivity_alpha2": 2.0,
                   "coercivity_M": 3.0, "h5_alpha1": 1.0, "h5_alpha2": 2.0}


@pytest.mark.parametrize("name", public_names() + ["heat-deterministic", "broken-quadratic"])
def test_every_preset_builds_with_convergent_moments(name):
    # mu1 with gamma + 1, mu2 with 2 gamma and the drift's delay measure
    # with its kernel power all have finite exp_moment(power * h)
    p = get_preset(name)
    assert constant_xi(p).initial.h == p.initial.h


def test_a_preset_with_a_divergent_measure_pair_is_rejected_at_build():
    # mu1 = exponential(0.5) lies in P_k only for k < 1; (gamma + 1) h = 1.5
    p = get_preset("scalar-holder-osc")
    cs = p.coefficients
    assert (cs.profile.gamma, p.initial.h) == (0.5, 1.0)
    profile = dataclasses.replace(cs.profile, mu1=DelayMeasure.exponential(0.5))
    with pytest.raises(MomentDivergenceError, match=r"profile\.mu1 with power 1\.5 at h = 1"):
        dataclasses.replace(p, coefficients=dataclasses.replace(cs, profile=profile))


def test_sample_history_families_respect_radius():
    rng = np.random.default_rng(10)
    for kind in ("constant", "exponential", "path"):
        for _ in range(20):
            buf = sample_history(rng, 3, 1.0, 2.0, kind=kind)
            assert seminorm_h(buf) <= 2.0 + 1e-9


def looped_sample_history(rng, dim, h, radius):
    """sample_history with its random walk built one appended sample at a time."""
    from avg_sfpde.delay import ExponentialTail, extract_segment

    kind = rng.choice(["constant", "exponential", "path"])
    direction = rng.standard_normal(dim)
    direction = direction / np.linalg.norm(direction)
    scale = radius * rng.uniform(0.1, 1.0)
    if kind == "constant":
        return HistoryBuffer.from_tail(h, ConstantTail(scale * direction))
    if kind == "exponential":
        rate = rng.uniform(-h, 2.0 * h)
        return HistoryBuffer.from_tail(h, ExponentialTail(scale * direction, rate=rate))
    buf = HistoryBuffer.from_tail(h, ConstantTail(scale * direction))
    x, t = scale * direction, 0.0
    for _ in range(rng.integers(3, 12)):
        t += 0.05
        x = x + 0.1 * scale * rng.standard_normal(dim)
        buf = appended(buf, t, x)
    s = seminorm_h(buf)
    if s > radius:
        shrink = radius / s
        buf = HistoryBuffer(h, ConstantTail(shrink * scale * direction),
                            buf.times, buf.samples * shrink)
    return extract_segment(buf)


@pytest.mark.parametrize("seed", [0, 17])
def test_sample_history_path_family_bit_identical_to_appending_loop(seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    paths = 0
    for _ in range(40):
        got = sample_history(rng_a, 4, 0.5, 0.3)
        ref = looped_sample_history(rng_b, 4, 0.5, 0.3)
        assert type(got.tail) is type(ref.tail)
        np.testing.assert_array_equal(got.samples, ref.samples)
        if hasattr(ref.tail, "buffer"):
            paths += 1
            assert got.tail.t0 == ref.tail.t0
            np.testing.assert_array_equal(got.tail.buffer.times, ref.tail.buffer.times)
            np.testing.assert_array_equal(got.tail.buffer.samples, ref.tail.buffer.samples)
            np.testing.assert_array_equal(got.tail.buffer.tail.value,
                                          ref.tail.buffer.tail.value)
    assert paths > 5
    assert rng_a.random() == rng_b.random()  # same number of draws
