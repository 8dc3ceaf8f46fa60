"""Delay-core: weighted history norms, delay measures, delay integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from avg_sfpde.coefficients import sample_history
from avg_sfpde.delay import (
    ConstantTail,
    DelayEvaluationError,
    DelayMeasure,
    ExponentialTail,
    HistoryBuffer,
    HistoryRangeError,
    MomentDivergenceError,
    TabulatedTail,
    _interp_rows,
    _product_quadrature,
    delay_integral,
    delay_pair_integral,
    extract_segment,
    pair_seminorm,
    seminorm_h,
    state_norm,
)


def constant_buffer(c, h=1.0, dim=1):
    return HistoryBuffer.from_tail(h, ConstantTail(np.full(dim, float(c))))


# ---------------------------------------------------------------------------
# seminorm_h
# ---------------------------------------------------------------------------

def test_seminorm_constant_history():
    buf = constant_buffer(-3.5)
    assert seminorm_h(buf, 0.0) == pytest.approx(3.5, abs=0)


def test_seminorm_weight_cancels_exponential_tail():
    # phi(theta) = e^{-h theta}: weighted value is identically 1
    buf = HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=-1.0))
    assert seminorm_h(buf, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_seminorm_tabulated_linear_tail_matches_dense_oracle():
    # phi(theta) = theta on [-50, 0]; maximize e^{theta}|theta| by dense grid
    thetas = np.linspace(-50.0, 0.0, 50_001)
    oracle = float(np.max(np.exp(thetas) * np.abs(thetas)))
    buf = HistoryBuffer.from_tail(1.0, TabulatedTail(thetas, thetas.copy()))
    got = seminorm_h(buf, 0.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.0 / math.e, rel=1e-6)


def test_seminorm_rejects_time_outside_range():
    buf = constant_buffer(1.0)
    with pytest.raises(HistoryRangeError):
        seminorm_h(buf, 0.5)
    with pytest.raises(HistoryRangeError):
        seminorm_h(buf, -0.5)


def test_inadmissible_exponential_tail_rejected():
    with pytest.raises(ValueError):
        HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=-2.0))


def test_discontinuity_at_origin_rejected():
    with pytest.raises(ValueError, match="continuous at the origin"):
        HistoryBuffer(h=1.0, tail=ConstantTail(np.array([1.0])),
                      times=np.array([0.0]), samples=np.array([[2.0]]))


@given(
    c=st.floats(-10, 10),
    h1=st.floats(0.2, 1.0),
    h2=st.floats(1.0, 4.0),
    t=st.floats(0.01, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_seminorm_monotone_in_weight_and_dominates_state(c, h1, h2, t):
    def history(h):
        buf = constant_buffer(c, h=h)
        n = 8
        for i in range(1, n + 1):
            buf = buf.appended(t * i / n, c + math.sin(i))
        return buf

    buf1, buf2 = history(h1), history(h2)
    head = buf1.head_time
    s1 = seminorm_h(buf1, head)
    s2 = seminorm_h(buf2, head)
    assert s2 <= s1 + 1e-12
    assert state_norm(buf1.value_at(head)) <= s1 + 1e-12


# ---------------------------------------------------------------------------
# exp_moment
# ---------------------------------------------------------------------------

def quad_moment(rate, k):
    # integrand exp(-k th) * density, exponents combined for stability
    val, _ = integrate.quad(
        lambda th: 2 * rate * math.exp((2 * rate - k) * th),
        -np.inf, 0.0, epsabs=1e-13, epsrel=1e-12,
    )
    return val


def test_exp_moment_unit_mass():
    assert DelayMeasure.exponential(1.0).exp_moment(0.0) == pytest.approx(1.0, abs=0)


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0, 1.5])
def test_exp_moment_closed_form_matches_adaptive_quadrature(rate, frac):
    k = frac * rate
    mu = DelayMeasure.exponential(rate)
    closed = mu.exp_moment(k)
    assert closed == pytest.approx(2 * rate / (2 * rate - k), rel=1e-14)
    assert closed == pytest.approx(quad_moment(rate, k), rel=1e-8)


def test_exp_moment_diverges_at_membership_boundary():
    with pytest.raises(MomentDivergenceError, match="P_k"):
        DelayMeasure.exponential(1.0).exp_moment(2.0)


def test_exp_moment_point_mass_and_tabulated():
    assert DelayMeasure.point_mass().exp_moment(7.3) == 1.0
    # measures are exponential or a point mass; a tabulated kind is refused
    with pytest.raises(ValueError, match="unknown measure kind"):
        DelayMeasure("tabulated")


# ---------------------------------------------------------------------------
# delay_integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [
    DelayMeasure.exponential(1.0),
    DelayMeasure.exponential(0.25),
    DelayMeasure.point_mass(),
])
def test_delay_integral_constant_four_sqrt_kernel(mu):
    buf = constant_buffer(4.0)
    assert delay_integral(buf, 0.0, mu, 0.5) == pytest.approx(2.0, rel=1e-10)


def test_delay_integral_exponential_tail_closed_form_and_quadrature():
    # tail e^{4 r theta}, kernel sqrt, mu = exponential(r):
    # int e^{2 r theta} 2 r e^{2 r theta} dtheta = 1/2
    for r in (0.5, 1.0, 2.0):
        tail = ExponentialTail(np.array([1.0]), rate=4.0 * r)
        buf = HistoryBuffer.from_tail(1.0, tail)
        mu = DelayMeasure.exponential(r)
        got = delay_integral(buf, 0.0, mu, 0.5)
        oracle, _ = integrate.quad(
            lambda th: math.sqrt(math.exp(4 * r * th)) * 2 * r * math.exp(2 * r * th),
            -np.inf, 0.0, epsabs=1e-13,
        )
        assert got == pytest.approx(0.5, rel=1e-10)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_delay_integral_zero_history_zero_kernel_at_zero():
    buf = constant_buffer(0.0)
    assert delay_integral(buf, 0.0, DelayMeasure.exponential(1.0), 0.5) == 0.0


def test_delay_integral_simulated_part_against_quadrature():
    # buffer with a nontrivial simulated path: u(s) = 1 + s^2 on [0, 1]
    h = 1.0
    buf = HistoryBuffer.from_tail(h, ConstantTail(np.array([1.0])))
    ts = np.linspace(0.0, 1.0, 2001)
    for t in ts[1:]:
        buf = HistoryBuffer(h, buf.tail, np.append(buf.times, t),
                            np.vstack([buf.samples, [[1.0 + t * t]]]))
    mu = DelayMeasure.exponential(1.0)
    got = delay_integral(buf, 1.0, mu, 0.5)

    def integrand(th):
        u = 1.0 if 1.0 + th <= 0 else 1.0 + (1.0 + th) ** 2
        return math.sqrt(u) * 2.0 * math.exp(2.0 * th)

    o1, _ = integrate.quad(integrand, -np.inf, -1.0, epsabs=1e-12, limit=200)
    o2, _ = integrate.quad(integrand, -1.0, 0.0, epsabs=1e-12, limit=200)
    assert got == pytest.approx(o1 + o2, rel=1e-6)


def test_delay_integral_nonfinite_kernel_carries_theta():
    buf = constant_buffer(0.0)
    with pytest.raises(DelayEvaluationError) as err:
        delay_integral(buf, 0.0, DelayMeasure.exponential(1.0), -0.5)
    assert err.value.theta <= 0.0


@given(
    c=st.floats(-5, 5),
    rate=st.floats(0.3, 3.0),
    n=st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_delay_integral_unit_kernel_is_total_mass(c, rate, n):
    buf = constant_buffer(c)
    for i in range(1, n + 1):
        buf = buf.appended(0.05 * i, c + 0.1 * i)
    for mu in (DelayMeasure.exponential(rate), DelayMeasure.point_mass()):
        assert delay_integral(buf, buf.head_time, mu, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_delay_pair_integral_matches_direct_quadrature():
    h = 1.0
    a = HistoryBuffer.from_tail(h, ConstantTail(np.array([2.0])))
    b = HistoryBuffer.from_tail(h, ExponentialTail(np.array([1.0]), rate=0.5))
    mu = DelayMeasure.exponential(1.0)
    got = delay_pair_integral(a, b, 0.0, mu, 1.5)
    oracle, _ = integrate.quad(
        lambda th: abs(2.0 - math.exp(0.5 * th)) ** 1.5 * 2.0 * math.exp(2.0 * th),
        -np.inf, 0.0, epsabs=1e-13,
    )
    assert got == pytest.approx(oracle, rel=1e-6)


def test_delay_pair_integral_is_symmetric_bit_for_bit():
    # path-family segments have kinks at their sample times; the quadrature
    # takes the kinks of both tails, so swapping the histories moves no node
    rng = np.random.default_rng(0)
    mu = DelayMeasure.exponential(1.0)
    for _ in range(50):
        a = sample_history(rng, 4, 1.0, 3.0, kind="path")
        b = sample_history(rng, 4, 1.0, 3.0, kind="path")
        t = min(a.head_time, b.head_time)
        assert delay_pair_integral(a, b, t, mu, 1.5) == delay_pair_integral(b, a, t, mu, 1.5)


def test_pair_seminorm_constant_tails_exact():
    a = constant_buffer(2.0)
    b = constant_buffer(-1.0)
    assert pair_seminorm(a, b) == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("rate", [-0.5, 0.0, 0.3, 1.7])
def test_pair_seminorm_equal_rate_exponential_tails(rate):
    # the difference (a - b) e^{rate theta} peaks under the weight at theta = 0,
    # which the dense grid samples: the closed form ||a - b|| comes out exactly
    # for scalar states, and as the row norm (to rounding of the Euclidean
    # norm's summation order) for fields
    h = 1.0
    for a, b in (([2.0], [-1.5]), ([0.3, -1.2, 4.0], [1.1, 0.5, -2.0])):
        a, b = np.array(a), np.array(b)
        got = pair_seminorm(HistoryBuffer.from_tail(h, ExponentialTail(a, rate)),
                            HistoryBuffer.from_tail(h, ExponentialTail(b, rate)))
        if len(a) == 1:
            assert got == state_norm(a - b)
        assert got == float(np.linalg.norm((a - b)[None], axis=1)[0])
        assert got == pytest.approx(state_norm(a - b), rel=1e-15)


# ---------------------------------------------------------------------------
# extract_segment
# ---------------------------------------------------------------------------

def test_segment_at_zero_is_initial_datum():
    buf = constant_buffer(5.0)
    seg = extract_segment(buf, 0.0)
    assert seg.head_time == 0.0
    assert seg.value_at(0.0) == pytest.approx(5.0)
    assert seminorm_h(seg, 0.0) == seminorm_h(buf, 0.0)


def test_segment_of_constant_buffer_shift_invariant():
    buf = constant_buffer(2.0)
    for i in range(1, 11):
        buf = buf.appended(0.1 * i, 2.0)
    seg = extract_segment(buf, 0.7)
    assert seminorm_h(seg, 0.0) == pytest.approx(seminorm_h(buf, 0.0), rel=1e-12)
    assert seg.value_at(-0.35) == pytest.approx(2.0)


def test_segment_of_simulated_path_recomputes_from_samples():
    # random-walk path: segment head equals the stored sample, norm dominates it
    rng = np.random.default_rng(7)
    buf = constant_buffer(0.3)
    t, x = 0.0, 0.3
    for _ in range(100):
        t += 0.01
        x += 0.05 * rng.standard_normal()
        buf = buf.appended(t, x)
    seg = extract_segment(buf, 1.0)
    assert seg.value_at(0.0) == pytest.approx(buf.value_at(1.0))
    assert seminorm_h(seg, 0.0) >= state_norm(buf.value_at(1.0)) - 1e-14
    assert seminorm_h(seg, 0.0) == pytest.approx(seminorm_h(buf, 1.0), rel=1e-12)
    # value lookup inside the sampled part agrees with the parent
    assert seg.value_at(-0.42) == pytest.approx(buf.value_at(0.58))
    # and inside the analytic tail
    assert seg.value_at(-1.5) == pytest.approx(0.3)


def test_segment_composition_idempotent_on_samples():
    buf = constant_buffer(1.0)
    for i in range(1, 21):
        buf = buf.appended(0.05 * i, math.sin(i))
    seg = extract_segment(buf, 0.8)
    seg2 = extract_segment(seg, 0.0)
    thetas = np.linspace(-2.0, 0.0, 101)
    va = seg.values_at(thetas)
    vb = seg2.values_at(thetas)
    np.testing.assert_allclose(va, vb, rtol=0, atol=1e-14)


def test_segment_buffer_invariants_hold():
    buf = constant_buffer(1.0)
    for i in range(1, 6):
        buf = buf.appended(0.2 * i, 1.0 + i)
    seg = extract_segment(buf, 0.6)
    # freshly constructed buffer re-validates its own invariants
    HistoryBuffer(h=seg.h, tail=seg.tail, times=seg.times,
                  samples=seg.samples, horizon=seg.horizon)
    assert state_norm(seg.value_at(0.0)) <= seminorm_h(seg, 0.0) + 1e-14


# ---------------------------------------------------------------------------
# array product quadrature and row interpolation against the scalar forms
# ---------------------------------------------------------------------------

def scalar_moments(mu, a, b, c):
    """Scalar (m0, m1, m2) of (theta - c)^k over (a, b], one interval per call."""
    if b <= a:
        return 0.0, 0.0, 0.0
    if mu.kind == "point":
        return (1.0, -c, c * c) if a < 0.0 <= b else (0.0, 0.0, 0.0)
    r2 = 2.0 * mu.rate
    scale = math.exp(r2 * c)
    ub = min(b, 0.0) - c

    def anti(u):
        e = math.exp(r2 * u)
        return e, e * (u - 1.0 / r2), e * (u * u - 2.0 * u / r2 + 2.0 / (r2 * r2))

    hi = anti(ub)
    lo = (0.0, 0.0, 0.0) if a == -math.inf else anti(a - c)
    return tuple(scale * (h - l) for h, l in zip(hi, lo))


def scalar_product_quadrature(mu, lo, hi, values_of_theta, n=1024, extra_nodes=()):
    """Panel-by-panel Lagrange loop over scalar moments."""
    nodes = np.unique(np.concatenate([mu.graded_nodes(lo, hi, n), extra_nodes]))
    ks = values_of_theta(nodes)
    total, i, last = 0.0, 0, len(nodes) - 1
    while i < last:
        if i + 2 <= last:
            x0, x1, x2 = nodes[i], nodes[i + 1], nodes[i + 2]
            m0, m1, m2 = scalar_moments(mu, x0, x2, x1)
            if m0 != 0.0:
                u0, u2 = x0 - x1, x2 - x1
                total += ((m2 - u2 * m1) / (u0 * (u0 - u2)) * ks[i]
                          + (m2 - (u0 + u2) * m1 + u0 * u2 * m0) / (u0 * u2) * ks[i + 1]
                          + (m2 - u0 * m1) / (u2 * (u2 - u0)) * ks[i + 2])
            i += 2
        else:
            a, b = nodes[i], nodes[i + 1]
            m0, m1, _ = scalar_moments(mu, a, b, a)
            if m0 != 0.0:
                total += ks[i] * (m0 - m1 / (b - a)) + ks[i + 1] * (m1 / (b - a))
            i += 1
    return total


@pytest.mark.parametrize("mu, lo, n, extra, odd", [
    (DelayMeasure.exponential(0.7), -30.0, 64, [], True),
    (DelayMeasure.exponential(0.7), -30.0, 64, [-3.3], False),
    (DelayMeasure.exponential(2.5), -8.0, 1024, [-1.0, -0.25, -0.05], False),
    (DelayMeasure.point_mass(), -1.0, 16, [-0.3, -0.1], False),
    (DelayMeasure.point_mass(), -1.0, 16, [-0.2], True),
])
def test_product_quadrature_matches_scalar_loop(mu, lo, n, extra, odd):
    def K(th):
        return 1.0 + np.sin(3.0 * th) ** 2 + 0.1 * th * th

    nodes = np.unique(np.concatenate([mu.graded_nodes(lo, 0.0, n), extra]))
    assert (len(nodes) - 1) % 2 == odd  # an odd panel count ends in a linear panel
    got = _product_quadrature(mu, lo, 0.0, K, n=n, extra_nodes=np.array(extra))
    ref = scalar_product_quadrature(mu, lo, 0.0, K, n=n, extra_nodes=extra)
    assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("mu", [DelayMeasure.exponential(0.7), DelayMeasure.point_mass()])
def test_array_moments_match_scalar_moments(mu):
    rng = np.random.default_rng(11)
    a = np.concatenate([[-np.inf, -np.inf, 0.0], rng.uniform(-3.0, 0.5, 200)])
    b = np.concatenate([[0.0, -1.0, 0.0], a[3:] + rng.uniform(-0.5, 2.0, 200)])
    c = np.concatenate([[-0.5, -1.5, 0.0], a[3:] + rng.uniform(-0.2, 1.0, 200)])
    got = mu.moments_centered(a, b, c)
    for k in range(3):
        ref = np.array([scalar_moments(mu, *abc)[k] for abc in zip(a, b, c)])
        np.testing.assert_allclose(got[k], ref, rtol=1e-13, atol=1e-15)
    scalar = mu.moments_centered(-2.0, -0.5, -1.0)
    assert all(type(v) is float for v in scalar)
    assert scalar == pytest.approx(scalar_moments(mu, -2.0, -0.5, -1.0), rel=1e-13, abs=0)


def test_interp_rows_is_bit_identical_to_np_interp():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = 1 + trial % 13   # includes one-sample buffers
        dim = 1 + trial % 5
        xp = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 3.0)
        fp = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
        x = np.concatenate([rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 40), xp,
                            [xp[0], xp[-1], xp[0] - 5.0, xp[-1] + 5.0]])
        rng.shuffle(x)
        ref = np.stack([np.interp(x, xp, fp[:, d]) for d in range(dim)], axis=1)
        np.testing.assert_array_equal(_interp_rows(x, xp, fp), ref)
