"""Delay-core: weighted history norms, delay measures, delay integrals."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import avg_sfpde.delay as delay_module
from avg_sfpde.coefficients import sample_history
from avg_sfpde.delay import (
    ConstantTail,
    DelayEvaluationError,
    DelayMeasure,
    ExponentialTail,
    HistoryBuffer,
    HistoryRangeError,
    MomentDivergenceError,
    SegmentTail,
    TabulatedTail,
    _difference,
    _DifferenceTail,
    _interp_rows,
    _quadrature_rule,
    _rule_on,
    _row_norms,
    delay_integral,
    delay_pair_integral,
    delay_pair_integrals,
    extract_segment,
    pair_seminorm,
    seminorm_h,
    state_norm,
)
from oracles import appended


def constant_buffer(c, h=1.0, dim=1):
    return HistoryBuffer.from_tail(h, ConstantTail(np.full(dim, float(c))))


def upto(buf, j):
    """The history of buf up to its sample j: the buffer a run holds there."""
    return HistoryBuffer(buf.h, buf.tail, buf.times[:j + 1], buf.samples[:j + 1])


# ---------------------------------------------------------------------------
# seminorm_h
# ---------------------------------------------------------------------------

def test_seminorm_constant_history():
    buf = constant_buffer(-3.5)
    assert seminorm_h(buf) == pytest.approx(3.5, abs=0)


def test_seminorm_weight_cancels_exponential_tail():
    # phi(theta) = e^{-h theta}: weighted value is identically 1
    buf = HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=-1.0))
    assert seminorm_h(buf) == pytest.approx(1.0, rel=1e-14)


def test_seminorm_tabulated_linear_tail_matches_dense_oracle():
    # phi(theta) = theta on [-50, 0]; maximize e^{theta}|theta| by dense grid
    thetas = np.linspace(-50.0, 0.0, 50_001)
    oracle = float(np.max(np.exp(thetas) * np.abs(thetas)))
    buf = HistoryBuffer.from_tail(1.0, TabulatedTail(thetas, thetas.copy()))
    got = seminorm_h(buf)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.0 / math.e, rel=1e-6)


def test_seminorm_is_the_sup_over_the_sample_nodes():
    # u = 1 on the tail and at t = 0, 0.4 at t = 1; from t = 1 with h = 1 the
    # weighted interpolant e^{theta}(0.4 - 0.6 theta) peaks at theta = -1/3
    # between the two samples.  seminorm_h takes the max over the nodes.
    buf = HistoryBuffer(1.0, ConstantTail([1.0]), [0.0, 1.0], [[1.0], [0.4]])
    assert seminorm_h(buf) == 0.4
    thetas = np.linspace(-1.0, 0.0, 30_001)
    dense = float(np.max(np.exp(thetas) * np.abs(buf.values_at(1.0 + thetas)[:, 0])))
    assert dense == pytest.approx(0.6 * math.exp(-1.0 / 3.0), rel=1e-8)
    assert round(dense, 4) == 0.4299


def test_inadmissible_exponential_tail_rejected():
    with pytest.raises(ValueError):
        HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=-2.0))


@pytest.mark.parametrize("tail_of", [
    lambda rate: ExponentialTail(np.array([1.0]), rate=rate),
    lambda rate: TabulatedTail(np.array([-1.0, 0.0]), np.array([2.0, 1.0]), extrap_rate=rate),
], ids=["exponential", "tabulated"])
def test_a_tail_is_admissible_while_its_growth_is_at_most_h(tail_of):
    HistoryBuffer.from_tail(1.0, tail_of(-1.0))
    with pytest.raises(ValueError, match=r"growth 1\.0000001 > h = 1\.0"):
        HistoryBuffer.from_tail(1.0, tail_of(-1.0000001))


def test_a_segment_and_a_difference_have_the_growth_of_their_sources():
    seg = extract_segment(
        HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=-0.75)))
    diff = _difference(seg, constant_buffer(0.5))
    for tail in (seg.tail, diff.tail):
        HistoryBuffer.from_tail(0.75, tail)
        with pytest.raises(ValueError, match=r"growth 0\.75 > h = 0\.5"):
            HistoryBuffer.from_tail(0.5, tail)


@pytest.mark.parametrize("times, samples, name", [
    ([0.0, 0.1], [[math.nan], [2.0]], "samples"),
    ([0.0, math.nan], [[1.0], [2.0]], "times"),
    ([0.0, math.inf], [[1.0], [2.0]], "times"),
], ids=["nan-sample", "nan-time", "inf-time"])
def test_non_finite_times_and_samples_are_rejected(times, samples, name):
    # a NaN passes the grid's and the continuity's comparisons, and the
    # weighted norm's max would drop it
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HistoryBuffer(1.0, ConstantTail([1.0]), times, samples)


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
            buf = appended(buf, t * i / n, c + math.sin(i))
        return buf

    buf1, buf2 = history(h1), history(h2)
    s1 = seminorm_h(buf1)
    s2 = seminorm_h(buf2)
    assert s2 <= s1 + 1e-12
    assert state_norm(buf1.head) <= s1 + 1e-12


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
    assert delay_integral(buf, mu, 0.5) == pytest.approx(2.0, rel=1e-10)


def test_delay_integral_exponential_tail_closed_form_and_quadrature():
    # tail e^{4 r theta}, kernel sqrt, mu = exponential(r):
    # int e^{2 r theta} 2 r e^{2 r theta} dtheta = 1/2
    for r in (0.5, 1.0, 2.0):
        tail = ExponentialTail(np.array([1.0]), rate=4.0 * r)
        buf = HistoryBuffer.from_tail(1.0, tail)
        mu = DelayMeasure.exponential(r)
        got = delay_integral(buf, mu, 0.5)
        oracle, _ = integrate.quad(
            lambda th: math.sqrt(math.exp(4 * r * th)) * 2 * r * math.exp(2 * r * th),
            -np.inf, 0.0, epsabs=1e-13,
        )
        assert got == pytest.approx(0.5, rel=1e-10)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_delay_integral_zero_history_zero_kernel_at_zero():
    buf = constant_buffer(0.0)
    assert delay_integral(buf, DelayMeasure.exponential(1.0), 0.5) == 0.0


def test_delay_integral_simulated_part_against_quadrature():
    # buffer with a nontrivial simulated path: u(s) = 1 + s^2 on [0, 1]
    h = 1.0
    buf = HistoryBuffer.from_tail(h, ConstantTail(np.array([1.0])))
    ts = np.linspace(0.0, 1.0, 2001)
    for t in ts[1:]:
        buf = HistoryBuffer(h, buf.tail, np.append(buf.times, t),
                            np.vstack([buf.samples, [[1.0 + t * t]]]))
    mu = DelayMeasure.exponential(1.0)
    got = delay_integral(buf, mu, 0.5)

    def integrand(th):
        u = 1.0 if 1.0 + th <= 0 else 1.0 + (1.0 + th) ** 2
        return math.sqrt(u) * 2.0 * math.exp(2.0 * th)

    o1, _ = integrate.quad(integrand, -np.inf, -1.0, epsabs=1e-12, limit=200)
    o2, _ = integrate.quad(integrand, -1.0, 0.0, epsabs=1e-12, limit=200)
    assert got == pytest.approx(o1 + o2, rel=1e-6)


def test_every_tail_states_its_growth():
    h = 1.0
    grow = HistoryBuffer.from_tail(h, ExponentialTail(np.array([1.0]), rate=-0.75))
    flat = HistoryBuffer.from_tail(h, ConstantTail(np.array([2.0])))
    tab = TabulatedTail(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), extrap_rate=-0.25)
    assert flat.tail.growth == 0.0
    assert grow.tail.growth == 0.75
    assert ExponentialTail(np.array([1.0]), rate=0.5).growth == 0.0
    assert tab.growth == 0.25
    assert TabulatedTail(tab.thetas, tab.values, extrap_rate=0.5).growth == 0.0
    assert extract_segment(grow).tail.growth == 0.75
    assert _difference(extract_segment(flat), extract_segment(grow)).tail.growth == 0.75


def test_divergent_delay_integral_raises_before_any_quadrature():
    # ||u||^3 = e^{-3 theta} against 2 e^{2 theta}: power * growth = 3 >= 2 * rate
    buf = HistoryBuffer.from_tail(1.0, ExponentialTail([1.0], rate=-1.0))
    mu = DelayMeasure.exponential(1.0)
    with pytest.raises(MomentDivergenceError, match=r"growth 1\.0 grows at 3\.0 >= 2 \* rate"):
        delay_integral(buf, mu, 3.0)
    seg = extract_segment(buf)
    flat = HistoryBuffer.from_tail(1.0, ConstantTail(np.array([1.0])))
    with pytest.raises(MomentDivergenceError):
        delay_pair_integral(seg, flat, mu, 3.0)
    # below the bound the closed form holds: int e^{-theta} 2 e^{2 theta} = 2
    assert delay_integral(buf, mu, 1.0) == 2.0


def test_delay_integral_nonfinite_kernel_carries_theta():
    # a 1e200 sample squares to inf on the simulated part
    buf = appended(appended(constant_buffer(1.0), 0.05, 1e200), 0.1, 1.0)
    seg = extract_segment(buf)
    with np.errstate(over="ignore"), pytest.raises(DelayEvaluationError) as err:
        delay_integral(seg, DelayMeasure.exponential(1.0), 2.0)
    assert err.value.theta <= 0.0


@pytest.mark.parametrize("power", [-0.5, math.nan])
@pytest.mark.parametrize("mu", [DelayMeasure.exponential(1.0), DelayMeasure.point_mass()],
                         ids=["exponential", "point"])
def test_a_negative_delay_power_is_rejected_by_name(power, mu):
    with pytest.raises(ValueError, match=rf"delay kernel power {power}: must be >= 0"):
        delay_integral(constant_buffer(2.0), mu, power)


@given(
    c=st.floats(-5, 5),
    rate=st.floats(0.3, 3.0),
    n=st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_delay_integral_unit_kernel_is_total_mass(c, rate, n):
    buf = constant_buffer(c)
    for i in range(1, n + 1):
        buf = appended(buf, 0.05 * i, c + 0.1 * i)
    for mu in (DelayMeasure.exponential(rate), DelayMeasure.point_mass()):
        assert delay_integral(buf, mu, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_delay_pair_integral_matches_direct_quadrature():
    h = 1.0
    a = HistoryBuffer.from_tail(h, ConstantTail(np.array([2.0])))
    b = HistoryBuffer.from_tail(h, ExponentialTail(np.array([1.0]), rate=0.5))
    mu = DelayMeasure.exponential(1.0)
    got = delay_pair_integral(a, b, mu, 1.5)
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
        assert delay_pair_integral(a, b, mu, 1.5) == delay_pair_integral(b, a, mu, 1.5)


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
    seg = extract_segment(buf)
    assert seg.head_time == 0.0
    assert seg.head == pytest.approx(5.0)
    assert seminorm_h(seg) == seminorm_h(buf)


def test_segment_of_constant_buffer_shift_invariant():
    buf = constant_buffer(2.0)
    for i in range(1, 11):
        buf = appended(buf, 0.1 * i, 2.0)
    seg = extract_segment(upto(buf, 7))
    assert seminorm_h(seg) == pytest.approx(seminorm_h(constant_buffer(2.0)), rel=1e-12)
    assert seg.values_at([-0.35])[0] == pytest.approx(2.0)


def test_segment_of_simulated_path_recomputes_from_samples():
    # random-walk path: segment head equals the stored sample, norm dominates it
    rng = np.random.default_rng(7)
    buf = constant_buffer(0.3)
    t, x = 0.0, 0.3
    for _ in range(100):
        t += 0.01
        x += 0.05 * rng.standard_normal()
        buf = appended(buf, t, x)
    seg = extract_segment(buf)
    np.testing.assert_array_equal(seg.head, buf.head)
    assert seminorm_h(seg) >= state_norm(buf.head) - 1e-14
    assert seminorm_h(seg) == pytest.approx(seminorm_h(buf), rel=1e-12)
    # value lookup inside the sampled part agrees with the parent
    assert seg.values_at([-0.42])[0] == pytest.approx(buf.values_at([buf.head_time - 0.42])[0])
    # and inside the analytic tail
    assert seg.values_at([-1.5])[0] == pytest.approx(0.3)


def test_segment_composition_idempotent_on_samples():
    buf = constant_buffer(1.0)
    for i in range(1, 21):
        buf = appended(buf, 0.05 * i, math.sin(i))
    seg = extract_segment(upto(buf, 16))
    seg2 = extract_segment(seg)
    thetas = np.linspace(-2.0, 0.0, 101)
    va = seg.values_at(thetas)
    vb = seg2.values_at(thetas)
    np.testing.assert_allclose(va, vb, rtol=0, atol=1e-14)


def simulated_buffer(seed, dim, n, tail_kind):
    """A random walk of n uneven steps attached to a constant, exponential or
    tabulated tail."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim)
    tail = {"constant": ConstantTail(x0),
            "exponential": ExponentialTail(x0, rate=0.4),
            "tabulated": TabulatedTail([-1.5, -0.7, 0.0],
                                       np.vstack([rng.standard_normal((2, dim)), x0]))}[tail_kind]
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, n))])
    samples = np.vstack([x0, x0 + np.cumsum(0.3 * rng.standard_normal((n, dim)), axis=0)])
    return HistoryBuffer(1.0, tail, times, samples)


@given(
    seed=st.integers(0, 2**16),
    dim=st.sampled_from([1, 3, 8]),
    n=st.integers(1, 20),
    tail_kind=st.sampled_from(["constant", "exponential", "tabulated"]),
    where=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_segment_is_a_view_of_its_history(seed, dim, n, tail_kind, where):
    # the segment at the head t of a run's history, cut at any sample, reads
    # that history and the whole run bit for bit, and has the history's
    # weighted norm
    run = simulated_buffer(seed, dim, n, tail_kind)
    buf = upto(run, round(where * n))
    t = buf.head_time
    seg = extract_segment(buf)
    assert seg.head_time == 0.0 and seg.tail.buffer is buf
    thetas = np.concatenate([-np.linspace(0.0, t + 3.0, 97), -t + buf.times])
    np.testing.assert_array_equal(seg.values_at(thetas), buf.values_at(t + thetas))
    np.testing.assert_array_equal(seg.values_at(thetas), run.values_at(t + thetas))
    np.testing.assert_array_equal(seg.head, buf.head)
    assert seminorm_h(seg) == seminorm_h(buf)


@pytest.mark.parametrize("pair", [delay_pair_integral, pair_seminorm])
def test_pair_functionals_take_segments_only(pair):
    buf = appended(constant_buffer(1.0), 0.1, 1.5)
    seg = extract_segment(buf)
    args = (DelayMeasure.exponential(1.0), 2.0) if pair is delay_pair_integral else ()
    for a, b in ((buf, seg), (seg, buf)):
        with pytest.raises(ValueError, match=r"extract_segment\(buf\)"):
            pair(a, b, *args)
    assert pair(seg, extract_segment(upto(buf, 0)), *args) > 0.0


def test_segment_buffer_invariants_hold():
    buf = constant_buffer(1.0)
    for i in range(1, 6):
        buf = appended(buf, 0.2 * i, 1.0 + i)
    seg = extract_segment(upto(buf, 3))
    # freshly constructed buffer re-validates its own invariants
    HistoryBuffer(h=seg.h, tail=seg.tail, times=seg.times,
                  samples=seg.samples)
    assert state_norm(seg.head) <= seminorm_h(seg) + 1e-14


# ---------------------------------------------------------------------------
# array product quadrature and row interpolation against the scalar forms
# ---------------------------------------------------------------------------

def scalar_moments(mu, a, b, c):
    """Scalar (m0, m1, m2) of (theta - c)^k over (a, b], one interval per call."""
    if b <= a:
        return 0.0, 0.0, 0.0
    r2 = 2.0 * mu.rate
    scale = math.exp(r2 * c)
    ub = min(b, 0.0) - c

    def anti(u):
        e = math.exp(r2 * u)
        return e, e * (u - 1.0 / r2), e * (u * u - 2.0 * u / r2 + 2.0 / (r2 * r2))

    hi = anti(ub)
    lo = (0.0, 0.0, 0.0) if a == -math.inf else anti(a - c)
    return tuple(scale * (h - l) for h, l in zip(hi, lo))


def product_quadrature(mu, lo, hi, values_of_theta, n=1024, extra_nodes=None):
    """int_lo^hi K(theta) mu(dtheta) by _rule_on's rule, as the delay integrals
    apply it; 0 when hi <= lo."""
    if hi <= lo:
        return 0.0
    rule = _rule_on(mu, lo, hi, n, extra_nodes)
    return rule.integrate(np.asarray(values_of_theta(rule.nodes), dtype=float))


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
])
def test_product_quadrature_matches_scalar_loop(mu, lo, n, extra, odd):
    def K(th):
        return 1.0 + np.sin(3.0 * th) ** 2 + 0.1 * th * th

    nodes = np.unique(np.concatenate([mu.graded_nodes(lo, 0.0, n), extra]))
    assert (len(nodes) - 1) % 2 == odd  # an odd panel count ends in a linear panel
    got = product_quadrature(mu, lo, 0.0, K, n=n, extra_nodes=np.array(extra))
    ref = scalar_product_quadrature(mu, lo, 0.0, K, n=n, extra_nodes=extra)
    assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("mu", [DelayMeasure.exponential(0.7)])
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


def test_product_quadrature_rejects_a_point_measure():
    # a point mass never reaches the quadrature: the delay integrals read the
    # head value for it first
    with pytest.raises(ValueError, match="exponential measure, not 'point'"):
        product_quadrature(DelayMeasure.point_mass(), -1.0, 0.0, np.cos)


def kinked(th):
    return 1.0 + np.abs(np.sin(3.0 * th)) + 0.1 * th * th


def test_cached_rule_gives_the_cold_bits_for_any_order_of_extra_nodes():
    mu = DelayMeasure.exponential(0.9)
    kinks_a, kinks_b = np.array([-2.5, -0.75, -0.3]), np.array([-1.2, -0.75])
    _quadrature_rule.cache_clear()
    cold = product_quadrature(mu, -40.0, 0.0, kinked,
                               extra_nodes=np.concatenate([kinks_a, kinks_b]))
    assert _quadrature_rule.cache_info().misses == 1
    warm = product_quadrature(mu, -40.0, 0.0, kinked,
                               extra_nodes=np.concatenate([kinks_a, kinks_b]))
    # the swapped pair's key: the same node set, concatenated the other way
    swapped = product_quadrature(mu, -40.0, 0.0, kinked,
                                  extra_nodes=np.concatenate([kinks_b, kinks_a]))
    assert _quadrature_rule.cache_info().misses == 1
    assert float(cold).hex() == float(warm).hex() == float(swapped).hex()
    ref = scalar_product_quadrature(mu, -40.0, 0.0, kinked,
                                    extra_nodes=np.concatenate([kinks_a, kinks_b]))
    assert warm == pytest.approx(ref, rel=1e-13, abs=0)


def test_delay_pair_integral_is_symmetric_from_a_cold_and_a_warm_cache():
    rng = np.random.default_rng(3)
    mu = DelayMeasure.exponential(1.0)
    for _ in range(10):
        a = sample_history(rng, 3, 1.0, 3.0, kind="path")
        b = sample_history(rng, 3, 1.0, 3.0, kind="path")
        _quadrature_rule.cache_clear()
        ab = delay_pair_integral(a, b, mu, 1.5)
        _quadrature_rule.cache_clear()
        ba = delay_pair_integral(b, a, mu, 1.5)
        assert ab == ba == delay_pair_integral(a, b, mu, 1.5)


def test_rule_cache_stays_at_its_bound():
    # the reference step's delay integral moves lo and hi with t: every call
    # is a new key, and the cache must not grow with them
    mu = DelayMeasure.exponential(1.0)
    _quadrature_rule.cache_clear()
    bound = _quadrature_rule.cache_info().maxsize
    for i in range(100):
        product_quadrature(mu, -40.0 - 0.01 * i, 0.0, kinked, n=64)
    info = _quadrature_rule.cache_info()
    assert info.misses == 100 and info.currsize == bound


def reference_delay_integral(buf, mu, power):
    """delay_integral with the kernel evaluated apart for the remainder: the
    trapezoid on the samples, the product quadrature on [lo, -t], then
    rem * K(lo) from one more evaluation at lo."""
    t = buf.head_time
    total = 0.0
    if t > 0.0:
        nodes = buf.times - t
        ks = np.linalg.norm(buf.values_at(nodes + t), axis=1) ** power
        masses = np.array([mu.mass(a, b) for a, b in zip(nodes[:-1], nodes[1:])])
        total += float(np.sum(masses * 0.5 * (ks[:-1] + ks[1:])))

    def K(thetas):
        return _row_norms(buf.tail, np.asarray(thetas) + t) ** power

    lo = -buf.horizon - t
    kinks = buf.tail.kink_nodes(lo + t, 0.0)
    total += product_quadrature(mu, lo, -t, K, extra_nodes=np.asarray(kinks) - t)
    rem = mu.mass(-math.inf, lo)
    if rem > 0.0:
        total += rem * float(K(np.array([lo]))[0])
    return total


@given(
    h=st.floats(0.2, 4.0),
    t=st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 1e3)),
    kinks=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=6, unique=True),
    dim=st.sampled_from([1, 3]),
    power=st.sampled_from([0.5, 1.0, 1.5]),
    rate=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_the_remainder_reads_the_rules_first_node(h, t, kinks, dim, power, rate, seed):
    # every rule delay_integral builds starts at lo, so the kernel frozen
    # below lo is the rule's first kernel value: the integral keeps the bits
    # of a separate evaluation at lo, on a tabulated tail with kinks inside
    # and below the horizon, at the buffer's head t and at its segment; a
    # measure slower than h leaves the remainder a mass the bits can see
    rng = np.random.default_rng(seed)
    horizon = 40.0 / h
    thetas = np.unique(np.concatenate([-horizon * np.asarray(kinks), [0.0]]))
    tail = TabulatedTail(thetas, rng.standard_normal((len(thetas), dim)), extrap_rate=0.5 * h)
    times = np.linspace(0.0, t, 6) if t > 0.0 else np.zeros(1)
    samples = tail.origin + np.vstack([np.zeros(dim), rng.standard_normal((len(times) - 1, dim))])
    buf = HistoryBuffer(h, tail, times, samples)
    mu = DelayMeasure.exponential(rate * h)
    built = []

    def recorded(mu, lo, hi, n, extra_bytes):
        rule = _quadrature_rule(mu, lo, hi, n, extra_bytes)
        built.append((lo, rule))
        return rule

    bufs = (buf, extract_segment(buf))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delay_module, "_quadrature_rule", recorded)
        got = [delay_integral(b, mu, power) for b in bufs]
    assert len(built) == 2 and all(rule.nodes[0] == lo for lo, rule in built)
    for g, b in zip(got, bufs):
        assert float(g).hex() == float(reference_delay_integral(b, mu, power)).hex()


def test_a_subnormal_panel_raises_a_delay_evaluation_error():
    # nodes -2e-322 and 0 are accepted as strictly increasing, but the panel
    # pair around -2e-322 has u0 * u2 below the smallest subnormal: its
    # weights are not finite, and the rule names the pair's middle node
    # instead of the integral returning NaN with RuntimeWarnings
    tail = TabulatedTail([-40.0, -2e-322, 0.0], [[1.0], [2.0], [3.0]])
    buf = HistoryBuffer.from_tail(1.0, tail)
    _quadrature_rule.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (buf, extract_segment(buf)):
            with pytest.raises(DelayEvaluationError, match="quadrature weight") as err:
                delay_integral(b, DelayMeasure.exponential(1.0), 1.0)
            assert err.value.theta == -2e-322


def test_an_empty_quadrature_still_reads_the_kernel_at_lo():
    # 40 / h below the float spacing at t: lo == -t, no rule is built, and
    # the remainder, of mass e^{-2 rate t} > 0, reads the kernel at lo itself
    t = 2.0 ** 60
    tail = TabulatedTail([-2.0, -1.0, 0.0], [[3.0], [-1.0], [2.0]])
    buf = HistoryBuffer(1.0, tail, [0.0, t], [[2.0], [5.0]])
    mu = DelayMeasure.exponential(1e-18)
    lo = -buf.horizon - t
    assert lo == -t and mu.mass(-math.inf, lo) > 0.0
    _quadrature_rule.cache_clear()
    got = delay_integral(buf, mu, 1.5)
    assert _quadrature_rule.cache_info().misses == 0
    assert float(got).hex() == float(reference_delay_integral(buf, mu, 1.5)).hex()
    with_lo = mu.mass(-t, 0.0) * 0.5 * (2.0 ** 1.5 + 5.0 ** 1.5) + mu.mass(-math.inf, lo) * 2.0 ** 1.5
    assert got == pytest.approx(with_lo, rel=1e-12)


def test_interp_rows_is_bit_identical_to_np_interp():
    # queries between, exactly at and beyond both ends of the nodes, in
    # ascending and in shuffled order; the last trials interpolate a
    # 10^4-sample trajectory
    rng = np.random.default_rng(5)
    for trial in range(303):
        n = 10_000 if trial >= 300 else 1 + trial % 13   # includes one-sample buffers
        dim = 1 + trial % 5
        xp = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 3.0)
        fp = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
        x = np.concatenate([rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 40), xp,
                            [xp[0], xp[-1], xp[0] - 5.0, xp[-1] + 5.0]])
        for x in (np.sort(x), rng.permutation(x)):
            ref = np.stack([np.interp(x, xp, fp[:, d]) for d in range(dim)], axis=1)
            np.testing.assert_array_equal(_interp_rows(x, xp, fp), ref)
    # panel widths from 1e-9 to 1e3 in one grid, queried at every node, one
    # ulp on either side of it, inside every panel and beyond both ends
    for dim in (1, 3):
        widths = 10.0 ** rng.permutation(np.repeat(np.arange(-9, 4), 2))
        xp = np.concatenate([[-7.0], -7.0 + np.cumsum(widths)])
        fp = rng.standard_normal((len(xp), dim)) * 10.0 ** rng.uniform(-3, 3, (len(xp), 1))
        x = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                            xp[:-1] + rng.uniform(0.0, 1.0, len(widths)) * widths,
                            [xp[0] - 1e-9, xp[0] - 1e3, xp[-1] + 1e-9, xp[-1] + 1e3]])
        for x in (np.sort(x), rng.permutation(x)):
            ref = np.stack([np.interp(x, xp, fp[:, d]) for d in range(dim)], axis=1)
            np.testing.assert_array_equal(_interp_rows(x, xp, fp), ref)


# ---------------------------------------------------------------------------
# the flat-run kernel and package-built buffers
# ---------------------------------------------------------------------------

FAMILIES = ("constant", "exponential", "path")


def kernel_tails(seed, dim):
    """Every tail kind the delay kernel meets, by name: the analytic kinds,
    segments over constant- and exponential-tailed walks and a segment of a
    segment, and the differences of the nine sampled family pairs."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim)
    tails = {"constant": ConstantTail(x0),
             "exponential": ExponentialTail(x0, rate=0.4),
             "tabulated": TabulatedTail([-1.5, -0.7, 0.0],
                                        np.vstack([rng.standard_normal((2, dim)), x0]))}
    for kind in ("constant", "exponential"):
        tails[f"segment of {kind}"] = SegmentTail(upto(simulated_buffer(seed, dim, 6, kind), 3))
    # a walk continued from a segment's head, cut again at an inner sample
    seg = tails["segment of constant"]
    times = np.linspace(0.0, 0.3, 7)
    samples = seg.origin + np.vstack([np.zeros(dim),
                                      np.cumsum(rng.standard_normal((6, dim)), axis=0)])
    tails["segment of a segment"] = SegmentTail(upto(HistoryBuffer(1.0, seg, times, samples), 4))
    a = [sample_history(rng, dim, 1.0, 3.0, kind=k) for k in FAMILIES]
    b = [sample_history(rng, dim, 1.0, 3.0, kind=k) for k in FAMILIES]
    for (ka, sa), (kb, sb) in itertools.product(zip(FAMILIES, a), zip(FAMILIES, b)):
        tails[f"{ka} - {kb}"] = _DifferenceTail(sa.tail, sb.tail)
    return tails


def sample_hits(tail):
    """The thetas at which a tail reads its buffers' sample times and origins."""
    if isinstance(tail, SegmentTail):
        return np.concatenate([tail.buffer.times - tail.t0, [-tail.t0],
                               sample_hits(tail.buffer.tail) - tail.t0])
    if isinstance(tail, _DifferenceTail):
        return np.concatenate([sample_hits(tail.a), sample_hits(tail.b)])
    return np.empty(0)


@given(seed=st.integers(0, 2**16), dim=st.sampled_from([1, 8, 32]))
@settings(max_examples=12, deadline=None)
def test_flat_run_kernel_has_the_bits_of_the_row_norms(seed, dim):
    # on a cached quadrature rule's nodes and on random ascending nodes that
    # hit every sample time, every origin and 0 exactly, the flat run's row is
    # the tail's value at each of its nodes, and _row_norms is the norm of
    # every row of values_at; the origin, which from_tail copies for its head,
    # has the bits of values_at at 0
    rng = np.random.default_rng(seed)
    mu = DelayMeasure.exponential(1.0)
    for name, tail in kernel_tails(seed, dim).items():
        np.testing.assert_array_equal(tail.origin, tail.values_at([0.0])[0], err_msg=name)
        kinks = np.unique(tail.kink_nodes(-40.0, 0.0))
        rule = _quadrature_rule(mu, -40.0, 0.0, 1024, kinks.tobytes())
        hits = sample_hits(tail)
        random = np.unique(np.concatenate([rng.uniform(-3.0, 0.0, 200), hits[hits <= 0.0], [0.0]]))
        for thetas in (rule.nodes, random):
            n, row = tail.flat_run(thetas)
            vals = tail.values_at(thetas)
            # a run exactly where every source is constant
            assert (n > 0) == ("exponential" not in name and "tabulated" not in name), name
            if n:
                np.testing.assert_array_equal(vals[:n], np.broadcast_to(row, (n, dim)), err_msg=name)
            np.testing.assert_array_equal(_row_norms(tail, thetas), np.linalg.norm(vals, axis=1),
                                          err_msg=name)


def source_rows(tail):
    """The arrays a tail reads its origin from."""
    if isinstance(tail, SegmentTail):
        return [tail.buffer.samples]
    if isinstance(tail, _DifferenceTail):
        return source_rows(tail.a) + source_rows(tail.b)
    return [tail.value if isinstance(tail, ConstantTail) else tail.amplitude]


def test_package_built_buffers_pass_the_public_checks():
    # from_tail runs only the weight's checks: segments, differences and
    # sampled histories rebuilt through the constructor are accepted; each
    # one's head is its tail's origin, copied, so it shares no memory with
    # the rows it was read from, and the tail reads it back at 0
    rng = np.random.default_rng(21)
    for dim in (1, 8):
        buf = simulated_buffer(4, dim, 8, "exponential")
        built = [extract_segment(upto(buf, j)) for j in (0, 3, 8)]
        a = [sample_history(rng, dim, 1.0, 3.0, kind=k) for k in FAMILIES]
        b = [sample_history(rng, dim, 1.0, 3.0, kind=k) for k in FAMILIES]
        built += a + b + [_difference(sa, sb) for sa in a for sb in b]
        for seg in built:
            HistoryBuffer(seg.h, seg.tail, seg.times, seg.samples)
            np.testing.assert_array_equal(seg.head, seg.tail.origin)
            np.testing.assert_array_equal(seg.values_at([0.0])[0], seg.head)
            assert not any(np.shares_memory(seg.samples, rows) for rows in source_rows(seg.tail))
    # the public checks would refuse such a difference, so _difference does
    seg8, seg1 = (extract_segment(simulated_buffer(4, dim, 3, "constant")) for dim in (8, 1))
    with pytest.raises(ValueError, match="dimensions 8 and 1"):
        _difference(seg8, seg1)


def test_head_lookup_keeps_the_tail_value_at_the_origin():
    # a hand-built buffer whose first sample sits within the continuity
    # tolerance of its tail: t = 0 reads the tail, the head time and up to
    # 1e-12 past it read the last sample, as interpolation does, and further
    # past the head is out of range
    tail = ConstantTail(np.array([1.0, -2.0]))
    samples = np.array([[1.0 + 1e-12, -2.0], [0.5, 0.25]])
    buf = HistoryBuffer(1.0, tail, np.array([0.0, 0.1]), samples)
    np.testing.assert_array_equal(buf.values_at([0.0]), tail.value[None, :])
    np.testing.assert_array_equal(buf.values_at([0.0, 0.1, 0.1 + 1e-13]),
                                  np.vstack([tail.value, samples[1], samples[1]]))
    with pytest.raises(HistoryRangeError):
        buf.values_at([0.1 + 1e-9])
    with pytest.raises(HistoryRangeError):
        buf.values_at([0.05, 0.1 + 1e-9])


@pytest.mark.parametrize("ss", [[math.nan], [-1.0, math.nan], [math.nan, 0.05],
                                [-1.0, 0.05, math.nan, 0.1]],
                         ids=["alone", "with a pre-origin time", "with an in-range time",
                              "with both"])
def test_values_at_rejects_a_nan_time(ss):
    # a NaN time is no time of the history: it is rejected as a time past the
    # head is, not read as the head row
    buf = HistoryBuffer(1.0, ConstantTail(np.array([1.0, 2.0])), np.array([0.0, 0.05, 0.1]),
                        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    with pytest.raises(HistoryRangeError):
        buf.values_at(np.array(ss))


# ---------------------------------------------------------------------------
# pair functionals: bits of seeded sample_history pairs
# ---------------------------------------------------------------------------

PAIR_FAMILIES = ("constant", "exponential", "path")
PAIR_KEYS = list(itertools.product(PAIR_FAMILIES, PAIR_FAMILIES, (1, 8)))
PAIR_MEASURES = (DelayMeasure.point_mass(), DelayMeasure.exponential(1.0))
PAIR_POWERS = (1.0, 1.5, 2.0)

# float.hex() of pair_seminorm, then delay_pair_integral under the point and
# the exponential measure at each power, for the pair sampled from
# default_rng(100 + i), i the key's place in PAIR_KEYS
PAIR_BITS = {
    ("constant", "constant", 1): (
        "0x1.29d02996042dep+1",
        "0x1.29d02996042dep+1", "0x1.c6443e8b1be01p+1", "0x1.5a74a9c1b03aap+2",
        "0x1.29d02996042dep+1", "0x1.c6443e8b1be01p+1", "0x1.5a74a9c1b03aap+2",
    ),
    ("constant", "constant", 8): (
        "0x1.bfe69012f8067p+1",
        "0x1.bfe69012f8067p+1", "0x1.a2ed1c6f6bf03p+2", "0x1.87d37d64b8a8cp+3",
        "0x1.bfe69012f8067p+1", "0x1.a2ed1c6f6bf03p+2", "0x1.87d37d64b8a8cp+3",
    ),
    ("constant", "exponential", 1): (
        "0x1.9ee0e88381ebep-1",
        "0x1.8f13653e943c0p-1", "0x1.6054272d72b67p-1", "0x1.370ebb88a0b3cp-1",
        "0x1.28ff08020de63p+0", "0x1.461920cfdd81bp+0", "0x1.6a9d63d08d618p+0",
    ),
    ("constant", "exponential", 8): (
        "0x1.0a02c5f2848d3p+1",
        "0x1.0a02c5f2848d3p+1", "0x1.7f7b2b6995a1ep+1", "0x1.1469c363ac4eap+2",
        "0x1.0ff6a9290bc50p+1", "0x1.8c75991115712p+1", "0x1.20fd4a2cbeb50p+2",
    ),
    ("constant", "path", 1): (
        "0x1.591d6c6b28422p+1",
        "0x1.591d6c6b28422p+1", "0x1.1b578055d0e2cp+2", "0x1.d140519a90b3fp+2",
        "0x1.6028f6719e920p+1", "0x1.241c656af5199p+2", "0x1.e4a8048c4d23dp+2",
    ),
    ("constant", "path", 8): (
        "0x1.f05d61e7314b2p+1",
        "0x1.f05d61e7314b2p+1", "0x1.e8ba255cfd3fep+2", "0x1.e134feb813370p+3",
        "0x1.ab25456969c44p+1", "0x1.86874b568e994p+2", "0x1.654aed1f0a867p+3",
    ),
    ("exponential", "constant", 1): (
        "0x1.3f5955b75624fp+1",
        "0x1.3f5955b75624fp+1", "0x1.f86bd01b4b250p+1", "0x1.8e5fc2cb9edd3p+2",
        "0x1.27decf8c2de7fp+1", "0x1.c4346764e6c71p+1", "0x1.5a8c3ff03ff6fp+2",
    ),
    ("exponential", "constant", 8): (
        "0x1.1bac18c03bf6dp+0",
        "0x1.1bac18c03bf6dp+0", "0x1.2a9c540a47c8bp+0", "0x1.3a55f26a4948ep+0",
        "0x1.b54082d8ad671p-1", "0x1.98e15f875dabep-1", "0x1.812f8f1c808cdp-1",
    ),
    ("exponential", "exponential", 1): (
        "0x1.7a4bc1d1a8c59p+1",
        "0x1.7a4bc1d1a8c59p+1", "0x1.452be979fb524p+2", "0x1.1781e76524ff1p+3",
        "0x1.20ab49c6f0f11p+2", "0x1.5140e08989514p+3", "0x1.c70e9a4ff52a9p+4",
    ),
    ("exponential", "exponential", 8): (
        "0x1.271e8e875c718p+1",
        "0x1.271e8e875c719p+1", "0x1.c01dfded0ca1fp+1", "0x1.54377021ae21dp+2",
        "0x1.5c997a20dd72ap+0", "0x1.b380671ad4afbp+0", "0x1.18174052890f4p+1",
    ),
    ("exponential", "path", 1): (
        "0x1.3c6d326f6f74bp+1",
        "0x1.3c6d326f6f74bp+1", "0x1.f18350cc5b61ap+1", "0x1.871dc31717fcbp+2",
        "0x1.f348f11c37dbbp+0", "0x1.60f6a06b4ab77p+1", "0x1.f6867b2b862f8p+1",
    ),
    ("exponential", "path", 8): (
        "0x1.48f2d92f17b6bp+1",
        "0x1.48f2d92f17b6cp+1", "0x1.07aaf68804360p+2", "0x1.a6af32e8020e0p+2",
        "0x1.2b12bdcbc7b88p+1", "0x1.c9f9c10650be7p+1", "0x1.5f2f10285cc6ap+2",
    ),
    ("path", "constant", 1): (
        "0x1.10864968e9339p+0",
        "0x1.10864968e9339p+0", "0x1.192ec0926dccfp+0", "0x1.221da26fde6ebp+0",
        "0x1.e2863293680e4p-2", "0x1.65d9716949607p-2", "0x1.183ac8493646ap-2",
    ),
    ("path", "constant", 8): (
        "0x1.231f5f167e42fp+0",
        "0x1.231f5f167e42fp+0", "0x1.3673961b69ba5p+0", "0x1.4b1056054dd07p+0",
        "0x1.060507c4fc998p+0", "0x1.09ef18ffb1442p+0", "0x1.0e7b111fe676ep+0",
    ),
    ("path", "exponential", 1): (
        "0x1.2881525b2add8p+0",
        "0x1.2881525b2add8p+0", "0x1.3f19e6caa1781p+0", "0x1.576b4fc6ed7ffp+0",
        "0x1.e292185f17d03p-2", "0x1.83c2559922bb9p-2", "0x1.4a6d29cb135f1p-2",
    ),
    ("path", "exponential", 8): (
        "0x1.6e2420a3bdd08p+0",
        "0x1.6e2420a3bdd08p+0", "0x1.b5e0add8110e5p+0", "0x1.05d5a936b27b7p+1",
        "0x1.1faa72cf41b65p+0", "0x1.3468767284d4fp+0", "0x1.4d16be36b457bp+0",
    ),
    ("path", "path", 1): (
        "0x1.ec439281872eap+0",
        "0x1.ccdc1a650b00cp+0", "0x1.352c97ac8d7aap+1", "0x1.9ed3de0c3ff72p+1",
        "0x1.b3544431941e3p+0", "0x1.1d58cf254e94ap+1", "0x1.77749e48d09afp+1",
    ),
    ("path", "path", 8): (
        "0x1.93eeffd8ce064p-1",
        "0x1.ecf28a1846480p-2", "0x1.5605008d56328p-2", "0x1.da9a944b5743ep-3",
        "0x1.9d25891d5a2b2p-1", "0x1.7b12356b8b48ep-1", "0x1.5f507fd405937p-1",
    ),
}


@pytest.mark.parametrize("i, key", list(enumerate(PAIR_KEYS)),
                         ids=[f"{a}-{b}-dim{dim}" for a, b, dim in PAIR_KEYS])
def test_pair_functionals_keep_their_recorded_bits(i, key):
    kind_a, kind_b, dim = key
    rng = np.random.default_rng(100 + i)
    a = sample_history(rng, dim, 1.0, 3.0, kind=kind_a)
    b = sample_history(rng, dim, 1.0, 3.0, kind=kind_b)
    got = [pair_seminorm(a, b)] + [delay_pair_integral(a, b, mu, p)
                                   for mu in PAIR_MEASURES for p in PAIR_POWERS]
    assert tuple(float(v).hex() for v in got) == PAIR_BITS[key]


@pytest.mark.parametrize("pair", [delay_pair_integral, pair_seminorm])
def test_pair_functionals_reject_segments_of_different_weights(pair):
    a = HistoryBuffer.from_tail(1.0, ExponentialTail(np.array([1.0]), rate=0.5))
    b = HistoryBuffer.from_tail(2.0, ExponentialTail(np.array([1.0]), rate=0.5))
    args = (DelayMeasure.exponential(1.0), 2.0) if pair is delay_pair_integral else ()
    with pytest.raises(ValueError, match="same weight h"):
        pair(a, b, *args)


# the two H5 terms, int ||phi-psi||^{gamma+1} mu1 and int ||phi-psi||^{2 gamma} mu2
# at gamma = 1/2, with the measures of reaction-diffusion-delay (mu1 == mu2)
# and of scalar-holder-osc (mu2 a point mass)
H5_TERMS = {
    "mu1 == mu2": [(DelayMeasure.exponential(1.0), 1.5), (DelayMeasure.exponential(1.0), 1.0)],
    "mu2 a point mass": [(DelayMeasure.exponential(1.0), 1.5), (DelayMeasure.point_mass(), 1.0)],
}


@pytest.mark.parametrize("dim", [1, 8, 32])
@pytest.mark.parametrize("terms", H5_TERMS.values(), ids=H5_TERMS)
def test_shared_terms_have_the_bits_of_one_call_per_term(terms, dim):
    # one difference kernel for both terms, against one delay_pair_integral
    # call per term, on every family pair
    rng = np.random.default_rng(60 + dim)
    for ka, kb in itertools.product(PAIR_FAMILIES, PAIR_FAMILIES):
        a = sample_history(rng, dim, 1.0, 3.0, kind=ka)
        b = sample_history(rng, dim, 1.0, 3.0, kind=kb)
        shared = delay_pair_integrals(a, b, terms)
        alone = [delay_pair_integral(a, b, mu, p) for mu, p in terms]
        assert [float(v).hex() for v in shared] == [float(v).hex() for v in alone], (ka, kb)


# the theta of the first non-finite kernel value of the walk below under one
# delay_pair_integral call per power, recorded before the terms shared a kernel
OVERFLOW_THETAS = {4.0: "-0x1.9335e5d594989p-5", 5.0: "-0x1.314f1e1d35ce4p-3", "point": "0x0.0p+0"}


@pytest.mark.parametrize("dim", [1, 8])
def test_shared_terms_raise_the_first_overflowing_terms_theta(dim):
    # a walk up to 1e80: its kernel norms are finite, the 5th power overflows
    # early on the first ramp and the 4th only on the last, and the point
    # mass's 4th power of the head difference overflows at theta = 0; the
    # first term that overflows names its theta, whatever the terms after it
    exp1, point = DelayMeasure.exponential(1.0), DelayMeasure.point_mass()
    x0 = np.ones(dim)
    walk = HistoryBuffer(1.0, ConstantTail(x0), [0.0, 0.05, 0.1, 0.15],
                         np.vstack([x0, 1e70 * x0, 1e75 * x0, 1e80 * x0]))
    a = extract_segment(walk)
    b = HistoryBuffer.from_tail(1.0, ExponentialTail(0.5 * x0, rate=0.3))
    cases = [([(exp1, 4.0), (exp1, 5.0)], 4.0), ([(exp1, 5.0), (exp1, 4.0)], 5.0),
             ([(exp1, 1.5), (exp1, 4.0)], 4.0), ([(exp1, 1.5), (point, 4.0)], "point"),
             ([(point, 4.0), (exp1, 5.0)], "point"), ([(point, 1.0), (exp1, 4.0)], 4.0)]
    for terms, first in cases:
        with np.errstate(over="ignore"), pytest.raises(DelayEvaluationError) as err:
            delay_pair_integrals(a, b, terms)
        assert float(err.value.theta).hex() == OVERFLOW_THETAS[first], terms


# ---------------------------------------------------------------------------
# head functionals: bits of seeded multi-sample buffers
# ---------------------------------------------------------------------------

HEAD_KEYS = list(itertools.product(("constant", "exponential", "tabulated"), (1, 8, 32)))
HEAD_MEASURES = ((DelayMeasure.exponential(1.0), 0.5), (DelayMeasure.exponential(0.7), 1.0),
                 (DelayMeasure.point_mass(), 1.5))

# float.hex() of seminorm_h of the buffer and of its segment at the head, then
# delay_integral at each (measure, power) of HEAD_MEASURES, for the 12-step
# walk simulated_buffer(200 + i, dim, 12, kind), i the key's place in HEAD_KEYS
HEAD_BITS = {
    ("constant", 1): (
        "0x1.f3ce3aa0f129cp-2", "0x1.f3ce3aa0f129cp-2",
        "0x1.1333098835dbep-1", "0x1.343988c02cdfcp-2", "0x1.5d2e8e6e9d8bap-2",
    ),
    ("constant", 8): (
        "0x1.0118926881edfp+2", "0x1.0118926881edfp+2",
        "0x1.ef8543e3b8b74p+0", "0x1.d864e79891608p+1", "0x1.b73a2ca0b66f4p+2",
    ),
    ("constant", 32): (
        "0x1.29d20c3bc9fe2p+3", "0x1.29d20c3bc9fe2p+3",
        "0x1.569fa52f399ecp+1", "0x1.b1fa614eb8b76p+2", "0x1.c6488eda75524p+4",
    ),
    ("exponential", 1): (
        "0x1.391cd3155849dp+0", "0x1.391cd3155849dp+0",
        "0x1.a4c7e9532bedep-1", "0x1.479f3a468a8c2p-1", "0x1.5a48609d27befp+0",
    ),
    ("exponential", 8): (
        "0x1.f19e661aa918cp+1", "0x1.f19e661aa918cp+1",
        "0x1.c469075695290p+0", "0x1.71bcd842e5a73p+1", "0x1.bedfc30982eddp+2",
    ),
    ("exponential", 32): (
        "0x1.14903c43a9a3ap+3", "0x1.14903c43a9a3ap+3",
        "0x1.400e4b4546424p+1", "0x1.73cef3d389464p+2", "0x1.96865de3c5133p+4",
    ),
    ("tabulated", 1): (
        "0x1.09e185eca8e2ap+1", "0x1.09e185eca8e2ap+1",
        "0x1.40e90c0695edbp+0", "0x1.76f21e94d95b0p+0", "0x1.7f334743e6916p+1",
    ),
    ("tabulated", 8): (
        "0x1.48229bcc240f5p+1", "0x1.48229bcc240f5p+1",
        "0x1.9d85a4fd3e6cep+0", "0x1.50e60c959231cp+1", "0x1.06b0bf31a3474p+2",
    ),
    ("tabulated", 32): (
        "0x1.0bdecb26bab57p+3", "0x1.0bdecb26bab57p+3",
        "0x1.53ecb9f2feb4ap+1", "0x1.ac13ab0152948p+2", "0x1.83824ffbdbdf1p+4",
    ),
}


@pytest.mark.parametrize("i, key", list(enumerate(HEAD_KEYS)),
                         ids=[f"{kind}-dim{dim}" for kind, dim in HEAD_KEYS])
def test_head_functionals_keep_their_recorded_bits(i, key):
    # the simulated part of the delay integral (t > 0) and the sampled part of
    # the weighted norm, at the head of a walk over each tail kind
    kind, dim = key
    buf = simulated_buffer(200 + i, dim, 12, kind)
    got = [seminorm_h(buf), seminorm_h(extract_segment(buf))]
    got += [delay_integral(buf, mu, p) for mu, p in HEAD_MEASURES]
    assert tuple(float(v).hex() for v in got) == HEAD_BITS[key]
