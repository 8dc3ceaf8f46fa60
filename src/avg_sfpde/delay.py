"""Infinite-delay histories, their segments, delay measures, delay integrals.

A history is a function on (-infty, t] split into an analytic tail (the
initial datum, defined for times <= 0) and a sampled trajectory on a
simulation grid [0, t_n].  States are 1-D float arrays: length 1 for scalar
problems, length k for spectral coefficient vectors.  The state norm is the
Euclidean norm of the array, which coincides with |.| for scalars and with
the L2 norm for spectral fields (Parseval).

A history is read at its head t, the time of its last sample, as the
coefficients f(t/eps, u_t) and g(t/eps, u_t) read it.  The segment u_t is the
history seen from there, theta -> u(t + theta) on (-infty, 0].
``extract_segment(buf)`` returns it as a buffer whose head is at 0 and whose
tail (``SegmentTail``) is a view of buf.  Its exponentially weighted norm is

    seminorm_h(u) = sup_{theta <= 0} exp(h*theta) * ||u(t + theta)||,

finite whenever the tail belongs to one of the supported families.  Delay
integrals integrate a kernel of the state norm against a probability measure
on (-infty, 0].  The hypotheses (H4) and (H5) compare two segments phi, psi
only through phi - psi, and so do the pair functionals: ``delay_pair_integral``
is ``delay_integral`` of that difference, ``pair_seminorm`` its weighted norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class HistoryRangeError(ValueError):
    """Requested time lies outside the simulated range of a buffer."""


class MomentDivergenceError(ValueError):
    """Requested exponential moment is infinite for this measure."""


class DelayEvaluationError(ArithmeticError):
    """A delay kernel value overflowed; carries the offending theta."""

    def __init__(self, message, theta):
        super().__init__(message)
        self.theta = theta


def state_norm(value) -> float:
    """Norm of a state: |.| for scalars, Euclidean (= spectral L2) for vectors."""
    return float(np.linalg.norm(value))


def as_state(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float))


def _interp_rows(x, xp, fp) -> np.ndarray:
    """np.interp of every column of fp (len(xp), dim) at the points x.

    One searchsorted for all columns, then np.interp's own arithmetic, so
    the result is bit-identical for finite x and fp: the sample itself below,
    above and at a node, slope * (x - xp[j]) + fp[j] in between.  Past the
    searchsorted, the work grows with the queries, not with len(xp).
    """
    x = np.asarray(x, dtype=float)
    last = len(xp) - 1
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, last)
    out = fp[j]
    inner = (j < last) & (x > xp[j])
    if np.any(inner):
        j, x = j[inner], x[inner]
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])[:, None]
        out[inner] = slope * (x - xp[j])[:, None] + fp[j]
    return out


# ---------------------------------------------------------------------------
# Analytic tails (initial data on (-infty, 0])
# ---------------------------------------------------------------------------

class Tail:
    """Base for analytic initial-datum descriptors.

    Each kind states its ``growth`` g, and that one rate decides
    admissibility: the tail defines a history of finite weighted norm for
    weight h when g <= h, checked when the tail is attached to a buffer.
    """

    dim: int

    def values_at(self, thetas) -> np.ndarray:
        raise NotImplementedError

    @property
    def origin(self) -> np.ndarray:
        """The value at theta = 0, the head of a buffer built on the tail."""
        return self.values_at(np.zeros(1))[0]

    def weighted_sup(self, h: float) -> float:
        """sup_{theta <= 0} e^{h theta} ||phi(theta)||: exact for the analytic
        kinds; a tail that interpolates samples (tabulated, segment) takes the
        max over its nodes, which can miss a peak between two nodes by
        O(spacing^2)."""
        raise NotImplementedError

    @property
    def growth(self) -> float:
        """The rate g >= 0 with ||phi(theta)|| = O(e^{-g theta}) as theta -> -infty."""
        raise NotImplementedError

    def kink_nodes(self, lo: float, hi: float) -> np.ndarray:
        """Interior points in [lo, hi] where the tail is not smooth."""
        return np.empty(0)

    def flat_run(self, thetas) -> tuple[int, np.ndarray | None]:
        """(n, row): at the first n of the ascending nodes thetas the tail's
        value is the one row ``row``, bit for bit; (0, None) when the kind
        knows no such run."""
        return 0, None


@dataclass(frozen=True)
class ConstantTail(Tail):
    """phi(theta) = c for all theta <= 0."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", as_state(self.value))

    @property
    def dim(self):
        return self.value.shape[0]

    @property
    def origin(self):
        return self.value

    def values_at(self, thetas):
        """A read-only broadcast view: no (len(thetas), dim) copy is made."""
        return np.broadcast_to(self.value, (len(thetas), self.dim))

    def weighted_sup(self, h):
        return state_norm(self.value)

    @property
    def growth(self):
        return 0.0

    def flat_run(self, thetas):
        return len(thetas), self.value


@dataclass(frozen=True)
class ExponentialTail(Tail):
    """phi(theta) = a * exp(rate * theta); requires rate >= -h for weight h."""

    amplitude: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_state(self.amplitude))

    @property
    def dim(self):
        return self.amplitude.shape[0]

    def values_at(self, thetas):
        return np.exp(self.rate * np.asarray(thetas, dtype=float))[:, None] * self.amplitude

    def weighted_sup(self, h):
        # e^{(h + rate) theta} is nondecreasing on theta <= 0 once rate >= -h,
        # so the supremum sits at theta = 0.
        return state_norm(self.amplitude)

    @property
    def growth(self):
        return max(0.0, -self.rate)


@dataclass(frozen=True)
class TabulatedTail(Tail):
    """Piecewise-linear tail on a grid, exponentially extrapolated to the left.

    For theta below the leftmost node theta_0 the tail continues as
    phi(theta_0) * exp(extrap_rate * (theta - theta_0)).
    """

    thetas: np.ndarray           # ascending, last entry 0
    values: np.ndarray           # (len(thetas), dim)
    extrap_rate: float = 0.0

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if th.ndim != 1 or len(th) < 2 or np.any(np.diff(th) <= 0):
            raise ValueError("tail grid must be strictly increasing with >= 2 nodes")
        if th[-1] != 0.0:
            raise ValueError("tail grid must end at theta = 0")
        if vals.shape[0] != len(th):
            raise ValueError("tail values and grid size mismatch")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return self.values.shape[1]

    def values_at(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((len(thetas), self.dim))
        inside = thetas >= self.thetas[0]
        if np.any(inside):
            out[inside] = _interp_rows(thetas[inside], self.thetas, self.values)
        if np.any(~inside):
            decay = np.exp(self.extrap_rate * (thetas[~inside] - self.thetas[0]))
            out[~inside] = decay[:, None] * self.values[0]
        return out

    def weighted_sup(self, h):
        # Extrapolated part: e^{(h+b)(theta-theta_0)} <= 1 below theta_0, so the
        # node at theta_0 dominates it.
        return float(np.max(np.exp(h * self.thetas) * np.linalg.norm(self.values, axis=1)))

    @property
    def growth(self):
        return max(0.0, -self.extrap_rate)

    def kink_nodes(self, lo, hi):
        return self.thetas[(self.thetas > lo) & (self.thetas < hi)]


class SegmentTail(Tail):
    """The history of ``buffer`` up to its head time t0, viewed as an initial
    datum: its value at theta is the buffer's value at t0 + theta.

    A view, not a copy: it holds the buffer and reads its tail and samples.
    """

    def __init__(self, buffer: "HistoryBuffer"):
        self.buffer = buffer
        self.t0 = buffer.head_time

    @property
    def dim(self):
        return self.buffer.dim

    @property
    def origin(self):
        return self.buffer.head

    def values_at(self, thetas):
        return self.buffer.values_at(self.t0 + np.asarray(thetas, dtype=float))

    def weighted_sup(self, h):
        """The max of three parts: the source tail's weighted sup, weighted
        back from t0; e^{h (t_j - t0)} ||u(t_j)|| over the sample nodes t_j;
        and the head u(t0).  Between two nodes the weighted linear
        interpolant can peak above both ends, and that peak is not sampled:
        this is the sup over the nodes, not the continuous sup, and the gap
        shrinks like the squared step."""
        # u(t0) as a row norm and as state_norm: the two a segment's buffer
        # reads at 0
        buf, t0 = self.buffer, self.t0
        norms = np.linalg.norm(buf.samples, axis=1)
        grid = float(np.max(np.exp(h * (buf.times - t0)) * norms))
        return max(math.exp(-h * t0) * buf.tail.weighted_sup(h), grid, state_norm(buf.head))

    @property
    def growth(self):
        return self.buffer.tail.growth

    def kink_nodes(self, lo, hi):
        buf, t0 = self.buffer, self.t0
        nodes = np.concatenate([buf.times - t0,
                                buf.tail.kink_nodes(lo + t0, min(hi + t0, 0.0)) - t0])
        return np.unique(nodes[(nodes > lo) & (nodes < hi)])

    def flat_run(self, thetas):
        # the nodes with t0 + theta <= 0 read the buffer's tail, as values_at
        # sends them
        ss = self.t0 + np.asarray(thetas, dtype=float)
        return self.buffer.tail.flat_run(ss[:np.searchsorted(ss, 0.0, side="right")])


class _DifferenceTail(Tail):
    """phi - psi on (-infty, 0] for the tails phi, psi of two segments.

    It reads both tails directly: a segment's head sits at 0, so every
    theta <= 0 lies in its tail.
    """

    def __init__(self, a: Tail, b: Tail):
        self.a, self.b = a, b

    @property
    def dim(self):
        return self.a.dim

    @property
    def origin(self):
        return self.a.origin - self.b.origin

    def values_at(self, thetas):
        return self.a.values_at(thetas) - self.b.values_at(thetas)

    def weighted_sup(self, h):
        """The max over 2048 uniform nodes of [-default_horizon(h), 0]: the
        checkers need a faithful denominator, not machine precision."""
        thetas = -np.linspace(0.0, default_horizon(h), 2048)[::-1]  # ascending
        return float(np.max(np.exp(h * thetas) * _row_norms(self, thetas)))

    @property
    def growth(self):
        return max(self.a.growth, self.b.growth)

    def kink_nodes(self, lo, hi):
        # the kinks of both tails, so swapping the segments keeps every node
        return np.concatenate([self.a.kink_nodes(lo, hi), self.b.kink_nodes(lo, hi)])

    def flat_run(self, thetas):
        na, ra = self.a.flat_run(thetas)
        nb, rb = self.b.flat_run(thetas)
        n = min(na, nb)
        return (n, ra - rb) if n else (0, None)


def _row_norms(tail: Tail, thetas: np.ndarray) -> np.ndarray:
    """np.linalg.norm(tail.values_at(thetas), axis=1) at ascending thetas, bit
    for bit: the tail's flat run is normed once (a contiguous row's norm does
    not depend on its batch), and only the nodes past it are evaluated."""
    n, row = tail.flat_run(thetas)
    norms = np.empty(len(thetas))
    if n:
        norms[:n] = np.linalg.norm(row[None, :], axis=1)
    norms[n:] = np.linalg.norm(tail.values_at(thetas[n:]), axis=1)
    return norms


# ---------------------------------------------------------------------------
# Delay measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayMeasure:
    """Probability measure on (-infty, 0].

    Supported kinds:
      * ``exponential``: density 2*rate*exp(2*rate*theta) d theta, rate > 0;
        the only kind a drift delay term takes
      * ``point``: unit mass at theta = 0, a profile's mu1 or mu2: its
        ``exp_moment`` is 1, and ``delay_integral`` reads the head value

    ``mass``, ``moments_centered`` and ``graded_nodes`` serve the quadrature,
    which only an exponential measure reaches (``_quadrature_rule`` rejects
    any other kind).
    """

    kind: str
    rate: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential":
            if self.rate <= 0:
                raise ValueError("exponential measure needs rate > 0")
        elif self.kind != "point":
            raise ValueError(f"unknown measure kind {self.kind!r}")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def exponential(rate: float) -> "DelayMeasure":
        return DelayMeasure("exponential", rate=rate)

    @staticmethod
    def point_mass() -> "DelayMeasure":
        return DelayMeasure("point")

    # -- basic quantities ---------------------------------------------------
    def exp_moment(self, k: float) -> float:
        """mu^{(k)} = int exp(-k*theta) mu(d theta); raises if infinite."""
        if k < 0:
            raise ValueError("moment order k must be nonnegative")
        if self.kind == "point":
            return 1.0
        if k >= 2.0 * self.rate:
            raise MomentDivergenceError(
                f"exp_moment({k}) diverges: exponential({self.rate}) lies in "
                f"P_k only for k < {2.0 * self.rate}"
            )
        return 2.0 * self.rate / (2.0 * self.rate - k)

    def mass(self, a: float, b: float) -> float:
        """Measure of the interval (a, b], exact."""
        if b <= a:
            return 0.0
        hi = math.exp(2.0 * self.rate * min(b, 0.0))
        lo = 0.0 if a == -math.inf else math.exp(2.0 * self.rate * a)
        return hi - lo

    def moments_centered(self, a, b, c):
        """Exact (m0, m1, m2) of (theta - c)^k over (a, b], stable for c near a.

        m0 is the interval mass; m1, m2 are the first and second moments in
        the shifted coordinate u = theta - c.  a, b, c are floats, or
        equal-shape arrays with one interval per element; floats give floats.
        """
        scalar = np.ndim(a) == np.ndim(b) == np.ndim(c) == 0
        a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
        r2 = 2.0 * self.rate
        scale = np.exp(r2 * c)
        ub = np.minimum(b, 0.0) - c
        eb = np.exp(r2 * ub)
        # antiderivatives e^{r2 u}, e^{r2 u}(u - 1/r2), e^{r2 u}(u^2 - 2u/r2 + 2/r2^2);
        # a lower end at -infty contributes 0
        open_lo = a == -np.inf
        ua = np.where(open_lo, 0.0, a - c)
        ea = np.where(open_lo, 0.0, np.exp(r2 * ua))
        m = (scale * (eb - ea),
             scale * (eb * (ub - 1.0 / r2) - ea * (ua - 1.0 / r2)),
             scale * (eb * (ub * ub - 2.0 * ub / r2 + 2.0 / (r2 * r2))
                      - ea * (ua * ua - 2.0 * ua / r2 + 2.0 / (r2 * r2))))
        m = tuple(np.where(b > a, v, 0.0) for v in m)
        if scalar:
            return tuple(float(v) for v in m)
        return tuple(m)

    def graded_nodes(self, a: float, b: float, n: int) -> np.ndarray:
        """Quadrature nodes on [a, b]: equal-mass grading unioned with a
        uniform grid so that no panel is wide where the density is flat."""
        half = max(n // 2, 8)
        sa = 0.0 if a == -math.inf else math.exp(2.0 * self.rate * a)
        sb = math.exp(2.0 * self.rate * min(b, 0.0))
        s = np.linspace(sa, sb, half + 1)
        with np.errstate(divide="ignore"):
            mass_nodes = np.log(np.maximum(s, 1e-300)) / (2.0 * self.rate)
        mass_nodes[0] = a
        uniform = np.linspace(a, min(b, 0.0), half + 1)
        nodes = np.unique(np.concatenate([mass_nodes, uniform]))
        return np.clip(nodes, a, b)


# ---------------------------------------------------------------------------
# History buffers
# ---------------------------------------------------------------------------

def default_horizon(h: float) -> float:
    # exp(h*theta) and the exponential measure density both fall below 1e-17
    # of their theta=0 values at theta = -40/h
    return 40.0 / h


def _check_weight(h: float, tail: Tail):
    if h <= 0:
        raise ValueError("weight h must be positive")
    if tail.growth > h:
        raise ValueError(f"tail growth {tail.growth} > h = {h}: "
                         "weighted history norm would be infinite")


@dataclass
class HistoryBuffer:
    """Analytic tail plus sampled trajectory; the segment process substrate.
    A tail of ``growth`` above h, of infinite weighted norm, is rejected."""

    h: float
    tail: Tail
    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        _check_weight(self.h, self.tail)
        self.times = np.asarray(self.times, dtype=float)
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        # a NaN passes every comparison below, so non-finite entries go first
        for name, arr in (("times", self.times), ("samples", self.samples)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if len(self.times) != self.samples.shape[0]:
            raise ValueError("times and samples length mismatch")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("sample grid must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if self.samples.shape[1] != self.tail.dim:
            raise ValueError("tail and samples dimension mismatch")
        head0 = self.tail.origin
        gap = float(np.max(np.abs(self.samples[0] - head0)))
        if gap > 1e-9 * (1.0 + float(np.max(np.abs(head0)))):
            raise ValueError("history must be continuous at the origin: "
                             "samples[0] must equal the tail value at theta = 0")

    @classmethod
    def from_tail(cls, h: float, tail: Tail) -> "HistoryBuffer":
        """The one sample tail(0) at t = 0, a copy of the tail's origin, so the
        buffer shares no rows with the tail's source.  Of the constructor's
        checks only the weight's can fail: the grid, the shape and continuity
        at the origin hold by construction, so they are not run."""
        _check_weight(h, tail)
        buf = cls.__new__(cls)
        buf.h, buf.tail = h, tail
        buf.times = np.array([0.0])
        buf.samples = np.array(tail.origin, dtype=float)[None, :]
        return buf

    @property
    def horizon(self) -> float:
        """Where the delay quadrature truncates the tail: fixed by h."""
        return default_horizon(self.h)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def head_time(self) -> float:
        return float(self.times[-1])

    @property
    def head(self) -> np.ndarray:
        return self.samples[-1]

    def values_at(self, ss: np.ndarray) -> np.ndarray:
        """History values at absolute times ss <= head_time, one row each.
        When every s <= 0 the result is the tail's own array, which may share
        memory with it (a constant tail's read-only broadcast): do not write
        to it."""
        ss = np.asarray(ss, dtype=float)
        pre = ss <= 0.0
        if np.all(pre):
            return self.tail.values_at(ss)
        if np.max(ss) > self.head_time + 1e-12:
            raise HistoryRangeError("requested times beyond simulated range")
        if not np.any(pre):
            return _interp_rows(ss, self.times, self.samples)
        out = np.empty((len(ss), self.dim))
        out[pre] = self.tail.values_at(ss[pre])
        out[~pre] = _interp_rows(ss[~pre], self.times, self.samples)
        return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def seminorm_h(buf: HistoryBuffer) -> float:
    """Weighted history norm sup_{theta<=0} e^{h*theta} ||u(t+theta)|| at the
    head t, h the buffer's own weight, as ``SegmentTail.weighted_sup``
    computes it: over the tail, the sample nodes and the head, not between
    nodes, so a sampled path's value may fall short of the continuous sup by
    O(dt^2)."""
    return SegmentTail(buf).weighted_sup(buf.h)


def extract_segment(buf: HistoryBuffer) -> HistoryBuffer:
    """Segment u_t at the head t: a buffer whose head sits at 0 and whose tail
    is a view of buf shifted to t."""
    return HistoryBuffer.from_tail(buf.h, SegmentTail(buf))


def _tail_power_closed_form(tail, mu, p, hi):
    """Closed form of int_{-infty}^{hi} ||tail(theta)||^p mu(dtheta) for an
    exponential mu, when available."""
    r2 = 2.0 * mu.rate
    if isinstance(tail, ConstantTail):
        return state_norm(tail.value) ** p * mu.mass(-math.inf, hi)
    if isinstance(tail, ExponentialTail):
        # ||a||^p e^{p b theta} against r2 e^{r2 theta}; c > 0 for p >= 0,
        # since delay_integral has rejected p * growth >= r2
        c = p * tail.rate + r2
        return state_norm(tail.amplitude) ** p * r2 / c * math.exp(c * min(hi, 0.0))
    return None


@dataclass(frozen=True)
class _QuadratureRule:
    """What the product quadrature reads of one node set: the nodes, the
    Lagrange weights of every panel pair and their mask of nonzero mass, and
    the weights of the linear last panel (None when the panels pair up, or
    when that panel has no mass)."""

    nodes: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    keep: np.ndarray
    odd: tuple | None


@functools.lru_cache(maxsize=64)
def _quadrature_rule(mu, lo, hi, n, extra_bytes):
    """The rule of mu's graded nodes on [lo, hi] with the extra nodes
    (sorted and unique, as raw float64 bytes); built once per key."""
    if mu.kind != "exponential":
        raise ValueError(f"product quadrature needs an exponential measure, not {mu.kind!r}")
    extra = np.frombuffer(extra_bytes, dtype=float)
    # a repeated node would be a zero-width panel
    nodes = np.unique(np.concatenate([mu.graded_nodes(lo, hi, n), extra]))
    last = len(nodes) - 1
    end = last - last % 2  # nodes[0..end] form the panel pairs
    x0, x1, x2 = nodes[0:end:2], nodes[1:end:2], nodes[2:end + 1:2]
    m0, m1, m2 = mu.moments_centered(x0, x2, x1)
    u0, u2 = x0 - x1, x2 - x1
    w0 = (m2 - u2 * m1) / (u0 * (u0 - u2))
    w1 = (m2 - (u0 + u2) * m1 + u0 * u2 * m0) / (u0 * u2)
    w2 = (m2 - u0 * m1) / (u2 * (u2 - u0))
    odd = None
    if end < last:
        a, b = nodes[end], nodes[last]
        m0_odd, m1_odd, _ = mu.moments_centered(a, b, a)
        if m0_odd != 0.0:
            w = b - a
            odd = (m0_odd - m1_odd / w, m1_odd / w)
    rule = _QuadratureRule(nodes, w0, w1, w2, m0 != 0.0, odd)
    for arr in (nodes, w0, w1, w2, rule.keep):
        arr.flags.writeable = False  # shared by every later call with this key
    return rule


def _product_quadrature(mu, lo, hi, values_of_theta, n=1024, extra_nodes=None):
    """int_lo^hi K(theta) mu(dtheta), K interpolated against exact moments.

    Quadratic (Lagrange) interpolation of the kernel over pairs of panels,
    integrated against the measure's exact zeroth/first/second moments; the
    final odd panel, if any, falls back to linear.  The nodes and weights
    depend on (mu, lo, hi, n) and the set of extra nodes only, so they come
    from a cache of rules (``_quadrature_rule``), and a call evaluates the
    kernel at the rule's nodes and sums.  A constant kernel integrates to the
    interval mass exactly.
    """
    if hi <= lo:
        return 0.0
    extra = np.unique(np.asarray(() if extra_nodes is None else extra_nodes, dtype=float))
    # + 0.0 turns a -0.0 end into 0.0, so the two share one key and one rule
    rule = _quadrature_rule(mu, lo + 0.0, hi + 0.0, n, extra.tobytes())
    ks = np.asarray(values_of_theta(rule.nodes), dtype=float)
    last = len(ks) - 1
    end = last - last % 2
    terms = rule.w0 * ks[0:end:2] + rule.w1 * ks[1:end:2] + rule.w2 * ks[2:end + 1:2]
    total = float(np.sum(terms[rule.keep]))
    if rule.odd is not None:
        total += ks[end] * rule.odd[0] + ks[last] * rule.odd[1]
    return total


def delay_integral(buf: HistoryBuffer, mu: DelayMeasure, power: float) -> float:
    """int_{-infty}^0 ||u(t+theta)||^power mu(dtheta) at the head t.

    The simulated part [-t, 0] is integrated by a trapezoid in kernel values
    against exact interval masses on the sample grid; the analytic-tail part
    uses closed forms where available and a graded product quadrature
    otherwise.  The power must be >= 0 (ValueError otherwise, NaN
    included).  Against an exponential measure the integral diverges when
    power * g >= 2 * rate, g the tail's ``growth``: that raises
    MomentDivergenceError before any quadrature.  A kernel value that
    overflows raises DelayEvaluationError with its theta.
    """
    t = buf.head_time
    power = float(power)
    if not power >= 0.0:
        raise ValueError(f"delay kernel power {power}: must be >= 0")
    if mu.kind == "exponential" and power * buf.tail.growth >= 2.0 * mu.rate:
        raise MomentDivergenceError(
            f"delay integral diverges: ||u||^{power} of a tail of growth "
            f"{buf.tail.growth} grows at {power * buf.tail.growth} >= 2 * rate = "
            f"{2.0 * mu.rate} of exponential({mu.rate})")

    def check(vals, thetas):
        bad = ~np.isfinite(np.atleast_1d(vals))
        if np.any(bad):
            th = np.atleast_1d(thetas)[bad][0]
            raise DelayEvaluationError(f"kernel not finite at theta = {th}", float(th))
        return vals

    if mu.kind == "point":
        # a float64 norm: its power is C's pow, which an array's can miss by a bit
        v = float(np.linalg.norm(buf.head) ** power)
        check(v, 0.0)
        return v

    total = 0.0

    # simulated part: theta in [-t, 0], at the sample nodes
    if t > 0.0:
        nodes = buf.times - t
        norms = np.linalg.norm(buf.values_at(nodes + t), axis=1)
        ks = check(norms ** power, nodes)
        masses = np.array([mu.mass(a, b) for a, b in zip(nodes[:-1], nodes[1:])])
        total += float(np.sum(masses * 0.5 * (ks[:-1] + ks[1:])))

    # analytic-tail part: theta in (-infty, -t]
    # closed forms hold on the untruncated tail
    closed = _tail_power_closed_form(buf.tail, mu, power, -t)
    if closed is not None:
        return total + closed

    def K(thetas):
        return check(_row_norms(buf.tail, np.asarray(thetas) + t) ** power, thetas)

    lo = -buf.horizon - t
    kinks = buf.tail.kink_nodes(lo + t, 0.0)
    total += _product_quadrature(mu, lo, -t, K, extra_nodes=np.asarray(kinks) - t)
    # remainder below the truncation horizon: the kernel frozen at lo
    rem = mu.mass(-math.inf, lo)
    if rem > 0.0:
        total += rem * float(K(np.array([lo]))[0])
    return total


def _difference(seg_a: HistoryBuffer, seg_b: HistoryBuffer) -> HistoryBuffer:
    """The segment phi - psi of two segments phi, psi of one weight h (heads
    at t = 0, as extract_segment and sample_history return them); a constant
    tail when both tails are constant."""
    for seg in (seg_a, seg_b):
        if seg.head_time != 0.0:
            raise ValueError(f"history with head at t = {seg.head_time} is not a segment: "
                             "take extract_segment(buf) first")
    if seg_a.h != seg_b.h:
        raise ValueError("segments must share the same weight h")
    if seg_a.dim != seg_b.dim:
        raise ValueError(f"segments of dimensions {seg_a.dim} and {seg_b.dim}")
    ta, tb = seg_a.tail, seg_b.tail
    if isinstance(ta, ConstantTail) and isinstance(tb, ConstantTail):
        return HistoryBuffer.from_tail(seg_a.h, ConstantTail(ta.value - tb.value))
    return HistoryBuffer.from_tail(seg_a.h, _DifferenceTail(ta, tb))


def delay_pair_integral(seg_a: HistoryBuffer, seg_b: HistoryBuffer,
                        mu: DelayMeasure, power: float) -> float:
    """int ||phi(theta) - psi(theta)||^power mu(dtheta) of two segments phi,
    psi: ``delay_integral`` of their difference."""
    return delay_integral(_difference(seg_a, seg_b), mu, power)


def pair_seminorm(seg_a: HistoryBuffer, seg_b: HistoryBuffer) -> float:
    """Weighted norm sup_{theta<=0} e^{h theta}||phi(theta) - psi(theta)|| of
    the difference of two segments: exact for constant tails, the difference
    tail's sampled sup otherwise."""
    diff = _difference(seg_a, seg_b)
    # the head difference as a row norm as well: it can differ from
    # state_norm in the last bit, and check_holder divides by the max
    head = diff.head[None, :]
    return max(diff.tail.weighted_sup(diff.h), float(np.linalg.norm(head, axis=1)[0]))
