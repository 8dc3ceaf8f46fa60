"""Infinite-delay histories, delay measures, and delay integrals.

A history is a function on (-infty, t] split into an analytic tail (the
initial datum, defined for times <= 0) and a sampled trajectory on a
simulation grid [0, t_n].  States are 1-D float arrays: length 1 for scalar
problems, length k for spectral coefficient vectors.  The state norm is the
Euclidean norm of the array, which coincides with |.| for scalars and with
the L2 norm for spectral fields (Parseval).

The exponentially weighted history norm is

    seminorm_h(u, t) = sup_{theta <= 0} exp(h*theta) * ||u(t + theta)||,

finite whenever the tail belongs to one of the supported families.  Delay
integrals integrate a kernel of the state norm against a probability measure
on (-infty, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class HistoryRangeError(ValueError):
    """Requested time lies outside the simulated range of a buffer."""


class MomentDivergenceError(ValueError):
    """Requested exponential moment is infinite for this measure."""


class DelayEvaluationError(ArithmeticError):
    """A delay kernel produced a non-finite value; carries the offending theta."""

    def __init__(self, message, theta):
        super().__init__(message)
        self.theta = theta


def state_norm(value) -> float:
    """Norm of a state: |.| for scalars, Euclidean (= spectral L2) for vectors."""
    return float(np.linalg.norm(value))


def as_state(value, dim=None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if dim is not None and v.shape != (dim,):
        raise ValueError(f"expected state of dimension {dim}, got shape {v.shape}")
    return v


def _interp_rows(x, xp, fp) -> np.ndarray:
    """np.interp of every column of fp (len(xp), dim) at the points x.

    One searchsorted for all columns, then np.interp's own arithmetic, so
    the result is bit-identical for finite x and fp: the sample itself below,
    above and at a node, slope * (x - xp[j]) + fp[j] in between.
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

    A tail must have a weighted limit lim_{theta -> -infty} e^{h theta} phi(theta)
    in order to define an admissible history for weight h; admissibility is
    checked when the tail is attached to a buffer.
    """

    dim: int

    def value_at(self, theta: float) -> np.ndarray:
        raise NotImplementedError

    def weighted_sup(self, h: float) -> float:
        """sup_{theta <= 0} e^{h theta} ||phi(theta)||."""
        raise NotImplementedError

    def check_admissible(self, h: float) -> None:
        raise NotImplementedError

    def kink_nodes(self, lo: float, hi: float) -> np.ndarray:
        """Interior points in [lo, hi] where the tail is not smooth."""
        return np.empty(0)


@dataclass(frozen=True)
class ConstantTail(Tail):
    """phi(theta) = c for all theta <= 0."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", as_state(self.value))

    @property
    def dim(self):
        return self.value.shape[0]

    def value_at(self, theta):
        return self.value

    def values_at(self, thetas):
        """A read-only broadcast view: no (len(thetas), dim) copy is made."""
        return np.broadcast_to(self.value, (len(thetas), self.dim))

    def weighted_sup(self, h):
        return state_norm(self.value)

    def check_admissible(self, h):
        pass


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

    def value_at(self, theta):
        return self.amplitude * math.exp(self.rate * theta)

    def values_at(self, thetas):
        return np.exp(self.rate * np.asarray(thetas, dtype=float))[:, None] * self.amplitude

    def weighted_sup(self, h):
        # e^{(h + rate) theta} is nondecreasing on theta <= 0 once rate >= -h,
        # so the supremum sits at theta = 0.
        return state_norm(self.amplitude)

    def check_admissible(self, h):
        if self.rate < -h:
            raise ValueError(
                f"exponential tail rate {self.rate} < -h = {-h}: "
                "weighted history norm would be infinite"
            )


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

    def value_at(self, theta):
        return self.values_at(np.array([theta]))[0]

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
        node_sup = float(np.max(np.exp(h * self.thetas) * np.linalg.norm(self.values, axis=1)))
        # Extrapolated part: e^{(h+b)(theta-theta_0)} <= 1 below theta_0, so the
        # node at theta_0 dominates it.
        return node_sup

    def check_admissible(self, h):
        if self.extrap_rate < -h:
            raise ValueError(
                f"tabulated tail extrapolation rate {self.extrap_rate} < -h = {-h}"
            )

    def kink_nodes(self, lo, hi):
        inner = self.thetas[(self.thetas > lo) & (self.thetas < hi)]
        return inner


class SegmentTail(Tail):
    """History of a parent buffer up to time t0, viewed as an initial datum.

    value_at(theta) = parent history evaluated at t0 + theta.
    """

    def __init__(self, parent_tail: Tail, times: np.ndarray, samples: np.ndarray, t0: float):
        self.parent_tail = parent_tail
        self.times = np.asarray(times, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.t0 = float(t0)

    @property
    def dim(self):
        return self.samples.shape[1]

    def value_at(self, theta):
        s = self.t0 + theta
        if s <= 0.0:
            return self.parent_tail.value_at(s)
        return _interp_rows([s], self.times, self.samples)[0]

    def values_at(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        s = self.t0 + thetas
        out = np.empty((len(thetas), self.dim))
        pre = s <= 0.0
        if np.any(pre):
            out[pre] = self.parent_tail.values_at(s[pre])
        if np.any(~pre):
            out[~pre] = _interp_rows(s[~pre], self.times, self.samples)
        return out

    def weighted_sup(self, h):
        grid = float(np.max(np.exp(h * (self.times - self.t0))
                            * np.linalg.norm(self.samples, axis=1))) if len(self.times) else 0.0
        return max(math.exp(-h * self.t0) * self.parent_tail.weighted_sup(h), grid)

    def check_admissible(self, h):
        self.parent_tail.check_admissible(h)

    def kink_nodes(self, lo, hi):
        nodes = list(self.times - self.t0) + [-self.t0]
        parent = self.parent_tail.kink_nodes(lo + self.t0, min(hi + self.t0, 0.0)) - self.t0
        nodes.extend(parent.tolist())
        arr = np.asarray([n for n in nodes if lo < n < hi], dtype=float)
        return np.unique(arr)


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
        ``exp_moment`` is 1, and the two delay integrals read the head value
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
        """Measure of the interval (a, b], exact for the supported kinds."""
        if b <= a:
            return 0.0
        if self.kind == "point":
            return 1.0 if a < 0.0 <= b else 0.0
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
        if self.kind == "point":
            inside = (a < 0.0) & (0.0 <= b)
            m = (np.where(inside, 1.0, 0.0), np.where(inside, -c, 0.0),
                 np.where(inside, c * c, 0.0))
        else:
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
        if self.kind == "exponential":
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
        return np.linspace(max(a, 0.0), min(b, 0.0), n + 1)


# ---------------------------------------------------------------------------
# History buffers
# ---------------------------------------------------------------------------

def default_horizon(h: float) -> float:
    # exp(h*theta) and the exponential measure density both fall below 1e-17
    # of their theta=0 values at theta = -40/h
    return 40.0 / h


@dataclass
class HistoryBuffer:
    """Analytic tail plus sampled trajectory; the segment process substrate."""

    h: float
    tail: Tail
    times: np.ndarray
    samples: np.ndarray
    horizon: float = field(default=0.0)

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("weight h must be positive")
        self.tail.check_admissible(self.h)
        self.times = np.asarray(self.times, dtype=float)
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim == 1:
            self.samples = self.samples[:, None]
        if len(self.times) != self.samples.shape[0]:
            raise ValueError("times and samples length mismatch")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("sample grid must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if self.samples.shape[1] != self.tail.dim:
            raise ValueError("tail and samples dimension mismatch")
        head0 = self.tail.value_at(0.0)
        gap = float(np.max(np.abs(self.samples[0] - head0)))
        if gap > 1e-9 * (1.0 + float(np.max(np.abs(head0)))):
            raise ValueError("history must be continuous at the origin: "
                             "samples[0] must equal the tail value at theta = 0")
        if self.horizon <= 0.0:
            self.horizon = default_horizon(self.h)

    @classmethod
    def from_tail(cls, h: float, tail: Tail, horizon: float = 0.0) -> "HistoryBuffer":
        return cls(h=h, tail=tail, times=np.array([0.0]),
                   samples=tail.value_at(0.0)[None, :], horizon=horizon)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def head_time(self) -> float:
        return float(self.times[-1])

    @property
    def head(self) -> np.ndarray:
        return self.samples[-1]

    def value_at(self, s: float) -> np.ndarray:
        """History value at absolute time s <= head_time."""
        if s <= 0.0:
            return self.tail.value_at(s)
        if s > self.head_time + 1e-12:
            raise HistoryRangeError(f"time {s} beyond simulated range {self.head_time}")
        return _interp_rows([s], self.times, self.samples)[0]

    def values_at(self, ss: np.ndarray) -> np.ndarray:
        ss = np.asarray(ss, dtype=float)
        out = np.empty((len(ss), self.dim))
        pre = ss <= 0.0
        if np.any(pre):
            out[pre] = self.tail.values_at(ss[pre])
        post = ~pre
        if np.any(post):
            if np.max(ss[post]) > self.head_time + 1e-12:
                raise HistoryRangeError("requested times beyond simulated range")
            out[post] = _interp_rows(ss[post], self.times, self.samples)
        return out

    def appended(self, t: float, value) -> "HistoryBuffer":
        """New buffer with one extra sample (convenience; O(n) copy)."""
        value = as_state(value, self.dim)
        return HistoryBuffer(
            h=self.h,
            tail=self.tail,
            times=np.append(self.times, t),
            samples=np.vstack([self.samples, value[None, :]]),
            horizon=self.horizon,
        )

    def _check_time(self, t: float):
        if not (0.0 <= t <= self.head_time + 1e-12):
            raise HistoryRangeError(
                f"time {t} outside simulated range [0, {self.head_time}]"
            )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def seminorm_h(buf: HistoryBuffer, t: float) -> float:
    """Weighted history norm sup_{theta<=0} e^{h*theta} ||u(t+theta)||, h the
    buffer's own weight."""
    buf._check_time(t)
    h = buf.h
    tail_part = math.exp(-h * t) * buf.tail.weighted_sup(h)
    mask = buf.times <= t + 1e-15
    grid_part = 0.0
    if np.any(mask):
        grid_part = float(np.max(np.exp(h * (buf.times[mask] - t))
                                 * np.linalg.norm(buf.samples[mask], axis=1)))
    head_part = state_norm(buf.value_at(t))
    return max(tail_part, grid_part, head_part)


def extract_segment(buf: HistoryBuffer, t: float) -> HistoryBuffer:
    """Segment u_t as a buffer of its own, origin shifted to t."""
    buf._check_time(t)
    if t == 0.0:
        return HistoryBuffer(h=buf.h, tail=buf.tail, times=np.array([0.0]),
                             samples=buf.tail.value_at(0.0)[None, :], horizon=buf.horizon)
    mask = buf.times <= t + 1e-15
    seg_tail = SegmentTail(buf.tail, buf.times[mask], buf.samples[mask], t)
    return HistoryBuffer(h=buf.h, tail=seg_tail, times=np.array([0.0]),
                         samples=buf.value_at(t)[None, :], horizon=buf.horizon)


def _powers(norms, p):
    """norms ** p; a zero norm under p < 0 gives inf, which callers report."""
    with np.errstate(divide="ignore"):
        return np.asarray(norms, dtype=float) ** p


def _tail_power_closed_form(tail, mu, p, lo, hi):
    """Closed form of int_{lo}^{hi} ||tail(theta)||^p mu(dtheta) for an
    exponential mu, when available."""
    r2 = 2.0 * mu.rate
    if isinstance(tail, ConstantTail):
        norm = state_norm(tail.value)
        if norm == 0.0 and p < 0:
            return None  # quadrature path reports the non-finite kernel value
        return norm ** p * mu.mass(lo, hi)
    if isinstance(tail, ExponentialTail):
        # ||a||^p e^{p b theta} against r2 e^{r2 theta}
        norm = state_norm(tail.amplitude)
        if norm == 0.0 and p < 0:
            return None
        c = p * tail.rate + r2
        if c <= 0:
            return None
        amp = norm ** p * r2 / c
        hi_t = math.exp(c * min(hi, 0.0))
        lo_t = 0.0 if lo == -math.inf else math.exp(c * lo)
        return amp * (hi_t - lo_t)
    return None


def _product_quadrature(mu, lo, hi, values_of_theta, n=1024, extra_nodes=None):
    """int_lo^hi K(theta) mu(dtheta), K interpolated against exact moments.

    Quadratic (Lagrange) interpolation of the kernel over pairs of panels,
    integrated against the measure's exact zeroth/first/second moments; the
    final odd panel, if any, falls back to linear.  The moments and weights
    of all panel pairs are computed in one array pass.  A constant kernel
    integrates to the interval mass exactly.
    """
    if hi <= lo:
        return 0.0
    nodes = mu.graded_nodes(lo, hi, n)
    if extra_nodes is not None:
        nodes = np.concatenate([nodes, np.asarray(extra_nodes, dtype=float)])
    nodes = np.unique(nodes)  # a repeated node would be a zero-width panel
    ks = np.asarray(values_of_theta(nodes), dtype=float)
    last = len(nodes) - 1
    end = last - last % 2  # nodes[0..end] form the panel pairs
    x0, x1, x2 = nodes[0:end:2], nodes[1:end:2], nodes[2:end + 1:2]
    m0, m1, m2 = mu.moments_centered(x0, x2, x1)
    u0, u2 = x0 - x1, x2 - x1
    w0 = (m2 - u2 * m1) / (u0 * (u0 - u2))
    w1 = (m2 - (u0 + u2) * m1 + u0 * u2 * m0) / (u0 * u2)
    w2 = (m2 - u0 * m1) / (u2 * (u2 - u0))
    terms = w0 * ks[0:end:2] + w1 * ks[1:end:2] + w2 * ks[2:end + 1:2]
    total = float(np.sum(terms[m0 != 0.0]))
    if end < last:
        a, b = nodes[end], nodes[last]
        m0, m1, _ = mu.moments_centered(a, b, a)
        if m0 != 0.0:
            w = b - a
            total += ks[end] * (m0 - m1 / w) + ks[last] * (m1 / w)
    return total


def delay_integral(buf: HistoryBuffer, t: float, mu: DelayMeasure,
                   power: float) -> float:
    """int_{-infty}^0 ||u(t+theta)||^power mu(dtheta).

    The simulated part [-t, 0] is integrated by a trapezoid in kernel values
    against exact interval masses on the sample grid; the analytic-tail part
    uses closed forms where available and a graded product quadrature
    otherwise.
    """
    buf._check_time(t)
    power = float(power)

    def check(vals, thetas):
        bad = ~np.isfinite(np.atleast_1d(vals))
        if np.any(bad):
            th = np.atleast_1d(thetas)[bad][0]
            raise DelayEvaluationError(f"kernel not finite at theta = {th}", float(th))
        return vals

    if mu.kind == "point":
        v = float(_powers(state_norm(buf.value_at(t)), power))
        check(np.array([v]), np.array([0.0]))
        return v

    total = 0.0

    # simulated part: theta in [-t, 0]
    if t > 0.0:
        grid_thetas = buf.times[(buf.times <= t + 1e-15)] - t
        nodes = np.concatenate([grid_thetas, [-t, 0.0]])
        nodes = np.unique(nodes[(nodes >= -t - 1e-15) & (nodes <= 1e-15)])
        norms = np.linalg.norm(buf.values_at(nodes + t), axis=1)
        ks = check(_powers(norms, power), nodes)
        masses = np.array([mu.mass(a, b) for a, b in zip(nodes[:-1], nodes[1:])])
        total += float(np.sum(masses * 0.5 * (ks[:-1] + ks[1:])))

    # analytic-tail part: theta in (-infty, -t]
    # closed forms hold on the untruncated tail
    closed = _tail_power_closed_form(buf.tail, mu, power, -math.inf, -t)
    if closed is not None:
        return total + closed

    def K(thetas):
        vals = buf.tail.values_at(np.asarray(thetas) + t)
        return check(_powers(np.linalg.norm(vals, axis=1), power), thetas)

    lo = -buf.horizon - t
    kinks = buf.tail.kink_nodes(lo + t, 0.0)
    total += _product_quadrature(mu, lo, -t, K, extra_nodes=np.asarray(kinks) - t)
    # remainder below the truncation horizon: tail value frozen there
    rem = mu.mass(-math.inf, lo)
    if rem > 0.0:
        total += rem * float(_powers(state_norm(buf.tail.value_at(lo + t)), power))
    return total


def delay_pair_integral(buf_a: HistoryBuffer, buf_b: HistoryBuffer, t: float,
                        mu: DelayMeasure, power: float) -> float:
    """int ||u_a(t+theta) - u_b(t+theta)||^power mu(dtheta).

    Used by the hypothesis checkers; both buffers are evaluated on shared
    quadrature nodes.
    """
    buf_a._check_time(t)
    buf_b._check_time(t)
    if mu.kind == "point":
        return state_norm(buf_a.value_at(t) - buf_b.value_at(t)) ** power

    # exact closed forms for the common checker families
    if (isinstance(buf_a.tail, ConstantTail) and isinstance(buf_b.tail, ConstantTail)
            and len(buf_a.times) == 1 and len(buf_b.times) == 1 and t == 0.0):
        diff = ConstantTail(buf_a.tail.value - buf_b.tail.value)
        merged = HistoryBuffer.from_tail(buf_a.h, diff, horizon=buf_a.horizon)
        return delay_integral(merged, 0.0, mu, power)

    def K(thetas):
        # in place: the audit's largest temporaries are these (nodes, dim) rows
        diff = buf_a.values_at(np.asarray(thetas) + t)
        diff -= buf_b.values_at(np.asarray(thetas) + t)
        return np.linalg.norm(diff, axis=1) ** power

    lo = -max(buf_a.horizon, buf_b.horizon) - t
    # the kinks of both histories, so swapping the buffers keeps every node
    kinks = np.concatenate([
        buf_a.times[buf_a.times <= t + 1e-15] - t,
        buf_b.times[buf_b.times <= t + 1e-15] - t,
        np.atleast_1d(buf_a.tail.kink_nodes(lo + t, 0.0)) - t if t == 0.0 else np.empty(0),
        np.atleast_1d(buf_b.tail.kink_nodes(lo + t, 0.0)) - t if t == 0.0 else np.empty(0),
    ])
    kinks = kinks[(kinks > lo) & (kinks < 0.0)]
    total = _product_quadrature(mu, lo, 0.0, K, extra_nodes=kinks)
    rem = mu.mass(-math.inf, lo)
    if rem > 0.0:
        total += rem * float(K(np.array([lo]))[0])
    return total


def pair_seminorm(buf_a: HistoryBuffer, buf_b: HistoryBuffer, n_dense: int = 2048) -> float:
    """Weighted norm of the difference history sup e^{h theta}||u_a - u_b||.

    Exact for constant/constant tails; dense sampling on a uniform grid
    otherwise (the checkers only need a faithful denominator, not machine
    precision).
    """
    if buf_a.h != buf_b.h:
        raise ValueError("buffers must share the same weight h")
    h = buf_a.h
    ta, tb = buf_a.tail, buf_b.tail
    head = min(buf_a.head_time, buf_b.head_time)

    if isinstance(ta, ConstantTail) and isinstance(tb, ConstantTail):
        tail_sup = state_norm(ta.value - tb.value)
    else:
        horizon = max(buf_a.horizon, buf_b.horizon)
        thetas = -np.linspace(0.0, horizon, n_dense)
        diff = ta.values_at(thetas) - tb.values_at(thetas)
        tail_sup = float(np.max(np.exp(h * thetas) * np.linalg.norm(diff, axis=1)))

    grid_times = np.unique(np.concatenate([
        buf_a.times[buf_a.times <= head + 1e-15],
        buf_b.times[buf_b.times <= head + 1e-15],
    ]))
    grid_sup = 0.0
    if len(grid_times):
        diff = buf_a.values_at(grid_times) - buf_b.values_at(grid_times)
        grid_sup = float(np.max(np.exp(h * (grid_times - head))
                                * np.linalg.norm(diff, axis=1)))
    return max(math.exp(-h * head) * tail_sup, grid_sup)
