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
from scipy import integrate


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

    def values_at(self, thetas: np.ndarray) -> np.ndarray:
        return np.stack([self.value_at(float(t)) for t in np.asarray(thetas)])

    def weighted_sup(self, h: float) -> float:
        """sup_{theta <= 0} e^{h theta} ||phi(theta)||."""
        raise NotImplementedError

    def weighted_limit(self, h: float) -> np.ndarray:
        """lim_{theta -> -infty} e^{h theta} phi(theta)."""
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
        return np.broadcast_to(self.value, (len(thetas), self.dim)).copy()

    def weighted_sup(self, h):
        return state_norm(self.value)

    def weighted_limit(self, h):
        return np.zeros_like(self.value)

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

    def weighted_limit(self, h):
        if self.rate == -h:
            return self.amplitude.copy()
        return np.zeros_like(self.amplitude)

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
            for d in range(self.dim):
                out[inside, d] = np.interp(thetas[inside], self.thetas, self.values[:, d])
        if np.any(~inside):
            decay = np.exp(self.extrap_rate * (thetas[~inside] - self.thetas[0]))
            out[~inside] = decay[:, None] * self.values[0]
        return out

    def weighted_sup(self, h):
        node_sup = float(np.max(np.exp(h * self.thetas) * np.linalg.norm(self.values, axis=1)))
        # Extrapolated part: e^{(h+b)(theta-theta_0)} <= 1 below theta_0, so the
        # node at theta_0 dominates it.
        return node_sup

    def weighted_limit(self, h):
        if self.extrap_rate == -h:
            return self.values[0] * math.exp(h * self.thetas[0])
        return np.zeros(self.dim)

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
        out = np.empty(self.dim)
        for d in range(self.dim):
            out[d] = np.interp(s, self.times, self.samples[:, d])
        return out

    def values_at(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        s = self.t0 + thetas
        out = np.empty((len(thetas), self.dim))
        pre = s <= 0.0
        if np.any(pre):
            out[pre] = self.parent_tail.values_at(s[pre])
        if np.any(~pre):
            for d in range(self.dim):
                out[~pre, d] = np.interp(s[~pre], self.times, self.samples[:, d])
        return out

    def weighted_sup(self, h):
        grid = float(np.max(np.exp(h * (self.times - self.t0))
                            * np.linalg.norm(self.samples, axis=1))) if len(self.times) else 0.0
        return max(math.exp(-h * self.t0) * self.parent_tail.weighted_sup(h), grid)

    def weighted_limit(self, h):
        return math.exp(-h * self.t0) * self.parent_tail.weighted_limit(h)

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
      * ``exponential``: density 2*rate*exp(2*rate*theta) d theta, rate > 0
      * ``point``: unit mass at theta = 0
      * ``tabulated``: piecewise-linear density on a finite grid [-tau, 0],
        normalized to total mass 1 at construction
    """

    kind: str
    rate: float = 0.0
    grid: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "exponential":
            if self.rate <= 0:
                raise ValueError("exponential measure needs rate > 0")
        elif self.kind == "point":
            pass
        elif self.kind == "tabulated":
            g = np.asarray(self.grid, dtype=float)
            d = np.asarray(self.density, dtype=float)
            if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0) or g[-1] != 0.0:
                raise ValueError("tabulated measure grid must increase and end at 0")
            if np.any(d < 0):
                raise ValueError("tabulated density must be nonnegative")
            total = np.trapezoid(d, g)
            if total <= 0:
                raise ValueError("tabulated density has zero mass")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "density", d / total)
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def exponential(rate: float) -> "DelayMeasure":
        return DelayMeasure("exponential", rate=rate)

    @staticmethod
    def point_mass() -> "DelayMeasure":
        return DelayMeasure("point")

    @staticmethod
    def tabulated(grid, density) -> "DelayMeasure":
        return DelayMeasure("tabulated", grid=np.asarray(grid, float),
                            density=np.asarray(density, float))

    # -- basic quantities ---------------------------------------------------
    @property
    def support_lo(self) -> float:
        if self.kind == "tabulated":
            return float(self.grid[0])
        if self.kind == "point":
            return 0.0
        return -math.inf

    def exp_moment(self, k: float) -> float:
        """mu^{(k)} = int exp(-k*theta) mu(d theta); raises if infinite."""
        if k < 0:
            raise ValueError("moment order k must be nonnegative")
        if self.kind == "point":
            return 1.0
        if self.kind == "exponential":
            if k >= 2.0 * self.rate:
                raise MomentDivergenceError(
                    f"exp_moment({k}) diverges: exponential({self.rate}) lies in "
                    f"P_k only for k < {2.0 * self.rate}"
                )
            return 2.0 * self.rate / (2.0 * self.rate - k)
        # tabulated: composite quadrature on a refinement of the grid
        total = 0.0
        for a, b, da, db in zip(self.grid[:-1], self.grid[1:],
                                self.density[:-1], self.density[1:]):
            xs = np.linspace(a, b, 65)
            dens = np.interp(xs, [a, b], [da, db])
            total += integrate.simpson(np.exp(-k * xs) * dens, x=xs)
        return float(total)

    def mass(self, a: float, b: float) -> float:
        """Measure of the interval (a, b], exact for the supported kinds."""
        if b <= a:
            return 0.0
        if self.kind == "point":
            return 1.0 if a < 0.0 <= b else 0.0
        if self.kind == "exponential":
            hi = math.exp(2.0 * self.rate * min(b, 0.0))
            lo = 0.0 if a == -math.inf else math.exp(2.0 * self.rate * a)
            return hi - lo
        return self.moments_centered(a, b, 0.0)[0]

    def moments_centered(self, a: float, b: float, c: float):
        """Exact (m0, m1, m2) of (theta - c)^k over (a, b], stable for c near a.

        m0 is the interval mass; m1, m2 are the first and second moments in
        the shifted coordinate u = theta - c.
        """
        if b <= a:
            return 0.0, 0.0, 0.0
        if self.kind == "point":
            inside = a < 0.0 <= b
            if not inside:
                return 0.0, 0.0, 0.0
            return 1.0, -c, c * c
        if self.kind == "exponential":
            r2 = 2.0 * self.rate
            scale = math.exp(r2 * c)
            ub = min(b, 0.0) - c
            ua = -math.inf if a == -math.inf else a - c

            def anti0(u):
                return math.exp(r2 * u)

            def anti1(u):
                return math.exp(r2 * u) * (u - 1.0 / r2)

            def anti2(u):
                return math.exp(r2 * u) * (u * u - 2.0 * u / r2 + 2.0 / (r2 * r2))

            if ua == -math.inf:
                lo0 = lo1 = lo2 = 0.0
            else:
                lo0, lo1, lo2 = anti0(ua), anti1(ua), anti2(ua)
            return (scale * (anti0(ub) - lo0),
                    scale * (anti1(ub) - lo1),
                    scale * (anti2(ub) - lo2))
        # tabulated: piecewise-linear density, exact polynomial integrals
        a = max(a, self.grid[0])
        b = min(b, 0.0)
        if b <= a:
            return 0.0, 0.0, 0.0
        m0 = m1 = m2 = 0.0
        for ga, gb, da, db in zip(self.grid[:-1], self.grid[1:],
                                  self.density[:-1], self.density[1:]):
            lo, hi = max(a, ga), min(b, gb)
            if hi <= lo:
                continue
            slope = (db - da) / (gb - ga)
            # density in shifted coordinate u = theta - c: alpha_c + slope*u
            alpha_c = da + slope * (c - ga)
            ulo, uhi = lo - c, hi - c

            def poly(k, u):
                return u ** (k + 1) / (k + 1)

            m0 += alpha_c * (poly(0, uhi) - poly(0, ulo)) + slope * (poly(1, uhi) - poly(1, ulo))
            m1 += alpha_c * (poly(1, uhi) - poly(1, ulo)) + slope * (poly(2, uhi) - poly(2, ulo))
            m2 += alpha_c * (poly(2, uhi) - poly(2, ulo)) + slope * (poly(3, uhi) - poly(3, ulo))
        return m0, m1, m2

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
        lo = max(a, self.support_lo)
        return np.linspace(lo, min(b, 0.0), n + 1)


def exp_moment(mu: DelayMeasure, k: float) -> float:
    """Exponential moment mu^{(k)}; module-level convenience wrapper."""
    return mu.exp_moment(k)


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
        out = np.empty(self.dim)
        for d in range(self.dim):
            out[d] = np.interp(s, self.times, self.samples[:, d])
        return out

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
            for d in range(self.dim):
                out[post, d] = np.interp(ss[post], self.times, self.samples[:, d])
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

def seminorm_h(buf: HistoryBuffer, t: float, weight: float | None = None) -> float:
    """Weighted history norm sup_{theta<=0} e^{weight*theta} ||u(t+theta)||.

    ``weight`` defaults to the buffer's own h; smaller weights are admissible
    whenever the tail is (used by the monotonicity property of the norm).
    """
    buf._check_time(t)
    h = buf.h if weight is None else weight
    if weight is not None:
        buf.tail.check_admissible(h)
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


def _kernel_func(kernel):
    if isinstance(kernel, (int, float)):
        p = float(kernel)
        if p == 0.0:
            return lambda r: np.ones_like(np.asarray(r, dtype=float)), p

        def power(r):
            with np.errstate(divide="ignore"):
                return np.asarray(r, dtype=float) ** p

        return power, p
    return kernel, None


def _tail_power_closed_form(tail, mu, p, lo, hi):
    """Closed form of int_{lo}^{hi} ||tail(theta)||^p mu(dtheta) when available."""
    if mu.kind != "exponential":
        return None
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
    final odd panel, if any, falls back to linear.  A constant kernel
    integrates to the interval mass exactly.
    """
    if hi <= lo:
        return 0.0
    nodes = mu.graded_nodes(lo, hi, n)
    if extra_nodes is not None and len(extra_nodes):
        nodes = np.unique(np.concatenate([nodes, np.asarray(extra_nodes, dtype=float)]))
    ks = np.asarray(values_of_theta(nodes), dtype=float)
    total = 0.0
    i = 0
    last = len(nodes) - 1
    while i < last:
        if i + 2 <= last:
            x0, x1, x2 = nodes[i], nodes[i + 1], nodes[i + 2]
            m0, m1, m2 = mu.moments_centered(x0, x2, x1)
            if m0 != 0.0:
                u0, u2 = x0 - x1, x2 - x1
                w0 = (m2 - u2 * m1) / (u0 * (u0 - u2))
                w1 = (m2 - (u0 + u2) * m1 + u0 * u2 * m0) / (u0 * u2)
                w2 = (m2 - u0 * m1) / (u2 * (u2 - u0))
                total += w0 * ks[i] + w1 * ks[i + 1] + w2 * ks[i + 2]
            i += 2
        else:
            a, b = nodes[i], nodes[i + 1]
            m0, m1, _ = mu.moments_centered(a, b, a)
            if m0 != 0.0:
                w = b - a
                total += ks[i] * (m0 - m1 / w) + ks[i + 1] * (m1 / w)
            i += 1
    return total


def delay_integral(buf: HistoryBuffer, t: float, mu: DelayMeasure, kernel) -> float:
    """int_{-infty}^0 kernel(||u(t+theta)||) mu(dtheta).

    ``kernel`` is either a power p (float; kernel(r) = r**p) or a callable on
    nonnegative reals.  The simulated part [-t, 0] is integrated by a
    trapezoid in kernel values against exact interval masses on the sample
    grid; the analytic-tail part uses closed forms where available and a
    graded product quadrature otherwise.
    """
    buf._check_time(t)
    kfun, power = _kernel_func(kernel)

    def check(vals, thetas):
        bad = ~np.isfinite(np.atleast_1d(vals))
        if np.any(bad):
            th = np.atleast_1d(thetas)[bad][0]
            raise DelayEvaluationError(f"kernel not finite at theta = {th}", float(th))
        return vals

    if mu.kind == "point":
        v = float(kfun(np.array([state_norm(buf.value_at(t))]))[0])
        check(np.array([v]), np.array([0.0]))
        return v

    total = 0.0
    support_lo = mu.support_lo

    # simulated part: theta in [max(-t, support_lo), 0]
    sim_lo = max(-t, support_lo)
    if sim_lo < 0.0:
        grid_thetas = buf.times[(buf.times <= t + 1e-15)] - t
        nodes = np.concatenate([grid_thetas, [sim_lo, 0.0]])
        if mu.kind == "tabulated":
            nodes = np.concatenate([nodes, mu.grid])
        nodes = np.unique(nodes[(nodes >= sim_lo - 1e-15) & (nodes <= 1e-15)])
        norms = np.linalg.norm(buf.values_at(nodes + t), axis=1)
        ks = check(np.asarray(kfun(norms), dtype=float), nodes)
        masses = np.array([mu.mass(a, b) for a, b in zip(nodes[:-1], nodes[1:])])
        total += float(np.sum(masses * 0.5 * (ks[:-1] + ks[1:])))

    # analytic-tail part: theta in (-infty, -t] intersect support
    if support_lo < -t:
        tail_hi = -t
        tail_lo = max(support_lo, -buf.horizon - t)
        shifted_lo = tail_lo + t  # in tail coordinates (<= 0)
        shifted_hi = 0.0
        closed = None
        if power is not None:
            # closed forms hold on the untruncated tail
            closed = _tail_power_closed_form(buf.tail, mu, power, support_lo, tail_hi)
        if closed is not None:
            total += closed
        else:
            def K(thetas):
                vals = buf.tail.values_at(np.asarray(thetas) + t)
                return check(np.asarray(kfun(np.linalg.norm(vals, axis=1)), dtype=float),
                             thetas)

            lo_fin = tail_lo if tail_lo != -math.inf else -buf.horizon - t
            kinks = buf.tail.kink_nodes(lo_fin + t, tail_hi + t)
            total += _product_quadrature(mu, lo_fin, tail_hi, K,
                                         extra_nodes=np.asarray(kinks) - t)
            # remainder below the truncation horizon: tail value frozen there
            rem = mu.mass(-math.inf, lo_fin) if support_lo == -math.inf else 0.0
            if rem > 0.0:
                total += rem * float(kfun(np.array([
                    state_norm(buf.tail.value_at(lo_fin + t))]))[0])
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
        va = buf_a.values_at(np.asarray(thetas) + t)
        vb = buf_b.values_at(np.asarray(thetas) + t)
        return np.linalg.norm(va - vb, axis=1) ** power

    lo = max(mu.support_lo, -max(buf_a.horizon, buf_b.horizon) - t)
    kinks = np.concatenate([
        buf_a.times[buf_a.times <= t + 1e-15] - t,
        buf_b.times[buf_b.times <= t + 1e-15] - t,
        np.atleast_1d(buf_a.tail.kink_nodes(lo + t, 0.0)) - t if t == 0.0 else np.empty(0),
    ])
    kinks = kinks[(kinks > lo) & (kinks < 0.0)]
    total = _product_quadrature(mu, lo, 0.0, K, extra_nodes=kinks)
    rem = mu.mass(-math.inf, lo) if mu.support_lo == -math.inf else 0.0
    if rem > 0.0:
        total += rem * float(K(np.array([lo]))[0])
    return total


def pair_seminorm(buf_a: HistoryBuffer, buf_b: HistoryBuffer, n_dense: int = 2048) -> float:
    """Weighted norm of the difference history sup e^{h theta}||u_a - u_b||.

    Exact for constant/constant and matching-rate exponential tails; dense
    sampling on a graded grid otherwise (the checkers only need a faithful
    denominator, not machine precision).
    """
    if buf_a.h != buf_b.h:
        raise ValueError("buffers must share the same weight h")
    h = buf_a.h
    ta, tb = buf_a.tail, buf_b.tail
    head = min(buf_a.head_time, buf_b.head_time)

    tail_sup = None
    if isinstance(ta, ConstantTail) and isinstance(tb, ConstantTail):
        tail_sup = state_norm(ta.value - tb.value)
    elif (isinstance(ta, ExponentialTail) and isinstance(tb, ExponentialTail)
          and ta.rate == tb.rate):
        tail_sup = state_norm(ta.amplitude - tb.amplitude)
    if tail_sup is None:
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
