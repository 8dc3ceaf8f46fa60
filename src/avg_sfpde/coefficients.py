"""Drift and diffusion functionals with fast oscillation and their averages.

A coefficient set packages f(t, phi) = xi_1(t) * F(phi) and
g(t, phi) = xi_2(t) * G(phi), where F composes a pointwise map of the head
state phi(0), a delay integral of a kernel of the state norm, and an additive
constant.  The averaged set ``averaged()`` replaces the oscillators by their means.

The module also provides sampling-based falsifiers for the structural
hypotheses the simulations rely on: linear growth, local Holder continuity,
the one-sided pairing bounds with their delay measures, and the decay of the
window-averaged oscillation (with the averaging-rate tables Phi_1, Phi_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .delay import (
    ConstantTail,
    DelayMeasure,
    ExponentialTail,
    HistoryBuffer,
    delay_integral,
    delay_pair_integral,
    extract_segment,
    pair_seminorm,
    seminorm_h,
    state_norm,
)
from .spectral import SpectralSpace


# ---------------------------------------------------------------------------
# Oscillators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oscillator:
    """Bounded oscillation profile with a closed-form long-run mean.

    kinds: ``constant`` (offset), ``sinusoid`` (offset + amp*sin(omega t + phase)).
    """

    kind: str
    offset: float = 0.0
    terms: tuple = ()            # (amp, omega, phase) triples

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid"):
            raise ValueError(f"unknown oscillator kind {self.kind!r}")
        if self.kind == "sinusoid" and len(self.terms) != 1:
            raise ValueError("sinusoid takes exactly one (amp, omega, phase) term")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(c: float) -> "Oscillator":
        return Oscillator("constant", offset=c)

    @staticmethod
    def sinusoid(offset: float, amp: float, omega: float, phase: float = 0.0) -> "Oscillator":
        return Oscillator("sinusoid", offset=offset, terms=((amp, omega, phase),))

    # -- evaluation ----------------------------------------------------------
    def scalar_eval(self, t: float) -> float:
        """Fast float evaluation shared by the stepper and the public ops."""
        out = self.offset
        for a, w, p in self.terms:
            out += a * math.sin(w * t + p)
        return out

    def __call__(self, t: float) -> float:
        return self.scalar_eval(float(t))

    def mean(self) -> float:
        """Long-run Cesaro mean; exact for every supported kind."""
        return float(self.offset)

    def integral(self, a: float, b: float) -> float:
        """int_a^b xi(s) ds in closed form."""
        total = self.offset * (b - a)
        for amp, w, p in self.terms:
            total += -amp / w * (math.cos(w * b + p) - math.cos(w * a + p))
        return total

    def square_deviation_integral(self, a: float, b: float) -> float:
        """int_a^b (xi(s) - mean)^2 ds."""
        if self.kind == "constant":
            return 0.0
        amp, w, p = self.terms[0]
        # amp^2 sin^2 = amp^2/2 (1 - cos(2wt+2p))
        return amp * amp / 2.0 * (
            (b - a) - (math.sin(2 * w * b + 2 * p) - math.sin(2 * w * a + 2 * p)) / (2 * w))


# ---------------------------------------------------------------------------
# Pointwise maps (applied to the head state, componentwise on the grid)
# ---------------------------------------------------------------------------

def _sin_sqrt_abs(v):
    return np.sin(np.sqrt(np.abs(v)))


def _cos_sqrt_abs(v):
    return np.cos(np.sqrt(np.abs(v)))


POINTWISE_MAPS = {
    "identity": lambda v: v,
    "sin_sqrt_abs": _sin_sqrt_abs,
    "cos_sqrt_abs": _cos_sqrt_abs,
    "zero": lambda v: np.zeros_like(v),
}

def pow_or_inf(base, exponent: float):
    """base ** exponent elementwise, with overflow mapped to inf (so the
    blow-up guard, not an exception, handles runaway states).

    float_power runs libm's pow, so a row of a batch gets the same bits as
    the Python float expression ``base ** exponent``.
    """
    with np.errstate(over="ignore"):
        return np.float_power(base, exponent)


# ---------------------------------------------------------------------------
# Assumption profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionProfile:
    """Constants and delay measures entering the structural hypotheses.

    The generic constants follow the usual convention that they may differ
    between inequalities; ``overrides`` holds per-check values keyed by
    ``growth_alpha1``, ``growth_M``, ``coercivity_alpha1``, ``coercivity_alpha2``,
    ``coercivity_M``, ``h5_alpha1``, ``h5_alpha2``, falling back to the primary
    fields when absent.
    """

    alpha1: float
    alpha2: float
    M: float
    L_M: float
    beta: float
    gamma: float
    p: float
    mu1: DelayMeasure
    mu2: DelayMeasure
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.gamma <= 1 and 0 < self.beta <= 1):
            raise ValueError("Holder exponents must lie in (0, 1]")
        if self.p < 2:
            raise ValueError("growth exponent p must be >= 2")

    def get(self, name: str, default_field: str) -> float:
        return float(self.overrides.get(name, getattr(self, default_field)))

    def check_measure_membership(self, h: float) -> None:
        """mu1 in P_{(gamma+1)h} and mu2 in P_{2 gamma h}; raises if not."""
        self.mu1.exp_moment((self.gamma + 1.0) * h)
        self.mu2.exp_moment(2.0 * self.gamma * h)


# ---------------------------------------------------------------------------
# Drift / diffusion descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """F(phi) = gain*map(phi(0)) + delay-integral term + constant (+ seminorm term).

    The delay term integrates against an exponential measure.  The seminorm
    term builds deliberately broken coefficient sets: ``broken-quadratic``
    uses it, and its audit and continuity study evaluate and step it.
    """

    pointwise: str | None = None
    pointwise_gain: float = 1.0
    constant: float = 0.0
    delay_kernel_power: float | None = None
    delay_gain: float = 1.0
    delay_measure: DelayMeasure | None = None
    seminorm_power: float = 0.0
    seminorm_gain: float = 0.0


@dataclass(frozen=True)
class DiffusionSpec:
    """G(phi) applied to a noise increment.

    kinds:
      * ``scalar``: g = gain * map(phi(0)) against a single Wiener coordinate
      * ``pointwise_field``: rank-one field map(phi(0)) * gain against a single
        Wiener coordinate
      * ``diagonal``: state-independent diagonal operator with mode-i amplitude
        gain / i**decay on the first k_w modes
    """

    kind: str
    pointwise: str | None = None
    gain: float = 1.0
    decay: float = 1.0

    def __post_init__(self):
        if self.kind not in ("scalar", "pointwise_field", "diagonal"):
            raise ValueError(f"unknown diffusion kind {self.kind!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """One drift/diffusion pair with its oscillators and assumption profile."""

    drift: DriftSpec
    diffusion: DiffusionSpec
    osc1: Oscillator
    osc2: Oscillator
    profile: AssumptionProfile
    space: SpectralSpace | None = None      # None: scalar states (dim 1)

    def __post_init__(self):
        mu = self.drift.delay_measure
        if self.drift.delay_kernel_power is not None and mu is None:
            raise ValueError("drift delay term needs a delay measure")
        if mu is not None and mu.kind != "exponential":
            raise ValueError(f"drift delay measure must be exponential, not {mu.kind!r}")

    @property
    def dim(self) -> int:
        return 1 if self.space is None else self.space.k

    def averaged(self) -> "CoefficientSet":
        """The averaged system f* = xi_1^* F, g* = xi_2^* G: each oscillator
        replaced by the constant of its long-run mean."""
        return replace(self, osc1=Oscillator.constant(self.osc1.mean()),
                       osc2=Oscillator.constant(self.osc2.mean()))

    def noise_dim(self, k_w: int) -> int:
        """Brownian coordinates of the noise: k_w of the k modes under
        diagonal noise, one under the one-coordinate kinds; any other k_w
        is rejected."""
        kind = self.diffusion.kind
        if kind in ("scalar", "pointwise_field"):
            if k_w != 1:
                raise ValueError(f"k_w = {k_w}: {kind} noise has 1 Brownian coordinate")
            return 1
        if not 1 <= k_w <= self.dim:
            raise ValueError(f"k_w = {k_w}: diagonal noise needs 1 <= k_w <= k = {self.dim}")
        return k_w

    # -- functional composition (single source of truth) ---------------------
    def compose_drift(self, head_values: np.ndarray, delay_value,
                      seminorm_value=0.0) -> np.ndarray:
        """F(phi) in state coordinates, given grid values of phi(0) (fields)
        or the scalar state (dim 1), the delay-term value, and optionally the
        history seminorm for the broken-preset term.

        Leading axes of ``head_values`` are rows (paths): (P, m) grid values
        give (P, k) coefficients, and the delay and seminorm values are then
        scalars or (P,) vectors.
        """
        d = self.drift
        extra = d.constant + d.delay_gain * delay_value
        if d.seminorm_power:
            extra = extra + d.seminorm_gain * pow_or_inf(seminorm_value, d.seminorm_power)
        extra = np.asarray(extra)[..., None]
        if d.pointwise is None:
            grid = np.full(np.shape(head_values), extra)
        else:
            grid = extra + d.pointwise_gain * POINTWISE_MAPS[d.pointwise](head_values)
        return grid if self.space is None else self.space.to_coeffs(grid)

    def _delay_value(self, buf: HistoryBuffer, t: float) -> float:
        d = self.drift
        if d.delay_kernel_power is None:
            return 0.0
        return delay_integral(buf, t, d.delay_measure, d.delay_kernel_power)

    def _head_values(self, buf: HistoryBuffer, t: float) -> np.ndarray:
        head = buf.value_at(t)
        if self.space is None:
            return head
        return self.space.to_values(head)

    def drift_functional(self, buf: HistoryBuffer) -> np.ndarray:
        """F evaluated on the buffer's segment at its head."""
        t = buf.head_time
        semi = seminorm_h(buf, t) if self.drift.seminorm_power else 0.0
        return self.compose_drift(self._head_values(buf, t), self._delay_value(buf, t), semi)

    # -- diffusion -------------------------------------------------------------
    def diffusion_amplitude(self, buf: HistoryBuffer) -> np.ndarray:
        """G(phi) as an array: shape (1,) scalar amplitude, (k,) rank-one field
        coefficients, or (k_w,) diagonal amplitudes."""
        kind = self.diffusion.kind
        head = None if kind == "diagonal" else buf.value_at(buf.head_time)
        values = self.space.to_values(head) if kind == "pointwise_field" else None
        return self.diffusion_from_values(head, values)

    def diffusion_from_values(self, head: np.ndarray, values: np.ndarray | None) -> np.ndarray:
        """G(phi) amplitudes from the head state and, for the rank-one field
        kind, its grid values.  Leading axes are rows (paths); the diagonal
        amplitudes are state independent and shared by every row."""
        g = self.diffusion
        if g.kind == "diagonal":
            modes = np.arange(1, self.dim + 1, dtype=float)
            return g.gain / modes**g.decay
        if g.kind == "scalar":
            if g.pointwise is None:
                return np.full(np.shape(head), g.gain)
            return g.gain * POINTWISE_MAPS[g.pointwise](head)
        mapped = POINTWISE_MAPS[g.pointwise](values) if g.pointwise is not None \
            else np.ones_like(values)
        return g.gain * self.space.to_coeffs(mapped)

    def apply_noise(self, amplitude: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """G(phi) dW in state coordinates; leading axes of dW are rows."""
        if self.diffusion.kind == "diagonal":
            n = dW.shape[-1]
            out = np.zeros(dW.shape[:-1] + (self.dim,))
            out[..., :n] = amplitude[..., :n] * dW
            return out
        return amplitude * dW[..., :1]


# ---------------------------------------------------------------------------
# Spec operations: oscillating coefficients
# ---------------------------------------------------------------------------

def eval_drift(cs: CoefficientSet, t: float, eps, buf: HistoryBuffer) -> np.ndarray:
    """xi_1(t/eps) * F(phi)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return cs.osc1(t / eps) * cs.drift_functional(buf)


def eval_diffusion_amplitude(cs: CoefficientSet, t: float, eps, buf: HistoryBuffer) -> np.ndarray:
    """xi_2(t/eps) * G(phi) amplitudes."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return cs.osc2(t / eps) * cs.diffusion_amplitude(buf)


# ---------------------------------------------------------------------------
# Averaging-rate estimation (the window-decay tables)
# ---------------------------------------------------------------------------

@dataclass
class AveragingRate:
    windows: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    raw_phi1: np.ndarray
    raw_phi2: np.ndarray

    def decreasing(self) -> bool:
        return bool(np.all(np.diff(self.phi1) <= 1e-15)
                    and np.all(np.diff(self.phi2) <= 1e-15))


def _upper_envelope(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def estimate_rate(cs: CoefficientSet, probe_histories, windows,
                  n_starts: int = 64) -> AveragingRate:
    """Tabulated window-decay bounds Phi_1 (drift) and Phi_2 (diffusion).

    Phi_1(r) maximizes |(1/r) int_t^{t+r} (xi_1 - xi_1*) ds| * ||F(phi)|| over
    probe histories and start times, normalized by (||phi||_h + M); Phi_2 does
    the same with the squared diffusion deviation and (||phi||_h^2 + M).
    Non-monotone tables are upper-enveloped.
    """
    probes = list(probe_histories)
    if len(probes) < 3:
        raise ValueError("estimate_rate needs >= 3 probe histories spanning seminorms")
    windows = np.asarray(list(windows), dtype=float)
    if np.any(np.diff(windows) <= 0):
        raise ValueError("windows must be increasing")
    M = cs.profile.M

    m1 = cs.osc1.mean()
    m2 = cs.osc2.mean()
    drift_ratio = 0.0
    diff_ratio = 0.0
    for buf in probes:
        s = seminorm_h(buf, buf.head_time)
        fnorm = state_norm(cs.drift_functional(buf))
        gnorm = state_norm(cs.diffusion_amplitude(buf))
        drift_ratio = max(drift_ratio, fnorm / (s + M))
        diff_ratio = max(diff_ratio, gnorm * gnorm / (s * s + M))

    starts = np.linspace(0.0, 2.0 * math.pi, n_starts, endpoint=False)
    raw1, raw2 = [], []
    for r in windows:
        dev1 = max(abs(cs.osc1.integral(t0, t0 + r) - m1 * r) / r for t0 in starts)
        dev2 = max(cs.osc2.square_deviation_integral(t0, t0 + r) / r for t0 in starts)
        # the diffusion deviation also carries the (xi_2* - best constant)^2
        # residual implicitly through square_deviation_integral about the mean
        raw1.append(dev1 * drift_ratio)
        raw2.append(dev2 * diff_ratio)
    raw1 = np.asarray(raw1)
    raw2 = np.asarray(raw2)
    return AveragingRate(windows=windows, phi1=_upper_envelope(raw1),
                         phi2=_upper_envelope(raw2), raw_phi1=raw1, raw_phi2=raw2)


# ---------------------------------------------------------------------------
# History samplers for the falsifiers
# ---------------------------------------------------------------------------

def sample_history(rng: np.random.Generator, dim: int, h: float, radius: float,
                   kind: str | None = None) -> HistoryBuffer:
    """One random admissible history with seminorm <= radius.

    Families: constant tails, single-exponential tails, and short simulated
    random-walk paths attached to a constant tail.  Path-family histories are
    returned as segments at their heads, so every sampled history is an
    element of the same function space on (-infty, 0] and pairs align.
    """
    kind = kind or rng.choice(["constant", "exponential", "path"])
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    if norm > 0:
        direction = direction / norm
    scale = radius * rng.uniform(0.1, 1.0)
    if kind == "constant":
        return HistoryBuffer.from_tail(h, ConstantTail(scale * direction))
    if kind == "exponential":
        rate = rng.uniform(-h, 2.0 * h)
        return HistoryBuffer.from_tail(h, ExponentialTail(scale * direction, rate=rate))
    # random walk of 3..11 steps of 0.05; the sequential cumsums add in the
    # same order as stepping t += 0.05, x = x + increment one sample at a time
    x0 = scale * direction
    n = rng.integers(3, 12)
    increments = 0.1 * scale * rng.standard_normal((n, dim))
    times = np.cumsum(np.concatenate([[0.0], np.full(n, 0.05)]))
    samples = np.cumsum(np.vstack([x0, increments]), axis=0)
    buf = HistoryBuffer(h, ConstantTail(x0), times, samples)
    s = seminorm_h(buf, buf.head_time)
    if s > radius:
        shrink = radius / s
        buf = HistoryBuffer(h, ConstantTail(shrink * scale * direction),
                            buf.times, buf.samples * shrink, buf.horizon)
    return extract_segment(buf, buf.head_time)


# ---------------------------------------------------------------------------
# Falsifiers
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    passed: bool
    max_ratio: float
    bound: float
    witness: tuple | None
    detail: str = ""


def check_holder(cs: CoefficientSet, radius: float, trials: int,
                 rng_seed: int) -> CheckReport:
    """Max of ||f(t,phi)-f(t,psi)|| / ||phi-psi||_h^gamma over sampled pairs
    with seminorms <= radius; PASS iff it stays below the profile's L_M."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    gamma = cs.profile.gamma
    worst = 0.0
    witness = None
    for _ in range(trials):
        a = sample_history(rng, cs.dim, _profile_h(cs), radius)
        b = sample_history(rng, cs.dim, _profile_h(cs), radius)
        t = float(rng.uniform(0.0, 20.0))
        dist = pair_seminorm(a, b)
        if dist < 1e-12:
            continue
        fa, fb = eval_drift(cs, t, 1.0, a), eval_drift(cs, t, 1.0, b)
        ratio = state_norm(fa - fb) / dist**gamma
        if ratio > worst:
            worst = ratio
            witness = (a, b, t)
    return CheckReport("holder", worst <= cs.profile.L_M, worst,
                       cs.profile.L_M, witness)


def check_holder_averaged(cs: CoefficientSet, radius: float, trials: int,
                          rng_seed: int) -> CheckReport:
    """check_holder on the averaged drift f* = xi_1^* F, on the same samples."""
    return replace(check_holder(cs.averaged(), radius, trials, rng_seed),
                   name="holder_averaged")


def check_h5(cs: CoefficientSet, trials: int, rng_seed: int,
             radius: float = 3.0) -> tuple[CheckReport, CheckReport]:
    """Sampling check of the two one-sided delay bounds.

    Drift: <f(phi)-f(psi), phi(0)-psi(0)> <= alpha2 [ ||d0||^{g+1}
           + int ||phi-psi||^{g+1} mu1 ]; diffusion: ||g(phi)-g(psi)||^2
           <= alpha1 int ||phi-psi||^{2g} mu2.
    """
    rng = np.random.default_rng(rng_seed)
    gamma = cs.profile.gamma
    a2 = cs.profile.get("h5_alpha2", "alpha2")
    a1 = cs.profile.get("h5_alpha1", "alpha1")
    worst_f, wit_f = -math.inf, None
    worst_g, wit_g = -math.inf, None
    for _ in range(trials):
        pa = sample_history(rng, cs.dim, _profile_h(cs), radius)
        pb = sample_history(rng, cs.dim, _profile_h(cs), radius)
        t = float(rng.uniform(0.0, 20.0))
        d0 = state_norm(pa.value_at(pa.head_time) - pb.value_at(pb.head_time))
        fa, fb = eval_drift(cs, t, 1.0, pa), eval_drift(cs, t, 1.0, pb)
        lhs_f = float(np.dot(fa - fb, pa.value_at(pa.head_time) - pb.value_at(pb.head_time)))
        mu1_term = delay_pair_integral(pa, pb, min(pa.head_time, pb.head_time),
                                       cs.profile.mu1, gamma + 1.0)
        rhs_f = d0 ** (gamma + 1.0) + mu1_term
        gap_f = lhs_f - a2 * rhs_f
        if gap_f > worst_f:
            worst_f, wit_f = gap_f, (pa, pb, t)

        ga = eval_diffusion_amplitude(cs, t, 1.0, pa)
        gb = eval_diffusion_amplitude(cs, t, 1.0, pb)
        lhs_g = state_norm(ga - gb) ** 2
        mu2_term = delay_pair_integral(pa, pb, min(pa.head_time, pb.head_time),
                                       cs.profile.mu2, 2.0 * gamma)
        gap_g = lhs_g - a1 * mu2_term
        if gap_g > worst_g:
            worst_g, wit_g = gap_g, (pa, pb, t)
    tol = 1e-9
    rep_f = CheckReport("h5_drift", worst_f <= tol, worst_f, 0.0, wit_f,
                        detail=f"alpha2 = {a2}")
    rep_g = CheckReport("h5_diffusion", worst_g <= tol, worst_g, 0.0, wit_g,
                        detail=f"alpha1 = {a1}")
    return rep_f, rep_g


def check_growth(cs: CoefficientSet, trials: int, rng_seed: int,
                 radius: float = 10.0) -> CheckReport:
    """Linear growth ||f|| v ||g|| <= alpha1 ||phi||_h + M on sampled histories."""
    rng = np.random.default_rng(rng_seed)
    a1 = cs.profile.get("growth_alpha1", "alpha1")
    M = cs.profile.get("growth_M", "M")
    worst, witness = -math.inf, None
    for _ in range(trials):
        buf = sample_history(rng, cs.dim, _profile_h(cs), radius)
        t = float(rng.uniform(0.0, 20.0))
        s = seminorm_h(buf, buf.head_time)
        fn = state_norm(eval_drift(cs, t, 1.0, buf))
        gn = state_norm(eval_diffusion_amplitude(cs, t, 1.0, buf))
        gap = max(fn, gn) - (a1 * s + M)
        if gap > worst:
            worst, witness = gap, (buf, t)
    return CheckReport("growth", worst <= 1e-9, worst, 0.0, witness,
                       detail=f"alpha1 = {a1}, M = {M}")


def _profile_h(cs: CoefficientSet) -> float:
    """Weight h used by the samplers: the drift's delay measure pins it to its rate."""
    mu = cs.drift.delay_measure
    return 1.0 if mu is None else mu.rate
