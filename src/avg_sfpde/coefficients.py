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

    def values(self, t: np.ndarray) -> np.ndarray:
        """``scalar_eval`` at each entry of a 1-D array t, with its bits."""
        out = np.full(t.shape, self.offset)
        for a, w, p in self.terms:
            out += a * libm_loop(np.sin, w * t + p)
        return out

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
}


def libm_loop(ufunc, v: np.ndarray) -> np.ndarray:
    """ufunc(v) for a 1-D float array, with the bits of the C library's
    function (``math.log``, ``math.sin``, ...) at every entry.

    numpy's SIMD loops for log and sin may round differently from the C
    library.  An output that overlaps its input one slot behind keeps numpy on
    its one-element-at-a-time loop, which calls the C library; the tests pin
    that this gives the C library's bits.
    """
    b = np.empty(v.size + 1)
    b[1:] = v
    return ufunc(b[1:], out=b[:-1])


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

# the per-check constants that the hypothesis checks read, each with the
# primary field it falls back to
OVERRIDE_KEYS = {"growth_alpha1": "alpha1", "growth_M": "M",
                 "growthA_alpha1": "alpha1", "growthA_M": "M",
                 "coercivity_alpha1": "alpha1", "coercivity_alpha2": "alpha2",
                 "coercivity_M": "M", "h5_alpha1": "alpha1", "h5_alpha2": "alpha2"}


@dataclass(frozen=True)
class AssumptionProfile:
    """Constants and delay measures entering the structural hypotheses.

    The generic constants follow the usual convention that they may differ
    between inequalities; ``overrides`` holds per-check values keyed by
    ``growth_alpha1``, ``growth_M``, ``growthA_alpha1``, ``growthA_M``,
    ``coercivity_alpha1``, ``coercivity_alpha2``, ``coercivity_M``,
    ``h5_alpha1``, ``h5_alpha2`` (``OVERRIDE_KEYS``), each falling back to its
    primary field when absent.  Any other key is rejected.
    """

    alpha1: float
    alpha2: float
    M: float
    L_M: float
    beta: float
    gamma: float
    mu1: DelayMeasure
    mu2: DelayMeasure
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.gamma <= 1 and 0 < self.beta <= 1):
            raise ValueError("Holder exponents must lie in (0, 1]")
        for key in self.overrides:
            if key not in OVERRIDE_KEYS:
                raise ValueError(f"profile override {key!r}: no check reads it; "
                                 f"the keys are {', '.join(OVERRIDE_KEYS)}")

    def get(self, name: str) -> float:
        """Per-check constant ``name``: its override, else its primary field; a
        key no check reads is a KeyError naming it."""
        return float(self.overrides.get(name, getattr(self, OVERRIDE_KEYS[name])))

    def check_measure_membership(self, h: float) -> None:
        """mu1 in P_{(gamma+1)h} and mu2 in P_{2 gamma h}; raises if not."""
        self.mu1.exp_moment((self.gamma + 1.0) * h)
        self.mu2.exp_moment(2.0 * self.gamma * h)


# ---------------------------------------------------------------------------
# Drift / diffusion descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """F(phi) = map(phi(0)) + delay-integral term + constant (+ seminorm term).

    The delay term integrates against an exponential measure.  The seminorm
    term builds deliberately broken coefficient sets: ``broken-quadratic``
    uses it, and its audit and continuity study evaluate and step it.
    """

    pointwise: str | None = None
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
        Wiener coordinate; it needs a map
      * ``diagonal``: state-independent diagonal operator with mode-i amplitude
        gain / i on the first k_w modes
    """

    kind: str
    pointwise: str | None = None
    gain: float = 1.0

    def __post_init__(self):
        if self.kind not in ("scalar", "pointwise_field", "diagonal"):
            raise ValueError(f"unknown diffusion kind {self.kind!r}")
        if self.kind == "pointwise_field" and self.pointwise is None:
            raise ValueError("diffusion kind 'pointwise_field' needs a pointwise map")


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
            grid = extra + POINTWISE_MAPS[d.pointwise](head_values)
        return grid if self.space is None else self.space.to_coeffs(grid)

    def drift_functional(self, buf: HistoryBuffer) -> np.ndarray:
        """F evaluated on the buffer's segment at its head."""
        d, head = self.drift, buf.head
        values = head if self.space is None else self.space.to_values(head)
        delay = 0.0 if d.delay_kernel_power is None else \
            delay_integral(buf, d.delay_measure, d.delay_kernel_power)
        semi = seminorm_h(buf) if d.seminorm_power else 0.0
        return self.compose_drift(values, delay, semi)

    # -- diffusion -------------------------------------------------------------
    def diffusion_amplitude(self, buf: HistoryBuffer) -> np.ndarray:
        """G(phi) as an array: shape (1,) scalar amplitude, (k,) rank-one field
        coefficients, or (k_w,) diagonal amplitudes."""
        kind = self.diffusion.kind
        head = None if kind == "diagonal" else buf.head
        values = self.space.to_values(head) if kind == "pointwise_field" else None
        return self.diffusion_from_values(head, values)

    def diffusion_from_values(self, head: np.ndarray, values: np.ndarray | None) -> np.ndarray:
        """G(phi) amplitudes from the head state and, for the rank-one field
        kind, its grid values.  Leading axes are rows (paths); the diagonal
        amplitudes are state independent and shared by every row."""
        g = self.diffusion
        if g.kind == "diagonal":
            modes = np.arange(1, self.dim + 1, dtype=float)
            return g.gain / modes
        if g.kind == "scalar":
            if g.pointwise is None:
                return np.full(np.shape(head), g.gain)
            return g.gain * POINTWISE_MAPS[g.pointwise](head)
        return g.gain * self.space.to_coeffs(POINTWISE_MAPS[g.pointwise](values))

    def apply_noise(self, amplitude: np.ndarray, dW: np.ndarray) -> np.ndarray:
        """G(phi) dW in state coordinates.  Leading axes of the amplitude and
        of dW are rows, broadcast against each other: the output has the rows
        of both."""
        if self.diffusion.kind == "diagonal":
            n = dW.shape[-1]
            rows = np.broadcast_shapes(np.shape(amplitude)[:-1], dW.shape[:-1])
            out = np.zeros(rows + (self.dim,))
            out[..., :n] = amplitude[..., :n] * dW
            return out
        return amplitude * dW[..., :1]


# ---------------------------------------------------------------------------
# Spec operations: oscillating coefficients
# ---------------------------------------------------------------------------

def eval_drift(cs: CoefficientSet, t: float, buf: HistoryBuffer) -> np.ndarray:
    """xi_1(t) * F(phi), t on the oscillator's clock (t / eps for a path at eps)."""
    return cs.osc1(t) * cs.drift_functional(buf)


def eval_diffusion_amplitude(cs: CoefficientSet, t: float, buf: HistoryBuffer) -> np.ndarray:
    """xi_2(t) * G(phi) amplitudes, t on the oscillator's clock."""
    return cs.osc2(t) * cs.diffusion_amplitude(buf)


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


def _upper_envelope(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def estimate_rate(cs: CoefficientSet, probe_histories, windows) -> AveragingRate:
    """Tabulated window-decay bounds Phi_1 (drift) and Phi_2 (diffusion).

    Phi_1(r) maximizes |(1/r) int_t^{t+r} (xi_1 - xi_1*) ds| * ||F(phi)|| over
    probe histories and 64 start times t in [0, 2 pi), normalized by
    (||phi||_h + M); Phi_2 does the same with the squared diffusion deviation
    and (||phi||_h^2 + M).  Non-monotone tables are upper-enveloped.
    """
    probes = list(probe_histories)
    if len(probes) < 3:
        raise ValueError("estimate_rate needs >= 3 probe histories spanning seminorms")
    windows = np.asarray(list(windows), dtype=float)
    if np.any(np.diff(windows) <= 0):
        raise ValueError("windows must be increasing")
    M = cs.profile.M

    m1 = cs.osc1.mean()
    drift_ratio = 0.0
    diff_ratio = 0.0
    for buf in probes:
        s = seminorm_h(buf)
        fnorm = state_norm(cs.drift_functional(buf))
        gnorm = state_norm(cs.diffusion_amplitude(buf))
        drift_ratio = max(drift_ratio, fnorm / (s + M))
        diff_ratio = max(diff_ratio, gnorm * gnorm / (s * s + M))

    starts = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
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
    s = seminorm_h(buf)
    if s > radius:
        shrink = radius / s
        buf = HistoryBuffer(h, ConstantTail(shrink * scale * direction),
                            buf.times, buf.samples * shrink)
    return extract_segment(buf)


# ---------------------------------------------------------------------------
# Falsifiers
# ---------------------------------------------------------------------------

GROWTH_RADIUS = 10.0    # seminorm radius of the histories check_growth samples
H5_RADIUS = 3.0         # seminorm radius of the history pairs check_h5 samples


@dataclass
class CheckReport:
    name: str
    max_ratio: float          # the largest ratio or gap over the draws
    witness: tuple | None     # the draw that gave it
    detail: str = ""
    bound: float = 1e-9       # a one-sided gap's rounding allowance, or a ratio's bound

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.bound


@np.errstate(over="ignore", invalid="ignore")
def worst_draw(trials: int, draw, *gaps) -> list:
    """The falsifiers' one scan: ``draw()`` called ``trials`` times, each draw
    scored by every gap function before the next.  Per gap function, the
    largest gap and the draw that gave it, as a ``(gap, witness)`` pair; a
    strict comparison keeps the first of tied maxima.  A NaN gap ranks above
    every number, so the first NaN draw is the witness, and its check fails
    (``nan <= bound`` is False).  An overflow shows as an inf or NaN gap, so
    the scan runs with numpy's overflow and invalid-value warnings silenced."""
    if trials < 1:
        raise ValueError(f"trials = {trials}: need at least 1 trial")
    worst = [(-math.inf, None)] * len(gaps)
    for _ in range(trials):
        x = draw()
        for i, gap in enumerate(gaps):
            g = gap(x)
            if not math.isnan(worst[i][0]) and (math.isnan(g) or g > worst[i][0]):
                worst[i] = (g, x)
    return worst


def _draw(rng: np.random.Generator, cs: CoefficientSet, radius: float, n: int) -> tuple:
    """n sampled histories with seminorms <= radius, then a time in [0, 20)."""
    return (*[sample_history(rng, cs.dim, _profile_h(cs), radius) for _ in range(n)],
            float(rng.uniform(0.0, 20.0)))


def check_holder(cs: CoefficientSet, radius: float, trials: int,
                 rng_seed: int) -> CheckReport:
    """Max of ||f(t,phi)-f(t,psi)|| / ||phi-psi||_h^gamma over sampled pairs
    with seminorms <= radius; PASS iff it stays below the profile's L_M."""
    rng = np.random.default_rng(rng_seed)

    def ratio(pair):
        a, b, t = pair
        dist = pair_seminorm(a, b)
        if dist < 1e-12:
            return 0.0   # coincident histories bound nothing
        return state_norm(eval_drift(cs, t, a) - eval_drift(cs, t, b)) / dist**cs.profile.gamma

    [worst] = worst_draw(trials, lambda: _draw(rng, cs, radius, 2), ratio)
    return CheckReport("holder", *worst, bound=cs.profile.L_M)


def check_holder_averaged(cs: CoefficientSet, radius: float, trials: int,
                          rng_seed: int) -> CheckReport:
    """check_holder on the averaged drift f* = xi_1^* F, on the same samples."""
    return replace(check_holder(cs.averaged(), radius, trials, rng_seed),
                   name="holder_averaged")


def check_h5(cs: CoefficientSet, trials: int,
             rng_seed: int) -> tuple[CheckReport, CheckReport]:
    """Sampling check of the two one-sided delay bounds.

    Drift: <f(phi)-f(psi), phi(0)-psi(0)> <= alpha2 [ ||d0||^{g+1}
           + int ||phi-psi||^{g+1} mu1 ]; diffusion: ||g(phi)-g(psi)||^2
           <= alpha1 int ||phi-psi||^{2g} mu2.
    """
    rng = np.random.default_rng(rng_seed)
    gamma = cs.profile.gamma
    a2 = cs.profile.get("h5_alpha2")
    a1 = cs.profile.get("h5_alpha1")

    def drift_gap(pair):
        pa, pb, t = pair
        head_diff = pa.head - pb.head  # phi(0) - psi(0)
        lhs = float(np.dot(eval_drift(cs, t, pa) - eval_drift(cs, t, pb), head_diff))
        mu1_term = delay_pair_integral(pa, pb, cs.profile.mu1, gamma + 1.0)
        return lhs - a2 * (state_norm(head_diff) ** (gamma + 1.0) + mu1_term)

    def diffusion_gap(pair):
        pa, pb, t = pair
        ga = eval_diffusion_amplitude(cs, t, pa)
        gb = eval_diffusion_amplitude(cs, t, pb)
        mu2_term = delay_pair_integral(pa, pb, cs.profile.mu2, 2.0 * gamma)
        return state_norm(ga - gb) ** 2 - a1 * mu2_term

    worst_f, worst_g = worst_draw(trials, lambda: _draw(rng, cs, H5_RADIUS, 2),
                                  drift_gap, diffusion_gap)
    return (CheckReport("h5_drift", *worst_f, f"alpha2 = {a2}"),
            CheckReport("h5_diffusion", *worst_g, f"alpha1 = {a1}"))


def check_growth(cs: CoefficientSet, trials: int, rng_seed: int) -> CheckReport:
    """Linear growth ||f|| v ||g|| <= alpha1 ||phi||_h + M on sampled histories."""
    rng = np.random.default_rng(rng_seed)
    a1 = cs.profile.get("growth_alpha1")
    M = cs.profile.get("growth_M")

    def gap(sample):
        buf, t = sample
        s = seminorm_h(buf)
        fn = state_norm(eval_drift(cs, t, buf))
        gn = state_norm(eval_diffusion_amplitude(cs, t, buf))
        return max(fn, gn) - (a1 * s + M)

    [worst] = worst_draw(trials, lambda: _draw(rng, cs, GROWTH_RADIUS, 1), gap)
    return CheckReport("growth", *worst, f"alpha1 = {a1}, M = {M}")


def _profile_h(cs: CoefficientSet) -> float:
    """Weight h used by the samplers: the drift's delay measure pins it to its rate."""
    mu = cs.drift.delay_measure
    return 1.0 if mu is None else mu.rate
