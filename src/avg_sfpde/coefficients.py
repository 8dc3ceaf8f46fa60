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
    delay_integrals,
    delay_pair_integrals,
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
    """Bounded oscillation offset + amp sin(omega t + phase) with a closed-form
    long-run mean; amp = 0 is the constant offset, any other amp needs omega != 0."""

    offset: float = 0.0
    amp: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.amp and not self.omega:
            raise ValueError(f"oscillator amp = {self.amp} needs omega != 0")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(c: float) -> "Oscillator":
        return Oscillator(offset=c)

    @staticmethod
    def sinusoid(offset: float, amp: float, omega: float, phase: float = 0.0) -> "Oscillator":
        return Oscillator(offset, amp, omega, phase)

    # -- evaluation ----------------------------------------------------------
    def scalar_eval(self, t: float) -> float:
        """Float value at one time, for the public ops; the stepper reads ``values``."""
        if not self.amp:
            return self.offset
        return self.offset + self.amp * math.sin(self.omega * t + self.phase)

    def __call__(self, t: float) -> float:
        return self.scalar_eval(float(t))

    def values(self, t: np.ndarray) -> np.ndarray:
        """``scalar_eval`` at each entry of a 1-D array t, with its bits."""
        out = np.full(t.shape, self.offset)
        if self.amp:
            out += self.amp * libm_loop(np.sin, self.omega * t + self.phase)
        return out

    def mean(self) -> float:
        """Long-run Cesaro mean; exact."""
        return float(self.offset)

    def integral(self, a: float, b: float) -> float:
        """int_a^b xi(s) ds in closed form."""
        total = self.offset * (b - a)
        if self.amp:
            w, p = self.omega, self.phase
            total += -self.amp / w * (math.cos(w * b + p) - math.cos(w * a + p))
        return total

    def square_deviation_integral(self, a: float, b: float) -> float:
        """int_a^b (xi(s) - mean)^2 ds."""
        if not self.amp:
            return 0.0
        w, p = self.omega, self.phase
        # amp^2 sin^2 = amp^2/2 (1 - cos(2wt+2p))
        return self.amp * self.amp / 2.0 * (
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


def _check_map(spec) -> None:
    if spec.pointwise not in (None, *POINTWISE_MAPS):
        raise ValueError(f"{type(spec).__name__}: unknown pointwise map {spec.pointwise!r}")


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

    def __post_init__(self):
        _check_map(self)


@dataclass(frozen=True)
class DiffusionSpec:
    """G(phi) applied to a noise increment.

    kinds:
      * ``rank_one``: gain * map(phi(0)) against a single Wiener coordinate, the
        map read at ``grid_values`` as the drift's is; no map is the constant 1
      * ``diagonal``: state-independent diagonal operator with mode-i amplitude
        gain / i on the first k_w modes; it takes no map
    """

    KINDS = ("rank_one", "diagonal")
    kind: str
    pointwise: str | None = None
    gain: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown diffusion kind {self.kind!r}")
        if self.kind == "diagonal" and self.pointwise is not None:
            raise ValueError(f"diagonal noise takes no pointwise map, not {self.pointwise!r}")
        _check_map(self)


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

    def grid_values(self, state: np.ndarray) -> np.ndarray:
        """What the pointwise maps read: a scalar state, or a field's grid values."""
        return state if self.space is None else self.space.to_values(state)

    def averaged(self) -> "CoefficientSet":
        """The averaged system f* = xi_1^* F, g* = xi_2^* G: each oscillator
        replaced by the constant of its long-run mean."""
        return replace(self, osc1=Oscillator.constant(self.osc1.mean()),
                       osc2=Oscillator.constant(self.osc2.mean()))

    def noise_dim(self, k_w: int) -> int:
        """Brownian coordinates of the noise: k_w of the k modes under
        diagonal noise, one under rank-one noise; any other k_w is rejected."""
        if self.diffusion.kind == "rank_one" and k_w != 1:
            raise ValueError(f"k_w = {k_w}: rank_one noise has 1 Brownian coordinate")
        if not 1 <= k_w <= self.dim:
            raise ValueError(f"k_w = {k_w}: diagonal noise needs 1 <= k_w <= k = {self.dim}")
        return k_w

    # -- functional composition (single source of truth) ---------------------
    def compose_drift(self, head_values: np.ndarray, delay_value,
                      seminorm_value=0.0) -> np.ndarray:
        """F(phi) in state coordinates from the ``grid_values`` of phi(0), the
        delay-term value and, for the broken-preset term, the history seminorm.

        Leading axes of ``head_values`` are rows (paths): (P, m) grid values
        give (P, k) coefficients, and the delay and seminorm values are then
        scalars or (P,) vectors.
        """
        d = self.drift
        extra = d.constant + d.delay_gain * delay_value
        if d.seminorm_power:
            extra = extra + d.seminorm_gain * pow_or_inf(seminorm_value, d.seminorm_power)
        extra = np.asarray(extra)[..., None]
        grid = np.full(np.shape(head_values), extra) if d.pointwise is None else \
            extra + POINTWISE_MAPS[d.pointwise](head_values)
        return grid if self.space is None else self.space.to_coeffs(grid)

    def drift_functionals(self, bufs) -> np.ndarray:
        """F on the segment of each buffer at its head, one row per buffer:
        the stacked heads take one ``grid_values`` and one ``compose_drift``
        call, and the delay terms one ``delay_integrals`` call.  Each row has
        the bits of its buffer alone."""
        d = self.drift
        delay = 0.0 if d.delay_kernel_power is None else \
            delay_integrals(bufs, [(d.delay_measure, d.delay_kernel_power)])[:, 0]
        semi = np.array([seminorm_h(buf) for buf in bufs]) if d.seminorm_power else 0.0
        return self.compose_drift(self.grid_values(_heads(bufs)), delay, semi)

    def drift_functional(self, buf: HistoryBuffer) -> np.ndarray:
        """F evaluated on the buffer's segment at its head: the one row of
        ``drift_functionals``."""
        return self.drift_functionals([buf])[0]

    # -- diffusion -------------------------------------------------------------
    def diffusion_amplitudes(self, bufs) -> np.ndarray:
        """G(phi) of each buffer's segment, one row per buffer: (P, 1) scalar
        amplitudes or (P, k) rank-one field coefficients, from one
        ``grid_values`` call on the stacked heads; under diagonal noise the
        one (k,) row of amplitudes, broadcast read-only to (P, k)."""
        diagonal = self.diffusion.kind == "diagonal"
        amp = self.diffusion_from_values(None if diagonal else self.grid_values(_heads(bufs)))
        return np.broadcast_to(amp, (len(bufs), self.dim))

    def diffusion_amplitude(self, buf: HistoryBuffer) -> np.ndarray:
        """G(phi) as an array: shape (1,) scalar amplitude, (k,) rank-one field
        coefficients, or (k,) diagonal amplitudes; the one row of
        ``diffusion_amplitudes``."""
        return self.diffusion_amplitudes([buf])[0]

    def diffusion_from_values(self, values: np.ndarray | None) -> np.ndarray:
        """G(phi) amplitudes from the ``grid_values`` of phi(0), which diagonal
        noise does not read.  Leading axes are rows (paths); the diagonal
        amplitudes are state independent and shared by every row."""
        g = self.diffusion
        if g.kind == "diagonal":
            modes = np.arange(1, self.dim + 1, dtype=float)
            return g.gain / modes
        grid = np.ones(np.shape(values)) if g.pointwise is None else \
            POINTWISE_MAPS[g.pointwise](values)
        return g.gain * (grid if self.space is None else self.space.to_coeffs(grid))

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

def _heads(bufs) -> np.ndarray:
    """The head states phi(0) of the buffers, stacked as rows."""
    return np.stack([buf.head for buf in bufs])


def eval_drifts(cs: CoefficientSet, ts, bufs) -> np.ndarray:
    """Row i is xi_1(ts[i]) * F(phi_i) of bufs[i], with the bits of
    ``Oscillator.scalar_eval`` for xi_1 (``Oscillator.values``)."""
    return cs.osc1.values(np.asarray(ts, dtype=float))[:, None] * cs.drift_functionals(bufs)


def eval_drift(cs: CoefficientSet, t: float, buf: HistoryBuffer) -> np.ndarray:
    """xi_1(t) * F(phi), t on the oscillator's clock (t / eps for a path at
    eps): the one row of ``eval_drifts``."""
    return eval_drifts(cs, [t], [buf])[0]


def eval_diffusion_amplitudes(cs: CoefficientSet, ts, bufs) -> np.ndarray:
    """Row i is xi_2(ts[i]) * G(phi_i) of bufs[i]."""
    return cs.osc2.values(np.asarray(ts, dtype=float))[:, None] * cs.diffusion_amplitudes(bufs)


def eval_diffusion_amplitude(cs: CoefficientSet, t: float, buf: HistoryBuffer) -> np.ndarray:
    """xi_2(t) * G(phi) amplitudes, t on the oscillator's clock: the one row
    of ``eval_diffusion_amplitudes``."""
    return eval_diffusion_amplitudes(cs, [t], [buf])[0]


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

SAMPLER_FAMILIES = ("constant", "exponential", "path")


def sample_history(rng: np.random.Generator, dim: int, h: float, radius: float,
                   kind: str | None = None) -> HistoryBuffer:
    """One random admissible history with seminorm <= radius.

    Families: constant tails, single-exponential tails, and short simulated
    random-walk paths attached to a constant tail.  Path-family histories are
    returned as segments at their heads, so every sampled history is an
    element of the same function space on (-infty, 0] and pairs align.
    """
    # integers(3) draws what choice() of the three names draws, without
    # building an array of them on every call
    kind = kind or SAMPLER_FAMILIES[rng.integers(3)]
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


# draws that a scan takes before it scores them as one batch: memory does not
# grow with the number of trials
SCORE_CHUNK = 256


@np.errstate(over="ignore", invalid="ignore")
def worst_draw(trials: int, draw, score) -> list:
    """The falsifiers' one scan: ``draw()`` called ``trials`` times, in
    chunks of at most SCORE_CHUNK draws.  Each chunk is drawn first and then
    scored as one batch by ``score``, which takes the list of the chunk's
    draws and returns, for each in order, the tuple of its gaps; so memory
    stays bounded whatever ``trials`` is.  Per place in that tuple, the
    largest gap and the draw that gave it, as a ``(gap, witness)`` pair; a
    strict comparison keeps the first of tied maxima.  A NaN gap ranks above
    every number, so the first NaN draw is the witness, and its check fails
    (``nan <= bound`` is False).  An overflow shows as an inf or NaN gap, so
    the scan runs with numpy's overflow and invalid-value warnings
    silenced."""
    if trials < 1:
        raise ValueError(f"trials = {trials}: need at least 1 trial")
    worst = None
    for first in range(0, trials, SCORE_CHUNK):
        xs = [draw() for _ in range(min(SCORE_CHUNK, trials - first))]
        for x, gaps in zip(xs, score(xs), strict=True):
            worst = worst or [(-math.inf, None)] * len(gaps)
            for i, g in enumerate(gaps):
                if not math.isnan(worst[i][0]) and (math.isnan(g) or g > worst[i][0]):
                    worst[i] = (g, x)
    return worst


def _draw(rng: np.random.Generator, cs: CoefficientSet, radius: float, n: int) -> tuple:
    """n sampled histories with seminorms <= radius, then a time in [0, 20)."""
    return (*[sample_history(rng, cs.dim, _profile_h(cs), radius) for _ in range(n)],
            float(rng.uniform(0.0, 20.0)))


def _pair_differences(cs: CoefficientSet, pairs, evaluate) -> np.ndarray:
    """Row i is evaluate(a) - evaluate(b) at the time t of the i-th draw
    (a, b, t): one batched ``eval_drifts`` or ``eval_diffusion_amplitudes``
    call on both histories of every draw."""
    ts = np.repeat([t for _, _, t in pairs], 2)
    rows = evaluate(cs, ts, [x for a, b, _ in pairs for x in (a, b)])
    return rows[0::2] - rows[1::2]


def check_holder(cs: CoefficientSet, radius: float, trials: int,
                 rng_seed: int) -> CheckReport:
    """Max of ||f(t,phi)-f(t,psi)|| / ||phi-psi||_h^gamma over sampled pairs
    with seminorms <= radius; PASS iff it stays below the profile's L_M."""
    rng = np.random.default_rng(rng_seed)

    def ratios(pairs):
        dists = [pair_seminorm(a, b) for a, b, _ in pairs]
        # coincident histories bound nothing, and their drifts are not evaluated
        far = [pair for pair, dist in zip(pairs, dists) if not dist < 1e-12]
        diffs = iter(_pair_differences(cs, far, eval_drifts) if far else ())
        return [(0.0,) if dist < 1e-12 else (state_norm(next(diffs)) / dist**cs.profile.gamma,)
                for dist in dists]

    [worst] = worst_draw(trials, lambda: _draw(rng, cs, radius, 2), ratios)
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

    terms = [(cs.profile.mu1, gamma + 1.0), (cs.profile.mu2, 2.0 * gamma)]

    def gaps(pairs):
        drift_diffs = _pair_differences(cs, pairs, eval_drifts)
        diffusion_diffs = _pair_differences(cs, pairs, eval_diffusion_amplitudes)
        out = []
        for (pa, pb, _), df, dg in zip(pairs, drift_diffs, diffusion_diffs):
            head_diff = pa.head - pb.head  # phi(0) - psi(0)
            lhs = float(np.dot(df, head_diff))
            # one difference kernel for both terms, its norms shared when mu1 == mu2
            mu1_term, mu2_term = delay_pair_integrals(pa, pb, terms)
            out.append((lhs - a2 * (state_norm(head_diff) ** (gamma + 1.0) + mu1_term),
                        state_norm(dg) ** 2 - a1 * mu2_term))
        return out

    worst_f, worst_g = worst_draw(trials, lambda: _draw(rng, cs, H5_RADIUS, 2), gaps)
    return (CheckReport("h5_drift", *worst_f, f"alpha2 = {a2}"),
            CheckReport("h5_diffusion", *worst_g, f"alpha1 = {a1}"))


def check_growth(cs: CoefficientSet, trials: int, rng_seed: int) -> CheckReport:
    """Linear growth ||f|| v ||g|| <= alpha1 ||phi||_h + M on sampled histories."""
    rng = np.random.default_rng(rng_seed)
    a1 = cs.profile.get("growth_alpha1")
    M = cs.profile.get("growth_M")

    def gaps(samples):
        bufs, ts = [buf for buf, _ in samples], [t for _, t in samples]
        drifts = eval_drifts(cs, ts, bufs)
        amplitudes = eval_diffusion_amplitudes(cs, ts, bufs)
        return [(max(state_norm(f), state_norm(g)) - (a1 * seminorm_h(buf) + M),)
                for buf, f, g in zip(bufs, drifts, amplitudes)]

    [worst] = worst_draw(trials, lambda: _draw(rng, cs, GROWTH_RADIUS, 1), gaps)
    return CheckReport("growth", *worst, f"alpha1 = {a1}, M = {M}")


def _profile_h(cs: CoefficientSet) -> float:
    """Weight h used by the samplers: the drift's delay measure pins it to its rate."""
    mu = cs.drift.delay_measure
    return 1.0 if mu is None else mu.rate
