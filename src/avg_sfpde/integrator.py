"""Time stepping of Monte Carlo paths: semi-implicit Euler-Maruyama with history.

The stiff linear part of the operator (the Laplacian diagonal, or the decay
rate of a scalar problem) is treated implicitly per mode; the functional
drift, the nonlinearity, and the noise are explicit.  Paths are stepped in
chunks of ``CHUNK`` rows held as (CHUNK, dim) arrays.  The chunk shape is a
constant and a short last chunk is padded with further path ids, so the bits
of a path never depend on how many paths a study runs or on how the chunks
are spread over threads.  Brownian increments are counter-based: path
(seed, path_id) keys a Philox stream, and the Gaussian at (step, mode) is the
inverse-CDF image of the stream's raw output at a fixed position, so block
generation, single-step generation, and coupled twin runs all see
bit-identical numbers regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .coefficients import (
    CoefficientSet,
    eval_diffusion_amplitude,
    eval_drift,
    pow_or_inf,
)
from .delay import DelayMeasure, HistoryBuffer, delay_integral
from .spectral import PdeOperator

AVERAGED = "averaged"
CHUNK = 16              # rows per kernel call; never derived from paths or threads
RETRY_HALVINGS = 4      # a failed step is retried as 2, 4, 8 and 16 substeps


class BlowUpError(RuntimeError):
    """Non-finite state during stepping; carries time and mode index."""

    def __init__(self, t, mode_index, detail=""):
        super().__init__(f"state blew up at t = {t:.6g} (mode {mode_index}) {detail}")
        self.t = t
        self.mode_index = mode_index


# ---------------------------------------------------------------------------
# Counter-based Gaussian increments
# ---------------------------------------------------------------------------

_U64_MASK = (1 << 64) - 1


def _philox(seed: int, path_id: int) -> np.random.Philox:
    key = np.array([seed & _U64_MASK, path_id & _U64_MASK], dtype=np.uint64)
    return np.random.Philox(key=key)


def _raw_to_normal(raw: np.ndarray) -> np.ndarray:
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def normal_block(seed: int, path_id: int, n_steps: int, k_w: int) -> np.ndarray:
    """All standard normals of a path as an (n_steps, k_w) array."""
    raw = _philox(seed, path_id).random_raw(n_steps * k_w)
    return _raw_to_normal(raw).reshape(n_steps, k_w)


def normal_at(seed: int, path_id: int, step: int, k_w: int) -> np.ndarray:
    """Standard normals of one step; equals normal_block(...)[step] exactly."""
    bg = _philox(seed, path_id)
    pos = step * k_w
    bg.advance(pos // 4)  # Philox advances in 4-output counter blocks
    skip = pos % 4
    raw = bg.random_raw(skip + k_w)[skip:]
    return _raw_to_normal(raw)


# ---------------------------------------------------------------------------
# Configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepperConfig:
    dt: float
    T: float
    noise_modes: int = 1
    seed: int = 0
    eps: float | str = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError("need dt > 0 and T >= dt")
        if self.eps != AVERAGED and not (isinstance(self.eps, (int, float))
                                         and 0 < self.eps <= 1):
            raise ValueError("eps must lie in (0, 1] or be the 'averaged' sentinel")
        n = self.T / self.dt
        if abs(n - round(n)) > 1e-8:
            raise ValueError("T must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class PathState:
    """State of one path between steps (reference implementation of `step`)."""

    buffer: HistoryBuffer
    t: float
    seed: int = 0
    path_id: int = 0
    step_index: int = 0

    def __post_init__(self):
        if abs(self.buffer.head_time - self.t) > 1e-12:
            raise ValueError("buffer head time must equal the state time")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray           # (n_steps + 1, dim), or (n_steps + 1, CHUNK, dim)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def row(self, r: int) -> "Trajectory":
        """Path r of a chunk trajectory, as a one-path trajectory."""
        return Trajectory(self.times, np.ascontiguousarray(self.states[:, r]))

    def sup_sq_distance(self, other: "Trajectory") -> float:
        if self.states.shape != other.states.shape:
            raise ValueError("trajectories live on different grids")
        return float(np.max(_sq_distance(self.states, other.states)))


def _sq_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each row (path or time) of a and b."""
    d = a - b
    return (d * d).sum(axis=1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    # |x| for scalar states, so the delay kernel sees the exact norm
    return np.abs(x[:, 0]) if x.shape[1] == 1 else np.linalg.norm(x, axis=1)


# ---------------------------------------------------------------------------
# Delay-term accumulators: (CHUNK,) vectors, O(1) per step, equal to
# delay_integral on the grid
# ---------------------------------------------------------------------------

class _ExpDelayAccumulator:
    """Exponential-measure delay integral as an exponential moving average.

    With interval masses m_j = e^{2r t_{j+1}} - e^{2r t_j} the trapezoid value
    at the head factors as V_{n+1} = q V_n + (1 - q)(K_n + K_{n+1})/2 with
    q = e^{-2r dt}; V_0 is the full tail integral at t = 0.
    """

    def __init__(self, initial: HistoryBuffer, mu: DelayMeasure, power: float, dt: float):
        self.power = power
        self.decay = math.exp(-2.0 * mu.rate * dt)
        self.value = np.full(CHUNK, delay_integral(initial, 0.0, mu, power))
        self.k_prev = np.full(CHUNK, np.linalg.norm(initial.head) ** power)

    def advance(self, norms: np.ndarray) -> None:
        k_new = pow_or_inf(norms, self.power)
        self.value = self.decay * self.value + (1.0 - self.decay) * 0.5 * (self.k_prev + k_new)
        self.k_prev = k_new


class _PointDelayAccumulator:
    def __init__(self, initial: HistoryBuffer, power: float):
        self.power = power
        self.value = np.full(CHUNK, np.linalg.norm(initial.head) ** power)

    def advance(self, norms: np.ndarray) -> None:
        self.value = pow_or_inf(norms, self.power)


def _make_delay_accumulator(initial, cs, dt):
    power = cs.drift.delay_kernel_power
    if power is None:
        return None
    mu = cs.drift.delay_measure
    if mu.kind == "exponential":
        return _ExpDelayAccumulator(initial, mu, power, dt)
    if mu.kind == "point":
        return _PointDelayAccumulator(initial, power)
    raise ValueError(f"the path runner supports exponential and point-mass delay "
                     f"measures, not {mu.kind!r}")


# ---------------------------------------------------------------------------
# Path runner: the step kernel
# ---------------------------------------------------------------------------

class PathRunner:
    """Steps the CHUNK paths path_id, ..., path_id + CHUNK - 1 to the horizon.

    Row r of the (CHUNK, dim) state is path path_id + r.  ``couple`` adds a
    second batch of the same paths (the averaged twin, or the shifted start
    of a continuity pair), stepped on the same noise array but never stacked
    with the first.  A row that is still non-finite after the halving retry
    is a blow-up of that path alone: its BlowUpError goes to ``errors``, its
    state is reset to zero, and the other rows run on.  The runner finds
    non-finite rows itself, so construction and stepping run with numpy's
    overflow and invalid-value warnings silenced.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
                 initial: HistoryBuffer, path_id: int = 0):
        self.op = op
        self.cs = cs
        self.cfg = cfg
        self.initial = initial
        self.path_id = path_id
        self.space = cs.space
        self.k_w = cs.noise_dim(cfg.noise_modes)
        self.stiff = op.stiff_diagonal(self.space)
        self.implicit_factors = 1.0 / (1.0 + cfg.dt * self.stiff)
        self.times = np.arange(cfg.n_steps + 1) * cfg.dt
        self.t = 0.0
        self.x = np.tile(initial.head, (CHUNK, 1))
        self.states = None
        self.errors = [None] * CHUNK
        self.partner = None
        self.sup_sq = None
        self.xi_fixed = (cs.osc1.mean(), cs.osc2.mean()) if cfg.eps == AVERAGED else None
        self.delay_acc = _make_delay_accumulator(initial, cs, cfg.dt)
        self.track_norms = self.delay_acc is not None or bool(cs.drift.seminorm_power)
        self.head_norm_weighted = np.full(CHUNK, np.linalg.norm(initial.head))  # Q_n
        self.tail_weight = 1.0                                                  # e^{-h t_n}
        self.h_decay = math.exp(-initial.h * cfg.dt)
        self.tail_sup0 = initial.tail.weighted_sup(initial.h)

    def couple(self, cfg: StepperConfig, initial: HistoryBuffer) -> None:
        """Step a second batch of the same paths on this runner's noise.

        ``run`` then keeps in ``sup_sq`` the running sup over the grid of each
        row's squared distance between the batches and records no trajectory.
        """
        self.partner = PathRunner(self.op, self.cs, cfg, initial, self.path_id)

    def blowups(self) -> list:
        """Per row, the first BlowUpError of this batch, else of the partner."""
        if self.partner is None:
            return list(self.errors)
        return [a if a is not None else b for a, b in zip(self.errors, self.partner.errors)]

    def buffer_view(self) -> HistoryBuffer:
        """History of path path_id (row 0) after ``run``."""
        return HistoryBuffer(h=self.initial.h, tail=self.initial.tail,
                             times=self.times, samples=self.states[:, 0],
                             horizon=self.initial.horizon)

    # -- stepping --------------------------------------------------------------
    def _update(self, x, t, frac, dW):
        """Semi-implicit Euler-Maruyama update of every row over frac * dt."""
        cs = self.cs
        dt = self.cfg.dt * frac
        values = x if self.space is None else self.space.to_values(x)
        delay = 0.0 if self.delay_acc is None else self.delay_acc.value
        semi = np.maximum(self.tail_weight * self.tail_sup0, self.head_norm_weighted) \
            if cs.drift.seminorm_power else 0.0
        if self.xi_fixed is not None:
            xi1, xi2 = self.xi_fixed
        else:
            xi1 = cs.osc1.scalar_eval(t / self.cfg.eps)
            xi2 = cs.osc2.scalar_eval(t / self.cfg.eps)
        rhs = xi1 * cs.compose_drift(values, delay, semi)
        if self.space is not None:
            rhs = self.op.nonlinear_from_values(self.space, values) + rhs
        noise = cs.apply_noise(xi2 * cs.diffusion_from_values(x, values), dW)
        factors = self.implicit_factors if frac == 1.0 else 1.0 / (1.0 + dt * self.stiff)
        return (x + dt * rhs + noise) * factors

    def _advance(self, n, dW):
        t = self.times[n]
        new = self._update(self.x, t, 1.0, dW)
        if not np.isfinite(new).all():
            self._rescue(new, t, dW)
        self.x = new
        self.t = self.times[n + 1]
        if self.track_norms:
            norms = _row_norms(new)
            if self.delay_acc is not None:
                self.delay_acc.advance(norms)
            self.head_norm_weighted = np.maximum(self.head_norm_weighted * self.h_decay, norms)
            self.tail_weight *= self.h_decay

    def _rescue(self, new, t, dW):
        """Deterministic salvage of the non-finite rows of ``new``, in place.

        The step is split into 2^j substeps with the Brownian increment
        divided proportionally, j = 1 .. RETRY_HALVINGS, at the full chunk
        shape; each failed row keeps the first finite result.  The delay and
        seminorm caches stay frozen at the step's start.  Rows that stay
        non-finite become blow-ups; rows that blew up earlier are not retried.
        """
        dead = np.array([e is not None for e in self.errors])
        retry = ~np.isfinite(new).all(axis=1) & ~dead
        for halvings in range(1, RETRY_HALVINGS + 1):
            if not retry.any():
                break
            parts = 2**halvings
            frac = 1.0 / parts
            cur, tt, ok = self.x, t, retry.copy()
            for _ in range(parts):
                cur = self._update(cur, tt, frac, dW * frac)
                tt += self.cfg.dt * frac
                finite = np.isfinite(cur).all(axis=1)
                ok &= finite
                cur[~finite] = 0.0
            new[ok] = cur[ok]
            retry &= ~ok
        for r in np.flatnonzero(retry):
            mode = int(np.flatnonzero(~np.isfinite(new[r]))[0])
            self.errors[r] = BlowUpError(t + self.cfg.dt, mode)
        new[~np.isfinite(new).all(axis=1)] = 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> Trajectory | None:
        """Step to the horizon.  Returns the chunk trajectory, states of shape
        (n_steps + 1, CHUNK, dim), unless the runner is coupled."""
        n_steps = self.cfg.n_steps
        noise = np.empty((n_steps, CHUNK, self.k_w))
        for r in range(CHUNK):
            noise[:, r] = normal_block(self.cfg.seed, self.path_id + r, n_steps, self.k_w)
        noise *= math.sqrt(self.cfg.dt)
        other = self.partner
        if other is None:
            self.states = np.empty((n_steps + 1,) + self.x.shape)
            self.states[0] = self.x
        else:
            self.sup_sq = _sq_distance(self.x, other.x)
        for n in range(n_steps):
            self._advance(n, noise[n])
            if other is None:
                self.states[n + 1] = self.x
            else:
                other._advance(n, noise[n])
                np.maximum(self.sup_sq, _sq_distance(self.x, other.x), out=self.sup_sq)
        return None if other is not None else Trajectory(self.times, self.states)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def step(state: PathState, op: PdeOperator, cs: CoefficientSet,
         cfg: StepperConfig) -> PathState:
    """Single reference step on a PathState (buffer-backed, O(history)).

    The runner is the batch driver; this is the checkable one-step form.  Both
    evaluate the coefficients through the same row-batched CoefficientSet
    methods.  For scalar states without a delay term the two are
    bit-identical; otherwise they agree to rounding (the runner accumulates
    the delay integral incrementally, which regroups the same floating-point
    sums, and transforms a whole chunk of rows in one matrix product).
    """
    buf = state.buffer
    t = state.t
    dW = normal_at(cfg.seed, state.path_id, state.step_index, cs.noise_dim(cfg.noise_modes)) \
        * math.sqrt(cfg.dt)
    drift = eval_drift(cs, t, cfg.eps, buf)
    if cs.space is not None:
        values = cs.space.to_values(buf.value_at(t))
        a_nl = op.nonlinear_from_values(cs.space, values)
    else:
        a_nl = np.zeros(1)
    amp = eval_diffusion_amplitude(cs, t, cfg.eps, buf)
    noise = cs.apply_noise(amp, dW)
    stiff = op.stiff_diagonal(cs.space)
    rhs = a_nl + drift
    # reciprocal multiply, matching the runner's precomputed factors bit for bit
    new = (buf.head + cfg.dt * rhs + noise) * (1.0 / (1.0 + cfg.dt * stiff))
    if not np.all(np.isfinite(new)):
        bad = np.where(~np.isfinite(new))[0]
        raise BlowUpError(t + cfg.dt, int(bad[0]))
    return PathState(buffer=buf.appended(t + cfg.dt, new), t=t + cfg.dt,
                     seed=cfg.seed, path_id=state.path_id,
                     step_index=state.step_index + 1)


def run_path(op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
             initial: HistoryBuffer, path_id: int = 0) -> Trajectory:
    """One path, stepped as row 0 of the chunk that starts at path_id."""
    runner = PathRunner(op, cs, cfg, initial, path_id=path_id)
    traj = runner.run()
    if runner.errors[0] is not None:
        raise runner.errors[0]
    return traj.row(0)


def coupled_run(op: PdeOperator, cs: CoefficientSet, cfg_eps: StepperConfig,
                cfg_avg: StepperConfig, shared_seed: int, path_id: int = 0,
                initial_eps: HistoryBuffer | None = None,
                initial_avg: HistoryBuffer | None = None,
                initial: HistoryBuffer | None = None):
    """Twin runs of the oscillating and averaged systems on one Brownian path.

    Returns (trajectory_eps, trajectory_avg, sup over the grid of the squared
    state distance).  The two configs must share dt, T, and noise dimension.
    """
    if (cfg_eps.dt != cfg_avg.dt or cfg_eps.T != cfg_avg.T
            or cfg_eps.noise_modes != cfg_avg.noise_modes):
        raise ValueError("coupled runs need identical grids and noise")
    if cfg_avg.eps != AVERAGED:
        raise ValueError("second config must use the averaged sentinel")
    init_e = initial_eps if initial_eps is not None else initial
    init_a = initial_avg if initial_avg is not None else initial
    # counter-based noise: the same (seed, path_id) gives both twins one path
    traj_e = run_path(op, cs, replace(cfg_eps, seed=shared_seed), init_e, path_id)
    traj_a = run_path(op, cs, replace(cfg_avg, seed=shared_seed), init_a, path_id)
    return traj_e, traj_a, traj_e.sup_sq_distance(traj_a)


def khasminskii_freeze(traj: Trajectory, d: float) -> Trajectory:
    """Piecewise-frozen trajectory: value at the left endpoint of each block
    of length d; history (t < 0) is untouched by construction."""
    dt = traj.times[1] - traj.times[0]
    ratio = d / dt
    if d < dt - 1e-12 or abs(ratio - round(ratio)) > 1e-8:
        raise ValueError("block length d must be an integer multiple of dt")
    m = int(round(ratio))
    idx = (np.arange(len(traj.times)) // m) * m
    return Trajectory(times=traj.times.copy(), states=traj.states[idx])
