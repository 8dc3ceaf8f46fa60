"""Time stepping of Monte Carlo paths: semi-implicit Euler-Maruyama with history.

The stiff linear part of the operator (the Laplacian diagonal, or the decay
rate of a scalar problem) is treated implicitly per mode; the functional
drift, the nonlinearity, and the noise are explicit.  A batch of paths is
stepped as one (W, dim) array, W a multiple of ``CHUNK`` up to ``MAX_WIDTH``
(``batch_width``), and a short batch is padded with further path ids.  Every
step operation is row-wise except the sine transforms, which multiply CHUNK
rows at a time, so the bits of a path never depend on the batch width, on how
many paths a study runs, or on how the batches are spread over threads.
Brownian increments are counter-based: path (seed, path_id) keys a Philox
stream, and the Gaussian at (step, mode) is the inverse-CDF image of the
stream's raw output at a fixed position, so whole-path blocks, the runner's
slabs of ``SLAB`` steps, single-step draws, and coupled twin runs all see
bit-identical numbers regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coefficients import (
    CoefficientSet,
    eval_diffusion_amplitude,
    eval_drift,
    pow_or_inf,
)
from .delay import DelayMeasure, HistoryBuffer, delay_integral
from .spectral import ROW_BLOCK, PdeOperator

CHUNK = ROW_BLOCK       # rows per transform product; a batch width is a multiple
MAX_WIDTH = 256         # rows per runner; never derived from threads
SLAB = 64               # steps of noise drawn at a time
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


def normal_slab(stream: np.random.Philox, path_id: int, first: int, m: int,
                k_w: int) -> np.ndarray:
    """Standard normals of path path_id at steps first .. first + m - 1, as an
    (m, k_w) array: the next m * k_w outputs of the path's stream, which must
    stand at step ``first``."""
    return _raw_to_normal(stream.random_raw(m * k_w)).reshape(m, k_w)


def normal_block(seed: int, path_id: int, n_steps: int, k_w: int) -> np.ndarray:
    """All standard normals of a path as an (n_steps, k_w) array."""
    return normal_slab(_philox(seed, path_id), path_id, 0, n_steps, k_w)


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
    eps: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError("need dt > 0 and T >= dt")
        if not (isinstance(self.eps, (int, float)) and 0 < self.eps <= 1):
            raise ValueError(f"eps = {self.eps!r}: must lie in (0, 1]")
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
    states: np.ndarray           # (n_steps + 1, dim), or (n_steps + 1, W, dim)

    def row(self, r: int) -> "Trajectory":
        """Path r of a batch trajectory, as a one-path trajectory."""
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
# Delay-term accumulator: a (W,) vector, O(1) per step, equal to
# delay_integral on the grid
# ---------------------------------------------------------------------------

class _ExpDelayAccumulator:
    """Exponential-measure delay integral as an exponential moving average.

    With interval masses m_j = e^{2r t_{j+1}} - e^{2r t_j} the trapezoid value
    at the head factors as V_{n+1} = q V_n + (1 - q)(K_n + K_{n+1})/2 with
    q = e^{-2r dt}; V_0 is the full tail integral at t = 0.
    """

    def __init__(self, initial: HistoryBuffer, mu: DelayMeasure, power: float, dt: float,
                 rows: int):
        self.power = power
        self.decay = math.exp(-2.0 * mu.rate * dt)
        self.value = np.full(rows, delay_integral(initial, 0.0, mu, power))
        self.k_prev = np.full(rows, np.linalg.norm(initial.head) ** power)

    def advance(self, norms: np.ndarray) -> None:
        k_new = pow_or_inf(norms, self.power)
        self.value = self.decay * self.value + (1.0 - self.decay) * 0.5 * (self.k_prev + k_new)
        self.k_prev = k_new


def batch_width(paths: int) -> int:
    """Rows of the runner that steps ``paths`` paths: the multiple of CHUNK
    that holds them, at most MAX_WIDTH."""
    return min(MAX_WIDTH, CHUNK * math.ceil(paths / CHUNK))


# ---------------------------------------------------------------------------
# Path runner: the step kernel
# ---------------------------------------------------------------------------

class PathRunner:
    """Steps the ``rows`` paths path_id, ..., path_id + rows - 1 to the horizon.

    ``rows`` is a positive multiple of CHUNK; row r of the (rows, dim) state
    is path path_id + r.  ``couple`` adds a second batch of the same paths
    with its own coefficients and start (the averaged twin ``cs.averaged()``,
    or the shifted start of a continuity pair), stepped on the same grid and
    noise but never stacked with the first.  A row that is still
    non-finite after the halving retry is a blow-up of that path alone: its
    BlowUpError goes to ``errors``, its state is reset to zero, and the other
    rows run on.  The runner finds non-finite rows itself, so construction
    and stepping run with numpy's overflow and invalid-value warnings
    silenced.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
                 initial: HistoryBuffer, path_id: int = 0, rows: int = CHUNK):
        if rows < CHUNK or rows % CHUNK:
            raise ValueError(f"runner width {rows} is not a positive multiple of {CHUNK}")
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
        self.x = np.tile(initial.head, (rows, 1))
        self.states = None
        self.errors = [None] * rows
        self.partner = None
        self.sup_sq = None
        power = cs.drift.delay_kernel_power
        self.delay_acc = None if power is None else _ExpDelayAccumulator(
            initial, cs.drift.delay_measure, power, cfg.dt, rows)
        self.track_norms = self.delay_acc is not None or bool(cs.drift.seminorm_power)
        self.head_norm_weighted = np.full(rows, np.linalg.norm(initial.head))   # Q_n
        self.tail_weight = 1.0                                                  # e^{-h t_n}
        self.h_decay = math.exp(-initial.h * cfg.dt)
        self.tail_sup0 = initial.tail.weighted_sup(initial.h)

    def couple(self, cs: CoefficientSet, initial: HistoryBuffer) -> None:
        """Step a second batch of the same paths, with coefficients ``cs`` from
        ``initial``, on this runner's grid and noise.

        ``run`` then keeps in ``sup_sq`` the running sup over the grid of each
        row's squared distance between the batches and records no trajectory.
        """
        self.partner = PathRunner(self.op, cs, self.cfg, initial, self.path_id, len(self.x))

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
        divided proportionally, j = 1 .. RETRY_HALVINGS, at the full batch
        shape; each failed row keeps the first finite result.  The delay and
        seminorm caches stay frozen at the step's start: every substep uses
        their values at t, where 2^j reference ``step`` calls recompute them
        from each substep's state, so with either term in the drift a rescued
        step differs from those calls.  Rows that stay non-finite become
        blow-ups; rows that blew up earlier are not retried.
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
        """Step to the horizon.  Returns the batch trajectory, states of shape
        (n_steps + 1, rows, dim), unless the runner is coupled.

        Each row reads its path's stream in order, SLAB steps at a time, into
        one (SLAB, rows, k_w) array of Brownian increments."""
        n_steps, k_w = self.cfg.n_steps, self.k_w
        ids = range(self.path_id, self.path_id + len(self.x))
        streams = [_philox(self.cfg.seed, pid) for pid in ids]
        slab = np.empty((SLAB, len(self.x), k_w))
        sqrt_dt = math.sqrt(self.cfg.dt)
        other = self.partner
        if other is None:
            self.states = np.empty((n_steps + 1,) + self.x.shape)
            self.states[0] = self.x
        else:
            self.sup_sq = _sq_distance(self.x, other.x)
        for n in range(n_steps):
            j = n % SLAB
            if j == 0:
                m = min(SLAB, n_steps - n)
                for r, (pid, stream) in enumerate(zip(ids, streams)):
                    slab[:m, r] = normal_slab(stream, pid, n, m, k_w)
                slab[:m] *= sqrt_dt
            self._advance(n, slab[j])
            if other is None:
                self.states[n + 1] = self.x
            else:
                other._advance(n, slab[j])
                np.maximum(self.sup_sq, _sq_distance(self.x, other.x), out=self.sup_sq)
        return None if other is not None else Trajectory(self.times, self.states)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def step(state: PathState, op: PdeOperator, cs: CoefficientSet,
         cfg: StepperConfig) -> PathState:
    """Single reference step on a PathState (buffer-backed, O(history)).

    The runner is the batch driver; this is the checkable one-step form.  Both
    evaluate the coefficients through the same row-batched CoefficientSet
    methods.  For scalar states without a delay term the two are
    bit-identical; otherwise they agree to rounding (the runner accumulates
    the delay integral incrementally, which regroups the same floating-point
    sums, and transforms CHUNK rows in one matrix product).  Like
    the runner, it checks the new state for non-finite values itself, so it
    runs with numpy's overflow and invalid-value warnings silenced.
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
    """One path, stepped as row 0 of the CHUNK-row batch that starts at path_id."""
    runner = PathRunner(op, cs, cfg, initial, path_id=path_id)
    traj = runner.run()
    if runner.errors[0] is not None:
        raise runner.errors[0]
    return traj.row(0)


def coupled_run(op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
                initial: HistoryBuffer, path_id: int = 0):
    """Twin runs of the oscillating system and its average ``cs.averaged()``
    on one Brownian path.

    Returns (trajectory_eps, trajectory_avg, sup over the grid of the squared
    state distance).
    """
    # counter-based noise: the same (seed, path_id) gives both twins one path
    traj_e = run_path(op, cs, cfg, initial, path_id)
    traj_a = run_path(op, cs.averaged(), cfg, initial, path_id)
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
