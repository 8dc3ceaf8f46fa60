"""Time stepping of Monte Carlo paths: semi-implicit Euler-Maruyama with history.

The stiff linear part of the operator (the Laplacian diagonal, or the decay
rate of a scalar problem) is treated implicitly per mode; the functional
drift, the nonlinearity, and the noise are explicit.  A batch of paths is
stepped as one (W, dim) array, one row per path, W up to ``MAX_WIDTH``
(``batch_width``).  The twins of a coupled study, the same paths under other
oscillators, time scales or starts, are further blocks of W rows of that
array: one kernel call steps every twin, on one slab of noise broadcast over
the twins.  Every step operation is row-wise, and the sine transforms give
a row the same bits alone and wherever it sits in a batch (``spectral``), so
the bits of a path never depend on the batch width, on how many twins or
paths a study runs, or on how the batches are spread over threads.
Brownian increments are counter-based: path (seed, path_id) keys a Philox
stream, and the Gaussian at (step, mode) is the inverse-CDF image of the
stream's raw output at a fixed position, so a block of a path's first
steps is a prefix of any longer one, and whole-path blocks and the runner's
slabs of ``SLAB`` steps see bit-identical numbers regardless of scheduling.
The inverse CDF is a numpy port of Cephes' ndtri with the bits of
scipy.special.ndtri, so drawing noise loads no scipy module.  The runner
converts the draws of all its rows in one call per slab.

What a step computes without reading the state is tabulated once per slab,
by the same float operations with one more leading axis, so every bit stays.
A coupled run folds its partner distances over records of at most
``RECORD_BYTES`` of states, or of one state; max is exact, so every bit stays.

``PathRunner`` is the one step kernel.  The one-path reference scheme that it
is checked against lives with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, libm_loop, pow_or_inf
from .delay import DelayMeasure, HistoryBuffer, delay_integral
from .spectral import PdeOperator

MAX_WIDTH = 256         # rows per runner; never derived from threads
SLAB = 64               # steps of noise drawn at a time
RECORD_BYTES = 256 * 1024   # states a coupled run records per fold, or one state
RETRY_HALVINGS = 4      # a failed step is retried as 2, 4, 8 and 16 substeps
MAX_STEPS = 10**7       # steps a run may take: T / dt above it is rejected, naming both
MAX_TRAJECTORY_BYTES = 2**30    # bytes of a stored trajectory: 16x the largest a study stores


class BlowUpError(RuntimeError):
    """Non-finite state during stepping; carries time and mode index."""

    def __init__(self, t, mode_index):
        super().__init__(f"state blew up at t = {t:.6g} (mode {mode_index})")
        self.t = t
        self.mode_index = mode_index

    def __reduce__(self):
        # rebuilt from its fields, so the error survives pickling
        return type(self), (self.t, self.mode_index)


# ---------------------------------------------------------------------------
# Counter-based Gaussian increments
# ---------------------------------------------------------------------------

def _philox(seed: int, path_id: int) -> np.random.Philox:
    key = np.array([seed, path_id], dtype=np.uint64)
    return np.random.Philox(key=key)


# Cephes' ndtri, the algorithm of scipy.special.ndtri: a rational function of
# y^2, y = u - 1/2, in the centre e^-2 < u <= 1 - e^-2, and of z = 1 / x,
# x = sqrt(-2 log y), on the tails y = min(u, 1 - u), P1/Q1 for x < 8 and
# P2/Q2 beyond.  Every Q is monic, its leading 1 written out.
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    """Cephes' Horner recurrence a = a * x + c from a = coefs[0], in place on
    one new array (x * 1.0 is x, so a monic polynomial takes p1evl's steps)."""
    a = x * coefs[0]
    a += coefs[1]
    for c in coefs[2:]:
        a *= x
        a += c
    return a


def _ndtri_tail(u: np.ndarray) -> np.ndarray:
    """Cephes' ndtri on u <= e^-2 or u > 1 - e^-2; u = 1 gives +inf."""
    y = np.minimum(u, 1.0 - u)
    with np.errstate(divide="ignore", invalid="ignore"):   # log(0) at u = 1
        x = libm_loop(np.log, y)
        x *= -2.0
        np.sqrt(x, out=x)
        x0 = libm_loop(np.log, x)
        x0 /= x
        np.subtract(x, x0, out=x0)                          # x - log(x) / x
        z = 1.0 / x
    x1 = z * _polevl(z, _P1)
    x1 /= _polevl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)                          # y < e^-32
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    x0 -= x1
    x0[y == 0.0] = np.inf
    return np.copysign(x0, u - 0.5, out=x0)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of a 1-D array of u in (0, 1], with the bits of
    scipy.special.ndtri: Cephes' coefficients, operation order and branch
    tests, and the C library's log.  The centre's rational function runs on
    every entry and the tails overwrite theirs."""
    y = u - 0.5
    y2 = y * y
    out = _polevl(y2, _P0)
    out *= y2
    out /= _polevl(y2, _Q0)
    out *= y
    out += y
    out *= _S2PI
    tail = np.flatnonzero((u <= _EXPM2) | (u > 1.0 - _EXPM2))
    if tail.size:
        out[tail] = _ndtri_tail(u[tail])
    return out


def _raw_to_normal(raw: np.ndarray) -> np.ndarray:
    """Standard normals of raw 64-bit Philox outputs: the top 53 bits k give
    u = k 2^-53 + 2^-54, mapped by the inverse normal CDF.  The largest
    output, 2^64 - 1, gives u = 1 - 2^-54, which rounds (to even) to exactly
    1.0 and draws +inf, as scipy.special.ndtri does; no other output is
    infinite, and none warns."""
    u = np.multiply(raw >> np.uint64(11), 2.0**-53)     # exact: k < 2^53
    u += 2.0**-54
    return _ndtri(u)


def normal_slab(streams, path_id: int, first: int, m: int, k_w: int) -> np.ndarray:
    """Standard normals of paths path_id, path_id + 1, ... at steps first ..
    first + m - 1, as an (m, len(streams), k_w) array whose column r holds the
    next m * k_w outputs of ``streams[r]``, the stream of path path_id + r,
    which must stand at step ``first``.  The rows are stacked and converted in
    one call.  The draw reads only the streams: ``path_id`` and ``first`` name
    the slab, so that a test can substitute one that kicks a given path at a
    given step."""
    raw = np.concatenate([stream.random_raw(m * k_w) for stream in streams])
    return _raw_to_normal(raw).reshape(len(streams), m, k_w).transpose(1, 0, 2)


def normal_block(seed: int, path_id: int, n_steps: int, k_w: int) -> np.ndarray:
    """All standard normals of a path as an (n_steps, k_w) array."""
    return normal_slab([_philox(seed, path_id)], path_id, 0, n_steps, k_w)[:, 0]


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
        for name in ("dt", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r}: must be finite")
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError("need dt > 0 and T >= dt")
        if not (isinstance(self.eps, (int, float)) and 0 < self.eps <= 1):
            raise ValueError(f"eps = {self.eps!r}: must lie in (0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed = {self.seed!r}: must lie in [0, 2**64), a Philox key word")
        n = self.T / self.dt
        if not math.isfinite(n):
            raise ValueError(f"T = {self.T!r}, dt = {self.dt!r}: T / dt overflows, "
                             "no step count")
        if n > MAX_STEPS:                       # checked before anything is allocated
            raise ValueError(f"T = {self.T!r}, dt = {self.dt!r}: T / dt = {n:.6g} steps, "
                             f"more than MAX_STEPS = {MAX_STEPS}")
        if abs(n - round(n)) > 1e-8:
            raise ValueError("T must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


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
    """Squared Euclidean distance of each state (path or time) of a and b."""
    d = a - b
    return (d * d).sum(axis=-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    # |x| for scalar states, so the delay kernel sees the exact norm
    return np.abs(x[:, 0]) if x.shape[1] == 1 else np.linalg.norm(x, axis=1)


# ---------------------------------------------------------------------------
# Delay-term accumulator: one value per row, O(1) per step, equal to
# delay_integral on the grid
# ---------------------------------------------------------------------------

class _ExpDelayAccumulator:
    """Exponential-measure delay integral as an exponential moving average.

    With interval masses m_j = e^{2r t_{j+1}} - e^{2r t_j} the trapezoid value
    at the head factors as V_{n+1} = q V_n + (1 - q)(K_n + K_{n+1})/2 with
    q = e^{-2r dt}; V_0 is the full tail integral at t = 0, one block of
    ``rows`` rows per start.
    """

    def __init__(self, mu: DelayMeasure, power: float, dt: float, starts, rows: int):
        self.power = power
        self.decay = math.exp(-2.0 * mu.rate * dt)
        self.value = np.repeat([delay_integral(s, mu, power) for s in starts], rows)
        self.k_prev = np.repeat([np.linalg.norm(s.head) ** power for s in starts], rows)

    def advance(self, norms: np.ndarray) -> None:
        k_new = pow_or_inf(norms, self.power)
        self.value = self.decay * self.value + (1.0 - self.decay) * 0.5 * (self.k_prev + k_new)
        self.k_prev = k_new


def batch_width(paths: int) -> int:
    """Rows of the runner that steps ``paths`` paths: all of them, at most
    MAX_WIDTH."""
    return min(MAX_WIDTH, paths)


# ---------------------------------------------------------------------------
# Path runner: the step kernel
# ---------------------------------------------------------------------------

class PathRunner:
    """Steps the ``rows`` paths path_id, ..., path_id + rows - 1 to the horizon,
    for one twin or for several stacked twins.

    ``rows`` is any positive width.  A twin is this batch of paths under one
    choice of oscillators, time scale and start.  The twins are
    consecutive blocks of ``rows`` rows of one (twins * rows, dim) state: row
    j * rows + r is path path_id + r of twin j.  Twin 0 is the runner's own
    (cs, cfg.eps, initial); each of ``partners``, a ``(cs, eps, initial)``, is
    a further twin on the same grid and noise (the eps twins of an averaging
    sweep beside the averaged twin ``cs.averaged()``, or the shifted starts
    of a continuity study beside the unshifted one).  A partner's ``cs`` may
    differ from the runner's only in ``osc1`` and ``osc2``, its eps must lie in
    (0, 1], and its start may not change the weight h; a partner that differs
    in anything else is rejected, naming the field, before any array is built.

    ``run`` draws each slab of noise once, a (SLAB, rows, k_w) array that
    every twin steps on, and makes one kernel call per step for all twins.
    Per slab it tabulates the oscillators, a drift F without pointwise map,
    delay or seminorm term, and a diagonal or map-free amplitude G
    (``_tabulate``).  With partners, ``run`` records no trajectory and keeps
    in ``sup_sq``, a (partners, rows) array, the running sup over the grid of
    each row's squared distance between partner j and twin 0.  It folds the
    distances once per record of as many states as RECORD_BYTES holds, 1 to
    SLAB: once per slab on scalar batches and on a field state of 16 rows and
    32 modes.  Each step operation is row-wise, and a row's transform bits do
    not depend on the other rows, so a row has the bits it has in a runner of
    its twin alone.  A row that is still non-finite after the halving retry is
    a blow-up of that path alone in that twin: its BlowUpError goes to
    ``errors[j * rows + r]`` (partner j's are ``errors[(j + 1) * rows:(j + 2)
    * rows]``), its state is reset to zero, and the other rows run on.  The
    runner finds non-finite rows itself, so construction and stepping run
    with numpy's overflow and invalid-value warnings silenced.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
                 initial: HistoryBuffer, path_id: int = 0, *, rows: int, partners=()):
        if rows < 1:
            raise ValueError(f"runner width {rows}: need at least 1 row")
        partners = list(partners)
        for p_cs, eps, start in partners:
            if p_cs.dim != cs.dim:
                raise ValueError(f"partner dim = {p_cs.dim}: the runner steps dim = {cs.dim}")
            for name in ("drift", "diffusion", "space"):
                if getattr(p_cs, name) != getattr(cs, name):
                    raise ValueError(f"partner {name} differs from the runner's: a partner "
                                     "may differ only in osc1, osc2, eps and its start")
            if start.h != initial.h:
                raise ValueError(f"partner initial.h = {start.h}: the runner's "
                                 f"history weight is h = {initial.h}")
            replace(cfg, eps=eps)               # rejects an eps outside (0, 1]
        self.op = op
        self.cs = cs
        self.cfg = cfg
        self.initial = initial
        self.path_id = path_id
        self.rows = rows
        self.space = cs.space
        self.k_w = cs.noise_dim(cfg.noise_modes)
        self.stiff = op.stiff_diagonal(self.space)
        self.implicit_factors = 1.0 / (1.0 + cfg.dt * self.stiff)
        self.times = np.arange(cfg.n_steps + 1) * cfg.dt
        self.states = None
        self.sup_sq = None
        self.slab_terms = None                                  # set per slab by run
        self.twins = [(cs, cfg.eps, initial)] + partners
        starts = [start for _, _, start in self.twins]
        self.x = np.concatenate([np.tile(s.head, (rows, 1)) for s in starts])
        self.errors = [None] * len(self.x)
        self.head_norm_weighted = np.repeat([np.linalg.norm(s.head) for s in starts], rows)
        self.tail_sup0 = np.repeat([s.tail.weighted_sup(s.h) for s in starts], rows)
        power = cs.drift.delay_kernel_power
        self.delay_acc = None if power is None else _ExpDelayAccumulator(
            cs.drift.delay_measure, power, cfg.dt, starts, rows)
        self.track_norms = self.delay_acc is not None or bool(cs.drift.seminorm_power)
        # an F or G that reads no state is tabulated per slab (_tabulate)
        self.free_drift = cs.drift.pointwise is None and not self.track_norms
        self.free_noise = cs.diffusion.kind == "diagonal" or cs.diffusion.pointwise is None
        self.tail_weight = 1.0                                  # e^{-h t_n}
        self.h_decay = math.exp(-initial.h * cfg.dt)

    # -- stepping --------------------------------------------------------------
    def _oscillators(self, times):
        """xi_1(t / eps) and xi_2(t / eps) of every twin at each t of ``times``,
        as a (len(times), 2, twins, 1, 1) table: entry i unpacks to the two
        (twins, 1, 1) columns at times[i], with the bits of ``scalar_eval``."""
        xi = np.empty((len(times), 2, len(self.twins), 1, 1))
        for j, (cs, eps, _) in enumerate(self.twins):
            s = times / eps
            xi[:, 0, j, 0, 0] = cs.osc1.values(s)
            xi[:, 1, j, 0, 0] = cs.osc2.values(s)
        return xi

    def _drift(self, values, xi1):
        """xi_1 F of every row, F from the grid values (on scalar states the
        state itself).  xi1 is the (twins, 1, 1) column of an ``_oscillators``
        entry, or a table of them, whose leading axes the result keeps."""
        cs, x = self.cs, self.x
        delay = 0.0 if self.delay_acc is None else self.delay_acc.value
        semi = np.maximum(self.tail_weight * self.tail_sup0, self.head_norm_weighted) \
            if cs.drift.seminorm_power else 0.0
        blocks = (len(self.twins), self.rows, x.shape[1])
        f = cs.compose_drift(values, delay, semi).reshape(blocks)
        return (xi1 * f).reshape(xi1.shape[:-3] + x.shape)

    def _amplitude(self, values, xi2):
        """xi_2 G of every row, as ``_drift`` takes xi_1; under diagonal noise
        one (dim,) row per twin."""
        g = self.cs.diffusion_from_values(values)
        return xi2 * (g.reshape(len(self.twins), self.rows, -1) if g.ndim == 2 else g)

    def _tabulate(self, times, dW, frac):
        """Tables (xi, drift, amp, noise), one entry per step at ``times``
        over frac * dt, of the terms that read no state: the oscillators;
        xi_1 F, or dt xi_1 F on scalar states; xi_2 G; and, on scalar states,
        xi_2 G dW on the increments dW, (len(times), rows, k_w).  A term that
        reads the state is None, and ``_update`` builds it per step.  F and
        G read no value of the zero grid they are given."""
        x = self.x
        xi = self._oscillators(times)
        drift = amp = noise = None
        grid = np.zeros(x.shape if self.space is None else (len(x), self.space.m))
        if self.free_drift:
            drift = self._drift(grid, xi[:, 0])
            if self.space is None:      # per step in _update: scalar-studies 21% slower, 2 vCPU
                drift = self.cfg.dt * frac * drift
        if self.free_noise:
            amp = self._amplitude(grid, xi[:, 1])
            if self.space is None:      # kept out of _update for the same 21%
                noise = self.cs.apply_noise(amp, dW[:, None]).reshape((len(times),) + x.shape)
        return xi, drift, amp, noise

    def _update(self, x, terms, i, frac, dW):
        """Semi-implicit Euler-Maruyama update of every row over frac * dt on
        the increments dW, with entry i of the tables ``terms`` of
        ``_tabulate``; the terms that read the state are built here."""
        xi, drift, amp, noise = terms
        dt = self.cfg.dt * frac
        values = self.cs.grid_values(x)
        rhs = self._drift(values, xi[i, 0]) if drift is None else drift[i]
        if self.space is not None:
            rhs = self.op.nonlinear_from_values(self.space, values) + rhs
        if drift is None or self.space is not None:
            rhs = dt * rhs                      # a scalar drift table holds dt xi_1 F
        if noise is None:
            step_amp = self._amplitude(values, xi[i, 1]) if amp is None else amp[i]
            step_noise = self.cs.apply_noise(step_amp, dW).reshape(x.shape)
        else:
            step_noise = noise[i]
        factors = self.implicit_factors if frac == 1.0 else 1.0 / (1.0 + dt * self.stiff)
        return (x + rhs + step_noise) * factors

    def _advance(self, n, dW):
        """Step n on the increments dW, with entry n % SLAB of the slab's
        tables ``slab_terms``."""
        new = self._update(self.x, self.slab_terms, n % SLAB, 1.0, dW)
        # a finite sum has finite entries; a sum that overflows on finite
        # entries only costs a rescue that finds no row to retry
        if not math.isfinite(np.add.reduce(new, axis=None)):
            self._rescue(new, self.times[n], dW)
        self.x = new
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
        their values at t, where 2^j steps of the reference scheme in
        ``tests/oracles.py`` recompute them from each substep's state, so with
        either term in the drift a rescued step differs from those steps.
        Rows that stay non-finite become blow-ups; rows that blew up earlier
        are not retried.
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
                part = dW * frac
                terms = self._tabulate(np.array([tt]), part[None], frac)
                cur = self._update(cur, terms, 0, frac, part)
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

    def _partner_sq(self, states) -> np.ndarray:
        """(partners, rows): each row's squared distance between partner j
        and twin 0 in a (twins * rows, dim) state; a record of states keeps
        its leading steps axis."""
        x = states.reshape(states.shape[:-2] + (len(self.twins), self.rows, -1))
        return _sq_distance(x[..., 1:, :, :], x[..., :1, :, :])

    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> Trajectory | None:
        """Step to the horizon.  Returns the batch trajectory, states of shape
        (n_steps + 1, rows, dim), unless the runner has partners.

        Each row reads its path's stream in order, SLAB steps at a time; one
        ``normal_slab`` call converts the draws of all rows into one
        (SLAB, rows, k_w) array of Brownian increments, which every twin steps
        on, broadcast, never copied; its state-free terms are ``slab_terms``.
        max is exact, so the fold length moves no bit of ``sup_sq``."""
        n_steps, k_w, rows = self.cfg.n_steps, self.k_w, self.rows
        streams = [_philox(self.cfg.seed, pid)
                   for pid in range(self.path_id, self.path_id + rows)]
        slab = np.empty((SLAB, rows, k_w))
        sqrt_dt = math.sqrt(self.cfg.dt)
        coupled = len(self.twins) > 1
        if coupled:
            self.sup_sq = self._partner_sq(self.x)
            fold = min(SLAB, max(1, RECORD_BYTES // self.x.nbytes))
            record = np.empty((fold,) + self.x.shape)
        else:
            nbytes = (n_steps + 1) * self.x.nbytes  # checked before the states exist
            if nbytes > MAX_TRAJECTORY_BYTES:
                raise ValueError(
                    f"T = {self.cfg.T!r}, dt = {self.cfg.dt!r}: a stored trajectory of "
                    f"{n_steps + 1} steps x {rows} rows x dim {self.x.shape[1]} takes "
                    f"{nbytes} bytes, more than MAX_TRAJECTORY_BYTES = {MAX_TRAJECTORY_BYTES}")
            self.states = np.empty((n_steps + 1,) + self.x.shape)
            self.states[0] = self.x
        for n in range(n_steps):
            j = n % SLAB
            if j == 0:
                m = min(SLAB, n_steps - n)
                np.multiply(normal_slab(streams, self.path_id, n, m, k_w), sqrt_dt,
                            out=slab[:m])
                self.slab_terms = self._tabulate(self.times[n:n + m], slab[:m], 1.0)
            self._advance(n, slab[j])
            if not coupled:
                self.states[n + 1] = self.x
                continue
            i = n % fold
            record[i] = self.x
            if i == fold - 1 or n == n_steps - 1:
                np.maximum(self.sup_sq, self._partner_sq(record[:i + 1]).max(axis=0),
                           out=self.sup_sq)
        return None if coupled else Trajectory(self.times, self.states)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def run_path(op: PdeOperator, cs: CoefficientSet, cfg: StepperConfig,
             initial: HistoryBuffer, path_id: int = 0) -> Trajectory:
    """One path, stepped by a 1-row runner."""
    runner = PathRunner(op, cs, cfg, initial, path_id=path_id, rows=1)
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


def block_steps(d: float, dt: float) -> int:
    """Steps of dt in a block of length d if a positive whole number, else 0."""
    m = round(d / dt)
    return m if d >= dt - 1e-12 and abs(d / dt - m) <= 1e-8 else 0


def khasminskii_freeze(traj: Trajectory, d: float) -> Trajectory:
    """Piecewise-frozen trajectory: value at the left endpoint of each block
    of length d; history (t < 0) is untouched by construction.  A block at
    least as long as the run freezes all of it at its start."""
    m = min(block_steps(d, traj.times[1] - traj.times[0]), len(traj.times))
    if m < 1:
        raise ValueError("block length d must be an integer multiple of dt")
    idx = (np.arange(len(traj.times)) // m) * m
    return Trajectory(times=traj.times, states=traj.states[idx])
