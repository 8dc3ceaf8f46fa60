"""Test oracles: the one-path reference scheme and closed forms.

``reference_step`` is the semi-implicit Euler-Maruyama step written out for
one path on its history buffer, O(history) per step.  ``PathRunner`` is the
package's one step kernel; the tests check it against this scheme.  Both
evaluate the coefficients through the same row-batched ``CoefficientSet``
methods, transform a state as one row of a 16-row matrix product, and read
the oscillators of step n at n * dt / eps.  Without a delay or seminorm term
the two are bit-identical; with one they agree to rounding (the runner
accumulates the delay integral and the seminorm incrementally, which regroups
the same floating-point sums).
"""

import math

import numpy as np

from avg_sfpde.coefficients import eval_diffusion_amplitude, eval_drift
from avg_sfpde.delay import HistoryBuffer, as_state
from avg_sfpde.integrator import BlowUpError, normal_block


def appended(buf: HistoryBuffer, t: float, value) -> HistoryBuffer:
    """A new buffer: ``buf`` with one more sample, ``value`` at time t."""
    return HistoryBuffer(h=buf.h, tail=buf.tail, times=np.append(buf.times, t),
                         samples=np.vstack([buf.samples, as_state(value)[None, :]]))


@np.errstate(over="ignore", invalid="ignore")
def reference_step(buf, op, cs, cfg, path_id=0) -> HistoryBuffer:
    """One step of path path_id from the head of ``buf``: ``buf`` with the new
    state appended.  Like the runner, it checks the new state for non-finite
    values itself, raising BlowUpError, so it runs with numpy's overflow and
    invalid-value warnings silenced."""
    t = buf.head_time
    n = len(buf.times) - 1
    # the step's draws end the block of its first n + 1 steps
    dW = normal_block(cfg.seed, path_id, n + 1,
                      cs.noise_dim(cfg.noise_modes))[-1] * math.sqrt(cfg.dt)
    s = n * cfg.dt / cfg.eps            # the runner's oscillator clock
    drift = eval_drift(cs, s, buf)
    if cs.space is not None:
        values = cs.space.to_values(buf.head)
        a_nl = op.nonlinear_from_values(cs.space, values)
    else:
        a_nl = np.zeros(1)
    amp = eval_diffusion_amplitude(cs, s, buf)
    noise = cs.apply_noise(amp, dW)
    stiff = op.stiff_diagonal(cs.space)
    rhs = a_nl + drift
    # reciprocal multiply, matching the runner's precomputed factors bit for bit
    new = (buf.head + cfg.dt * rhs + noise) * (1.0 / (1.0 + cfg.dt * stiff))
    if not np.all(np.isfinite(new)):
        bad = np.where(~np.isfinite(new))[0]
        raise BlowUpError(t + cfg.dt, int(bad[0]))
    return appended(buf, t + cfg.dt, new)


def reference_path(op, cs, cfg, initial, path_id=0) -> HistoryBuffer:
    """Path path_id stepped by ``reference_step`` to the horizon: its history."""
    buf = initial
    for _ in range(cfg.n_steps):
        buf = reference_step(buf, op, cs, cfg, path_id)
    return buf


def heat_block_residual_oracle(lam: float, T: float, d: float) -> float:
    """Closed-form int_0^T (e^{-lam t} - frozen)^2 dt for pure decay of one
    mode, used as the deterministic diagnostic oracle."""
    n_blocks = int(math.floor(T / d + 1e-12))
    c = ((1.0 - math.exp(-2.0 * lam * d)) / (2.0 * lam)
         - 2.0 * (1.0 - math.exp(-lam * d)) / lam + d)
    total = sum(math.exp(-2.0 * lam * k * d) * c for k in range(n_blocks))
    rem = T - n_blocks * d
    if rem > 1e-12:
        a = n_blocks * d
        total += (math.exp(-2.0 * lam * a) * ((1.0 - math.exp(-2.0 * lam * rem)) / (2.0 * lam)
                  - 2.0 * (1.0 - math.exp(-lam * rem)) / lam + rem))
    return total


def linear_freeze_residual_oracle(xi1, dt: float, T: float, d: float) -> float:
    """Exact mean of the block-freezing diagnostic's path residual on
    ``scalar-linear-osc``, whose step is X_{n+1} = q (X_n + dt xi1(n dt) + dW_n),
    q = 1 / (1 + dt), from X_0 = 0; ``xi1(t)`` is the drift's oscillator at
    step time t (xi_1(t / eps), or the averaged constant).

    X_n = m_n + Z_n with m_{n+1} = q (m_n + dt xi1(n dt)) and v_n = Var Z_n,
    v_{n+1} = q^2 (v_n + dt); for j <= n, Cov(Z_n, Z_j) = q^{n-j} v_j, so
    E(X_n - X_j)^2 = (m_n - m_j)^2 + v_n + v_j - 2 q^{n-j} v_j.  With
    j = floor(n / m) m for blocks of m steps, the trapezoid of that over n is
    the residual's mean, free of discretization bias."""
    n_steps = round(T / dt)
    m = min(round(d / dt), n_steps + 1)
    q = 1.0 / (1.0 + dt)
    mean, var = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    for n in range(n_steps):
        mean[n + 1] = q * (mean[n] + dt * xi1(n * dt))
        var[n + 1] = q * q * (var[n] + dt)
    n = np.arange(n_steps + 1)
    j = (n // m) * m
    e = (mean - mean[j]) ** 2 + var + var[j] - 2.0 * q ** (n - j) * var[j]
    return float(np.trapezoid(e, dx=dt))
