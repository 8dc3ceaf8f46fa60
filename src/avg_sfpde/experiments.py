"""Monte Carlo studies: averaging convergence, block-freezing diagnostic,
continuity in initial data, and the hypothesis audit.

Each study takes a built Preset; dt, T and k_w fall back to the preset's
own values.  A study steps its paths in batches of up to MAX_WIDTH rows,
one row per path, with path-indexed counter-based noise, merges statistics
in path order (so neither the worker count nor the number of paths affects
a path's result), fits a weighted log-log slope where one is defined, and
emits an ExperimentReport with a verdict.  The coupled studies step every
row of a batch of paths in one runner: the twin all rows share (the averaged
system of an averaging sweep, the unshifted start of a continuity study) and
each row's own twin are stacked blocks of one state, stepped by one kernel
call per time step on one noise draw.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CheckReport,
    CoefficientSet,
    _profile_h,
    check_growth,
    check_h5,
    check_holder,
    estimate_rate,
    sample_history,
    worst_draw,
)
from .delay import ConstantTail, HistoryBuffer
from .integrator import (
    BlowUpError,
    PathRunner,
    StepperConfig,
    batch_width,
    block_steps,
    khasminskii_freeze,
)
from .presets import Preset
from .spectral import coercivity_probe

AVERAGED = "averaged"               # the eps label of the averaged system
SLOPE_VERDICT_FLOOR = 0.35          # 0.5 minus tolerance for the d^(1/2) bound
CENSOR_FIT_FRACTION = 0.05


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    param: float
    d: float
    paths: int
    mean: float
    std_err: float
    censored: int
    extra_mean: float | None = None   # segment-variant mean for the diagnostic
    extra_std_err: float | None = None  # and its standard error


@dataclass
class SlopeFit:
    slope: float
    ci_half: float
    n_rows: int

    def __str__(self):
        return f"{self.slope:.3f} +/- {self.ci_half:.3f} ({self.n_rows} rows)"


@dataclass
class ExperimentReport:
    kind: str
    param_name: str
    rows: list
    slope: SlopeFit | None
    verdict: bool
    verdict_detail: str

    def row_means(self):
        return [r.mean for r in self.rows]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _map_paths(fn, n: int, threads: int):
    """Order-preserving map of fn over range(n), on ``threads`` workers;
    ``_map_chunks`` maps batch indices with it."""
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def _map_chunks(fn, paths: int, threads: int):
    """Per-path results in path order, computed a batch at a time.

    Batches start at multiples of W = batch_width(paths).  ``fn(first, count)``
    steps the ``count`` paths that start at path id ``first`` and returns
    their results; whole batches go to the thread pool, which gets no more
    workers than batches or than ``os.cpu_count()``.
    Every study steps its paths here, so here it rejects ``paths < 2`` and
    ``threads < 1``.
    """
    if paths < 2:
        raise ValueError(f"paths = {paths}: need at least 2 Monte Carlo paths")
    if threads < 1:
        raise ValueError(f"threads = {threads}: need at least 1 worker thread")
    width = batch_width(paths)
    starts = range(0, paths, width)

    def one(i):
        return fn(starts[i], min(width, paths - starts[i]))

    batches = _map_paths(one, len(starts), min(threads, len(starts), os.cpu_count() or 1))
    return [r for batch in batches for r in batch]


def _censor(outcomes, row, param_name, param, preset, dt):
    """The blow-up policy of every study, applied to one row's outcomes.

    A path whose outcome is a BlowUpError is censored from the row and
    counted.  A blow-up in the study's first row (its largest parameter)
    aborts the study with a RuntimeError naming the time and mode.  Returns
    the surviving outcomes and the censored count.
    """
    blew = [o for o in outcomes if isinstance(o, BlowUpError)]
    if blew and row == 0:
        raise RuntimeError(
            f"blow-up at the largest {param_name} = {param}: {blew[0]} "
            f"(preset {preset.name}, dt = {dt})")
    return [o for o in outcomes if not isinstance(o, BlowUpError)], len(blew)


def _mean_and_std_err(values):
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), se


def _row_stats(values, param, d, n_paths, censored, extra=None):
    if len(values) == 0:
        return ReportRow(param, d, n_paths, math.nan, math.nan, censored)
    extra = _mean_and_std_err(extra) if extra is not None else (None, None)
    return ReportRow(param, d, n_paths, *_mean_and_std_err(values), censored, *extra)


def fit_loglog_slope(rows, use_extra=False) -> SlopeFit | None:
    """Inverse-variance weighted least squares on (log param, log mean), a
    row's log mean of standard error std_err / mean.  With use_extra the fit
    reads each row's segment pair (extra_mean, extra_std_err) instead.

    Rows with param <= 0 (no log), mean 0, NaN, or censoring above the fit
    threshold are excluded; below 3 usable rows there is no fit.
    """
    usable = []
    for r in rows:
        mean, se = (r.extra_mean, r.extra_std_err) if use_extra else (r.mean, r.std_err)
        if not (r.param <= 0.0 or mean is None or not math.isfinite(mean) or mean <= 0.0
                or (r.paths and r.censored / r.paths > CENSOR_FIT_FRACTION)):
            usable.append((r.param, mean, se))
    if len(usable) < 3:
        return None
    x = np.log([p for p, _, _ in usable])
    y = np.log([mean for _, mean, _ in usable])
    sig = np.array([max(se / mean, 1e-12) for _, mean, se in usable])
    w = 1.0 / sig**2
    X = np.column_stack([x, np.ones_like(x)])
    cov = np.linalg.inv(X.T @ (w[:, None] * X))
    beta = cov @ (X.T @ (w * y))
    resid = y - X @ beta
    dof = max(len(usable) - 2, 1)
    scale = float(resid @ (w * resid)) / dof
    # widen the formal CI by the residual scatter when the fit is poor
    var_slope = cov[0, 0] * max(scale, 1.0)
    return SlopeFit(slope=float(beta[0]), ci_half=1.96 * math.sqrt(var_slope),
                    n_rows=len(usable))


def stepping(preset: Preset, dt, T, k_w, seed, eps) -> tuple[CoefficientSet, StepperConfig]:
    """The coefficients a run steps and its stepping.  A dt, T or k_w of None
    is the preset's own; eps "averaged" is the averaged system at eps = 1."""
    cs = preset.coefficients
    if eps == AVERAGED:
        cs, eps = cs.averaged(), 1.0
    return cs, StepperConfig(dt=preset.dt if dt is None else dt,
                             T=preset.T if T is None else T,
                             noise_modes=preset.k_w if k_w is None else k_w,
                             seed=seed, eps=eps)


def _grid(param: str, values, in_range, text: str) -> list:
    """A study's parameter grid as floats; every study rejects a grid that is
    empty, not strictly decreasing, or has a non-finite or out-of-range entry."""
    grid = [float(v) for v in values]
    if not (grid and all(math.isfinite(v) and in_range(v) for v in grid)
            and all(b < a for a, b in zip(grid, grid[1:]))):
        raise ValueError(f"{param}_grid = {','.join(map(repr, grid))}: must be "
                         f"non-empty, strictly decreasing, every {param} finite and {text}")
    return grid


def _coupled_study(kind, param_name, grid, d, verdict, preset, shared, partners,
                   paths, threads) -> ExperimentReport:
    """A coupled study's report: row j is E sup_t of the squared distance
    between partner j's paths and the shared ones, ``shared`` a
    ``(cs, cfg, initial)`` and each partner a ``(cs, eps, initial)``, stepped
    as twins of one runner per batch of paths.  A path's outcome is its
    partner's BlowUpError, else the shared batch's, else its sup, censored by
    ``_censor``.  Row j's block length is ``d(grid[j])``, or NaN for no ``d``;
    the verdict is ``verdict(rows)`` and the slope is fitted on all rows."""
    def one_batch(first, count):
        runner = PathRunner(preset.operator, *shared, path_id=first, rows=count,
                            partners=partners)
        runner.run()
        shared_errors, *partner_errors = (runner.errors[i:i + count]
                                          for i in range(0, len(runner.errors), count))
        # a BlowUpError is truthy: the partner's own, else the shared batch's
        per_partner = [[own or err or float(sup)
                        for own, err, sup in zip(errors, shared_errors, sups)]
                       for errors, sups in zip(partner_errors, runner.sup_sq)]
        return list(zip(*per_partner))

    rows = []
    for j, (param, row) in enumerate(zip(grid, zip(*_map_chunks(one_batch, paths, threads)))):
        values, censored = _censor(row, j, param_name, param, preset, shared[1].dt)
        rows.append(_row_stats(values, param, math.nan if d is None else d(param),
                               paths, censored))
    ok, detail = verdict(rows)
    return ExperimentReport(kind=kind, param_name=param_name, rows=rows,
                            slope=fit_loglog_slope(rows), verdict=ok, verdict_detail=detail)


# ---------------------------------------------------------------------------
# averaging sweep
# ---------------------------------------------------------------------------

def averaging_sweep(preset: Preset, eps_grid, paths: int,
                    dt: float | None = None, T: float | None = None,
                    k_w: int | None = None, seed: int = 0, threads: int = 1,
                    d_rule: str = "sqrt_eps") -> ExperimentReport:
    """E sup_t ||u^eps - u*||^2 per eps, with the monotone-decay verdict.

    ``d_rule`` "sqrt_eps" echoes the block length sqrt(eps) in each row,
    "none" leaves it NaN.  Blow-ups follow ``_censor``; rows above the
    censoring threshold are excluded from the slope fit.
    """
    eps_grid = _grid("eps", eps_grid, lambda e: 0 < e <= 1, "in (0, 1]")
    if d_rule not in ("sqrt_eps", "none"):
        raise ValueError(f"d_rule = {d_rule!r}: must be sqrt_eps or none")
    init = preset.initial
    averaged, cfg = stepping(preset, dt, T, k_w, seed, AVERAGED)
    return _coupled_study(
        "averaging", "eps", eps_grid, math.sqrt if d_rule == "sqrt_eps" else None,
        _monotone_decay_verdict, preset, (averaged, cfg, init),
        [(preset.coefficients, eps, init) for eps in eps_grid], paths, threads)


def _monotone_decay_verdict(rows):
    if all(r.mean == 0.0 for r in rows):
        return True, "all rows exactly zero (degenerate coupling)"
    for prev, cur in zip(rows[:-1], rows[1:]):
        slack = 2.0 * math.sqrt(prev.std_err**2 + cur.std_err**2)
        if not (cur.mean < prev.mean + slack):
            return False, (f"row at {cur.param} = {cur.mean:.3e} not below "
                           f"{prev.mean:.3e} within 2 SE")
    return True, "rows decreasing within 2 combined standard errors"


# ---------------------------------------------------------------------------
# block-freezing diagnostic
# ---------------------------------------------------------------------------

def khasminskii_diagnostic(preset: Preset, d_grid, paths: int,
                           dt: float | None = None, T: float | None = None,
                           k_w: int | None = None, seed: int = 0, threads: int = 1,
                           eps: float | str = AVERAGED) -> ExperimentReport:
    """E int_0^T ||u - u_frozen||^2 dt per block length d, plus the segment
    variant with the weighted history norm; verdict: fitted slope >= 0.35.

    Every row uses the same paths, so under ``_censor`` a blow-up belongs to
    the first row and aborts.
    """
    cs, cfg = stepping(preset, dt, T, k_w, seed, eps)
    d_grid = _grid("d", d_grid, lambda d: block_steps(d, cfg.dt) > 0,
                   f"a positive whole number of steps dt = {cfg.dt}")
    op, init = preset.operator, preset.initial
    h = init.h
    dtv = cfg.dt

    def residuals(traj, grow, shrink):
        path_res, seg_res = [], []
        for d in d_grid:
            frozen = khasminskii_freeze(traj, d)
            diff_sq = np.sum((traj.states - frozen.states) ** 2, axis=1)
            path_res.append(float(np.trapezoid(diff_sq, dx=dtv)))
            # segment variant: sup_{r <= s} e^{2h(r-s)} ||diff(r)||^2, the
            # history part before t = 0 cancels (frozen path untouched there)
            with np.errstate(over="ignore", invalid="ignore"):
                running = np.maximum.accumulate(grow * diff_sq)
                seg_res.append(float(np.trapezoid(running * shrink, dx=dtv)))
            if math.isfinite(path_res[-1]) and not math.isfinite(seg_res[-1]):
                raise ValueError(f"T = {cfg.T}, h = {h}: the segment residual overflows "
                                 f"(e^(2ht) times the squared residual); shorten T")
        return path_res, seg_res

    def one_batch(first, count):
        runner = PathRunner(op, cs, cfg, init, path_id=first, rows=count)
        traj = runner.run()
        with np.errstate(over="ignore"):
            grow, shrink = np.exp(2.0 * h * traj.times), np.exp(-2.0 * h * traj.times)
        return [err if err is not None else residuals(traj.row(r), grow, shrink)
                for r, err in enumerate(runner.errors)]

    outcomes = _map_chunks(one_batch, paths, threads)
    rows = []
    for i, d in enumerate(d_grid):
        res, censored = _censor(outcomes, i, "d", d, preset, dtv)
        rows.append(_row_stats([o[0][i] for o in res], d, d, paths, censored,
                               extra=[o[1][i] for o in res]))
    slope = fit_loglog_slope(rows)
    seg_slope = fit_loglog_slope(rows, use_extra=True)
    ok = slope is not None and slope.slope >= SLOPE_VERDICT_FLOOR
    detail = (f"path slope {slope}, segment slope {seg_slope}"
              if slope else "slope unavailable")
    return ExperimentReport(
        kind="khasminskii", param_name="d", rows=rows, slope=slope,
        verdict=ok, verdict_detail=detail,
    )


# ---------------------------------------------------------------------------
# continuity in initial data
# ---------------------------------------------------------------------------

def continuity_study(preset: Preset, delta_grid, paths: int,
                     dt: float | None = None, T: float | None = None,
                     k_w: int | None = None, seed: int = 0, threads: int = 1,
                     eps: float | str = 1.0) -> ExperimentReport:
    """E sup_t ||x - y||^2 for coupled pairs started from phi and phi + delta psi,
    psi the unit-seminorm constant perturbation along the first coordinate.

    The proof-device stopping times are replaced by blow-up detection:
    blow-ups follow ``_censor``.
    """
    delta_grid = _grid("delta", delta_grid, lambda d: d >= 0, ">= 0")
    cs, cfg = stepping(preset, dt, T, k_w, seed, eps)
    init = preset.initial
    if not isinstance(init.tail, ConstantTail):
        raise ValueError("continuity study needs a constant-tail initial datum")
    psi = np.zeros(cs.dim)
    psi[0] = 1.0  # unit seminorm: constant history along the first coordinate

    shifted = [(cs, cfg.eps, HistoryBuffer.from_tail(
                    init.h, ConstantTail(init.tail.value + delta * psi)))
               for delta in delta_grid]
    return _coupled_study("continuity", "delta", delta_grid, None, _continuity_verdict,
                          preset, (cs, cfg, init), shifted, paths, threads)


def _continuity_verdict(rows):
    pos = [r for r in rows if r.param > 0]
    for prev, cur in zip(pos[:-1], pos[1:]):
        if not (cur.mean < prev.mean):
            return False, f"row at delta = {cur.param} not strictly below previous"
    for r in rows:
        if r.param == 0.0 and r.mean != 0.0:
            return False, f"delta = 0 row is {r.mean}, not exactly zero"
    return True, "rows strictly decreasing; zero-perturbation row exact"


# ---------------------------------------------------------------------------
# hypothesis audit
# ---------------------------------------------------------------------------

@dataclass
class HypothesisResult:
    name: str
    passed: bool
    detail: str


@dataclass
class AuditReport:
    preset: str
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def by_name(self, name):
        return next(r for r in self.results if r.name == name)


def _sample_field(rng, dim):
    """One random field of norm at most 5, smoothed with probability 1/2."""
    c = rng.standard_normal(dim)
    if rng.uniform() < 0.5:
        c = c / (1.0 + np.arange(dim)) ** 2  # smooth representative
    norm = np.linalg.norm(c)
    if norm > 0:
        c = c * (5.0 * rng.uniform(0.05, 1.0) / norm)
    return c


def hypothesis_audit(preset: Preset, trials: int = 1000,
                     rng_seed: int = 0) -> AuditReport:
    """Sampling-based falsification of the structural hypotheses.

    Continuity of the operator pairing holds by construction for the shipped
    coefficient families and is recorded as such rather than sampled.
    """
    if rng_seed < 0:
        raise ValueError(f"seed = {rng_seed}: must be non-negative")
    cs, op = preset.coefficients, preset.operator
    prof = cs.profile
    rng = np.random.default_rng(rng_seed)
    results = [HypothesisResult(
        "H1", True, "pairing continuity holds by construction for the "
                    "shipped coefficient families")]

    # growth of f, g and of the operator
    growth = check_growth(cs, trials, rng_seed + 1)
    op_growth = _operator_growth_probe(op, cs, rng, trials=200)
    results.append(HypothesisResult(
        "H2", growth.passed and op_growth.passed,
        f"coefficients: worst gap {growth.max_ratio:.3e}; operator: {op_growth.detail}"))

    # coercivity
    coercivity = _coercivity_audit(op, cs, rng, trials=200)
    results.append(HypothesisResult("H3", coercivity.passed, coercivity.detail))

    # local Holder continuity of f, g and monotonicity-type bound for A
    holder = check_holder(cs, radius=prof.M, trials=trials, rng_seed=rng_seed + 2)
    mono = _monotonicity_audit(op, cs, rng, trials=200)
    results.append(HypothesisResult(
        "H4", holder.passed and mono.passed,
        f"Holder ratio {holder.max_ratio:.3f} <= L_M = {prof.L_M}; {mono.detail}"))

    # one-sided pairing bounds with the delay measures
    prof.check_measure_membership(_profile_h(cs))
    rep_f, rep_g = check_h5(cs, trials=max(trials // 2, 200), rng_seed=rng_seed + 3)
    results.append(HypothesisResult(
        "H5", rep_f.passed and rep_g.passed,
        f"drift gap {rep_f.max_ratio:.3e}, diffusion gap {rep_g.max_ratio:.3e}"))

    # averaging rate tables
    probes = [sample_history(rng, cs.dim, _profile_h(cs), prof.M) for _ in range(4)]
    rate = estimate_rate(cs, probes, [10.0, 100.0, 1000.0])
    h6_ok = _rate_decays(rate.phi1) and _rate_decays(rate.phi2)
    results.append(HypothesisResult(
        "H6", h6_ok,
        f"phi1 {rate.phi1[0]:.3e} -> {rate.phi1[-1]:.3e}, "
        f"phi2 {rate.phi2[0]:.3e} -> {rate.phi2[-1]:.3e}"))
    return AuditReport(preset=preset.name, results=results)


def _rate_decays(phi):
    first, last = float(phi[0]), float(phi[-1])
    return last <= max(0.05 * first, 1e-9)


def _operator_growth_probe(op, cs, rng, trials):
    a1 = cs.profile.get("growthA_alpha1")
    M = cs.profile.get("growthA_M")
    p = op.growth_exponent

    def gap(u):
        dual = op.dual_norm(cs.space, u)
        return dual ** (p / (p - 1.0)) - (a1 * op.b_norm(cs.space, u) ** p + M)

    [worst] = worst_draw(trials, lambda: _sample_field(rng, cs.dim), gap)
    return CheckReport("operator_growth", *worst,
                       f"growth gap {worst[0]:.3e} (alpha1={a1}, M={M})")


def _coercivity_audit(op, cs, rng, trials):
    a1 = cs.profile.get("coercivity_alpha1")
    a2 = cs.profile.get("coercivity_alpha2")
    M = cs.profile.get("coercivity_M")

    def gap(u):
        pairing, bnorm_p = coercivity_probe(op, cs.space, u)
        l2 = float(np.linalg.norm(u))
        return pairing - (-a1 * bnorm_p + a2 * l2**2 + M)

    [worst] = worst_draw(trials, lambda: _sample_field(rng, cs.dim), gap)
    return CheckReport("coercivity", *worst, f"coercivity gap {worst[0]:.3e}")


def _monotonicity_audit(op, cs, rng, trials):
    prof = cs.profile

    def gap(pair):
        u, v = pair
        bound = prof.alpha1 * float(np.linalg.norm(u - v)) ** (prof.beta + 1.0)
        tol = 1e-8 * (np.linalg.norm(u) + np.linalg.norm(v)) ** 2
        return op.monotonicity_gap(cs.space, u, v) - bound - tol

    [worst] = worst_draw(
        trials, lambda: (_sample_field(rng, cs.dim), _sample_field(rng, cs.dim)), gap)
    return CheckReport("monotonicity", *worst,
                       f"monotonicity gap {worst[0]:.3e} (beta={prof.beta})")
