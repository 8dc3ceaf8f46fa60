"""Monte Carlo studies: averaging convergence, block-freezing diagnostic,
continuity in initial data, and the hypothesis audit.

Each study steps its paths in fixed-size chunks with path-indexed
counter-based noise, merges statistics in path order (so neither the worker
count nor the number of paths affects a path's result), fits a weighted
log-log slope where one is defined, and emits an ExperimentReport with a
verdict and a full metadata echo.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .coefficients import (
    check_growth,
    check_h5,
    check_holder,
    estimate_rate,
    sample_history,
)
from .delay import ConstantTail, HistoryBuffer
from .integrator import (
    AVERAGED,
    CHUNK,
    BlowUpError,
    PathRunner,
    StepperConfig,
    khasminskii_freeze,
)
from .presets import Preset, constant_xi, get_preset
from .spectral import coercivity_probe

SLOPE_VERDICT_FLOOR = 0.35          # 0.5 minus tolerance for the d^(1/2) bound
CENSOR_FIT_FRACTION = 0.05


# ---------------------------------------------------------------------------
# Plans and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    preset: str
    eps_grid: tuple
    paths: int
    d_rule: str = "sqrt_eps"        # or "none"; khasminskii passes d directly
    dt: float | None = None
    T: float | None = None
    k: int | None = None
    k_w: int | None = None
    seed: int = 0
    threads: int = 1
    constant_xi: bool = False

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_grid)
        if any(not (0 < e <= 1) for e in eps):
            raise ValueError("eps grid must lie in (0, 1]")
        if len(eps) > 1 and not all(b < a for a, b in zip(eps[:-1], eps[1:])):
            raise ValueError("eps grid must be strictly decreasing")
        if self.paths < 2:
            raise ValueError("need at least 2 Monte Carlo paths")
        object.__setattr__(self, "eps_grid", eps)


@dataclass
class ReportRow:
    param: float
    d: float
    paths: int
    mean: float
    std_err: float
    censored: int
    extra_mean: float | None = None   # segment-variant mean for the diagnostic


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    ci_half: float
    n_rows: int
    excluded: tuple = ()

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
    metadata: dict = field(default_factory=dict)

    def row_means(self):
        return [r.mean for r in self.rows]


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _map_paths(fn, n_paths: int, threads: int):
    """Order-preserving path map; results indexed by path id."""
    if threads <= 1:
        return [fn(i) for i in range(n_paths)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n_paths)))


def _map_chunks(fn, paths: int, threads: int):
    """Per-path results in path order, computed a chunk at a time.

    ``fn(first, count)`` steps the chunk of CHUNK paths that starts at path id
    ``first`` and returns the results of its first ``count`` paths; whole
    chunks go to the thread pool, which gets no more workers than chunks.
    """
    starts = range(0, paths, CHUNK)
    chunks = _map_paths(lambda i: fn(starts[i], min(CHUNK, paths - starts[i])),
                        len(starts), min(threads, len(starts)))
    return [r for chunk in chunks for r in chunk]


def _raise_first(errors):
    """Re-raise the first blow-up of a chunk's paths, in path order."""
    for err in errors:
        if err is not None:
            raise err


def _row_stats(values, param, d, n_paths, censored, extra=None):
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return ReportRow(param, d, n_paths, math.nan, math.nan, censored)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    extra_mean = float(np.mean(extra)) if extra is not None and len(extra) else None
    return ReportRow(param, d, n_paths, mean, se, censored, extra_mean)


def fit_loglog_slope(rows, use_extra=False) -> SlopeFit | None:
    """Inverse-variance weighted least squares on (log param, log mean).

    Rows with mean 0, NaN, or censoring above the fit threshold are excluded.
    """
    usable, excluded = [], []
    for r in rows:
        mean = r.extra_mean if use_extra else r.mean
        bad = (mean is None or not math.isfinite(mean) or mean <= 0.0
               or (r.paths and r.censored / r.paths > CENSOR_FIT_FRACTION))
        (excluded if bad else usable).append(r)
    if len(usable) < 3:
        return None
    x = np.log([r.param for r in usable])
    y = np.log([(r.extra_mean if use_extra else r.mean) for r in usable])
    sig = np.array([max(r.std_err / r.mean, 1e-12) if r.mean > 0 else 1e-12
                    for r in usable])
    w = 1.0 / sig**2
    X = np.column_stack([x, np.ones_like(x)])
    cov = np.linalg.inv(X.T @ (w[:, None] * X))
    beta = cov @ (X.T @ (w * y))
    resid = y - X @ beta
    dof = max(len(usable) - 2, 1)
    scale = float(resid @ (w * resid)) / dof
    # widen the formal CI by the residual scatter when the fit is poor
    var_slope = cov[0, 0] * max(scale, 1.0)
    return SlopeFit(slope=float(beta[0]), intercept=float(beta[1]),
                    ci_half=1.96 * math.sqrt(var_slope), n_rows=len(usable),
                    excluded=tuple(r.param for r in excluded))


def _build_configs(preset: Preset, plan: SweepPlan, eps):
    dt = plan.dt if plan.dt is not None else preset.dt
    T = plan.T if plan.T is not None else preset.T
    k_w = plan.k_w if plan.k_w is not None else preset.k_w
    cfg_eps = StepperConfig(dt=dt, T=T, noise_modes=k_w, seed=plan.seed, eps=eps)
    cfg_avg = replace(cfg_eps, eps=AVERAGED)
    return cfg_eps, cfg_avg


def _resolve_preset(plan: SweepPlan) -> Preset:
    preset = get_preset(plan.preset, k=plan.k)
    if plan.constant_xi:
        preset = constant_xi(preset)
    return preset


def _metadata(plan: SweepPlan, preset: Preset, notes=()):
    return {
        "preset": preset.name,
        "plan": {
            "eps_grid": list(plan.eps_grid), "paths": plan.paths,
            "d_rule": plan.d_rule, "dt": plan.dt if plan.dt is not None else preset.dt,
            "T": plan.T if plan.T is not None else preset.T,
            "k": plan.k, "k_w": plan.k_w if plan.k_w is not None else preset.k_w,
            "seed": plan.seed, "threads": plan.threads,
            "constant_xi": plan.constant_xi,
        },
        "version": __version__,
        "notes": list(notes),
    }


# ---------------------------------------------------------------------------
# averaging sweep
# ---------------------------------------------------------------------------

def averaging_sweep(plan: SweepPlan) -> ExperimentReport:
    """E sup_t ||u^eps - u*||^2 per eps, with the monotone-decay verdict.

    Blow-up on the largest eps aborts; on smaller eps the affected paths are
    censored and rows above the censoring threshold are excluded from the
    slope fit.
    """
    preset = _resolve_preset(plan)
    op, cs, init = preset.operator, preset.coefficients, preset.initial
    rows = []
    for j, eps in enumerate(plan.eps_grid):
        cfg_eps, cfg_avg = _build_configs(preset, plan, eps)

        def one_chunk(first, count):
            runner = PathRunner(op, cs, cfg_eps, init, path_id=first)
            runner.couple(cfg_avg, init)
            runner.run()
            return [err if err is not None else float(sup)
                    for err, sup in zip(runner.blowups()[:count], runner.sup_sq)]

        outcomes = _map_chunks(one_chunk, plan.paths, plan.threads)
        blew = [o for o in outcomes if isinstance(o, BlowUpError)]
        values = [o for o in outcomes if not isinstance(o, BlowUpError)]
        if blew and j == 0:
            raise RuntimeError(
                f"blow-up at the largest eps = {eps}: {blew[0]} "
                f"(preset {preset.name}, dt = {cfg_eps.dt})")
        d = math.sqrt(eps) if plan.d_rule == "sqrt_eps" else math.nan
        rows.append(_row_stats(values, eps, d, plan.paths, len(blew)))

    decay_ok, detail = _monotone_decay_verdict(rows)
    slope = fit_loglog_slope(rows)
    return ExperimentReport(
        kind="averaging", param_name="eps", rows=rows, slope=slope,
        verdict=decay_ok, verdict_detail=detail,
        metadata=_metadata(plan, preset),
    )


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

def khasminskii_diagnostic(preset_name: str, d_grid, paths: int,
                           dt: float | None = None, T: float | None = None,
                           k: int | None = None, k_w: int | None = None,
                           seed: int = 0, threads: int = 1,
                           eps: float | str = AVERAGED) -> ExperimentReport:
    """E int_0^T ||u - u_frozen||^2 dt per block length d, plus the segment
    variant with the weighted history norm; verdict: fitted slope >= 0.35.
    """
    d_grid = [float(d) for d in d_grid]
    if len(d_grid) > 1 and not all(b < a for a, b in zip(d_grid[:-1], d_grid[1:])):
        raise ValueError("d grid must be strictly decreasing")
    preset = get_preset(preset_name, k=k)
    plan = SweepPlan(preset=preset_name, eps_grid=(1.0,), paths=max(paths, 2),
                     dt=dt, T=T, k=k, k_w=k_w, seed=seed, threads=threads)
    cfg, _ = _build_configs(preset, plan, 1.0)
    cfg = replace(cfg, eps=eps)
    op, cs, init = preset.operator, preset.coefficients, preset.initial
    h = init.h
    dtv = cfg.dt

    def residuals(traj):
        path_res, seg_res = [], []
        for d in d_grid:
            frozen = khasminskii_freeze(traj, d)
            diff_sq = np.sum((traj.states - frozen.states) ** 2, axis=1)
            path_res.append(float(np.trapezoid(diff_sq, dx=dtv)))
            # segment variant: sup_{r <= s} e^{2h(r-s)} ||diff(r)||^2, the
            # history part before t = 0 cancels (frozen path untouched there)
            weighted = np.exp(2.0 * h * traj.times) * diff_sq
            running = np.maximum.accumulate(weighted)
            seg_sq = running * np.exp(-2.0 * h * traj.times)
            seg_res.append(float(np.trapezoid(seg_sq, dx=dtv)))
        return path_res, seg_res

    def one_chunk(first, count):
        runner = PathRunner(op, cs, cfg, init, path_id=first)
        traj = runner.run()
        _raise_first(runner.blowups()[:count])
        return [residuals(traj.row(r)) for r in range(count)]

    outcomes = _map_chunks(one_chunk, paths, threads)
    rows = []
    for i, d in enumerate(d_grid):
        vals = [o[0][i] for o in outcomes]
        seg = [o[1][i] for o in outcomes]
        rows.append(_row_stats(vals, d, d, paths, 0, extra=seg))
    slope = fit_loglog_slope(rows)
    seg_slope = fit_loglog_slope(rows, use_extra=True)
    ok = slope is not None and slope.slope >= SLOPE_VERDICT_FLOOR
    detail = (f"path slope {slope}, segment slope {seg_slope}"
              if slope else "slope unavailable")
    report = ExperimentReport(
        kind="khasminskii", param_name="d", rows=rows, slope=slope,
        verdict=ok, verdict_detail=detail,
        metadata=_metadata(plan, preset, notes=[f"eps={eps}"]),
    )
    report.metadata["segment_slope"] = None if seg_slope is None else seg_slope.slope
    return report


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


# ---------------------------------------------------------------------------
# continuity in initial data
# ---------------------------------------------------------------------------

def continuity_study(preset_name: str, delta_grid, paths: int,
                     dt: float | None = None, T: float | None = None,
                     k: int | None = None, k_w: int | None = None,
                     seed: int = 0, threads: int = 1,
                     eps: float | str = 1.0) -> ExperimentReport:
    """E sup_t ||x - y||^2 for coupled pairs started from phi and phi + delta psi,
    psi the unit-seminorm constant perturbation along the first coordinate.

    The proof-device stopping times are replaced by blow-up detection, which
    is recorded in the report notes.
    """
    delta_grid = [float(d) for d in delta_grid]
    if len(delta_grid) > 1:
        pos = [d for d in delta_grid if d > 0]
        if not all(b < a for a, b in zip(pos[:-1], pos[1:])):
            raise ValueError("delta grid must be strictly decreasing")
    preset = get_preset(preset_name, k=k)
    plan = SweepPlan(preset=preset_name, eps_grid=(1.0,), paths=max(paths, 2),
                     dt=dt, T=T, k=k, k_w=k_w, seed=seed, threads=threads)
    cfg, _ = _build_configs(preset, plan, 1.0)
    cfg = replace(cfg, eps=eps)
    op, cs, init = preset.operator, preset.coefficients, preset.initial
    if not isinstance(init.tail, ConstantTail):
        raise ValueError("continuity study needs a constant-tail initial datum")
    psi = np.zeros(cs.dim)
    psi[0] = 1.0  # unit seminorm: constant history along the first coordinate

    rows = []
    for delta in delta_grid:
        shifted = HistoryBuffer.from_tail(init.h,
                                          ConstantTail(init.tail.value + delta * psi),
                                          horizon=init.horizon)

        def one_chunk(first, count):
            runner = PathRunner(op, cs, cfg, init, path_id=first)
            runner.couple(cfg, shifted)
            runner.run()
            _raise_first(runner.blowups()[:count])
            return [float(sup) for sup in runner.sup_sq[:count]]

        vals = _map_chunks(one_chunk, paths, threads)
        rows.append(_row_stats(vals, delta, math.nan, paths, 0))

    ok, detail = _continuity_verdict(rows)
    pos_rows = [r for r in rows if r.param > 0]
    slope = fit_loglog_slope(pos_rows) if len(pos_rows) >= 3 else None
    report = ExperimentReport(
        kind="continuity", param_name="delta", rows=rows, slope=slope,
        verdict=ok, verdict_detail=detail,
        metadata=_metadata(plan, preset,
                           notes=["stopping times of the uniqueness proof are "
                                  "replaced by blow-up detection", f"eps={eps}"]),
    )
    return report


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


def _sample_fields(rng, dim, radius, n):
    out = []
    for _ in range(n):
        c = rng.standard_normal(dim)
        if rng.uniform() < 0.5:
            c = c / (1.0 + np.arange(dim)) ** 2  # smooth representative
        norm = np.linalg.norm(c)
        if norm > 0:
            c = c * (radius * rng.uniform(0.05, 1.0) / norm)
        out.append(c)
    return out


def hypothesis_audit(preset_name: str, trials: int = 1000, rng_seed: int = 0,
                     k: int | None = None) -> AuditReport:
    """Sampling-based falsification of the structural hypotheses.

    Continuity of the operator pairing holds by construction for the shipped
    coefficient families and is recorded as such rather than sampled.
    """
    preset = get_preset(preset_name, k=k)
    cs, op = preset.coefficients, preset.operator
    prof = cs.profile
    rng = np.random.default_rng(rng_seed)
    results = [HypothesisResult(
        "H1", True, "pairing continuity holds by construction for the "
                    "shipped coefficient families")]

    # growth of f, g and of the operator
    growth = check_growth(cs, trials, rng_seed + 1)
    a_ok, a_detail = _operator_growth_probe(op, cs, rng, trials=200)
    results.append(HypothesisResult(
        "H2", growth.passed and a_ok,
        f"coefficients: worst gap {growth.max_ratio:.3e}; operator: {a_detail}"))

    # coercivity
    c_ok, c_detail = _coercivity_audit(op, cs, rng, trials=200)
    results.append(HypothesisResult("H3", c_ok, c_detail))

    # local Holder continuity of f, g and monotonicity-type bound for A
    holder = check_holder(cs, radius=prof.M, trials=trials, rng_seed=rng_seed + 2)
    m_ok, m_detail = _monotonicity_audit(op, cs, rng, trials=200)
    results.append(HypothesisResult(
        "H4", holder.passed and m_ok,
        f"Holder ratio {holder.max_ratio:.3f} <= L_M = {prof.L_M}; {m_detail}"))

    # one-sided pairing bounds with the delay measures
    prof.check_measure_membership(_audit_h(cs))
    rep_f, rep_g = check_h5(cs, trials=max(trials // 2, 200), rng_seed=rng_seed + 3)
    results.append(HypothesisResult(
        "H5", rep_f.passed and rep_g.passed,
        f"drift gap {rep_f.max_ratio:.3e}, diffusion gap {rep_g.max_ratio:.3e}"))

    # averaging rate tables
    probes = [sample_history(rng, cs.dim, _audit_h(cs), prof.M) for _ in range(4)]
    rate = estimate_rate(cs, probes, [10.0, 100.0, 1000.0])
    h6_ok = _rate_decays(rate.phi1) and _rate_decays(rate.phi2)
    results.append(HypothesisResult(
        "H6", h6_ok,
        f"phi1 {rate.phi1[0]:.3e} -> {rate.phi1[-1]:.3e}, "
        f"phi2 {rate.phi2[0]:.3e} -> {rate.phi2[-1]:.3e}"))
    return AuditReport(preset=preset.name, results=results)


def _audit_h(cs):
    mu = cs.drift.delay_measure
    return mu.rate if mu is not None and mu.kind == "exponential" else 1.0


def _rate_decays(phi):
    first, last = float(phi[0]), float(phi[-1])
    return last <= max(0.05 * first, 1e-9)


def _operator_growth_probe(op, cs, rng, trials):
    prof = cs.profile
    a1 = prof.get("growthA_alpha1", "alpha1")
    M = prof.get("growthA_M", "M")
    p = op.growth_exponent
    worst = -math.inf
    for u in _sample_fields(rng, cs.dim, 5.0, trials):
        dual = op.dual_norm(cs.space, u)
        bnorm = op.b_norm(cs.space, u)
        gap = dual ** (p / (p - 1.0)) - (a1 * bnorm**p + M)
        worst = max(worst, gap)
    return worst <= 1e-9, f"growth gap {worst:.3e} (alpha1={a1}, M={M})"


def _coercivity_audit(op, cs, rng, trials):
    prof = cs.profile
    a1 = prof.get("coercivity_alpha1", "alpha1")
    a2 = prof.get("coercivity_alpha2", "alpha2")
    M = prof.get("coercivity_M", "M")
    worst = -math.inf
    for u in _sample_fields(rng, cs.dim, 5.0, trials):
        if cs.space is not None:
            from .spectral import SpectralField
            pairing, bnorm_p = coercivity_probe(op, SpectralField(cs.space, u))
            l2 = float(np.linalg.norm(u))
        else:
            pairing, bnorm_p = coercivity_probe(op, u)
            l2 = abs(float(u[0]))
        gap = pairing - (-a1 * bnorm_p + a2 * l2**2 + M)
        worst = max(worst, gap)
    return worst <= 1e-9, f"coercivity gap {worst:.3e}"


def _monotonicity_audit(op, cs, rng, trials):
    prof = cs.profile
    worst = -math.inf
    for _ in range(trials):
        u = _sample_fields(rng, cs.dim, 5.0, 1)[0]
        v = _sample_fields(rng, cs.dim, 5.0, 1)[0]
        gap2 = op.monotonicity_gap(cs.space, u, v)
        du = float(np.linalg.norm(u - v))
        bound = prof.alpha1 * du ** (prof.beta + 1.0)
        tol = 1e-8 * (np.linalg.norm(u) + np.linalg.norm(v)) ** 2
        worst = max(worst, gap2 - bound - tol)
    return worst <= 1e-9, f"monotonicity gap {worst:.3e} (beta={prof.beta})"
