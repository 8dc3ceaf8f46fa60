"""Experiments: sweeps, diagnostics, audits, statistics, reproducibility."""

import math

import numpy as np
import pytest

import avg_sfpde.experiments as exp
from avg_sfpde.experiments import (
    ReportRow,
    SweepPlan,
    averaging_sweep,
    continuity_study,
    fit_loglog_slope,
    heat_block_residual_oracle,
    hypothesis_audit,
    khasminskii_diagnostic,
)

# ---------------------------------------------------------------------------
# plan validation and slope fitting
# ---------------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(preset="scalar-linear-osc", eps_grid=(0.1, 0.5), paths=4)
    with pytest.raises(ValueError):
        SweepPlan(preset="scalar-linear-osc", eps_grid=(1.5,), paths=4)
    with pytest.raises(ValueError):
        SweepPlan(preset="scalar-linear-osc", eps_grid=(0.5, 0.1), paths=1)


def test_slope_fit_weighted_and_censoring_exclusion():
    # exact power law mean = param^2, one row censored beyond the threshold
    rows = [ReportRow(param=p, d=p, paths=100, mean=p**2, std_err=0.01 * p**2,
                      censored=0) for p in (0.5, 0.25, 0.125, 0.0625)]
    fit = fit_loglog_slope(rows)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    rows[1] = ReportRow(param=0.25, d=0.25, paths=100, mean=0.25**2,
                        std_err=0.01, censored=6)  # 6% censored
    fit2 = fit_loglog_slope(rows)
    assert fit2.n_rows == 3
    assert 0.25 in fit2.excluded
    # zero-mean rows cannot enter a log fit
    rows[0] = ReportRow(param=0.5, d=0.5, paths=100, mean=0.0, std_err=0.0,
                        censored=0)
    assert fit_loglog_slope(rows) is None  # only 2 usable rows remain


# ---------------------------------------------------------------------------
# averaging sweep
# ---------------------------------------------------------------------------

def test_degenerate_constant_xi_rows_exactly_zero():
    plan = SweepPlan(preset="reaction-diffusion-delay", eps_grid=(0.5, 0.1, 0.02),
                     paths=4, k=8, dt=2e-3, seed=7, constant_xi=True)
    rep = averaging_sweep(plan)
    assert rep.row_means() == [0.0, 0.0, 0.0]
    assert rep.verdict
    assert all(r.std_err == 0.0 for r in rep.rows)


def test_scalar_linear_sweep_recovers_slope_two():
    plan = SweepPlan(preset="scalar-linear-osc", eps_grid=(0.1, 0.01, 0.001),
                     paths=16, seed=7)
    rep = averaging_sweep(plan)
    assert rep.verdict
    assert rep.slope.slope == pytest.approx(2.0, abs=0.3)
    # the coupled difference is deterministic up to rounding cancellation
    assert all(r.std_err <= 1e-12 * r.mean for r in rep.rows)


def test_sweep_reports_sqrt_eps_block_rule():
    plan = SweepPlan(preset="scalar-linear-osc", eps_grid=(0.25, 0.04), paths=2,
                     seed=1, dt=1e-3)
    rep = averaging_sweep(plan)
    assert [r.d for r in rep.rows] == [0.5, 0.2]


def test_sweep_aborts_on_blow_up_at_largest_eps(monkeypatch):
    from avg_sfpde.presets import get_preset

    def explosive(name, k=None):
        import dataclasses
        from avg_sfpde.coefficients import DriftSpec
        p = get_preset(name, k=k)
        cs = dataclasses.replace(p.coefficients,
                                 drift=DriftSpec(seminorm_power=4.0,
                                                 seminorm_gain=1e6))
        init = p.initial
        init.samples[0, 0] = 50.0
        init.tail.value[0] = 50.0
        return dataclasses.replace(p, coefficients=cs)

    monkeypatch.setattr(exp, "get_preset", explosive)
    plan = SweepPlan(preset="scalar-linear-osc", eps_grid=(0.5, 0.1), paths=2,
                     seed=0, dt=0.1, T=2.0)
    with pytest.raises(RuntimeError, match="blow-up at the largest eps"):
        averaging_sweep(plan)


def sweep_values(monkeypatch, **plan):
    """Report of an averaging sweep and its per-path sup errors, row by row."""
    seen = []
    real = exp._row_stats

    def spy(values, *args):
        seen.append(list(values))
        return real(values, *args)

    monkeypatch.setattr(exp, "_row_stats", spy)
    report = averaging_sweep(SweepPlan(**plan))
    monkeypatch.setattr(exp, "_row_stats", real)
    return report, seen


def test_path_bits_independent_of_path_count_and_threads(monkeypatch):
    base = dict(preset="reaction-diffusion-delay", eps_grid=(0.5, 0.1), k=8,
                dt=2e-3, T=0.2, seed=3)
    _, few = sweep_values(monkeypatch, paths=3, threads=1, **base)
    _, many = sweep_values(monkeypatch, paths=20, threads=1, **base)   # two chunks
    _, pooled = sweep_values(monkeypatch, paths=20, threads=2, **base)
    for row_few, row_many, row_pooled in zip(few, many, pooled):
        assert row_few == row_many[:3]
        assert row_many == row_pooled


def test_blow_up_at_smaller_eps_becomes_censored_row(monkeypatch):
    # A genuine blow-up of path 1 inside its chunk.  The noise is gated by
    # xi_2(t/eps) = sin(t/eps) (mean 0, so the averaged twin is noise free),
    # and path 1 gets one large increment at t = 1.57: at eps = 0.5 the gate
    # sin(3.14) lets through a harmless kick, at eps = 0.2 the gate
    # sin(7.85) ~ 1 passes it whole and the explicit reaction term overflows.
    import dataclasses
    from avg_sfpde import integrator
    from avg_sfpde.coefficients import Oscillator
    from avg_sfpde.presets import get_preset

    def gated(name, k=None):
        p = get_preset(name, k=k)
        cs = dataclasses.replace(p.coefficients, osc2=Oscillator.sinusoid(0.0, 1.0, 1.0))
        return dataclasses.replace(p, coefficients=cs)

    real_block = integrator.normal_block

    def kicked(seed, path_id, n_steps, k_w):
        block = real_block(seed, path_id, n_steps, k_w)
        if path_id == 1:
            block[785, 0] = 5e5
        return block

    monkeypatch.setattr(exp, "get_preset", gated)
    plan = dict(preset="reaction-diffusion-delay", eps_grid=(0.5, 0.2), paths=4,
                k=8, dt=2e-3, T=1.6, seed=0)
    _, plain = sweep_values(monkeypatch, **plan)
    monkeypatch.setattr(integrator, "normal_block", kicked)
    rep, values = sweep_values(monkeypatch, **plan)
    assert rep.rows[0].censored == 0
    assert rep.rows[1].censored == 1
    assert rep.rows[1].paths == 4  # nominal count echoed, stats from survivors
    # the other paths of the chunk are bit-identical to the run without the kick
    assert values[1] == [plain[1][0]] + plain[1][2:]


def test_statistical_honesty_se_shrinks_with_sqrt_paths():
    base = dict(preset="scalar-holder-osc", eps_grid=(0.5,), seed=11, dt=2e-3,
                T=0.5)
    rep_n = averaging_sweep(SweepPlan(paths=128, **base))
    rep_2n = averaging_sweep(SweepPlan(paths=256, **base))
    ratio = rep_n.rows[0].std_err / rep_2n.rows[0].std_err
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_reports_reproducible_and_thread_invariant():
    base = dict(preset="reaction-diffusion-delay", eps_grid=(0.5, 0.1), paths=6,
                k=8, dt=2e-3, seed=13)
    rep1 = averaging_sweep(SweepPlan(threads=1, **base))
    rep2 = averaging_sweep(SweepPlan(threads=1, **base))
    rep8 = averaging_sweep(SweepPlan(threads=8, **base))
    for a, b in ((rep1, rep2), (rep1, rep8)):
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mean == rb.mean
            assert ra.std_err == rb.std_err


# ---------------------------------------------------------------------------
# khasminskii diagnostic
# ---------------------------------------------------------------------------

def test_khasminskii_ou_slope_in_expected_band():
    rep = khasminskii_diagnostic("scalar-linear-osc", [0.2, 0.1, 0.05, 0.025],
                                 paths=64, dt=1e-3, T=1.0, seed=3)
    assert rep.verdict
    assert rep.slope.slope >= 0.35
    assert 0.5 <= rep.slope.slope <= 1.2
    # segment variant also decays
    assert rep.metadata["segment_slope"] >= 0.35


def test_khasminskii_deterministic_heat_matches_block_oracle():
    d_grid = [0.2, 0.1, 0.05]
    rep = khasminskii_diagnostic("heat-deterministic", d_grid, paths=2,
                                 dt=2.5e-4, T=1.0, seed=0)
    lam = math.pi**2
    oracle = [heat_block_residual_oracle(lam, 1.0, d) for d in d_grid]
    for got, want in zip(rep.row_means(), oracle):
        assert got == pytest.approx(want, rel=0.05)
    oracle_slope = np.polyfit(np.log(d_grid), np.log(oracle), 1)[0]
    assert rep.slope.slope == pytest.approx(oracle_slope, rel=0.05)
    assert oracle_slope == pytest.approx(2.0, abs=0.3)


def test_khasminskii_one_step_blocks_near_zero():
    rep = khasminskii_diagnostic("scalar-linear-osc", [1e-3], paths=4,
                                 dt=1e-3, T=0.1, seed=1)
    assert rep.row_means()[0] == 0.0


def test_khasminskii_rejects_increasing_grid():
    with pytest.raises(ValueError):
        khasminskii_diagnostic("scalar-linear-osc", [0.05, 0.1], paths=2,
                               dt=1e-3, T=0.5)


# ---------------------------------------------------------------------------
# continuity study
# ---------------------------------------------------------------------------

def test_continuity_linear_rows_match_delta_squared_exactly():
    deltas = [0.1, 0.01, 0.001, 0.0]
    rep = continuity_study("scalar-linear-osc", deltas, paths=8, dt=1e-3,
                           T=1.0, seed=5, eps=0.5)
    assert rep.verdict
    for row, delta in zip(rep.rows, deltas):
        # difference dynamics are deterministic; sup sits at t = 0
        assert row.mean == pytest.approx(delta**2, rel=1e-12, abs=1e-30)
    assert rep.rows[-1].mean == 0.0


def test_continuity_holder_rows_strictly_decreasing():
    rep = continuity_study("scalar-holder-osc", [0.1, 0.01, 0.001, 0.0],
                           paths=16, dt=1e-3, T=0.5, seed=5, eps=0.5)
    assert rep.verdict
    means = rep.row_means()
    assert means[0] > means[1] > means[2] > means[3] == 0.0
    assert any("blow-up detection" in n for n in rep.metadata["notes"])


# ---------------------------------------------------------------------------
# hypothesis audit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,k", [
    ("scalar-linear-osc", None),
    ("scalar-holder-osc", None),
    ("porous-media-sin", 8),
    ("reaction-diffusion-delay", 8),
])
def test_shipped_presets_pass_all_audited_hypotheses(name, k):
    audit = hypothesis_audit(name, trials=400, rng_seed=1, k=k)
    failed = [r.name for r in audit.results if not r.passed]
    assert audit.all_passed, failed


def test_broken_quadratic_fails_growth_with_witness():
    audit = hypothesis_audit("broken-quadratic", trials=400, rng_seed=1)
    h2 = audit.by_name("H2")
    assert not h2.passed
    assert "worst gap" in h2.detail


def test_porous_media_audit_includes_monotonicity():
    audit = hypothesis_audit("porous-media-sin", trials=200, rng_seed=2, k=8)
    h4 = audit.by_name("H4")
    assert h4.passed
    assert "beta=1" in h4.detail
