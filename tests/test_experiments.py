"""Experiments: sweeps, diagnostics, audits, statistics, reproducibility."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avg_sfpde.experiments as exp
from avg_sfpde import integrator
from avg_sfpde.coefficients import (
    CoefficientSet,
    DriftSpec,
    Oscillator,
    check_growth,
    check_h5,
    check_holder,
    check_holder_averaged,
    eval_diffusion_amplitude,
    eval_drift,
)
from avg_sfpde.delay import delay_pair_integral, pair_seminorm, seminorm_h, state_norm
from avg_sfpde.experiments import (
    ReportRow,
    averaging_sweep,
    continuity_study,
    fit_loglog_slope,
    hypothesis_audit,
    khasminskii_diagnostic,
)
from avg_sfpde.presets import constant_xi, get_preset
from avg_sfpde.spectral import PdeOperator, coercivity_probe
from oracles import heat_block_residual_oracle, linear_freeze_residual_oracle

LINEAR = get_preset("scalar-linear-osc")
RD8 = get_preset("reaction-diffusion-delay", k=8)

# ---------------------------------------------------------------------------
# argument validation and slope fitting
# ---------------------------------------------------------------------------

def test_sweep_argument_validation():
    with pytest.raises(ValueError):
        averaging_sweep(LINEAR, (0.1, 0.5), paths=4)
    with pytest.raises(ValueError):
        averaging_sweep(LINEAR, (1.5,), paths=4)
    with pytest.raises(ValueError):
        averaging_sweep(LINEAR, (0.5, 0.1), paths=1)
    with pytest.raises(ValueError, match="d_rule"):
        averaging_sweep(LINEAR, (0.5, 0.1), paths=4, d_rule="sqrt")


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
    assert fit2 == fit_loglog_slope([rows[0], rows[2], rows[3]])
    # zero-mean rows cannot enter a log fit
    rows[0] = ReportRow(param=0.5, d=0.5, paths=100, mean=0.0, std_err=0.0,
                        censored=0)
    assert fit_loglog_slope(rows) is None  # only 2 usable rows remain


def test_slope_fit_excludes_a_row_without_a_log_param():
    # log 0 is undefined: a delta = 0 row with a positive mean leaves the fit
    # of the three rows beside it
    good = [ReportRow(param=p, d=p, paths=100, mean=p**2, std_err=0.01 * p**2,
                      censored=0) for p in (0.5, 0.25, 0.125)]
    zero = ReportRow(param=0.0, d=0.0, paths=100, mean=0.01, std_err=0.001, censored=0)
    fit = fit_loglog_slope(good + [zero])
    assert fit == fit_loglog_slope(good)
    assert fit_loglog_slope(good[:2] + [zero]) is None


def test_segment_slope_fit_reads_the_segment_std_errors():
    # the segment fit is the plain fit of the segment pair (extra_mean,
    # extra_std_err): the path residual's std errors do not weight it
    rows = [ReportRow(param=p, d=p, paths=100, mean=p**2, std_err=0.01 * p**2, censored=0,
                      extra_mean=3.0 * p**1.5 * (1.0 + 0.1 * (-1) ** i),
                      extra_std_err=0.05 * p**(1.0 + 0.3 * i))
            for i, p in enumerate((0.5, 0.25, 0.125, 0.0625))]
    moved = [dataclasses.replace(r, mean=r.extra_mean, std_err=r.extra_std_err) for r in rows]
    assert fit_loglog_slope(rows, use_extra=True) == fit_loglog_slope(moved)


# ---------------------------------------------------------------------------
# averaging sweep
# ---------------------------------------------------------------------------

def test_degenerate_constant_xi_rows_exactly_zero():
    rep = averaging_sweep(constant_xi(RD8), (0.5, 0.1, 0.02), paths=4, dt=2e-3,
                          seed=7)
    assert rep.row_means() == [0.0, 0.0, 0.0]
    assert rep.verdict
    assert all(r.std_err == 0.0 for r in rep.rows)


CONSTANT_XI = {"scalar": constant_xi(get_preset("scalar-holder-osc")),
               "field": constant_xi(RD8)}


@pytest.mark.parametrize("kind", sorted(CONSTANT_XI))
@given(seed=st.integers(0, 2**31 - 1), paths=st.integers(2, 40))
@settings(max_examples=10, deadline=None)
def test_constant_xi_rows_exactly_zero_for_any_seed_and_path_count(kind, seed, paths):
    # the degenerate twin's fast and averaged systems are one system, so the
    # coupled distance is exactly zero on every path, whatever its noise
    rep = averaging_sweep(CONSTANT_XI[kind], (0.5, 0.1), paths, dt=2e-3, T=0.1,
                          seed=seed)
    assert [r.mean for r in rep.rows] == [0.0, 0.0]
    assert [r.std_err for r in rep.rows] == [0.0, 0.0]


def test_scalar_linear_sweep_recovers_slope_two():
    rep = averaging_sweep(LINEAR, (0.1, 0.01, 0.001), paths=16, seed=7)
    assert rep.verdict
    assert rep.slope.slope == pytest.approx(2.0, abs=0.3)
    # the coupled difference is deterministic up to rounding cancellation
    assert all(r.std_err <= 1e-12 * r.mean for r in rep.rows)


def test_sweep_reports_sqrt_eps_block_rule():
    rep = averaging_sweep(LINEAR, (0.25, 0.04), paths=2, seed=1, dt=1e-3)
    assert [r.d for r in rep.rows] == [0.5, 0.2]


def test_sweep_aborts_on_blow_up_at_largest_eps():
    p = get_preset("scalar-linear-osc")
    cs = dataclasses.replace(p.coefficients,
                             drift=DriftSpec(seminorm_power=4.0, seminorm_gain=1e6))
    init = p.initial
    init.samples[0, 0] = 50.0
    init.tail.value[0] = 50.0
    explosive = dataclasses.replace(p, coefficients=cs)
    with pytest.raises(RuntimeError, match="blow-up at the largest eps"):
        averaging_sweep(explosive, (0.5, 0.1), paths=2, seed=0, dt=0.1, T=2.0)


def sweep_values(monkeypatch, study=averaging_sweep, **sweep):
    """Report of a study (an averaging sweep unless given) and its per-path
    values, row by row."""
    seen = []
    real = exp._row_stats

    def spy(values, *args):
        seen.append(list(values))
        return real(values, *args)

    monkeypatch.setattr(exp, "_row_stats", spy)
    report = study(**sweep)
    monkeypatch.setattr(exp, "_row_stats", real)
    return report, seen


def test_path_bits_independent_of_path_count_and_threads(monkeypatch):
    # a study steps one row per path, at most MAX_WIDTH per batch;
    # capping MAX_WIDTH at 16, 64 and 256 runs the same paths in batches of
    # those widths, one or several per row, on one thread or two
    base = dict(preset=RD8, eps_grid=(0.5, 0.1), dt=2e-3, T=0.2, seed=3)
    monkeypatch.setattr(integrator, "MAX_WIDTH", 16)
    _, ref = sweep_values(monkeypatch, paths=300, threads=1, **base)
    for width in (16, 64, 256):
        monkeypatch.setattr(integrator, "MAX_WIDTH", width)
        for paths in (3, 20, 70, 300):
            for threads in (1, 2):
                _, rows = sweep_values(monkeypatch, paths=paths, threads=threads, **base)
                assert rows == [row[:paths] for row in ref], (width, paths, threads)


def kick_path_one(monkeypatch, step=100):
    """Give path 1 one large increment at ``step`` (t = 0.2 at dt = 2e-3) in
    its noise draw, which every twin of every study row steps on; the
    explicit reaction term then overflows where the noise reaches it."""
    real_slab = integrator.normal_slab

    def kicked(streams, path_id, first, m, k_w):
        slab = real_slab(streams, path_id, first, m, k_w)
        r = 1 - path_id                   # the column of path 1, if the slab holds it
        if 0 <= r < len(streams) and first <= step < first + m:
            slab[step - first, r, 0] = 5e5
        return slab

    monkeypatch.setattr(integrator, "normal_slab", kicked)


def poison_path_one(monkeypatch, step_of):
    """Make path 1 of twin j non-finite before step ``step_of(cs, initial)``
    of that twin, for each twin for which it is not None: row j * W + 1 of the
    stacked state, so that twin alone records a blow-up at the end of that
    step."""
    real_advance = integrator.PathRunner._advance

    def poisoned(runner, n, dW):
        for j, (cs, _, initial) in enumerate(runner.twins):
            if step_of(cs, initial) == n:
                runner.x = runner.x.copy()
                runner.x[j * runner.rows + 1] = np.inf
        real_advance(runner, n, dW)

    monkeypatch.setattr(integrator.PathRunner, "_advance", poisoned)


def check_blow_up_at_smaller_eps_is_censored(monkeypatch, paths):
    # A genuine blow-up of path 1 inside its batch.  The noise is gated by
    # xi_2(t/eps) = sin(t/eps) (mean 0, so the averaged twin is noise free),
    # and path 1 gets one large increment at t = 1.57: at eps = 0.5 the gate
    # sin(3.14) lets through a harmless kick, at eps = 0.2 the gate
    # sin(7.85) ~ 1 passes it whole and the explicit reaction term overflows.
    cs = dataclasses.replace(RD8.coefficients, osc2=Oscillator.sinusoid(0.0, 1.0, 1.0))
    sweep = dict(preset=dataclasses.replace(RD8, coefficients=cs), eps_grid=(0.5, 0.2),
                 paths=paths, dt=2e-3, T=1.6, seed=0)
    _, plain = sweep_values(monkeypatch, **sweep)
    kick_path_one(monkeypatch, step=785)
    rep, values = sweep_values(monkeypatch, **sweep)
    assert rep.rows[0].censored == 0
    assert rep.rows[1].censored == 1
    assert rep.rows[1].paths == paths  # nominal count echoed, stats from survivors
    # the other paths of the batch are bit-identical to the run without the kick
    assert values[1] == [plain[1][0]] + plain[1][2:]


def test_blow_up_at_smaller_eps_becomes_censored_row(monkeypatch):
    check_blow_up_at_smaller_eps_is_censored(monkeypatch, paths=4)


def test_blow_up_inside_a_48_row_batch_is_censored(monkeypatch):
    # 40 paths are one 48-row batch: the halving retry and the censoring of
    # path 1 run at that width, next to 39 paths that must not move
    check_blow_up_at_smaller_eps_is_censored(monkeypatch, paths=40)


RD_SMALL = dict(dt=2e-3, T=0.4, seed=0, eps=0.5)


def test_blow_up_in_block_freezing_aborts(monkeypatch):
    # every row of the diagnostic uses the same paths, so the blow-up is in
    # the first row
    kick_path_one(monkeypatch)
    with pytest.raises(RuntimeError, match=r"largest d = 0\.2: state blew up "
                                           r"at t = \S+ \(mode 0\)"):
        khasminskii_diagnostic(RD8, (0.2, 0.1, 0.05), 4, **RD_SMALL)


def shift_of(initial):
    """The delta of a continuity twin: its start minus the preset's, along
    the first coordinate."""
    return initial.tail.value[0] - RD8.initial.tail.value[0]


def test_blow_up_in_later_continuity_row_is_censored(monkeypatch):
    # the rows share one noise draw, so the blow-up goes into the batch of
    # the delta = 0.01 twin alone
    grid = (0.1, 0.01, 0.0)
    plain = continuity_study(RD8, grid, 4, **RD_SMALL)
    poison_path_one(monkeypatch,
                    lambda cs, init: 100 if shift_of(init) == pytest.approx(0.01) else None)
    rep = continuity_study(RD8, grid, 4, **RD_SMALL)
    assert [r.censored for r in rep.rows] == [0, 1, 0]
    assert rep.rows[1].paths == 4
    assert [rep.rows[i].mean for i in (0, 2)] == [plain.rows[i].mean for i in (0, 2)]
    assert rep.rows[1].mean != plain.rows[1].mean  # stats from the 3 survivors


def test_double_blow_up_in_first_sweep_row_names_the_eps_twin(monkeypatch):
    # path 1 blows up in both twins: the averaged twin at t = 0.11, the eps
    # twin at t = 0.31.  The abort names the eps twin's time and mode.
    poison_path_one(monkeypatch, lambda cs, init: 30 if cs.osc1.terms else 10)
    with pytest.raises(RuntimeError, match=r"largest eps = 0\.5: state blew up "
                                           r"at t = 0\.31 \(mode 0\)"):
        averaging_sweep(LINEAR, (0.5, 0.1), paths=4, dt=0.01, T=0.5, seed=0)


def test_double_blow_up_in_first_continuity_row_names_the_shifted_twin(monkeypatch):
    # path 1 blows up in both twins: the unshifted one at t = 0.022, the
    # delta = 0.1 twin at t = 0.062.  The abort names the shifted twin.
    poison_path_one(monkeypatch, lambda cs, init: 30 if shift_of(init) else 10)
    with pytest.raises(RuntimeError, match=r"largest delta = 0\.1: state blew up "
                                           r"at t = 0\.062 \(mode 0\)"):
        continuity_study(RD8, (0.1, 0.01, 0.0), 4, **RD_SMALL)


SHARED = {"scalar-linear-osc": LINEAR,
          "scalar-holder-osc": get_preset("scalar-holder-osc"),
          "reaction-diffusion-delay": RD8,
          "porous-media-sin": get_preset("porous-media-sin", k=8)}


@pytest.mark.parametrize("name", sorted(SHARED))
def test_rows_sharing_one_batch_have_the_bits_of_one_row_studies(monkeypatch, name):
    # every row of a study steps beside one shared batch on one noise draw;
    # each row's per-path values equal those of that row run alone, at any
    # batch width and thread count.  The degenerate sweep's rows and the
    # delta = 0 row stay exactly zero.
    p = SHARED[name]
    # (study, preset, grid keyword, grid, indices of the exactly-zero rows)
    studies = [(averaging_sweep, p, "eps_grid", (0.5, 0.1, 0.02), ()),
               (averaging_sweep, constant_xi(p), "eps_grid", (0.5, 0.1, 0.02), (0, 1, 2)),
               (continuity_study, p, "delta_grid", (0.1, 0.01, 0.0), (2,))]
    for width in (16, 64):
        monkeypatch.setattr(integrator, "MAX_WIDTH", width)
        for threads in (1, 2):
            for study, preset, key, grid, zero_rows in studies:
                kw = dict(study=study, preset=preset, paths=20, dt=2e-3, T=0.1, seed=4,
                          threads=threads)
                _, rows = sweep_values(monkeypatch, **kw, **{key: grid})
                alone = [sweep_values(monkeypatch, **kw, **{key: (g,)})[1][0] for g in grid]
                assert rows == alone, (study.__name__, width, threads)
                assert all(rows[i] == [0.0] * 20 for i in zero_rows)


def test_field_sweep_steps_only_the_paths_it_asks_for(monkeypatch):
    # 4 paths under the averaged twin and 3 eps twins are 16 rows, one
    # transform block: no twin is padded with further path ids
    widths = set()
    real = PdeOperator.nonlinear_from_values

    def spy(op, space, values):
        widths.add(values.shape)
        return real(op, space, values)

    monkeypatch.setattr(PdeOperator, "nonlinear_from_values", spy)
    averaging_sweep(RD8, (0.5, 0.1, 0.02), paths=4, dt=2e-3, T=0.02, seed=0)
    assert widths == {(16, RD8.coefficients.space.m)}


def test_sweep_steps_all_twins_in_one_kernel_call_per_step(monkeypatch):
    # 20 paths are one 20-row batch; 130 steps are ceil(130 / SLAB) slabs.
    # The batch draws the noise of all its rows in one call per slab of
    # steps, and each step advances the averaged twin and every eps twin in
    # one call, for any grid.
    calls = {"normal_slab": 0, "_advance": 0}
    real_slab, real_advance = integrator.normal_slab, integrator.PathRunner._advance

    def slab(*args):
        calls["normal_slab"] += 1
        return real_slab(*args)

    def advance(runner, n, dW):
        calls["_advance"] += 1
        real_advance(runner, n, dW)

    monkeypatch.setattr(integrator, "normal_slab", slab)
    monkeypatch.setattr(integrator.PathRunner, "_advance", advance)
    slabs = math.ceil(130 / integrator.SLAB)
    for grid in ((0.5, 0.1, 0.02), (0.5,)):
        calls.update(normal_slab=0, _advance=0)
        averaging_sweep(LINEAR, grid, paths=20, dt=0.01, T=1.3, seed=2)
        assert calls == {"normal_slab": slabs, "_advance": 130}


@pytest.mark.parametrize("name,built", [("scalar-linear-osc", "per slab"),
                                        ("scalar-holder-osc", "per step")])
def test_state_free_terms_are_built_once_per_slab(monkeypatch, name, built):
    # scalar-linear-osc's F = 1 and G = 1 read no state, so a 130-step sweep
    # builds each once per slab of steps; scalar-holder-osc's read the state
    # and are built at every step
    calls = dict.fromkeys(("compose_drift", "diffusion_from_values"), 0)
    for attr in calls:
        def counted(cs, *args, _attr=attr, _real=getattr(CoefficientSet, attr)):
            calls[_attr] += 1
            return _real(cs, *args)

        monkeypatch.setattr(CoefficientSet, attr, counted)
    averaging_sweep(get_preset(name), (0.5, 0.1, 0.02), paths=20, dt=0.01, T=1.3, seed=2)
    want = math.ceil(130 / integrator.SLAB) if built == "per slab" else 130
    assert calls == {"compose_drift": want, "diffusion_from_values": want}


def test_statistical_honesty_se_shrinks_with_sqrt_paths():
    holder = get_preset("scalar-holder-osc")
    base = dict(seed=11, dt=2e-3, T=0.5)
    rep_n = averaging_sweep(holder, (0.5,), paths=128, **base)
    rep_2n = averaging_sweep(holder, (0.5,), paths=256, **base)
    ratio = rep_n.rows[0].std_err / rep_2n.rows[0].std_err
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_reports_reproducible_and_thread_invariant():
    base = dict(preset=RD8, eps_grid=(0.5, 0.1), paths=6, dt=2e-3, seed=13)
    rep1 = averaging_sweep(threads=1, **base)
    rep2 = averaging_sweep(threads=1, **base)
    rep8 = averaging_sweep(threads=8, **base)
    for a, b in ((rep1, rep2), (rep1, rep8)):
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mean == rb.mean
            assert ra.std_err == rb.std_err


# ---------------------------------------------------------------------------
# khasminskii diagnostic
# ---------------------------------------------------------------------------

def test_khasminskii_ou_slope_in_expected_band():
    rep = khasminskii_diagnostic(LINEAR, [0.2, 0.1, 0.05, 0.025], paths=64, dt=1e-3, T=1.0, seed=3)
    assert rep.verdict
    assert rep.slope.slope >= 0.35
    assert 0.5 <= rep.slope.slope <= 1.2
    # segment variant also decays
    assert fit_loglog_slope(rep.rows, use_extra=True).slope >= 0.35


@pytest.mark.parametrize("eps", [exp.AVERAGED, 0.1])
def test_khasminskii_ou_rows_match_the_exact_mean(eps):
    # 400 paths at seed 3, each row within 4 of its std errors of the exact
    # mean (the rows share their paths); the numbers were fixed before the
    # test first ran.  The segment residual bounds the path residual on every
    # path, so on every row's mean too.
    d_grid = [0.2, 0.1, 0.05, 0.025]
    rep = khasminskii_diagnostic(LINEAR, d_grid, paths=400, dt=1e-3, T=1.0, seed=3, eps=eps)
    cs = LINEAR.coefficients
    osc, clock = (cs.averaged().osc1, 1.0) if eps == exp.AVERAGED else (cs.osc1, eps)
    for row, d in zip(rep.rows, d_grid):
        want = linear_freeze_residual_oracle(lambda t: osc(t / clock), 1e-3, 1.0, d)
        assert abs(row.mean - want) <= 4.0 * row.std_err
        assert row.censored == 0
        assert row.extra_mean >= row.mean


def test_khasminskii_deterministic_heat_matches_block_oracle():
    d_grid = [0.2, 0.1, 0.05]
    rep = khasminskii_diagnostic(get_preset("heat-deterministic"), d_grid, paths=2,
                                 dt=2.5e-4, T=1.0, seed=0)
    lam = math.pi**2
    oracle = [heat_block_residual_oracle(lam, 1.0, d) for d in d_grid]
    for got, want in zip(rep.row_means(), oracle):
        assert got == pytest.approx(want, rel=0.05)
    oracle_slope = np.polyfit(np.log(d_grid), np.log(oracle), 1)[0]
    assert rep.slope.slope == pytest.approx(oracle_slope, rel=0.05)
    assert oracle_slope == pytest.approx(2.0, abs=0.3)


def test_khasminskii_one_step_blocks_near_zero():
    rep = khasminskii_diagnostic(LINEAR, [1e-3], paths=4,
                                 dt=1e-3, T=0.1, seed=1)
    assert rep.row_means()[0] == 0.0


def test_khasminskii_block_far_longer_than_the_run_freezes_its_start():
    # 1e300 / dt steps do not fit a C long; any block at least as long as the
    # run freezes it at t = 0, as d = 0.5 does at T = 0.2
    kw = dict(paths=2, dt=0.01, T=0.2, seed=0)
    huge = khasminskii_diagnostic(LINEAR, [1e300, 0.1], **kw)
    whole = khasminskii_diagnostic(LINEAR, [0.5, 0.1], **kw)
    assert huge.row_means() == whole.row_means()
    assert huge.rows[0].extra_mean == whole.rows[0].extra_mean


def test_khasminskii_rejects_increasing_grid():
    with pytest.raises(ValueError):
        khasminskii_diagnostic(LINEAR, [0.05, 0.1], paths=2,
                               dt=1e-3, T=0.5)


# ---------------------------------------------------------------------------
# continuity study
# ---------------------------------------------------------------------------

def test_continuity_linear_rows_match_delta_squared_exactly():
    deltas = [0.1, 0.01, 0.001, 0.0]
    rep = continuity_study(LINEAR, deltas, paths=8, dt=1e-3,
                           T=1.0, seed=5, eps=0.5)
    assert rep.verdict
    for row, delta in zip(rep.rows, deltas):
        # difference dynamics are deterministic; sup sits at t = 0
        assert row.mean == pytest.approx(delta**2, rel=1e-12, abs=1e-30)
    assert rep.rows[-1].mean == 0.0


def test_continuity_holder_rows_strictly_decreasing():
    rep = continuity_study(get_preset("scalar-holder-osc"), [0.1, 0.01, 0.001, 0.0],
                           paths=16, dt=1e-3, T=0.5, seed=5, eps=0.5)
    assert rep.verdict
    means = rep.row_means()
    assert means[0] > means[1] > means[2] > means[3] == 0.0


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
    audit = hypothesis_audit(get_preset(name, k=k), trials=400, rng_seed=1)
    failed = [r.name for r in audit.results if not r.passed]
    assert audit.all_passed, failed


def test_broken_quadratic_fails_growth_with_witness():
    audit = hypothesis_audit(get_preset("broken-quadratic"), trials=400, rng_seed=1)
    h2 = audit.by_name("H2")
    assert not h2.passed
    assert "worst gap" in h2.detail


def test_porous_media_audit_includes_monotonicity():
    audit = hypothesis_audit(get_preset("porous-media-sin", k=8), trials=200,
                             rng_seed=2)
    h4 = audit.by_name("H4")
    assert h4.passed
    assert "beta=1" in h4.detail


# The audit's lines, as audit.txt holds them, at trials = 20 (reaction-diffusion
# at k = 8): any drift in the bits of the checkers or the delay functionals
# that reaches the printed figures fails here.
AUDIT_TEXT = {
    ("porous-media-sin", 0): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -2.340e+00; operator: growth gap -7.847e-01 (alpha1=3.0, M=1.0))
H3: PASS (coercivity gap -6.331e-02)
H4: PASS (Holder ratio 0.568 <= L_M = 1.5; monotonicity gap -2.692e+00 (beta=1.0))
H5: PASS (drift gap -1.567e+00, diffusion gap -6.263e-01)
H6: PASS (phi1 2.299e-02 -> 1.122e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("porous-media-sin", 1): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -2.380e+00; operator: growth gap -7.966e-01 (alpha1=3.0, M=1.0))
H3: PASS (coercivity gap -8.469e-02)
H4: PASS (Holder ratio 0.418 <= L_M = 1.5; monotonicity gap -8.783e-02 (beta=1.0))
H5: PASS (drift gap -8.579e-01, diffusion gap -4.309e-01)
H6: PASS (phi1 2.248e-02 -> 1.096e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("reaction-diffusion-delay", 0): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -3.536e+00; operator: growth gap -1.848e+01 (alpha1=10.0, M=1.0))
H3: PASS (coercivity gap -2.558e-02)
H4: PASS (Holder ratio 0.553 <= L_M = 3.5; monotonicity gap -2.527e+00 (beta=1.0))
H5: PASS (drift gap -2.058e+00, diffusion gap -5.317e-01)
H6: PASS (phi1 3.548e-02 -> 1.731e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("reaction-diffusion-delay", 1): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -2.388e+00; operator: growth gap -2.255e+01 (alpha1=10.0, M=1.0))
H3: PASS (coercivity gap -4.228e-02)
H4: PASS (Holder ratio 0.609 <= L_M = 3.5; monotonicity gap -6.685e+01 (beta=1.0))
H5: PASS (drift gap -3.467e+00, diffusion gap -7.524e-01)
H6: PASS (phi1 4.410e-02 -> 2.151e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("scalar-linear-osc", 0): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -1.552e+00; operator: growth gap -1.000e+00 (alpha1=1.0, M=1.0))
H3: PASS (coercivity gap -1.063e+00)
H4: PASS (Holder ratio 0.000 <= L_M = 1.0; monotonicity gap -6.115e-04 (beta=1.0))
H5: PASS (drift gap -5.032e-03, diffusion gap -2.516e-03)
H6: PASS (phi1 1.696e-01 -> 8.274e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("scalar-linear-osc", 1): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -1.878e+00; operator: growth gap -1.000e+00 (alpha1=1.0, M=1.0))
H3: PASS (coercivity gap -1.088e+00)
H4: PASS (Holder ratio 0.000 <= L_M = 1.0; monotonicity gap -8.602e-06 (beta=1.0))
H5: PASS (drift gap -4.312e-06, diffusion gap -2.156e-06)
H6: PASS (phi1 1.651e-01 -> 8.053e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("scalar-holder-osc", 0): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -1.298e+00; operator: growth gap -2.500e+00 (alpha1=1.0, M=2.5))
H3: PASS (coercivity gap -2.657e+00)
H4: PASS (Holder ratio 1.410 <= L_M = 3.5; monotonicity gap -6.115e-04 (beta=1.0))
H5: PASS (drift gap -7.594e-02, diffusion gap -5.004e-02)
H6: PASS (phi1 5.684e-02 -> 2.773e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("scalar-holder-osc", 1): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: PASS (coefficients: worst gap -1.823e+00; operator: growth gap -2.500e+00 (alpha1=1.0, M=2.5))
H3: PASS (coercivity gap -2.720e+00)
H4: PASS (Holder ratio 1.245 <= L_M = 3.5; monotonicity gap -8.602e-06 (beta=1.0))
H5: PASS (drift gap -2.212e-02, diffusion gap -1.468e-03)
H6: PASS (phi1 5.303e-02 -> 2.587e-04, phi2 0.000e+00 -> 0.000e+00)
""",
    ("broken-quadratic", 0): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: FAIL (coefficients: worst gap 6.774e+01; operator: growth gap -1.000e+00 (alpha1=1.0, M=1.0))
H3: PASS (coercivity gap -1.063e+00)
H4: FAIL (Holder ratio 1.378 <= L_M = 1.0; monotonicity gap -6.115e-04 (beta=1.0))
H5: FAIL (drift gap 9.303e+00, diffusion gap -2.516e-03)
H6: PASS (phi1 0.000e+00 -> 0.000e+00, phi2 0.000e+00 -> 0.000e+00)
""",
    ("broken-quadratic", 1): """\
H1: PASS (pairing continuity holds by construction for the shipped coefficient families)
H2: FAIL (coefficients: worst gap 7.151e+01; operator: growth gap -1.000e+00 (alpha1=1.0, M=1.0))
H3: PASS (coercivity gap -1.088e+00)
H4: FAIL (Holder ratio 1.597 <= L_M = 1.0; monotonicity gap -8.602e-06 (beta=1.0))
H5: FAIL (drift gap 9.338e+00, diffusion gap -2.156e-06)
H6: PASS (phi1 0.000e+00 -> 0.000e+00, phi2 0.000e+00 -> 0.000e+00)
""",
}


@pytest.mark.parametrize("name, seed", list(AUDIT_TEXT))
def test_audit_prints_its_recorded_text(name, seed):
    k = 8 if name == "reaction-diffusion-delay" else None
    audit = hypothesis_audit(get_preset(name, k=k), trials=20, rng_seed=seed)
    lines = [f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})" for r in audit.results]
    assert "\n".join(lines) + "\n" == AUDIT_TEXT[name, seed]


# Every falsifier keeps the draw that gave its max_ratio.  Recomputed from
# public calls at that witness, the gap (or ratio) must equal max_ratio bit for
# bit; the float.hex() of each max_ratio is pinned.
WITNESS_TRIALS = 30
WITNESS_SEED = 7


def _growth(p, seed):
    return check_growth(p.coefficients, WITNESS_TRIALS, seed)


def _growth_at(p, w):
    cs, prof = p.coefficients, p.coefficients.profile
    buf, t = w
    fn = state_norm(eval_drift(cs, t, buf))
    gn = state_norm(eval_diffusion_amplitude(cs, t, buf))
    return max(fn, gn) - (prof.get("growth_alpha1") * seminorm_h(buf)
                          + prof.get("growth_M"))


def _holder_at(cs):
    def at(p, w):
        a, b, t = w
        ratio = state_norm(eval_drift(cs(p), t, a) - eval_drift(cs(p), t, b))
        return ratio / pair_seminorm(a, b) ** p.coefficients.profile.gamma
    return at


def _h5_drift_at(p, w):
    cs, prof = p.coefficients, p.coefficients.profile
    a, b, t = w
    head_diff = a.head - b.head
    lhs = float(np.dot(eval_drift(cs, t, a) - eval_drift(cs, t, b), head_diff))
    rhs = (state_norm(head_diff) ** (prof.gamma + 1.0)
           + delay_pair_integral(a, b, prof.mu1, prof.gamma + 1.0))
    return lhs - prof.get("h5_alpha2") * rhs


def _h5_diffusion_at(p, w):
    cs, prof = p.coefficients, p.coefficients.profile
    a, b, t = w
    lhs = state_norm(eval_diffusion_amplitude(cs, t, a) - eval_diffusion_amplitude(cs, t, b)) ** 2
    return lhs - prof.get("h5_alpha1") * delay_pair_integral(
        a, b, prof.mu2, 2.0 * prof.gamma)


def _probe(fn):
    return lambda p, seed: fn(p.operator, p.coefficients, np.random.default_rng(seed),
                              WITNESS_TRIALS)


def _operator_growth_at(p, u):
    op, space, prof = p.operator, p.coefficients.space, p.coefficients.profile
    q = op.growth_exponent
    return op.dual_norm(space, u) ** (q / (q - 1.0)) - (
        prof.get("growthA_alpha1") * op.b_norm(space, u) ** q
        + prof.get("growthA_M"))


def _coercivity_at(p, u):
    prof = p.coefficients.profile
    pairing, bnorm_p = coercivity_probe(p.operator, p.coefficients.space, u)
    return pairing - (-prof.get("coercivity_alpha1") * bnorm_p
                      + prof.get("coercivity_alpha2") * float(np.linalg.norm(u)) ** 2
                      + prof.get("coercivity_M"))


def _monotonicity_at(p, w):
    prof = p.coefficients.profile
    u, v = w
    bound = prof.alpha1 * float(np.linalg.norm(u - v)) ** (prof.beta + 1.0)
    tol = 1e-8 * (np.linalg.norm(u) + np.linalg.norm(v)) ** 2
    return p.operator.monotonicity_gap(p.coefficients.space, u, v) - bound - tol


# check name -> (its report at a preset and seed, its gap at a witness)
FALSIFIERS = {
    "growth": (_growth, _growth_at),
    "holder": (lambda p, seed: check_holder(p.coefficients, 3.0, WITNESS_TRIALS, seed),
               _holder_at(lambda p: p.coefficients)),
    "holder_averaged": (
        lambda p, seed: check_holder_averaged(p.coefficients, 3.0, WITNESS_TRIALS, seed),
        _holder_at(lambda p: p.coefficients.averaged())),
    "h5_drift": (lambda p, seed: check_h5(p.coefficients, WITNESS_TRIALS, seed)[0],
                 _h5_drift_at),
    "h5_diffusion": (lambda p, seed: check_h5(p.coefficients, WITNESS_TRIALS, seed)[1],
                     _h5_diffusion_at),
    "operator_growth": (_probe(exp._operator_growth_probe), _operator_growth_at),
    "coercivity": (_probe(exp._coercivity_audit), _coercivity_at),
    "monotonicity": (_probe(exp._monotonicity_audit), _monotonicity_at),
}
WITNESS_PRESETS = {"reaction-diffusion-delay": RD8,
                   "broken-quadratic": get_preset("broken-quadratic")}
# max_ratio bits recorded before the falsifiers shared one scan; the
# reaction-diffusion holder entry moved 3 ulp (from 0x1.600cf7fc4763fp-1) when
# a lone vector became a one-row transform block
WITNESS_BITS = {
    ("broken-quadratic", "coercivity"): "-0x1.17f96567d3712p+0",
    ("broken-quadratic", "growth"): "0x1.559c21a416422p+6",
    ("broken-quadratic", "h5_diffusion"): "-0x1.01484e4fbc570p-11",
    ("broken-quadratic", "h5_drift"): "0x1.80b030824ae16p+2",
    ("broken-quadratic", "holder"): "0x1.27f8973397d3bp+2",
    ("broken-quadratic", "holder_averaged"): "0x1.27f8973397d3bp+2",
    ("broken-quadratic", "monotonicity"): "-0x1.3aabd10528808p-7",
    ("broken-quadratic", "operator_growth"): "-0x1.ffffffffffff8p-1",
    ("reaction-diffusion-delay", "coercivity"): "-0x1.504dffd600a00p-5",
    ("reaction-diffusion-delay", "growth"): "-0x1.4171b8814f749p+1",
    ("reaction-diffusion-delay", "h5_diffusion"): "-0x1.07db9cd20a738p-1",
    ("reaction-diffusion-delay", "h5_drift"): "-0x1.463cc65363d8ep+1",
    ("reaction-diffusion-delay", "holder"): "0x1.600cf7fc47642p-1",
    ("reaction-diffusion-delay", "holder_averaged"): "0x1.feb3bcbf1b245p-2",
    ("reaction-diffusion-delay", "monotonicity"): "-0x1.cef0da2d03d77p+8",
    ("reaction-diffusion-delay", "operator_growth"): "-0x1.72924133141a4p+4",
}


@pytest.mark.parametrize("preset", sorted(WITNESS_PRESETS))
@pytest.mark.parametrize("check", sorted(FALSIFIERS))
def test_every_witness_reproduces_its_gap(preset, check):
    p = WITNESS_PRESETS[preset]
    run, gap_at = FALSIFIERS[check]
    report = run(p, WITNESS_SEED)
    assert report.witness is not None
    assert gap_at(p, report.witness) == report.max_ratio
    assert float(report.max_ratio).hex() == WITNESS_BITS[preset, check]


def test_the_path_pool_has_at_most_one_worker_per_cpu(monkeypatch):
    # --threads 5000 over a million paths would start 3907 threads, one per
    # 256-path batch; a stand-in pool records its width and starts none
    widths = []

    class Pool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(exp, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 3)
    firsts = exp._map_chunks(lambda first, count: [first] * count, 1_000_000, 5000)
    assert widths == [3]
    assert len(firsts) == 1_000_000 and firsts[-1] == 999_936    # in path order
    assert exp._map_chunks(lambda first, count: [first] * count, 600, 2) == \
        [0] * 256 + [256] * 256 + [512] * 88
    assert widths == [3, 2]
    monkeypatch.setattr(exp.os, "cpu_count", lambda: None)      # unknown: one worker
    exp._map_chunks(lambda first, count: [first] * count, 600, 8)
    assert widths == [3, 2]
