"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (run pytest with -s or
read captured output) and then asserts, so a red test always corresponds to a
FAIL line.
"""

import math
import time

import numpy as np
from scipy import integrate

from avg_sfpde.cli import main as cli_main
from avg_sfpde.delay import DelayMeasure, MomentDivergenceError
from avg_sfpde.experiments import (
    averaging_sweep,
    continuity_study,
    hypothesis_audit,
    khasminskii_diagnostic,
)
from avg_sfpde.integrator import StepperConfig, run_path
from avg_sfpde.presets import constant_xi, get_preset
from avg_sfpde.spectral import PdeOperator, SpectralSpace
from oracles import heat_block_residual_oracle


def verdict_line(cid, ok, detail=""):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_degenerate_coupling_oracle():
    t0 = time.monotonic()
    rep = averaging_sweep(constant_xi(get_preset("reaction-diffusion-delay", k=16)),
                          (0.5, 0.1, 0.02), paths=32, dt=2e-3, seed=7)
    elapsed = time.monotonic() - t0
    all_zero = all(r.mean == 0.0 for r in rep.rows)
    ok = all_zero and elapsed < 10.0
    assert verdict_line(1, ok, f"rows={rep.row_means()}, {elapsed:.1f}s")
    assert all_zero
    assert elapsed < 10.0


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_closed_form_averaging_rate():
    t0 = time.monotonic()
    rep = averaging_sweep(get_preset("scalar-linear-osc"), (0.1, 0.01, 0.001),
                          paths=256, seed=7)
    elapsed = time.monotonic() - t0
    # convolution oracle int_0^t e^{-(t-s)} sin(s/eps) ds on the grid
    dt, T = 2e-4, 1.0
    ts = np.arange(int(round(T / dt)) + 1) * dt
    oracle_ok = True
    for r in rep.rows:
        lam = 1.0 / r.param
        x = (np.sin(lam * ts) - lam * np.cos(lam * ts) + lam * np.exp(-ts)) / (1 + lam**2)
        oracle = float(np.max(np.abs(x))) ** 2
        oracle_ok &= abs(r.mean - oracle) / oracle < 0.02
    slope_ok = abs(rep.slope.slope - 2.0) <= 0.3
    ok = slope_ok and oracle_ok and elapsed < 60.0
    assert verdict_line(2, ok, f"slope={rep.slope.slope:.3f}, {elapsed:.1f}s")
    assert slope_ok
    assert oracle_ok
    assert elapsed < 60.0


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_qualitative_averaging_verdict():
    t0 = time.monotonic()
    rep = averaging_sweep(get_preset("reaction-diffusion-delay", k=32),
                          (0.5, 0.1, 0.02), paths=64, dt=1e-3, T=1.0, seed=11)
    elapsed = time.monotonic() - t0
    means = rep.row_means()
    strict = means[0] > means[1] > means[2]
    ok = rep.verdict and strict and elapsed < 600.0
    assert verdict_line(3, ok, f"rows={['%.3e' % m for m in means]}, {elapsed:.0f}s")
    assert rep.verdict, rep.verdict_detail
    assert strict
    assert elapsed < 600.0


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_khasminskii_diagnostic():
    rep = khasminskii_diagnostic(get_preset("scalar-linear-osc"),
                                 [0.2, 0.1, 0.05, 0.025], paths=256, dt=1e-3, T=1.0, seed=3)
    ou_ok = rep.slope.slope >= 0.35
    d_grid = [0.2, 0.1, 0.05]
    heat = khasminskii_diagnostic(get_preset("heat-deterministic"), d_grid, paths=2,
                                  dt=2.5e-4, T=1.0, seed=0)
    lam = math.pi**2
    oracle = [heat_block_residual_oracle(lam, 1.0, d) for d in d_grid]
    rows_ok = all(abs(g - w) / w < 0.05 for g, w in zip(heat.row_means(), oracle))
    oracle_slope = float(np.polyfit(np.log(d_grid), np.log(oracle), 1)[0])
    slope_ok = abs(heat.slope.slope - oracle_slope) / oracle_slope < 0.05
    ok = ou_ok and rows_ok and slope_ok
    assert verdict_line(4, ok, f"ou_slope={rep.slope.slope:.3f}, "
                               f"heat_slope={heat.slope.slope:.3f} "
                               f"(oracle {oracle_slope:.3f})")
    assert ou_ok
    assert rows_ok
    assert slope_ok


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_continuity_in_initial_data():
    deltas = [1e-1, 1e-2, 1e-3, 0.0]
    hold = continuity_study(get_preset("scalar-holder-osc"), deltas, paths=32, dt=1e-3,
                            T=1.0, seed=5, eps=0.5)
    means = hold.row_means()
    strict = means[0] > means[1] > means[2] and means[3] == 0.0
    lin = continuity_study(get_preset("scalar-linear-osc"), deltas, paths=8, dt=1e-3,
                           T=1.0, seed=5, eps=0.5)
    lin_ok = all(abs(r.mean - r.param**2) <= 0.10 * r.param**2
                 for r in lin.rows if r.param > 0)
    zero_ok = lin.rows[-1].mean == 0.0
    ok = strict and hold.verdict and lin_ok and zero_ok
    assert verdict_line(5, ok, f"holder rows={['%.3e' % m for m in means]}")
    assert strict and hold.verdict
    assert lin_ok and zero_ok


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_hypothesis_audits():
    rng = np.random.default_rng(0)
    a = rng.uniform(-25.0, 25.0, 10_000)
    b = rng.uniform(-25.0, 25.0, 10_000)
    maps_ok = True
    for f in (lambda x: np.sin(np.sqrt(np.abs(x))),
              lambda x: np.cos(np.sqrt(np.abs(x)))):
        ratio = np.abs(f(a) - f(b)) / np.sqrt(np.abs(a - b))
        maps_ok &= bool(np.max(ratio) <= 1.0 + 1e-12)

    audits = {}
    for name in ("porous-media-sin", "reaction-diffusion-delay"):
        audits[name] = hypothesis_audit(get_preset(name), trials=1000, rng_seed=1)
    presets_ok = all(a.all_passed for a in audits.values())
    broken = hypothesis_audit(get_preset("broken-quadratic"), trials=1000, rng_seed=1)
    h2 = broken.by_name("H2")
    broken_ok = (not h2.passed) and "gap" in h2.detail
    ok = maps_ok and presets_ok and broken_ok
    failed = {n: [r.name for r in a.results if not r.passed]
              for n, a in audits.items()}
    assert verdict_line(6, ok, f"failed={failed}")
    assert maps_ok
    assert presets_ok, failed
    assert broken_ok


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_exponential_moment_formula():
    ok = True
    for rate in (0.5, 1.0, 2.0):
        mu = DelayMeasure.exponential(rate)
        for frac in (0.0, 0.5, 1.0, 1.5):
            k = frac * rate
            closed = mu.exp_moment(k)
            quad, _ = integrate.quad(
                lambda th: 2 * rate * math.exp((2 * rate - k) * th),
                -np.inf, 0.0, epsabs=1e-14, epsrel=1e-13)
            ok &= abs(closed - quad) / quad < 1e-8
        diverged = False
        try:
            mu.exp_moment(2.0 * rate)
        except MomentDivergenceError:
            diverged = True
        ok &= diverged
    assert verdict_line(7, ok)
    assert ok


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_numerical_kernel_checks():
    # Parseval round trip
    rng = np.random.default_rng(2)
    round_ok = True
    for m in (64, 512, 4096):
        space = SpectralSpace(1.0, 8, quad_points=m)
        c = rng.standard_normal(8)
        back = space.to_coeffs(space.to_values(c))
        round_ok &= bool(np.max(np.abs(back - c)) / np.max(np.abs(c)) < 1e-10)
    # eigenfunction fidelity
    space = SpectralSpace(1.0, 8)
    op = PdeOperator("pure_laplacian")
    eig_ok = True
    for i in (1, 4, 8):
        out = op.apply(space, space.basis_vector(i))
        want = -space.eigenvalues[i - 1] * space.basis_vector(i)
        eig_ok &= bool(np.max(np.abs(out - want)) < 1e-12)
    # porous-media monotonicity on 10^3 pairs
    pm = PdeOperator("porous_media", q=3.0)
    sp = SpectralSpace(1.0, 8, quad_points=64)
    mono_ok = True
    for _ in range(1000):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        tol = 1e-8 * (np.linalg.norm(u) + np.linalg.norm(v)) ** 2
        mono_ok &= bool(pm.monotonicity_gap(sp, u, v) <= tol)
    # dt-refinement slope on deterministic decay
    p = get_preset("heat-deterministic")
    lam = p.coefficients.space.eigenvalues[0]
    errs, dts = [], [4e-3, 2e-3, 1e-3]
    for dt in dts:
        cfg = StepperConfig(dt=dt, T=1.0, noise_modes=1, seed=0, eps=1.0)
        traj = run_path(p.operator, p.coefficients, cfg, p.initial)
        errs.append(abs(traj.states[-1, 0] - math.exp(-lam)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    slope_ok = 0.7 <= slope <= 1.3
    ok = round_ok and eig_ok and mono_ok and slope_ok
    assert verdict_line(8, ok, f"dt slope={slope:.3f}")
    assert round_ok and eig_ok and mono_ok and slope_ok


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    argv = ["sweep-averaging", "--preset", "reaction-diffusion-delay",
            "--eps", "0.5,0.1", "--paths", "8", "--k", "8", "--dt", "0.002",
            "--seed", "13", "--format", "csv"]
    outs = {}
    assert cli_main(argv + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert cli_main(["run", "--config", str(tmp_path / "a" / "manifest.ini"),
                     "--out", str(tmp_path / "b")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "c"), "--threads", "8"]) == 0
    rows_a = (tmp_path / "a" / "report.csv").read_bytes()
    rows_b = (tmp_path / "b" / "report.csv").read_bytes()
    rows_c = (tmp_path / "c" / "report.csv").read_bytes()
    ok = rows_a == rows_b == rows_c
    assert verdict_line(9, ok)
    assert ok
