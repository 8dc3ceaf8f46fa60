"""The benchmark's three study workloads: command lines, sizes and gates.

Each workload is a fixed list of studies run through ``avg_sfpde.cli.main``.
A study knows its command line, the file whose bytes are digested, how many
path-steps its plan asks for, how many operations it attempts, and the gate
its output must pass.  Gates read only the files the CLI writes; the oracle
arithmetic here is the benchmark's own and does not call into the package.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

EPS_FIELD = (0.5, 0.1, 0.02)
EPS_LINEAR = (0.1, 0.01, 0.001)
D_GRID = (0.2, 0.1, 0.05, 0.025)
DELTA_GRID = (0.1, 0.01, 0.001, 0.0)

# Sizes are set so that one iteration of a workload takes about 2-3 s on a
# 2-core Xeon, which gives a run of 30 s ten or more samples for its median;
# "tiny" keeps every gate meaningful and serves the benchmark's own tests.
SIZES = {
    "full": {"field_paths": 4, "rd_k": 32, "pm_k": 16, "field_dt": 1e-3,
             "linear_paths": 32, "freeze_paths": 128, "continuity_paths": 32,
             "audit_trials": 100},
    "tiny": {"field_paths": 2, "rd_k": 8, "pm_k": 8, "field_dt": 2e-3,
             "linear_paths": 2, "freeze_paths": 8, "continuity_paths": 4,
             "audit_trials": 20},
}

SLOPE_TARGET, SLOPE_TOL = 2.0, 0.3
ORACLE_REL_TOL = 0.02
FREEZE_SLOPE_FLOOR = 0.35
AUDIT_CHECKS = 6  # H1 ... H6


def _grid(values):
    return ",".join(repr(v) for v in values)


def _n_steps(dt, T):
    return int(round(T / dt))


# ---------------------------------------------------------------------------
# report parsing
# ---------------------------------------------------------------------------

def csv_rows(text):
    """Rows of a report.csv as dicts of strings, keyed by the header."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty report")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("malformed report rows")
    return rows


def loglog_slope(xs, ys):
    """Unweighted least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def censored_paths(text):
    return sum(int(r["censored"]) for r in csv_rows(text))


# ---------------------------------------------------------------------------
# gates: (ok, detail) from the study's output text
# ---------------------------------------------------------------------------

def linear_oracle(eps, dt, T):
    """max_t |x(t)|^2 on the step grid for x' = -x + sin(t/eps), x(0) = 0.

    x(t) = (sin(lt) - l cos(lt) + l e^{-t}) / (1 + l^2) with l = 1/eps is the
    exact difference of the coupled twins of scalar-linear-osc.
    """
    lam = 1.0 / eps
    best = 0.0
    for n in range(_n_steps(dt, T) + 1):
        t = n * dt
        x = (math.sin(lam * t) - lam * math.cos(lam * t)
             + lam * math.exp(-t)) / (1.0 + lam * lam)
        best = max(best, abs(x))
    return best * best


def gate_linear_rate(text, dt=2e-4, T=1.0):
    rows = csv_rows(text)
    eps = [float(r["eps"]) for r in rows]
    means = [float(r["mean_sup_sq_error"]) for r in rows]
    for e, m in zip(eps, means):
        oracle = linear_oracle(e, dt, T)
        if not abs(m - oracle) / oracle < ORACLE_REL_TOL:
            return False, f"eps={e}: {m!r} not within 2% of oracle {oracle!r}"
    slope = loglog_slope(eps, means)
    if abs(slope - SLOPE_TARGET) > SLOPE_TOL:
        return False, f"slope {slope:.3f} outside 2.0 +/- 0.3"
    return True, f"rows within 2% of the convolution oracle, slope {slope:.3f}"


def gate_freeze_slope(text):
    rows = csv_rows(text)
    slope = loglog_slope([float(r["d"]) for r in rows],
                         [float(r["mean_int_sq_error"]) for r in rows])
    if slope < FREEZE_SLOPE_FLOOR:
        return False, f"block-freezing slope {slope:.3f} < 0.35"
    return True, f"block-freezing slope {slope:.3f} >= 0.35"


def gate_continuity(text):
    rows = csv_rows(text)
    pos = [(float(r["delta"]), float(r["mean_sup_sq_error"])) for r in rows
           if float(r["delta"]) > 0]
    for (_, prev), (d, cur) in zip(pos[:-1], pos[1:]):
        if not cur < prev:
            return False, f"row at delta={d} not strictly below the previous row"
    zero = [r for r in rows if float(r["delta"]) == 0.0]
    if not zero or any(float(r["mean_sup_sq_error"]) != 0.0 for r in zero):
        return False, "delta=0 row missing or not exactly zero"
    return True, "rows strictly decreasing, exact zero at delta=0"


def gate_verdict(text):
    """The verdict itself is the exit code, which the caller checks."""
    csv_rows(text)
    return True, "verdict PASS"


def gate_audit(text):
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) != AUDIT_CHECKS:
        return False, f"expected {AUDIT_CHECKS} hypothesis lines, got {len(lines)}"
    bad = [ln.split(":")[0] for ln in lines if ": PASS" not in ln]
    if bad:
        return False, f"hypotheses not PASS: {bad}"
    return True, "all hypotheses PASS"


# ---------------------------------------------------------------------------
# studies and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Study:
    name: str
    argv: tuple            # CLI arguments without --seed and --out
    output: str            # file that is gated and digested
    operations: int        # paths (sweeps) or hypothesis checks (audit)
    path_steps: int        # twins x paths x steps of the plan, all rows
    gate: object

    @property
    def preset(self):
        """(preset name, mode count or None) named on the command line."""
        opts = dict(zip(self.argv[1::2], self.argv[2::2]))
        k = opts.get("--k")
        return opts["--preset"], int(k) if k else None

    def command(self, seed, out_dir):
        return list(self.argv) + ["--seed", str(seed), "--out", str(out_dir)]

    def seed_for(self, bench_seed):
        """Study seed derived from the benchmark seed and the study name."""
        h = hashlib.sha256(f"{bench_seed}:{self.name}".encode()).hexdigest()
        return int(h[:8], 16)

    def failed_operations(self, ok, text):
        """Failed operations of one run: all of them when the gate missed,
        otherwise censored paths (sweeps) or non-PASS verdicts (audit)."""
        if not ok:
            return self.operations
        if self.output == "audit.txt":
            return sum(1 for ln in text.splitlines() if ln and ": PASS" not in ln)
        return censored_paths(text)


def _field_sweeps(s):
    dt = s["field_dt"]
    paths = s["field_paths"]
    steps = _n_steps(dt, 1.0)
    studies = []
    for name, preset, k in (("rd-sweep", "reaction-diffusion-delay", s["rd_k"]),
                            ("pm-sweep", "porous-media-sin", s["pm_k"])):
        argv = ("sweep-averaging", "--preset", preset, "--k", str(k),
                "--eps", _grid(EPS_FIELD), "--paths", str(paths),
                "--dt", repr(dt), "--T", "1.0", "--threads", "2")
        studies.append(Study(name, argv, "report.csv",
                             operations=paths * len(EPS_FIELD),
                             path_steps=2 * paths * len(EPS_FIELD) * steps,
                             gate=gate_verdict))
    return studies


def _scalar_studies(s):
    lin, frz, con = s["linear_paths"], s["freeze_paths"], s["continuity_paths"]
    return [
        Study("linear-rate",
              ("sweep-averaging", "--preset", "scalar-linear-osc",
               "--eps", _grid(EPS_LINEAR), "--paths", str(lin),
               "--dt", "0.0002", "--T", "1.0", "--threads", "1"),
              "report.csv", operations=lin * len(EPS_LINEAR),
              path_steps=2 * lin * len(EPS_LINEAR) * _n_steps(2e-4, 1.0),
              gate=gate_linear_rate),
        Study("linear-freeze",
              ("sweep-khasminskii", "--preset", "scalar-linear-osc",
               "--eps", "averaged", "--d", _grid(D_GRID), "--paths", str(frz),
               "--dt", "0.001", "--T", "1.0", "--threads", "1"),
              "report.csv", operations=frz,
              path_steps=frz * _n_steps(1e-3, 1.0),
              gate=gate_freeze_slope),
        Study("holder-continuity",
              ("sweep-continuity", "--preset", "scalar-holder-osc",
               "--delta", _grid(DELTA_GRID), "--paths", str(con),
               "--eps", "0.5", "--dt", "0.001", "--T", "1.0", "--threads", "1"),
              "report.csv", operations=con * len(DELTA_GRID),
              path_steps=2 * con * len(DELTA_GRID) * _n_steps(1e-3, 1.0),
              gate=gate_continuity),
    ]


def _rd_audit(s):
    argv = ("audit", "--preset", "reaction-diffusion-delay",
            "--trials", str(s["audit_trials"]))
    return [Study("rd-audit", argv, "audit.txt", operations=AUDIT_CHECKS,
                  path_steps=0, gate=gate_audit)]


WORKLOADS = {
    "field-sweeps": _field_sweeps,
    "scalar-studies": _scalar_studies,
    "rd-audit": _rd_audit,
}


def studies(workload, size="full"):
    return WORKLOADS[workload](SIZES[size])
