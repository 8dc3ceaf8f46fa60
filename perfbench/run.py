"""Benchmark of the avg_sfpde averaging laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``NAME`` is ``field-sweeps``,
``scalar-studies``, ``rd-audit`` or ``all``.  For each workload the command
times the set-up in fresh interpreters, then starts one child process
(``worker.py``) that repeats the workload's studies through
``avg_sfpde.cli.main`` for ``S`` seconds: a closed loop with one client, at
most two worker threads, and BLAS pinned to one thread.  Every study's output
is checked against its oracle gate and digested.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of the traced iterations.  The exit code is 0 only when every
gate passed; a checkout without ``src/avg_sfpde`` exits 2 without a result.
``--size tiny`` shrinks every study for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER = HERE / "worker.py"
BASELINE = HERE / "baseline.json"
SETUP_SAMPLES = 5        # fresh-interpreter set-up probes after one warm-up
DEADLINE_S = 175.0       # the whole command ends inside 180 s

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "integrator.path_steps": "count",
    "integrator.run.self_s": "s",
    "integrator.us_per_path_step": "us",
    "integrator.normal_block.calls": "count",
    "integrator.normal_block.self_s": "s",
    "integrator.khasminskii_freeze.self_s": "s",
    "integrator.blowups": "count",
    "spectral.to_values.calls": "count",
    "spectral.to_values.self_s": "s",
    "spectral.to_coeffs.calls": "count",
    "spectral.to_coeffs.self_s": "s",
    "spectral.nonlinear_from_values.self_s": "s",
    "spectral.transform_flops": "flop",
    "spectral.probes.self_s": "s",
    "coefficients.compose_drift.calls": "count",
    "coefficients.compose_drift.self_s": "s",
    "coefficients.osc_eval.calls": "count",
    "coefficients.falsifiers.self_s": "s",
    "coefficients.sample_history.self_s": "s",
    "delay.delay_integral.calls": "count",
    "delay.delay_integral.self_s": "s",
    "delay.delay_pair_integral.self_s": "s",
    "delay.moments_centered.calls": "count",
    "delay.moments_centered.self_s": "s",
    "delay.values_at.calls": "count",
    "delay.values_at.self_s": "s",
    "delay.pair_seminorm.self_s": "s",
    "experiments.study.self_s": "s",
    "experiments.pool_efficiency": "ratio",
    "experiments.paths_censored": "count",
    "presets.get_preset.calls": "count",
    "presets.get_preset.self_s": "s",
    "cli.main.self_s": "s",
    "reporting.io.self_s": "s",
    "reporting.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.untraced_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed gate)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("AVG_SFPDE_SEED", "AVG_SFPDE_THREADS"):
        env.pop(var, None)
    return env


def call_worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next child process")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args[:3]} printed nothing")
    return json.loads(lines[-1])


def code_identity():
    """Git commit when the checkout is a repository, and always a digest of
    the package sources, which identifies the code in a plain checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def quartiles(values):
    """First and third quartile as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def baseline_digests(workload, size, seed):
    try:
        data = json.loads(BASELINE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data.get("digests", {}).get(workload, {}).get(size, {}).get(str(seed))


def layer_values(it, untraced_wall):
    """Per-layer figures of one traced iteration, named as in PER_LAYER.

    ``X.self_s`` and ``X.calls`` read the tracer's aggregate ``X`` (a count
    when ``X`` is only counted); other counts are tracer counters by name.
    """
    agg, counts = it["aggregates"], it["counts"]
    steps = counts.get("integrator.path_steps", 0)
    pool_cpu, pool_capacity = it["pool"]
    derived = {
        "integrator.us_per_path_step":
            agg["integrator.run"][2] / steps * 1e6 if steps else 0.0,
        "experiments.pool_efficiency": pool_cpu / pool_capacity if pool_capacity else 0.0,
        "experiments.paths_censored": sum(st["censored"] for st in it["studies"]),
        "reporting.bytes_written": sum(st["bytes"] for st in it["studies"]),
        "trace.overhead_frac": it["wall_s"] / untraced_wall - 1.0,
        "trace.untraced_s": it["window_s"] - it["self_total_s"],
    }
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "self_s":
            out[name] = agg.get(base, (0, 0.0))[1]
        elif kind == "calls" and base in agg:
            out[name] = agg[base][0]
        else:
            out[name] = counts.get(base if kind == "calls" else name, 0)
    return out


def run_workload(name, args, deadline):
    """Set-up probes plus one worker run; the summary of one workload."""
    common = ["--workload", name, "--size", args.size]
    call_worker(["setup"] + common, deadline)           # warm-up, not timed
    setups = [call_worker(["setup"] + common, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    seconds = min(args.seconds, deadline - time.monotonic() - 30.0)
    res = call_worker(["run"] + common + ["--seed", str(args.seed),
                                          "--seconds", repr(seconds),
                                          "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])

    its = res["iterations"]
    problems = []
    for it in its:
        for st in it["studies"]:
            if not st["ok"]:
                problems.append(f"{st['study']}: {st['detail']}")
    digests = {st["study"]: st["digest"] for st in its[0]["studies"]}
    for it in its[1:]:
        for st in it["studies"]:
            if st["digest"] != digests[st["study"]]:
                kind = "traced" if it["traced"] else "untraced"
                problems.append(f"{st['study']}: {kind} iteration changed the "
                                "report digest")
    attempted = sum(st["operations"] for it in its for st in it["studies"])
    failed = sum(st["failed"] for it in its for st in it["studies"])

    plain = [it for it in its if not it["traced"]]
    walls = [it["wall_s"] for it in plain]
    # Means, not medians, of the iterations: the shared host runs in fast and
    # slow phases seconds to minutes long, and a run's median jumps between
    # the two modes while its mean moves with the share of slow time (over
    # four batches of ten runs: spread 0.06-0.16 for means, 0.07-0.20 for
    # medians).
    wall = statistics.fmean(walls)
    end_to_end = {
        "wall_s": wall,
        "cpu_s": statistics.fmean(it["cpu_s"] for it in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    # a traced iteration always follows the untraced one it is compared with
    traced = [(its[i - 1], it) for i, it in enumerate(its) if it["traced"]]
    per_pair = [layer_values(it, before["wall_s"]) for before, it in traced]
    layers = {}
    if per_pair:
        for key, unit in PER_LAYER.items():
            # counts repeat exactly, so keep them whole numbers
            median = statistics.median if unit in ("s", "us", "ratio") \
                else statistics.median_low
            layers[key] = median(p[key] for p in per_pair)
    return {
        "workload": name, "seed": args.seed, "size": args.size,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "iterations": len(plain), "traced_iterations": len(traced),
        "walls": walls, "setups": setups,
        "traced_windows": [(it["window_s"], it["self_total_s"]) for _, it in traced],
        "path_steps": res["path_steps"],
        "path_steps_per_s": res["path_steps"] / wall if res["path_steps"] else None,
        "end_to_end": end_to_end, "layers": layers,
        "aggregates": traced[-1][1]["aggregates"] if traced else {},
        "digests": digests,
        "baseline_digests": baseline_digests(name, args.size, args.seed),
        "environment": dict(res["environment"], **code_identity()),
    }


def report(summary, trace):
    """Human-readable lines for one workload."""
    s = summary
    out = [f"== {s['workload']} (seed {s['seed']}, size {s['size']}): "
           f"{s['iterations']} untraced and {s['traced_iterations']} traced iterations",
           "environment: " + json.dumps(s["environment"], sort_keys=True)]
    q1, q3 = quartiles(s["walls"])
    for key, unit in END_TO_END.items():
        line = f"  {key:<18} {s['end_to_end'][key]:.6g} {unit}"
        if key == "wall_s":
            line += (f"  (mean of {len(s['walls'])} iterations; median "
                     f"{statistics.median(s['walls']):.4g}, quartiles {q1:.4g}, "
                     f"{q3:.4g}, min {min(s['walls']):.4g}, max {max(s['walls']):.4g})")
        if key == "setup_s":
            line += f"  (median of {len(s['setups'])} fresh interpreters)"
        out.append(line)
    if s["path_steps_per_s"] is not None:
        out.append(f"  {'path_steps_per_s':<18} {s['path_steps_per_s']:.6g} 1/s"
                   f"  ({s['path_steps']} path-steps per iteration)")
    frac = s["failed"] / s["attempted"]
    out.append(f"  {'failed_frac':<18} {frac:.6g} ratio  ({s['failed']}/{s['attempted']})")
    base = s["baseline_digests"]
    for study, digest in s["digests"].items():
        if base is None or study not in base:
            state = "no baseline for this seed"
        else:
            state = "unchanged" if base[study] == digest else "CHANGED"
        out.append(f"  digest {study:<18} {digest[:16]}  {state}")
    if trace:
        for key, unit in PER_LAYER.items():
            out.append(f"  {key:<40} {s['layers'][key]:.6g} {unit}")
    for p in s["problems"]:
        out.append(f"  GATE MISS {p}")
    out.append(f"  correct: {s['correct']}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)

    if not Path("src/avg_sfpde/cli.py").is_file():
        print("error: run from the root of an avg_sfpde checkout "
              "(src/avg_sfpde/cli.py not found)", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args, time.monotonic() + DEADLINE_S))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    Path(".perfbench").mkdir(exist_ok=True)
    for s in summaries:
        print("\n".join(report(s, args.trace)))
        detail = Path(".perfbench") / f"{s['workload']}-seed{s['seed']}-trace{args.trace}.json"
        detail.write_text(json.dumps(s, indent=1), encoding="utf-8")

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for s in summaries:
        values = s["layers"] if args.trace else s["end_to_end"]
        prefix = "" if len(summaries) == 1 else s["workload"] + "."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
