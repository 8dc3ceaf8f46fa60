"""Child process of the benchmark: set-up probe or one workload run.

    python3 perfbench/worker.py setup --workload NAME [--size full|tiny]
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S
                                    --trace 0|1 [--size full|tiny]

Run from the root of a checkout; ``perfbench/run.py`` starts it with
``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.  Both modes print one
JSON object as their last line of standard output.

``setup`` times the import of ``avg_sfpde`` and the construction of the
workload's presets in a fresh interpreter.

``run`` repeats the workload's studies, all with the same inputs, until the
time is used up.  Every study goes through ``avg_sfpde.cli.main`` in this
process, its output is gated and digested, and the iteration's wall and CPU
time are recorded.  With ``--trace 1`` untraced and traced iterations
alternate; the traced ones give the per-layer figures and must produce the
same digests as the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

WORK_ROOT = Path(".perfbench")
MAX_RUN_S = 150.0   # a run must end well inside the 180 s limit


def setup_phase(workload, size):
    """Import the package and build the workload's presets; seconds taken."""
    t0 = time.perf_counter()
    from avg_sfpde import cli  # noqa: F401  (the import is what is timed)
    from avg_sfpde.presets import get_preset
    for name, k in dict.fromkeys(st.preset for st in workloads.studies(workload, size)):
        get_preset(name, k=k)
    return time.perf_counter() - t0


def environment():
    """Versions, BLAS, threads and CPU of this process."""
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _output_bytes(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def run_iteration(cli, studies, bench_seed, work_dir):
    """One pass over the workload's studies; per-study outcomes and times."""
    outcomes = []
    wall = cpu = 0.0
    for st in studies:
        out_dir = work_dir / st.name
        argv = st.command(st.seed_for(bench_seed), out_dir)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed study, not a crashed run
                rc = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        path = out_dir / st.output
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if rc != 0:
            ok, detail = False, f"exit {rc}: {sink_err.getvalue().strip()[-300:]}"
        else:
            try:
                ok, detail = st.gate(text)
            except (ValueError, KeyError) as exc:
                ok, detail = False, f"unreadable {st.output}: {exc}"
        outcomes.append({
            "study": st.name, "ok": ok, "detail": detail,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "operations": st.operations,
            "failed": st.failed_operations(ok, text),
            "censored": workloads.censored_paths(text)
            if ok and st.output == "report.csv" else 0,
            "bytes": _output_bytes(out_dir) if out_dir.is_dir() else 0,
        })
    shutil.rmtree(work_dir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "studies": outcomes}


def cmd_setup(args):
    print(json.dumps({"setup_s": setup_phase(args.workload, args.size)}))
    return 0


def traced_iteration(tracer, cli, studies, bench_seed, work_dir):
    """One iteration with the tracer installed, plus its raw aggregates."""
    tracer.reset()
    tracer.install()
    w0 = time.perf_counter()
    try:
        it = run_iteration(cli, studies, bench_seed, work_dir)
    finally:
        window = time.perf_counter() - w0
        tracer.uninstall()
    it.update(window_s=window, self_total_s=tracer.self_total(),
              aggregates=tracer.agg, counts=tracer.counts,
              pool=[tracer.pool_cpu, tracer.pool_capacity])
    return it


def cmd_run(args):
    setup_s = setup_phase(args.workload, args.size)
    from avg_sfpde import cli
    studies = workloads.studies(args.workload, args.size)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    work_root = WORK_ROOT / f"work-{os.getpid()}"
    iterations, spans = [], []
    budget = min(float(args.seconds), MAX_RUN_S)
    t0 = time.perf_counter()
    try:
        # one round = an untraced iteration, then a traced one when tracing
        while True:
            r0 = time.perf_counter()
            plain = run_iteration(cli, studies, args.seed, work_root / str(len(iterations)))
            plain["traced"] = False
            iterations.append(plain)
            if tracer:
                it = traced_iteration(tracer, cli, studies, args.seed,
                                      work_root / str(len(iterations)))
                it["traced"] = True
                iterations.append(it)
                spans.extend(tracer.spans)
            now = time.perf_counter()
            if now - t0 + 1.1 * (now - r0) > budget:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if spans:
        span_file = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for sp in spans:
                fh.write(json.dumps(sp) + "\n")

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "path_steps": sum(st.path_steps for st in studies),
        "iterations": iterations,
        "environment": environment(),
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
