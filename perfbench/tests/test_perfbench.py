"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

The command-level tests run ``perfbench/run.py --size tiny`` from the root of
the checkout (or of a copy of it in a temporary directory) and read the last
line of its output and the detail file it leaves in ``.perfbench/``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["field-sweeps", "scalar-studies", "rd-audit"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace=0, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def detail(workload, trace, seed=0, root=ROOT):
    path = root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


_RUNS = {}


def cached_run(workload, trace):
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = run_bench(workload, trace)
    return _RUNS[workload, trace]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the emitted metrics
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = cached_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for key, unit in table.items():   # and by name on the human-readable lines
        assert re.search(rf"^\s+{re.escape(key)}\s+\S+ {re.escape(unit)}\b",
                         proc.stdout, re.M), key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_no_more_than_the_traced_wall_time(workload):
    proc, result = cached_run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    summary = detail(workload, 1)
    assert summary["traced_windows"]
    for window, self_total in summary["traced_windows"]:
        assert 0 < self_total <= window
    layers = summary["layers"]
    assert layers["trace.untraced_s"] >= 0
    assert layers["trace.overhead_frac"] == result["metrics"]["trace.overhead_frac"]["value"]


def test_traced_run_gives_the_untraced_digests():
    # run.py marks a run incorrect when any iteration's digest differs, and
    # trace runs alternate untraced and traced iterations
    for workload in WORKLOADS:
        proc, result = cached_run(workload, 1)
        summary = detail(workload, 1)
        assert summary["iterations"] >= 1 and summary["traced_iterations"] >= 1
        assert result["correct"] is True


def test_layers_are_called_where_the_prediction_table_says():
    field = detail("field-sweeps", 1)["layers"]
    scalar = detail("scalar-studies", 1)["layers"]
    audit = detail("rd-audit", 1)["layers"]
    assert field["spectral.to_values.calls"] > 0
    assert field["integrator.path_steps"] == detail("field-sweeps", 1)["path_steps"]
    assert scalar["spectral.to_values.calls"] == 0
    assert scalar["integrator.path_steps"] == detail("scalar-studies", 1)["path_steps"]
    assert scalar["coefficients.osc_eval.calls"] > 0
    assert audit["integrator.path_steps"] == 0
    assert audit["delay.moments_centered.calls"] > 0
    assert field["delay.moments_centered.calls"] == 0


# ---------------------------------------------------------------------------
# seeds, gates and failure paths
# ---------------------------------------------------------------------------

def test_second_seed_changes_field_digests_and_passes_the_gate():
    proc0, res0 = cached_run("field-sweeps", 0)
    proc1, res1 = run_bench("field-sweeps", seed=1)
    assert proc0.returncode == 0 and proc1.returncode == 0, proc1.stderr
    assert res0["correct"] and res1["correct"]
    d0 = detail("field-sweeps", 0)["digests"]
    d1 = detail("field-sweeps", 0, seed=1)["digests"]
    assert d0.keys() == d1.keys()
    assert all(d0[k] != d1[k] for k in d0)


def _copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_failed_oracle_check_exits_nonzero(tmp_path):
    _copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    presets = tmp_path / "src" / "avg_sfpde" / "presets.py"
    text = presets.read_text(encoding="utf-8")
    wrong = "osc1=Oscillator.sinusoid(0.0, 1.1, 1.0)"   # 21% off the oracle
    assert text.count("osc1=Oscillator.sinusoid(0.0, 1.0, 1.0)") == 1
    presets.write_text(text.replace("osc1=Oscillator.sinusoid(0.0, 1.0, 1.0)", wrong),
                       encoding="utf-8")
    proc, result = run_bench("scalar-studies", cwd=tmp_path)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "GATE MISS linear-rate" in proc.stdout


def test_checkout_without_the_program_exits_without_a_result(tmp_path):
    _copy_checkout(tmp_path)
    proc, result = run_bench("rd-audit", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_linear_gate_accepts_the_oracle_and_rejects_two_percent_off():
    dt, T = 2e-4, 1.0
    rows = [(e, workloads.linear_oracle(e, dt, T)) for e in workloads.EPS_LINEAR]

    def report(scale):
        lines = ["eps,d,paths,mean_sup_sq_error,std_err,censored"]
        lines += [f"{e!r},,4,{m * scale!r},0.0,0" for e, m in rows]
        return "\n".join(lines) + "\n"

    assert workloads.gate_linear_rate(report(1.0))[0]
    assert not workloads.gate_linear_rate(report(1.025))[0]


def test_continuity_gate_needs_strict_decrease_and_an_exact_zero():
    head = "delta,paths,mean_sup_sq_error,std_err,censored\n"
    good = head + "0.1,4,1e-2,0.0,0\n0.01,4,1e-4,0.0,0\n0.0,4,0.0,0.0,0\n"
    flat = head + "0.1,4,1e-2,0.0,0\n0.01,4,1e-2,0.0,0\n0.0,4,0.0,0.0,0\n"
    nonzero = head + "0.1,4,1e-2,0.0,0\n0.01,4,1e-4,0.0,0\n0.0,4,1e-30,0.0,0\n"
    assert workloads.gate_continuity(good)[0]
    assert not workloads.gate_continuity(flat)[0]
    assert not workloads.gate_continuity(nonzero)[0]


def test_audit_gate_and_failed_operations():
    lines = [f"H{i}: PASS (ok)" for i in range(1, 7)]
    study = workloads.studies("rd-audit", "tiny")[0]
    assert workloads.gate_audit("\n".join(lines))[0]
    lines[3] = "H4: FAIL (gap)"
    text = "\n".join(lines)
    assert not workloads.gate_audit(text)[0]
    assert study.failed_operations(True, text) == 1
    assert study.failed_operations(False, text) == workloads.AUDIT_CHECKS
