"""CLI: subcommands, config handling, manifests, reproducibility."""

import pytest

from avg_sfpde.cli import main
from avg_sfpde.reporting import read_manifest


def run_cli(argv):
    return main(argv)


def test_list_presets_prints_the_four_names(capsys):
    assert run_cli(["list-presets"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["porous-media-sin", "reaction-diffusion-delay",
                   "scalar-linear-osc", "scalar-holder-osc"]


def test_sweep_averaging_writes_report_and_manifest(tmp_path, capsys):
    # the coupled difference is deterministic for this preset, so a few paths
    # reproduce the slope of the full Monte Carlo run
    code = run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.1,0.01,0.001", "--paths", "4", "--seed", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    slope_line = next(l for l in out.splitlines() if "slope" in l)
    slope = float(slope_line.split()[3])
    assert slope == pytest.approx(2.0, abs=0.3)
    csv = (tmp_path / "report.csv").read_text().splitlines()
    assert csv[0] == "eps,d,paths,mean_sup_sq_error,std_err,censored"
    assert len(csv) == 4
    assert (tmp_path / "report.svg").read_text().startswith("<svg")
    sections = read_manifest(tmp_path / "manifest.ini")
    assert sections["experiment"]["kind"] == "sweep-averaging"
    assert sections["stepper"]["seed"] == "7"


def test_manifest_replay_reproduces_reports_byte_for_byte(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.5,0.25", "--paths", "2", "--dt", "0.01",
                    "--seed", "3", "--out", str(a)]) == 0
    assert run_cli(["run", "--config", str(a / "manifest.ini"),
                    "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "report.svg").read_bytes() == (b / "report.svg").read_bytes()


def test_thread_counts_produce_identical_rows(tmp_path):
    rows = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        assert run_cli(["sweep-averaging", "--preset", "reaction-diffusion-delay",
                        "--eps", "0.5,0.1", "--paths", "4", "--k", "8",
                        "--dt", "0.002", "--seed", "5", "--threads", str(threads),
                        "--out", str(out), "--format", "csv"]) == 0
        rows[threads] = (out / "report.csv").read_bytes()
    assert rows[1] == rows[8]


def test_env_seed_and_threads_override_config(tmp_path, monkeypatch):
    out = tmp_path / "o"
    monkeypatch.setenv("AVG_SFPDE_SEED", "123")
    monkeypatch.setenv("AVG_SFPDE_THREADS", "2")
    assert run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.5,0.25", "--paths", "2", "--dt", "0.01",
                    "--out", str(out), "--format", "csv"]) == 0
    sections = read_manifest(out / "manifest.ini")
    assert sections["stepper"]["seed"] == "123"
    assert sections["output"]["threads"] == "2"


def test_unknown_config_key_is_hard_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[stepper]\ndt = 0.01\ntypo_key = 3\n", encoding="utf-8")
    code = run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.5,0.25", "--paths", "2",
                    "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


def test_removed_scheme_config_key_is_hard_error(tmp_path, capsys):
    # there is one stepping scheme; a config that asks for another one is
    # rejected rather than silently run semi-implicitly
    cfg = tmp_path / "scheme.ini"
    cfg.write_text("[stepper]\nscheme = explicit_em\n", encoding="utf-8")
    code = run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.5,0.25", "--paths", "2",
                    "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown config key 'scheme'" in err


def test_unknown_preset_is_an_error(tmp_path, capsys):
    code = run_cli(["sweep-averaging", "--preset", "nope", "--eps", "0.5,0.25",
                    "--paths", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_increasing_eps_grid_is_an_error(tmp_path):
    code = run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.01,0.1", "--paths", "2", "--out", str(tmp_path)])
    assert code == 1


def test_simulate_dumps_trajectory(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--preset", "scalar-linear-osc", "--eps", "0.5",
                    "--dt", "0.01", "--T", "0.1", "--seed", "1",
                    "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,c_1"
    assert len(lines) == 12  # header + 11 grid points
    t_last = float(lines[-1].split(",")[0])
    assert t_last == pytest.approx(0.1)


def test_khasminskii_and_continuity_subcommands(tmp_path):
    code = run_cli(["sweep-khasminskii", "--preset", "scalar-linear-osc",
                    "--d", "0.2,0.1,0.05", "--paths", "16", "--dt", "0.001",
                    "--T", "1.0", "--seed", "2", "--out", str(tmp_path / "k"),
                    "--format", "csv"])
    assert code == 0
    csv = (tmp_path / "k" / "report.csv").read_text().splitlines()
    assert csv[0].startswith("eps,d,paths,mean_int_sq_error")
    code = run_cli(["sweep-continuity", "--preset", "scalar-linear-osc",
                    "--delta", "0.1,0.01,0.0", "--paths", "4", "--dt", "0.001",
                    "--T", "0.5", "--eps", "0.5", "--seed", "2",
                    "--out", str(tmp_path / "c"), "--format", "csv"])
    assert code == 0
    csv = (tmp_path / "c" / "report.csv").read_text().splitlines()
    assert csv[0] == "delta,paths,mean_sup_sq_error,std_err,censored"


def test_simulate_manifest_replays(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--preset", "scalar-holder-osc", "--eps", "0.5",
                    "--dt", "0.01", "--T", "0.1", "--seed", "4",
                    "--out", str(a)]) == 0
    assert run_cli(["run", "--config", str(a / "manifest.ini"),
                    "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_audit_exit_codes(tmp_path, capsys):
    code = run_cli(["audit", "--preset", "scalar-linear-osc", "--trials", "100",
                    "--out", str(tmp_path / "a")])
    assert code == 0
    out = capsys.readouterr().out
    assert "H2: PASS" in out
    code = run_cli(["audit", "--preset", "broken-quadratic", "--trials", "100",
                    "--out", str(tmp_path / "b")])
    assert code == 2
