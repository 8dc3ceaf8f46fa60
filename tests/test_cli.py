"""CLI: subcommands, config handling, manifests, reproducibility."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import avg_sfpde
from avg_sfpde import integrator
from avg_sfpde.cli import main
from avg_sfpde.reporting import read_manifest


def run_cli(argv):
    return main(argv)


def test_list_presets_prints_the_four_names(capsys):
    assert run_cli(["list-presets"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["porous-media-sin", "reaction-diffusion-delay",
                   "scalar-linear-osc", "scalar-holder-osc"]


def test_import_audit_and_noise_drawing_studies_load_no_scipy(tmp_path):
    # the noise's inverse normal CDF is the package's own; scipy.fft (sine
    # transforms above 1024 grid points) loads where it is first used.  So
    # the import, list-presets, the audit and every study that draws noise on
    # the four presets at k <= 32 load no scipy module at all
    src = str(Path(avg_sfpde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [["list-presets"],
            ["audit", "--preset", "reaction-diffusion-delay", "--trials", "20"],
            ["sweep-averaging", "--preset", "scalar-linear-osc", "--eps", "0.5,0.25",
             "--paths", "2", "--dt", "0.01", "--T", "0.1", "--format", "csv"],
            ["sweep-khasminskii", "--preset", "scalar-holder-osc", "--d", "0.1,0.05",
             "--paths", "2", "--dt", "0.01", "--T", "0.2"],
            ["sweep-continuity", "--preset", "reaction-diffusion-delay", "--k", "32",
             "--delta", "0.1,0", "--paths", "2", "--dt", "0.01", "--T", "0.05"],
            ["simulate", "--preset", "porous-media-sin", "--k", "32", "--dt", "0.01",
             "--T", "0.05"]]
    runs = runs[:1] + [argv + ["--out", str(tmp_path / str(i))]
                       for i, argv in enumerate(runs[1:])]
    code = f"""
import contextlib, io, sys
from avg_sfpde.cli import main
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 2), argv   # 2: the study ran, its verdict FAIL
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert scipy == [], scipy
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


REPLAYED = {
    "sweep-averaging": (["--eps", "0.5,0.25", "--paths", "2", "--dt", "0.01"],
                        ("report.csv", "report.svg")),
    "sweep-khasminskii": (["--d", "0.2,0.1,0.05", "--paths", "4", "--dt", "0.01",
                           "--T", "0.5"], ("report.csv", "report.svg")),
    "sweep-continuity": (["--delta", "0.1,0.01,0", "--paths", "2", "--dt", "0.01",
                          "--T", "0.5", "--eps", "0.5"], ("report.csv", "report.svg")),
    "audit": (["--trials", "20"], ("audit.txt",)),
}


@pytest.mark.parametrize("command", sorted(REPLAYED))
def test_manifest_replay_reproduces_reports_byte_for_byte(tmp_path, command):
    a = tmp_path / "a"
    b = tmp_path / "b"
    flags, files = REPLAYED[command]
    assert run_cli([command, "--preset", "scalar-linear-osc", "--seed", "3",
                    "--out", str(a)] + flags) == 0
    assert run_cli(["run", "--config", str(a / "manifest.ini"),
                    "--out", str(b)]) == 0
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


@pytest.mark.parametrize("line, named", [
    ("trials = 5", "'trials' is not used by sweep-averaging"),
    ("kind = sweep-khasminskii", "'sweep-khasminskii' does not match"),
    ("d_rule = sqrt", "d_rule must be one of sqrt_eps, none"),
])
def test_config_outside_the_subcommand_is_hard_error(tmp_path, capsys, line, named):
    cfg = tmp_path / "other.ini"
    cfg.write_text(f"[experiment]\n{line}\n", encoding="utf-8")
    code = run_cli(["sweep-averaging", "--preset", "scalar-linear-osc",
                    "--eps", "0.5,0.25", "--paths", "2",
                    "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", [["--format", "pdf"], ["--d-rule", "x"], ["--bogus"]])
def test_usage_error_exits_1_not_the_fail_code(tmp_path, capsys, flag):
    # argparse's own exit code, 2, is the code of a FAIL verdict
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep-averaging", "--preset", "scalar-linear-osc", "--eps", "0.5,0.1",
                 "--out", str(tmp_path / "o")] + flag)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


AVG = ["sweep-averaging", "--eps", "0.5,0.25", "--dt", "0.01", "--T", "0.1"]
CONT = ["sweep-continuity", "--delta", "0.1,0", "--dt", "0.01", "--T", "0.1"]
FRZ = ["sweep-khasminskii", "--d", "0.2,0.1", "--dt", "0.01", "--T", "0.1"]
RD8 = ["--preset", "reaction-diffusion-delay", "--k", "8"]
LIN = ["--preset", "scalar-linear-osc"]


@pytest.mark.parametrize("argv, named", [
    (AVG + LIN + ["--k", "7"], "k = 7"),
    (["audit", "--preset", "broken-quadratic", "--k", "7"], "k = 7"),
    (AVG + ["--preset", "reaction-diffusion-delay", "--k", "0"], "k = 0"),
    (AVG + RD8 + ["--kw", "0"], "k_w = 0"),
    (AVG + RD8 + ["--kw", "64"], "k_w = 64"),
    (AVG + LIN + ["--kw", "2"], "k_w = 2"),
    (["simulate", "--preset", "porous-media-sin", "--kw", "3", "--T", "0.01"],
     "k_w = 3"),
    (AVG + LIN + ["--threads", "0"], "threads = 0"),
    (CONT + LIN + ["--threads", "-3"], "threads = -3"),
    (AVG + LIN + ["--paths", "1"], "paths = 1"),
    (CONT + LIN + ["--paths", "1"], "paths = 1"),
    (FRZ + LIN + ["--paths", "0"], "paths = 0"),
    (AVG + LIN + ["--eps", "2,1"], "eps_grid"),
    (AVG + LIN + ["--eps", "0.25,0.5"], "eps_grid"),
    (FRZ + LIN + ["--d", "0.1,0"], "d_grid"),
    (FRZ + LIN + ["--d", "0.1,0.2"], "d_grid"),
    (CONT + LIN + ["--delta=-0.1,0.1,0"], "delta_grid"),
    (CONT + LIN + ["--delta", "0,0.1"], "delta_grid"),
    (AVG + LIN + ["--eps", ""], "eps_grid"),
    (AVG + LIN + ["--eps", "0.5,,0.1"], "eps_grid"),
    (AVG + LIN + ["--eps", "0.5,0.1,"], "eps_grid"),
    (FRZ + LIN + ["--d", "0.2,,0.1"], "d_grid"),
    (CONT + LIN + ["--delta", "0.1,0,"], "delta_grid"),
    (AVG[:1] + LIN + ["--config", "[experiment]\neps_grid = 0.5,,0.1\n"], "eps_grid"),
    (FRZ[:1] + LIN + ["--config", "[experiment]\nd_grid = 0.2,0.1,\n"], "d_grid"),
    (CONT[:1] + LIN + ["--config", "[experiment]\ndelta_grid = ,0.1,0\n"], "delta_grid"),
    (FRZ[:1] + LIN + ["--d", "0.2,0.015", "--dt", "0.01"], "d_grid = 0.2,0.015: "),
    (["audit", "--preset", "scalar-linear-osc", "--trials", "0"], "trials = 0: "),
    (["audit", "--preset", "scalar-linear-osc", "--seed", "-1"], "seed = -1: "),
    (AVG + LIN + ["--T", "inf"], "T = inf: "),
    (AVG + LIN + ["--T", "nan"], "T = nan: "),
    (AVG + LIN + ["--dt", "nan"], "dt = nan: "),
    (AVG + LIN + ["--dt", "1e-300", "--T", "1e10"], "T = 10000000000.0, dt = 1e-300: "),
    (AVG + LIN + ["--seed", "18446744073709551616"], "seed = 18446744073709551616: "),
    (AVG + LIN + ["--seed", "-1"], "seed = -1: "),
    (["simulate", "--preset", "scalar-linear-osc", "--T", "0.01", "--seed", "-1"],
     "seed = -1: "),
    (FRZ + LIN + ["--d", "inf,0.1"], "d_grid = inf,0.1: "),
    (FRZ + LIN + ["--d", "nan,0.1"], "d_grid = nan,0.1: "),
    (CONT + LIN + ["--delta", "inf,0.1,0"], "delta_grid = inf,0.1,0.0: "),
    (["run", "--config", "seed = 3\n"], "config.ini: File contains no section headers"),
    (["run", "--config", "[experiment]\npreset = scalar-linear-osc\npreset = nope\n"],
     "config.ini' [line 3]: option 'preset' in section 'experiment' already exists"),
])
def test_input_the_run_cannot_honour_is_rejected(tmp_path, capsys, argv, named):
    # each of these ran, ignoring or clipping the value, was rejected
    # without naming its key, or escaped as a traceback.  An argument that
    # holds a newline is the text of a config file.
    argv = list(argv)
    for i, a in enumerate(argv):
        if "\n" in a:
            argv[i] = str(tmp_path / "config.ini")
            (tmp_path / "config.ini").write_text(a, encoding="utf-8")
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_percent_in_a_value_is_written_and_read_verbatim(tmp_path):
    # configparser's default interpolation read "%1" as a reference: the
    # manifest was not written, and a config file holding it did not parse
    a, b, c = tmp_path / "o%1", tmp_path / "b", tmp_path / "c%%"
    audit = ["audit", "--preset", "scalar-linear-osc", "--trials", "5"]
    assert run_cli(audit + ["--out", str(a)]) == 0
    assert read_manifest(a / "manifest.ini")["output"]["output_dir"] == str(a)
    assert run_cli(["run", "--config", str(a / "manifest.ini"), "--out", str(b)]) == 0
    assert (a / "audit.txt").read_bytes() == (b / "audit.txt").read_bytes()
    config = tmp_path / "config.ini"
    config.write_text(f"[output]\noutput_dir = {c}\n", encoding="utf-8")
    assert run_cli(audit + ["--config", str(config)]) == 0
    assert (c / "audit.txt").read_bytes() == (a / "audit.txt").read_bytes()
    assert read_manifest(c / "manifest.ini")["output"]["output_dir"] == str(c)


@pytest.mark.parametrize("out", [" o", "o ", "o\np"])
def test_a_string_the_manifest_cannot_carry_is_rejected(tmp_path, monkeypatch, capsys, out):
    # configparser strips a value and ends it at a line break: a run into
    # " o" recorded output_dir " o", and its replay wrote into "o"
    monkeypatch.chdir(tmp_path)
    assert run_cli(["audit", "--preset", "scalar-linear-osc", "--trials", "5",
                    "--out", out]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == \
        [f"usage error: output_dir = {out!r}: a manifest cannot carry surrounding "
         "whitespace or a line break"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given", [["--out", ""], ["--config", "[output]\noutput_dir =\n"]])
def test_an_empty_value_is_rejected(tmp_path, monkeypatch, capsys, given):
    # an empty --out wrote into the working directory and recorded
    # "output_dir = " in its manifest; a config file's empty value was
    # skipped, so a replay of that manifest wrote into out/
    monkeypatch.chdir(tmp_path)
    if given[0] == "--config":
        (tmp_path / "config.ini").write_text(given[1], encoding="utf-8")
        given = ["--config", "config.ini"]
    assert run_cli(["simulate", "--preset", "scalar-linear-osc", "--T", "0.01"] + given) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == \
        ["usage error: output_dir = '': the value is empty"]
    assert [p.name for p in tmp_path.iterdir()] in ([], ["config.ini"])


@pytest.mark.parametrize("argv, named", [
    (FRZ + LIN + ["--paths", "0"], "paths = 0"),
    (AVG + RD8 + ["--kw", "0"], "k_w = 0"),
    (["simulate"] + LIN + ["--dt", "0.003", "--T", "0.01"], "integer multiple of dt"),
    (["simulate"] + LIN + ["--dt", "1e-300"], "T = 1.0, dt = 1e-300: T / dt = 1e+300 steps"),
])
def test_a_rejected_input_leaves_no_output_directory(tmp_path, capsys, argv, named):
    # each exited 1 and left its --out directory behind, made before the
    # study checked its inputs; directories that were there before stay
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "new" / "deeper", kept / "o"):
        assert run_cli(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["simulate"] + LIN + ["--dt", "0.01", "--T", "0.1"],
     "T = 0.1, dt = 0.01: a stored trajectory of 11 steps x 1 rows x dim 1 takes 88 bytes"),
    (FRZ + LIN + ["--paths", "2"],
     "T = 0.1, dt = 0.01: a stored trajectory of 11 steps x 2 rows x dim 1 takes 176 bytes"),
])
def test_a_trajectory_too_large_to_store_is_rejected_by_name(tmp_path, capsys, monkeypatch,
                                                             argv, named):
    # the step bound alone let (n_steps + 1, rows, dim) states of any size be
    # allocated; the byte bound is lowered here, so nothing large is asked for
    monkeypatch.setattr(integrator, "MAX_TRAJECTORY_BYTES", 64)
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"error: {named}, more than MAX_TRAJECTORY_BYTES = 64"]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_an_output_path_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    # making the directory raised FileExistsError, which escaped as a traceback
    (tmp_path / "f").write_text("kept", encoding="utf-8")
    assert run_cli(["simulate", "--preset", "scalar-linear-osc", "--T", "0.01",
                    "--out", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: output directory {tmp_path / 'f'} not writable" in err
    assert (tmp_path / "f").read_text(encoding="utf-8") == "kept"


def test_continuity_blow_up_leaves_diagnostics(tmp_path, capsys):
    out = tmp_path / "c"
    code = run_cli(["sweep-continuity", "--preset", "broken-quadratic",
                    "--delta", "100,10,1", "--paths", "2", "--eps", "0.5",
                    "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "largest delta = 100.0" in err
    assert "blew up" in (out / "diagnostics.txt").read_text()
    assert not (out / "manifest.ini").exists()


def test_blow_up_diagnostics_read_as_one_sentence(tmp_path):
    # the error message ends at its mode and the study's context follows
    # after one space
    out = tmp_path / "c"
    assert run_cli(["sweep-continuity", "--preset", "broken-quadratic",
                    "--delta", "100,10,1", "--paths", "2", "--eps", "0.5",
                    "--out", str(out)]) == 1
    text = (out / "diagnostics.txt").read_text()
    assert "  " not in text
    assert "(mode 0) (preset broken-quadratic" in text


def test_blow_up_prints_only_its_error_line(tmp_path, capsys):
    # the runner detects the non-finite rows itself; no numpy overflow or
    # invalid-value warning may reach the user ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["sweep-continuity", "--preset", "broken-quadratic",
                        "--delta", "100,10,1", "--paths", "2", "--eps", "0.5",
                        "--out", str(tmp_path / "c")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: blow-up ")


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
    recorded = {k for sec in read_manifest(a / "manifest.ini").values() for k in sec}
    assert not recorded & {"paths", "threads", "d_rule", "constant_xi", "format"}


def test_audit_exit_codes(tmp_path, capsys):
    code = run_cli(["audit", "--preset", "scalar-linear-osc", "--trials", "100",
                    "--out", str(tmp_path / "a")])
    assert code == 0
    out = capsys.readouterr().out
    assert "H2: PASS" in out
    code = run_cli(["audit", "--preset", "broken-quadratic", "--trials", "100",
                    "--out", str(tmp_path / "b")])
    assert code == 2


def test_khasminskii_overflowing_segment_residual_is_an_error_not_a_pass(tmp_path, capsys):
    # e^(2hT) overflows past 2hT ~ 709.8 (T = 360 at h = 1): the segment
    # residual would be NaN and its column empty under a PASS verdict
    code = run_cli(["sweep-khasminskii", "--preset", "scalar-linear-osc",
                    "--d", "0.5,0.25,0.1", "--paths", "2", "--T", "360", "--dt", "0.05",
                    "--out", str(tmp_path)])
    assert code == 1
    assert "T = 360.0, h = 1.0" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "manifest.ini").exists()
