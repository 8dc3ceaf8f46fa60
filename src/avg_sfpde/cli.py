"""Command-line entry point: presets, sweeps, audits, and report files.

Subcommands: ``list-presets``, ``simulate``, ``sweep-averaging``,
``sweep-khasminskii``, ``sweep-continuity``, ``audit``, and ``run`` (replay a
manifest).  Every sweep writes report.csv (plus report.svg unless
``--format csv``) and manifest.ini into the output directory; re-running from
the manifest alone reproduces the report files byte for byte.

Precedence for every option: command-line flag, then environment
(``AVG_SFPDE_SEED``, ``AVG_SFPDE_THREADS``), then config file, then preset
defaults.  Unknown config keys are hard errors.  Exit codes: 0 on PASS
verdicts, 2 on FAIL verdicts, 1 on errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    SweepPlan,
    averaging_sweep,
    continuity_study,
    hypothesis_audit,
    khasminskii_diagnostic,
)
from .integrator import AVERAGED, BlowUpError, StepperConfig, run_path
from .presets import get_preset, public_names
from .reporting import (
    read_manifest,
    report_csv_text,
    report_svg_text,
    trajectory_csv_text,
    write_manifest,
)

KNOWN_KEYS = {
    "experiment": {"kind", "preset", "eps_grid", "d_grid", "delta_grid", "paths",
                   "d_rule", "constant_xi", "eps", "trials"},
    "stepper": {"dt", "T", "k", "k_w", "seed"},
    "output": {"output_dir", "format", "threads"},
}


class UsageError(ValueError):
    pass


def _parse_float_list(text):
    return tuple(float(x) for x in str(text).split(",") if x != "")


def _parse_eps(text):
    return AVERAGED if str(text) == AVERAGED else float(text)


def _parse_bool(text):
    t = str(text).lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


_COERCERS = {
    "eps_grid": _parse_float_list,
    "d_grid": _parse_float_list,
    "delta_grid": _parse_float_list,
    "paths": int, "trials": int, "k": int, "k_w": int, "seed": int,
    "threads": int, "dt": float, "T": float,
    "constant_xi": _parse_bool, "eps": _parse_eps,
}


def load_config(path) -> dict:
    sections = read_manifest(Path(path))
    flat = {}
    for sec, values in sections.items():
        if sec not in KNOWN_KEYS:
            raise UsageError(f"unknown config section [{sec}]")
        for key, raw in values.items():
            if key not in KNOWN_KEYS[sec]:
                raise UsageError(f"unknown config key {key!r} in section [{sec}]")
            if raw == "":
                continue
            flat[key] = _COERCERS.get(key, str)(raw)
    return flat


def _resolve(args, needed, defaults=None):
    """flag > env > config > defaults."""
    merged = dict(defaults or {})
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        merged.update({k: v for k, v in cfg.items() if k in needed})
    env_seed = os.environ.get("AVG_SFPDE_SEED")
    if env_seed is not None and "seed" in needed:
        merged["seed"] = int(env_seed)
    env_threads = os.environ.get("AVG_SFPDE_THREADS")
    if env_threads is not None and "threads" in needed:
        merged["threads"] = int(env_threads)
    for key in needed:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _out_dir(spec) -> Path:
    out = Path(spec.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    try:
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {out} not writable: {exc}") from exc
    return out


def _write_report(report, spec, out, kind, eps_label=None):
    (out / "report.csv").write_text(report_csv_text(report, eps_label=eps_label),
                                    encoding="utf-8")
    if spec.get("format", "csv+svg") != "csv":
        title = f"{kind}: {spec.get('preset', '')}"
        (out / "report.svg").write_text(report_svg_text(report, title),
                                        encoding="utf-8")


def _manifest_sections(kind, spec):
    exp_keys = KNOWN_KEYS["experiment"]
    step_keys = KNOWN_KEYS["stepper"]
    out_keys = KNOWN_KEYS["output"]

    def sec(keys):
        return {k: spec[k] for k in sorted(keys) if k in spec and spec[k] is not None}

    experiment = sec(exp_keys)
    experiment["kind"] = kind
    if "eps_grid" in experiment:
        experiment["eps_grid"] = ",".join(repr(e) for e in experiment["eps_grid"])
    for grid in ("d_grid", "delta_grid"):
        if grid in experiment:
            experiment[grid] = ",".join(repr(e) for e in experiment[grid])
    return {"experiment": experiment, "stepper": sec(step_keys),
            "output": sec(out_keys)}


def _echo_rows(report):
    for r in report.rows:
        extra = "" if r.extra_mean is None else f" seg={r.extra_mean:.6e}"
        se = f" se={r.std_err:.3e}" if r.std_err == r.std_err else ""
        print(f"  {report.param_name}={r.param:g} mean={r.mean:.6e}{se}"
              f" censored={r.censored}{extra}")
    if report.slope is not None:
        print(f"  fitted log-log slope: {report.slope}")
    print(f"  verdict: {'PASS' if report.verdict else 'FAIL'}"
          f" ({report.verdict_detail})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_list_presets(_args):
    for name in public_names():
        print(name)
    return 0


def _sweep_defaults(preset_name, k):
    p = get_preset(preset_name, k=k)
    return {"dt": p.dt, "T": p.T, "k_w": p.k_w, "seed": 0, "threads": 1,
            "paths": 64, "output_dir": "out", "format": "csv+svg",
            "d_rule": "sqrt_eps", "constant_xi": False}


def cmd_sweep_averaging(args):
    base = _resolve(args, {"preset", "k"}, {})
    if "preset" not in base:
        raise UsageError("missing --preset")
    needed = {"preset", "eps_grid", "paths", "d_rule", "constant_xi", "dt", "T",
              "k", "k_w", "seed", "threads", "output_dir", "format"}
    spec = _resolve(args, needed, _sweep_defaults(base["preset"], base.get("k")))
    if "eps_grid" not in spec:
        raise UsageError("missing --eps grid")
    plan = SweepPlan(preset=spec["preset"], eps_grid=spec["eps_grid"],
                     paths=spec["paths"], d_rule=spec["d_rule"], dt=spec["dt"],
                     T=spec["T"], k=spec.get("k"), k_w=spec["k_w"],
                     seed=spec["seed"], threads=spec["threads"],
                     constant_xi=spec["constant_xi"])
    out = _out_dir(spec)
    try:
        report = averaging_sweep(plan)
    except RuntimeError as exc:
        (out / "diagnostics.txt").write_text(str(exc) + "\n", encoding="utf-8")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"averaging sweep on {spec['preset']}:")
    _echo_rows(report)
    _write_report(report, spec, out, "sweep-averaging")
    write_manifest(out / "manifest.ini", _manifest_sections("sweep-averaging", spec))
    return 0 if report.verdict else 2


def cmd_sweep_khasminskii(args):
    base = _resolve(args, {"preset", "k"}, {})
    if "preset" not in base:
        raise UsageError("missing --preset")
    needed = {"preset", "d_grid", "paths", "eps", "dt", "T", "k", "k_w", "seed",
              "threads", "output_dir", "format"}
    defaults = _sweep_defaults(base["preset"], base.get("k"))
    defaults["eps"] = AVERAGED
    spec = _resolve(args, needed, defaults)
    if "d_grid" not in spec:
        raise UsageError("missing --d grid")
    out = _out_dir(spec)
    report = khasminskii_diagnostic(
        spec["preset"], spec["d_grid"], spec["paths"], dt=spec["dt"], T=spec["T"],
        k=spec.get("k"), k_w=spec["k_w"], seed=spec["seed"],
        threads=spec["threads"], eps=spec["eps"])
    print(f"khasminskii diagnostic on {spec['preset']} (eps={spec['eps']}):")
    _echo_rows(report)
    _write_report(report, spec, out, "sweep-khasminskii",
                  eps_label=str(spec["eps"]))
    write_manifest(out / "manifest.ini", _manifest_sections("sweep-khasminskii", spec))
    return 0 if report.verdict else 2


def cmd_sweep_continuity(args):
    base = _resolve(args, {"preset", "k"}, {})
    if "preset" not in base:
        raise UsageError("missing --preset")
    needed = {"preset", "delta_grid", "paths", "eps", "dt", "T", "k", "k_w",
              "seed", "threads", "output_dir", "format"}
    defaults = _sweep_defaults(base["preset"], base.get("k"))
    defaults["eps"] = 1.0
    spec = _resolve(args, needed, defaults)
    if "delta_grid" not in spec:
        raise UsageError("missing --delta grid")
    out = _out_dir(spec)
    report = continuity_study(
        spec["preset"], spec["delta_grid"], spec["paths"], dt=spec["dt"],
        T=spec["T"], k=spec.get("k"), k_w=spec["k_w"], seed=spec["seed"],
        threads=spec["threads"], eps=spec["eps"])
    print(f"continuity study on {spec['preset']}:")
    _echo_rows(report)
    _write_report(report, spec, out, "sweep-continuity")
    write_manifest(out / "manifest.ini", _manifest_sections("sweep-continuity", spec))
    return 0 if report.verdict else 2


def cmd_audit(args):
    needed = {"preset", "trials", "seed", "k", "output_dir", "format"}
    spec = _resolve(args, needed, {"trials": 1000, "seed": 0,
                                   "output_dir": "out", "format": "csv+svg"})
    if "preset" not in spec:
        raise UsageError("missing --preset")
    audit = hypothesis_audit(spec["preset"], trials=spec["trials"],
                             rng_seed=spec["seed"], k=spec.get("k"))
    lines = []
    for r in audit.results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name}: {status} ({r.detail})"
        print(line)
        lines.append(line)
    out = _out_dir(spec)
    (out / "audit.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out / "manifest.ini", _manifest_sections("audit", spec))
    return 0 if audit.all_passed else 2


def cmd_simulate(args):
    base = _resolve(args, {"preset", "k"}, {})
    if "preset" not in base:
        raise UsageError("missing --preset")
    needed = {"preset", "eps", "dt", "T", "k", "k_w", "seed", "output_dir",
              "format"}
    defaults = _sweep_defaults(base["preset"], base.get("k"))
    defaults["eps"] = 1.0
    spec = _resolve(args, needed, defaults)
    preset = get_preset(spec["preset"], k=spec.get("k"))
    cfg = StepperConfig(dt=spec["dt"], T=spec["T"], noise_modes=spec["k_w"],
                        seed=spec["seed"], eps=spec["eps"])
    out = _out_dir(spec)
    try:
        traj = run_path(preset.operator, preset.coefficients, cfg, preset.initial)
    except BlowUpError as exc:
        (out / "diagnostics.txt").write_text(str(exc) + "\n", encoding="utf-8")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out / "trajectory.csv").write_text(trajectory_csv_text(traj), encoding="utf-8")
    write_manifest(out / "manifest.ini", _manifest_sections("simulate", spec))
    print(f"wrote {out / 'trajectory.csv'} ({cfg.n_steps} steps, "
          f"dim {traj.states.shape[1]})")
    return 0


_DISPATCH = {
    "list-presets": cmd_list_presets,
    "simulate": cmd_simulate,
    "sweep-averaging": cmd_sweep_averaging,
    "sweep-khasminskii": cmd_sweep_khasminskii,
    "sweep-continuity": cmd_sweep_continuity,
    "audit": cmd_audit,
}


def cmd_run(args):
    sections = read_manifest(Path(args.config))
    kind = sections.get("experiment", {}).get("kind")
    if kind not in _DISPATCH or kind == "list-presets":
        raise UsageError(f"manifest has no replayable kind (got {kind!r})")
    handler = _DISPATCH[kind]
    return handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avg-sfpde",
        description="Monte Carlo laboratory for time-averaging of stochastic "
                    "functional PDEs with infinite delay")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="print the public preset names")

    def add_common(p, grids=()):
        p.add_argument("--preset")
        p.add_argument("--config", help="config/manifest file; flags override")
        if "eps_grid" in grids:
            p.add_argument("--eps", dest="eps_grid", type=_parse_float_list,
                           help="comma-separated decreasing eps grid")
        if "d_grid" in grids:
            p.add_argument("--d", dest="d_grid", type=_parse_float_list,
                           help="comma-separated decreasing block lengths")
        if "delta_grid" in grids:
            p.add_argument("--delta", dest="delta_grid", type=_parse_float_list,
                           help="comma-separated decreasing perturbation sizes")
        if "eps_single" in grids:
            p.add_argument("--eps", dest="eps", type=_parse_eps,
                           help="time-scale eps in (0,1] or 'averaged'")
        p.add_argument("--paths", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--kw", dest="k_w", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out", dest="output_dir")
        p.add_argument("--format", choices=["csv", "csv+svg"])

    p = sub.add_parser("simulate", help="run one path and dump the trajectory")
    add_common(p, grids=("eps_single",))

    p = sub.add_parser("sweep-averaging",
                       help="fast-vs-averaged coupled error per eps")
    add_common(p, grids=("eps_grid",))
    p.add_argument("--d-rule", dest="d_rule", choices=["sqrt_eps", "none"])
    p.add_argument("--constant-xi", dest="constant_xi", action="store_const",
                   const=True, default=None,
                   help="replace oscillators by their means (degenerate twin)")

    p = sub.add_parser("sweep-khasminskii",
                       help="block-freezing residual per block length d")
    add_common(p, grids=("d_grid", "eps_single"))

    p = sub.add_parser("sweep-continuity",
                       help="coupled error under initial-data perturbations")
    add_common(p, grids=("delta_grid", "eps_single"))

    p = sub.add_parser("audit", help="hypothesis audit of one preset")
    p.add_argument("--preset")
    p.add_argument("--config")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", dest="output_dir")

    p = sub.add_parser("run", help="replay a sweep from its manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", dest="output_dir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = cmd_run if args.command == "run" else _DISPATCH[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
