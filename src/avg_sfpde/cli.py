"""Command-line entry point: presets, sweeps, audits, and report files.

Subcommands: ``list-presets``, ``simulate``, ``sweep-averaging``,
``sweep-khasminskii``, ``sweep-continuity``, ``audit``, and ``run`` (replay a
manifest).  Every sweep writes report.csv (plus report.svg unless
``--format csv``) and manifest.ini into the output directory; re-running from
the manifest alone reproduces the report files byte for byte.

``KEYS`` is the one table of config keys: each key's manifest section, its
flag, and its parser.  ``COMMANDS`` gives each subcommand the keys it reads,
the keys it requires, its defaults, and its study call; its flags are made
from its keys, and ``_run_command`` runs every subcommand the same way.
``_resolve`` is the one place that resolves a run's inputs: it builds the
preset once, fills the preset's ``dt``, ``T`` and ``k_w`` in as defaults, and
the study receives the built preset.

Precedence for every key: command-line flag, then environment
(``AVG_SFPDE_SEED``, ``AVG_SFPDE_THREADS``), then config file, then
defaults.  A config key the subcommand does not read, an unknown key, and a
``kind`` naming another subcommand are hard errors, so a manifest records
exactly the keys its run used.  A blow-up that aborts a study leaves
diagnostics.txt.  Exit codes: 0 on PASS verdicts, 2 on FAIL verdicts, 1 on
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .experiments import (
    AVERAGED,
    averaging_sweep,
    continuity_study,
    hypothesis_audit,
    khasminskii_diagnostic,
    stepping,
)
from .integrator import run_path
from .presets import constant_xi, get_preset, public_names
from .reporting import (
    read_manifest,
    report_csv_text,
    report_svg_text,
    trajectory_csv_text,
    write_manifest,
)


class UsageError(ValueError):
    pass


def _parse_float_list(text):
    entries = str(text).split(",")
    if "" in entries:
        raise ValueError("empty entry")
    return tuple(float(x) for x in entries)


def _parse_eps(text):
    return AVERAGED if str(text) == AVERAGED else float(text)


def _parse_bool(text):
    t = str(text).lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Key:
    section: str
    flag: str
    parse: object = str
    help: str | None = None
    choices: tuple | None = None
    env: str | None = None


KEYS = {
    "preset": Key("experiment", "--preset"),
    "eps_grid": Key("experiment", "--eps", _parse_float_list,
                    "comma-separated decreasing eps grid"),
    "d_grid": Key("experiment", "--d", _parse_float_list,
                  "comma-separated decreasing block lengths"),
    "delta_grid": Key("experiment", "--delta", _parse_float_list,
                      "comma-separated decreasing perturbation sizes"),
    "eps": Key("experiment", "--eps", _parse_eps,
               "time-scale eps in (0,1] or 'averaged'"),
    "paths": Key("experiment", "--paths", int),
    "d_rule": Key("experiment", "--d-rule", choices=("sqrt_eps", "none")),
    "constant_xi": Key("experiment", "--constant-xi", _parse_bool,
                       "replace oscillators by their means (degenerate twin)"),
    "trials": Key("experiment", "--trials", int),
    "dt": Key("stepper", "--dt", float),
    "T": Key("stepper", "--T", float),
    "k": Key("stepper", "--k", int),
    "k_w": Key("stepper", "--kw", int),
    "seed": Key("stepper", "--seed", int, env="AVG_SFPDE_SEED"),
    "output_dir": Key("output", "--out"),
    "format": Key("output", "--format", choices=("csv", "csv+svg")),
    "threads": Key("output", "--threads", int, env="AVG_SFPDE_THREADS"),
}


# ---------------------------------------------------------------------------
# study calls: run the study on a resolved spec and its built preset, write
# its files, return the verdict
# ---------------------------------------------------------------------------

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


def _write_report(report, spec, out, kind, eps_label=None):
    _echo_rows(report)
    (out / "report.csv").write_text(report_csv_text(report, eps_label=eps_label),
                                    encoding="utf-8")
    if spec["format"] != "csv":
        title = f"{kind}: {spec['preset']}"
        (out / "report.svg").write_text(report_svg_text(report, title),
                                        encoding="utf-8")
    return report.verdict


def _parse(key, raw):
    """A key's flag, environment or config string, parsed; a bad value names the key."""
    try:
        return KEYS[key].parse(raw)
    except ValueError as exc:
        raise UsageError(f"{key} = {raw!r}: {exc}") from exc


def _sweep_args(spec):
    return dict(dt=spec["dt"], T=spec["T"], k_w=spec["k_w"], seed=spec["seed"],
                threads=spec["threads"])


def _simulate(spec, preset, out):
    cs, cfg = stepping(preset, spec["dt"], spec["T"], spec["k_w"], spec["seed"],
                       spec["eps"])
    traj = run_path(preset.operator, cs, cfg, preset.initial)
    (out / "trajectory.csv").write_text(trajectory_csv_text(traj), encoding="utf-8")
    print(f"wrote {out / 'trajectory.csv'} ({cfg.n_steps} steps, "
          f"dim {traj.states.shape[1]})")
    return True


def _sweep_averaging(spec, preset, out):
    if spec["constant_xi"]:
        preset = constant_xi(preset)
    report = averaging_sweep(preset, spec["eps_grid"], spec["paths"],
                             d_rule=spec["d_rule"], **_sweep_args(spec))
    print(f"averaging sweep on {spec['preset']}:")
    return _write_report(report, spec, out, "sweep-averaging")


def _sweep_khasminskii(spec, preset, out):
    report = khasminskii_diagnostic(preset, spec["d_grid"], spec["paths"],
                                    eps=spec["eps"], **_sweep_args(spec))
    print(f"khasminskii diagnostic on {spec['preset']} (eps={spec['eps']}):")
    return _write_report(report, spec, out, "sweep-khasminskii",
                         eps_label=str(spec["eps"]))


def _sweep_continuity(spec, preset, out):
    report = continuity_study(preset, spec["delta_grid"], spec["paths"],
                              eps=spec["eps"], **_sweep_args(spec))
    print(f"continuity study on {spec['preset']}:")
    return _write_report(report, spec, out, "sweep-continuity")


def _audit(spec, preset, out):
    audit = hypothesis_audit(preset, trials=spec["trials"], rng_seed=spec["seed"])
    lines = [f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})"
             for r in audit.results]
    print("\n".join(lines))
    (out / "audit.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return audit.all_passed


# ---------------------------------------------------------------------------
# the command table and its one runner
# ---------------------------------------------------------------------------

_STEPPING = {"preset", "dt", "T", "k", "k_w", "seed", "output_dir"}
_SWEEP = _STEPPING | {"paths", "eps", "threads", "format"}


@dataclass(frozen=True)
class Command:
    help: str
    keys: frozenset
    required: tuple
    run: object
    defaults: dict = field(default_factory=dict)


COMMANDS = {
    "simulate": Command(
        "run one path and dump the trajectory",
        frozenset(_STEPPING | {"eps"}), ("preset",), _simulate, {"eps": 1.0}),
    "sweep-averaging": Command(
        "fast-vs-averaged coupled error per eps",
        frozenset(_SWEEP - {"eps"} | {"eps_grid", "d_rule", "constant_xi"}),
        ("preset", "eps_grid"), _sweep_averaging),
    "sweep-khasminskii": Command(
        "block-freezing residual per block length d",
        frozenset(_SWEEP | {"d_grid"}), ("preset", "d_grid"), _sweep_khasminskii,
        {"eps": AVERAGED}),
    "sweep-continuity": Command(
        "coupled error under initial-data perturbations",
        frozenset(_SWEEP | {"delta_grid"}), ("preset", "delta_grid"),
        _sweep_continuity, {"eps": 1.0}),
    "audit": Command(
        "hypothesis audit of one preset",
        frozenset({"preset", "trials", "seed", "k", "output_dir"}), ("preset",),
        _audit, {"trials": 1000}),
}

_DEFAULTS = {"seed": 0, "threads": 1, "paths": 64, "output_dir": "out",
             "format": "csv+svg", "d_rule": "sqrt_eps", "constant_xi": False}


def load_config(path, name) -> dict:
    """The keys of a config file or manifest, parsed, for subcommand ``name``."""
    keys = COMMANDS[name].keys
    flat = {}
    for sec, values in read_manifest(Path(path)).items():
        if sec not in {k.section for k in KEYS.values()}:
            raise UsageError(f"unknown config section [{sec}]")
        for key, raw in values.items():
            if sec == "experiment" and key == "kind":
                if raw != name:
                    raise UsageError(f"config kind {raw!r} does not match "
                                     f"subcommand {name}")
                continue
            if key not in KEYS or KEYS[key].section != sec:
                raise UsageError(f"unknown config key {key!r} in section [{sec}]")
            if key not in keys:
                raise UsageError(f"config key {key!r} is not used by {name}")
            if raw == "":
                continue
            flat[key] = _parse(key, raw)
            if KEYS[key].choices and flat[key] not in KEYS[key].choices:
                raise UsageError(f"{key} must be one of "
                                 f"{', '.join(KEYS[key].choices)}, not {raw!r}")
    return flat


def _resolve(name, args):
    """The run's keys, flag > env > config > defaults over its key set, and
    its built preset."""
    command = COMMANDS[name]
    spec = load_config(args.config, name) if args.config else {}
    for key in command.keys:
        env = KEYS[key].env
        if env is not None and env in os.environ:
            spec[key] = _parse(key, os.environ[env])
        flag = getattr(args, key, None)
        if flag is not None:
            spec[key] = _parse(key, flag)
    for key in command.required:
        if key not in spec:
            raise UsageError(f"missing {KEYS[key].flag}")
    preset = get_preset(spec["preset"], k=spec.get("k"))
    defaults = {**_DEFAULTS, **command.defaults,
                "dt": preset.dt, "T": preset.T, "k_w": preset.k_w}
    spec = {**{k: v for k, v in defaults.items() if k in command.keys}, **spec}
    return spec, preset


def _out_dir(spec) -> Path:
    out = Path(spec["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    try:
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {out} not writable: {exc}") from exc
    return out


def _manifest_sections(name, spec):
    sections = {"experiment": {}, "stepper": {}, "output": {}}
    for key in sorted(spec):
        value = spec[key]
        if KEYS[key].parse is _parse_float_list:
            value = ",".join(repr(e) for e in value)
        sections[KEYS[key].section][key] = value
    sections["experiment"]["kind"] = name
    return sections


def _run_command(name, args):
    spec, preset = _resolve(name, args)
    out = _out_dir(spec)
    try:
        verdict = COMMANDS[name].run(spec, preset, out)
    except RuntimeError as exc:  # a blow-up that aborts the study
        (out / "diagnostics.txt").write_text(str(exc) + "\n", encoding="utf-8")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_manifest(out / "manifest.ini", _manifest_sections(name, spec))
    return 0 if verdict else 2


def _replay(args):
    sections = read_manifest(Path(args.config))
    kind = sections.get("experiment", {}).get("kind")
    if kind not in COMMANDS:
        raise UsageError(f"manifest has no replayable kind (got {kind!r})")
    return _run_command(kind, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avg-sfpde",
        description="Monte Carlo laboratory for time-averaging of stochastic "
                    "functional PDEs with infinite delay")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="print the public preset names")

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="config/manifest file; flags override")
        for key in sorted(command.keys):
            spec = KEYS[key]
            if spec.parse is _parse_bool:
                p.add_argument(spec.flag, dest=key, action="store_const",
                               const=True, default=None, help=spec.help)
            else:  # parsed in _resolve, where a bad value can name its key
                p.add_argument(spec.flag, dest=key, choices=spec.choices,
                               help=spec.help)

    p = sub.add_parser("run", help="replay a sweep from its manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", dest="output_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            print("\n".join(public_names()))
            return 0
        if args.command == "run":
            return _replay(args)
        return _run_command(args.command, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
