"""The CLI contract as one property: every argv built from ``COMMANDS`` and
``KEYS`` exits 0, 1 or 2, and each exit keeps its promise.

An example gives every key its command reads a value that the run should
accept (tiny sizes and boundary values), and at most one key a value that it
should reject (NaN, +-inf, 0, negative, empty, whitespace, ``%``, non-ASCII,
unordered or duplicate grids, a required key left out).  The values go in as
flags or, in some examples, as a config file.  The test asserts:

  * on exit 1, one ``error:`` line on stderr and no new file or directory,
    apart from the diagnostics.txt a blow-up leaves in its output directory;
  * no RuntimeWarning;
  * on exit 0 or 2, ``run --config <manifest>`` exits the same and rewrites
    every file of the output directory with the same bytes.

A run steps at most T / dt = 8 steps of at most 3 paths, on at most 2
threads, so no example steps more than a few hundred path-steps.
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from avg_sfpde.cli import COMMANDS, KEYS, main

OMIT = None
FIELDS = ("reaction-diffusion-delay", "porous-media-sin", "heat-deterministic")
NUMERIC_BAD = ("nan", "inf", "-inf", "0", "-1", "", " 1", "%", "é")
GRID_BAD = ("nan,0.1", "inf,0.1", "0.1,-inf", "0.05,0.1", "0.1,0.1", "0.1,,0.05",
            "", " 0.1", "0.1%", "é")

# key: (values the run should accept, values it should reject); OMIT leaves
# the flag out
VALUES = {
    "preset": (("scalar-linear-osc", "scalar-holder-osc", "broken-quadratic") + FIELDS,
               (OMIT, "nope", "", " scalar-linear-osc", "scalar-linear-osc%",
                "réaction")),
    "eps_grid": (("0.5,0.25", "1,0.5,0.1", "0.5"), (OMIT, "2,1") + GRID_BAD),
    "d_grid": (("0.1,0.05", "0.2,0.1", "0.1"), (OMIT, "0.1,0.015") + GRID_BAD),
    "delta_grid": (("0.1,0", "1,0.01", "0"), (OMIT, "0,0.1", "-0.1,0") + GRID_BAD),
    "eps": ((OMIT, "averaged", "1", "0.5", "1e-3"), ("2", "averaged ") + NUMERIC_BAD),
    "paths": (("2", "3"), ("1", "2.5", "x") + NUMERIC_BAD),
    "d_rule": ((OMIT, "sqrt_eps", "none"), ("sqrt", "", "é")),
    "constant_xi": ((OMIT, True), ()),
    "trials": (("1", "3"), ("x", "1.5") + NUMERIC_BAD),
    "dt": (("0.05", "0.025"), ("1e-300", "0.03") + NUMERIC_BAD),
    "T": (("0.1", "0.2"), ("1e10",) + NUMERIC_BAD),
    "k": ((OMIT, "1", "4"), ("x", "4.0") + NUMERIC_BAD),    # a scalar preset: OMIT
    "k_w": ((OMIT, "1"), ("2", "100", "x") + NUMERIC_BAD),
    "seed": ((OMIT, "0", "7", str(2**32 - 1)), (str(2**64), "x") + NUMERIC_BAD),
    "output_dir": (("out", "a%b", "é", "o/deeper"), ("", " o", "o ")),
    "format": ((OMIT, "csv", "csv+svg"), ("pdf", "", "csv ")),
    "threads": ((OMIT, "1", "2"), ("x",) + NUMERIC_BAD),
}


@st.composite
def argvs(draw):
    """A subcommand's argv, the text of the config file it reads (None: it
    reads none) and its output directory; half of them hold one value to
    reject."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    keys = sorted(COMMANDS[name].keys, key=lambda k: k != "preset")
    bad = draw(st.one_of(st.none(), st.sampled_from([k for k in keys if VALUES[k][1]])))
    via_config = draw(st.booleans())
    argv, sections, out, preset = [name], {}, None, None
    for key in keys:
        good, wrong = VALUES[key]
        if key in ("k", "k_w") and preset not in FIELDS:
            good = (OMIT,)
        value = draw(st.sampled_from(wrong if key == bad else good))
        if key == "preset":
            preset = value
        if key == "output_dir":       # configparser strips a value
            out = value.strip() if via_config else value
        if value is OMIT:
            continue
        if via_config:
            sections.setdefault(KEYS[key].section, []).append(f"{key} = {value}")
        else:
            argv.append(KEYS[key].flag if value is True else f"{KEYS[key].flag}={value}")
    config = "".join(f"[{sec}]\n" + "".join(line + "\n" for line in lines)
                     for sec, lines in sections.items())
    return argv, (config if via_config else None), out


def _call(argv):
    """Exit code, stderr and the RuntimeWarnings of one in-process run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's own usage errors
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue(), runtime


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@given(argvs())
@settings(max_examples=80, deadline=None)
def test_every_argv_keeps_the_cli_contract(case):
    argv, config, out = case
    env = {k: v for k, v in os.environ.items()
           if k not in ("AVG_SFPDE_SEED", "AVG_SFPDE_THREADS")}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True), \
            contextlib.chdir(tmp):
        root = Path(tmp)
        if config is not None:
            (root / "config.ini").write_text(config, encoding="utf-8")
            argv = argv + ["--config", "config.ini"]
        before = _files(root)
        code, err, runtime = _call(argv)
        assert code in (0, 1, 2), (argv, config, code, err)
        assert runtime == [], (argv, config, runtime)
        assert "Traceback" not in err
        made = {p: b for p, b in _files(root).items() if p not in before}
        if code == 1:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, config, err)
            record = Path(out, "diagnostics.txt")
            if record.exists():                 # a blow-up's record
                assert "blew up" in err, (argv, config, err)
                kept = {p.as_posix() for p in (record, *record.parents)}
                made = {p: b for p, b in made.items() if p not in kept}
            assert made == {}, (argv, config, sorted(made))
            return
        replay = _call(["run", "--config", str(Path(out, "manifest.ini"))])
        assert replay == (code, "", []), (argv, config, replay)
        assert {p: b for p, b in _files(root).items() if p not in before} == made, argv
