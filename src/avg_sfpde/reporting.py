"""Deterministic report files: CSV rows, self-contained SVG plots, manifests.

Floats are written with repr (shortest round-trip form) and the SVG is built
from string templates only, so identical runs produce identical bytes.  Each
report kind's CSV schema is one table, ``CSV_COLUMNS``, of headers and the
row fields written under them.
"""

from __future__ import annotations

import configparser
import io
import math
from pathlib import Path

from .experiments import ExperimentReport

# each report kind's CSV columns, header: the ReportRow field written there;
# None is the khasminskii eps column, which holds the run's eps label
CSV_COLUMNS = {
    "averaging": {"eps": "param", "d": "d", "paths": "paths",
                  "mean_sup_sq_error": "mean", "std_err": "std_err",
                  "censored": "censored"},
    "khasminskii": {"eps": None, "d": "d", "paths": "paths",
                    "mean_int_sq_error": "mean", "mean_int_sq_seg_error": "extra_mean",
                    "std_err": "std_err", "censored": "censored"},
    "continuity": {"delta": "param", "paths": "paths", "mean_sup_sq_error": "mean",
                   "std_err": "std_err", "censored": "censored"},
}


def _fmt(x) -> str:
    if x is None or x != x:        # None and NaN are empty cells
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def report_csv_text(report: ExperimentReport, eps_label: str | None = None) -> str:
    columns = CSV_COLUMNS[report.kind]
    lines = [",".join(columns)]
    for r in report.rows:
        lines.append(",".join(_fmt(eps_label if f is None else getattr(r, f))
                              for f in columns.values()))
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj) -> str:
    dim = traj.states.shape[1]
    lines = ["t," + ",".join(f"c_{i}" for i in range(1, dim + 1))]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([_fmt(float(t))] + [_fmt(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG log-log plot
# ---------------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _decades(lo: float, hi: float):
    a = math.floor(math.log10(lo))
    b = math.ceil(math.log10(hi))
    return [10.0**k for k in range(int(a), int(b) + 1)]


def report_svg_text(report: ExperimentReport, title: str) -> str:
    pts = [(r.param, r.mean, r.std_err) for r in report.rows
           if r.mean is not None and math.isfinite(r.mean) and r.mean > 0
           and r.param > 0]
    out = io.StringIO()
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
              f'viewBox="0 0 {_W} {_H}">\n')
    out.write(f'<rect width="{_W}" height="{_H}" fill="white"/>\n')
    out.write(f'<text x="{_W / 2}" y="24" text-anchor="middle" '
              f'font-family="monospace" font-size="14">{title}</text>\n')
    if not pts:
        out.write(f'<text x="{_W / 2}" y="{_H / 2}" text-anchor="middle" '
                  f'font-family="monospace" font-size="12">'
                  'no positive rows to plot (degenerate sweep)</text>\n</svg>\n')
        return out.getvalue()

    xs = [p[0] for p in pts]
    ys_lo = [max(p[1] - 2 * p[2], p[1] * 1e-3) for p in pts]
    ys_hi = [p[1] + 2 * p[2] for p in pts]
    x_dec = _decades(min(xs), max(xs))
    y_dec = _decades(min(ys_lo), max(ys_hi))
    x0, x1 = math.log10(x_dec[0]), math.log10(x_dec[-1])
    y0, y1 = math.log10(y_dec[0]), math.log10(y_dec[-1])
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return _ML + (math.log10(x) - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (math.log10(y) - y0) / (y1 - y0) * (_H - _MT - _MB)

    out.write(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
              f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>\n')
    for xd in x_dec:
        out.write(f'<line x1="{px(xd):.2f}" y1="{_MT}" x2="{px(xd):.2f}" '
                  f'y2="{_H - _MB}" stroke="#dddddd"/>\n')
        out.write(f'<text x="{px(xd):.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                  f'font-family="monospace" font-size="11">1e{int(math.log10(xd))}'
                  '</text>\n')
    for yd in y_dec:
        out.write(f'<line x1="{_ML}" y1="{py(yd):.2f}" x2="{_W - _MR}" '
                  f'y2="{py(yd):.2f}" stroke="#dddddd"/>\n')
        out.write(f'<text x="{_ML - 8}" y="{py(yd):.2f}" text-anchor="end" '
                  f'dominant-baseline="middle" font-family="monospace" '
                  f'font-size="11">1e{int(math.log10(yd))}</text>\n')
    out.write(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" '
              f'font-family="monospace" font-size="12">{report.param_name}</text>\n')

    path = " ".join(f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
                    for i, (x, y, _) in enumerate(pts))
    out.write(f'<path d="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n')
    for x, y, se in pts:
        if se > 0:
            lo = max(y - 2 * se, 10.0**y0)
            hi = y + 2 * se
            out.write(f'<line x1="{px(x):.2f}" y1="{py(lo):.2f}" x2="{px(x):.2f}" '
                      f'y2="{py(hi):.2f}" stroke="#1f77b4"/>\n')
        out.write(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                  f'fill="#1f77b4"/>\n')
    if report.slope is not None:
        out.write(f'<text x="{_W - _MR - 6}" y="{_MT + 16}" text-anchor="end" '
                  f'font-family="monospace" font-size="12">slope '
                  f'{report.slope.slope:.3f} &#177; {report.slope.ci_half:.3f}'
                  '</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(path: Path, sections: dict) -> None:
    cp = configparser.ConfigParser(interpolation=None)     # values verbatim, % too
    cp.optionxform = str
    for name, values in sections.items():
        cp[name] = {k: _fmt(v) if isinstance(v, float) else str(v)
                    for k, v in values.items()}
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def read_manifest(path: Path) -> dict:
    """The sections of a config file or manifest; a file that configparser
    cannot parse is a ValueError that names it."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        read = cp.read(str(path))
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: " + " ".join(str(exc).split())) from exc
    if not read:
        raise FileNotFoundError(path)
    return {name: dict(cp[name]) for name in cp.sections()}
