"""Alternating benchmark pairs of a parent commit and a change commit.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs N --seconds S --out BENCH_<issue>.json

Run from the root of the repository.  Each commit's tree is exported with
``git archive`` into its own directory under ``--scratch`` (a new temporary
directory by default).  Then, N times, ``python3 perfbench/run.py --workload
all --seconds S`` runs once in each tree, the parent first in even pairs and
the change first in odd ones.  Each
run's detail files (``.perfbench/<workload>-seed0-trace0.json``) are read
for the end-to-end metrics that ``BENCHMARK.json`` declares, ``correct`` and
the report digests.  The output file holds the command, both commits with
the environment and code digest of their runs, every pair, and per workload
and metric the parent's median and quartiles, the change's median and the
number of pairs in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def export(commit: str, dest: Path) -> str:
    """The full hash of commit, its tree written to dest by git archive."""
    sha = subprocess.run(["git", "rev-parse", commit], check=True, capture_output=True,
                         text=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(tree: Path, seconds: float, workloads, metrics) -> dict:
    """One run.py run in tree: per workload, its metrics, correct and digests."""
    shutil.rmtree(tree / ".perfbench", ignore_errors=True)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seconds", repr(seconds)], cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a gate missed, and the files say which
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = {}
    for name in workloads:
        detail = json.loads((tree / ".perfbench" / f"{name}-seed0-trace0.json").read_text())
        out[name] = dict({m: detail["end_to_end"][m] for m in metrics},
                         correct=detail["correct"], failed=detail["failed"],
                         attempted=detail["attempted"], digests=detail["digests"],
                         environment=detail["environment"])
    return out


def summary(pairs, workloads, spec) -> dict:
    """Per workload and metric: the parent's median and quartiles, the
    change's median, and the pairs in which the change is better."""
    table = {}
    for name in workloads:
        table[name] = {}
        for m in spec:
            par = [p["parent"][name][m["name"]] for p in pairs]
            chg = [p["change"][name][m["name"]] for p in pairs]
            better = [(c < a) if m["better"] == "lower" else (c > a) for a, c in zip(par, chg)]
            q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0],) * 3
            table[name][m["name"]] = {
                "parent_median": statistics.median(par), "parent_q1": q1, "parent_q3": q3,
                "change_median": statistics.median(chg),
                "change_better_in": f"{sum(better)} of {len(pairs)}"}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", help="where the trees are exported (default: a new "
                        "temporary directory)")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    spec = bench["end_to_end"]
    metrics = [m["name"] for m in spec]
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench-pairs-")).resolve()
    trees = {side: scratch / side for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), trees[side]) for side in trees}

    pairs = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"order": order}
        for side in order:
            pair[side] = run_once(trees[side], args.seconds, workloads, metrics)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} wall_s {pair['parent'][name]['wall_s']:.4f} -> "
            f"{pair['change'][name]['wall_s']:.4f}" for name in workloads), flush=True)

    sides = {}
    for side in trees:
        first = pairs[0][side]
        sides[side] = {"commit": commits[side],
                       "environment": {n: first[n].pop("environment") for n in workloads}}
        for p in pairs[1:]:
            for n in workloads:
                p[side][n].pop("environment")
    result = {
        # --scratch is left out: where the trees go does not change the runs
        "command": ["python3", "tools/bench_pairs.py", args.parent, args.change,
                    "--pairs", str(args.pairs), "--seconds", repr(args.seconds),
                    "--out", args.out],
        "run_command": ["python3", "perfbench/run.py", "--workload", "all",
                        "--seconds", repr(args.seconds)],
        "parent": sides["parent"], "change": sides["change"],
        "summary": summary(pairs, workloads, spec), "pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
