"""Record the baseline report digests that run.py compares against.

    python3 perfbench/record_digests.py SEED [SEED ...]

Run from the root of a checkout.  For every workload and seed, one untraced
iteration at full size is run and its per-study sha256 digests are stored in
``perfbench/baseline.json`` (entries for other seeds are kept).  A seed whose
iteration misses a gate is not recorded.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench
import workloads


def main(argv):
    seeds = [int(s) for s in argv] or [0]
    try:
        data = json.loads(bench.BASELINE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        data = {}
    table = data.setdefault("digests", {})
    missed = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            res = bench.call_worker(
                ["run", "--workload", name, "--size", "full", "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"], time.monotonic() + bench.DEADLINE_S)
            studies = res["iterations"][0]["studies"]
            if not all(st["ok"] for st in studies):
                missed.append(f"{name} seed {seed}")
                continue
            table.setdefault(name, {}).setdefault("full", {})[str(seed)] = {
                st["study"]: st["digest"] for st in studies}
            print(f"{name} seed {seed}: recorded")
    bench.BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    for m in missed:
        print(f"gate missed, not recorded: {m}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
