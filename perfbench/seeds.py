#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's quartiles and
spread (stats.py).

    python3 perfbench/seeds.py --workload stream-insert --seeds 1-10

To compare a change with its parent, run this on both commits with the
same seeds and compare the two sides' medians.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode == 2:  # no result: build or driver failure
                return 2
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("%s seed %d: %d/%d failed, %s" % (
                workload, seed, result["failed"], result["attempted"],
                " ".join("%s=%.4g" % (k, m["value"])
                         for k, m in result["metrics"].items())), flush=True)
            ok = ok and proc.returncode == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            if len(v) < 2:
                print("  %-26s %.6g" % (name, v[0]))
                continue
            q1, q2, q3 = stats.quartiles(v)
            print("  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, q2, q1, q3, stats.spread(v)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
