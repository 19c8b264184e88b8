"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload gauge-batch --seeds 1-10

Runs bench/run.py once per seed (untraced) and prints, per metric, the
median and the distance between the first and third quartile as a share of
the median, next to the metric's bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartile_spread

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals)
        flag = "" if spread < m["bound"] / 3 else "  WIDE"
        print(f"{m['name']:14s} {median(vals):12.6g} {spread:8.4f} {m['bound']:6.3f} "
              f"{m['bound'] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
