"""opercalc benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload gauge-batch --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, one table

Run from the root of a source checkout; the library is imported from its
src/ directory.  With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Each result is also written
to bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json with its stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from stats import median, percentile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_RUNS = 7  # fresh interpreters per setup_s and cli.import_s median
TIME_LIMIT_S = 170


def worker(mode: str, workload: str, seed: int = 0, seconds: float = 0) -> dict:
    """Run one worker pass in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER, mode, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_median(mode: str, workload: str) -> float:
    return median([worker(mode, workload)["seconds"] for _ in range(SETUP_RUNS)])


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = fresh_median("setup", workload)
    r = worker("run", workload, seed, seconds)
    lat = r["latencies_s"]
    n = len(lat)
    metrics = {
        "jobs_per_s": n / sum(lat),
        "job_p50_ms": median(lat) * 1000,
        "job_p90_ms": percentile(lat, 90) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_ratio": 1 - r["failed"] / n,
        "fail_ratio": r["failed"] / n,
    }
    notes = [f"calibration: {r['calibration_ms']:.4f} ms median (machine speed, lower is faster)"]
    return {"metrics": metrics, "attempted": n, "failed": r["failed"],
            "failures": r["failures"], "checks_ok": True, "notes": notes}


def per_layer(workload: str, seed: int) -> dict:
    r = worker("trace", workload, seed)
    metrics = dict(r["metrics"])
    metrics["cli.import_s"] = fresh_median("import-cli", workload)
    notes = [f"spans: {r['spans']} in {r['spans_file']}"]
    if r["missing"]:
        notes.append("nonzero guard failed, zero calls on: " + ", ".join(r["missing"]))
    if not r["repeat_ok"]:
        notes.append("series.mul / smat_mul counts did not repeat exactly")
    return {"metrics": metrics, "attempted": r["jobs"], "failed": r["failed"],
            "failures": r["failures"], "notes": notes,
            "checks_ok": not r["missing"] and r["repeat_ok"]}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    r = per_layer(workload, seed) if trace else end_to_end(workload, seed, seconds)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in r["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": r["failed"] == 0 and r["checks_ok"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": r["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)), "samples": r["attempted"],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "result": result, "all_metrics": r["metrics"],
                   "failures": r["failures"], "notes": r["notes"]}, fh, indent=1)
    return {"result": result, "stamp": stamp, "extra": r}


def report(m: dict):
    s, res = m["stamp"], m["result"]
    print(f"== {s['workload']} seed={s['seed']} trace={s['trace']} samples={s['samples']} "
          f"python={s['python']} commit={s['commit']} nproc={s['nproc']}")
    for name, v in res["metrics"].items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}")
    if not s["trace"]:
        print(f"  {'fail_ratio':40s} {m['extra']['metrics']['fail_ratio']:14.6g} ratio")
    for note in m["extra"]["notes"]:
        print(f"  note: {note}")
    for f in m["extra"]["failures"]:
        print(f"  FAILED {f}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "opercalc", "__init__.py")):
        print(f"no opercalc source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.all == bool(args.workload) or (args.workload and args.workload not in names):
        p.error(f"give --all or one --workload of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    results = []
    for w in (names if args.all else [args.workload]):
        m = measure(spec, w, args.seed, seconds, bool(args.trace))
        report(m)
        results.append(m["result"])
    for r in results[:-1]:
        print(json.dumps(r))
    print(json.dumps(results[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
