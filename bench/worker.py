"""One measured pass of one workload, in a fresh interpreter.

    python3 bench/worker.py MODE --workload W [--seed N] [--seconds T]

MODE is one of
  setup           time `import opercalc` (with operctl) plus building the
                  workload's models and Kostant data
  import-cli      time `import opercalc.cli` alone
  run             closed loop, one job at a time, untraced, for whole cycles
                  until T seconds of jobs and enough samples for p90
  trace           each job of one cycle untraced, then traced; per-layer
                  metrics, the nonzero guard and the count-repeat check
  record-digests  run every cli-pipeline pool variant through operctl and
                  write bench/cli_digests.json (only when operctl's output
                  bytes are meant to change)
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

REPEAT_JOBS = 2  # jobs re-run traced to check that their counts repeat exactly
REPEAT_COUNTS = ("series.mul", "matrices.smat_mul")


def make_workload(name: str, workdir: str, in_process: bool):
    import workloads

    if name == "cli-pipeline":
        return workloads.CliPipeline(workdir, in_process=in_process)
    return workloads.WORKLOADS[name]()


def mode_setup(args, workdir) -> dict:
    t0 = time.perf_counter()
    import workloads  # imports opercalc and opercalc.cli

    w = make_workload(args.workload, workdir, in_process=False)
    for family, rank in w.models():
        workloads.warm_model(family, rank)
    return {"seconds": time.perf_counter() - t0}


def mode_import_cli(args, workdir) -> dict:
    t0 = time.perf_counter()
    import opercalc.cli  # noqa: F401

    return {"seconds": time.perf_counter() - t0}


def calibration() -> float:
    """Seconds for a fixed stretch of exact rational arithmetic, independent of opercalc.

    Run before each job and reported beside the result, so that a run made
    while the machine was slow can be told apart from a slower program.
    """
    from fractions import Fraction

    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 1501):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t


def run_job(w, job) -> str:
    """Run one job; returns '' on success, else why it failed."""
    from workloads import CheckFailed

    try:
        w.run(job)
    except CheckFailed as e:
        return str(e)
    except Exception as e:  # a raising job is a failed job; keep measuring
        return f"{type(e).__name__}: {e}"
    return ""


def mode_run(args, workdir) -> dict:
    from stats import min_samples
    import workloads

    w = make_workload(args.workload, workdir, in_process=False)
    for family, rank in w.models():
        workloads.warm_model(family, rank)
    run_job(w, w.make(args.seed, 0))  # warm-up, not counted

    cycle = len(w.cells)
    need = min_samples(90)
    latencies, failures, cal = [], [], []
    timed, i = 0.0, 0
    while True:
        job = w.make(args.seed, i)
        cal.append(calibration())
        t = time.perf_counter()
        why = run_job(w, job)
        dt = time.perf_counter() - t
        latencies.append(dt)
        timed += dt
        if why:
            failures.append(f"job {i}: {why}")
        i += 1
        if i % cycle == 0 and timed >= args.seconds and i >= need:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
    return {
        "latencies_s": latencies,
        "calibration_ms": statistics.median(cal) * 1000,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _per_job_counts(tracer, job_id: int):
    ids = {tracer.name_id(n) for n in REPEAT_COUNTS}
    counts = {n: 0 for n in REPEAT_COUNTS}
    for nid, j in zip(tracer.name_col, tracer.job_col):
        if j == job_id and nid in ids:
            counts[tracer.names[nid]] += 1
    return counts


def mode_trace(args, workdir) -> dict:
    from layers import guard, install, layer_metrics
    from tracer import Tracer
    import workloads

    # one instance per pass, so that cli-pipeline's chains keep their own files
    plain = make_workload(args.workload, workdir, in_process=True)
    w = make_workload(args.workload, workdir, in_process=True)
    tracer = Tracer()
    patches = install(tracer)
    with tracer.job(-1, "setup"):
        for family, rank in w.models():
            workloads.warm_model(family, rank)
    patches.undo()
    run_job(plain, plain.make(args.seed, 0))  # warm-up, not counted

    # each job runs untraced and then traced, so both see the same machine
    jobs = range(len(w.cells))
    failures = []
    untraced = traced = 0.0
    for i in jobs:
        job = plain.make(args.seed, i)
        t = time.perf_counter()
        why = run_job(plain, job)
        untraced += time.perf_counter() - t
        if why:
            failures.append(f"untraced job {i}: {why}")
        job = w.make(args.seed, i)
        patches.redo()
        t = time.perf_counter()
        with tracer.job(i):
            why = run_job(w, job)
        traced += time.perf_counter() - t
        patches.undo()
        if why:
            failures.append(f"traced job {i}: {why}")

    metrics, calls = layer_metrics(tracer)

    # the counts of a job must repeat exactly when it runs again
    patches.redo()
    repeat_ok = True
    for i in list(jobs)[:REPEAT_JOBS]:
        first = _per_job_counts(tracer, i)
        job = w.make(args.seed, i)
        with tracer.job(len(w.cells) + i):
            why = run_job(w, job)
        again = _per_job_counts(tracer, len(w.cells) + i)
        if why or again != first:
            repeat_ok = False
            failures.append(f"job {i} counts did not repeat: {first} then {again} {why}")
    patches.undo()

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl.gz")
    tracer.write(spans_path)
    metrics["trace.overhead_ratio"] = traced / untraced
    return {
        "metrics": metrics,
        "missing": guard(args.workload, calls),
        "repeat_ok": repeat_ok,
        "jobs": len(jobs),
        "spans": len(tracer),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "failed": len(failures),
        "failures": failures[:10],
    }


def mode_record_digests(args, workdir) -> dict:
    import workloads

    w = workloads.CliPipeline(workdir)
    record = {}
    for v in range(workloads.POOL):
        path, fields = w.prepare(v)
        record[str(v)] = {}
        for step, (name, _, want, _) in enumerate(workloads.CHAIN):
            code, got, _, err = w.execute(w.job(v, step, path, fields))
            if code != want:
                raise SystemExit(f"variant {v} step {name}: exit {code}, expected {want}: {err}")
            record[str(v)][name] = got
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"variants": len(record)}


MODES = {
    "setup": mode_setup,
    "import-cli": mode_import_cli,
    "run": mode_run,
    "trace": mode_trace,
    "record-digests": mode_record_digests,
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=sorted(MODES))
    p.add_argument("--workload", default="cli-pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.mode}-", dir=WORK)
    try:
        result = MODES[args.mode](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
