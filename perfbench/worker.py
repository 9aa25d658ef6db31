"""One benchmark process: set up one workload, run its fixed job list in a
closed loop (one client, jobs back to back) for as many rounds as fit the
run length, and print a JSON report as the last line of standard output.
Each round records every job's wall and CPU time, and the time of a fixed
reference pass before its first job and after every job (see run.py).

run.py starts this process with the BLAS/OpenMP thread caps already in its
environment, so they are in place before numpy loads.  With --setup-only
the process stops once the first job is ready; with --trace 1 it runs the
job list once under the tracer and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import THREAD_VARS  # noqa: E402


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu": platform.processor() or platform.machine(),
    }


def cpu_seconds() -> float:
    """User plus system CPU time of the process, all its threads."""
    return time.process_time()


def reference_pass() -> float:
    """Seconds one fixed pass of rational arithmetic and dict updates takes,
    with the garbage collector off.  It calls nothing of the program, so its
    time follows the host's speed alone."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + acc
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def run_round(jobs, tracer=None) -> dict:
    """Run every job once, with a reference pass before the first job and
    after each one; a job that raises is recorded and the round goes on."""
    names, job_s, job_cpu_s, failures = [], [], [], []
    probe_s = [reference_pass()]
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            job.run()
        except Exception as exc:  # counted in fail_frac, the run continues
            failures.append([job.name, f"{type(exc).__name__}: {exc}"])
        job_s.append(time.perf_counter() - t0)
        job_cpu_s.append(cpu_seconds() - c0)
        names.append(job.name)
        probe_s.append(reference_pass())
    return {"jobs": names, "job_s": job_s, "job_cpu_s": job_cpu_s, "probe_s": probe_s,
            "failures": failures}


def round_jobs(jobs, k: int, count: int) -> list:
    """The jobs of round k of count: every repeated job, and every count-th
    of the jobs that run once, so that these spread over the rounds."""
    mine = {j.name for j in [j for j in jobs if not j.repeat][k::count]}
    return [j for j in jobs if j.repeat or j.name in mine]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import workloads

    jobs = workloads.build(args.workload, args.seed, Path(args.out_dir))
    ready = time.monotonic()
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    report = {"ready": ready}
    if args.setup_only:
        print(json.dumps(report), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    count = 1 if tracer else max(1, int(args.seconds // workloads.ROUND_SECONDS[args.workload]))
    try:
        rounds = [run_round(round_jobs(jobs, k, count), tracer) for k in range(count)]
    finally:
        if tracer is not None:
            tracer.uninstall()

    report.update(
        rounds=rounds,
        jobs=[j.name for j in jobs],
        scaled=args.workload in workloads.SCALED,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
    )
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["job_breakdown"] = tracer.job_breakdown()
        spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        report["spans_file"] = str(spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
