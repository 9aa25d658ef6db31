"""Run one workload of the umbilic benchmark and print its metrics.

    python3 perfbench/run.py --workload {exact,mass,pointwise} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` as it stands, nothing is installed.

--trace 0 measures the end-to-end metrics: set-up time (median over five
fresh processes), wall and CPU time of the workload's fixed job list,
median and 90th-percentile job time, and peak resident memory.  The job
list runs in floor(seconds / its nominal round time) rounds, at least one.
The host is shared and its speed swings within seconds, so the worker times
a fixed reference pass before and after every job, and on exact and
pointwise each job time is scaled to the host's nominal speed around it
(workloads.SCALED says why not on mass).  A job's time is the median
of its scaled times over the rounds it ran in; wall and CPU time add these
up, and the job percentiles are taken over the distinct jobs.
--trace 1 runs the job list once with spans around each module's public
functions and prints the per-layer metrics instead.

Every job checks its output.  Each metric is printed on its own line with
its unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full report (machine details,
seed, per-job times, failures) goes to perfbench/out/.

Exit status: 0 when every check passed, 1 when a job failed its check,
2 when the benchmark could not run (no source tree, worker crash, timeout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("exact", "mass", "pointwise")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# The reference pass's time (worker.reference_pass) at the host's nominal
# speed: its time in the reference machine's quiet stretches.
REFERENCE_S = 2.5e-3
SETUP_SAMPLES = 5  # fresh processes timed to first-job-ready; the median is setup_s
DEADLINE_S = 170.0  # the whole run, set-up samples included

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    """Thread caps at the number of usable cores, set before the worker
    imports numpy (OpenBLAS reads them once, when it loads)."""
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cap
    return env


def run_worker(args, deadline: float, extra=()) -> dict:
    """Start one worker process and return its JSON report, with setup_s:
    the time from spawning it to its first job being ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline and was stopped")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the two nearest values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_times(report: dict) -> dict:
    """Each job's (wall, CPU) times in every round it ran in.  On a scaled
    workload (workloads.SCALED) they are scaled to the host's nominal speed:
    by REFERENCE_S over the mean of the reference passes just before and
    just after the job."""
    out = {}
    for r in report["rounds"]:
        for i, name in enumerate(r["jobs"]):
            speed = 2.0 * REFERENCE_S / (r["probe_s"][i] + r["probe_s"][i + 1]) if report["scaled"] else 1.0
            out.setdefault(name, []).append((speed * r["job_s"][i], speed * r["job_cpu_s"][i]))
    return out


def end_to_end(report: dict, setup_samples) -> dict:
    """A job's time is the median over the rounds it ran in of its scaled
    time.  wall_s and cpu_s add these up over the job list; the job
    percentiles are taken over the distinct jobs."""
    times = scaled_times(report)
    job_s = [statistics.median(w for w, _ in times[j]) for j in report["jobs"]]
    job_cpu_s = [statistics.median(c for _, c in times[j]) for j in report["jobs"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": math.fsum(job_s),
        "cpu_s": math.fsum(job_cpu_s),
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": percentile(job_s, 90),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def host_speed(report: dict) -> float:
    """The host's median speed over the run's reference passes, 1 being
    nominal."""
    return REFERENCE_S / statistics.median(t for r in report["rounds"] for t in r["probe_s"])


def layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS

    return {name: unit for name, unit, _ in LAYER_METRICS}


def describe_trace(report: dict, untraced_file: Path) -> list:
    """Notes for the traced run: tracing overhead against the untraced run
    of the same workload and seed (when one was made), and the per-job
    job kind's largest self time and quadrature node count.  The overhead
    compares one pass over the job list with one pass: the traced run's
    only round against each job's first time in the untraced run."""
    notes = []
    traced_wall = math.fsum(report["rounds"][0]["job_s"])
    if untraced_file.exists():
        first = {}
        for r in json.loads(untraced_file.read_text())["rounds"]:
            for job, t in zip(r["jobs"], r["job_s"]):
                first.setdefault(job, t)
        base = math.fsum(first.values())
        notes.append(f"tracing overhead: traced pass {traced_wall:.3f} s vs untraced "
                     f"{base:.3f} s ({100.0 * (traced_wall / base - 1.0):+.1f}%)")
    else:
        notes.append(f"traced wall {traced_wall:.3f} s (run --trace 0 with this seed "
                     "first to get the tracing overhead)")
    kinds = {}  # job name without its " #k" index -> summed self time per span
    for row in report["job_breakdown"]:
        kind = kinds.setdefault(row["job"].split(" #")[0], {"self_s": {}, "nodes": 0})
        for span, t in row["self_s"].items():
            kind["self_s"][span] = kind["self_s"].get(span, 0.0) + t
        kind["nodes"] += int(row["counters"].get("quadrature.nodes", 0))
    for name, kind in kinds.items():
        if not kind["self_s"]:
            continue
        span, t = max(kind["self_s"].items(), key=lambda kv: kv[1])
        line = f"{name}: largest self time {span} {t:.3f} s"
        if kind["nodes"]:
            line += f"; quadrature nodes {kind['nodes']}"
        notes.append(line)
    return notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "umbilic" / "__init__.py").is_file():
        print(f"error: no umbilic source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        # set-up samples before and after the measured worker, so that
        # they do not all fall into one stretch of the host's load
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setup_only = lambda: run_worker(args, deadline, ["--setup-only"])["setup_s"]  # noqa: E731
        samples = [setup_only() for _ in range(extra // 2)]
        report = run_worker(args, deadline)
        samples.append(report["setup_s"])
        samples += [setup_only() for _ in range(extra - extra // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = report["rounds"]
    attempted = sum(len(r["job_s"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    if args.trace:
        metrics, units = report["layers"], layer_units()
    else:
        metrics, units = end_to_end(report, samples), dict(END_TO_END)

    m = report["machine"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} round(s) of {len(report['jobs'])} jobs, one client, closed loop")
    print(f"# machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']}, thread cap {m['thread_caps']['OPENBLAS_NUM_THREADS']}")
    print(f"# host speed {host_speed(report):.3f} of nominal over the run (median of "
          f"{sum(len(r['probe_s']) for r in rounds)} reference passes)"
          + ("; job times below are scaled to nominal speed around each job"
             if report["scaled"] and not args.trace else "; times are as measured"))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_frac {len(failures) / attempted!r} ({len(failures)} of {attempted} jobs)")
    if not args.trace and len(report["jobs"]) < 100:
        print(f"# job_p90_s rests on {len(report['jobs'])} distinct jobs (fewer than 100)")
    for name, message in failures:
        print(f"FAILED {name}: {message}")
    result_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        for note in describe_trace(report, OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"):
            print(f"# {note}")
    full = dict(report, workload=args.workload, seed=args.seed, metrics=metrics,
                setup_samples=samples, attempted=attempted, failures=failures)
    result_file.write_text(json.dumps(full, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
