"""The benchmark's own tests: per-layer counts repeat exactly across traced
runs at one seed, the seed drives the exact corpus, and the benchmark
refuses to run without a source tree.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_round  # noqa: E402

import umbilic.polyjet  # noqa: E402

COUNTS = (
    "polyjet.divexact_calls",
    "polyjet.divexact_hits",
    "surface.batch_eval_points",
    "asymptotic.deviation_calls",
    "quadrature.nodes",
)

# A few jobs of each workload, enough to reach every counted layer quickly.
SUBSETS = {
    workloads.EXACT: lambda name: name.endswith("#0"),
    workloads.MASS: lambda name: name.startswith(("sphere n=3", "schwarzschild", "quartic_x1 n=6")),
    workloads.POINTWISE: lambda name: name.endswith(("n=3 y", "n=6 z", "#0"))
    or name.startswith("integrability_probe cubic_x1 n=5"),
}


def traced_run(workload, seed, out_dir):
    jobs = [j for j in workloads.build(workload, seed, out_dir) if SUBSETS[workload](j.name)]
    tracer = Tracer()
    tracer.install()
    try:
        result = run_round(jobs, tracer)
    finally:
        tracer.uninstall()
    assert result["failures"] == []
    return tracer.layer_metrics(), tracer.job_breakdown()


def test_layer_counts_repeat_exactly(tmp_path):
    original = umbilic.polyjet.poly_divexact
    for workload in workloads.WORKLOADS:
        first, _ = traced_run(workload, 7, tmp_path)
        second, breakdown = traced_run(workload, 7, tmp_path)
        assert umbilic.polyjet.poly_divexact is original
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}, workload
        if workload == workloads.EXACT:
            assert first["polyjet.divexact_calls"] > 0
        if workload == workloads.MASS:
            nodes = {row["job"]: row["counters"].get("quadrature.nodes") for row in breakdown}
            assert nodes["quartic_x1 n=6 lee_parker z"] == 118098
            assert first["surface.batch_eval_points"] > 0
        if workload == workloads.POINTWISE:
            assert first["asymptotic.deviation_calls"] > 0


def test_seed_changes_exact_corpus():
    def corpus(seed):
        inputs = workloads.exact_inputs(seed)
        return [repr(p) for group in ("script_R", "identity") for ps in inputs[group].values()
                for p in ps] + [repr(L) for L in inputs["dim6_L"]]

    assert corpus(1) == corpus(1)
    assert corpus(1) != corpus(2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{") or "correct" not in json.loads(line)
