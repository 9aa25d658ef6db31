"""Record the benchmark of two source trees in alternating pairs.

    python3 scripts/bench_record.py --base ../parent --change . \
        --base-label 2384163 --change-label int-kernel --seed 1101

For each workload of BENCHMARK.json, pair i of ten runs `perfbench/run.py
--workload W --seed S+i --seconds T --trace 0` once in each tree, untraced,
with T the benchmark's run_seconds; the base tree goes first on even pairs
and second on odd ones, so slow stretches of a shared host fall on both
sides.  A run that exits with neither 0 nor 1 (no result) stops the script.
Each tree gets `BENCH_<label>.json` at the repository root: the machine,
the versions, every run's end-to-end metrics, and per metric the median and
quartiles over the runs.  A table on stdout compares the two: medians,
quartiles, and how many pairs the change won; under it go both trees'
line counts of the Python files under `src/` and their difference.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    report = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    if proc.returncode not in (0, 1) or not report.is_file():
        sys.exit(f"{' '.join(cmd)} in {tree} gave no result (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    machine = json.loads(report.read_text())["machine"]
    return {
        "seed": seed,
        "exit": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "machine": machine,
    }


def src_lines(tree: Path) -> int:
    """Lines of the Python files under the tree's src/, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def summarize(runs: list) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs."""
    out = {}
    units = {k: u for r in runs for k, u in r["units"].items()}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3}
    attempted = sum(r["attempted"] for r in runs)
    out["fail_frac"] = {"unit": "ratio", "value": sum(r["failed"] for r in runs) / attempted
                        if attempted else None}
    return out


def compare(workload: str, base: list, change: list) -> None:
    sb, sc = summarize(base), summarize(change)
    print(f"## {workload}: {len(base)} pairs, seeds {base[0]['seed']}..{base[-1]['seed']}")
    print(f"{'metric':<12} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>6} {'gap>IQR':>8}")
    for name in sb:
        if name == "fail_frac":
            print(f"fail_frac    {sb[name]['value']!r:>30} {sc[name]['value']!r:>30}")
            continue
        if name not in sc:
            print(f"{name:<12} no runs of the change reported it")
            continue
        b, c = sb[name], sc[name]
        wins = sum(rc["metrics"].get(name, float("inf")) < rb["metrics"].get(name, float("inf"))
                   for rb, rc in zip(base, change))
        gap = abs(c["median"] - b["median"]) > b["q3"] - b["q1"]
        print(f"{name:<12} {b['median']:>12.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f" {c['median']:>12.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {wins:>3}/{len(base)} {gap!s:>8}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--base-label", required=True)
    ap.add_argument("--change-label", required=True)
    ap.add_argument("--seed", type=int, default=1101, help="seed of the first pair")
    args = ap.parse_args(argv)

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    labels = {"base": args.base_label, "change": args.change_label}
    runs = {side: {} for side in trees}
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    for workload in WORKLOADS:
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                r = run_once(trees[side], workload, seed)
                runs[side].setdefault(workload, []).append(r)
                print(f"# {workload} seed {seed} {labels[side]}: exit {r['exit']}, "
                      f"wall_s {r['metrics'].get('wall_s')}", file=sys.stderr)
        compare(workload, runs["base"][workload], runs["change"][workload])
        print(f"src/ lines: {labels['base']} {lines['base']}, {labels['change']} "
              f"{lines['change']}, net {lines['change'] - lines['base']:+d}")

    for side, other in (("base", "change"), ("change", "base")):
        machine = next(r["machine"] for w in runs[side].values() for r in w)
        record = {
            "label": labels[side],
            "compared_with": labels[other],
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0",
            "order": "alternating pairs: base first on even pairs, change first on odd ones",
            "machine": dict(machine, platform=platform.platform()),
            "workloads": {
                w: {"seeds": [r["seed"] for r in rs], "summary": summarize(rs),
                    "runs": [{k: r[k] for k in ("seed", "exit", "attempted", "failed", "metrics")}
                             for r in rs]}
                for w, rs in runs[side].items()
            },
        }
        path = ROOT / f"BENCH_{labels[side]}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"# wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
