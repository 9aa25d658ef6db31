"""The package's runtime needs numpy alone: scipy is a test dependency.
CI runs the commands scripts/readme_diff.py reads from the README, and
every function the benchmark traces exists."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_loads_no_scipy():
    code = ("import sys, umbilic, umbilic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_source_file_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    files = sorted((SRC / "umbilic").rglob("*.py"))
    assert files
    assert [f.name for f in files if pattern.search(f.read_text())] == []


def readme_steps(workflow: Path) -> dict:
    """Job name -> the stripped lines of its "README commands" step, read
    as text so the check needs no YAML parser."""
    jobs, job, step = {}, None, None
    for line in workflow.read_text().splitlines():
        header = re.match(r"^  ([\w-]+):\s*$", line)
        if header:
            job, step = header.group(1), None
        elif re.match(r"^\s*- name: ", line):
            step = line.split("- name: ", 1)[1].strip()
        elif job is not None and step == "README commands":
            jobs.setdefault(job, []).append(line.strip())
    return jobs


def test_ci_runs_every_readme_command(capfd, monkeypatch):
    # each job runs the README's commands through scripts/readme_diff.py
    # without --base, which runs every one with RuntimeWarnings as errors
    # and exits 1 if any exits nonzero; the numpy-only job first asserts
    # that the CLI imports no scipy
    spec = importlib.util.spec_from_file_location("readme_diff", ROOT / "scripts" / "readme_diff.py")
    readme_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(readme_diff)
    assert len(readme_diff.readme_commands(ROOT / "README.md")) == 9
    steps = readme_steps(ROOT / ".github" / "workflows" / "tests.yml")
    assert set(steps) == {"tests", "runtime-numpy-only"}
    for lines in steps.values():
        assert [line for line in lines if "readme_diff" in line] in (
            ["run: python scripts/readme_diff.py"], ["python scripts/readme_diff.py"])
    assert any("scipy" in line and "assert not" in line for line in steps["runtime-numpy-only"])

    runs, run = [], readme_diff.run

    def spy(tree, args, *flags, **kwargs):
        runs.append((args, flags))
        return run(tree, args, *flags, **kwargs)

    failing = ["ctheta", "--builtin", "flat", "--n", "0"]
    passing = ["ctheta", "--builtin", "flat", "--n", "3"]
    monkeypatch.setattr(readme_diff, "readme_commands", lambda path: [failing, passing])
    monkeypatch.setattr(readme_diff, "run", spy)
    assert readme_diff.main([]) == 1
    assert runs == [(failing, ("-W", "error::RuntimeWarning")),
                    (passing, ("-W", "error::RuntimeWarning"))]
    out, err = capfd.readouterr()
    assert out.startswith("umbilic ctheta --builtin flat --n 0\n")
    assert "umbilic ctheta --builtin flat --n 3\n" in out
    assert err.endswith("exit code 2: umbilic ctheta --builtin flat --n 0\n")


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these names from outside the package, so
    # renaming or deleting one silently drops a per-layer metric
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, path, _ in tracing.TARGETS:
        obj = importlib.import_module(f"umbilic.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"umbilic.{module}.{path}"
