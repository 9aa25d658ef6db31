"""The package's runtime needs numpy alone: scipy is a test dependency.
CI runs the commands it reads from the README, and every function the
benchmark traces exists."""

import importlib
import importlib.util
import re
import shlex
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


def test_ci_runs_every_readme_command():
    # each job lists the commands with the README's own reader and runs
    # them all, warnings as errors, stopping at the first failure
    spec = importlib.util.spec_from_file_location("readme_diff", ROOT / "scripts" / "readme_diff.py")
    readme_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(readme_diff)
    readme = readme_diff.readme_commands(ROOT / "README.md")
    assert len(readme) == 9
    steps = readme_steps(ROOT / ".github" / "workflows" / "tests.yml")
    assert set(steps) == {"tests", "runtime-numpy-only"}
    for lines in steps.values():
        assert "set -e" in lines
        assert 'eval "python -W error::RuntimeWarning -m umbilic.cli $args"' in lines
        prefix = 'commands=$(python -c "'
        listing = [line for line in lines if line.startswith(prefix)]
        assert len(listing) == 1 and listing[0].endswith('")')
        code = listing[0][len(prefix):-len('")')]
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines() == [shlex.join(c) for c in readme]


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
