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


def test_exact_modules_load_alone():
    # the exact half (polyjet, obstruction) needs neither numpy nor the
    # numeric modules, and `import umbilic` loads no submodule
    code = ("import sys, umbilic.polyjet, umbilic.obstruction; "
            "print('numpy' in sys.modules, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'umbilic'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False ['umbilic', 'umbilic.obstruction', 'umbilic.polyjet']"


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


def _readme_diff():
    path = ROOT / "scripts" / "readme_diff.py"
    spec = importlib.util.spec_from_file_location("readme_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ci_runs_every_readme_command(capfd, monkeypatch):
    # each job runs the README's commands through scripts/readme_diff.py
    # without --base, which runs every one with RuntimeWarnings as errors
    # and exits 1 if any exits nonzero; the numpy-only job first asserts
    # that the CLI imports no scipy
    readme_diff = _readme_diff()
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


def test_readme_diff_sizes_the_largest_numeric_move():
    compare = _readme_diff().compare
    base = '{"m_inf": 0.0, "sweeps": [{"r": 10, "value": 2.0}, {"r": 100, "value": 4.0}]}'
    change = '{"m_inf": 0.0, "sweeps": [{"r": 10, "value": 2.0}, {"r": 100, "value": 4.0004}]}'
    lines = compare((base, "", 0), (change, "", 1))
    assert lines[:3] == ["--- base stdout", "+++ change stdout", "@@ -1 +1 @@"]
    assert lines[3:] == ["-" + base, "+" + change, "exit code: base 0, change 1",
                         "largest relative move 1.0e-04 at sweeps/1/value"]
    assert compare((base, "", 0), (base, "", 0)) == []
    # no sizing line where only a string leaf moved, or for CSV stdouts
    assert compare(('{"verdict": "a", "k": 2}', "", 0),
                   ('{"verdict": "b", "k": 2}', "", 0))[-1] == '+{"verdict": "b", "k": 2}'
    assert compare(("r,m\n1,2\n", "", 0), ("r,m\n1,3\n", "", 0))[-1] == "+1,3"


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
