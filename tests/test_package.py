"""The package's runtime needs numpy alone: scipy is a test dependency."""

import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
