"""Run the README's `umbilic` commands here, or here and in a base tree.

    python3 scripts/readme_diff.py
    python3 scripts/readme_diff.py --base ../parent

The commands are the `umbilic ...` lines of the README's code blocks (a
trailing `# comment` is dropped), so the list has one source.  Each runs as
`python -m umbilic.cli ...` from a tree's root with its `src` on PYTHONPATH.
Without --base each runs once in this tree under `-W error::RuntimeWarning`,
its output passed through after the command line, and the script exits 1
if any command exits nonzero.  With --base each runs once in this tree and
once in the base tree; for each command the script prints "identical", or a
unified diff of stdout and stderr and the two exit codes, and it exits 1 if
any command differs, else 0.  When the two stdouts differ, both parse as
JSON and a numeric leaf moved, one more line gives the largest relative
move among their numeric leaves, |b - a| / max(|a|, |b|), and its key path.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(readme: Path) -> List[List[str]]:
    """The argument lists of the `umbilic` lines inside the README's fenced
    code blocks, in order."""
    commands, fenced = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and re.match(r"umbilic\s", line):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def run(tree: Path, args: List[str], *flags: str, capture: bool = True) -> Tuple[str, str, int]:
    """`python *flags -m umbilic.cli *args` in the tree: stdout, stderr (None
    unless captured) and the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, *flags, "-m", "umbilic.cli", *args], cwd=tree,
                          env=env, capture_output=capture, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def numeric_moves(a, b, path: str = "") -> Iterator[Tuple[float, str]]:
    """(relative move, key path) of every numeric leaf that two parsed JSON
    values share and that differs: |b - a| / max(|a|, |b|), or inf where
    either is not finite."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() & b.keys()):
            yield from numeric_moves(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from numeric_moves(x, y, f"{path}/{i}")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if a != b and not (a != a and b != b):  # NaN equals NaN here
            finite = math.isfinite(a) and math.isfinite(b)
            yield (abs(b - a) / max(abs(a), abs(b)) if finite else math.inf), path.lstrip("/")


def largest_move(base_out: str, change_out: str) -> List[str]:
    """One line sizing the largest numeric move between two JSON stdouts;
    none unless both parse and a numeric leaf moved."""
    try:
        moves = list(numeric_moves(json.loads(base_out), json.loads(change_out)))
    except ValueError:
        return []
    if not moves:
        return []
    move, path = max(moves)
    return [f"largest relative move {move:.1e} at {path}"]


def compare(base: Tuple[str, str, int], change: Tuple[str, str, int]) -> List[str]:
    """Diff lines between two (stdout, stderr, exit code) results; none if
    they are identical."""
    out = []
    for name, a, b in (("stdout", base[0], change[0]), ("stderr", base[1], change[1])):
        out += difflib.unified_diff(a.splitlines(), b.splitlines(), f"base {name}",
                                    f"change {name}", lineterm="")
    if base[2] != change[2]:
        out.append(f"exit code: base {base[2]}, change {change[2]}")
    if base[0] != change[0]:
        out += largest_move(base[0], change[0])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="source tree to compare against")
    args = ap.parse_args(argv)
    commands = readme_commands(ROOT / "README.md")
    if args.base is None:
        failed = [] if commands else ["the README has no `umbilic` command"]
        for cmd in commands:
            print("umbilic " + shlex.join(cmd), flush=True)
            code = run(ROOT, cmd, "-W", "error::RuntimeWarning", capture=False)[2]
            if code:
                failed.append(f"exit code {code}: umbilic {shlex.join(cmd)}")
        for line in failed:
            print(line, file=sys.stderr)
        return 1 if failed else 0
    base = args.base.resolve()
    differ = False
    for cmd in commands:
        print("umbilic " + shlex.join(cmd))
        lines = compare(run(base, cmd), run(ROOT, cmd))
        print("\n".join("  " + line for line in lines) if lines else "  identical")
        differ = differ or bool(lines)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
