#!/usr/bin/env python3
"""List the lines of ``src/folharm`` that neither the tests nor the shipped
experiments reach, and those that only the tests reach.

    python3 scripts/reachability.py

Installs a ``sys.settrace`` line collector, then runs, in this process,
every ``folharm`` command of ``scripts/run_all.sh`` (as ``python -m
folharm.cli`` would, writing into a temporary directory) and then the
tier-1 test suite (``pytest`` over ``tests/``), collecting each phase's
lines apart.  The commands run first, so the module-level lines of the
modules they import count as theirs.  A line is executable when a code
object compiled from the module's source carries it in its line table; it
is reached when a traced frame executes it, or is called there.  Test and
command output go to stderr; stdout gets, per module, the unreached lines
with their text, then, per module, the lines that only the tests reach.
Code run in a subprocess (the CLI import probe of the tests) is not traced.

Exit status: 0 when the tests and every command passed, 1 otherwise (the
list then describes a failing run).
"""

from __future__ import annotations

import contextlib
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

here = Path(__file__).resolve().parent
root = here.parent
package = root / "src" / "folharm"
sys.path.insert(0, str(root / "src"))
# as in the tier-1 command, so that subprocesses of the tests import this checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

# the lines each phase reaches, by file; ``reached`` is the current phase's
by_phase = {"commands": defaultdict(set), "tests": defaultdict(set)}
reached = by_phase["commands"]
_prefix = str(package) + os.sep


def _local(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    reached[filename].add(frame.f_lineno)
    return _local


def executable_lines(path: Path) -> set[int]:
    """Line numbers in the line tables of every code object of the module."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_all_commands(out: str) -> list[list[str]]:
    """CLI arguments of each ``folharm`` line of run_all.sh, with $here and
    $out filled in."""
    commands = []
    for line in (here / "run_all.sh").read_text().splitlines():
        if re.match(r"folharm\s", line):
            line = line.replace("$here", str(here)).replace("$out", out)
            commands.append(shlex.split(line)[1:])
    return commands


def _print_lines(path: Path, numbers: list[int], what: str) -> None:
    print(f"{path.name}: {len(numbers)} {what}")
    text = path.read_text().splitlines()
    for n in numbers:
        print(f"  {n:4d}  {text[n - 1].strip()}")


def main() -> int:
    global reached
    codes = {}
    sys.settrace(_global)
    threading.settrace(_global)
    try:
        with contextlib.redirect_stdout(sys.stderr), \
                tempfile.TemporaryDirectory(prefix="reachability-") as out:
            for args in run_all_commands(out):
                sys.argv = ["folharm", *args]
                try:
                    runpy.run_module("folharm.cli", run_name="__main__", alter_sys=True)
                except SystemExit as exc:
                    codes[f"{args[0]} {Path(args[2]).name}"] = exc.code
            reached = by_phase["tests"]
            import pytest

            codes["tier-1 tests"] = int(pytest.main(
                ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 str(root / "tests")]))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    modules = []                    # (path, executable, unreached, reached only by the tests)
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        commands, tests = by_phase["commands"][str(path)], by_phase["tests"][str(path)]
        modules.append((path, lines, sorted(lines - commands - tests),
                        sorted(lines & (tests - commands))))
    total_exec = sum(len(lines) for _, lines, _, _ in modules)
    for path, lines, missed, _ in modules:
        _print_lines(path, missed, f"of {len(lines)} executable lines unreached")
    print(f"total: {sum(len(m[2]) for m in modules)} of {total_exec} executable lines unreached")
    for path, _, _, tests_only in modules:
        _print_lines(path, tests_only, "executable lines reached only by the tests")
    print(f"total: {sum(len(m[3]) for m in modules)} of {total_exec} "
          "executable lines reached only by the tests")
    failed = {name: code for name, code in codes.items() if code}
    for name, code in failed.items():
        print(f"FAILED ({code}): {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
