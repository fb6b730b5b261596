#!/usr/bin/env python3
"""Pin the outputs of every shipped config: the manifest ``shipped_outputs.json``.

    python3 scripts/pin_outputs.py

Runs the commands of ``run_all.sh`` in-process, into a temporary directory,
and writes the manifest next to this script: for every output file, by its
path under the output tree, its sha256 and, for a JSON file, its content.
``tests/test_shipped_outputs.py`` runs the same commands and compares their
outputs against the manifest.  A change that moves an output on purpose
regenerates the manifest, so that its diff shows which files and which JSON
scalars moved.  Digests hold for one numpy build; ``compare_outputs.py
--rtol`` sizes a difference between two trees.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))
sys.path.insert(0, str(here))

from compare_outputs import _json_leaves  # noqa: E402
from reachability import run_all_commands  # noqa: E402

MANIFEST = here / "shipped_outputs.json"


def run(out: Path) -> None:
    """Run every command of run_all.sh with ``folharm.cli.main``, each into its
    directory under ``out``; raise on the first that fails."""
    from folharm import cli

    for args in run_all_commands(str(out)):
        code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"folharm {' '.join(args)} exited with {code}")


def manifest(out: Path) -> dict:
    """{path: {"sha256": ..., "json": content of a JSON file}} of every file under ``out``."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if path.suffix == ".json":
            entry["json"] = json.loads(path.read_text())
        files[path.relative_to(out).as_posix()] = entry
    return files


def pinned() -> dict:
    return json.loads(MANIFEST.read_text())


def differences(pins: dict, out: Path) -> list[str]:
    """One line for each file under ``out`` that is missing, not pinned, or of
    another digest than its pin; under a JSON file, one line per changed
    scalar, "path: pinned -> now"."""
    files, lines = manifest(out), []
    for name in sorted(pins.keys() | files.keys()):
        if name not in files or name not in pins:
            lines.append(f"{name}: {'missing' if name in pins else 'not pinned'}")
        elif files[name]["sha256"] != pins[name]["sha256"]:
            lines.append(f"{name}: sha256 differs")
            if name.endswith(".json"):
                old = dict(_json_leaves(pins[name]["json"]))
                new = dict(_json_leaves(files[name]["json"]))
                lines += [f"  {key}: {old.get(key)!r} -> {new.get(key)!r}"
                          for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    return lines


def main() -> int:
    with contextlib.redirect_stdout(sys.stderr), tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        files = manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(files, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(files)} files in {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
