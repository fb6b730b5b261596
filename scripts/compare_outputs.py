#!/usr/bin/env python3
"""Compare two output trees of ``scripts/run_all.sh`` file by file.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR [--rtol R]

Each tree is what one run wrote under ``FOLHARM_OUT``.  For every file in
either tree the script prints ``identical`` when the bytes agree; otherwise
it parses the file (JSON documents, CSV tables with ``#`` comment lines) and
prints, for each JSON key or CSV column that differs, the largest absolute
difference and the largest relative difference.  A difference is relative
to the scale of its field: max |a - b| / max(|a|, |b|) over a whole CSV
column, and over the one value for a JSON scalar (entries of JSON lists are
reported together under ``name[]``).  A column that passes through zero,
such as a map coordinate, so is not judged by its smallest entries.
Non-numeric fields must agree exactly.

Exit status: 0 when every numeric difference is at most ``--rtol`` and
nothing else differs, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path


def _number(x):
    """x as a float when it is numeric (JSON numbers and "inf"/"nan"), else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _json_leaves(doc, prefix=""):
    """(path, value) for every scalar in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_leaves(value, f"{prefix}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_leaves(value, f"{prefix}[{i}]")
    else:
        yield prefix or "/", doc


def _strip_index(path: str) -> str:
    """Group JSON list entries under one field name: a/b[3] -> a/b[]."""
    out, depth = [], 0
    for ch in path:
        if ch == "[":
            depth += 1
            out.append("[]")
        elif ch == "]":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _fields(path: Path):
    """(field, value) pairs of a JSON or CSV file, in file order.

    A field is the unit over which a relative difference is scaled: the
    full path of a JSON scalar, or the name of a CSV column.
    """
    text = path.read_text()
    if path.suffix == ".json":
        yield from _json_leaves(json.loads(text))
        return
    lines = text.splitlines()
    for i, line in enumerate(line for line in lines if line.startswith("#")):
        yield f"comment {i}", line
    rows = list(csv.reader(io.StringIO(
        "\n".join(line for line in lines if not line.startswith("#")))))
    if not rows:
        return
    header, body = rows[0], rows[1:]
    yield "header", ",".join(header)
    yield "rows", len(body)
    for row in body:
        if len(row) != len(header):
            yield "row length", len(row)
        for name, cell in zip(header, row):
            yield name, cell


def compare_file(a: Path, b: Path, rtol: float):
    """(ok, lines) for one pair of files."""
    if a.read_bytes() == b.read_bytes():
        return True, ["identical"]
    try:
        fa, fb = list(_fields(a)), list(_fields(b))
    except (ValueError, UnicodeDecodeError) as exc:
        return False, [f"differs and cannot be parsed: {exc}"]
    if [k for k, _ in fa] != [k for k, _ in fb]:
        return False, ["differs in structure (keys, columns or row count)"]
    diff: dict[str, float] = {}       # field -> max |a - b|
    scale: dict[str, float] = {}      # field -> max(|a|, |b|)
    mismatched = []
    for (name, va), (_, vb) in zip(fa, fb):
        xa, xb = _number(va), _number(vb)
        if xa is None or xb is None:
            if va != vb and _strip_index(name) not in mismatched:
                mismatched.append(_strip_index(name))
            continue
        d = 0.0 if xa == xb else abs(xa - xb)
        if d != d:                        # inf - inf or a nan on one side
            d = float("inf")
        diff[name] = max(diff.get(name, 0.0), d)
        scale[name] = max(scale.get(name, 0.0), abs(xa), abs(xb))
    worst: dict[str, list[float]] = {}    # display name -> [rel, abs]
    for name, d in diff.items():
        if d == 0.0:
            continue
        rel = d / scale[name] if scale[name] > 0 else float("inf")
        entry = worst.setdefault(_strip_index(name), [0.0, 0.0])
        entry[0] = max(entry[0], rel)
        entry[1] = max(entry[1], d)
    ok = not mismatched
    lines = [f"non-numeric field {name} differs" for name in mismatched]
    for name, (rel, abs_) in worst.items():
        ok &= rel <= rtol
        lines.append(f"{name}: max rel {rel:.3g}, max abs {abs_:.3g}")
    return ok, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference that still passes")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    files = sorted(
        {p.relative_to(args.parent) for p in args.parent.rglob("*") if p.is_file()}
        | {p.relative_to(args.change) for p in args.change.rglob("*") if p.is_file()}
    )
    all_ok = True
    for rel in files:
        a, b = args.parent / rel, args.change / rel
        if not (a.is_file() and b.is_file()):
            where = "change" if a.is_file() else "parent"
            ok, lines = False, [f"missing from the {where} tree"]
        else:
            ok, lines = compare_file(a, b, args.rtol)
        all_ok &= ok
        if lines == ["identical"]:
            print(f"{rel}: identical")
        else:
            print(f"{rel}: {'within' if ok else 'ABOVE'} rtol {args.rtol:g}")
            for line in lines:
                print(f"    {line}")
    print(f"{len(files)} files, {'all within' if all_ok else 'some above'} "
          f"rtol {args.rtol:g}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
