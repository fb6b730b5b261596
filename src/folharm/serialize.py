"""CSV/JSON emission and bit-exact round-tripping of grid data.

CSV files use '.' decimals, a mandatory header row, and shortest
round-tripping decimal formatting (repr of float64, at most 17 significant
digits), so a map written to CSV loads back bit-exactly.
"""

from __future__ import annotations

import csv
import json
import operator
from pathlib import Path

import numpy as np

from .errors import InvalidMapError
from .geometry import TransverseGeometry
from .grid import GridChart
from .maps import FoliatedMapField

__all__ = [
    "fmt",
    "write_csv",
    "scalar_field_to_csv",
    "map_to_csv",
    "map_from_csv",
    "trace_to_csv",
    "dump_json",
]

# Node rows become Python lists this many at a time, so a large grid never
# holds all of its rows as Python objects at once.
_CHUNK_ROWS = 4096
_MAP_FIELD = "phi"


def fmt(x) -> str:
    """Shortest decimal representation that round-trips float64."""
    return repr(float(x))


def write_csv(path, header, rows, preamble=()) -> None:
    """Write the preamble rows, the header row, then ``rows``.

    ``csv`` writes a Python float as its repr, the same text as ``fmt``, and
    an int as its str.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(preamble)
        writer.writerow(header)
        writer.writerows(rows)


def _node_columns(q: int, widths: dict) -> list[str]:
    """Node-table header: i* and b* for the q grid axes, then a scalar
    field's name, or name0, name1, ... for each component of a vector field
    (width None for a scalar field)."""
    header = [f"i{a}" for a in range(q)] + [f"b{a}" for a in range(q)]
    for name, width in widths.items():
        header += [name] if width is None else [f"{name}{c}" for c in range(width)]
    return header


def _write_node_table(path, grid: GridChart, fields: dict, preamble=()) -> None:
    """One row per node in C order: index coordinates, chart coordinates,
    then the values of ``fields``."""
    n_nodes, q = int(np.prod(grid.shape)), grid.dim
    widths, columns = {}, [grid.points.reshape(n_nodes, q)]
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        widths[name] = None if arr.shape == grid.shape else arr.shape[-1]
        columns.append(arr.reshape(n_nodes, -1))
    index = np.indices(grid.shape).reshape(q, n_nodes).T
    values = np.concatenate(columns, axis=1)

    def rows():
        for lo in range(0, n_nodes, _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            yield from map(operator.add, index[lo:hi].tolist(), values[lo:hi].tolist())

    write_csv(path, _node_columns(q, widths), rows(), preamble)


def scalar_field_to_csv(path, grid: GridChart, fields: dict[str, np.ndarray]) -> None:
    """One row per node: index coordinates, chart coordinates, field values.

    Vector-valued entries in ``fields`` get one column per component.
    """
    _write_node_table(path, grid, fields)


def map_to_csv(path, mapf: FoliatedMapField) -> None:
    """Serialize a map field; the winding matrix rides along in '# winding' rows."""
    winding = [["# winding", *row] for row in mapf.winding.tolist()]
    _write_node_table(path, mapf.grid, {_MAP_FIELD: mapf.values}, winding)


def _parse(path, line: int, cells, kind=float) -> list:
    try:
        return [kind(v) for v in cells]
    except ValueError as exc:
        raise InvalidMapError(f"{path}:{line}: {exc}") from exc


def map_from_csv(path, grid: GridChart, target: TransverseGeometry
                 ) -> FoliatedMapField:
    """Load a map written by ``map_to_csv`` onto ``grid``.

    Raises InvalidMapError unless the columns are the i*, b* and phi* columns
    of this grid and target and every node appears exactly once, at its
    chart coordinates.
    """
    q, qp = grid.dim, target.dim
    columns = _node_columns(q, {_MAP_FIELD: qp})
    n_nodes = int(np.prod(grid.shape))
    table = np.empty((n_nodes, len(columns)))
    winding_rows, header, count = [], None, 0
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if row[0] == "# winding":
                if len(row) != q + 1:
                    raise InvalidMapError(f"{path}:{line}: winding row needs {q} entries")
                winding_rows.append(_parse(path, line, row[1:], int))
            elif header is None:
                header = row
                if header != columns:
                    raise InvalidMapError(
                        f"{path}: columns {header} do not match {columns} "
                        "of this grid and target"
                    )
            elif count == n_nodes or len(row) != len(columns):
                raise InvalidMapError(
                    f"{path}:{line}: expected {n_nodes} node rows of "
                    f"{len(columns)} cells"
                )
            else:
                table[count] = _parse(path, line, row)
                count += 1
    if header is None:
        raise InvalidMapError(f"{path}: no header row found")
    if count != n_nodes:
        raise InvalidMapError(f"{path}: {count} node rows, the grid has {n_nodes}")
    index = table[:, :q]
    if not (np.all(index == np.round(index)) and np.all(index >= 0)
            and np.all(index < grid.shape)):
        raise InvalidMapError(f"{path}: node indices outside the {grid.shape} grid")
    flat = np.ravel_multi_index(index.astype(int).T, grid.shape)
    if np.bincount(flat, minlength=n_nodes).max() > 1:
        raise InvalidMapError(f"{path}: a node appears more than once")
    if not np.allclose(table[:, q:2 * q], grid.points.reshape(-1, q)[flat],
                       rtol=0.0, atol=1e-9):
        raise InvalidMapError(f"{path}: chart coordinates do not match the grid")
    values = np.empty((n_nodes, qp))
    values[flat] = table[:, 2 * q:]
    winding = np.array(winding_rows, dtype=int) if winding_rows else None
    return FoliatedMapField(grid, target, values.reshape(grid.shape + (qp,)), winding)


def trace_to_csv(path, trace) -> None:
    write_csv(path, *trace.rows())


def sanitize_json(obj):
    """Make a payload strictly JSON-serializable.

    Numpy scalars/arrays become Python numbers/lists; non-finite floats
    become the strings 'inf', '-inf', 'nan' (bare Infinity/NaN tokens are
    not valid JSON).
    """
    if isinstance(obj, dict):
        return {k: sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize_json(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    return obj


def dump_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(sanitize_json(payload), indent=2, sort_keys=True,
                   allow_nan=False) + "\n"
    )
