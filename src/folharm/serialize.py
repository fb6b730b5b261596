"""CSV/JSON emission and bit-exact round-tripping of grid data.

CSV files use '.' decimals, a mandatory header row, and shortest
round-tripping decimal formatting (repr of float64, at most 17 significant
digits), so a map written to CSV loads back bit-exactly.
"""

from __future__ import annotations

import csv
import json
import warnings
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

# Rows are built this many at a time, so a large table never holds all of
# its cells as Python strings at once.
_CHUNK_ROWS = 4096
_MAP_FIELD = "phi"


def fmt(x) -> str:
    """Shortest decimal representation that round-trips float64."""
    return repr(float(x))


def _text(column: np.ndarray) -> list[str]:
    """The CSV text of a 1-D int or float64 array: str of each int, repr of
    each float (the text ``fmt`` gives).  Each distinct value is formatted
    once; floats are told apart by their int64 bit pattern, because
    ``np.unique`` on values would merge -0.0 with 0.0."""
    is_float = column.dtype == np.float64
    distinct, inverse = np.unique(column.view(np.int64) if is_float else column,
                                  return_inverse=True)
    if is_float:
        distinct = distinct.view(np.float64)
    # repr of Python numbers: numpy 2 writes np.float64(...) for its scalars
    return np.array(list(map(repr, distinct.tolist())), dtype=object)[inverse].tolist()


def write_csv(path, header, columns, preamble=()) -> None:
    """Write the preamble rows, the header row, then one row per entry of the
    equal-length ``columns``.

    A column holds ints or floats, written as ``_text`` gives, or ready
    strings that need no quoting (no comma, quote or line break).  Lines end
    in '\\r\\n', as ``csv`` ends them; the preamble and header rows go
    through ``csv`` itself.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(preamble)
        writer.writerow(header)
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            block = [c[lo:lo + _CHUNK_ROWS] for c in columns]
            cells = [c.tolist() if c.dtype.kind == "U" else _text(c) for c in block]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
    widths, columns = {}, [*np.indices(grid.shape).reshape(q, n_nodes),
                           *grid.points.reshape(n_nodes, q).T]
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        widths[name] = None if arr.shape == grid.shape else arr.shape[-1]
        columns.extend(arr.reshape(n_nodes, -1).T)
    write_csv(path, _node_columns(q, widths), columns, preamble)


def scalar_field_to_csv(path, grid: GridChart, fields: dict[str, np.ndarray]) -> None:
    """One row per node: index coordinates, chart coordinates, field values.

    Vector-valued entries in ``fields`` get one column per component.
    """
    _write_node_table(path, grid, fields)


def map_to_csv(path, mapf: FoliatedMapField) -> None:
    """Serialize a map field; the winding matrix rides along in '# winding' rows."""
    winding = [["# winding", *row] for row in mapf.winding.tolist()]
    _write_node_table(path, mapf.grid, {_MAP_FIELD: mapf.values}, winding)


def map_from_csv(path, grid: GridChart, target: TransverseGeometry
                 ) -> FoliatedMapField:
    """Load a map written by ``map_to_csv`` onto ``grid``.

    Raises InvalidMapError if the file cannot be opened, or unless '# winding'
    rows, the i*, b* and phi* header of this grid and target, and the node rows
    come in that order and every node appears exactly once, at its chart
    coordinates.
    """
    q, qp = grid.dim, target.dim
    columns = _node_columns(q, {_MAP_FIELD: qp})
    n_nodes = int(np.prod(grid.shape))
    winding_rows, header = [], None
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InvalidMapError(f"{path}: cannot read the map: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        for row in filter(None, reader):
            if row[0] != "# winding":
                header = row
                break
            where = f"{path}:{reader.line_num}"
            if len(row) != q + 1:
                raise InvalidMapError(f"{where}: winding row needs {q} entries")
            try:
                winding_rows.append([int(v) for v in row[1:]])
            except ValueError as exc:
                raise InvalidMapError(f"{where}: {exc}") from exc
        if header is None:
            raise InvalidMapError(f"{path}: no header row found")
        if header != columns:
            raise InvalidMapError(
                f"{path}: columns {header} do not match {columns} "
                "of this grid and target"
            )
        header_line = reader.line_num
        with warnings.catch_warnings():     # no node rows: counted below
            warnings.simplefilter("ignore", UserWarning)
            try:
                # comments=None: the default '#' would drop a row or cell
                table = np.loadtxt(fh, delimiter=",", comments=None,
                                   quotechar='"', ndmin=2)
            except ValueError as exc:
                raise InvalidMapError(
                    _node_row_fault(path, header_line, len(columns), exc)) from exc
    if len(table) != n_nodes:
        raise InvalidMapError(f"{path}: {len(table)} node rows, the grid has {n_nodes}")
    # loadtxt takes a table that is a cell wider or narrower in every row
    if table.shape[1] != len(columns):
        raise InvalidMapError(_node_row_fault(path, header_line, len(columns),
                                              f"node rows of {table.shape[1]} cells"))
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


def _is_number(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: the text ``float``
    takes, less underscores and non-ASCII digits, which numpy refuses."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def _node_row_fault(path, header_line: int, width: int, cause) -> str:
    """'PATH:LINE: ...' naming, by its 1-based line in the file, the first
    node row after line ``header_line`` that is not ``width`` numbers, or
    'PATH: cause' if ``csv`` reads every row as such."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if reader.line_num <= header_line or not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != width:
                return f"{where}: expected node rows of {width} cells, got {len(row)}"
            for column, cell in enumerate(row, 1):
                if not _is_number(cell):
                    return f"{where}: could not convert cell {column} {cell!r} to a number"
    return f"{path}: {cause}"


def trace_to_csv(path, trace) -> None:
    write_csv(path, *trace.columns())


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
