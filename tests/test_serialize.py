"""CSV/JSON round trips and formatting."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folharm as fh
from folharm import serialize

TWO_PI = 2 * np.pi


def test_fmt_round_trips_float64():
    rng = np.random.default_rng(5)
    samples = list(rng.standard_normal(200)) + [
        0.0, 1e-300, 1e300, np.pi, 1 / 3, 0.1
    ]
    for x in samples:
        assert float(serialize.fmt(x)) == float(x)


def test_map_csv_round_trip_is_bit_exact(tmp_path, sphere):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 16)
    fam = fh.make_family("band_wave", grid.geometry, sphere, {})
    mapf = fam.realize(grid)
    path = tmp_path / "map.csv"
    serialize.map_to_csv(path, mapf)
    back = serialize.map_from_csv(path, grid, sphere)
    assert np.array_equal(back.values, mapf.values)   # bit-for-bit
    assert np.array_equal(back.winding, mapf.winding)


def test_scalar_field_csv_has_header_and_coordinates(tmp_path, torus1):
    grid = fh.build_grid(torus1, 8)
    f = np.sin(grid.points[..., 0])
    path = tmp_path / "field.csv"
    serialize.scalar_field_to_csv(path, grid, {"f": f})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i0,b0,f"
    assert len(lines) == 1 + 8
    cells = lines[1].split(",")
    assert float(cells[2]) == f[0]


def test_node_table_matches_a_per_node_loop(tmp_path, torus2):
    """The vectorised node rows equal a per-node ``fmt`` loop byte for byte,
    across more than one row chunk and for signed zeros and non-finite values."""
    grid = fh.build_grid(torus2, 72)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(grid.shape)
    f.flat[:4] = [-0.0, 1e-300, np.nan, -np.inf]
    V = 1e5 * rng.standard_normal(grid.shape + (3,))
    path = tmp_path / "table.csv"
    serialize.scalar_field_to_csv(path, grid, {"f": f, "v": V})
    lines = ["i0,i1,b0,b1,f,v0,v1,v2"]
    for idx in np.ndindex(*grid.shape):
        cells = [str(i) for i in idx] + [serialize.fmt(x) for x in grid.points[idx]]
        cells += [serialize.fmt(f[idx])] + [serialize.fmt(x) for x in V[idx]]
        lines.append(",".join(cells))
    assert path.read_bytes().decode() == "\r\n".join(lines) + "\r\n"


def _csv_module_bytes(header, rows, preamble=()) -> bytes:
    """What ``csv.writer`` makes of the rows: repr of each float, str of each int."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerows(preamble)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


# signed zeros, non-finite values, subnormals, integer-valued floats and the
# values around repr's switch to exponent notation (1e+16, 1e-05)
_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-310,
            2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-5, 0.0001,
            -3.0, 2.0**53, 1e300]
_CH = serialize._CHUNK_ROWS


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 7, _CH, _CH + 1]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(width=64), min_size=1, max_size=6),
       st.integers(1, 4))
def test_writer_bytes_equal_the_csv_module(tmp_path_factory, n_rows, seed, pool, n_float):
    """Index columns, a column of the special values and columns drawn with
    heavy repetition from a small pool (or from any bit pattern), with a
    winding preamble, give the bytes ``csv.writer`` gives."""
    rng = np.random.default_rng(seed)
    columns = [np.arange(n_rows), rng.integers(-5, 5, n_rows),
               np.resize(rng.permutation(_SPECIAL), n_rows)]
    pool = np.array(pool + _SPECIAL)
    columns += [pool[rng.integers(len(pool), size=n_rows)] for _ in range(n_float)]
    columns.append(rng.integers(0, 2**64, n_rows, dtype=np.uint64).view(np.float64))
    header = [f"c{k}" for k in range(len(columns))]
    preamble = [["# winding", 1, -2], ["# winding", 0, 3]]
    path = tmp_path_factory.mktemp("w") / "table.csv"
    serialize.write_csv(path, header, columns, preamble)
    rows = zip(*(c.tolist() for c in columns))
    assert path.read_bytes() == _csv_module_bytes(header, rows, preamble)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**12), *[st.floats(width=64)] * 4),
                min_size=1, max_size=40),
       st.booleans())
def test_trace_bytes_equal_the_csv_module(tmp_path_factory, records, two_blocks):
    """A flow trace, its int step column included, gives the bytes
    ``csv.writer`` gives for its rows, in one row block and in two."""
    n_rows = _CH + 1 if two_blocks else len(records)
    rows = [records[k % len(records)] for k in range(n_rows)]
    trace = fh.FlowTrace()
    for row in rows:
        trace.record(*row)
    path = tmp_path_factory.mktemp("t") / "trace.csv"
    serialize.trace_to_csv(path, trace)
    header = ["step", "E_B", "max_tension", "max_second_form", "max_density"]
    assert path.read_bytes() == _csv_module_bytes(header, rows)


def test_map_csv_round_trip_of_any_bit_pattern(tmp_path, torus2):
    """Finite values of every magnitude, subnormals and -0.0 included, load
    back with the same bits across more than one row block."""
    grid = fh.build_grid(torus2, 72)
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2**64, grid.shape + (2,), dtype=np.uint64).view(np.float64)
    values[~np.isfinite(values)] = -0.0
    values.flat[:3] = [5e-324, -0.0, 1e16]
    mapf = fh.FoliatedMapField(grid, torus2, values)
    path = tmp_path / "map.csv"
    serialize.map_to_csv(path, mapf)
    back = serialize.map_from_csv(path, grid, torus2)
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))


def test_map_csv_reader_takes_blank_lines_and_quoted_cells(tmp_path, torus2):
    """Blank lines, a block of nothing but blank lines and a quoted cell, all
    of which ``csv`` reads, load the same map."""
    grid = fh.build_grid(torus2, 16)
    mapf = fh.FoliatedMapField(grid, torus2, np.random.default_rng(4).random(grid.shape + (2,)))
    path = tmp_path / "map.csv"
    serialize.map_to_csv(path, mapf)
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    lines[4] = ",".join(cells[:-1] + [f'"{cells[-1]}"'])
    lines = lines[:4] + [""] + lines[4:] + [""] * _CH
    path.write_text("\n".join(lines) + "\n")
    back = serialize.map_from_csv(path, grid, torus2)
    assert np.array_equal(back.values, mapf.values)


@pytest.mark.parametrize("edit", [lambda c: c + ["0.0"], lambda c: c[:-1]],
                         ids=["one cell more", "one cell fewer"])
def test_map_csv_rows_of_another_width_are_refused(tmp_path, torus2, edit):
    """``np.loadtxt`` takes a table whose every row has the same wrong
    width; the reader refuses it against the header's six cells."""
    grid = fh.build_grid(torus2, 8)
    mapf = fh.FoliatedMapField(grid, torus2, np.random.default_rng(6).random(grid.shape + (2,)))
    path = tmp_path / "map.csv"
    serialize.map_to_csv(path, mapf)
    lines = path.read_text().splitlines()
    start = sum(line.startswith("# winding") for line in lines) + 1
    lines[start:] = [",".join(edit(line.split(","))) for line in lines[start:]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fh.InvalidMapError, match="node rows of 6 cells"):
        serialize.map_from_csv(path, grid, torus2)


# edit of a node row's cells -> the words after PATH:LINE: of the error
_NODE_ROW_FAULTS = {
    "not a number": (lambda c: c[:-1] + ["north"], "could not convert cell 6 'north' to a number"),
    "underscore": (lambda c: c[:-1] + ["1_0"], "could not convert cell 6 '1_0' to a number"),
    "non-ASCII digit": (lambda c: c[:-1] + ["\uff11"], "could not convert cell 6 '\uff11'"),
    "one cell more": (lambda c: c + ["0.0"], "expected node rows of 6 cells, got 7"),
    "one cell fewer": (lambda c: c[:-1], "expected node rows of 6 cells, got 5"),
}


@pytest.mark.parametrize("every_row", [False, True], ids=["third row", "every row"])
@pytest.mark.parametrize("fault", list(_NODE_ROW_FAULTS))
def test_map_csv_faults_name_their_line_in_the_file(tmp_path, torus2, fault, every_row):
    """A node row that is not six numbers is reported as PATH:LINE, the line
    of the file counted from 1, blank lines included: the third node row
    after a blank line, or the first when every row has the fault (which
    ``np.loadtxt`` takes when it is a uniform width)."""
    edit, words = _NODE_ROW_FAULTS[fault]
    grid = fh.build_grid(torus2, 8)
    mapf = fh.FoliatedMapField(grid, torus2, np.random.default_rng(7).random(grid.shape + (2,)))
    path = tmp_path / "map.csv"
    serialize.map_to_csv(path, mapf)
    lines = path.read_text().splitlines()
    start = sum(line.startswith("# winding") for line in lines) + 1
    lines.insert(start, "")
    edited = range(start + 1, len(lines)) if every_row else [start + 3]
    for i in edited:
        lines[i] = ",".join(edit(lines[i].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fh.InvalidMapError) as err:
        serialize.map_from_csv(path, grid, torus2)
    assert str(err.value).startswith(f"{path}:{edited[0] + 1}: {words}")


@pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
def test_an_unreadable_map_csv_is_an_invalid_map(tmp_path, torus2, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(fh.InvalidMapError) as err:
        serialize.map_from_csv(path, fh.build_grid(torus2, 8), torus2)
    assert str(err.value).startswith(f"{path}: cannot read the map")


def test_trace_csv(tmp_path, torus1):
    trace = fh.FlowTrace()
    trace.record(0, 1.0, 0.5, 0.25, 2.0)
    trace.record(1, 0.9, 0.4, 0.2, 1.9)
    path = tmp_path / "trace.csv"
    serialize.trace_to_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,E_B,max_tension,max_second_form,max_density"
    assert lines[1].startswith("0,1.0,0.5")


def test_dump_json_is_sorted_and_strict(tmp_path):
    path = tmp_path / "x.json"
    serialize.dump_json(path, {"b": np.float64(np.inf), "a": np.int64(3),
                               "c": [np.nan, 1.5], "d": np.arange(2)})
    doc = json.loads(path.read_text())
    assert doc == {"a": 3, "b": "inf", "c": ["nan", 1.5], "d": [0, 1]}
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
