"""CSV/JSON round trips and formatting."""

import json

import numpy as np

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
