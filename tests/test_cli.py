"""Command-line runner: config validation, subcommands, exit codes, outputs."""

import dataclasses
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from folharm import cli

TWO_PI = 2 * np.pi


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_config(**extra):
    config = {
        "source": {"kind": "flat_torus", "periods": [TWO_PI, TWO_PI]},
        "resolution": 16,
        "map": {"family": "identity"},
    }
    config.update(extra)
    return config


@pytest.fixture()
def report_schema():
    return json.loads(
        resources.files("folharm").joinpath("report_schema.json").read_text()
    )


def test_energy_identity_torus(tmp_path, capsys, report_schema):
    cfg = _write_config(tmp_path, _base_config(resolution=64))
    code = cli.main(["energy", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out
    value = float(printed.split("=")[1])
    assert abs(value - 4 * np.pi ** 2) <= 1e-8
    doc = json.loads((tmp_path / "out" / "energy.json").read_text())
    jsonschema.validate(doc, report_schema)


def test_tension_subcommand_writes_field(tmp_path, report_schema):
    cfg = _write_config(tmp_path, _base_config())
    code = cli.main(["tension", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "tension.csv").read_text().splitlines()
    assert lines[0] == "i0,i1,b0,b1,tau0,tau1"
    assert len(lines) == 1 + 16 * 16
    doc = json.loads((tmp_path / "out" / "tension.json").read_text())
    jsonschema.validate(doc, report_schema)
    assert doc["max_tension"] <= 1e-12


def test_flow_subcommand_outputs(tmp_path, report_schema):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 32,
        "map": {"family": "sine_perturbation",
                "params": {"modes": [[0, [1], 0.3, 0.0]]}},
        "flow": {"tension_tol": 1e-5},
    })
    out = tmp_path / "out"
    code = cli.main(["flow", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "flow.json").read_text())
    jsonschema.validate(doc, report_schema)
    assert doc["termination"] == "tension_tol"
    assert doc["monotone_energy"] is True
    assert (out / "flow_trace.csv").exists()
    assert (out / "flow_final_map.csv").exists()


def test_verify_subcommand_and_summary(tmp_path, report_schema):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 64,
        "foliation": {"leaf_dimension": 1, "profile": "cosine_offset"},
        "map": {"family": "identity"},
        "verify": {"checks": ["lemma_volume", "divergence"]},
    })
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    jsonschema.validate(doc, report_schema)
    assert [r["identity"] for r in doc["reports"]] == ["lemma_volume",
                                                       "divergence"]
    assert all(r["pass"] for r in doc["reports"])
    summary = (out / "verify_summary.csv").read_text().splitlines()
    assert summary[0] == "identity,finest_residual,min_order,pass"
    assert len(summary) == 3


def test_failed_check_exits_one(tmp_path):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 32,
        "foliation": {"leaf_dimension": 1, "profile": "cosine_offset"},
        "map": {"family": "identity"},
        "verify": {"checks": ["divergence"],
                   "tolerances": {"divergence": 1e-30}},
    })
    assert cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1


def test_unknown_config_key_exits_two(tmp_path):
    cfg = _write_config(tmp_path, _base_config(mystery=1))
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["energy", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["energy", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2


def test_schema_rejects_bad_geometry(tmp_path):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus"},   # periods missing
        "resolution": 16,
    })
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


def test_runtime_error_exits_three(tmp_path):
    # a missing map CSV at run time is a runtime failure
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 16,
        "map": {"csv": str(tmp_path / "no_such_map.csv")},
    })
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3


def test_non_finite_energy_exits_three(tmp_path):
    # h^2 = (1e155 / 16)^2 is finite, E_B = 1e310 is not
    cfg = _write_config(tmp_path, _base_config(
        source={"kind": "flat_torus", "periods": [1e155, 1e155]}))
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = cli.main(["energy", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert not (out / "energy.json").exists()


def _huge_sine_config(amplitude, **extra):
    return _base_config(map={"family": "sine_perturbation",
                             "params": {"modes": [[0, [1, 0], amplitude, 0.0]]}}, **extra)


def test_non_finite_initial_flow_energy_exits_three(tmp_path):
    # the map is finite, E_B ~ 1e400 is not: the flow stops before its first step
    cfg = _write_config(tmp_path, _huge_sine_config(1e200, flow={}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["flow", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert not (out / "flow.json").exists()


def test_non_finite_tension_exits_three(tmp_path):
    # the map is finite, |tau|^2 ~ 1e614 is not
    cfg = _write_config(tmp_path, _huge_sine_config(1e307))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["tension", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert not (out / "tension.json").exists()
    assert not (out / "tension.csv").exists()


def test_non_finite_verify_residual_exits_three(tmp_path, capsys):
    # the Weitzenboeck terms overflow to inf - inf = nan
    cfg = _write_config(tmp_path, _huge_sine_config(1e200, verify={"checks": ["weitzenbock"]}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "PASS" not in capsys.readouterr().out
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("subcommand, extra", [
    ("flow", {"flow": {}}),              # the CFL step squares h
    ("flow", {"flow": {"dt": 0.1}}),     # diff2 divides by h^2
    ("tension", {}),
])
def test_grid_spacing_whose_square_overflows_exits_two(tmp_path, subcommand, extra):
    cfg = _write_config(tmp_path, _base_config(
        source={"kind": "flat_torus", "periods": [1e308, 1e308]}, **extra))
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not (out / f"{subcommand}.json").exists()


def test_schema_flow_and_rigidity_keys_are_the_dataclass_fields():
    """A schema key without a field would pass validation and then fail as a
    TypeError (exit 3) instead of a config error (exit 2)."""
    from folharm.flow import FlowConfig, RigidityTolerances

    schema = json.loads(
        resources.files("folharm").joinpath("config_schema.json").read_text()
    )["properties"]
    assert set(schema["flow"]["properties"]) == {
        f.name for f in dataclasses.fields(FlowConfig)}
    assert set(schema["rigidity"]["properties"]) == {
        f.name for f in dataclasses.fields(RigidityTolerances)} | {"rank_cap"}


def test_out_dir_resolution_env_var(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _base_config())
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FOLHARM_OUT", str(env_dir))
    assert cli.main(["energy", "--config", cfg]) == 0
    assert (env_dir / "energy.json").exists()


def test_out_flag_overrides_env(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, _base_config())
    monkeypatch.setenv("FOLHARM_OUT", str(tmp_path / "ignored"))
    flag_dir = tmp_path / "from_flag"
    assert cli.main(["energy", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "energy.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_identical_config_gives_byte_identical_outputs(tmp_path):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 32,
        "map": {"family": "sine_perturbation",
                "params": {"modes": [[0, [1], 0.3, 0.0]]}},
        "flow": {"tension_tol": 1e-5},
        "seed": 7,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["flow", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
        outs.append(out)
    for fname in ("flow.json", "flow_trace.csv", "flow_final_map.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_report_subcommand_bundles_everything(tmp_path, report_schema):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "round_sphere", "radius": 1.0, "cap_angle": 0.4},
        "resolution": 32,
        "map": {"family": "identity"},
        "flow": {"tension_tol": 1e-8},
        "rigidity": {"rank_cap": 2, "tension_tol": 1e-6},
        "verify": {"checks": ["weitzenbock"],
                   "weitzenbock_mode": "harmonic",
                   "tolerances": {"weitzenbock": 1e-8}},
    })
    out = tmp_path / "out"
    assert cli.main(["report", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    jsonschema.validate(doc, report_schema)
    assert doc["pass"] is True
    assert doc["flow"]["rigidity"]["verdict"] == "totally_geodesic"


def test_threads_flag_validation(tmp_path):
    cfg = _write_config(tmp_path, _base_config())
    assert cli.main(["energy", "--config", cfg, "--threads", "0",
                     "--out", str(tmp_path / "out")]) == 2
    assert cli.main(["energy", "--config", cfg, "--threads", "2",
                     "--out", str(tmp_path / "out")]) == 0


def test_map_csv_round_trip_through_cli(tmp_path):
    """A flow's final map can seed a follow-up run via the csv map source."""
    base = {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 32,
        "map": {"family": "sine_perturbation",
                "params": {"modes": [[0, [1], 0.3, 0.0]]}},
        "flow": {"tension_tol": 1e-5},
    }
    out = tmp_path / "out"
    assert cli.main(["flow", "--config", _write_config(tmp_path, base),
                     "--out", str(out)]) == 0
    followup = {
        "source": base["source"],
        "resolution": 32,
        "map": {"csv": str(out / "flow_final_map.csv")},
    }
    cfg2 = _write_config(tmp_path, followup, name="config2.json")
    out2 = tmp_path / "out2"
    assert cli.main(["tension", "--config", cfg2, "--out", str(out2)]) == 0
    doc = json.loads((out2 / "tension.json").read_text())
    assert doc["max_tension"] <= 1e-5


def test_cli_import_leaves_numpy_unloaded():
    """--threads can only cap BLAS threads if numpy loads after main() runs."""
    probe = "import sys, folharm.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def _truncate(lines):
    return lines[:len(lines) // 2]


def _duplicate_node(lines):
    return lines[:-1] + [lines[-2]]


def _drop_phi_column(lines):
    return [line if line.startswith("# winding") else line.rsplit(",", 1)[0]
            for line in lines]


def _winding_only(lines):
    return [line for line in lines if line.startswith("# winding")]


def _short_winding_row(lines):
    return [lines[0].rsplit(",", 1)[0]] + lines[1:]


# the node rows start after two winding rows and the header
def _edit_first_node(lines, edit):
    cells = lines[3].split(",")
    return lines[:3] + [",".join(edit(cells))] + lines[4:]


def _non_numeric_cell(lines):
    return _edit_first_node(lines, lambda c: c[:-1] + ["north"])


def _extra_cell(lines):
    return _edit_first_node(lines, lambda c: c + ["0.0"])


def _index_outside_grid(lines):
    return _edit_first_node(lines, lambda c: ["16"] + c[1:])


def _moved_chart_coordinates(lines):
    return _edit_first_node(lines, lambda c: c[:2] + ["0.5"] + c[3:])


# corruption -> the words of the runtime error that names it
_CSV_FAULTS = {
    _truncate: "node rows, the grid has",
    _duplicate_node: "more than once",
    _drop_phi_column: "do not match",
    _winding_only: "no header row",
    _short_winding_row: "winding row needs 2 entries",
    _non_numeric_cell: "could not convert",
    _extra_cell: "node rows of 6 cells",
    _index_outside_grid: "node indices outside",
    _moved_chart_coordinates: "chart coordinates do not match",
}


@pytest.mark.parametrize("corrupt", list(_CSV_FAULTS))
def test_malformed_map_csv_exits_three(tmp_path, capsys, corrupt):
    base = _base_config(map={"family": "sine_perturbation"})
    out = tmp_path / "out"
    assert cli.main(["flow", "--config", _write_config(tmp_path, base),
                     "--out", str(out)]) == 0
    lines = (out / "flow_final_map.csv").read_text().splitlines()
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(corrupt(lines)) + "\n")
    cfg = _write_config(tmp_path, _base_config(map={"csv": str(broken)}),
                        name="config2.json")
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out2")]) == 3
    assert _CSV_FAULTS[corrupt] in capsys.readouterr().err
