"""Command-line runner: config validation, subcommands, exit codes, outputs."""

import argparse
import dataclasses
import importlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import folharm
from folharm import cli
from folharm.errors import ConfigurationError

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


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["a file", "under a file"])
def test_unusable_output_directory_exits_two_naming_it(tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    cfg = _write_config(tmp_path, _base_config())
    assert cli.main(["energy", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {tmp_path / out}: ")
    assert (tmp_path / "file").read_text() == ""


def test_schema_rejects_bad_geometry(tmp_path):
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus"},   # periods missing
        "resolution": 16,
    })
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


# (config edit, where, message): each error names its place in the config
_CONFIG_FAULTS = {
    "unknown key": (dict(mystery=1), "(top level)",
                    "Additional properties are not allowed ('mystery' was unexpected)"),
    "missing key": (dict(foliation={"leaf_dimension": 1}), "foliation",
                    "'profile' is a required property"),
    "type": (dict(seed="7"), "seed", "'7' is not of type 'integer'"),
    "bool is not a number": (dict(flow={"dt": True}), "flow/dt",
                             "True is not of type 'number', 'null'"),
    "bound in a oneOf branch": (dict(resolution=[16, 4]), "resolution/1",
                                "4 is less than the minimum of 8"),
    "no oneOf branch fits": (dict(resolution="16"), "resolution",
                             "'16' is not valid under any of the given schemas"),
}


@pytest.mark.parametrize("fault", list(_CONFIG_FAULTS))
def test_config_error_names_where_and_what(tmp_path, fault):
    edit, where, message = _CONFIG_FAULTS[fault]
    cfg = _write_config(tmp_path, _base_config(**edit))
    with pytest.raises(ConfigurationError) as caught:
        cli.load_config(cfg)
    assert str(caught.value) == f"config {cfg}: at {where}: {message}"


_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e309", "-1e309", "1" + "0" * 400]


@pytest.mark.parametrize("token", _NON_FINITE, ids=lambda token: token[:8])
@pytest.mark.parametrize("key", ["tension_tol", "dt", "periods"])
def test_non_finite_config_numbers_are_rejected(tmp_path, token, key):
    """json.loads accepts NaN and Infinity and reads 1e309 as inf; a nan
    tension_tol would stop a flow at once with pass: true, an infinite dt
    would never halve below dt_min, and an integer beyond the double range
    fails when it becomes a float."""
    config = _base_config(flow={"tension_tol": 1e-6, "dt": 0.01})
    if key == "periods":
        config["source"]["periods"] = [TWO_PI, "@"]
    else:
        config["flow"][key] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"@"', token))
    with pytest.raises(ConfigurationError) as caught:
        cli.load_config(path)
    assert str(caught.value) == f"config {path}: {token} is not a finite number"


def test_nan_tension_tol_flow_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(
        map={"family": "sine_perturbation"}, flow={"tension_tol": "@"},
    )).replace('"@"', "NaN"))
    out = tmp_path / "out"
    assert cli.main(["flow", "--config", str(path), "--out", str(out)]) == 2
    assert "NaN is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_error_exits_three(tmp_path, capsys):
    # a missing map CSV at run time is a runtime failure
    cfg = _write_config(tmp_path, {
        "source": {"kind": "flat_torus", "periods": [TWO_PI]},
        "resolution": 16,
        "map": {"csv": str(tmp_path / "no_such_map.csv")},
    })
    assert cli.main(["energy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert "no_such_map.csv: cannot read the map" in capsys.readouterr().err


def test_an_unexpected_exception_exits_three_with_its_type(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr(cli, "Experiment", fail)
    cfg = _write_config(tmp_path, _base_config())
    assert cli.main(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "runtime error: RuntimeError: unforeseen\n"


def test_non_finite_energy_exits_three(tmp_path):
    # h^2 = (1e155 / 16)^2 is finite, E_B = 1e310 is not
    cfg = _write_config(tmp_path, _base_config(
        source={"kind": "flat_torus", "periods": [1e155, 1e155]}))
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = cli.main(["energy", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert not (out / "energy.json").exists()


@pytest.mark.parametrize("subcommand, axis", [
    ("energy", 3), ("energy", 1), ("energy", -1), ("flow", 3),
])
def test_foliation_axis_outside_the_chart_exits_two(tmp_path, capsys, subcommand, axis):
    cfg = _write_config(tmp_path, _base_config(
        source={"kind": "flat_torus", "periods": [TWO_PI]},
        foliation={"profile": "cosine_offset", "params": {"axis": axis}}))
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "axis" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


_CIRCLE = {"kind": "flat_torus", "periods": [TWO_PI]}
_SPHERE = {"kind": "round_sphere", "radius": 1.0, "cap_angle": 0.4}
_PATCH = {"kind": "hyperbolic_patch", "x_bounds": [-2.0, 2.0], "y_bounds": [0.5, 3.0]}


def _family(name, params, **extra):
    return _base_config(map={"family": name, "params": params}, **extra)


def _profile(name, params):
    return _base_config(source=_CIRCLE, foliation={"profile": name, "params": params})


# a config whose family or profile params are malformed -> the name in its error
_BAD_PARAMS = [
    *[(_family("sine_perturbation", {"modes": modes}, source=_CIRCLE), "sine_perturbation")
      for modes in ([[0]], [[0, [1], 0.5, 0.0, 9]], [["a", [1]]], [[0, [1], "x"]],
                    [[0.5, [1]]])],
    (_family("band_wave", {"theta": "x"}, target=_SPHERE), "band_wave"),
    (_family("sine_into_patch", {"amplitudes": [1, 2]}, target=_PATCH), "sine_into_patch"),
    (_family("linear", {"matrix": [["a", 0], [0, 1]]}), "linear"),
    (_family("constant", {"point": ["a", 1]}), "constant"),
    (_profile("cosine_offset", {"offset": "x"}), "cosine_offset"),
    (_profile("warped_sine", {"axis": 0.5}), "warped_sine"),
]


@pytest.mark.parametrize("config, name", _BAD_PARAMS)
def test_malformed_family_or_profile_params_exit_two(tmp_path, capsys, config, name):
    cfg = _write_config(tmp_path, config)
    assert cli.main(["energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err


# subcommand, config, exit code, words of the error
_ERROR_PATHS = {
    **{f"{sub} without a map": (sub, {"source": _CIRCLE, "resolution": 16}, 2,
                                "needs a 'map' entry") for sub in ("energy", "tension", "flow")},
    **{f"{check} without a foliation": ("verify", _base_config(verify={"checks": [check]}), 2,
                                        f"{check} check needs a foliation")
       for check in ("lemma_volume", "divergence")},
    "composition without compose_with": (
        "verify", _base_config(verify={"checks": ["composition"]}), 2,
        "composition check needs verify.compose_with"),
}


@pytest.mark.parametrize("case", list(_ERROR_PATHS))
def test_error_paths_exit_with_their_code_and_words(tmp_path, capsys, case):
    subcommand, config, code, words = _ERROR_PATHS[case]
    cfg = _write_config(tmp_path, config)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert words in capsys.readouterr().err


def test_fractional_wavevector_on_a_periodic_axis_exits_two(tmp_path, capsys):
    """Half a wave on the circle jumps at the seam."""
    cfg = _write_config(tmp_path, _family("sine_perturbation", {"modes": [[0, [0.5], 0.5]]},
                                          source=_CIRCLE, resolution=64))
    assert cli.main(["tension", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "periodic axes must be integers" in capsys.readouterr().err


def test_output_directory_precedence(tmp_path, monkeypatch):
    """--out, then FOLHARM_OUT, then the config's out, then ./folharm_out;
    an empty FOLHARM_OUT counts as unset."""
    monkeypatch.chdir(tmp_path)
    with_out = _write_config(tmp_path, _base_config(out="config_out"), name="with_out.json")
    levels = [(with_out, ["--out", "flag_out"], "env_out", "flag_out"),
              (with_out, [], "env_out", "env_out"),
              (with_out, [], "", "config_out"),
              (_write_config(tmp_path, _base_config()), [], "", "folharm_out")]
    for cfg, flag, env, expected in levels:
        monkeypatch.setenv("FOLHARM_OUT", env)
        assert cli.main(["energy", "--config", cfg, *flag]) == 0
        assert [p.parent.name for p in tmp_path.glob("*/energy.json")] == [expected]
        (tmp_path / expected / "energy.json").unlink()


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


def test_a_failed_run_leaves_no_outputs_of_an_earlier_run(tmp_path):
    """A flow writes its three files; the same config at amplitude 1e200 has
    an infinite initial energy and exits 3, and the directory then holds
    none of the three, because a run removes them before it starts."""
    out = tmp_path / "out"
    flow = {"flow.json", "flow_trace.csv", "flow_final_map.csv"}
    good = _write_config(tmp_path, _huge_sine_config(0.3, flow={}), "good.json")
    assert cli.main(["flow", "--config", good, "--out", str(out)]) == 0
    assert flow <= {p.name for p in out.iterdir()}
    bad = _write_config(tmp_path, _huge_sine_config(1e200, flow={}), "bad.json")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["flow", "--config", bad, "--out", str(out)]) == 3
    assert not flow & {p.name for p in out.iterdir()}


def test_an_overflowing_energy_prints_only_its_runtime_error(tmp_path):
    """|d_T phi|^2 ~ 1e400 overflows to inf without a numpy warning: the
    flow exits 3 and stderr holds the one line of its runtime error."""
    cfg = _write_config(tmp_path, _huge_sine_config(1e200, flow={}))
    done = subprocess.run([sys.executable, "-m", "folharm.cli", "flow", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr == "runtime error: energy inf at step 0 is not finite\n"


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


@pytest.mark.parametrize("fd_steps", [[0.01, 0.01], [1e-200, 2e-200]])
def test_finite_difference_steps_of_equal_squares_exit_two(tmp_path, capsys, fd_steps):
    """The extrapolation over the steps divides by the differences of their
    squares: two equal steps, or two whose squares both underflow to 0."""
    config = json.loads((Path(__file__).parents[1] / "scripts" / "configs"
                         / "verify_core_identities.json").read_text())
    config["variation"]["fd_steps"] = fd_steps
    config["verify"]["checks"] = ["first_variation"]
    cfg = _write_config(tmp_path, config)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "fd_steps: expected positive steps with distinct" in capsys.readouterr().err


@pytest.mark.parametrize("resolutions", [[64, 32], [32, 32], [32, 64, 64]])
def test_resolutions_that_do_not_strictly_increase_exit_two(tmp_path, capsys, resolutions):
    """A refinement sequence that coarsens or repeats a grid is a config error,
    raised before any check runs, not a run whose orders FAIL."""
    config = json.loads((Path(__file__).parents[1] / "scripts" / "configs"
                         / "verify_weitzenbock_refinement.json").read_text())
    config["resolutions"] = resolutions
    cfg, out = _write_config(tmp_path, config), tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "resolutions: expected a strictly increasing sequence" in capsys.readouterr().err
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


def test_schema_enums_are_the_code_tables():
    """A name the schema allows but no table holds would pass validation and
    then fail as a KeyError (exit 3) instead of a config error (exit 2)."""
    from folharm.families import FAMILY_NAMES
    from folharm.foliation import named_profile

    schema = json.loads(
        resources.files("folharm").joinpath("config_schema.json").read_text())
    verify = schema["properties"]["verify"]["properties"]
    assert set(verify["checks"]["items"]["enum"]) == set(cli._CHECKS)
    assert set(verify["tolerances"]["properties"]) == set(cli._CHECKS)
    map_family = schema["definitions"]["map"]["oneOf"][0]["properties"]["family"]
    for family in (map_family, verify["compose_with"]["properties"]["family"]):
        assert set(family["enum"]) == set(FAMILY_NAMES)
    for profile in schema["properties"]["foliation"]["properties"]["profile"]["enum"]:
        named_profile(profile, 1)
    [subcommands] = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(subcommands) == set(cli._SUBCOMMANDS)


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


def test_a_run_removes_the_outputs_it_does_not_write_and_nothing_else(tmp_path):
    """Each subcommand clears the other subcommands' output files from its
    directory before it writes, so stale results never sit beside fresh
    ones; a file of another name survives every run."""
    verify = {"checks": ["weitzenbock"], "weitzenbock_mode": "harmonic"}
    with_verify = _write_config(tmp_path, _base_config(flow={}, verify=verify), "all.json")
    without = _write_config(tmp_path, _base_config(flow={}), "no_verify.json")
    out = tmp_path / "out"

    def run(subcommand, cfg):
        assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 0
        return {p.name for p in out.iterdir()}

    flow = {"flow.json", "flow_trace.csv", "flow_final_map.csv"}
    assert run("report", with_verify) == (
        {"report.json", "energy.json", "verify.json", "verify_summary.csv"} | flow)
    (out / "notes.txt").write_text("kept")
    assert run("report", without) == {"report.json", "energy.json", "notes.txt"} | flow
    assert run("energy", without) == {"energy.json", "notes.txt"}
    assert run("tension", without) == {"tension.csv", "tension.json", "notes.txt"}
    assert run("verify", with_verify) == {"verify.json", "verify_summary.csv", "notes.txt"}
    assert (out / "notes.txt").read_text() == "kept"


def test_threads_flag_validation(tmp_path):
    cfg = _write_config(tmp_path, _base_config())
    assert cli.main(["energy", "--config", cfg, "--threads", "0",
                     "--out", str(tmp_path / "out")]) == 2
    assert cli.main(["energy", "--config", cfg, "--threads", "2",
                     "--out", str(tmp_path / "out")]) == 0


def test_seed_flag_validation(tmp_path, capsys):
    """The config's seed has minimum 0, and so has --seed."""
    cfg = _write_config(tmp_path, _base_config())
    out = tmp_path / "out"
    assert cli.main(["energy", "--config", cfg, "--seed", "-3", "--out", str(out)]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["energy", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    assert json.loads((out / "energy.json").read_text())["seed"] == 0


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


def test_cold_start_loads_neither_jsonschema_nor_numpy():
    """Validating a config needs neither: both imports would add to every run."""
    config = Path(__file__).parents[1] / "scripts" / "configs" / "energy_identity_torus.json"
    probe = ("import sys, folharm.cli; folharm.cli.load_config(sys.argv[1]); "
             "print(sorted({'jsonschema', 'numpy'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe, str(config)], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_submodules_resolve_through_the_package_namespace(monkeypatch):
    """``folharm.<module>`` works before anything has imported the module, as
    the CLI's ``fh.serialize`` needs on a cold start."""
    for name in folharm._EXPORTS:
        module = importlib.import_module(f"folharm.{name}")
        monkeypatch.delattr(folharm, name)
        assert getattr(folharm, name) is module


def test_dir_lists_the_lazily_loaded_names():
    """``dir(folharm)`` lists every public name, also those whose module has
    not been loaded, in order."""
    names = dir(folharm)
    assert set(folharm._HOME) <= set(names)
    assert {"__version__", "FolharmError"} <= set(names)
    assert names == sorted(names)


@pytest.mark.parametrize("module", sorted(folharm._EXPORTS))
def test_every_export_resolves_and_is_in_its_module_all(module):
    """Each ``__all__`` entry of a submodule names one of its attributes, and
    each name ``folharm`` exports from it is in that ``__all__``."""
    loaded = importlib.import_module(f"folharm.{module}")
    assert [name for name in loaded.__all__ if not hasattr(loaded, name)] == []
    assert set(folharm._EXPORTS[module]) <= set(loaded.__all__)


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


def _non_integer_winding_cell(lines):
    return ["# winding,x," + lines[0].rsplit(",", 1)[1]] + lines[1:]


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
    _non_integer_winding_cell: "broken.csv:1: invalid literal for int()",
    _non_numeric_cell: "broken.csv:4: could not convert cell 6 'north'",
    _extra_cell: "broken.csv:4: expected node rows of 6 cells, got 7",
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
