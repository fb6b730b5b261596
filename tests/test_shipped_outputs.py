"""scripts/shipped_outputs.json: the outputs of every shipped config, pinned.

A change that moves an output on purpose regenerates the manifest with
``python3 scripts/pin_outputs.py``; its diff then shows what moved."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pin_outputs.py"
_spec = importlib.util.spec_from_file_location("pin_outputs", _SCRIPT)
pin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_outputs)


def test_shipped_outputs_match_their_manifest(tmp_path, capsys):
    """All 9 commands of run_all.sh, in-process: every output file is pinned
    and has its pinned digest."""
    assert len(pin_outputs.run_all_commands(str(tmp_path))) == 9
    pin_outputs.run(tmp_path)
    capsys.readouterr()
    diff = pin_outputs.differences(pin_outputs.pinned(), tmp_path)
    assert not diff, "\n".join(diff)


def test_a_one_ulp_change_names_its_file_and_scalar(tmp_path):
    (tmp_path / "run").mkdir()
    trace, report = tmp_path / "run" / "trace.csv", tmp_path / "run" / "flow.json"
    trace.write_text("step,E_B\n0,39.47\n1,39.25\n")
    report.write_text(json.dumps({"final_energy": 39.25, "steps": [0, 1]}))
    pins = pin_outputs.manifest(tmp_path)
    assert pin_outputs.differences(pins, tmp_path) == []

    ulp = repr(float(np.nextafter(39.25, np.inf)))
    trace.write_text(f"step,E_B\n0,39.47\n1,{ulp}\n")
    assert pin_outputs.differences(pins, tmp_path) == ["run/trace.csv: sha256 differs"]
    report.write_text(json.dumps({"final_energy": float(ulp), "steps": [0, 1]}))
    (tmp_path / "run" / "extra.csv").write_text("x\n")
    assert pin_outputs.differences(pins, tmp_path) == [
        "run/extra.csv: not pinned",
        "run/flow.json: sha256 differs",
        f"  /final_energy: 39.25 -> {ulp}",
        "run/trace.csv: sha256 differs"]
    trace.unlink()
    assert "run/trace.csv: missing" in pin_outputs.differences(pins, tmp_path)
