"""scripts/step_time.py, io_time.py and verify_time.py: one JSON line of
finite timings per config or check, on small grids."""

import importlib.util
import json
import math
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checks(config):
    return json.loads((_SCRIPTS / "configs" / f"{config}.json").read_text())["verify"]["checks"]


def _run(capsys, name, argv):
    """The script module and the JSON lines its ``main(argv)`` prints."""
    script = _load(name)
    assert script.main(argv) == 0
    return script, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def _finite(timing):
    return isinstance(timing["median_ms"], float) and math.isfinite(timing["median_ms"])


def test_step_time_gives_one_line_per_shipped_flow(capsys):
    script, lines = _run(capsys, "step_time", ["--resolution", "16", "--max-steps", "5"])
    assert [line["config"] for line in lines] == [f"{c}.json" for c in script.SHIPPED_FLOWS]
    for line in lines:
        assert line["resolution"][0] == 16 and 1 <= line["steps"] <= 5
        assert _finite(line) and math.isfinite(line["tracemalloc_peak_mb"])


def test_io_time_gives_one_line_of_three_timings(capsys):
    _, [line] = _run(capsys, "io_time", ["--resolution", "16"])
    assert line["resolution"] == [16, 16]
    assert all(_finite(line[name]) for name in ("tension_csv", "map_csv", "map_read"))


def test_verify_time_gives_one_line_per_shipped_check(capsys):
    script, lines = _run(capsys, "verify_time", ["--resolution", "16"])
    assert [(line["config"], line["check"]) for line in lines] == [
        (f"{config}.json", check) for config in script.SHIPPED for check in _checks(config)]
    for line in lines:
        assert line["resolution"] == 16
        assert _finite(line) and math.isfinite(line["tracemalloc_peak_mb"])
