"""scripts/compare_outputs.py: the exit status that states an output tolerance."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, column=(1.0, -2.5, 3.25), verdict="tension_tol") -> Path:
    (root / "run").mkdir(parents=True)
    rows = "\n".join(f"{i},{x!r}" for i, x in enumerate(column))
    (root / "run" / "trace.csv").write_text(f"# a comment\nstep,E_B\n{rows}\n")
    (root / "run" / "flow.json").write_text(
        json.dumps({"termination": verdict, "final_energy": 39.47}))
    return root


def _compare(a: Path, b: Path, *flags: str) -> int:
    return compare_outputs.main([str(a), str(b), *flags])


def test_identical_trees_pass(tmp_path):
    assert _compare(_tree(tmp_path / "a"), _tree(tmp_path / "b")) == 0


@pytest.mark.parametrize("rtol, code", [("1e-10", 0), ("1e-14", 1)])
def test_csv_column_moved_within_and_beyond_rtol(tmp_path, rtol, code):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", column=(1.0, -2.5, 3.25 * (1 + 1e-12)))
    assert _compare(a, b, "--rtol", rtol) == code


def test_non_numeric_json_field_that_differs_fails(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", verdict="max_steps")
    assert _compare(a, b, "--rtol", "1") == 1


def test_file_in_one_tree_only_fails(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b")
    (b / "run" / "extra.csv").write_text("x\n1\n")
    assert _compare(a, b, "--rtol", "1") == 1
    assert _compare(b, a, "--rtol", "1") == 1
