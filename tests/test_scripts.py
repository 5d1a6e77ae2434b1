"""Smoke tests of the same-answers scripts on small synthetic records."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"

RECORD = {"seeds": [3], "seconds": 32, "ops": [{
    "workload": "wave-newton", "seed": 3, "pass": 0, "op": "recenter-gauss-n512",
    "argv": ["bs", "solve", "--grid-n", "512"], "exit_code": 0,
    "files": {"trace.csv": "0" * 64, "summary.json": {
        "status": "ConvergedResidual", "iterations": 4, "final_residual": 5.9e-13,
        "extras": {"inner_iterations": 31, "table": [{"eps": 0.01, "iterations": 3}]}}}}]}


def _compare(tmp_path, edit):
    change = copy.deepcopy(RECORD)
    edit(change["ops"][0])
    paths = []
    for name, doc in (("parent.json", RECORD), ("change.json", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-B", str(COMPARE), *map(str, paths)],
                          capture_output=True, text=True)


@pytest.mark.parametrize("edit, moved", [
    (lambda op: op.update(exit_code=2), "exit code"),
    (lambda op: op["files"]["summary.json"].update(iterations=5), "iterations"),
    (lambda op: op["files"]["summary.json"]["extras"]["table"][0].update(iterations=4),
     "extras.table[].iterations"),
], ids=["exit-code", "iterations", "table-row"])
def test_compare_artifacts_fails_when_a_count_moves(tmp_path, edit, moved):
    result = _compare(tmp_path, edit)
    assert result.returncode == 1
    assert f"recenter-gauss-n512: {moved}" in result.stdout


def test_compare_artifacts_passes_when_only_a_value_moves(tmp_path):
    def edit(op):
        op["files"]["summary.json"]["final_residual"] = 6.4e-13
        op["files"]["trace.csv"] = "1" * 64

    result = _compare(tmp_path, edit)
    assert result.returncode == 0
    assert "1 ops paired, counts equal; 0 wrote identical files" in result.stdout
    assert "final_residual: 1 ops" in result.stdout
    assert "recenter-gauss-n512: trace.csv (1)" in result.stdout
