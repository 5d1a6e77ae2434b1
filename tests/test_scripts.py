"""Smoke tests of the same-answers scripts on small synthetic records."""

import copy
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
HASHES = COMPARE.with_name("artifact_hashes.py")

RECORD = {"seeds": [3], "seconds": 32, "ops": [{
    "workload": "wave-newton", "seed": 3, "pass": 0, "op": "recenter-gauss-n512",
    "argv": ["bs", "solve", "--grid-n", "512"], "exit_code": 0, "warnings": [],
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


def test_compare_artifacts_names_each_op_whose_warnings_differ(tmp_path):
    warning = ["RuntimeWarning", "overflow encountered in multiply"]
    result = _compare(tmp_path, lambda op: op.update(warnings=[warning]))
    assert result.returncode == 0
    assert "1 ops paired, counts equal; 1 wrote identical files" in result.stdout
    assert f"wave-newton seed 3 pass 0 recenter-gauss-n512: [] -> [{warning}]" in result.stdout


def test_artifact_hashes_records_the_warnings_of_each_op(tmp_path):
    # a stand-in tree: one workload of two ops, run by a cli that warns on the first
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(textwrap.dedent("""
        from collections import namedtuple

        Op = namedtuple("Op", "name argv")
        WORKLOADS = {"toy": None}

        def pass_count(workload, seconds):
            return 1

        def pass_ops(workload, seed, k, passes):
            return [Op("warns", ["warn"]), Op("quiet", ["quiet"])]
        """))
    package = tmp_path / "src" / "orbitfix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(textwrap.dedent("""
        import warnings

        def main(argv):
            if argv[0] == "warn":
                warnings.warn("overflow encountered in multiply", RuntimeWarning)
            return 0
        """))
    out = tmp_path / "record.json"
    subprocess.run([sys.executable, "-B", str(HASHES), str(tmp_path), str(out), "--seeds", "3"],
                   check=True, capture_output=True)
    ops = json.loads(out.read_text())["ops"]
    assert [(op["op"], op["warnings"]) for op in ops] == [
        ("warns", [["RuntimeWarning", "overflow encountered in multiply"]]), ("quiet", [])]
