#!/usr/bin/env python3
"""Record every artifact the benchmark's workload ops write, for one source tree.

    python3 scripts/artifact_hashes.py TREE OUT.json [--seeds 3,4]

For each seed, every op of every workload in TREE/perfbench/workloads.py
runs at the pass count of a default benchmark run, through TREE's own
orbitfix.cli.main in this process. OUT.json lists each op's argv, exit code
and, for every file it wrote, the file's SHA-256; a summary.json is stored as
its parsed content instead, without wall_time_s and config.out, the two
fields that differ between runs of the same code, and its numbers
round-trip exactly. Two trees give the same artifacts, file for file, when
their OUT.json files are equal (`cmp parent.json change.json`); where they
are not, `diff parent.json change.json` names each summary field that moved.

Only workloads.py is read from TREE/perfbench: no timing, tracing or gate
is run. Run one tree per process, since the process imports TREE's orbitfix.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

# the run length that sets each workload's pass count: perfbench/run.py's
# RUN_SECONDS, so the ops hashed are those a default benchmark run draws
RUN_SECONDS = 32

# volatile fields of summary.json: (path of keys) -> removed before it is stored
VOLATILE = (("wall_time_s",), ("config", "out"))


def _load_workloads(tree: Path):
    path = tree / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _file_record(path: Path):
    # a summary.json's content without its volatile fields; any other file's SHA-256
    data = path.read_bytes()
    if path.name != "summary.json":
        return hashlib.sha256(data).hexdigest()
    doc = json.loads(data)
    for keys in VOLATILE:
        parent = doc
        for key in keys[:-1]:
            parent = parent.get(key, {})
        parent.pop(keys[-1], None)
    return doc


def artifact_hashes(tree: Path, seeds) -> dict:
    sys.dont_write_bytecode = True  # leave no __pycache__ in TREE
    sys.path.insert(0, str(tree / "src"))
    from orbitfix import cli

    workloads = _load_workloads(tree)
    ops = []
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as work:
        for name, workload in workloads.WORKLOADS.items():
            passes = workloads.pass_count(workload, RUN_SECONDS)
            for seed in seeds:
                for k in range(passes):
                    for i, op in enumerate(workloads.pass_ops(workload, seed, k, passes)):
                        out = Path(work) / f"{name}-{seed}-{k}-{i}"
                        code = cli.main(list(op.argv) + ["--out", str(out)])
                        files = {} if not out.exists() else {
                            str(p.relative_to(out)): _file_record(p)
                            for p in sorted(out.rglob("*")) if p.is_file()}
                        ops.append({"workload": name, "seed": seed, "pass": k, "op": op.name,
                                    "argv": list(op.argv), "exit_code": code, "files": files})
    return {"seeds": list(seeds), "seconds": RUN_SECONDS, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="source tree with src/ and perfbench/")
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--seeds", default="3,4", help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = artifact_hashes(args.tree.resolve(), seeds)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    files = sum(len(op["files"]) for op in doc["ops"])
    print(f"{len(doc['ops'])} ops, {files} files -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
