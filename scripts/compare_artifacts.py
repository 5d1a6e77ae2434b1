#!/usr/bin/env python3
"""Compare the artifact records of two source trees, op by op.

    python3 scripts/compare_artifacts.py PARENT.json CHANGE.json

PARENT.json and CHANGE.json are outputs of scripts/artifact_hashes.py for
the same seeds. The ops are paired in order and must have the same argv.
Exits 1, naming each op, when an op's counts differ: its exit code, or any
summary.json field named status, iterations, inner_iterations, steps or
etdrk4_steps, wherever it sits (the rows of a shift table included).
Otherwise prints how many ops wrote identical files; for each summary field
that moved, the number of ops it moved in and its largest absolute and
relative change; per op name, the other files that changed; and each op
whose warnings differ, with both lists. Exits 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

COUNTS = ("exit_code", "status", "iterations", "inner_iterations", "steps", "etdrk4_steps")


def _leaves(doc, path="", out=None):
    # dotted path -> values of summary.json's leaves, in order; list rows share name[]
    out = defaultdict(list) if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for value in doc:
            _leaves(value, path + "[]", out)
    else:
        out[path].append(doc)
    return out


def _change(a, b):
    # (absolute, relative) change; nan for values that are not both numbers
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return float("nan"), float("nan")
    return abs(b - a), abs(b - a) / abs(a) if a else float("inf")


def _largest(values):
    # nan when any change is not numeric
    return float("nan") if any(v != v for v in values) else max(values)


def _label(op) -> str:
    return f"{op['workload']} seed {op['seed']} pass {op['pass']} {op['op']}"


def compare(parent: dict, change: dict) -> int:
    if [op["argv"] for op in parent["ops"]] != [op["argv"] for op in change["ops"]]:
        print("the two files do not list the same ops")
        return 1
    pairs = [(old, new, _leaves(old["files"].get("summary.json")),
              _leaves(new["files"].get("summary.json")))
             for old, new in zip(parent["ops"], change["ops"])]
    count_moves = []
    for old, new, a, b in pairs:
        moved = [path for path in sorted(set(a) | set(b))
                 if path.rsplit(".", 1)[-1] in COUNTS and a.get(path) != b.get(path)]
        if old["exit_code"] != new["exit_code"]:
            moved.insert(0, "exit code")
        if moved:
            count_moves.append(f"{_label(old)}: {', '.join(moved)}")
    if count_moves:
        print("counts differ:", *count_moves, sep="\n  ")
        return 1

    identical = 0
    fields = defaultdict(list)  # path -> (abs, rel) of each change, one list entry per op
    files = defaultdict(lambda: defaultdict(int))  # op name -> file -> ops it changed in
    warned = []  # one line per op whose warnings differ
    for old, new, a, b in pairs:
        identical += old["files"] == new["files"]
        # records written before warnings were recorded have none
        if old.get("warnings", []) != new.get("warnings", []):
            warned.append(f"{_label(old)}: {old.get('warnings', [])} -> {new.get('warnings', [])}")
        for path in set(a) | set(b):
            if a.get(path) == b.get(path):
                continue
            va, vb = a.get(path, []), b.get(path, [])
            fields[path].append([_change(x, y) for x, y in zip(va, vb) if x != y]
                                if len(va) == len(vb) else [(float("nan"), float("nan"))])
        for name in sorted((set(old["files"]) | set(new["files"])) - {"summary.json"}):
            if old["files"].get(name) != new["files"].get(name):
                files[old["op"]][name] += 1

    print(f"{len(pairs)} ops paired, counts equal; {identical} wrote identical files")
    if fields:
        print("summary fields that moved: ops, largest absolute and relative change")
        for path, per_op in sorted(fields.items()):
            largest = [_largest(column) for column in zip(*sum(per_op, []))]
            print(f"  {path}: {len(per_op)} ops, {largest[0]:.3g}, {largest[1]:.3g}")
    if files:
        print("other files that changed: op name, file (ops)")
        for op, changed in sorted(files.items()):
            print(f"  {op}: " + ", ".join(f"{name} ({n})" for name, n in sorted(changed.items())))
    if warned:
        print("warnings that differ: op, parent's -> change's", *warned, sep="\n  ")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main())
