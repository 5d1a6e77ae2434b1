#!/usr/bin/env python3
"""Print the acceptance criterion lines of one source tree, without their seconds.

    python3 scripts/criterion_lines.py TREE

Runs TREE/tests/test_acceptance.py under pytest in a child process, with
TREE/src first on the import path, and prints each "criterion N: ..." line
the tests write, in order, with the trailing ", N.NNs" of elapsed time
removed. Two trees give the same criteria when their outputs are equal:

    python3 scripts/criterion_lines.py PARENT > parent.txt
    python3 scripts/criterion_lines.py CHANGE > change.txt
    diff parent.txt change.txt

A failing criterion is part of the output, not an error: the exit status
is 0 when pytest ran the tests, whether they passed or not, and pytest's
own status, with its output on stderr, when it could not run them.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

# "criterion N: PASS (...)" anywhere in a line: pytest -q writes a test's
# progress mark on the line where the next test's output starts
CRITERION = re.compile(r"criterion \d+: .*")
SECONDS = re.compile(r", \d+(\.\d+)?s\)$")


def criterion_lines(tree: Path):
    """(lines, pytest exit status, pytest output) of TREE's acceptance tests."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH"))
                                        if p)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                          "tests/test_acceptance.py"],
                         cwd=tree, env=env, capture_output=True, text=True)
    lines = [SECONDS.sub(")", m.group(0)) for m in map(CRITERION.search, run.stdout.splitlines())
             if m]
    return lines, run.returncode, run.stdout + run.stderr


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines, status, output = criterion_lines(Path(argv[0]).resolve())
    # pytest's status 1 is "some tests failed", which the lines report
    if status not in (0, 1):
        print(output, file=sys.stderr)
        return status
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
