"""Every benchmark hook still finds its target in the program, and every
benchmark op still parses.

perfbench/tracing.py wraps orbitfix callables by module and attribute name.
A hook whose target was renamed or deleted does not fail the benchmark; its
per-layer metrics silently read null, and a solver called from anywhere but
the hooked name reads 0. A workload op whose flag was dropped or renamed
shows up only as a failed benchmark run. These tests turn both into failures.
The benchmark files are loaded read-only (no bytecode cache is written).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitfix.cli import _build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooks known to point at nothing; each should leave with the benchmark's next refresh
KNOWN_MISSING = {"orbitfix.cli.materialize"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = saved
        sys.modules.pop(spec.name, None)


@pytest.fixture(scope="module")
def tracing():
    yield from _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


def test_every_hook_resolves(tracing):
    fft = np.fft.fft
    with tracing.Hooks(tracing.Tracer()) as hooks:
        absent = sorted(name for name, ok in hooks.present.items() if not ok)
        assert not absent, f"spans with no resolvable hook: {absent}"
        assert set(hooks.missing) <= KNOWN_MISSING
        assert np.fft.fft is not fft
    assert np.fft.fft is fft


BS_SMALL = ["--grid-n", "256", "--half-length", "25"]


@pytest.mark.parametrize("argv, newton, spans", [
    # the dispatch runs Petviashvili: outer steps, and no MINRES
    (["bs", "solve", "--cs", "1.2", *BS_SMALL], False, ()),
    (["bs", "solve", "--perturb", "gauss", "--eps", "0.01", *BS_SMALL], True, ()),
    (["nbody", "solve", "--method", "newton", "--perturb", "ones", "--eps", "0.03",
      "--bodies", "16"], True, ()),
    (["nbody", "orbit", "--perturb", "generator", "--eps", "1"], False,
     ("symmetry.align_to_orbit", "symmetry.predict_limit")),
], ids=["bs-petviashvili", "bs-newton", "nbody-newton", "nbody-orbit"])
def test_prescribed_speed_solve_is_counted_as_outer_steps(tracing, tmp_path, argv, newton,
                                                          spans):
    # every solve runs through the names the hooks wrap in orbitfix.cli
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        assert main([*argv, "--tol", "1e-10", "--out", str(tmp_path)]) == 0
    assert tracer.counters["solvers.outer_steps"] > 0
    if newton:
        assert tracer.counters["numlin.minres.iters"] > 0
    else:
        assert tracer.counters["numlin.minres.iters"] == 0
    assert set(spans) <= {span.name for span in tracer.spans}


def test_every_workload_op_parses(workloads):
    # a few seeds and every pass of three: each op's argv picks a command
    parser = _build_parser()
    for workload in workloads.WORKLOADS.values():
        for seed in range(3):
            for index in range(3):
                for op in workloads.pass_ops(workload, seed, index, 3):
                    args = parser.parse_args(list(op.argv))
                    assert args.func.__module__ == "orbitfix.cli", op.name
