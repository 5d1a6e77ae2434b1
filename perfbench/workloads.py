"""Seeded operation lists and per-operation correctness gates.

A workload is a list of orbitfix CLI invocations ("ops"). The seed is the
benchmark's argument, never the program's: it is turned into argv values
only, and the program sees nothing else. Each op carries a gate that reads
the op's exit code and artifacts and says whether the answer is right.

Passes and draws. A run repeats the op list in a fixed number of passes
P (see pass_count), so a seed always gives the same ops, the same answers
and the same failures, however fast the machine runs. The P passes draw
their seed-dependent values as a Latin hypercube: for each value the range
is cut into P equal strata, each pass gets one stratum (a seed-drawn
permutation) and a seed-drawn point inside it. Every draw is uniform over
its whole range, and every run covers each range evenly, so a run's mean
pass time depends much less on where one seed happens to land than P
independent draws would.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

CONVERGED = ("ConvergedResidual", "ConvergedReference")

# criterion 3: Petviashvili on the 2-body ring, seed q* + 0.1, per central mass
CRITERION3_TARGETS = {10: "ConvergedResidual", 5: "ConvergedResidual",
                      4: "MaxIterations", 1: "Diverged", 0: "Diverged"}

# Failures that are known at the parent commit, by op and by the status
# they end with. They stay in the workloads and count in `failed`; only a
# failure not listed here (another op, or another status) clears `correct`.
KNOWN_DEFECTS = {
    "ring-sweep-m0-4": ("Diverged", "criterion 3: m0=4 targets MaxIterations and gives "
                                    "Diverged@114 (iteration-matrix eigenvalue at -1)"),
    "ring-newton-n128": ("MaxIterations", "|F| at the exact 128-body polygon is about 1e-10, "
                                          "the --tol: on some draws Newton wanders along the "
                                          "orbit at the floor and stops MaxIterations"),
    "unknown-speed-n512": ("MaxIterations", "Newton from the closed-form seed (speed 2.77) "
                                            "wanders for --cs in about [1.246, 1.252] (no "
                                            "globalization) and stops at the --max-outer cap"),
}

# criterion-10 solves converge in 9 to 11 Newton steps over the drawn speeds;
# the cap stops a wandering solve after 15 steps (about 7 s) instead of 1000
UNKNOWN_SPEED_MAX_OUTER = 15


@dataclass(frozen=True)
class Op:
    """One CLI invocation (without --out) and the gate for its answer."""

    name: str
    argv: Tuple[str, ...]
    gate: Callable[[Optional[int], Path], Tuple[bool, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dims: Tuple[Tuple[str, float, float], ...]  # seed-drawn (name, low, high)
    build: Callable[[dict], List[Op]]
    ops_doc: str
    pass_s: float  # nominal seconds of one pass, which sets the pass count


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes in a run of about `seconds`; fixed by the arguments alone."""
    return max(2, round(seconds / workload.pass_s))


def _num(x: float) -> str:
    return "%.6g" % x


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def is_known_defect(op_name: str, out: Path) -> bool:
    """True when a failed op ended the way KNOWN_DEFECTS records for it."""
    if op_name not in KNOWN_DEFECTS:
        return False
    try:
        return _summary(out)["status"] == KNOWN_DEFECTS[op_name][0]
    except (OSError, ValueError, KeyError):
        return False


def _solve_gate(tol: float, orbit_tol: Optional[float] = None):
    """Exit 0, converged status, residual <= tol when ConvergedResidual."""

    def gate(code, out):
        s = _summary(out)
        if code != 0 or s["status"] not in CONVERGED:
            return False, f"exit {code}, status {s['status']}@{s['iterations']}"
        if s["status"] == "ConvergedResidual" and not s["final_residual"] <= tol:
            return False, f"final_residual {s['final_residual']} > {tol}"
        if orbit_tol is not None:
            dist = (s["orbit"] or {}).get("orbital_distance")
            if dist is None or not dist <= orbit_tol:
                return False, f"orbital_distance {dist} > {orbit_tol}"
        return True, f"{s['status']}@{s['iterations']} residual {s['final_residual']:.3g}"

    return gate


def _status_gate(target: str):
    def gate(code, out):
        s = _summary(out)
        detail = f"{s['status']}@{s['iterations']} (target {target})"
        return s["status"] == target, detail

    return gate


def _shift_table_gate(code, out):
    rows = _summary(out)["extras"]["table"]
    for row in rows:
        if row["status"] not in CONVERGED:
            return False, f"eps={row['eps']}: {row['status']}"
        if row["x_u"] is None or row["x_eta"] is None \
                or not abs(row["x_u"] - row["x_eta"]) <= 1e-10:
            return False, f"eps={row['eps']}: x_u {row['x_u']} vs x_eta {row['x_eta']}"
    if code != 0:
        return False, f"exit {code}"
    return True, "; ".join(f"eps={r['eps']:g} shift {r['x_u']:.6e}" for r in rows)


def _propagate_gate(code, out):
    extras = _summary(out)["extras"]
    center, shape = extras.get("center_error"), extras.get("shape_error")
    ok = (code == 0 and extras.get("completed") is True
          and center is not None and center <= 1e-3
          and shape is not None and shape <= 1e-3)
    return ok, f"exit {code}, center error {center}, shape error {shape}"


def _bs_spectrum_gate(code, out):
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    re_parts = [float(r["re"]) for r in rows]
    moduli = [math.hypot(float(r["re"]), float(r["im"])) for r in rows]
    zeros = sum(1 for m in moduli if m <= 1e-8)
    positive = sum(1 for x in re_parts if x > 1e-8)
    negative = sum(1 for x in re_parts if x < -1e-8)
    ok = code == 0 and zeros == 1 and positive > 0 and negative > 0
    return ok, f"exit {code}, {zeros} |ev|<=1e-8, {positive} positive, {negative} negative"


def _nbody_spectrum_gate(code, out):
    near_unit = _summary(out)["extras"]["count_near_unit"]
    return code == 0 and near_unit == 1, f"exit {code}, count_near_unit {near_unit}"


# ---------------- workloads ----------------

RING_SIZES = (16, 32, 64, 128)


def _ring_ops(v: dict) -> List[Op]:
    ops = []
    for n in RING_SIZES:
        argv = ("nbody", "solve", "--method", "newton", "--inner-solver", "minres",
                "--perturb", "ones", "--tol", "1e-10", "--bodies", str(n),
                "--eps", _num(v[f"eps_n{n}"]), "--m0", _num(v[f"m0_n{n}"]))
        ops.append(Op(f"ring-newton-n{n}", argv, _solve_gate(1e-10)))
    for m0, target in CRITERION3_TARGETS.items():
        argv = ("nbody", "solve", "--perturb", "ones", "--eps", "0.1",
                "--bodies", "2", "--m0", str(m0))
        ops.append(Op(f"ring-sweep-m0-{m0}", argv, _status_gate(target)))
    ops.append(Op("ring-orbit-n64",
                  ("nbody", "orbit", "--bodies", "64", "--method", "newton",
                   "--inner-solver", "minres", "--perturb", "generator", "--eps", "0.5"),
                  _solve_gate(1e-7, orbit_tol=1e-6)))
    ops.append(Op("ring-spectrum-n64", ("nbody", "spectrum", "--bodies", "64"),
                  _nbody_spectrum_gate))
    ops.append(Op("ring-spectrum-stabilized", ("nbody", "spectrum", "--map", "stabilized"),
                  _nbody_spectrum_gate))
    return ops


def _wave_newton_ops(v: dict) -> List[Op]:
    return [
        Op("shift-table-n512",
           ("bs", "shift-table", "--grid-n", "512", "--eps", "0.1,0.05,0.01,0.005",
            "--tol", "1e-11"),
           _shift_table_gate),
        Op("shift-table-n1024",
           ("bs", "shift-table", "--grid-n", "1024", "--eps", _num(v["eps_n1024"]),
            "--tol", "1e-11"),
           _shift_table_gate),
        Op("recenter-gauss-n512",
           ("bs", "solve", "--grid-n", "512", "--perturb", "gauss", "--tol", "1e-12",
            "--eps", _num(v["eps_gauss"]), "--x0", _num(v["x0_gauss"])),
           _solve_gate(1e-12)),
        Op("unknown-speed-n512",
           ("bs", "solve", "--grid-n", "512", "--cs", _num(v["cs"]),
            "--inner-maxit", "2500", "--tol", "1e-11",
            "--max-outer", str(UNKNOWN_SPEED_MAX_OUTER)),
           _solve_gate(1e-11)),
    ]


def _wave_validate_ops(v: dict) -> List[Op]:
    return [
        Op("propagate-n512-t100",
           ("bs", "propagate", "--grid-n", "512", "--t-end", "100",
            "--theta2", _num(v["theta2"])),
           _propagate_gate),
        Op("spectrum-n1024", ("bs", "spectrum", "--grid-n", "1024"), _bs_spectrum_gate),
    ]


WORKLOADS = {
    "ring": Workload(
        name="ring",
        why="ring relative equilibria: O(n^2) Python loops in nbody.grad_U/hess_U dominate; "
            "no FFTs, little Krylov work",
        dims=tuple(d for n in RING_SIZES
                   for d in ((f"eps_n{n}", 0.01, 0.05), (f"m0_n{n}", 5.0, 20.0))),
        build=_ring_ops,
        ops_doc="nbody solve --method newton --inner-solver minres --perturb ones --tol 1e-10 "
                "at --bodies 16/32/64/128 (drawn --eps, --m0); criterion-3 Petviashvili sweep "
                "at 2 bodies, m0 in {10,5,4,1,0}; nbody orbit --bodies 64 (newton/minres, "
                "generator seed, eps 0.5); nbody spectrum --bodies 64; nbody spectrum "
                "--map stabilized",
        pass_s=3.5,
    ),
    "wave-newton": Workload(
        name="wave-newton",
        why="solitary waves by Newton-Krylov: the Fourier Jacobian matvec inside MINRES "
            "dominates; PCG breaks down and falls back on every step",
        dims=(("eps_n1024", 0.005, 0.1), ("eps_gauss", 0.01, 0.1),
              ("x0_gauss", -2.0, 2.0), ("cs", 1.15, 1.3)),
        build=_wave_newton_ops,
        ops_doc="criterion 9: bs shift-table --grid-n 512 --eps 0.1,0.05,0.01,0.005 "
                "--tol 1e-11, and at --grid-n 1024 with one drawn eps; criterion 8: bs solve "
                "--grid-n 512 --perturb gauss --tol 1e-12 (drawn --eps, --x0); criterion 10: "
                "bs solve --grid-n 512 --cs <drawn> --inner-maxit 2500 --tol 1e-11 "
                "--max-outer 15",
        pass_s=12.5,
    ),
    "wave-validate": Workload(
        name="wave-validate",
        why="validating a wave: long RK4 propagation (20 FFTs a step) plus a materialized "
            "dense Jacobian spectrum; no Krylov or outer iteration",
        dims=(("theta2", 0.84, 0.92),),
        build=_wave_validate_ops,
        ops_doc="criterion 11: bs propagate --grid-n 512 --t-end 100 (dt 0.01, 10,000 RK4 "
                "steps) with drawn --theta2; criterion 7: bs spectrum --grid-n 1024",
        pass_s=6.1,
    ),
}


def draws(workload: Workload, seed: int, pass_index: int, passes: int) -> dict:
    """Seed-drawn values for pass `pass_index` of `passes` (see the module docstring)."""
    rng = random.Random(f"orbitfix-bench/{workload.name}/{seed}/{passes}")
    values = {}
    for name, low, high in workload.dims:
        strata = list(range(passes))
        rng.shuffle(strata)
        offsets = [rng.random() for _ in range(passes)]
        u = (strata[pass_index] + offsets[pass_index]) / passes
        values[name] = low + u * (high - low)
    return values


def pass_ops(workload: Workload, seed: int, pass_index: int, passes: int) -> List[Op]:
    return workload.build(draws(workload, seed, pass_index, passes))


def argv_list(ops: Sequence[Op]) -> List[List[str]]:
    return [list(op.argv) for op in ops]
