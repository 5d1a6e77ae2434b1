"""Command-line front end.

Grammar: orbitfix nbody {solve|orbit|spectrum} or
orbitfix bs {solve|orbit|spectrum|shift-table|propagate}, long-form flags
only. Every command writes its artifacts into --out (default ./out) and
returns what it found; main alone writes summary.json, conforming to
SUMMARY_SCHEMA, from that. A non-finite number is written as null.
solve and orbit are one command for both problems (cmd_solve), over a
per-problem record (_Problem) built from the arguments.
wall_time_s runs from after parsing to just before summary.json is
written. Exit codes: 0 converged/success, 1 usage or configuration error,
2 iteration limit, 3 divergence, colliding ring bodies included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import boussinesq as bq
from . import nbody as nb
from .numlin import dense_eigenvalues, reflection_blocks
from .solvers import (CONVERGED_REFERENCE, CONVERGED_RESIDUAL, DIVERGED, MAX_ITERATIONS,
                      STATUSES, ProblemSpec, SolverConfig, TraceRow, fixed_point_solve,
                      iteration_matrix_spectrum, newton_solve, petviashvili_solve)
from .symmetry import GroupAction, align_to_orbit, kernel_check, predict_limit

__all__ = ["main", "SUMMARY_SCHEMA"]

_EXIT_CODES = {
    None: 0,  # a command that runs no iteration
    CONVERGED_RESIDUAL: 0,
    CONVERGED_REFERENCE: 0,
    MAX_ITERATIONS: 2,
    DIVERGED: 3,
}

SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "status", "final_residual", "iterations",
                 "orbit", "wall_time_s", "exit_code", "config", "extras"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "status": {"enum": [*STATUSES, None]},
        "final_residual": {"type": ["number", "null"]},
        "iterations": {"type": ["integer", "null"]},
        "orbit": {
            "type": ["object", "null"],
            "required": ["alpha_star", "orbital_distance", "raw_distance"],
            "additionalProperties": False,
            "properties": {
                "alpha_star": {"type": "number"},
                "orbital_distance": {"type": "number"},
                "raw_distance": {"type": "number"},
            },
        },
        "wall_time_s": {"type": "number"},
        "exit_code": {"type": "integer"},
        "config": {"type": "object"},
        "extras": {"type": "object"},
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_csv(path: Path, header, rows):
    """Write a header and rows of tuples; the cells of a row pick its format by their types.

    A string cell is written as it is, None as an empty cell ("%.0s"
    prints nothing), anything else as a float to 17 significant digits.
    """
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                "%s" if issubclass(kind, str) else "%.0s" if kind is type(None) else "%.17g"
                for kind in kinds)
        lines.append(fmt % row)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_trace(out: Path, trace):
    _write_csv(out / "trace.csv", TraceRow._fields, ((str(n), *cells) for n, *cells in trace))


def _write_spectrum(out: Path, report) -> dict:
    """Write spectrum.csv and return the summary's extras for the spectrum."""
    _write_csv(out / "spectrum.csv", ("index", "re", "im"),
               ((str(i), ev.real, ev.imag) for i, ev in enumerate(report.eigenvalues.tolist())))
    return {
        "count_near_unit": report.count_near_unit,
        "count_near_zero": report.count_near_zero,
        "dominant_modulus": report.dominant_modulus,
    }


def _json_safe(value):
    # JSON has no NaN or Infinity: a non-finite float is written as null
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, doc, sort_keys=False):
    text = json.dumps(_json_safe(doc), indent=2, sort_keys=sort_keys, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _orbit_json(report):
    if report is None:
        return None
    return {
        "alpha_star": float(report.alpha_star),
        "orbital_distance": float(report.orbital_distance),
        "raw_distance": float(report.raw_distance),
    }


def _config_echo(args) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value if isinstance(value, (int, float, str, bool, type(None))) else str(value)
    return out


def _floats(text, flag):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects a comma-separated float list: {exc}")
    if not values or not all(map(math.isfinite, values)):
        raise _UsageError(f"{flag} expects one or more finite values")
    return values


def _finite_float(text):
    # an argparse type: nan and inf are usage errors, as in _floats
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite value, got {text!r}")
    return value


def _add_solver_flags(p, methods, default_tol):
    # the first method is the default; offer only what the problem runs
    p.add_argument("--method", choices=methods, default=methods[0])
    p.add_argument("--tol", type=float, default=default_tol)
    p.add_argument("--max-outer", type=int, default=1000, dest="max_outer")
    # Newton's one linear solve; the flag stays so that scripts passing it keep working
    p.add_argument("--inner-solver", choices=("minres",), default="minres", dest="inner_solver")
    p.add_argument("--inner-tol", type=float, default=1e-10, dest="inner_tol",
                   help="relative tolerance of each Newton inner solve; on a quotient "
                        "(deflated) solve, the floor of its Eisenstat-Walker forcing term")
    p.add_argument("--inner-maxit", type=int, default=500, dest="inner_maxit")


def _add_perturb_flags(p, kinds):
    p.add_argument("--perturb", choices=("none",) + kinds, default="none")
    p.add_argument("--eps", type=_finite_float, default=0.0)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


# ---------------- one solve path over a per-problem record ----------------

@dataclass(frozen=True)
class _Problem:
    """What a solve needs of one problem; _nbody_problem and _bs_problem build it from args."""

    params: object  # NBodyConfig or BSParams
    spec: ProblemSpec
    action: GroupAction
    reference: Optional[np.ndarray]  # the solution runs are measured against, or None
    seed: Callable  # (perturbation kind, eps) -> seed; ("none", 0.0) is the unperturbed one
    precond: Callable  # seed -> Newton's preconditioner
    anderson: int  # the window of the fixed-point methods' Anderson mixing
    on_F: bool  # fixed-point runs classify and report on |F|, not on the gap
    write: Callable  # (out, state): bodies.csv or profile.csv
    extras: Callable  # (seed, state) -> the extras only this problem reports


def _solve(args, p: _Problem, x0, perturbed):
    """Solve from x0; return (outcome, what a command returns of it).

    An explicit --method wins; only bs leaves it None. Then an unperturbed
    seed with no reference (the closed-form wave at another speed) runs
    Petviashvili; perturbed seeds (perturbed=True) and seeds at the
    closed-form speed run Newton, whose limit is the orbit element the shift
    diagnostics measure. final_residual is outcome.f_norm, |F| at the
    returned state, when p.on_F, and else the trace's last residual. The
    extras carry the solver's message, why it stopped, when it gave one.
    """
    method = args.method or ("petviashvili" if not perturbed and p.reference is None
                             else "newton")
    config = SolverConfig(tol_residual=args.tol, max_outer=args.max_outer,
                          inner_tol=args.inner_tol, inner_maxit=args.inner_maxit,
                          anderson=p.anderson)
    if method == "newton":
        # MINRES preconditioned by p.precond, each step deflated off the group's generators
        outcome = newton_solve(p.spec, x0, config, reference=p.reference,
                               precond=p.precond(x0), generators=p.action.generators)
    elif method == "petviashvili":
        outcome = petviashvili_solve(p.spec, x0, config, reference=p.reference,
                                     tol_on_F=p.on_F)
    else:
        outcome = fixed_point_solve(p.spec, x0, config, reference=p.reference)
    extras = {"method": method, "anderson": None if method == "newton" else p.anderson}
    if outcome.message:
        extras["message"] = outcome.message
    return outcome, {
        "status": outcome.status, "iterations": outcome.iterations,
        "final_residual": outcome.f_norm if p.on_F else outcome.trace[-1].residual,
        "extras": extras}


def cmd_solve(args, out: Path) -> dict:
    """solve and orbit, for either problem."""
    p = (_nbody_problem if args.problem == "nbody" else _bs_problem)(args)
    x0 = p.seed(args.perturb, args.eps)
    outcome, found = _solve(args, p, x0, perturbed=args.perturb != "none")
    _write_trace(out, outcome.trace)
    finite = _finite(outcome.x)
    p.write(out, outcome.x if finite else p.seed("none", 0.0))
    found["orbit"] = (align_to_orbit(outcome.x, p.reference, p.action)
                      if finite and p.reference is not None else None)
    found["extras"].update(inner_iterations=outcome.inner_iterations,
                           **p.extras(x0, outcome.x))
    return found


# ---------------- nbody ----------------

def _write_bodies(out: Path, q):
    pos = q.reshape(-1, 2)
    _write_csv(out / "bodies.csv", ("body", "x", "y"),
               ((str(j + 1), x, y) for j, (x, y) in enumerate(pos.tolist())))


def _nbody_problem(args) -> _Problem:
    cfg = nb.NBodyConfig(n=args.bodies, m0=args.m0)
    problem = nb.build_nbody(cfg)
    qstar = nb.polygon_solution(args.bodies)
    action = nb.rotation_action()

    def seed(kind, eps):
        if kind == "none":
            return qstar
        return qstar + eps * (np.ones_like(qstar) if kind == "ones"
                              else action.generators(qstar)[0])

    def extras(q0, q):
        # omega even when the solve diverged; orbit adds the predicted limit
        out = {"omega": cfg.omega}
        if args.command == "orbit" and _finite(q):
            out["alpha_predicted"] = float(predict_limit(q0, qstar, action)[0])
            out["kernel_residual"] = kernel_check(problem, qstar, action)
        return out

    # Newton's preconditioner is |J|^{-1} at the polygon rotated onto the seed
    return _Problem(cfg, problem, action, qstar, seed,
                    lambda q0: nb.precond_operator(cfg, action.align(q0, qstar)),
                    args.anderson, False, _write_bodies, extras)


def cmd_nbody_spectrum(args, out: Path) -> dict:
    problem = nb.build_nbody(nb.NBodyConfig(n=args.bodies, m0=args.m0))
    qstar = nb.polygon_solution(args.bodies)
    report = iteration_matrix_spectrum(problem, qstar, stabilized=args.map == "stabilized")
    return {"extras": _write_spectrum(out, report)}


# ---------------- bs ----------------

def _bs_profile(args):
    """(closed-form profile, BSParams at --cs or else at the profile's own speed)."""
    profile = bq.exact_profile(args.theta2, args.grid_n, args.half_length)
    speed = args.cs if args.cs is not None else profile.speed
    return profile, bq.BSParams(theta2=args.theta2, speed=speed, n=args.grid_n,
                                half_length=args.half_length)


def _closed_form_solves(args, profile) -> bool:
    # the closed-form profile solves the system only at its own speed
    return args.cs is None or abs(args.cs - profile.speed) <= 1e-12


def _centers(w, params):
    out = {}
    for component in ("u", "eta"):
        try:
            out["x_" + component] = bq.translation_shift(w, params.half_length,
                                                         component=component)
        except ValueError:
            out["x_" + component] = None
    return out


def _write_profile(out: Path, w, params):
    u, eta = w.reshape(2, params.n)
    x = bq.grid(params.n, params.half_length)
    _write_csv(out / "profile.csv", ("x", "eta", "u"),
               zip(x.tolist(), eta.tolist(), u.tolist()))


def _bs_problem(args) -> _Problem:
    profile, params = _bs_profile(args)
    w = profile.wave
    action = bq.translation_action(params)
    reference = w if _closed_form_solves(args, profile) else None

    def seed(kind, eps):
        if kind == "none":
            return w
        if kind == "generator-discrete":
            return w - eps * action.generators(w)[0]
        # the gauss kinds, which only solve and orbit offer, bump both fields at --x0
        x = bq.grid(params.n, params.half_length) - args.x0
        bump = (eps * x if kind == "gauss-derivative" else eps) * np.exp(-x ** 2)
        return w + np.concatenate([bump, bump])

    # Newton's preconditioner is |S|^{-1}: the operator, not its apply, so that MINRES
    # fuses it with the Jacobian. It depends on params alone, so the command's first
    # Newton solve builds it and the others share it. Petviashvili mixes over the last
    # 5 steps.
    precond = functools.cache(lambda: bq.precond_operator(params))
    return _Problem(params, bq.build_bs_problem(params), action, reference, seed,
                    lambda w0: precond(), 5, True,
                    lambda out, w: _write_profile(out, w, params),
                    lambda w0, w: _centers(w, params) if _finite(w) else {})


def cmd_bs_spectrum(args, out: Path) -> dict:
    profile, params = _bs_profile(args)
    if not _closed_form_solves(args, profile):
        raise ValueError(f"the spectrum is taken at the closed-form wave, which solves the "
                         f"system only at its own speed {profile.speed!r}, not at --cs {args.cs!r}")
    jacobian = bq.build_bs_problem(params).jacobian_at(profile.wave)
    report = dense_eigenvalues(reflection_blocks(jacobian))
    extras = _write_spectrum(out, report)
    extras["blocks"] = {name: {"dim": dim, "count_near_zero": zeros} for name, dim, zeros
                        in zip(("even", "odd"), report.block_dims, report.block_near_zero)}
    return {"extras": extras}


def cmd_bs_shift_table(args, out: Path) -> dict:
    p = _bs_problem(args)
    rows, solves = [], []
    for eps in _floats(args.eps, "--eps"):
        # derivative-direction seeds are perturbed
        w0 = p.seed("generator-discrete", eps)
        outcome, found = _solve(args, p, w0, perturbed=True)
        solves.append(found)
        row = {"eps": eps, "status": found["status"],
               "final_residual": found["final_residual"], "x_u": None, "x_eta": None}
        row.update(p.extras(w0, outcome.x))
        if outcome.message:
            row["message"] = outcome.message
        rows.append(row)
    _write_json(out / "shift_table.json", rows)
    # the summary's status, iterations and final_residual: the first worst solve's
    worst = max(solves, key=lambda found: _EXIT_CODES[found["status"]])
    extras = worst["extras"]
    return {**worst, "extras": {"table": rows, "method": extras["method"],
                                "anderson": extras["anderson"]}}


def cmd_bs_propagate(args, out: Path) -> dict:
    snapshot_times = _floats(args.snapshots, "--snapshots") if args.snapshots else None
    # reject bad step options before a --cs solve spends its time
    nsteps, _, steps = bq.propagation_schedule(args.dt, args.t_end, snapshot_times)
    if steps[-1] != nsteps:
        # the summary describes the final state, so it is always recorded
        snapshot_times.append(args.t_end)
    p = _bs_problem(args)
    params = p.params
    found = {"extras": {"method": None, "anderson": None}}
    w0 = p.seed("none", 0.0)
    if p.reference is None:
        # no closed form at this speed: compute the travelling wave first
        outcome, found = _solve(args, p, w0, perturbed=False)
        _write_trace(out, outcome.trace)
        if not outcome.converged:
            return found
        w0 = outcome.x

    # the wave is an equilibrium of the frame moving at its speed
    result = bq.propagate(w0, params, args.dt, args.t_end, snapshot_times,
                          frame_speed=params.speed)

    x = bq.grid(params.n, params.half_length).tolist()
    rows = []
    for t, w in zip(result.times, result.states):
        u, eta = w.reshape(2, params.n).tolist()
        rows.extend((t, *cells) for cells in zip(x, eta, u))
    _write_csv(out / "snapshots.csv", ("t", "x", "eta", "u"), rows)

    extras = found["extras"]
    extras.update(completed=result.completed, dt=args.dt, t_end=args.t_end,
                  frame_speed=params.speed, steps=result.steps,
                  etdrk4_steps=result.etdrk4_steps, longest_step=result.longest_step)
    start_center = bq.translation_shift(w0, params.half_length)
    extras["start_center"] = start_center
    if result.states and result.completed:
        final = result.states[-1]
        final_center = bq.translation_shift(final, params.half_length)
        expected = bq.periodic_wrap(start_center + params.speed * result.times[-1],
                                    params.half_length)
        extras["final_center"] = final_center
        extras["expected_center"] = expected
        extras["center_error"] = abs(bq.periodic_wrap(final_center - expected,
                                                      params.half_length))
        aligned = p.action.act(final_center - start_center, w0)
        extras["shape_error"] = float(
            np.linalg.norm(final - aligned) / np.linalg.norm(w0))
    if not result.completed:
        found["status"] = DIVERGED
    return found


# ---------------- parser ----------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # built on the first main call and reused: parse_args leaves the parser unchanged
    parser = _Parser(prog="orbitfix", description=__doc__)
    problems = parser.add_subparsers(dest="problem", required=True)

    nbody = problems.add_parser("nbody", help="ring of gravitating bodies")
    nbody_cmds = nbody.add_subparsers(dest="command", required=True)

    def nbody_common(p):
        p.add_argument("--bodies", type=int, default=2)
        p.add_argument("--m0", type=float, default=10.0)
        p.add_argument("--out", default="./out")

    for name in ("solve", "orbit"):
        p = nbody_cmds.add_parser(name)
        nbody_common(p)
        _add_solver_flags(p, ("petviashvili", "fixed-point", "newton"), 1e-7)
        p.add_argument("--anderson", type=int, default=0)
        _add_perturb_flags(p, ("ones", "generator"))
        p.set_defaults(func=cmd_solve)

    p = nbody_cmds.add_parser("spectrum")
    nbody_common(p)
    p.add_argument("--map", choices=("plain", "stabilized"), default="plain")
    p.set_defaults(func=cmd_nbody_spectrum)

    bs = problems.add_parser("bs", help="two-component long-wave system")
    bs_cmds = bs.add_subparsers(dest="command", required=True)

    def bs_common(p):
        p.add_argument("--theta2", type=float, default=0.9)
        p.add_argument("--cs", type=float, default=None)
        p.add_argument("--grid-n", type=int, default=1024, dest="grid_n")
        p.add_argument("--half-length", type=float, default=50.0, dest="half_length")
        p.add_argument("--out", default="./out")

    def bs_solver(p):
        bs_common(p)
        _add_solver_flags(p, ("newton", "petviashvili"), 1e-12)
        # None: the method follows from the seed (_solve)
        p.set_defaults(method=None)

    for name in ("solve", "orbit"):
        p = bs_cmds.add_parser(name)
        bs_solver(p)
        _add_perturb_flags(p, ("gauss", "gauss-derivative", "generator-discrete"))
        # where the gauss bumps sit; the ring's perturbations have no position
        p.add_argument("--x0", type=_finite_float, default=0.0)
        p.set_defaults(func=cmd_solve)

    p = bs_cmds.add_parser("spectrum")
    bs_common(p)
    p.set_defaults(func=cmd_bs_spectrum)

    p = bs_cmds.add_parser("shift-table")
    bs_solver(p)
    p.add_argument("--eps", default="0.1,0.05,0.01,0.005")
    p.set_defaults(func=cmd_bs_shift_table)

    p = bs_cmds.add_parser("propagate")
    bs_solver(p)
    p.add_argument("--dt", type=float, default=0.05,
                   help="finest step; in the wave's frame steps of 2^j dt run where they "
                        "agree with two half steps to round-off")
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--snapshots", default=None)
    p.set_defaults(func=cmd_bs_propagate)

    return parser


def main(argv=None) -> int:
    """Run one command and write its summary.json; return the exit code.

    A command writes its artifacts into --out and returns what it found: any
    of status, final_residual, iterations, orbit (an OrbitReport) and extras.
    The exit code follows from the status.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        # the writers make --out on their first write, so a refused run leaves none
        out = Path(args.out)
        found = args.func(args, out)
        status = found.get("status")
        exit_code = _EXIT_CODES[status]
        _write_json(out / "summary.json", {
            "command": f"{args.problem} {args.command}",
            "status": status,
            "final_residual": found.get("final_residual"),
            "iterations": found.get("iterations"),
            "orbit": _orbit_json(found.get("orbit")),
            "wall_time_s": time.perf_counter() - t0,
            "exit_code": exit_code,
            "config": _config_echo(args),
            "extras": found.get("extras", {}),
        }, sort_keys=True)
    except _UsageError as exc:
        print(f"orbitfix: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"orbitfix: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # only the writers touch the file system
        print(f"orbitfix: cannot write --out: {exc}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
