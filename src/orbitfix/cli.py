"""Command-line front end.

Grammar: orbitfix nbody {solve|orbit|spectrum} or
orbitfix bs {solve|orbit|spectrum|shift-table|propagate}, long-form flags
only. Every command writes its artifacts into --out (default ./out) and
returns what it found; main alone writes summary.json, conforming to
SUMMARY_SCHEMA, from that. A non-finite number is written as null.
wall_time_s runs from after parsing to just before summary.json is
written. Exit codes: 0 converged/success, 1 usage or configuration
error, 2 iteration limit, 3 divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import boussinesq as bq
from . import nbody as nb
from .numlin import dense_eigenvalues, fourier_apply, fourier_symbols
from .solvers import (CONVERGED_REFERENCE, CONVERGED_RESIDUAL, DIVERGED, MAX_ITERATIONS,
                      SolverConfig, fixed_point_solve, iteration_matrix_spectrum,
                      newton_solve, petviashvili_solve)
from .symmetry import align_to_orbit, kernel_check, predict_limit

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
        "status": {"enum": [CONVERGED_RESIDUAL, CONVERGED_REFERENCE,
                            MAX_ITERATIONS, DIVERGED, None]},
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


@functools.lru_cache(maxsize=64)
def _row_format(kinds) -> str:
    # a string cell as it is, None as an empty cell ("%.0s" prints nothing),
    # anything else as a float to 17 significant digits
    return ",".join("%s" if issubclass(kind, str) else "%.0s" if kind is type(None) else "%.17g"
                    for kind in kinds)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    path.write_text("\n".join(lines) + "\n")


def _write_trace(out: Path, trace):
    _write_csv(out / "trace.csv", trace.COLUMNS,
               ((str(n), *cells) for n, *cells in trace.rows()))


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
    path.write_text(text + "\n")


def _orbit_json(report):
    if report is None:
        return None
    return {
        "alpha_star": float(report.alpha_star),
        "orbital_distance": float(report.orbital_distance),
        "raw_distance": float(report.raw_distance),
    }


def _solver_config(args, anderson) -> SolverConfig:
    return SolverConfig(
        tol_residual=args.tol,
        max_outer=args.max_outer,
        inner_tol=args.inner_tol,
        inner_maxit=args.inner_maxit,
        divergence_cap=args.cap,
        anderson=anderson,
    )


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
    p.add_argument("--cap", type=float, default=1e8)


def _add_common_flags(p):
    p.add_argument("--out", default="./out")


def _add_perturb_flags(p, kinds):
    p.add_argument("--perturb", choices=("none",) + kinds, default="none")
    p.add_argument("--eps", type=float, default=0.0)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


# ---------------- nbody commands ----------------

def _nbody_seed(args, qstar):
    if args.perturb == "none":
        return qstar.copy()
    if args.perturb == "ones":
        return qstar + args.eps * np.ones_like(qstar)
    if args.perturb == "generator":
        return qstar + args.eps * nb.rotation_action().generators(qstar)[0]
    raise _UsageError(f"perturbation kind {args.perturb!r} is not defined for nbody")


def _write_bodies(out: Path, q):
    pos = q.reshape(-1, 2)
    _write_csv(out / "bodies.csv", ("body", "x", "y"),
               ((str(j + 1), x, y) for j, (x, y) in enumerate(pos.tolist())))


def cmd_nbody_solve(args, out: Path) -> dict:
    """nbody solve and nbody orbit; orbit adds the predicted limit and kernel residual."""
    cfg = nb.NBodyConfig(n=args.bodies, m0=args.m0)
    problem = nb.build_nbody(cfg)
    qstar = nb.polygon_solution(args.bodies)
    action = nb.rotation_action()
    config = _solver_config(args, args.anderson)
    q0 = _nbody_seed(args, qstar)
    if args.method == "petviashvili":
        outcome = petviashvili_solve(problem, q0, config, reference=qstar)
    elif args.method == "fixed-point":
        outcome = fixed_point_solve(problem, q0, config, reference=qstar)
    else:
        # MINRES preconditioned by |J|^{-1} at the polygon rotated onto the seed, each
        # step deflated off the rotation generator, as _bs_solve does for waves
        outcome = newton_solve(problem, q0, config, reference=qstar,
                               precond=nb.precond_operator(cfg, action.align(q0, qstar)),
                               generators=action.generators)
    _write_trace(out, outcome.trace)
    _write_bodies(out, outcome.x if _finite(outcome.x) else qstar)
    orbit = None
    extras = {"omega": cfg.omega, "inner_iterations": outcome.inner_iterations,
              "method": args.method,
              "anderson": None if args.method == "newton" else config.anderson}
    if _finite(outcome.x):
        orbit = align_to_orbit(outcome.x, qstar, action)
        if args.command == "orbit":
            extras["alpha_predicted"] = float(predict_limit(q0, qstar, action)[0])
            extras["kernel_residual"] = kernel_check(problem, qstar, action)
    return {"status": outcome.status, "final_residual": outcome.trace.residuals[-1],
            "iterations": outcome.iterations, "orbit": orbit, "extras": extras}


def cmd_nbody_spectrum(args, out: Path) -> dict:
    problem = nb.build_nbody(nb.NBodyConfig(n=args.bodies, m0=args.m0))
    qstar = nb.polygon_solution(args.bodies)
    report = iteration_matrix_spectrum(problem, qstar, stabilized=args.map == "stabilized")
    return {"extras": _write_spectrum(out, report)}


# ---------------- bs commands ----------------

def _bs_profile(args):
    """(closed-form profile, BSParams at --cs or else at the profile's own speed)."""
    profile = bq.exact_profile(args.theta2, args.grid_n, args.half_length)
    speed = args.cs if args.cs is not None else profile.speed
    return profile, bq.BSParams(theta2=args.theta2, speed=speed, n=args.grid_n,
                                half_length=args.half_length)


def _bs_reference(args, profile):
    # the closed-form profile solves the system only at its own speed
    if args.cs is not None and abs(args.cs - profile.speed) > 1e-12:
        return None
    return profile.wave


def _bs_seed(profile, params, kind, eps, x0):
    w = profile.wave
    n = params.n
    x = bq.grid(n, params.half_length)
    if kind == "none":
        return w
    if kind == "gauss":
        bump = eps * np.exp(-(x - x0) ** 2)
        return w + np.concatenate([bump, bump])
    if kind == "gauss-derivative":
        bump = eps * (x - x0) * np.exp(-(x - x0) ** 2)
        return w + np.concatenate([bump, bump])
    if kind == "generator-discrete":
        return w + eps * fourier_apply(fourier_symbols(n, params.half_length)[1], w)
    raise _UsageError(f"perturbation kind {kind!r} is not defined for bs")


# Anderson window of the bs Petviashvili path
BS_ANDERSON = 5


def _bs_solve(args, profile, params, problem, w0, perturbed):
    """Solve for the wave from w0; return (outcome, extras naming the method).

    An explicit --method wins. Otherwise the unperturbed closed-form wave
    seeding a solve at another speed runs Petviashvili; perturbed seeds
    (perturbed=True) and seeds at the closed-form speed run Newton, whose
    limit is the orbit element the shift diagnostics measure.
    outcome.f_norm is |F| at the returned wave.
    """
    reference = _bs_reference(args, profile)
    method = args.method
    if method is None:
        method = "petviashvili" if not perturbed and reference is None else "newton"
    if method == "petviashvili":
        outcome = petviashvili_solve(problem, w0, _solver_config(args, BS_ANDERSON),
                                     reference=reference, tol_on_F=True)
        return outcome, {"method": method, "anderson": BS_ANDERSON}
    # MINRES preconditioned by |S|^{-1}, each step deflated off the translation generator;
    # the operator, not its apply, so that MINRES fuses it with the Jacobian
    outcome = newton_solve(problem, w0, _solver_config(args, 0), reference=reference,
                           precond=bq.precond_operator(params),
                           generators=bq.translation_action(params).generators)
    return outcome, {"method": method, "anderson": None}


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


def cmd_bs_solve(args, out: Path) -> dict:
    profile, params = _bs_profile(args)
    w0 = _bs_seed(profile, params, args.perturb, args.eps, args.x0)
    outcome, ran = _bs_solve(args, profile, params, bq.build_bs_problem(params), w0,
                             perturbed=args.perturb != "none")
    _write_trace(out, outcome.trace)
    _write_profile(out, outcome.x if _finite(outcome.x) else profile.wave, params)
    orbit = None
    extras = {"inner_iterations": outcome.inner_iterations, **ran}
    reference = _bs_reference(args, profile)
    if _finite(outcome.x):
        extras.update(_centers(outcome.x, params))
        if reference is not None:
            orbit = align_to_orbit(outcome.x, reference, bq.translation_action(params))
    return {"status": outcome.status, "final_residual": outcome.f_norm,
            "iterations": outcome.iterations, "orbit": orbit, "extras": extras}


def cmd_bs_spectrum(args, out: Path) -> dict:
    profile, params = _bs_profile(args)
    report = dense_eigenvalues(bq.reflection_blocks(params, profile.wave))
    extras = _write_spectrum(out, report)
    extras["blocks"] = {name: {"dim": dim, "count_near_zero": zeros} for name, dim, zeros
                        in zip(("even", "odd"), report.block_dims, report.block_near_zero)}
    return {"extras": extras}


def cmd_bs_shift_table(args, out: Path) -> dict:
    profile, params = _bs_profile(args)
    problem = bq.build_bs_problem(params)
    eps_values = _floats(args.eps, "--eps")
    rows = []
    for eps in eps_values:
        # derivative-direction seeds are perturbed
        w0 = _bs_seed(profile, params, "generator-discrete", eps, 0.0)
        outcome, ran = _bs_solve(args, profile, params, problem, w0, perturbed=True)
        row = {"eps": eps, "status": outcome.status,
               "final_residual": float(outcome.f_norm),
               "x_u": None, "x_eta": None}
        if _finite(outcome.x):
            row.update(_centers(outcome.x, params))
        rows.append(row)
    _write_json(out / "shift_table.json", rows)
    return {"extras": {"table": rows, **ran},
            "exit_code": max(_EXIT_CODES[row["status"]] for row in rows)}


def cmd_bs_propagate(args, out: Path) -> dict:
    snapshot_times = _floats(args.snapshots, "--snapshots") if args.snapshots else None
    # reject bad step options before a --cs solve spends its time
    bq.propagation_schedule(args.dt, args.t_end, snapshot_times)
    profile, params = _bs_profile(args)
    found = {"extras": {"method": None, "anderson": None}}
    w0 = profile.wave
    if _bs_reference(args, profile) is None:
        # no closed form at this speed: compute the travelling wave first
        outcome, ran = _bs_solve(args, profile, params, bq.build_bs_problem(params), w0,
                                 perturbed=False)
        _write_trace(out, outcome.trace)
        found = {"status": outcome.status, "final_residual": outcome.f_norm,
                 "iterations": outcome.iterations, "extras": ran}
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
        aligned = bq.translation_action(params).act(final_center - start_center, w0)
        extras["shape_error"] = float(
            np.linalg.norm(final - aligned) / np.linalg.norm(w0))
    if not result.completed:
        found["exit_code"] = _EXIT_CODES[DIVERGED]
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
        _add_common_flags(p)

    for name in ("solve", "orbit"):
        p = nbody_cmds.add_parser(name)
        nbody_common(p)
        _add_solver_flags(p, ("petviashvili", "fixed-point", "newton"), 1e-7)
        p.add_argument("--anderson", type=int, default=0)
        _add_perturb_flags(p, ("ones", "generator"))
        p.set_defaults(func=cmd_nbody_solve)

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
        _add_common_flags(p)

    def bs_solver(p):
        bs_common(p)
        _add_solver_flags(p, ("newton", "petviashvili"), 1e-12)
        # None: the method follows from the seed (_bs_solve)
        p.set_defaults(method=None)

    for name in ("solve", "orbit"):
        p = bs_cmds.add_parser(name)
        bs_solver(p)
        _add_perturb_flags(p, ("gauss", "gauss-derivative", "generator-discrete"))
        # where the gauss bumps sit; the ring's perturbations have no position
        p.add_argument("--x0", type=float, default=0.0)
        p.set_defaults(func=cmd_bs_solve)

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
    of status, final_residual, iterations, orbit (an OrbitReport) and extras,
    plus exit_code where that differs from _EXIT_CODES[status].
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        found = args.func(args, out)
    except _UsageError as exc:
        print(f"orbitfix: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"orbitfix: invalid configuration: {exc}", file=sys.stderr)
        return 1
    status = found.get("status")
    exit_code = found.get("exit_code", _EXIT_CODES[status])
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
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
