"""Command-line front end.

Grammar: orbitfix {nbody|bs} {solve|spectrum|orbit|shift-table|propagate},
long-form flags only. Every command writes its artifacts plus a
summary.json conforming to SUMMARY_SCHEMA into --out (default ./out).
Exit codes: 0 converged/success, 1 usage or configuration error,
2 iteration limit, 3 divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import boussinesq as bq
from . import nbody as nb
from .numlin import dense_eigenvalues, fourier_apply, fourier_symbols
from .solvers import (CONVERGED_REFERENCE, CONVERGED_RESIDUAL, DIVERGED, MAX_ITERATIONS,
                      SolverConfig, fixed_point_solve, iteration_matrix_spectrum,
                      newton_solve, petviashvili_map, petviashvili_solve)
from .symmetry import align_to_orbit, predict_limit

__all__ = ["main", "SUMMARY_SCHEMA"]

_EXIT_CODES = {
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


def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.17g" % float(value)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")


def _write_trace(out: Path, trace):
    _write_csv(out / "trace.csv",
               ("n", "residual", "ref_error", "stab_factor", "step_norm"),
               ((str(n), r, e, s, d) for n, r, e, s, d in trace.rows()))


def _write_spectrum(out: Path, report):
    _write_csv(out / "spectrum.csv", ("index", "re", "im"),
               ((str(i), ev.real, ev.imag) for i, ev in enumerate(report.eigenvalues)))


def _orbit_json(report):
    if report is None:
        return None
    return {
        "alpha_star": float(report.alpha_star),
        "orbital_distance": float(report.orbital_distance),
        "raw_distance": float(report.raw_distance),
    }


def _write_summary(out: Path, command, config, status=None, final_residual=None,
                   iterations=None, orbit=None, extras=None, wall_time=0.0,
                   exit_code=0):
    if final_residual is not None:
        final_residual = float(final_residual)
        if not np.isfinite(final_residual):
            final_residual = None
    doc = {
        "command": command,
        "status": status,
        "final_residual": final_residual,
        "iterations": iterations,
        "orbit": _orbit_json(orbit),
        "wall_time_s": float(wall_time),
        "exit_code": int(exit_code),
        "config": config,
        "extras": extras or {},
    }
    (out / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return exit_code


def _solver_config(args, anderson) -> SolverConfig:
    return SolverConfig(
        tol_residual=args.tol,
        max_outer=args.max_outer,
        inner_solver=args.inner_solver,
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


def _add_solver_flags(p, methods, inner_solvers, default_tol):
    # the first method and inner solver are the defaults; offer only what the problem runs
    p.add_argument("--method", choices=methods, default=methods[0])
    p.add_argument("--tol", type=float, default=default_tol)
    p.add_argument("--max-outer", type=int, default=1000, dest="max_outer")
    p.add_argument("--inner-solver", choices=inner_solvers, default=inner_solvers[0],
                   dest="inner_solver")
    p.add_argument("--inner-tol", type=float, default=1e-10, dest="inner_tol")
    p.add_argument("--inner-maxit", type=int, default=500, dest="inner_maxit")
    p.add_argument("--cap", type=float, default=1e8)


def _add_common_flags(p):
    p.add_argument("--out", default="./out")


def _add_perturb_flags(p, kinds):
    p.add_argument("--perturb", choices=("none",) + kinds, default="none")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--x0", type=float, default=0.0)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
               ((str(j + 1), pos[j, 0], pos[j, 1]) for j in range(pos.shape[0])))


def cmd_nbody_solve(args):
    """nbody solve and nbody orbit; orbit adds the predicted limit and kernel residual."""
    t0 = time.perf_counter()
    out = _outdir(args)
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
        # each step deflated off the rotation generator, as _bs_solve does for waves
        outcome = newton_solve(problem, q0, config, reference=qstar,
                               generators=action.generators)
    _write_trace(out, outcome.trace)
    _write_bodies(out, outcome.x if _finite(outcome.x) else qstar)
    orbit = None
    extras = {"omega": cfg.omega, "inner_iterations": outcome.inner_iterations,
              "pcg_fallbacks": outcome.pcg_fallbacks, "method": args.method,
              "anderson": None if args.method == "newton" else config.anderson}
    if _finite(outcome.x):
        orbit = align_to_orbit(outcome.x, qstar, action)
        if args.command == "orbit":
            extras["alpha_predicted"] = float(predict_limit(q0, qstar, action)[0])
            generator = action.generators(qstar)[0]
            extras["kernel_residual"] = float(
                np.linalg.norm(problem.jacobian_at(qstar).apply(generator))
                / np.linalg.norm(generator))
    code = _EXIT_CODES[outcome.status]
    return _write_summary(out, "nbody " + args.command, _config_echo(args),
                          status=outcome.status, final_residual=outcome.trace.residuals[-1],
                          iterations=outcome.iterations, orbit=orbit, extras=extras,
                          wall_time=time.perf_counter() - t0, exit_code=code)


def cmd_nbody_spectrum(args):
    t0 = time.perf_counter()
    out = _outdir(args)
    cfg = nb.NBodyConfig(n=args.bodies, m0=args.m0)
    problem = nb.build_nbody(cfg)
    qstar = nb.polygon_solution(args.bodies)
    if args.map == "plain":
        def g_jacobian(q):
            return -nb.hess_U(cfg, q) / (cfg.omega ** 2 * cfg.mass_diagonal[:, None])
        report = iteration_matrix_spectrum(problem.G, qstar, jacobian=g_jacobian)
    else:
        report = iteration_matrix_spectrum(petviashvili_map(problem), qstar)
    _write_spectrum(out, report)
    extras = {
        "count_near_unit": report.count_near_unit,
        "count_near_zero": report.count_near_zero,
        "dominant_modulus": report.dominant_modulus,
    }
    return _write_summary(out, "nbody " + args.command, _config_echo(args),
                          extras=extras, wall_time=time.perf_counter() - t0)


# ---------------- bs commands ----------------

def _bs_profile(args):
    if not (7.0 / 9.0 < args.theta2 < 1.0):
        raise _UsageError("seeding requires --theta2 in (7/9, 1)")
    return bq.exact_profile(args.theta2, args.grid_n, args.half_length)


def _bs_params(args, profile) -> bq.BSParams:
    speed = args.cs if args.cs is not None else profile.speed
    return bq.BSParams(theta2=args.theta2, speed=speed, n=args.grid_n,
                       half_length=args.half_length)


def _bs_reference(args, profile):
    # the closed-form profile solves the system only at its own speed
    if args.cs is not None and abs(args.cs - profile.speed) > 1e-12:
        return None
    return profile.wave.vector()


def _bs_seed(args, profile):
    w = profile.wave.vector().copy()
    n = args.grid_n
    x = bq.grid(n, args.half_length)
    if args.perturb == "none":
        return w
    if args.perturb == "gauss":
        bump = args.eps * np.exp(-(x - args.x0) ** 2)
        return w + np.concatenate([bump, bump])
    if args.perturb == "gauss-derivative":
        bump = args.eps * (x - args.x0) * np.exp(-(x - args.x0) ** 2)
        return w + np.concatenate([bump, bump])
    if args.perturb == "generator-discrete":
        return w + args.eps * fourier_apply(fourier_symbols(n, args.half_length)[1], w)
    raise _UsageError(f"perturbation kind {args.perturb!r} is not defined for bs")


# Anderson window of the bs Petviashvili path
BS_ANDERSON = 5


def _bs_method(args, profile):
    """The method a bs solve runs, decided from the arguments alone.

    An explicit --method wins. Otherwise the unperturbed closed-form wave
    seeding a solve at another speed runs Petviashvili; perturbed seeds and
    seeds at the closed-form speed run Newton, whose limit is the orbit
    element the shift diagnostics measure.
    """
    if args.method is not None:
        return args.method
    if getattr(args, "perturb", "none") == "none" and _bs_reference(args, profile) is None:
        return "petviashvili"
    return "newton"


def _bs_solve(problem, params, w0, reference, args, method):
    """(outcome, Anderson window or None); outcome.f_norm is |F| at the returned wave."""
    if method == "petviashvili":
        outcome = petviashvili_solve(problem, w0, _solver_config(args, BS_ANDERSON),
                                     reference=reference, tol_on_F=True)
        return outcome, BS_ANDERSON
    # MINRES preconditioned by |S|^{-1}, each step deflated off the translation generator
    outcome = newton_solve(problem, w0, _solver_config(args, 0), reference=reference,
                           precond=bq.precond_operator(params).apply,
                           generators=bq.translation_action(params).generators)
    return outcome, None


def _centers(w, params):
    pair = bq.WavePair.from_vector(w)
    out = {}
    for component in ("u", "eta"):
        try:
            out["x_" + component] = bq.translation_shift(pair, params.half_length,
                                                         component=component)
        except ValueError:
            out["x_" + component] = None
    return out


def _write_profile(out: Path, w, params, name="profile.csv"):
    pair = bq.WavePair.from_vector(w)
    x = bq.grid(params.n, params.half_length)
    _write_csv(out / name, ("x", "eta", "u"),
               ((x[j], pair.eta[j], pair.u[j]) for j in range(params.n)))


def cmd_bs_solve(args):
    t0 = time.perf_counter()
    out = _outdir(args)
    profile = _bs_profile(args)
    params = _bs_params(args, profile)
    problem = bq.build_bs_problem(params)
    reference = _bs_reference(args, profile)
    w0 = _bs_seed(args, profile)
    method = _bs_method(args, profile)
    outcome, window = _bs_solve(problem, params, w0, reference, args, method)
    _write_trace(out, outcome.trace)
    _write_profile(out, outcome.x if _finite(outcome.x) else profile.wave.vector(), params)
    orbit = None
    extras = {"inner_iterations": outcome.inner_iterations, "method": method,
              "anderson": window}
    if _finite(outcome.x):
        extras.update(_centers(outcome.x, params))
        if reference is not None:
            orbit = align_to_orbit(outcome.x, reference, bq.translation_action(params))
    code = _EXIT_CODES[outcome.status]
    return _write_summary(out, "bs " + args.command, _config_echo(args),
                          status=outcome.status, final_residual=outcome.f_norm,
                          iterations=outcome.iterations, orbit=orbit, extras=extras,
                          wall_time=time.perf_counter() - t0, exit_code=code)


def cmd_bs_spectrum(args):
    t0 = time.perf_counter()
    out = _outdir(args)
    profile = _bs_profile(args)
    params = _bs_params(args, profile)
    report = dense_eigenvalues(bq.reflection_blocks(params, profile.wave.vector()))
    _write_spectrum(out, report)
    extras = {
        "count_near_unit": report.count_near_unit,
        "count_near_zero": report.count_near_zero,
        "dominant_modulus": report.dominant_modulus,
        "blocks": {name: {"dim": dim, "count_near_zero": zeros} for name, dim, zeros
                   in zip(("even", "odd"), report.block_dims, report.block_near_zero)},
    }
    return _write_summary(out, "bs " + args.command, _config_echo(args),
                          extras=extras, wall_time=time.perf_counter() - t0)


def cmd_bs_shift_table(args):
    t0 = time.perf_counter()
    out = _outdir(args)
    profile = _bs_profile(args)
    params = _bs_params(args, profile)
    problem = bq.build_bs_problem(params)
    reference = _bs_reference(args, profile)
    try:
        eps_values = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"--eps expects a comma-separated float list: {exc}")
    if not eps_values:
        raise _UsageError("--eps expects at least one value")
    # derivative-direction seeds are perturbed: Newton unless --method says otherwise
    method = args.method or "newton"
    rows = []
    worst = 0
    for eps in eps_values:
        sub = argparse.Namespace(**vars(args))
        sub.perturb = "generator-discrete"
        sub.eps = eps
        sub.x0 = 0.0
        w0 = _bs_seed(sub, profile)
        outcome, window = _bs_solve(problem, params, w0, reference, args, method)
        row = {"eps": eps, "status": outcome.status,
               "final_residual": float(outcome.f_norm),
               "x_u": None, "x_eta": None}
        if _finite(outcome.x):
            row.update(_centers(outcome.x, params))
        rows.append(row)
        worst = max(worst, _EXIT_CODES[outcome.status])
    (out / "shift_table.json").write_text(json.dumps(rows, indent=2) + "\n")
    return _write_summary(out, "bs " + args.command, _config_echo(args),
                          extras={"table": rows, "method": method, "anderson": window},
                          wall_time=time.perf_counter() - t0, exit_code=worst)


def cmd_bs_propagate(args):
    t0 = time.perf_counter()
    out = _outdir(args)
    profile = _bs_profile(args)
    params = _bs_params(args, profile)
    status = None
    iterations = None
    final_residual = None
    extras = {"method": None, "anderson": None}
    if args.cs is not None and abs(args.cs - profile.speed) > 1e-12:
        # no closed form at this speed: compute the travelling wave first
        problem = bq.build_bs_problem(params)
        method = _bs_method(args, profile)
        outcome, window = _bs_solve(problem, params, profile.wave.vector(), None, args, method)
        extras = {"method": method, "anderson": window}
        status = outcome.status
        iterations = outcome.iterations
        final_residual = outcome.f_norm
        _write_trace(out, outcome.trace)
        if not outcome.converged:
            return _write_summary(out, "bs " + args.command, _config_echo(args),
                                  status=status, final_residual=final_residual,
                                  iterations=iterations, extras=extras,
                                  wall_time=time.perf_counter() - t0,
                                  exit_code=_EXIT_CODES[status])
        w0 = outcome.x
    else:
        w0 = profile.wave.vector()

    snapshot_times = None
    if args.snapshots:
        try:
            snapshot_times = [float(tok) for tok in args.snapshots.split(",") if tok.strip()]
        except ValueError as exc:
            raise _UsageError(f"--snapshots expects a comma-separated float list: {exc}")
    result = bq.propagate(w0, params, args.dt, args.t_end, snapshot_times)

    x = bq.grid(params.n, params.half_length)
    rows = []
    for t, pair in zip(result.times, result.states):
        for j in range(params.n):
            rows.append((t, x[j], pair.eta[j], pair.u[j]))
    _write_csv(out / "snapshots.csv", ("t", "x", "eta", "u"), rows)

    extras.update(completed=result.completed, dt=args.dt, t_end=args.t_end)
    start_center = bq.translation_shift(bq.WavePair.from_vector(w0), params.half_length)
    extras["start_center"] = start_center
    if result.states and result.completed:
        final_pair = result.states[-1]
        final_center = bq.translation_shift(final_pair, params.half_length)
        span = 2.0 * params.half_length
        expected = (start_center + params.speed * result.times[-1] + params.half_length) % span \
            - params.half_length
        diff = (final_center - expected + params.half_length) % span - params.half_length
        extras["final_center"] = final_center
        extras["expected_center"] = expected
        extras["center_error"] = abs(diff)
        aligned = bq.translation_action(params).act(final_center - start_center, w0)
        extras["shape_error"] = float(
            np.linalg.norm(final_pair.vector() - aligned) / np.linalg.norm(w0))
    code = _EXIT_CODES[status] if status is not None else 0
    if not result.completed:
        code = _EXIT_CODES[DIVERGED]
    return _write_summary(out, "bs " + args.command, _config_echo(args),
                          status=status, final_residual=final_residual,
                          iterations=iterations, extras=extras,
                          wall_time=time.perf_counter() - t0, exit_code=code)


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
        _add_solver_flags(p, ("petviashvili", "fixed-point", "newton"), ("minres", "pcg"), 1e-7)
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
        _add_solver_flags(p, ("newton", "petviashvili"), ("minres",), 1e-12)
        # None: the method follows from the seed (_bs_method)
        p.set_defaults(method=None)

    for name in ("solve", "orbit"):
        p = bs_cmds.add_parser(name)
        bs_solver(p)
        _add_perturb_flags(p, ("gauss", "gauss-derivative", "generator-discrete"))
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
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--snapshots", default=None)
    p.set_defaults(func=cmd_bs_propagate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"orbitfix: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"orbitfix: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
