import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitfix
from orbitfix import nbody as nb
from orbitfix.cli import SUMMARY_SCHEMA, _build_parser, main
from orbitfix.solvers import SolverConfig, newton_solve

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def _read_summary(out):
    return json.loads((out / "summary.json").read_text())


def _read_trace(out):
    with open(out / "trace.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _validate(summary):
    if jsonschema is not None:
        jsonschema.validate(summary, SUMMARY_SCHEMA)


BS_SMALL = ["--grid-n", "256", "--half-length", "25"]


# ---------------- usage errors ----------------

def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["nbody", "propagate"]) == 1


def test_bad_perturbation_kind_is_usage_error(tmp_path):
    assert main(["nbody", "solve", "--perturb", "gauss",
                 "--out", str(tmp_path)]) == 1


def test_bad_theta2_is_usage_error(tmp_path):
    assert main(["bs", "solve", "--theta2", "0.5", "--out", str(tmp_path)]) == 1


def test_gamma_flag_is_usage_error(tmp_path):
    # the stabilizing exponent follows from the nonlinearity's degree
    assert main(["nbody", "solve", "--gamma", "0.5", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("extra, method, anderson", [
    # the unperturbed closed-form wave seeding another speed
    (["--cs", "1.2"], "petviashvili", 5),
    # a perturbed seed, and the closed-form speed itself
    (["--perturb", "gauss", "--eps", "0.01"], "newton", None),
    ([], "newton", None),
    # an explicit --method wins over the seed
    (["--cs", "1.2", "--method", "newton"], "newton", None),
    (["--perturb", "gauss", "--eps", "0.01", "--method", "petviashvili"], "petviashvili", 5),
    # the derivative-of-Gaussian perturbation keeps the Newton default
    (["--perturb", "gauss-derivative", "--eps", "0.01"], "newton", None),
])
def test_bs_dispatch_follows_the_seed(tmp_path, extra, method, anderson):
    code = main(["bs", "solve", *BS_SMALL, "--tol", "1e-10", *extra, "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert code == 0
    assert summary["extras"]["method"] == method
    assert summary["extras"]["anderson"] == anderson
    if method == "petviashvili":
        assert summary["extras"]["inner_iterations"] == 0
    # the closed-form seed at its own speed is the reference: a stop at iteration 0
    if summary["status"] == "ConvergedResidual":
        assert summary["final_residual"] <= 1e-10
    else:
        assert (summary["status"], summary["iterations"]) == ("ConvergedReference", 0)


def test_bs_rejects_fixed_point_method(tmp_path):
    assert main(["bs", "solve", "--method", "fixed-point", *BS_SMALL,
                 "--out", str(tmp_path)]) == 1


def test_bs_rejects_pcg_inner_solver(tmp_path):
    assert main(["bs", "solve", "--inner-solver", "pcg", *BS_SMALL,
                 "--out", str(tmp_path)]) == 1


# ---------------- the command runner ----------------

@pytest.mark.parametrize("argv", [
    # exit 2: the iteration budget
    ["nbody", "solve", "--m0", "5", "--perturb", "ones", "--eps", "0.1", "--max-outer", "3"],
    ["nbody", "orbit", "--perturb", "generator", "--eps", "1", "--tol", "1e-10"],
    ["nbody", "spectrum"],
    ["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01", "--tol", "1e-8"],
    ["bs", "orbit", *BS_SMALL, "--perturb", "generator-discrete", "--eps", "0.01",
     "--tol", "1e-10"],
    ["bs", "spectrum", *BS_SMALL],
    # exit 2 from the worst row, with no status of its own
    ["bs", "shift-table", *BS_SMALL, "--eps", "0.01", "--max-outer", "1"],
    # exit 3: the RK4 step blows up, with no solve before it
    ["bs", "propagate", *BS_SMALL, "--dt", "2", "--t-end", "40"],
])
def test_every_command_writes_its_summary(tmp_path, argv):
    code = main([*argv, "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["command"] == " ".join(argv[:2])
    assert summary["exit_code"] == code


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("method", ["newton", "petviashvili"])
def test_non_finite_residual_is_written_as_null(tmp_path, method):
    # the seed overflows: |F| is Infinity under Newton and NaN under Petviashvili,
    # neither of which JSON can carry
    code = main(["bs", "shift-table", "--grid-n", "64", "--half-length", "25",
                 "--eps", "1e160", "--max-outer", "20", "--method", method,
                 "--out", str(tmp_path)])

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    table = json.loads((tmp_path / "shift_table.json").read_text(), parse_constant=reject)
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    _validate(summary)
    assert code == summary["exit_code"] == 3
    assert summary["extras"]["table"] == table
    assert table[0]["status"] == "Diverged"
    assert table[0]["final_residual"] is None


# ---------------- nbody ----------------

def test_nbody_solve_success(tmp_path):
    code = main(["nbody", "solve", "--m0", "5", "--perturb", "ones", "--eps", "0.1",
                 "--tol", "1e-10", "--out", str(tmp_path)])
    assert code == 0

    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["final_residual"] <= 1e-10
    assert summary["exit_code"] == 0
    assert summary["orbit"]["orbital_distance"] <= 1e-8

    rows = _read_trace(tmp_path)
    assert len(rows) == summary["iterations"] + 1
    terminal_s = float(rows[-1]["stab_factor"])
    assert abs(1.0 - terminal_s) <= 1e-8

    with open(tmp_path / "bodies.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_nbody_solve_divergent_exit_code(tmp_path):
    code = main(["nbody", "solve", "--m0", "1", "--perturb", "ones", "--eps", "0.1",
                 "--out", str(tmp_path)])
    assert code == 3
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "Diverged"
    assert summary["exit_code"] == 3


def test_nbody_solve_iteration_budget_exit_code(tmp_path):
    code = main(["nbody", "solve", "--m0", "5", "--perturb", "ones", "--eps", "0.1",
                 "--tol", "1e-10", "--max-outer", "3", "--out", str(tmp_path)])
    assert code == 2
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "MaxIterations"
    assert summary["iterations"] == 3


def test_nbody_spectrum_closed_form(tmp_path):
    code = main(["nbody", "spectrum", "--m0", "10", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    vals = sorted(float(r["re"]) for r in rows)
    assert np.allclose(vals, sorted([-2.0, 1.0, -8.0 / 14.0, 4.0 / 14.0]), atol=1e-9)
    assert all(abs(float(r["im"])) < 1e-10 for r in rows)

    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["extras"]["count_near_unit"] == 1
    assert abs(summary["extras"]["dominant_modulus"] - 2.0) < 1e-9


def test_nbody_spectrum_stabilized_filters_dominant(tmp_path):
    code = main(["nbody", "spectrum", "--m0", "10", "--map", "stabilized",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    assert summary["extras"]["dominant_modulus"] < 1.0 + 1e-6


def test_nbody_orbit_generator_seed(tmp_path):
    code = main(["nbody", "orbit", "--m0", "10", "--perturb", "generator",
                 "--eps", "1", "--tol", "1e-10", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    orbit = summary["orbit"]
    assert orbit["orbital_distance"] <= 1e-6
    assert orbit["raw_distance"] > 1e-2
    assert abs(summary["extras"]["alpha_predicted"] - 1.0) < 1e-10
    assert summary["extras"]["kernel_residual"] <= 1e-6


@pytest.mark.parametrize("m0", [4, 1, 0])
@pytest.mark.parametrize("method", ["petviashvili", "fixed-point"])
def test_nbody_anderson_converges_where_criterion_3_diverges(tmp_path, method, m0):
    # criterion 3's seed, on which both unaccelerated maps diverge at these masses
    code = main(["nbody", "solve", "--method", method, "--m0", str(m0), "--perturb", "ones",
                 "--eps", "0.1", "--tol", "1e-10", "--anderson", "8", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["iterations"] <= 20
    assert (summary["extras"]["method"], summary["extras"]["anderson"]) == (method, 8)


@pytest.mark.parametrize("bodies", [4, 6, 8])
def test_nbody_anderson_lands_on_the_polygon_orbit(tmp_path, bodies):
    # the unaccelerated stabilized map has unstable modes at these polygons
    code = main(["nbody", "solve", "--bodies", str(bodies), "--m0", "10", "--perturb", "ones",
                 "--eps", "0.03", "--tol", "1e-10", "--anderson", "8", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["iterations"] <= 20
    assert summary["orbit"]["orbital_distance"] <= 1e-9


def test_nbody_newton_reports_inner_iterations(tmp_path):
    code = main(["nbody", "solve", "--method", "newton", "--bodies", "64", "--m0", "10",
                 "--perturb", "ones", "--eps", "0.03", "--tol", "1e-10",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["config"]["inner_solver"] == "minres"
    assert summary["extras"]["pcg_fallbacks"] == 0
    # MINRES is the ring default, and each step is deflated off the rotation orbit
    problem = nb.build_nbody(nb.NBodyConfig(n=64, m0=10.0))
    q0 = nb.polygon_solution(64) + 0.03 * np.ones(128)
    config = SolverConfig(tol_residual=1e-10, inner_solver="minres")
    deflated = newton_solve(problem, q0, config, generators=nb.rotation_action().generators)
    assert summary["iterations"] == deflated.iterations <= 3
    assert summary["extras"]["inner_iterations"] == deflated.inner_iterations


# ---------------- parser reuse ----------------

def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    _build_parser.cache_clear()
    base = ["nbody", "solve", "--perturb", "ones", "--m0", "10", "--tol", "1e-8"]
    assert main(base + ["--eps", "0.5", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    assert _build_parser.cache_info().misses == 1
    assert _read_summary(tmp_path / "a")["config"]["eps"] == 0.5
    # a flag given on one call is not a default on the next
    assert _read_summary(tmp_path / "b")["config"]["eps"] == 0.0


def test_usage_error_leaves_parser_usable(tmp_path):
    assert main(["nbody", "solve", "--method", "bogus", "--out", str(tmp_path)]) == 1
    assert main(["nbody", "spectrum", "--m0", "10", "--out", str(tmp_path)]) == 0


# ---------------- bs ----------------

def test_bs_solve_even_perturbation(tmp_path):
    code = main(["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01",
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["final_residual"] <= 1e-8
    assert summary["extras"]["inner_iterations"] > 0
    assert "pcg_fallbacks" not in summary["extras"]
    # an even perturbation cannot move the wave
    assert abs(summary["extras"]["x_eta"]) <= 1e-6
    assert summary["orbit"]["orbital_distance"] <= 1e-6

    with open(tmp_path / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 256
    peak = max(float(r["eta"]) for r in rows)
    assert abs(peak - 5.5) < 0.1


def test_bs_shift_table(tmp_path):
    code = main(["bs", "shift-table", *BS_SMALL, "--eps", "0.01",
                 "--tol", "1e-8", "--out", str(tmp_path)])
    assert code == 0
    table = json.loads((tmp_path / "shift_table.json").read_text())
    assert len(table) == 1
    row = table[0]
    assert row["status"] == "ConvergedResidual"
    # derivative-direction seeds translate the wave by about -eps
    assert abs(row["x_eta"] - (-0.01)) < 2e-3
    assert abs(row["x_u"] - row["x_eta"]) < 1e-6


def test_bs_spectrum_single_null_mode(tmp_path):
    code = main(["bs", "spectrum", *BS_SMALL, "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["extras"]["count_near_zero"] == 1
    n = int(BS_SMALL[BS_SMALL.index("--grid-n") + 1])
    assert summary["extras"]["blocks"] == {
        "even": {"dim": n + 2, "count_near_zero": 0},
        "odd": {"dim": n - 2, "count_near_zero": 1},
    }


@pytest.mark.parametrize("cs", ["1.25", "1.31", "1.35", "1.58", "2.01"])
def test_bs_solve_at_speeds_where_newton_wandered(tmp_path, cs):
    # from the closed-form seed, preconditioned Newton ended MaxIterations
    # (Diverged at 2.01) at these speeds; the dispatch now runs Petviashvili
    code = main(["bs", "solve", "--grid-n", "512", "--cs", cs, "--tol", "1e-11",
                 "--max-outer", "15", "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert code == 0
    assert summary["status"] == "ConvergedResidual"
    assert summary["extras"]["method"] == "petviashvili"
    # |F| at the returned wave, not the fixed-point gap the iteration stops on
    assert summary["final_residual"] <= 1e-11
    assert abs(summary["extras"]["x_eta"]) <= 1e-8


def test_bs_solve_prescribed_speed_at_another_theta2(tmp_path):
    # 1.2 times the closed-form speed 1.8627 of theta2 = 0.85, on the fine grid
    code = main(["bs", "solve", "--theta2", "0.85", "--grid-n", "1024", "--cs", "2.2353",
                 "--tol", "1e-11", "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert code == 0
    assert summary["status"] == "ConvergedResidual"
    assert summary["extras"]["method"] == "petviashvili"
    assert summary["iterations"] <= 15
    assert summary["final_residual"] <= 1e-11
    assert abs(summary["extras"]["x_eta"]) <= 1e-8


def test_bs_propagate(tmp_path):
    code = main(["bs", "propagate", *BS_SMALL, "--dt", "0.01", "--t-end", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    extras = summary["extras"]
    assert extras["completed"] is True
    assert extras["center_error"] <= 1e-3
    assert extras["shape_error"] <= 1e-3

    with open(tmp_path / "snapshots.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert abs(float(rows[-1]["t"]) - 1.0) < 1e-6


def test_bs_propagate_rejects_bad_snapshots(tmp_path):
    assert main(["bs", "propagate", *BS_SMALL, "--snapshots", "a,b",
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("snapshots", [",", "0.5,inf"])
def test_bs_propagate_rejects_empty_and_non_finite_snapshots(tmp_path, capsys, snapshots):
    assert main(["bs", "propagate", *BS_SMALL, "--snapshots", snapshots,
                 "--out", str(tmp_path)]) == 1
    assert "--snapshots expects one or more finite values" in capsys.readouterr().err
    assert not (tmp_path / "snapshots.csv").exists()


@pytest.mark.parametrize("eps", [",", "0.01,nan"])
def test_bs_shift_table_rejects_empty_and_non_finite_eps(tmp_path, capsys, eps):
    assert main(["bs", "shift-table", *BS_SMALL, "--eps", eps, "--out", str(tmp_path)]) == 1
    assert "--eps expects one or more finite values" in capsys.readouterr().err
    assert not (tmp_path / "shift_table.json").exists()


def test_bs_propagate_prescribed_speed_solves_first(tmp_path):
    # the closed-form profile is only a seed here; the run must report a
    # genuine residual solve, not a reference stop at iteration zero
    code = main(["bs", "propagate", *BS_SMALL, "--cs", "1.2", "--tol", "1e-10",
                 "--dt", "0.01", "--t-end", "1", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["iterations"] > 0
    assert summary["final_residual"] <= 1e-10
    extras = summary["extras"]
    assert extras["completed"] is True
    assert extras["center_error"] <= 1e-3
    assert extras["shape_error"] <= 1e-3


# ---------------- reproducibility ----------------

def test_solver_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01",
            "--tol", "1e-8"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()


# ---------------- console entry point ----------------

def test_console_script(tmp_path):
    exe = shutil.which("orbitfix")
    env = None
    if exe:
        cmd = [exe]
    else:
        # not installed: the subprocess finds the package through src/
        cmd = [sys.executable, "-m", "orbitfix.cli"]
        paths = [str(Path(orbitfix.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(cmd + ["nbody", "spectrum", "--m0", "10",
                                 "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "summary.json").exists()
