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
from orbitfix import boussinesq as bq
from orbitfix import cli
from orbitfix import nbody as nb
from orbitfix import numlin
from orbitfix.cli import _EXIT_CODES, SUMMARY_SCHEMA, _build_parser, _write_csv, main
from orbitfix.solvers import SolverConfig, TraceRow, newton_solve

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


def _assert_refused(argv, tmp_path):
    """argv exits 1 into an existing --out and into a new one, and changes neither.

    The existing directory keeps just the file it held, and the new one, two
    levels below tmp_path, is not left behind.
    """
    existing = tmp_path / "existing"
    existing.mkdir(exist_ok=True)
    (existing / "kept.txt").write_text("kept\n")
    assert main([*argv, "--out", str(existing)]) == 1
    assert [p.name for p in existing.iterdir()] == ["kept.txt"]
    assert (existing / "kept.txt").read_text() == "kept\n"
    assert main([*argv, "--out", str(tmp_path / "new" / "out")]) == 1
    assert not (tmp_path / "new").exists()


# ---------------- usage errors ----------------

def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["nbody", "propagate"]) == 1


def test_bad_perturbation_kind_is_usage_error(tmp_path):
    _assert_refused(["nbody", "solve", "--perturb", "gauss"], tmp_path)


def test_bad_theta2_is_usage_error(tmp_path):
    _assert_refused(["bs", "solve", "--theta2", "0.5"], tmp_path)


def test_gamma_flag_is_usage_error(tmp_path):
    # the stabilizing exponent follows from the nonlinearity's degree
    _assert_refused(["nbody", "solve", "--gamma", "0.5"], tmp_path)


@pytest.mark.parametrize("command", ["solve", "orbit"])
def test_x0_is_a_bs_flag_only(tmp_path, command):
    # --x0 places the gauss bumps; the ring's perturbations have no position
    _assert_refused(["nbody", command, "--x0", "5"], tmp_path)
    assert _build_parser().parse_args(["bs", command, "--x0", "1.5"]).x0 == 1.5


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


@pytest.mark.parametrize("argv, method, anderson", [
    # generator-discrete seeds are perturbed, at either speed
    (["shift-table", "--eps", "0.01", "--tol", "1e-8"], "newton", None),
    (["shift-table", "--eps", "0.01", "--tol", "1e-8", "--cs", "1.2"], "newton", None),
    (["shift-table", "--eps", "0.01", "--tol", "1e-8", "--method", "petviashvili"],
     "petviashvili", 5),
    # the unperturbed closed-form wave seeding another speed
    (["propagate", "--cs", "1.2", "--t-end", "1"], "petviashvili", 5),
    # at the closed-form speed propagate solves nothing
    (["propagate", "--t-end", "1"], None, None),
], ids=["shift-table", "shift-table-cs", "shift-table-petviashvili", "propagate-cs",
        "propagate"])
def test_bs_shift_table_and_propagate_name_the_method(tmp_path, argv, method, anderson):
    code = main(["bs", argv[0], *BS_SMALL, *argv[1:], "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert code == 0
    assert summary["extras"]["method"] == method
    assert summary["extras"]["anderson"] == anderson


def test_bs_newton_trace_records_the_forcing(tmp_path):
    assert main(["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01",
                 "--tol", "1e-10", "--inner-tol", "1e-9", "--out", str(tmp_path)]) == 0
    summary = _read_summary(tmp_path)
    rows = _read_trace(tmp_path)
    steps, terminal = rows[:-1], rows[-1]
    assert float(steps[0]["inner_tol"]) == 0.1
    # --inner-tol is the floor of every quotient solve
    assert all(1e-9 <= float(r["inner_tol"]) <= 0.1 for r in steps)
    assert sum(int(r["inner_iterations"]) for r in steps) == summary["extras"]["inner_iterations"]
    assert all(float(r["inner_residual"]) >= 0.0 for r in steps)
    assert terminal["inner_tol"] == terminal["inner_iterations"] == terminal["inner_residual"] == ""


def test_bs_petviashvili_final_residual_is_F_at_the_profile(tmp_path):
    # theta2 0.95 at 1.05 times the closed-form speed: the gap meets 1e-11 while
    # |S x - S G(x)| (9.97e-12 here) understates |F| (above 1e-11)
    args = ["--theta2", "0.95", "--grid-n", "1024", "--cs", "4.7921", "--tol", "1e-11"]
    code = main(["bs", "solve", *args, "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    assert summary["extras"]["method"] == "petviashvili"
    with open(tmp_path / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    w = np.array([float(r["u"]) for r in rows] + [float(r["eta"]) for r in rows])
    problem = bq.build_bs_problem(bq.BSParams(theta2=0.95, speed=4.7921, n=1024,
                                              half_length=50.0))
    assert summary["final_residual"] == float(np.linalg.norm(problem.F(w)))
    assert (summary["status"] == "ConvergedResidual") == (summary["final_residual"] <= 1e-11)
    assert code == (0 if summary["final_residual"] <= 1e-11 else 2)


def test_bs_rejects_fixed_point_method(tmp_path):
    _assert_refused(["bs", "solve", "--method", "fixed-point", *BS_SMALL], tmp_path)


@pytest.mark.parametrize("command", [["nbody", "solve"], ["bs", "solve", *BS_SMALL]],
                         ids=["nbody", "bs"])
def test_pcg_inner_solver_is_usage_error(tmp_path, command):
    # Newton solves by MINRES only; conjugate gradients fails on an indefinite J
    _assert_refused([*command, "--inner-solver", "pcg"], tmp_path)


def test_nbody_still_accepts_minres_inner_solver(tmp_path):
    # the ring benchmark's argv names the one inner solver
    assert main(["nbody", "solve", "--method", "newton", "--inner-solver", "minres",
                 "--perturb", "ones", "--tol", "1e-10", "--bodies", "16", "--eps", "0.03",
                 "--out", str(tmp_path)]) == 0
    assert _read_summary(tmp_path)["config"]["inner_solver"] == "minres"


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
    # exit 2 from the worst row, whose status the summary takes
    ["bs", "shift-table", *BS_SMALL, "--eps", "0.01", "--max-outer", "1"],
    # exit 3: the step blows up, with no solve before it. The closed form at
    # theta2 0.95 is under-resolved on this grid, so it is no equilibrium of the
    # comoving frame; the wave at the default theta2 survives dt 2.
    ["bs", "propagate", *BS_SMALL, "--theta2", "0.95", "--dt", "2", "--t-end", "40"],
])
def test_every_command_writes_its_summary(tmp_path, argv):
    code = main([*argv, "--out", str(tmp_path)])
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["command"] == " ".join(argv[:2])
    assert summary["exit_code"] == code == _EXIT_CODES[summary["status"]]


SOLVE_EXTRAS = {"anderson", "inner_iterations", "method"}
PROPAGATE_EXTRAS = {"anderson", "method", "completed", "dt", "t_end", "frame_speed", "steps",
                    "etdrk4_steps", "longest_step", "start_center", "final_center",
                    "expected_center", "center_error", "shape_error"}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv, code, keys", [
    (["nbody", "solve", "--m0", "5", "--perturb", "ones", "--eps", "0.1"], 0,
     SOLVE_EXTRAS | {"omega"}),
    # omega is reported on a diverged run too
    (["nbody", "solve", "--m0", "1", "--perturb", "ones", "--eps", "0.1"], 3,
     SOLVE_EXTRAS | {"omega"}),
    (["nbody", "orbit", "--perturb", "generator", "--eps", "1"], 0,
     SOLVE_EXTRAS | {"omega", "alpha_predicted", "kernel_residual"}),
    (["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01", "--tol", "1e-8"], 0,
     SOLVE_EXTRAS | {"x_eta", "x_u"}),
    (["bs", "orbit", *BS_SMALL, "--cs", "1.2", "--tol", "1e-10"], 0,
     SOLVE_EXTRAS | {"x_eta", "x_u"}),
    (["bs", "shift-table", *BS_SMALL, "--eps", "0.01,1e160", "--tol", "1e-8"], 3,
     {"anderson", "method", "table"}),
    (["bs", "propagate", *BS_SMALL, "--cs", "1.2", "--tol", "1e-10", "--t-end", "1"], 0,
     PROPAGATE_EXTRAS),
], ids=["nbody-solve", "nbody-solve-diverged", "nbody-orbit", "bs-solve", "bs-orbit-cs",
        "shift-table", "propagate-cs"])
def test_each_command_reports_a_fixed_extras_key_set(tmp_path, argv, code, keys):
    assert main([*argv, "--out", str(tmp_path)]) == code
    extras = _read_summary(tmp_path)["extras"]
    assert set(extras) == keys
    for row in extras.get("table", []):
        assert set(row) == {"eps", "final_residual", "status", "x_eta", "x_u"}


@pytest.mark.parametrize("argv, keys", [
    (["nbody", "orbit", "--perturb", "ones", "--eps", "0.1"], SOLVE_EXTRAS | {"omega"}),
    (["bs", "orbit", *BS_SMALL, "--perturb", "gauss", "--eps", "0.01"], SOLVE_EXTRAS),
], ids=["nbody", "bs"])
def test_non_finite_state_reports_no_orbit_and_writes_the_unperturbed_seed(
        tmp_path, monkeypatch, argv, keys):
    real = cli.newton_solve

    def blown_up(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.x = np.full_like(outcome.x, np.nan)
        outcome.status = "Diverged"
        return outcome

    monkeypatch.setattr(cli, "newton_solve", blown_up)
    assert main([*argv, "--method", "newton", "--tol", "1e-8", "--out", str(tmp_path)]) == 3
    summary = _read_summary(tmp_path)
    assert summary["orbit"] is None
    assert set(summary["extras"]) == keys
    if argv[0] == "nbody":
        with open(tmp_path / "bodies.csv", newline="") as fh:
            state = [float(r[k]) for r in csv.DictReader(fh) for k in ("x", "y")]
        assert state == nb.polygon_solution(2).tolist()
    else:
        with open(tmp_path / "profile.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        state = [float(r["u"]) for r in rows] + [float(r["eta"]) for r in rows]
        assert state == bq.exact_profile(0.9, 256, 25.0).wave.tolist()


def test_summary_status_enum_names_every_status_and_null():
    assert SUMMARY_SCHEMA["properties"]["status"]["enum"] == [
        "ConvergedResidual", "ConvergedReference", "MaxIterations", "Diverged", None]


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
    assert summary["status"] == "Diverged" and summary["final_residual"] is None
    assert summary["extras"]["table"] == table
    assert table[0]["status"] == "Diverged"
    assert table[0]["final_residual"] is None


def test_write_csv_matches_the_per_cell_formatter(tmp_path):
    # the formatter _write_csv replaced: strings as they are, None empty,
    # anything else "%.17g" of its float
    def cell(value):
        if isinstance(value, str):
            return value
        return "" if value is None else "%.17g" % float(value)

    rows = [("0", 1.0, None, -0.0), ("17", np.nan, np.inf, -np.inf),
            ("2", np.float64(0.1), 3, None), ("x", None, None, None),
            ("3", np.float32(0.1), True, np.int64(-7)), ("4", 1e-300, -2.5e17, 1 / 3)]
    _write_csv(tmp_path / "t.csv", ("n", "a", "b", "c"), iter(rows))
    expected = ["n,a,b,c"] + [",".join(cell(v) for v in row) for row in rows]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


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
    # a fixed-point run makes no inner solves
    assert {r[k] for r in rows for k in ("inner_tol", "inner_iterations", "inner_residual")} \
        == {""}

    with open(tmp_path / "bodies.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_trace_header_names_the_row_cells(tmp_path):
    assert main(["nbody", "solve", "--perturb", "ones", "--eps", "0.1",
                 "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert header == ("n,residual,ref_error,stab_factor,step_norm,"
                      "inner_tol,inner_iterations,inner_residual")
    assert header.split(",") == list(TraceRow._fields)
    assert rows and all(row.count(",") == len(TraceRow._fields) - 1 for row in rows)


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


def test_nbody_iterate_outside_the_domain_exits_diverged(tmp_path):
    # the gap is 2.7e7 at iterate 4, below the divergence cap; iterate 5 puts
    # body 1 1.3e-15 from the center, where F and G are undefined
    code = main(["nbody", "solve", "--method", "fixed-point", "--bodies", "2", "--m0", "0",
                 "--perturb", "ones", "--eps", "-1.5", "--out", str(tmp_path)])
    assert code == 3
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert (summary["status"], summary["iterations"]) == ("Diverged", 5)
    assert summary["extras"]["message"] == "iterate 5: body collides with the center"
    # the terminal row's residual is NaN, which summary.json writes as null
    assert summary["final_residual"] is None
    assert _read_trace(tmp_path)[-1]["residual"] == "nan"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bodies.csv", "summary.json",
                                                         "trace.csv"]


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
    # the filtered homogeneity mode sits at zero to round-off
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        moduli = [abs(complex(float(r["re"]), float(r["im"]))) for r in csv.DictReader(fh)]
    assert min(moduli) <= 1e-14


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


def test_nbody_orbit_of_a_large_ring_reports_its_kernel_residual(tmp_path):
    # the 512-body polygon's round-off leaves |F| at 1.4e-8, above an absolute
    # 1e-8 but 1.2e-12 of |A q*|, so the kernel check runs on it
    code = main(["nbody", "orbit", "--bodies", "512", "--method", "newton",
                 "--perturb", "generator", "--eps", "0.5", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert summary["status"] == "ConvergedResidual"
    assert summary["extras"]["kernel_residual"] <= 1e-8


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
    assert "pcg_fallbacks" not in summary["extras"]
    # MINRES is the one inner solver, preconditioned by |J|^{-1} at the polygon
    # rotated onto the seed, and each step is deflated off the rotation orbit
    cfg = nb.NBodyConfig(n=64, m0=10.0)
    qstar = nb.polygon_solution(64)
    q0 = qstar + 0.03 * np.ones(128)
    action = nb.rotation_action()
    config = SolverConfig(tol_residual=1e-10)
    deflated = newton_solve(nb.build_nbody(cfg), q0, config,
                            precond=nb.precond_operator(cfg, action.align(q0, qstar)),
                            generators=action.generators)
    assert summary["iterations"] == deflated.iterations <= 3
    assert summary["extras"]["inner_iterations"] == deflated.inner_iterations


def test_nbody_newton_preconditioned_minres_stays_short(tmp_path):
    # unpreconditioned, this 128-body solve takes 377 MINRES iterations
    code = main(["nbody", "solve", "--method", "newton", "--bodies", "128", "--m0", "10",
                 "--perturb", "ones", "--eps", "0.03", "--tol", "1e-10",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    assert summary["status"] == "ConvergedResidual"
    assert summary["extras"]["inner_iterations"] <= 20


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


def test_bs_shift_table_builds_the_preconditioner_once(tmp_path, monkeypatch):
    builds, build = [], bq.precond_operator

    def counted(params):
        builds.append(params)
        return build(params)

    monkeypatch.setattr(bq, "precond_operator", counted)
    code = main(["bs", "shift-table", *BS_SMALL, "--eps", "0.1,0.05", "--out", str(tmp_path)])
    assert code == 0
    assert len(json.loads((tmp_path / "shift_table.json").read_text())) == 2
    assert len(builds) == 1


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


def test_bs_solve_that_reaches_the_zero_state_reports_its_orbit(tmp_path):
    # Newton lands on w = 0, which solves F = 0 and which every shift fixes: its
    # orbit is one point, with no crest to locate, so the orbit is measured
    # against the reference itself
    code = main(["bs", "solve", *BS_SMALL, "--perturb", "gauss", "--eps", "-3",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert (summary["status"], summary["iterations"]) == ("ConvergedResidual", 6)
    assert summary["final_residual"] <= 1e-20
    with open(tmp_path / "profile.csv", newline="") as fh:
        assert max(abs(float(row["eta"])) for row in csv.DictReader(fh)) <= 1e-20
    orbit = summary["orbit"]
    wave_norm = np.linalg.norm(bq.exact_profile(0.9, 256, 25.0).wave)
    assert orbit["alpha_star"] == 0.0
    assert orbit["raw_distance"] == pytest.approx(wave_norm, rel=1e-12)
    assert orbit["orbital_distance"] == pytest.approx(wave_norm, rel=1e-12)
    assert summary["extras"]["x_u"] is None and summary["extras"]["x_eta"] is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.csv", "summary.json",
                                                         "trace.csv"]


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


def test_bs_propagate_reports_frame_and_steps_run(tmp_path):
    # 1/0.03 is not whole: the run takes 33 steps of 1/33
    code = main(["bs", "propagate", *BS_SMALL, "--dt", "0.03", "--t-end", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    extras = _read_summary(tmp_path)["extras"]
    assert extras["steps"] == 33
    # step doubling: fewer ETDRK4 steps than grid steps, some longer than 1/33
    assert 0 < extras["etdrk4_steps"] < 33
    assert extras["longest_step"] >= 2.0 / 33
    assert extras["dt"] == 0.03
    assert extras["frame_speed"] == bq.exact_profile(0.9, 256, 25.0).speed
    assert extras["center_error"] <= 1e-10


def test_bs_propagate_reports_on_the_final_state(tmp_path):
    # the snapshots stop short of --t-end: the state at t_end is still
    # recorded, and the centers and errors describe it
    code = main(["bs", "propagate", *BS_SMALL, "--snapshots", "0", "--t-end", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    extras = _read_summary(tmp_path)["extras"]
    speed = bq.exact_profile(0.9, 256, 25.0).speed
    expected = bq.periodic_wrap(extras["start_center"] + 5.0 * speed, 25.0)
    assert extras["expected_center"] == pytest.approx(expected, abs=1e-12)
    assert abs(extras["final_center"] - expected) <= 1e-10
    assert extras["center_error"] <= 1e-10
    with open(tmp_path / "snapshots.csv", newline="") as fh:
        assert sorted({float(row["t"]) for row in csv.DictReader(fh)}) == [0.0, 5.0]


def test_bs_propagate_blowup_exits_diverged(tmp_path):
    code = main(["bs", "propagate", *BS_SMALL, "--theta2", "0.95", "--dt", "2",
                 "--t-end", "40", "--out", str(tmp_path)])
    assert code == 3
    extras = _read_summary(tmp_path)["extras"]
    assert extras["completed"] is False
    assert 0 < extras["steps"] < 20
    assert "center_error" not in extras


@pytest.mark.parametrize("sub", [None, "sub"], ids=["file", "below-file"])
def test_unwritable_out_is_a_named_error(tmp_path, capsys, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker if sub is None else blocker / sub
    assert main(["nbody", "spectrum", "--out", str(out)]) == 1
    assert "orbitfix: cannot write --out: " in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"


def test_bs_propagate_rejects_bad_snapshots(tmp_path):
    _assert_refused(["bs", "propagate", *BS_SMALL, "--snapshots", "a,b"], tmp_path)


@pytest.mark.parametrize("snapshots", [",", "0.5,inf"])
def test_bs_propagate_rejects_empty_and_non_finite_snapshots(tmp_path, capsys, snapshots):
    _assert_refused(["bs", "propagate", *BS_SMALL, "--snapshots", snapshots], tmp_path)
    assert "--snapshots expects one or more finite values" in capsys.readouterr().err


@pytest.mark.parametrize("steps, message", [
    (["--dt", "0"], "dt and t_end must be positive"),
    (["--t-end", "-1"], "dt and t_end must be positive"),
    (["--dt", "inf"], "dt and t_end must be positive"),
    (["--dt", "1e-320"], "t_end/dt steps overflow a float"),
    (["--snapshots", "0,5", "--t-end", "1"], "snapshot times must lie in [0, t_end]"),
], ids=["dt-zero", "t-end-negative", "dt-inf", "dt-subnormal", "snapshot-past-end"])
def test_bs_propagate_checks_steps_before_solving(tmp_path, capsys, steps, message):
    # --cs asks for a solve first; bad step options must stop the run before it
    _assert_refused(["bs", "propagate", *BS_SMALL, "--cs", "1.2", "--tol", "1e-11", *steps],
                    tmp_path)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bs", "solve", "--grid-n", "64", "--half-length", "10", "--cs", "inf"], "wave speed"),
    (["nbody", "solve", "--bodies", "3", "--m0", "nan"], "central mass"),
    (["nbody", "solve", "--bodies", "3", "--m0", "inf"], "central mass"),
    (["bs", "spectrum", "--half-length", "inf"], "half_length"),
    (["nbody", "solve", "--perturb", "ones", "--eps", "0.1", "--tol", "inf"], "tol_residual"),
    (["bs", "solve", "--grid-n", "64", "--half-length", "10", "--perturb", "gauss",
      "--eps", "0.01", "--tol", "inf"], "tol_residual"),
    (["nbody", "solve", "--method", "newton", "--inner-tol", "inf"], "inner_tol"),
    (["nbody", "solve", "--perturb", "ones", "--eps", "nan"], "argument --eps"),
    (["nbody", "orbit", "--perturb", "generator", "--eps", "inf"], "argument --eps"),
    (["bs", "solve", "--grid-n", "64", "--half-length", "10", "--perturb", "gauss",
      "--eps", "0.01", "--x0", "nan"], "argument --x0"),
    *((["bs", command, "--grid-n", "0"], "grid size must be even and >= 4")
      for command in ("solve", "orbit", "spectrum", "shift-table", "propagate")),
], ids=["bs-cs-inf", "nbody-m0-nan", "nbody-m0-inf", "bs-half-length-inf", "nbody-tol-inf",
        "bs-tol-inf", "nbody-inner-tol-inf", "nbody-eps-nan", "nbody-orbit-eps-inf",
        "bs-x0-nan", "bs-solve-grid-0", "bs-orbit-grid-0", "bs-spectrum-grid-0",
        "bs-shift-table-grid-0", "bs-propagate-grid-0"])
def test_non_finite_configuration_exits_before_any_work(tmp_path, capsys, argv, message):
    # warnings are errors here, so a run on NaN states would fail the test; an
    # uncaught exception, such as a division by a zero grid size, fails it too
    _assert_refused(argv, tmp_path)
    assert message in capsys.readouterr().err


def test_bs_spectrum_refuses_a_speed_the_closed_form_wave_does_not_solve(tmp_path, capsys):
    # the closed-form wave solves the system only at its own speed, so its
    # Jacobian spectrum at another --cs describes no solution
    speed = repr(bq.exact_profile(0.9, 64, 10.0).speed)
    argv = ["bs", "spectrum", "--grid-n", "64", "--half-length", "10"]
    _assert_refused([*argv, "--cs", "1.5"], tmp_path)
    err = capsys.readouterr().err
    assert "solves the system only at its own speed" in err and "--cs 1.5" in err
    assert main([*argv, "--cs", speed, "--out", str(tmp_path / "own")]) == 0
    assert main([*argv, "--out", str(tmp_path / "default")]) == 0
    own, default = (_read_summary(tmp_path / name) for name in ("own", "default"))
    assert own["extras"] == default["extras"]


@pytest.mark.parametrize("argv, builder", [
    (["nbody", "spectrum", "--bodies", "2049"], (nb, "hess_U")),
    (["bs", "spectrum", "--grid-n", "4096"], (numlin, "_reflection_block")),
], ids=["nbody-hessian", "bs-even-block"])
def test_oversize_spectrum_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                         argv, builder):
    def build(*args):
        raise AssertionError("built a matrix past the dense eigenvalue limit")

    monkeypatch.setattr(*builder, build)
    _assert_refused(argv, tmp_path)
    assert "exceeds the dense eigenvalue limit 4096" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [",", "0.01,nan"])
def test_bs_shift_table_rejects_empty_and_non_finite_eps(tmp_path, capsys, eps):
    _assert_refused(["bs", "shift-table", *BS_SMALL, "--eps", eps], tmp_path)
    assert "--eps expects one or more finite values" in capsys.readouterr().err


def test_bs_propagate_stops_after_a_solve_that_falls_short(tmp_path):
    # one Petviashvili step does not reach the wave at --cs 1.2: nothing is propagated
    code = main(["bs", "propagate", *BS_SMALL, "--cs", "1.2", "--max-outer", "1",
                 "--t-end", "1", "--out", str(tmp_path)])
    assert code == 2
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert (summary["status"], summary["iterations"]) == ("MaxIterations", 1)
    # the solver gave no message, so the extras are the method's alone
    assert summary["extras"] == {"method": "petviashvili", "anderson": 5}
    assert len(_read_trace(tmp_path)) == 2
    assert not (tmp_path / "snapshots.csv").exists()


def test_summary_names_why_the_solver_stopped(tmp_path):
    # one MINRES iteration a step never lowers |F| at --cs 1.05, so Newton
    # stops on its stall rule and says so
    code = main(["bs", "solve", *BS_SMALL, "--cs", "1.05", "--method", "newton",
                 "--inner-maxit", "1", "--max-outer", "60", "--out", str(tmp_path)])
    assert code == 2
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert (summary["status"], summary["iterations"]) == ("MaxIterations", 8)
    assert summary["extras"]["message"] == (
        "inner solver repeatedly hit its budget without outer progress")


def test_bs_shift_table_rows_name_their_stop_reason(tmp_path):
    # each row's Newton solve stalls on its inner budget; the rows say so,
    # and the summary's extras keep no message of their own
    code = main(["bs", "shift-table", *BS_SMALL, "--cs", "1.05", "--inner-maxit", "1",
                 "--max-outer", "60", "--eps", "0.1,0.05", "--out", str(tmp_path)])
    assert code == 2
    summary = _read_summary(tmp_path)
    _validate(summary)
    rows = json.loads((tmp_path / "shift_table.json").read_text())
    assert [row["status"] for row in rows] == ["MaxIterations", "MaxIterations"]
    for row in rows:
        assert row["message"] == "inner solver repeatedly hit its budget without outer progress"
    assert summary["extras"] == {"table": rows, "method": "newton", "anderson": None}


def test_ring_reference_stop_names_its_distance_and_F(tmp_path):
    # Newton lands within --tol of the polygon at |F| 2.8e-8: still a
    # ConvergedReference exit 0, but the summary says how far from a solution
    code = main(["nbody", "solve", "--method", "newton", "--inner-solver", "minres",
                 "--perturb", "ones", "--tol", "1e-10", "--bodies", "64",
                 "--eps", "0.0139772", "--m0", "8.46967", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    _validate(summary)
    assert (summary["status"], summary["iterations"]) == ("ConvergedReference", 2)
    residual = summary["final_residual"]
    ref_error = float(_read_trace(tmp_path)[-1]["ref_error"])
    assert ref_error <= 1e-10 < residual
    assert summary["extras"]["message"] == (
        f"stopped on the reference: |x - reference| = {ref_error:.3g} <= tol 1e-10, "
        f"|F(x)| = {residual:.3g}")


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


def test_python_dash_m_orbitfix(tmp_path):
    paths = [str(Path(orbitfix.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-m", "orbitfix", "nbody", "spectrum",
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert _read_summary(tmp_path)["command"] == "nbody spectrum"
    # a usage error keeps its exit code through python -m
    proc = subprocess.run([sys.executable, "-m", "orbitfix"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 1


def test_ring_minres_solve_does_not_import_numpy_random(tmp_path):
    # MINRES probes the ring's plain Jacobian for symmetry with vectors drawn
    # by the standard library, so no command pays for numpy.random's import
    paths = [str(Path(orbitfix.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = ("import sys; from orbitfix.cli import main; "
              "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, "nbody", "solve", "--method", "newton",
                           "--inner-solver", "minres", "--bodies", "16", "--perturb", "ones",
                           "--eps", "0.03", "--tol", "1e-10", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr
