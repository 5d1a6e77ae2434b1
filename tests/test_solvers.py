from dataclasses import replace

import numpy as np
import pytest

import orbitfix.solvers as solvers
from orbitfix.boussinesq import BSParams, build_bs_problem, exact_profile
from orbitfix.numlin import DENSE_DIM_LIMIT, LinearOperator, fd_jacobian, materialize
from orbitfix.solvers import (CONVERGED_REFERENCE, CONVERGED_RESIDUAL, DIVERGED, EW_ETA_MAX,
                              MAX_ITERATIONS, HomogeneousSplit, ProblemSpec, SolverConfig,
                              convergence_ratios, fixed_point_solve, iteration_matrix_spectrum,
                              newton_solve, petviashvili_map, petviashvili_solve)
from orbitfix.nbody import NBodyConfig, build_nbody, hess_U, polygon_solution, rotation_action


# ---------------- configuration validation ----------------

@pytest.mark.parametrize("kwargs", [
    dict(tol_residual=0.0),
    dict(tol_residual=-1e-8),
    dict(max_outer=0),
    dict(inner_maxit=0),
    dict(inner_tol=-1.0),
    dict(inner_tol=0.0),
    dict(divergence_cap=0.0),
    dict(anderson=-1),
    dict(tol_residual=np.inf),
    dict(tol_residual=np.nan),
    dict(inner_tol=np.inf),
    dict(inner_tol=np.nan),
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_solver_config_defaults_are_sane():
    cfg = SolverConfig()
    assert cfg.tol_residual > 0 and cfg.max_outer >= 1
    assert cfg.anderson == 0


# ---------------- fixed point ----------------

def test_fixed_point_affine_contraction():
    problem = ProblemSpec(F=lambda x: x - (x / 2 + 1),
                          G=lambda x: x / 2 + 1)
    out = fixed_point_solve(problem, np.zeros(1),
                            SolverConfig(tol_residual=1e-12, max_outer=200))
    assert out.status == CONVERGED_RESIDUAL
    assert abs(out.x[0] - 2.0) < 1e-11
    assert out.converged


def test_fixed_point_cosine():
    # independent oracle: bisect cos(x) = x
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)

    problem = ProblemSpec(F=lambda x: x - np.cos(x), G=np.cos)
    out = fixed_point_solve(problem, np.array([0.5]),
                            SolverConfig(tol_residual=1e-12, max_outer=500))
    assert out.converged
    assert abs(out.x[0] - root) < 1e-9


def test_fixed_point_requires_map():
    problem = ProblemSpec(F=lambda x: x)
    with pytest.raises(ValueError, match="fixed-point map"):
        fixed_point_solve(problem, np.zeros(1), SolverConfig())


def test_fixed_point_divergence_cap():
    problem = ProblemSpec(F=lambda x: x - 3 * x, G=lambda x: 3 * x)
    out = fixed_point_solve(problem, np.ones(1),
                            SolverConfig(tol_residual=1e-12, max_outer=500,
                                         divergence_cap=1e6))
    assert out.status == DIVERGED


def test_fixed_point_reference_stop():
    # the gap |x - G(x)| = 1.9|x| always exceeds the error |x - 0|, so the
    # reference test fires first
    problem = ProblemSpec(F=lambda x: 1.9 * x, G=lambda x: -0.9 * x)
    out = fixed_point_solve(problem, np.ones(1),
                            SolverConfig(tol_residual=1e-6, max_outer=1000),
                            reference=np.zeros(1))
    assert out.status == CONVERGED_REFERENCE
    assert out.trace.ref_errors[-1] <= 1e-6
    assert out.trace.residuals[-1] > 1e-6


# ---------------- Petviashvili ----------------

def _ring_problem(m0):
    return build_nbody(NBodyConfig(n=2, m0=m0))


def _ones_seed():
    return polygon_solution(2) + 0.1 * np.ones(4)


def test_petviashvili_exact_seed_unit_factor():
    problem = _ring_problem(10.0)
    qstar = polygon_solution(2)
    out = petviashvili_solve(problem, qstar,
                             SolverConfig(tol_residual=1e-12, max_outer=50))
    assert out.converged
    assert out.iterations == 0
    assert abs(out.trace.stab_factors[0] - 1.0) < 1e-13


@pytest.mark.parametrize("m0,expected_status", [
    (10.0, CONVERGED_RESIDUAL),
    (5.0, CONVERGED_RESIDUAL),
    (1.0, DIVERGED),
    (0.0, DIVERGED),
])
def test_petviashvili_classification(m0, expected_status):
    problem = _ring_problem(m0)
    out = petviashvili_solve(problem, _ones_seed(),
                             SolverConfig(tol_residual=1e-7, max_outer=1000))
    assert out.status == expected_status


def test_petviashvili_iteration_counts_match_contraction_rate():
    # contraction factors 4/7 (m0=10) and 8/9 (m0=5) separate the counts
    fast = petviashvili_solve(_ring_problem(10.0), _ones_seed(),
                              SolverConfig(tol_residual=1e-7, max_outer=1000))
    slow = petviashvili_solve(_ring_problem(5.0), _ones_seed(),
                              SolverConfig(tol_residual=1e-7, max_outer=1000))
    assert 20 <= fast.iterations <= 40
    assert 100 <= slow.iterations <= 160
    assert slow.iterations > 3 * fast.iterations


def test_petviashvili_records_terminal_factor():
    out = petviashvili_solve(_ring_problem(10.0), _ones_seed(),
                             SolverConfig(tol_residual=1e-10, max_outer=1000))
    assert out.converged
    assert len(out.trace.stab_factors) == len(out.trace.residuals)
    assert abs(out.trace.stab_factors[-1] - 1.0) < 1e-8


@pytest.mark.parametrize("m0", [10.0, 5.0])
def test_petviashvili_residual_monotone_when_convergent(m0):
    out = petviashvili_solve(_ring_problem(m0), _ones_seed(),
                             SolverConfig(tol_residual=1e-10, max_outer=1000))
    res = np.asarray(out.trace.residuals)
    assert out.converged
    assert np.all(np.diff(res) <= 1e-12)


# A = A^{-1} = I on R^1
_IDENTITY = LinearOperator(dim=1, apply=lambda v: v)


def test_petviashvili_requires_split():
    problem = ProblemSpec(F=lambda x: x)
    with pytest.raises(ValueError, match="homogeneous split"):
        petviashvili_solve(problem, np.ones(1), SolverConfig())


def test_petviashvili_requires_fixed_point_map():
    split = HomogeneousSplit(linear=_IDENTITY, inverse=_IDENTITY, degree=2.0)
    problem = ProblemSpec(F=lambda x: x - x * x, homogeneous_split=split)
    with pytest.raises(ValueError, match="fixed-point map"):
        petviashvili_solve(problem, np.ones(1), SolverConfig())


def test_homogeneous_split_rejects_degree_one():
    # the stabilizing exponent d/(d - 1) is undefined for a linear "nonlinearity"
    with pytest.raises(ValueError, match="degree 1"):
        HomogeneousSplit(linear=_IDENTITY, inverse=_IDENTITY, degree=1.0)


def test_petviashvili_exponent_follows_the_degree():
    # A = I, N(x) = x^2: from x0 = 3, s = 1/3 and gamma = 2 give s^2 * 9 = 1,
    # the fixed point, in one step; gamma = 2/3 would overshoot to 9^(2/3) and diverge
    split = HomogeneousSplit(linear=_IDENTITY, inverse=_IDENTITY, degree=2.0)
    problem = ProblemSpec(F=lambda x: x - x * x, G=lambda x: x * x, homogeneous_split=split)
    out = petviashvili_solve(problem, np.array([3.0]),
                             SolverConfig(tol_residual=1e-12, max_outer=50))
    assert out.status == CONVERGED_RESIDUAL
    assert out.iterations == 1
    assert abs(out.x[0] - 1.0) < 1e-12
    assert abs(petviashvili_map(problem)(np.array([3.0]))[0] - 1.0) < 1e-12


def test_petviashvili_zero_denominator_diverges():
    # G rotates by 90 degrees and A = I, so <A G(x), x> = 0 identically
    identity = LinearOperator(dim=2, apply=lambda v: v)
    split = HomogeneousSplit(linear=identity, inverse=identity, degree=-2)
    problem = ProblemSpec(F=lambda x: x - np.array([-x[1], x[0]]),
                          G=lambda x: np.array([-x[1], x[0]]), homogeneous_split=split)
    out = petviashvili_solve(problem, np.array([1.0, 0.0]), SolverConfig())
    assert out.status == DIVERGED
    assert "denominator" in out.message


def test_petviashvili_negative_factor_diverges():
    split = HomogeneousSplit(linear=_IDENTITY, inverse=_IDENTITY, degree=-2)
    problem = ProblemSpec(F=lambda x: 2 * x, G=lambda x: -x, homogeneous_split=split)
    out = petviashvili_solve(problem, np.ones(1), SolverConfig())
    assert out.status == DIVERGED
    assert "negative" in out.message


def test_petviashvili_map_matches_solver_step():
    problem = _ring_problem(10.0)
    step = petviashvili_map(problem)
    x0 = polygon_solution(2) + 1e-2 * np.array([1.0, -1.0, 0.5, 0.25])
    out = petviashvili_solve(problem, x0,
                             SolverConfig(tol_residual=1e-30, max_outer=1))
    assert out.status == MAX_ITERATIONS
    assert np.allclose(step(x0), out.x, atol=1e-13)


# ---------------- Newton-Krylov ----------------

def test_newton_scalar_quadratic():
    problem = ProblemSpec(
        F=lambda x: np.array([x[0] ** 2 - 4.0]),
        jacobian_at=lambda x: LinearOperator(dim=1, apply=lambda v, x=x: 2 * x[0] * v),
    )
    out = newton_solve(problem, np.array([3.0]),
                       SolverConfig(tol_residual=1e-12, max_outer=50))
    assert out.converged
    assert abs(out.x[0] - 2.0) < 1e-10
    # quadratic convergence reaches 1e-12 from 3.0 within a handful of steps
    assert out.iterations <= 8


def test_newton_requires_jacobian():
    problem = ProblemSpec(F=lambda x: x)
    with pytest.raises(ValueError, match="jacobian"):
        newton_solve(problem, np.ones(1), SolverConfig())


def test_newton_linear_system_single_step():
    A = np.diag([2.0, 5.0])
    b = np.array([2.0, 10.0])
    problem = ProblemSpec(
        F=lambda x: A @ x - b,
        jacobian_at=lambda x: LinearOperator(dim=2, apply=lambda v: A @ v),
    )
    out = newton_solve(problem, np.zeros(2),
                       SolverConfig(tol_residual=1e-12, max_outer=10))
    assert out.converged
    assert np.allclose(out.x, [1.0, 2.0], atol=1e-10)


def test_newton_converges_on_an_indefinite_jacobian():
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    problem = ProblemSpec(
        F=lambda x: A @ x - b,
        jacobian_at=lambda x: LinearOperator(dim=2, apply=lambda v: A @ v),
    )
    out = newton_solve(problem, np.zeros(2),
                       SolverConfig(tol_residual=1e-12, max_outer=10))
    assert out.converged
    assert np.allclose(out.x, [1.0, -1.0], atol=1e-10)
    assert out.inner_iterations > 0


def test_newton_default_config_runs_preconditioned_minres_once_a_step(monkeypatch):
    # an indefinite diagonal J, on which conjugate gradients can break down
    a = np.array([1.0, -2.0, 4.0])
    b = np.ones(3)
    problem = ProblemSpec(
        F=lambda x: a * x + 0.1 * x ** 3 - b,
        jacobian_at=lambda x: LinearOperator(dim=3, apply=lambda v: (a + 0.3 * x ** 2) * v),
    )
    preconds = []
    real = solvers.minres

    def recording(*args, **kwargs):
        preconds.append(kwargs.get("precond"))
        return real(*args, **kwargs)

    def abs_inverse(v):
        return v / np.abs(a)

    monkeypatch.setattr(solvers, "minres", recording)
    out = newton_solve(problem, np.zeros(3), SolverConfig(), precond=abs_inverse)
    assert out.converged and out.iterations >= 3
    # one call a step, none on the terminal iterate, each with the caller's preconditioner
    assert len(preconds) == out.iterations == len(out.trace) - 1
    assert all(p is abs_inverse for p in preconds)
    assert out.inner_iterations == sum(out.trace.inner_iterations[:-1])


def test_newton_minres_branch_applies_the_preconditioner():
    A = np.diag([1.0, -2.0, 4.0])
    b = np.array([1.0, 1.0, 1.0])
    problem = ProblemSpec(
        F=lambda x: A @ x - b,
        jacobian_at=lambda x: LinearOperator(dim=3, apply=lambda v: A @ v),
    )
    calls = []

    def abs_inverse(v):
        calls.append(1)
        return v / np.abs(np.diag(A))

    config = SolverConfig(tol_residual=1e-12, max_outer=10)
    plain = newton_solve(problem, np.zeros(3), config)
    out = newton_solve(problem, np.zeros(3), config, precond=abs_inverse)
    assert out.converged and np.allclose(out.x, b / np.diag(A), atol=1e-12)
    assert calls
    # |A|^{-1} A has eigenvalues +-1 only, so MINRES needs two iterations
    assert out.inner_iterations == 2 < plain.inner_iterations


def test_newton_projects_steps_off_the_generators():
    A = np.diag([2.0, 3.0])
    b = np.array([2.0, 3.0])
    problem = ProblemSpec(
        F=lambda x: A @ x - b,
        jacobian_at=lambda x: LinearOperator(dim=2, apply=lambda v: A @ v),
    )
    out = newton_solve(problem, np.array([0.5, 0.0]),
                       SolverConfig(tol_residual=1e-12, max_outer=3),
                       generators=lambda x: [np.array([5.0, 0.0])])
    # the first coordinate lies along the generator and is never updated
    assert out.status == MAX_ITERATIONS
    assert out.x[0] == 0.5 and abs(out.x[1] - 1.0) < 1e-12
    # a zero generator (a fixed point of the group) removes nothing
    out = newton_solve(problem, np.array([0.5, 0.0]),
                       SolverConfig(tol_residual=1e-12, max_outer=3),
                       generators=lambda x: [np.zeros(2), np.array([5.0, 0.0])])
    assert out.x[0] == 0.5 and abs(out.x[1] - 1.0) < 1e-12
    out = newton_solve(problem, np.array([0.5, 0.0]),
                       SolverConfig(tol_residual=1e-12, max_outer=3),
                       generators=lambda x: [np.zeros(2)])
    assert out.converged and np.allclose(out.x, [1.0, 1.0], atol=1e-12)


def test_ring_newton_on_the_quotient():
    # 64-body ring: the rotation generator spans the Jacobian's kernel at the
    # polygon, so each step is solved on the slice transverse to the orbit
    problem = build_nbody(NBodyConfig(n=64, m0=10.0))
    q0 = polygon_solution(64) + 0.03 * np.ones(128)
    config = SolverConfig(tol_residual=1e-10)
    generators = rotation_action().generators
    iterates = []

    def F(q):
        iterates.append(q.copy())
        return problem.F(q)

    out = newton_solve(replace(problem, F=F), q0, config, generators=generators)
    assert out.status == CONVERGED_RESIDUAL and out.iterations <= 3
    eps = np.finfo(float).eps
    for x, x_next in zip(iterates, iterates[1:]):
        step = x_next - x
        g = generators(x)[0]
        # relative 1e-12, plus the rounding of the update x + dx itself
        bound = (1e-12 * np.linalg.norm(step) + eps * np.linalg.norm(x_next)) * np.linalg.norm(g)
        assert abs(np.dot(step, g)) <= bound
    plain = newton_solve(problem, q0, config)
    assert plain.converged
    assert out.inner_iterations < plain.inner_iterations


def test_newton_stalls_out_when_inner_budget_never_helps():
    # constant residual plus an ill-conditioned Jacobian: every inner solve
    # exhausts its budget and the outer residual never moves, so the run
    # must be cut off after 3 such steps
    dim = 30
    diag = np.linspace(1e-8, 1.0, dim)
    b = np.ones(dim) / np.sqrt(dim)
    problem = ProblemSpec(
        F=lambda x: b,
        jacobian_at=lambda x: LinearOperator(dim=dim, apply=lambda v: diag * v),
    )
    out = newton_solve(problem, np.zeros(dim),
                       SolverConfig(tol_residual=1e-12, max_outer=100, inner_maxit=5))
    assert out.status == MAX_ITERATIONS
    assert "without outer progress" in out.message
    assert out.iterations <= 5


# ---------------- spectra and diagnostics ----------------

def test_petviashvili_spectrum_has_unit_symmetry_eigenvalue():
    problem = _ring_problem(10.0)
    rep = iteration_matrix_spectrum(problem, polygon_solution(2), stabilized=True)
    assert rep.count_near_unit >= 1
    assert rep.dominant_modulus < 1.0 + 1e-6


def _iteration_matrix(monkeypatch, problem, xstar, stabilized=False):
    """The dense D that iteration_matrix_spectrum hands to dense_eigenvalues."""
    operators = []
    monkeypatch.setattr(solvers, "dense_eigenvalues", operators.append)
    iteration_matrix_spectrum(problem, xstar, stabilized=stabilized)
    return materialize(operators[0])


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("m0", [0.0, 10.0])
def test_stabilized_iteration_matrix_matches_differenced_ring_step(monkeypatch, n, m0):
    problem = build_nbody(NBodyConfig(n=n, m0=m0))
    qstar = polygon_solution(n)
    D = _iteration_matrix(monkeypatch, problem, qstar, stabilized=True)
    fd = fd_jacobian(petviashvili_map(problem), qstar)
    assert np.max(np.abs(D - fd)) <= 1e-8


def test_stabilized_iteration_matrix_matches_differenced_wave_step(monkeypatch):
    # the closed form holds at a solution; the closed-form profile leaves
    # |F| ~ 4e-7 on this grid, which bounds the agreement with differences
    profile = exact_profile(0.9, 128, 12.5)
    problem = build_bs_problem(BSParams(theta2=0.9, speed=profile.speed, n=128,
                                        half_length=12.5))
    D = _iteration_matrix(monkeypatch, problem, profile.wave, stabilized=True)
    fd = fd_jacobian(petviashvili_map(problem), profile.wave)
    assert np.max(np.abs(D - fd)) <= 1e-6


def test_plain_iteration_matrix_is_the_scaled_ring_hessian(monkeypatch):
    # G = -grad U / omega^2, so D = -hess_U / omega^2
    cfg = NBodyConfig(n=64, m0=10.0)
    qstar = polygon_solution(64)
    D = _iteration_matrix(monkeypatch, build_nbody(cfg), qstar)
    expected = -hess_U(cfg, qstar) / cfg.omega ** 2
    assert np.max(np.abs(D - expected)) <= 1e-12


def test_iteration_matrix_spectrum_requires_jacobian_and_split():
    with pytest.raises(ValueError, match="homogeneous split"):
        iteration_matrix_spectrum(ProblemSpec(F=lambda x: x), np.ones(1))


def test_iteration_matrix_spectrum_refuses_large_dimension_before_any_apply():
    dim = DENSE_DIM_LIMIT + 1
    identity = LinearOperator(dim=dim, apply=lambda v: v)
    applies = []

    def apply(v):
        applies.append(v)
        return v

    def jacobian_at(x):
        return LinearOperator(dim=dim, apply=apply)

    problem = ProblemSpec(F=lambda x: x, jacobian_at=jacobian_at,
                          homogeneous_split=HomogeneousSplit(identity, identity, 2.0))
    for stabilized in (False, True):
        with pytest.raises(ValueError, match="limit"):
            iteration_matrix_spectrum(problem, np.ones(dim), stabilized=stabilized)
    assert not applies


def test_convergence_ratios():
    errs = [1.0, 0.5, 0.25, 0.125]
    assert np.allclose(convergence_ratios(errs), 0.5)
    # truncates at the first exact zero
    assert len(convergence_ratios([1.0, 0.5, 0.0, 0.0])) == 1
    assert len(convergence_ratios([1.0])) == 0


def test_stopping_rules_agree_on_convergent_runs():
    # rerunning with the first run's limit as reference must land on the
    # same point, whichever stopping test fires
    for m0 in (10.0, 5.0):
        problem = _ring_problem(m0)
        by_res = petviashvili_solve(problem, _ones_seed(),
                                    SolverConfig(tol_residual=1e-10, max_outer=1000))
        assert by_res.status == CONVERGED_RESIDUAL

        again = petviashvili_solve(problem, _ones_seed(),
                                   SolverConfig(tol_residual=1e-8, max_outer=1000),
                                   reference=by_res.x)
        assert again.converged
        assert np.linalg.norm(again.x - by_res.x) < 1e-6
        # the reference column tracks the true distance all along
        ref_errors = np.asarray(again.trace.ref_errors, dtype=float)
        assert np.all(np.isfinite(ref_errors))
        assert ref_errors[-1] < ref_errors[0]


def test_trace_rows_align():
    out = petviashvili_solve(_ring_problem(10.0), _ones_seed(),
                             SolverConfig(tol_residual=1e-10, max_outer=1000),
                             reference=polygon_solution(2))
    rows = list(out.trace.rows())
    assert len(rows) == len(out.trace.residuals) == out.iterations + 1
    n, residual, ref_error, stab, step_norm, inner_tol, inner_its, inner_res = rows[0]
    assert n == 0 and residual > 0 and ref_error is not None and stab is not None
    # the terminal row carries no step norm; a fixed-point run has no inner solves
    assert rows[-1][4] is None
    assert all(row[5:] == (None, None, None) for row in rows)


def _record_minres_tols(monkeypatch):
    tols = []
    real = solvers.minres

    def recording(*args, **kwargs):
        tols.append(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "minres", recording)
    return tols


def test_newton_without_generators_solves_every_step_to_inner_tol(monkeypatch):
    # J is singular along the ring's orbit, so no forcing term applies
    tols = _record_minres_tols(monkeypatch)
    problem = build_nbody(NBodyConfig(n=16, m0=10.0))
    config = SolverConfig(tol_residual=1e-10, inner_tol=1e-9)
    out = newton_solve(problem, polygon_solution(16) + 0.03 * np.ones(32), config)
    assert out.converged and out.iterations >= 2
    assert tols == [config.inner_tol] * out.iterations
    assert out.trace.inner_tols == tols + [None]


def test_newton_trace_records_each_quotient_inner_solve(monkeypatch):
    tols = _record_minres_tols(monkeypatch)
    problem = build_nbody(NBodyConfig(n=16, m0=10.0))
    config = SolverConfig(tol_residual=1e-10)
    out = newton_solve(problem, polygon_solution(16) + 0.03 * np.ones(32), config,
                       generators=rotation_action().generators)
    assert out.converged and out.iterations >= 2
    rows = list(out.trace.rows())
    assert [row[5] for row in rows[:-1]] == tols
    assert tols[0] == EW_ETA_MAX
    assert all(config.inner_tol <= tol <= EW_ETA_MAX for tol in tols)
    assert sum(row[6] for row in rows[:-1]) == out.inner_iterations
    assert all(row[7] >= 0.0 for row in rows[:-1])
    assert rows[-1][5:] == (None, None, None)
