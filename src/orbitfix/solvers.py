"""Outer iterations for algebraic systems whose solutions form group orbits.

The three drivers (fixed-point, stabilized fixed-point, Newton-Krylov)
share one trace format and one status vocabulary. A run that stalls on
the residual may still converge to some element of the solution orbit,
so traces carry both the residual and, when a reference is supplied, the
distance to that fixed reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .numlin import KrylovStats, LinearOperator, dense_eigenvalues, fd_jacobian, materialize, minres, pcg

__all__ = [
    "CONVERGED_RESIDUAL",
    "CONVERGED_REFERENCE",
    "MAX_ITERATIONS",
    "DIVERGED",
    "STATUSES",
    "HomogeneousSplit",
    "ProblemSpec",
    "SolverConfig",
    "IterationTrace",
    "SolveOutcome",
    "fixed_point_solve",
    "petviashvili_solve",
    "petviashvili_map",
    "newton_solve",
    "iteration_matrix_spectrum",
    "convergence_ratios",
]

CONVERGED_RESIDUAL = "ConvergedResidual"
CONVERGED_REFERENCE = "ConvergedReference"
MAX_ITERATIONS = "MaxIterations"
DIVERGED = "Diverged"
STATUSES = (CONVERGED_RESIDUAL, CONVERGED_REFERENCE, MAX_ITERATIONS, DIVERGED)


@dataclass(frozen=True)
class HomogeneousSplit:
    """F(x) = A x - N(x), A = linear, N = A G of degree d != 1 (exponent d/(d - 1))."""

    linear: LinearOperator
    degree: float

    def __post_init__(self):
        if self.degree == 1:
            raise ValueError("degree 1 leaves the stabilizing exponent d/(d - 1) undefined")


@dataclass(frozen=True)
class ProblemSpec:
    """Algebraic system F(x) = 0 with optional extra structure.

    G is a fixed-point form (x = G(x) at solutions) and jacobian_at maps a
    point to the derivative of F as a LinearOperator. The stabilized
    fixed-point driver needs both G = A^{-1}N and homogeneous_split.
    """

    F: Callable[[np.ndarray], np.ndarray]
    G: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_at: Optional[Callable[[np.ndarray], LinearOperator]] = None
    homogeneous_split: Optional[HomogeneousSplit] = None


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-7
    max_outer: int = 1000
    inner_solver: str = "pcg"
    inner_tol: float = 1e-10
    inner_maxit: int = 500
    divergence_cap: float = 1e8

    def __post_init__(self):
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.inner_solver not in ("pcg", "minres"):
            raise ValueError("inner_solver must be 'pcg' or 'minres'")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.inner_maxit < 1:
            raise ValueError("inner_maxit must be >= 1")
        if not self.divergence_cap > 0.0:
            raise ValueError("divergence_cap must be positive")


@dataclass
class IterationTrace:
    """Per-iterate history; row k describes iterate k.

    ref_errors is None-filled when no reference was supplied,
    stab_factors is None-filled outside the stabilized driver, and the
    terminal row has no step norm.
    """

    residuals: List[float] = field(default_factory=list)
    ref_errors: List[Optional[float]] = field(default_factory=list)
    stab_factors: List[Optional[float]] = field(default_factory=list)
    step_norms: List[Optional[float]] = field(default_factory=list)

    def append(self, residual, ref_error=None, stab_factor=None):
        self.residuals.append(residual)
        self.ref_errors.append(ref_error)
        self.stab_factors.append(stab_factor)
        self.step_norms.append(None)

    def set_step_norm(self, value):
        self.step_norms[-1] = value

    def __len__(self):
        return len(self.residuals)

    def rows(self):
        """(n, residual, ref_error, stab_factor, step_norm) tuples."""
        for k in range(len(self.residuals)):
            yield (k, self.residuals[k], self.ref_errors[k],
                   self.stab_factors[k], self.step_norms[k])


@dataclass
class SolveOutcome:
    status: str
    x: np.ndarray
    trace: IterationTrace
    iterations: int
    message: str = ""
    inner_iterations: int = 0
    pcg_fallbacks: int = 0

    @property
    def converged(self) -> bool:
        return self.status in (CONVERGED_RESIDUAL, CONVERGED_REFERENCE)


def _classify(n, residual, ref_error, config):
    """Shared stopping logic; returns a status or None to continue."""
    if not np.isfinite(residual) or residual > config.divergence_cap:
        return DIVERGED
    if residual <= config.tol_residual:
        return CONVERGED_RESIDUAL
    if ref_error is not None and ref_error <= config.tol_residual:
        return CONVERGED_REFERENCE
    if n == config.max_outer:
        return MAX_ITERATIONS
    return None


def fixed_point_solve(problem: ProblemSpec, x0: np.ndarray,
                      config: Optional[SolverConfig] = None,
                      reference: Optional[np.ndarray] = None) -> SolveOutcome:
    """Direct iteration x <- G(x); the residual is the fixed-point gap."""
    if problem.G is None:
        raise ValueError("fixed_point_solve requires a fixed-point map G")
    config = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    trace = IterationTrace()
    for n in range(config.max_outer + 1):
        gx = problem.G(x)
        residual = float(np.linalg.norm(x - gx))
        ref_error = None if reference is None else float(np.linalg.norm(x - reference))
        trace.append(residual, ref_error)
        status = _classify(n, residual, ref_error, config)
        if status is not None:
            return SolveOutcome(status, x, trace, n)
        trace.set_step_norm(float(np.linalg.norm(gx - x)))
        x = np.asarray(gx, dtype=float)
    raise AssertionError("unreachable")


def _stabilized_parts(problem: ProblemSpec):
    """(parts, gamma): parts(x) = (G(x), <Ax,x>/<A G(x),x> or None at 0), gamma = d/(d-1)."""
    split = problem.homogeneous_split
    if split is None:
        raise ValueError("the stabilized iteration requires a homogeneous split")
    if problem.G is None:
        raise ValueError("the stabilized iteration requires the fixed-point map G = A^{-1}N")

    def parts(x):
        gx = np.asarray(problem.G(x), dtype=float)
        den = float(np.dot(split.linear(gx), x))
        s = float(np.dot(split.linear(x), x) / den) if den != 0.0 else None
        return gx, s

    return parts, split.degree / (split.degree - 1.0)


def _stabilized_next(gx: np.ndarray, s: float, gamma: float) -> np.ndarray:
    """The stabilized step s^gamma A^{-1}N(x)."""
    return (s ** gamma) * gx


def petviashvili_solve(problem: ProblemSpec, x0: np.ndarray,
                       config: Optional[SolverConfig] = None,
                       reference: Optional[np.ndarray] = None) -> SolveOutcome:
    """Stabilized fixed-point iteration for F(x) = Ax - N(x), N homogeneous.

    Each step scales G(x) = A^{-1}N(x) by s^gamma, s = <Ax,x>/<N(x),x> and
    gamma = d/(d - 1) from the split's degree d. At a solution s = 1, so the
    recorded factors approach one on convergent runs, the terminal one included.
    """
    parts, gamma = _stabilized_parts(problem)
    config = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    trace = IterationTrace()
    for n in range(config.max_outer + 1):
        gx, s = parts(x)
        residual = float(np.linalg.norm(x - gx))
        ref_error = None if reference is None else float(np.linalg.norm(x - reference))
        trace.append(residual, ref_error, s)
        status = _classify(n, residual, ref_error, config)
        if status is not None:
            return SolveOutcome(status, x, trace, n)
        if s is None:
            return SolveOutcome(DIVERGED, x, trace, n,
                                message="stabilizing factor has zero denominator")
        if s < 0.0 and not float(gamma).is_integer():
            return SolveOutcome(DIVERGED, x, trace, n,
                                message="negative stabilizing factor with non-integer exponent")
        x_next = _stabilized_next(gx, s, gamma)
        trace.set_step_norm(float(np.linalg.norm(x_next - x)))
        x = x_next
    raise AssertionError("unreachable")


def petviashvili_map(problem: ProblemSpec) -> Callable:
    """One step of the stabilized iteration, as a plain map for spectra."""
    parts, gamma = _stabilized_parts(problem)
    return lambda x: _stabilized_next(*parts(x), gamma)


def _orthogonal_projector(vectors) -> Callable[[np.ndarray], np.ndarray]:
    """v -> v minus its orthogonal projection onto span(vectors).

    Gram-Schmidt over the few generator vectors. A vector that projects to
    exactly zero, such as a generator at a fixed point of the group, adds
    nothing.
    """
    basis = []

    def project(v):
        for q in basis:
            v = v - np.dot(q, v) * q
        return v

    for g in vectors:
        g = project(np.asarray(g, dtype=float))
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            basis.append(g / norm)
    return project


def newton_solve(problem: ProblemSpec, x0: np.ndarray,
                 config: Optional[SolverConfig] = None,
                 reference: Optional[np.ndarray] = None,
                 precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 generators: Optional[Callable] = None) -> SolveOutcome:
    """Newton iteration with an iterative linear solve per step.

    The correction solves J(x) dx = -F(x) with PCG or MINRES per
    config.inner_solver; both use precond, a symmetric positive definite
    approximation of J^{-1}, when given. On a PCG breakdown, which is
    expected when J is indefinite, the step falls back to unpreconditioned
    MINRES and the event is counted.

    generators, when given, maps a point to the tangent vectors of its
    group orbit (as GroupAction.generators does). Each step then solves on
    a slice of the quotient: -F(x) and dx are both projected orthogonal to
    the generators at x, so the symmetry-induced null direction of J never
    enters the inner solve and the step has no component along the orbit.

    Three consecutive steps whose inner solve exhausts its budget without
    reducing the residual classify the run as MaxIterations.
    """
    if problem.jacobian_at is None:
        raise ValueError("newton_solve requires jacobian_at")
    config = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    trace = IterationTrace()
    inner_total = 0
    fallbacks = 0
    stall = 0
    prev_residual = None
    prev_budget_hit = False
    for n in range(config.max_outer + 1):
        fx = np.asarray(problem.F(x), dtype=float)
        residual = float(np.linalg.norm(fx))
        ref_error = None if reference is None else float(np.linalg.norm(x - reference))
        trace.append(residual, ref_error)
        status = _classify(n, residual, ref_error, config)
        if status is not None:
            return SolveOutcome(status, x, trace, n,
                                inner_iterations=inner_total, pcg_fallbacks=fallbacks)
        if prev_budget_hit and prev_residual is not None and residual >= prev_residual:
            stall += 1
            if stall >= 3:
                return SolveOutcome(
                    MAX_ITERATIONS, x, trace, n,
                    message="inner solver repeatedly hit its budget without outer progress",
                    inner_iterations=inner_total, pcg_fallbacks=fallbacks)
        else:
            stall = 0

        jac = problem.jacobian_at(x)
        rhs = -fx
        if generators is not None:
            deflate = _orthogonal_projector(generators(x))
            rhs = deflate(rhs)
        if config.inner_solver == "pcg":
            dx, stats = pcg(jac, rhs, precond, tol=config.inner_tol, maxit=config.inner_maxit)
            inner_total += stats.iterations
            if stats.breakdown:
                fallbacks += 1
                dx, stats = minres(jac, rhs, tol=config.inner_tol, maxit=config.inner_maxit)
                inner_total += stats.iterations
        else:
            dx, stats = minres(jac, rhs, tol=config.inner_tol, maxit=config.inner_maxit,
                               precond=precond)
            inner_total += stats.iterations
        if generators is not None:
            dx = deflate(dx)
        prev_budget_hit = stats.iterations >= config.inner_maxit
        prev_residual = residual
        trace.set_step_norm(float(np.linalg.norm(dx)))
        x = x + dx
    raise AssertionError("unreachable")


def iteration_matrix_spectrum(step_map: Callable, xstar: np.ndarray,
                              jacobian: Optional[Callable] = None):
    """Spectrum of the iteration's derivative at a fixed point.

    The derivative is differenced from step_map unless an analytic
    jacobian (point -> matrix or LinearOperator) is supplied.
    """
    xstar = np.asarray(xstar, dtype=float)
    if jacobian is not None:
        m = materialize(jacobian(xstar))
    else:
        m = fd_jacobian(step_map, xstar)
    return dense_eigenvalues(m)


def convergence_ratios(values) -> np.ndarray:
    """Successive ratios of a positive decreasing sequence.

    The sequence is cut at the first exact zero (converged-to-roundoff
    tails carry no rate information).
    """
    vals = [float(v) for v in values]
    out = []
    for a, b in zip(vals, vals[1:]):
        if a == 0.0 or b == 0.0:
            break
        out.append(b / a)
    return np.asarray(out)
