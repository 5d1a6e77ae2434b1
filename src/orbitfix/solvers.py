"""Outer iterations for algebraic systems whose solutions form group orbits.

The three drivers (fixed-point, stabilized fixed-point, Newton-Krylov)
share one trace format and one status vocabulary, and each outcome
carries |F| at the returned state. A run that stalls on the residual may
still converge to some element of the solution orbit, so traces carry
both the residual and, when a reference is supplied, the distance to that
fixed reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .numlin import LinearOperator, check_dense_dim, dense_eigenvalues, materialize, minres
from .numlin import pcg  # noqa: F401  for perfbench's hook of this name

__all__ = [
    "CONVERGED_RESIDUAL",
    "CONVERGED_REFERENCE",
    "MAX_ITERATIONS",
    "DIVERGED",
    "STATUSES",
    "DomainError",
    "HomogeneousSplit",
    "ProblemSpec",
    "SolverConfig",
    "TraceRow",
    "SolveOutcome",
    "AndersonMixer",
    "fixed_point_solve",
    "petviashvili_solve",
    "newton_solve",
    "iteration_matrix_spectrum",
]

# Eisenstat-Walker choice 2 forcing terms of the quotient Newton solve
# (SIAM J. Sci. Comput. 17, 1996); see _forcing_term
EW_ETA_MAX = 0.1
EW_GAMMA = 0.9
EW_FINISH = 100.0

CONVERGED_RESIDUAL = "ConvergedResidual"
CONVERGED_REFERENCE = "ConvergedReference"
MAX_ITERATIONS = "MaxIterations"
DIVERGED = "Diverged"
STATUSES = (CONVERGED_RESIDUAL, CONVERGED_REFERENCE, MAX_ITERATIONS, DIVERGED)

# a residual above this classifies the run as Diverged
DIVERGENCE_CAP = 1e8


class DomainError(ValueError):
    """F or G at a point outside the problem's domain: the drivers end the run Diverged there."""


@dataclass(frozen=True)
class HomogeneousSplit:
    """F(x) = A x - N(x) (residual) and G = A^{-1}N (fixed_point_map), with A = linear,
    A^{-1} = inverse and N = nonlinear, homogeneous of degree d != 1."""

    linear: LinearOperator
    inverse: LinearOperator
    nonlinear: Callable[[np.ndarray], np.ndarray]
    degree: float

    def __post_init__(self):
        if self.degree == 1:
            raise ValueError("degree 1 leaves the stabilizing exponent d/(d - 1) undefined")

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.linear.apply(x) - self.nonlinear(x)

    def fixed_point_map(self, x: np.ndarray) -> np.ndarray:
        return self.inverse.apply(self.nonlinear(x))


@dataclass(frozen=True)
class ProblemSpec:
    """Algebraic system F(x) = 0 with optional extra structure.

    G is a fixed-point form (x = G(x) at solutions) and jacobian_at maps a
    point to the derivative J of F as a LinearOperator. A homogeneous_split
    gives F and G; the stabilized fixed-point driver needs it, and
    iteration_matrix_spectrum needs it and jacobian_at.
    """

    F: Callable[[np.ndarray], np.ndarray]
    G: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_at: Optional[Callable[[np.ndarray], LinearOperator]] = None
    homogeneous_split: Optional[HomogeneousSplit] = None


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets; anderson is the window of Anderson mixing in
    the fixed-point drivers (0 runs the plain iteration; Newton ignores it)."""

    tol_residual: float = 1e-7
    max_outer: int = 1000
    inner_tol: float = 1e-10
    inner_maxit: int = 500
    anderson: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError("inner_tol must be positive and finite")
        if self.inner_maxit < 1:
            raise ValueError("inner_maxit must be >= 1")
        if self.anderson < 0:
            raise ValueError("anderson must be >= 0")


class TraceRow(NamedTuple):
    """One iterate of a run; its fields, in order, are trace.csv's header.

    ref_error is None when no reference was supplied, stab_factor outside
    the stabilized driver, and step_norm on the terminal row. inner_tol,
    inner_iterations and inner_residual describe the linear solve of a
    Newton step (the relative tolerance it was given, its iteration count
    and its true relative residual); they are None in the fixed-point
    drivers and on the terminal row.
    """

    n: int
    residual: float
    ref_error: Optional[float] = None
    stab_factor: Optional[float] = None
    step_norm: Optional[float] = None
    inner_tol: Optional[float] = None
    inner_iterations: Optional[int] = None
    inner_residual: Optional[float] = None


@dataclass
class SolveOutcome:
    """How a run ended. f_norm is |F(x)| at the returned x."""

    status: str
    x: np.ndarray
    trace: List[TraceRow]  # one row per iterate, the terminal one last
    f_norm: float
    message: str = ""

    @property
    def iterations(self) -> int:
        """The terminal iterate's index: the steps the run took."""
        return self.trace[-1].n

    @property
    def converged(self) -> bool:
        return self.status in (CONVERGED_RESIDUAL, CONVERGED_REFERENCE)

    @property
    def inner_iterations(self) -> int:
        """Linear-solve iterations over all Newton steps; 0 in the fixed-point drivers."""
        return sum(row.inner_iterations or 0 for row in self.trace)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float vector, bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _classify(n, residual, ref_error, config, accepted=True):
    """Shared stopping logic; returns a status or None to continue.

    A residual below tolerance counts as converged only when accepted.
    """
    if not math.isfinite(residual) or residual > DIVERGENCE_CAP:
        return DIVERGED
    if residual <= config.tol_residual and accepted:
        return CONVERGED_RESIDUAL
    if ref_error is not None and ref_error <= config.tol_residual:
        return CONVERGED_REFERENCE
    if n == config.max_outer:
        return MAX_ITERATIONS
    return None


def _outcome(status, x, trace, f_norm, config, message=""):
    """The SolveOutcome of a stop at the trace's last row.

    Two stops can end with |F| above tolerance and no other word of it, so
    their message names the numbers: a stop on the reference, whatever |F|
    is, and a stop at the budget whose last residual (the fixed-point
    drivers' gap) met tolerance while |F| did not.
    """
    residual, ref_error, tol = trace[-1].residual, trace[-1].ref_error, config.tol_residual
    if status == CONVERGED_REFERENCE:
        message = (f"stopped on the reference: |x - reference| = {ref_error:.3g} <= tol "
                   f"{tol:.3g}, |F(x)| = {f_norm:.3g}")
    elif status == MAX_ITERATIONS and residual <= tol < f_norm:
        message = (f"stopped at the budget: the gap |x - G(x)| = {residual:.3g} met tol "
                   f"{tol:.3g}, |F(x)| = {f_norm:.3g} did not")
    return SolveOutcome(status, x, trace, f_norm, message)


class AndersonMixer:
    """Type-II Anderson mixing with beta = 1 over the last `window` steps.

    Called with an iterate x and the step map's value g = step(x), it returns
    g - dG c, where c minimizes |f - dF c| over the differences dF and dG of
    the last `window` residuals f = g - x and values g (Anderson, J. ACM 12,
    1965). On a linear map this is GMRES (Walker and Ni, SIAM J. Numer. Anal.
    49, 2011), so it can converge where the plain map does not. Least squares
    is invariant under orthogonal maps, so when the step map commutes with an
    orthogonal group action, so does the mixed iteration. A non-finite value
    passes through unmixed, for the caller's divergence check.
    """

    def __init__(self, window: int):
        self.window = window
        self.df: List[np.ndarray] = []
        self.dg: List[np.ndarray] = []
        self.last = None

    def __call__(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(g)):
            return g
        f = g - x
        if self.last is not None:
            self.df.append(f - self.last[0])
            self.dg.append(g - self.last[1])
            if len(self.df) > self.window:
                del self.df[0], self.dg[0]
        self.last = (f, g)
        if not self.df:
            return g
        c = np.linalg.lstsq(np.column_stack(self.df), f, rcond=None)[0]
        return g - np.column_stack(self.dg) @ c


def _fixed_point_loop(F: Callable, step: Callable, x0: np.ndarray, config: SolverConfig,
                      reference: Optional[np.ndarray], tol_on_F: bool = False) -> SolveOutcome:
    """The fixed-point iteration x <- step(x), mixed when config.anderson > 0.

    step(x) returns (G(x), stabilizing factor or None, next iterate or the
    reason there is none). Runs classify on the gap |x - G(x)|; with
    tol_on_F, a gap below tolerance counts as converged only once |F(x)|
    meets it too. |F(x)| is evaluated at most once per iterate: there, and
    at the returned iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace: List[TraceRow] = []
    mix = AndersonMixer(config.anderson) if config.anderson else None
    for n in range(config.max_outer + 1):
        ref_error = None if reference is None else _norm(x - reference)
        try:
            gx, s, nxt = step(x)
        except DomainError as error:
            trace.append(TraceRow(n, math.nan, ref_error))
            return _outcome(DIVERGED, x, trace, math.nan, config, f"iterate {n}: {error}")
        residual = _norm(x - gx)
        f_norm = None
        if tol_on_F and residual <= config.tol_residual:
            f_norm = float(np.linalg.norm(F(x)))
        status = _classify(n, residual, ref_error, config,
                           accepted=f_norm is None or f_norm <= config.tol_residual)
        message = ""
        if status is None and isinstance(nxt, str):
            status, message = DIVERGED, nxt
        if status is not None:
            if f_norm is None:
                f_norm = float(np.linalg.norm(F(x)))
            trace.append(TraceRow(n, residual, ref_error, s))
            return _outcome(status, x, trace, f_norm, config, message)
        if mix is not None:
            nxt = mix(x, nxt)
        trace.append(TraceRow(n, residual, ref_error, s, step_norm=_norm(nxt - x)))
        x = nxt
    raise AssertionError("unreachable")


def fixed_point_solve(problem: ProblemSpec, x0: np.ndarray,
                      config: Optional[SolverConfig] = None,
                      reference: Optional[np.ndarray] = None) -> SolveOutcome:
    """Direct iteration x <- G(x); the residual is the fixed-point gap."""
    if problem.G is None:
        raise ValueError("fixed_point_solve requires a fixed-point map G")

    def step(x):
        gx = np.asarray(problem.G(x), dtype=float)
        return gx, None, gx

    return _fixed_point_loop(problem.F, step, x0, config or SolverConfig(), reference)


def _stabilized_step(problem: ProblemSpec) -> Callable:
    """The stabilized step in _fixed_point_loop's form, from the split alone.

    The next iterate is s^gamma A^{-1}N(x), s = <Ax,x>/<N(x),x>, gamma =
    d/(d-1) from the split's degree d; a step applies N, A^{-1} and A once.
    """
    split = problem.homogeneous_split
    if split is None:
        raise ValueError("the stabilized iteration requires a homogeneous split")
    gamma = split.degree / (split.degree - 1.0)

    def step(x):
        nx = np.asarray(split.nonlinear(x), dtype=float)
        gx = split.inverse.apply(nx)
        den = float(np.dot(nx, x))
        s = float(np.dot(split.linear.apply(x), x) / den) if den != 0.0 else None
        if s is None:
            return gx, s, "stabilizing factor has zero denominator"
        if s < 0.0 and not float(gamma).is_integer():
            return gx, s, "negative stabilizing factor with non-integer exponent"
        return gx, s, (s ** gamma) * gx

    return step


def petviashvili_solve(problem: ProblemSpec, x0: np.ndarray,
                       config: Optional[SolverConfig] = None,
                       reference: Optional[np.ndarray] = None,
                       tol_on_F: bool = False) -> SolveOutcome:
    """Stabilized fixed-point iteration for F(x) = Ax - N(x), N homogeneous.

    Each step scales G(x) = A^{-1}N(x) by s^gamma, s = <Ax,x>/<N(x),x> and
    gamma = d/(d - 1) from the split's degree d. At a solution s = 1, so the
    recorded factors approach one on convergent runs, the terminal one included.
    The trace's residual is the gap |x - G(x)|; the outcome's f_norm is
    |F(x)| by problem.F, not |Ax - A G(x)|, which equals it only in exact
    arithmetic. tol_on_F makes convergence on the residual require both.
    """
    return _fixed_point_loop(problem.F, _stabilized_step(problem), x0,
                             config or SolverConfig(), reference, tol_on_F)


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


def _forcing_term(residual: float, prev_residual: Optional[float],
                  tol: float, inner_tol: float) -> float:
    """Relative tolerance of a quotient Newton step's linear solve.

    eta_0 = EW_ETA_MAX, then eta_k = min(EW_ETA_MAX, EW_GAMMA (|F_k|/|F_k-1|)^2).
    The floor is max(inner_tol, 0.5 tol/|F_k|), the latter capped at
    EW_ETA_MAX: no solve is asked for more than the outer tolerance needs.
    When eta_k |F_k| <= EW_FINISH tol the step can finish the run, and it
    solves to the floor: a preconditioned MINRES measures its residual in a
    weighted norm, so |F| lags the relative residual it reports, and a loose
    finishing step would stop just above tol.
    """
    floor = max(inner_tol, min(EW_ETA_MAX, 0.5 * tol / residual))
    eta = EW_ETA_MAX
    if prev_residual is not None:
        eta = min(EW_ETA_MAX, EW_GAMMA * (residual / prev_residual) ** 2)
    if eta * residual <= EW_FINISH * tol:
        return floor
    return max(eta, floor)


def newton_solve(problem: ProblemSpec, x0: np.ndarray,
                 config: Optional[SolverConfig] = None,
                 reference: Optional[np.ndarray] = None,
                 precond: Optional[LinearOperator] = None,
                 generators: Optional[Callable] = None) -> SolveOutcome:
    """Newton iteration with an iterative linear solve per step.

    The correction solves J(x) dx = -F(x) by MINRES, preconditioned with
    precond, an operator applying a symmetric positive definite
    approximation of J^{-1}, when given. MINRES suits a symmetric
    indefinite J (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975), which
    both built-in problems have: J is singular along the solution orbit and
    has eigenvalues of both signs.

    generators, when given, maps a point to the tangent vectors of its
    group orbit (as GroupAction.generators does). Each step then solves on
    a slice of the quotient: -F(x) and dx are both projected orthogonal to
    the generators at x, so the symmetry-induced null direction of J never
    enters the inner solve and the step has no component along the orbit.
    On the slice J is nonsingular, so the step is an inexact Newton step: the
    inner solve runs to the forcing term of _forcing_term, not to
    config.inner_tol, which becomes its floor. Without generators every
    inner solve runs to config.inner_tol.

    Three consecutive steps whose inner solve exhausts its budget without
    reducing the residual classify the run as MaxIterations.
    """
    if problem.jacobian_at is None:
        raise ValueError("newton_solve requires jacobian_at")
    config = config or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    trace: List[TraceRow] = []
    stall = 0
    prev_residual = None
    prev_budget_hit = False
    for n in range(config.max_outer + 1):
        ref_error = None if reference is None else _norm(x - reference)
        try:
            fx = np.asarray(problem.F(x), dtype=float)
        except DomainError as error:
            trace.append(TraceRow(n, math.nan, ref_error))
            return _outcome(DIVERGED, x, trace, math.nan, config, f"iterate {n}: {error}")
        residual = _norm(fx)
        status = _classify(n, residual, ref_error, config)
        if status is not None:
            trace.append(TraceRow(n, residual, ref_error))
            return _outcome(status, x, trace, residual, config)
        if prev_budget_hit and prev_residual is not None and residual >= prev_residual:
            stall += 1
            if stall >= 3:
                trace.append(TraceRow(n, residual, ref_error))
                return _outcome(MAX_ITERATIONS, x, trace, residual, config,
                                "inner solver repeatedly hit its budget without outer progress")
        else:
            stall = 0

        jac = problem.jacobian_at(x)
        rhs = -fx
        inner_tol = config.inner_tol
        if generators is not None:
            deflate = _orthogonal_projector(generators(x))
            rhs = deflate(rhs)
            inner_tol = _forcing_term(residual, prev_residual, config.tol_residual,
                                      config.inner_tol)
        dx, stats = minres(jac, rhs, tol=inner_tol, maxit=config.inner_maxit, precond=precond)
        if generators is not None:
            dx = deflate(dx)
        trace.append(TraceRow(n, residual, ref_error, step_norm=_norm(dx), inner_tol=inner_tol,
                              inner_iterations=stats.iterations,
                              inner_residual=stats.relative_residual))
        prev_budget_hit = stats.iterations >= config.inner_maxit
        prev_residual = residual
        x = x + dx
    raise AssertionError("unreachable")


def iteration_matrix_spectrum(problem: ProblemSpec, xstar: np.ndarray,
                              stabilized: bool = False):
    """Spectrum of the iteration's derivative D at a fixed point xstar.

    D follows in closed form from the split F = A x - N(x), J = A - DN
    (Pelinovsky and Stepanyants, SIAM J. Numer. Anal. 42, 2004): the plain map
    G = A^{-1}N has D = I - A^{-1}J; at a solution, for DN symmetric with
    DN x = d N(x), the stabilized map adds -d x* <A x*, .>/<A x*, x*>. D is
    a matrix-free LinearOperator, materialized once for dense_eigenvalues.
    """
    split = problem.homogeneous_split
    if split is None or problem.jacobian_at is None:
        raise ValueError("iteration_matrix_spectrum requires jacobian_at and a homogeneous split")
    xstar = np.asarray(xstar, dtype=float)
    check_dense_dim(xstar.size)  # before jacobian_at builds anything
    jac = problem.jacobian_at(xstar)
    row = None
    if stabilized:
        ax = split.linear.apply(xstar)
        row = split.degree * ax / float(np.dot(ax, xstar))

    def apply(v):
        dv = v - split.inverse.apply(jac.apply(v))
        return dv if row is None else dv - np.dot(row, v) * xstar

    return dense_eigenvalues(materialize(LinearOperator(dim=jac.dim, apply=apply)))
