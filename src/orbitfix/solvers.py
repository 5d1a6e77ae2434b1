"""Outer iterations for algebraic systems whose solutions form group orbits.

The three drivers (fixed-point, stabilized fixed-point, Newton-Krylov)
share one trace format and one status vocabulary. A run that stalls on
the residual may still converge to some element of the solution orbit,
so traces carry both the residual and, when a reference is supplied, the
distance to that fixed reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .numlin import LinearOperator, check_dense_dim, dense_eigenvalues, minres
from .numlin import materialize, pcg  # noqa: F401  for perfbench's hooks of these names

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
    "AndersonMixer",
    "fixed_point_solve",
    "petviashvili_solve",
    "petviashvili_map",
    "newton_solve",
    "iteration_matrix_spectrum",
    "convergence_ratios",
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


@dataclass(frozen=True)
class HomogeneousSplit:
    """F(x) = A x - N(x): A = linear, A^{-1} = inverse, N = A G of degree d != 1."""

    linear: LinearOperator
    inverse: LinearOperator
    degree: float

    def __post_init__(self):
        if self.degree == 1:
            raise ValueError("degree 1 leaves the stabilizing exponent d/(d - 1) undefined")


@dataclass(frozen=True)
class ProblemSpec:
    """Algebraic system F(x) = 0 with optional extra structure.

    G is a fixed-point form (x = G(x) at solutions) and jacobian_at maps a
    point to the derivative J of F as a LinearOperator. The stabilized
    fixed-point driver needs both G = A^{-1}N and homogeneous_split;
    iteration_matrix_spectrum needs jacobian_at and homogeneous_split.
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
    divergence_cap: float = 1e8
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
        if not self.divergence_cap > 0.0:
            raise ValueError("divergence_cap must be positive")
        if self.anderson < 0:
            raise ValueError("anderson must be >= 0")


@dataclass
class IterationTrace:
    """Per-iterate history; row k describes iterate k.

    ref_errors is None-filled when no reference was supplied,
    stab_factors is None-filled outside the stabilized driver, and the
    terminal row has no step norm. inner_tols, inner_iterations and
    inner_residuals describe the linear solve of each Newton step (the
    relative tolerance it was given, its iteration count and its true
    relative residual); they are None in the fixed-point drivers and on
    the terminal row.
    """

    # the names of rows()'s cells, in order; trace.csv's header
    COLUMNS = ("n", "residual", "ref_error", "stab_factor", "step_norm",
               "inner_tol", "inner_iterations", "inner_residual")

    residuals: List[float] = field(default_factory=list)
    ref_errors: List[Optional[float]] = field(default_factory=list)
    stab_factors: List[Optional[float]] = field(default_factory=list)
    step_norms: List[Optional[float]] = field(default_factory=list)
    inner_tols: List[Optional[float]] = field(default_factory=list)
    inner_iterations: List[Optional[int]] = field(default_factory=list)
    inner_residuals: List[Optional[float]] = field(default_factory=list)

    def append(self, residual, ref_error=None, stab_factor=None):
        self.residuals.append(residual)
        self.ref_errors.append(ref_error)
        self.stab_factors.append(stab_factor)
        self.step_norms.append(None)
        self.inner_tols.append(None)
        self.inner_iterations.append(None)
        self.inner_residuals.append(None)

    def set_step_norm(self, value):
        self.step_norms[-1] = value

    def set_inner(self, tol, iterations, relative_residual):
        self.inner_tols[-1] = tol
        self.inner_iterations[-1] = iterations
        self.inner_residuals[-1] = relative_residual

    def __len__(self):
        return len(self.residuals)

    def rows(self):
        """One tuple per iterate, its cells named by COLUMNS."""
        for k in range(len(self.residuals)):
            yield (k, self.residuals[k], self.ref_errors[k],
                   self.stab_factors[k], self.step_norms[k], self.inner_tols[k],
                   self.inner_iterations[k], self.inner_residuals[k])


@dataclass
class SolveOutcome:
    """How a run ended. f_norm is |F(x)| at the returned x from the drivers
    that evaluate F (Newton and the stabilized driver), else None."""

    status: str
    x: np.ndarray
    trace: IterationTrace
    iterations: int
    message: str = ""
    f_norm: Optional[float] = None

    @property
    def converged(self) -> bool:
        return self.status in (CONVERGED_RESIDUAL, CONVERGED_REFERENCE)

    @property
    def inner_iterations(self) -> int:
        """Linear-solve iterations over all Newton steps; 0 in the fixed-point drivers."""
        return sum(k for k in self.trace.inner_iterations if k is not None)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float vector, bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _classify(n, residual, ref_error, config, accept=None):
    """Shared stopping logic; returns a status or None to continue.

    accept, when given, is asked before a residual below tolerance counts
    as converged.
    """
    if not math.isfinite(residual) or residual > config.divergence_cap:
        return DIVERGED
    if residual <= config.tol_residual and (accept is None or accept()):
        return CONVERGED_RESIDUAL
    if ref_error is not None and ref_error <= config.tol_residual:
        return CONVERGED_REFERENCE
    if n == config.max_outer:
        return MAX_ITERATIONS
    return None


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


def _fixed_point_loop(step: Callable, x0: np.ndarray, config: SolverConfig,
                      reference: Optional[np.ndarray], tol_on_F: bool = False) -> SolveOutcome:
    """The fixed-point iteration x <- step(x), mixed when config.anderson > 0.

    step(x) returns (G(x), stabilizing factor or None, next iterate or the
    reason there is none, |F(x)| as a zero-argument callable or None). Runs
    classify on the gap |x - G(x)|; with tol_on_F, a gap below tolerance
    counts as converged only once |F(x)| meets it too. |F(x)| is evaluated
    at most once per iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = IterationTrace()
    mix = AndersonMixer(config.anderson) if config.anderson else None
    memo = [None, None]  # this iterate's |F(x)| callable, and its value once evaluated

    def f_norm():
        if memo[1] is None:
            memo[1] = memo[0]()
        return memo[1]

    accept = (lambda: f_norm() <= config.tol_residual) if tol_on_F else None
    for n in range(config.max_outer + 1):
        gx, s, nxt, memo[0] = step(x)
        memo[1] = None
        residual = _norm(x - gx)
        ref_error = None if reference is None else _norm(x - reference)
        trace.append(residual, ref_error, s)
        status = _classify(n, residual, ref_error, config, accept)
        message = ""
        if status is None and isinstance(nxt, str):
            status, message = DIVERGED, nxt
        if status is not None:
            return SolveOutcome(status, x, trace, n, message=message,
                                f_norm=None if memo[0] is None else f_norm())
        if mix is not None:
            nxt = mix(x, nxt)
        trace.set_step_norm(_norm(nxt - x))
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
        return gx, None, gx, None

    return _fixed_point_loop(step, x0, config or SolverConfig(), reference)


def _stabilized_step(problem: ProblemSpec) -> Callable:
    """The stabilized step in _fixed_point_loop's form.

    The next iterate is s^gamma G(x), s = <Ax,x>/<A G(x),x>, gamma = d/(d-1)
    from the split's degree d. |F(x)| is evaluated by problem.F, not as
    |Ax - A G(x)|, which equals it only in exact arithmetic.
    """
    split = problem.homogeneous_split
    if split is None:
        raise ValueError("the stabilized iteration requires a homogeneous split")
    if problem.G is None:
        raise ValueError("the stabilized iteration requires the fixed-point map G = A^{-1}N")
    gamma = split.degree / (split.degree - 1.0)

    def step(x):
        gx = np.asarray(problem.G(x), dtype=float)
        ax = split.linear(x)
        agx = split.linear(gx)
        den = float(np.dot(agx, x))
        s = float(np.dot(ax, x) / den) if den != 0.0 else None

        def f_norm():
            return float(np.linalg.norm(problem.F(x)))

        if s is None:
            return gx, s, "stabilizing factor has zero denominator", f_norm
        if s < 0.0 and not float(gamma).is_integer():
            return gx, s, "negative stabilizing factor with non-integer exponent", f_norm
        return gx, s, (s ** gamma) * gx, f_norm

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
    |F(x)| at the returned iterate, and tol_on_F makes convergence on the
    residual require both.
    """
    return _fixed_point_loop(_stabilized_step(problem), x0, config or SolverConfig(),
                             reference, tol_on_F)


def petviashvili_map(problem: ProblemSpec) -> Callable:
    """One step of the stabilized iteration as a plain map, to difference in checks."""
    step = _stabilized_step(problem)

    def apply(x):
        nxt = step(x)[2]
        if isinstance(nxt, str):
            raise ValueError(nxt)
        return nxt

    return apply


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
                 precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 generators: Optional[Callable] = None) -> SolveOutcome:
    """Newton iteration with an iterative linear solve per step.

    The correction solves J(x) dx = -F(x) by MINRES, preconditioned with
    precond, a symmetric positive definite approximation of J^{-1}, when
    given. MINRES suits a symmetric indefinite J (Paige and Saunders, SIAM
    J. Numer. Anal. 12, 1975), which both built-in problems have: J is
    singular along the solution orbit and has eigenvalues of both signs.

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
    trace = IterationTrace()
    stall = 0
    prev_residual = None
    prev_budget_hit = False
    for n in range(config.max_outer + 1):
        fx = np.asarray(problem.F(x), dtype=float)
        residual = _norm(fx)
        ref_error = None if reference is None else _norm(x - reference)
        trace.append(residual, ref_error)
        status = _classify(n, residual, ref_error, config)
        if status is not None:
            return SolveOutcome(status, x, trace, n, f_norm=residual)
        if prev_budget_hit and prev_residual is not None and residual >= prev_residual:
            stall += 1
            if stall >= 3:
                return SolveOutcome(
                    MAX_ITERATIONS, x, trace, n,
                    message="inner solver repeatedly hit its budget without outer progress",
                    f_norm=residual)
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
        trace.set_inner(inner_tol, stats.iterations, stats.relative_residual)
        if generators is not None:
            dx = deflate(dx)
        prev_budget_hit = stats.iterations >= config.inner_maxit
        prev_residual = residual
        trace.set_step_norm(_norm(dx))
        x = x + dx
    raise AssertionError("unreachable")


def iteration_matrix_spectrum(problem: ProblemSpec, xstar: np.ndarray,
                              stabilized: bool = False):
    """Spectrum of the iteration's derivative D at a fixed point xstar.

    D follows in closed form from the split F = A x - N(x), J = A - DN
    (Pelinovsky and Stepanyants, SIAM J. Numer. Anal. 42, 2004): the plain map
    G = A^{-1}N has D = I - A^{-1}J; at a solution, for DN symmetric with
    DN x = d N(x), the stabilized map adds -d x* <A x*, .>/<A x*, x*>. D is
    a matrix-free LinearOperator, materialized once by dense_eigenvalues.
    """
    split = problem.homogeneous_split
    if split is None or problem.jacobian_at is None:
        raise ValueError("iteration_matrix_spectrum requires jacobian_at and a homogeneous split")
    xstar = np.asarray(xstar, dtype=float)
    check_dense_dim(xstar.size)  # before jacobian_at builds anything
    jac = problem.jacobian_at(xstar)
    row = None
    if stabilized:
        ax = split.linear(xstar)
        row = split.degree * ax / float(np.dot(ax, xstar))

    def apply(v):
        dv = v - split.inverse(jac(v))
        return dv if row is None else dv - np.dot(row, v) * xstar

    return dense_eigenvalues(LinearOperator(dim=jac.dim, apply=apply))


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
