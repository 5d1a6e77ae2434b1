"""Group orbits of solutions: alignment, kernel checks, limit prediction.

When a system F(x) = 0 is equivariant under a continuous group, solutions
come in orbits and iterates converge to some orbit element rather than to
a prescribed one. The helpers here quantify that: distance to an orbit,
Jacobian kernel along the generators, and a first-order prediction of
which orbit element a seed will reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GroupAction",
    "OrbitReport",
    "kernel_check",
    "align_to_orbit",
    "predict_limit",
]


@dataclass(frozen=True)
class GroupAction:
    """A finite-dimensional group acting on state vectors.

    act(alpha, x) applies the element with parameter alpha; generators(x)
    returns the l tangent vectors d/dalpha act(alpha, x) at alpha = 0;
    align(x, xref) returns, in closed form, the parameter of the orbit
    element of xref that align_to_orbit measures x against.
    """

    act: Callable
    generators: Callable
    align: Callable


@dataclass(frozen=True)
class OrbitReport:
    """Distances from a point to a reference and to the reference's orbit."""

    alpha_star: float
    orbital_distance: float
    raw_distance: float

    def __post_init__(self):
        if self.orbital_distance > self.raw_distance + 1e-12:
            raise ValueError("orbital distance exceeds raw distance")


def kernel_check(problem, xstar: np.ndarray, action: GroupAction) -> float:
    """Largest relative Jacobian residual over the symmetry generators.

    Small values certify that the generators span (part of) the Jacobian
    kernel at the solution xstar. xstar must actually solve the system:
    |F(xstar)| <= 1e-8, relative to max(1, |A xstar|) when the problem has a
    homogeneous split F = A x - N(x), whose round-off grows with A x.
    """
    if problem.jacobian_at is None:
        raise ValueError("kernel_check requires jacobian_at")
    xstar = np.asarray(xstar, dtype=float)
    fnorm = float(np.linalg.norm(problem.F(xstar)))
    split = problem.homogeneous_split
    scale = 1.0 if split is None else max(1.0, float(np.linalg.norm(split.linear.apply(xstar))))
    if fnorm > 1e-8 * scale:
        raise ValueError(f"kernel_check requires a solution; |F(x)| = {fnorm:.3e}")
    gens = action.generators(xstar)
    if not len(gens):
        return 0.0
    jac = problem.jacobian_at(xstar)
    worst = 0.0
    for g in gens:
        g = np.asarray(g, dtype=float)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            raise ValueError("zero generator vector")
        worst = max(worst, float(np.linalg.norm(jac.apply(g))) / gnorm)
    return worst


def align_to_orbit(x: np.ndarray, xref: np.ndarray, action: GroupAction) -> OrbitReport:
    """Distance from x to the orbit element of xref chosen by action.align.

    The distance is exact when align is the true minimizer over the orbit
    and an upper bound on the orbital distance otherwise; either way it is
    never reported above the raw distance |x - xref|.
    """
    x = np.asarray(x, dtype=float)
    xref = np.asarray(xref, dtype=float)
    raw = float(np.linalg.norm(x - xref))
    alpha = float(action.align(x, xref))
    # alpha = 0 is the reference itself, which act(0, .) may give only to
    # round-off; never report worse than it
    orbital = raw if alpha == 0.0 else float(np.linalg.norm(x - action.act(alpha, xref)))
    if raw < orbital:
        alpha, orbital = 0.0, raw
    return OrbitReport(alpha_star=alpha, orbital_distance=orbital, raw_distance=raw)


def predict_limit(x0: np.ndarray, xstar: np.ndarray, action: GroupAction) -> np.ndarray:
    """First-order prediction of the orbit element a seed converges to.

    Projects x0 - xstar onto the generator span at xstar and returns the
    coefficients; for one generator this predicts the limit parameter up
    to second order in the seed offset.
    """
    x0 = np.asarray(x0, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    gens = [np.asarray(g, dtype=float) for g in action.generators(xstar)]
    if not gens:
        raise ValueError("predict_limit requires at least one generator")
    basis = np.column_stack(gens)
    if np.linalg.matrix_rank(basis) < basis.shape[1]:
        raise ValueError("generators are linearly dependent at this point")
    coef, *_ = np.linalg.lstsq(basis, x0 - xstar, rcond=None)
    return coef
