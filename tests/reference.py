"""Reference implementations that only the tests call.

Each is an independent check on the library: finite differences against
the closed-form derivatives, one stabilized step as a plain map to
difference, successive residual ratios, and the two-body ring reduced to
polar coordinates.
"""

from typing import Callable, Optional

import numpy as np

from orbitfix.nbody import _COLLISION_EPS, NBodyConfig, ring_constant
from orbitfix.solvers import ProblemSpec, _stabilized_step


def fd_jacobian(F: Callable, x: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Central-difference Jacobian of F at x."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * max(1.0, float(np.linalg.norm(x, np.inf)))
    n = x.shape[0]
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = step
        cols.append((np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2.0 * step))
        e[j] = 0.0
    return np.column_stack(cols)


def petviashvili_map(problem: ProblemSpec) -> Callable:
    """One step of the stabilized iteration as a plain map, to difference in checks."""
    step = _stabilized_step(problem)

    def apply(x):
        nxt = step(x)[2]
        if isinstance(nxt, str):
            raise ValueError(nxt)
        return nxt

    return apply


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


def reduced_polar_residual(r1: float, r2: float, theta: float, m0: float) -> np.ndarray:
    """Two-body system reduced to radii and separation angle.

    Components: the two radial force balances and the rotation-invariant
    angular balance r1<F_1, J q_1^> - r2<F_2, J q_2^>. All three vanish
    at the polygon (r1 = r2 = 1, theta = pi) for every central mass.
    """
    if r1 < _COLLISION_EPS or r2 < _COLLISION_EPS:
        raise ValueError("body collides with the center")
    a, b = NBodyConfig(n=2, m0=m0).coefficients
    # not NBodyConfig's omega squared, which can differ in the last bit
    w2 = m0 + ring_constant(2)
    rho2 = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * np.cos(theta)
    if rho2 < _COLLISION_EPS ** 2:
        raise ValueError("two ring bodies collide")
    rho3 = rho2 ** 1.5
    return np.array([
        w2 * r1 - a / r1 ** 2 - b * (r1 - r2 * np.cos(theta)) / rho3,
        w2 * r2 - a / r2 ** 2 - b * (r2 - r1 * np.cos(theta)) / rho3,
        2.0 * b * r1 * r2 * np.sin(theta) / rho3,
    ])
