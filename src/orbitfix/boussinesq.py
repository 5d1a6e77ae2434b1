"""Solitary-wave profiles of a symmetric two-component long-wave system.

States stack velocity and elevation samples as w = (u, eta) on a uniform
periodic grid over [-L, L). The travelling-wave system
F(w) = S(w) - (u*eta, u^2/2) = 0 couples both fields through a
constant-coefficient symmetric operator S built from the wave speed and
the dispersion coefficients; its Jacobian stays symmetric, and spatial
translations act on the solution set, so profiles are determined only up
to a shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .numlin import LinearOperator, abs_inverse_2x2, fourier_apply, fourier_symbols
from .solvers import ProblemSpec
from .symmetry import GroupAction

__all__ = [
    "BSParams",
    "WavePair",
    "ExactProfile",
    "grid",
    "exact_profile",
    "build_bs_problem",
    "reflection_blocks",
    "precond_operator",
    "translation_action",
    "translation_shift",
    "PropagationResult",
    "propagate",
]


def grid(n: int, half_length: float) -> np.ndarray:
    """Uniform samples of [-L, L), left endpoint included."""
    return -half_length + (2.0 * half_length / n) * np.arange(n)


@dataclass(frozen=True)
class BSParams:
    """Wave speed, grid, and the dispersion coefficients derived from theta2.

    The modelling parameter theta2 fixes c = 2/3 - theta2 and
    b = d = (theta2 - 1/3)/2; equal b and d make the travelling-wave
    Jacobian symmetric.
    """

    theta2: float
    speed: float
    n: int = 1024
    half_length: float = 50.0
    c: float = 0.0
    b: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if not (2.0 / 3.0 < self.theta2 <= 1.0):
            raise ValueError("theta2 must lie in (2/3, 1]")
        if not self.speed > 1.0:
            raise ValueError("wave speed must exceed 1")
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size must be even and >= 4")
        if not self.half_length > 0.0:
            raise ValueError("half_length must be positive")
        object.__setattr__(self, "c", 2.0 / 3.0 - self.theta2)
        object.__setattr__(self, "b", 0.5 * (self.theta2 - 1.0 / 3.0))
        object.__setattr__(self, "d", 0.5 * (self.theta2 - 1.0 / 3.0))


@dataclass(frozen=True, eq=False)
class WavePair:
    """Velocity and elevation samples of one wave state."""

    u: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if u.shape != eta.shape or u.ndim != 1:
            raise ValueError("u and eta must be 1-D arrays of equal length")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def vector(self) -> np.ndarray:
        return np.concatenate([self.u, self.eta])

    @staticmethod
    def from_vector(w: np.ndarray) -> "WavePair":
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or w.shape[0] % 2:
            raise ValueError("state vector must have even length")
        half = w.shape[0] // 2
        return WavePair(w[:half], w[half:])

    def localized(self, tol: float = 1e-10) -> bool:
        """True when the elevation has decayed at the cell boundary."""
        return bool(abs(self.eta[0]) < tol)


@dataclass(frozen=True, eq=False)
class ExactProfile:
    """Closed-form solitary wave: velocity proportional to elevation."""

    wave: WavePair
    eta0: float
    speed: float
    decay: float
    ratio: float


def exact_profile(theta2: float, n: int, half_length: float, x0: float = 0.0) -> ExactProfile:
    """Squared-secant solitary wave, available for theta2 in (7/9, 1)."""
    if not (7.0 / 9.0 < theta2 < 1.0):
        raise ValueError("closed-form profiles require theta2 in (7/9, 1)")
    eta0 = 4.5 * (theta2 - 7.0 / 9.0) / (1.0 - theta2)
    speed = 4.0 * (theta2 - 2.0 / 3.0) / np.sqrt(2.0 * (1.0 - theta2) * (theta2 - 1.0 / 3.0))
    decay = 0.5 * np.sqrt(3.0 * (theta2 - 7.0 / 9.0) / ((theta2 - 1.0 / 3.0) * (theta2 - 2.0 / 3.0)))
    ratio = np.sqrt(2.0 * (1.0 - theta2) / (theta2 - 1.0 / 3.0))
    x = grid(n, half_length)
    eta = eta0 / np.cosh(decay * (x - x0)) ** 2
    return ExactProfile(wave=WavePair(u=ratio * eta, eta=eta), eta0=float(eta0),
                        speed=float(speed), decay=float(decay), ratio=float(ratio))


def _linear_part(params: BSParams, w: np.ndarray):
    n = params.n
    u, eta = w[:n], w[n:]
    d2w = fourier_apply(fourier_symbols(n, params.half_length)[2], w)
    d2u, d2eta = d2w[:n], d2w[n:]
    r1 = -u + params.speed * (eta - params.b * d2eta)
    r2 = params.speed * (u - params.d * d2u) - (eta + params.c * d2eta)
    return r1, r2


def build_bs_problem(params: BSParams) -> ProblemSpec:
    """Travelling-wave system for the given speed on the configured grid."""
    n = params.n

    def F(w):
        w = np.asarray(w, dtype=float)
        u, eta = w[:n], w[n:]
        r1, r2 = _linear_part(params, w)
        return np.concatenate([r1 - u * eta, r2 - 0.5 * u * u])

    def jacobian_at(w0):
        w0 = np.asarray(w0, dtype=float)
        u0, eta0 = w0[:n], w0[n:]

        def apply(v):
            vu, ve = v[:n], v[n:]
            r1, r2 = _linear_part(params, v)
            return np.concatenate([r1 - (eta0 * vu + u0 * ve), r2 - u0 * vu])

        return LinearOperator(dim=2 * n, apply=apply, symmetric=True)

    return ProblemSpec(dim=2 * n, F=F, jacobian_at=jacobian_at)


def reflection_blocks(problem: ProblemSpec, w0) -> Tuple[np.ndarray, np.ndarray]:
    """The Jacobian at a reflection-even state, split into its even and odd blocks.

    The grid reflection x -> -x sends sample j of each field to sample
    (-j) mod n. At a state it fixes, it commutes with the Jacobian, so the
    Jacobian is block diagonal in the orthonormal basis of even vectors
    (e_j + e_-j)/sqrt(2), e_0, e_{n/2} and odd vectors (e_j - e_-j)/sqrt(2).
    Returns the two symmetric blocks (even: n + 2 rows over both fields,
    odd: n - 2), whose eigenvalues together are the Jacobian's; the
    translation generator is odd. Each basis vector costs one Jacobian
    matvec and the full matrix is never formed. Raises ValueError when the
    state is not even to 1e-12 relative.
    """
    w0 = np.asarray(w0, dtype=float)
    n = w0.shape[0] // 2
    j = np.arange(n)
    mirror = np.concatenate([(-j) % n, n + (-j) % n])
    if np.linalg.norm(w0[mirror] - w0) > 1e-12 * np.linalg.norm(w0):
        raise ValueError("state is not even under the grid reflection")
    jac = problem.jacobian_at(w0)
    idx = np.arange(2 * n)
    v = np.zeros(2 * n)
    blocks = []
    for sign in (1.0, -1.0):
        # basis vector k is scale[k] * (e_a[k] + sign * e_b[k]); a == b only when even
        a = idx[(idx < mirror) | ((idx == mirror) & (sign > 0.0))]
        b = mirror[a]
        scale = np.where(a == b, 0.5, np.sqrt(0.5))
        block = np.empty((a.size, a.size))
        for k in range(a.size):
            v[a[k]] += scale[k]
            v[b[k]] += sign * scale[k]
            y = jac.apply(v)
            block[:, k] = scale * (y[a] + sign * y[b])
            v[a[k]] = v[b[k]] = 0.0
        blocks.append(block)
    return blocks[0], blocks[1]


def precond_operator(params: BSParams) -> LinearOperator:
    """|S|^{-1} for the linear part S of the travelling-wave system.

    Per Fourier mode S is the symmetric block [[-1, cs(1 + b xi^2)],
    [cs(1 + b xi^2), -(1 - c xi^2)]], indefinite with negative determinant.
    Its absolute value |S| has the same eigenvectors and the moduli of the
    eigenvalues, so |S|^{-1} is symmetric positive definite and serves as
    the MINRES preconditioner for the indefinite Jacobian.
    """
    xi = fourier_symbols(params.n, params.half_length)[0]
    a12 = params.speed * (1.0 + params.b * xi ** 2)
    symbol = abs_inverse_2x2(-1.0, a12, -(1.0 - params.c * xi ** 2))
    return LinearOperator(dim=2 * params.n, apply=lambda v: fourier_apply(symbol, v),
                          symmetric=True)


def _field_center(v: np.ndarray, half_length: float) -> float:
    # first Fourier mode relative to the cell center locates the bump
    m1 = -np.fft.fft(np.asarray(v, dtype=float))[1]
    if abs(m1) < 1e-13:
        raise ValueError("first Fourier mode too small to locate the wave")
    xc = -(half_length / np.pi) * float(np.angle(m1))
    xc = (xc + half_length) % (2.0 * half_length) - half_length
    return half_length if xc == -half_length else xc


def translation_shift(w, half_length: float, component: str = "eta") -> float:
    """Position of the wave crest, from the chosen component's first mode.

    Accepts a WavePair, an ExactProfile, or a stacked state vector.
    Raises when the component carries no usable first Fourier mode.
    """
    if isinstance(w, ExactProfile):
        w = w.wave
    if isinstance(w, np.ndarray):
        w = WavePair.from_vector(w)
    if component not in ("eta", "u"):
        raise ValueError("component must be 'eta' or 'u'")
    field_v = w.eta if component == "eta" else w.u
    return _field_center(field_v, half_length)


def translation_action(params: BSParams) -> GroupAction:
    """Spatial shifts act(alpha, w)(x) = w(x - alpha) on both fields."""
    n = params.n
    L = params.half_length
    xi, d1, _ = fourier_symbols(n, L)

    def act(alpha, w):
        return fourier_apply(np.exp(-1j * xi * float(alpha)), w)

    def generators(w):
        return [-fourier_apply(d1, w)]

    def align(x, xref):
        delta = _field_center(x[n:], L) - _field_center(xref[n:], L)
        delta = (delta + L) % (2.0 * L) - L
        return L if delta == -L else delta

    return GroupAction(n_generators=1, act=act, generators=generators,
                       align=align, period=2.0 * L)


@dataclass
class PropagationResult:
    times: list
    states: list
    completed: bool


def propagate(w0, params: BSParams, dt: float, t_end: float,
              snapshot_times: Optional[Sequence[float]] = None) -> PropagationResult:
    """Classical fourth-order time stepping of the evolution system.

    eta_t = -(1 - b dxx)^{-1} dx(u + eta u)
    u_t   = -(1 - d dxx)^{-1} dx(eta + c eta_xx + u^2/2)

    Each right-hand side sends the three real fields (eta, u + eta u,
    u^2/2) through one batched real transform and both time derivatives
    back through one batched inverse, with half-spectrum multipliers
    i xi/(1 + b xi^2) and i xi/(1 + d xi^2) that zero the Nyquist mode.

    Snapshots are recorded at the steps nearest the requested times
    (default: only t_end). A non-finite state aborts the run; the result
    then carries the snapshots collected so far and completed=False.
    """
    if isinstance(w0, WavePair):
        w0 = w0.vector()
    w = np.asarray(w0, dtype=float).copy()
    if w.shape != (2 * params.n,):
        raise ValueError("state length must match the configured grid")
    if not dt > 0.0 or not t_end > 0.0:
        raise ValueError("dt and t_end must be positive")

    nsteps = max(1, int(round(t_end / dt)))
    dt_eff = t_end / nsteps
    n = params.n
    half = n // 2 + 1
    xi, d1, _ = fourier_symbols(n, params.half_length)
    xi, d1 = xi[:half], d1[:half]
    # signs folded in: u_dot^ = mult_eta_u eta^ + mult_u (u^2/2)^, eta_dot^ = mult_eta flux^
    mult_u = -d1 / (1.0 + params.d * xi ** 2)
    mult_eta_u = mult_u * (1.0 - params.c * xi ** 2)
    mult_eta = -d1 / (1.0 + params.b * xi ** 2)

    fields = np.empty((3, n))
    dot_hat = np.empty((2, half), dtype=complex)

    def rhs(state):
        u, eta = state[:n], state[n:]
        fields[0] = eta
        np.multiply(eta, u, out=fields[1])
        fields[1] += u
        np.multiply(u, u, out=fields[2])
        fields[2] *= 0.5
        f_hat = np.fft.rfft(fields)
        np.multiply(mult_eta_u, f_hat[0], out=dot_hat[0])
        dot_hat[0] += mult_u * f_hat[2]
        np.multiply(mult_eta, f_hat[1], out=dot_hat[1])
        return np.fft.irfft(dot_hat, n).reshape(2 * n)

    requested = [t_end] if snapshot_times is None else sorted(float(t) for t in snapshot_times)
    target_steps = []
    for t in requested:
        if t < 0.0 or t > t_end + 1e-9 * max(1.0, t_end):
            raise ValueError("snapshot times must lie in [0, t_end]")
        target_steps.append(min(nsteps, max(0, int(round(t / dt_eff)))))

    result = PropagationResult(times=[], states=[], completed=True)

    def record(step):
        while target_steps and target_steps[0] == step:
            target_steps.pop(0)
            result.times.append(step * dt_eff)
            result.states.append(WavePair.from_vector(w.copy()))

    record(0)
    # overflow on a blowing-up run is reported via completed=False, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * dt_eff * k1)
            k3 = rhs(w + 0.5 * dt_eff * k2)
            k4 = rhs(w + dt_eff * k3)
            w = w + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(w)):
                result.completed = False
                return result
            record(step)
    return result
