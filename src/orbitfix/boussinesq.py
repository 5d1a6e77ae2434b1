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

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .numlin import LinearOperator, abs_inverse_2x2, fourier_apply, fourier_symbols, inverse_2x2
from .solvers import HomogeneousSplit, ProblemSpec
from .symmetry import GroupAction

__all__ = [
    "BSParams",
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
    c: float = field(init=False)
    b: float = field(init=False)
    d: float = field(init=False)

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
class ExactProfile:
    """Closed-form solitary wave: velocity proportional to elevation.

    wave is the read-only stacked state (u, eta) = (ratio * eta, eta).
    """

    wave: np.ndarray
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
    wave = np.concatenate([ratio * eta, eta])
    wave.flags.writeable = False
    return ExactProfile(wave=wave, eta0=float(eta0),
                        speed=float(speed), decay=float(decay), ratio=float(ratio))


def _linear_symbol(params: BSParams):
    """Entries (a11, a12, a22) of S's symmetric 2x2 block, per Fourier mode."""
    xi = fourier_symbols(params.n, params.half_length)[0]
    return -1.0, params.speed * (1.0 + params.b * xi ** 2), -(1.0 - params.c * xi ** 2)


def build_bs_problem(params: BSParams) -> ProblemSpec:
    """Travelling-wave system for the given speed on the configured grid.

    F(w) = S w - N(w) with N(w) = (u eta, u^2/2), quadratic, so the problem
    carries the split (S, degree 2) and G = S^{-1}N; S and S^{-1} are matrix
    symbols, one Fourier apply each. S^{-1} exists on every mode: det S =
    (1 - c xi^2) - cs^2 (1 + b xi^2)^2 < 0 whenever cs > 1, as 2b - |c| = 1/3.
    """
    n = params.n
    a11, a12, a22 = np.broadcast_arrays(*_linear_symbol(params))
    s_symbol = np.array([[a11, a12], [a12, a22]])
    s_inverse = inverse_2x2(a11, a12, a22)

    def F(w):
        w = np.asarray(w, dtype=float)
        u, eta = w[:n], w[n:]
        return fourier_apply(s_symbol, w) - np.concatenate([u * eta, 0.5 * u * u])

    def jacobian_at(w0):
        w0 = np.asarray(w0, dtype=float)
        u0, eta0 = w0[:n], w0[n:]

        def apply(v):
            vu, ve = v[:n], v[n:]
            return fourier_apply(s_symbol, v) - np.concatenate([eta0 * vu + u0 * ve, u0 * vu])

        return LinearOperator(dim=2 * n, apply=apply, symmetric=True)

    def G(w):
        w = np.asarray(w, dtype=float)
        u, eta = w[:n], w[n:]
        return fourier_apply(s_inverse, np.concatenate([u * eta, 0.5 * u * u]))

    linear = LinearOperator(dim=2 * n, apply=lambda v: fourier_apply(s_symbol, v), symmetric=True)
    return ProblemSpec(F=F, G=G, jacobian_at=jacobian_at,
                       homogeneous_split=HomogeneousSplit(linear, 2.0))


def reflection_blocks(params: BSParams, w0) -> Iterator[np.ndarray]:
    """The Jacobian at a reflection-even state, split into its even and odd blocks.

    The grid reflection x -> -x sends sample j of each field to sample
    (-j) mod n. At a state it fixes, it commutes with the Jacobian, so the
    Jacobian is block diagonal in the orthonormal basis of even vectors
    (e_j + e_-j)/sqrt(2), e_0, e_{n/2} and odd vectors (e_j - e_-j)/sqrt(2).
    Yields the two symmetric blocks (even: n + 2 rows over both fields,
    odd: n - 2), whose eigenvalues together are the Jacobian's; the
    translation generator is odd. Each block is built in closed form when
    it is drawn, so a consumer that drops the even block before drawing
    the odd one never holds both. Raises ValueError at once when the state
    is not even to 1e-12 relative.
    """
    w0 = np.asarray(w0, dtype=float)
    n = params.n
    if w0.shape != (2 * n,):
        raise ValueError("state length must match the configured grid")
    fields = w0.reshape(2, n)
    if np.linalg.norm(fields[:, (-np.arange(n)) % n] - fields) > 1e-12 * np.linalg.norm(w0):
        raise ValueError("state is not even under the grid reflection")
    return (_reflection_block(params, fields, sign) for sign in (1.0, -1.0))


def _reflection_block(params: BSParams, fields: np.ndarray, sign: float) -> np.ndarray:
    # In each field pair the linear part is alpha I + beta D2 and the
    # pointwise part is diagonal. The basis vectors are (e_a + sign e_-a)/sqrt(2),
    # and e_a alone for the self-mirrored samples a = 0, n/2 (even only). On
    # them I and diagonals keep their form, and the circulant D2, whose first
    # column col is even, becomes the Toeplitz-plus-Hankel matrix
    # t_r t_k (col[a_r - a_k] + sign col[a_r + a_k]), t = 1/sqrt(2) on the
    # self-mirrored samples and 1 elsewhere.
    n = params.n
    half = n // 2
    a = np.arange(half + 1, dtype=np.int32) if sign > 0.0 else np.arange(1, half, dtype=np.int32)
    m = a.size
    col = np.fft.irfft(fourier_symbols(n, params.half_length)[2][:half + 1], n)
    idx = np.subtract.outer(a, a)
    np.remainder(idx, n, out=idx)
    d2 = col[idx]
    np.add.outer(a, a, out=idx)
    np.remainder(idx, n, out=idx)
    d2 += sign * col[idx]
    t = np.where((a == 0) | (a == half), np.sqrt(0.5), 1.0)
    d2 *= t[:, None]
    d2 *= t
    cs = params.speed
    block = np.zeros((2 * m, 2 * m))
    np.multiply(d2, -cs * params.b, out=block[:m, m:])
    np.multiply(d2, -cs * params.d, out=block[m:, :m])
    np.multiply(d2, -params.c, out=block[m:, m:])
    u0, eta0 = fields[:, a]
    i = np.arange(m)
    block[i, i] = -1.0 - eta0
    block[i, m + i] += cs - u0
    block[m + i, i] += cs - u0
    block[m + i, m + i] -= 1.0
    return block


def precond_operator(params: BSParams) -> LinearOperator:
    """|S|^{-1} for the linear part S of the travelling-wave system.

    Per Fourier mode S is the symmetric block [[-1, cs(1 + b xi^2)],
    [cs(1 + b xi^2), -(1 - c xi^2)]], indefinite with negative determinant.
    Its absolute value |S| has the same eigenvectors and the moduli of the
    eigenvalues, so |S|^{-1} is symmetric positive definite and serves as
    the MINRES preconditioner for the indefinite Jacobian.
    """
    symbol = abs_inverse_2x2(*_linear_symbol(params))
    return LinearOperator(dim=2 * params.n, apply=lambda v: fourier_apply(symbol, v),
                          symmetric=True)


def _field_center(v: np.ndarray, half_length: float) -> float:
    # first Fourier mode relative to the cell center locates the bump
    m1 = -np.fft.rfft(np.asarray(v, dtype=float))[1]
    if abs(m1) < 1e-13:
        raise ValueError("first Fourier mode too small to locate the wave")
    xc = -(half_length / np.pi) * float(np.angle(m1))
    xc = (xc + half_length) % (2.0 * half_length) - half_length
    return half_length if xc == -half_length else xc


def translation_shift(w, half_length: float, component: str = "eta") -> float:
    """Position of the wave crest in the stacked state w = (u, eta).

    The crest is read from the chosen component's first Fourier mode.
    Raises when w is not a 1-D array of even length, or when the
    component carries no usable first mode.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] % 2:
        raise ValueError("state vector must have even length")
    if component not in ("eta", "u"):
        raise ValueError("component must be 'eta' or 'u'")
    u, eta = w.reshape(2, -1)
    return _field_center(eta if component == "eta" else u, half_length)


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

    The state is the half spectrum (u^, eta^). Each stage sends it through
    one batched inverse real transform to get u and eta, and the two
    nonlinear fields (u^2, eta u) through one batched real transform back:
    4 transform rows a stage, 16 a step. With the multipliers
    m_u = -i xi/(1 + d xi^2) and m_eta = -i xi/(1 + b xi^2), the derivatives
    are u_dot^ = m_u ((1 - c xi^2) eta^ + (u^2/2)^) and
    eta_dot^ = m_eta (u^ + (eta u)^). Both multipliers zero the Nyquist
    mode, so the Nyquist coefficients never change. Stages are accumulated
    in place in preallocated buffers; no stage allocates an array.

    Snapshots, stacked states (u, eta), are recorded at the steps nearest
    the requested times (default: only t_end), transformed back to samples
    only then. A non-finite state aborts the run; the result then carries
    the snapshots collected so far and completed=False.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (2 * params.n,):
        raise ValueError("state length must match the configured grid")
    if not dt > 0.0 or not t_end > 0.0:
        raise ValueError("dt and t_end must be positive")

    nsteps = max(1, int(round(t_end / dt)))
    dt_eff = t_end / nsteps
    n = params.n
    half = n // 2 + 1
    xi, d1, _ = fourier_symbols(n, params.half_length)
    xi, d1 = xi[:half], d1[:half]
    # half-step increments (dt/2) w_dot^, rows (u^, eta^):
    # linear[0] eta^ + nonlinear[0] (u^2)^ and linear[1] u^ + nonlinear[1] (eta u)^
    mult_u = -d1 / (1.0 + params.d * xi ** 2)
    mult_eta = -d1 / (1.0 + params.b * xi ** 2)
    linear = 0.5 * dt_eff * np.stack([mult_u * (1.0 - params.c * xi ** 2), mult_eta])
    nonlinear = 0.5 * dt_eff * np.stack([0.5 * mult_u, mult_eta])

    samples = np.empty((2, n))
    products = np.empty((2, n))
    products_hat = np.empty((2, half), dtype=complex)

    def increment(state, out):
        np.fft.irfft(state, n, out=samples)
        u, eta = samples
        np.multiply(u, u, out=products[0])
        np.multiply(eta, u, out=products[1])
        np.fft.rfft(products, out=products_hat)
        np.multiply(products_hat, nonlinear, out=products_hat)
        np.multiply(linear, state[::-1], out=out)
        out += products_hat

    requested = [t_end] if snapshot_times is None else sorted(float(t) for t in snapshot_times)
    target_steps = []
    for t in requested:
        if t < 0.0 or t > t_end + 1e-9 * max(1.0, t_end):
            raise ValueError("snapshot times must lie in [0, t_end]")
        target_steps.append(min(nsteps, max(0, int(round(t / dt_eff)))))

    result = PropagationResult(times=[], states=[], completed=True)

    def record(step, w):
        while target_steps and target_steps[0] == step:
            target_steps.pop(0)
            result.times.append(step * dt_eff)
            result.states.append(w.copy())

    record(0, w0)
    w_hat = np.fft.rfft(w0.reshape(2, n))
    k = np.empty_like(w_hat)
    stage = np.empty_like(w_hat)
    acc = np.empty_like(w_hat)
    finite = np.empty(w_hat.shape, dtype=bool)
    # overflow on a blowing-up run is reported via completed=False, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            # with s_i = (dt/2) k_i: w += (s1 + 2 s2 + 2 s3 + s4) / 3
            increment(w_hat, acc)
            np.add(w_hat, acc, out=stage)
            increment(stage, k)
            np.add(w_hat, k, out=stage)
            k *= 2.0
            acc += k
            increment(stage, k)
            k *= 2.0
            np.add(w_hat, k, out=stage)
            acc += k
            increment(stage, k)
            acc += k
            acc *= 1.0 / 3.0
            w_hat += acc
            if not np.isfinite(w_hat, out=finite).all():
                result.completed = False
                return result
            if target_steps and target_steps[0] == step:
                w = np.fft.irfft(w_hat, n).reshape(2 * n)
                if not np.isfinite(w).all():
                    result.completed = False
                    return result
                record(step, w)
    return result
