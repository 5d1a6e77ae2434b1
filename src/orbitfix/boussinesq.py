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

from .numlin import (FourierOperator, abs_inverse_2x2, check_dense_dim, fourier_apply,
                     fourier_operator, fourier_symbols, inverse_2x2)
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
    "periodic_wrap",
    "PropagationResult",
    "propagation_schedule",
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
        if not 1.0 < self.speed < np.inf:
            raise ValueError("wave speed must be finite and exceed 1")
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size must be even and >= 4")
        if not 0.0 < self.half_length < np.inf:
            raise ValueError("half_length must be positive and finite")
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
    if not 0.0 < half_length < np.inf:
        raise ValueError("half_length must be positive and finite")
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
    carries the split (S, S^{-1}, degree 2) and G = S^{-1}N; S and S^{-1} are matrix
    symbols, one Fourier apply each. S^{-1} exists on every mode: det S =
    (1 - c xi^2) - cs^2 (1 + b xi^2)^2 < 0 whenever cs > 1, as 2b - |c| = 1/3.
    The Jacobian at w0 is the FourierOperator S minus pointwise
    multiplication by the symmetric 2x2 field [[eta0, u0], [u0, 0]].
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

        def coupling(v):
            vu, ve = v[:n], v[n:]
            return np.concatenate([eta0 * vu + u0 * ve, u0 * vu])

        return fourier_operator(s_symbol, pointwise=coupling)

    def G(w):
        w = np.asarray(w, dtype=float)
        u, eta = w[:n], w[n:]
        return fourier_apply(s_inverse, np.concatenate([u * eta, 0.5 * u * u]))

    split = HomogeneousSplit(fourier_operator(s_symbol), fourier_operator(s_inverse), 2.0)
    return ProblemSpec(F=F, G=G, jacobian_at=jacobian_at, homogeneous_split=split)


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
    the odd one never holds both. Raises ValueError at once when the even
    block is past DENSE_DIM_LIMIT or the state is not even to 1e-12 relative.
    """
    w0 = np.asarray(w0, dtype=float)
    n = params.n
    check_dense_dim(n + 2)
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


def precond_operator(params: BSParams) -> FourierOperator:
    """|S|^{-1} for the linear part S of the travelling-wave system.

    Per Fourier mode S is the symmetric block [[-1, cs(1 + b xi^2)],
    [cs(1 + b xi^2), -(1 - c xi^2)]], indefinite with negative determinant.
    Its absolute value |S| has the same eigenvectors and the moduli of the
    eigenvalues, so |S|^{-1} is symmetric positive definite and serves as
    the MINRES preconditioner for the indefinite Jacobian. Passed to minres
    as the operator itself, not its apply, it is fused with the Jacobian:
    each iteration's M r and J M r come from one transform pair.
    """
    return fourier_operator(abs_inverse_2x2(*_linear_symbol(params)))


def periodic_wrap(v: float, half_length: float) -> float:
    """The point of (-L, L] that v reaches by whole periods 2L; -L itself reads L."""
    v = (v + half_length) % (2.0 * half_length) - half_length
    return half_length if v == -half_length else v


def _field_center(v: np.ndarray, half_length: float) -> float:
    # first Fourier mode relative to the cell center locates the bump
    m1 = -np.fft.rfft(np.asarray(v, dtype=float))[1]
    if abs(m1) < 1e-13:
        raise ValueError("first Fourier mode too small to locate the wave")
    return periodic_wrap(-(half_length / np.pi) * float(np.angle(m1)), half_length)


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
    """Spatial shifts act(alpha, w)(x) = w(x - alpha) on both fields.

    A real field's Nyquist coefficient is real and cannot carry the phase
    exp(-i xi_N alpha), so act keeps only its real part, c cos(xi_N alpha).
    act therefore obeys the group law act(a, act(b, w)) = act(a + b, w)
    only on fields without a Nyquist mode (or at shifts that are whole
    multiples of the grid step). align reads the shift from the first
    Fourier mode of eta: exact between translates, and otherwise an
    element whose distance bounds the L2 orbit distance from above.
    """
    n = params.n
    L = params.half_length
    xi, d1, _ = fourier_symbols(n, L)

    def act(alpha, w):
        return fourier_apply(np.exp(-1j * xi * float(alpha)), w)

    def generators(w):
        return [-fourier_apply(d1, w)]

    def align(x, xref):
        return periodic_wrap(_field_center(x[n:], L) - _field_center(xref[n:], L), L)

    return GroupAction(act=act, generators=generators, align=align)


@dataclass
class PropagationResult:
    times: list
    states: list
    completed: bool
    # position reached on the grid of step dt, the step that went non-finite included
    steps: int = 0
    # ETDRK4 steps run, doubling checks and rejected steps included
    etdrk4_steps: int = 0
    # longest step whose result the run kept
    longest_step: float = 0.0


# Step doubling keeps two steps of h, and moves on to steps of 2h, only when
# one step of 2h agrees with them to this relative l2 distance on the half
# spectrum: round-off, not an accuracy option. A level that fails waits up to
# _MAX_WAIT intervals before it is tried again.
_DOUBLING_TOL = 1e-13
_MAX_WAIT = 64


def _contour_points(z: np.ndarray) -> np.ndarray:
    """32 points of the circle of radius 1 about each z, along a new last axis.

    The mean of f over them is Kassam and Trefethen's way to evaluate the
    ETDRK4 coefficients f(z) without the cancellation of their closed forms
    near z = 0. The circle must be the full one: z is complex here, and the
    half circle they use for real z does not average to f(z).
    """
    r = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    return z[..., None] + r


def _etdrk4_stepper(h: float, frame_speed: float, d1: np.ndarray, swap: np.ndarray,
                    quad: np.ndarray, nonlinear_hat):
    """One in-place ETDRK4 step of v_t = f(v) + frame_speed dx v on the half spectrum.

    Per mode the linear part is L = frame_speed d1 I + K, with K the swap
    multiplier [[0, swap[0]], [swap[1], 0]] and K^2 = -omega^2 I, so L has the
    eigenvalues mu+- = frame_speed d1 +- i omega. A function of hL is then
    (g(h mu+) + g(h mu-))/2 I + (g(h mu+) - g(h mu-))/(2 i omega) K, the
    identity's part alone where omega = 0. Every coefficient is a 2x2 symbol
    stored as its diagonal and anti-diagonal rows, applied as
    diag * x + anti * x[::-1]; those acting on the nonlinear products also
    carry their weights quad (Cox and Matthews, J. Comput. Phys. 176, 2002).
    """
    omega = np.sqrt(np.maximum(-(swap[0] * swap[1]).real, 0.0))
    mu = np.stack([frame_speed * d1 + 1j * omega, frame_speed * d1 - 1j * omega])
    k_scale = np.divide(1.0, 2j * omega, out=np.zeros_like(mu[0]), where=omega > 0.0)
    z = h * mu

    def symbol(at_mu, weights=None):
        plus, minus = at_mu
        diag = np.broadcast_to(0.5 * (plus + minus), swap.shape)
        anti = (plus - minus) * k_scale * swap
        if weights is None:
            return diag, anti
        return diag * weights, anti * weights[::-1]

    def h_mean(values):
        return h * values.mean(axis=-1)

    e_half = symbol(np.exp(0.5 * z))
    e_full = symbol(np.exp(z))
    # f1, f2 and f3 share exp(s), s^2, 3s and s^3 on the contour. exp(s)
    # stays the left factor, as in the closed forms: numpy's complex product
    # is not bitwise commutative, and `exp_s * temporary` may run as
    # `temporary * exp_s`.
    s = _contour_points(z)
    exp_s, s2, s3, three_s = np.exp(s), s * s, s ** 3, 3.0 * s
    q = symbol(h_mean((np.exp(0.5 * s) - 1.0) / s), quad)
    f1 = symbol(h_mean((-4.0 - s + np.multiply(exp_s, 4.0 - three_s + s2)) / s3), quad)
    f2 = symbol(h_mean(2.0 * (2.0 + s + np.multiply(exp_s, s - 2.0)) / s3), quad)
    f3 = symbol(h_mean((-4.0 - three_s - s2 + np.multiply(exp_s, 4.0 - s)) / s3), quad)

    pv, pa, pb, pc, e2v, a, b, c, tmp = (np.empty(swap.shape, dtype=complex)
                                         for _ in range(9))

    def apply(coef, x, out):
        np.multiply(coef[0], x, out=out)
        np.multiply(coef[1], x[::-1], out=tmp)
        out += tmp

    def apply_add(coef, x, out):
        np.multiply(coef[0], x, out=tmp)
        out += tmp
        np.multiply(coef[1], x[::-1], out=tmp)
        out += tmp

    def step(v):
        # a = E2 v + Q N(v), b = E2 v + Q N(a), c = E2 a + Q (2 N(b) - N(v)),
        # v <- E v + f1 N(v) + 2 f2 (N(a) + N(b)) + f3 N(c)
        nonlinear_hat(v, pv)
        apply(e_half, v, e2v)
        apply(q, pv, a)
        np.add(a, e2v, out=a)
        nonlinear_hat(a, pa)
        apply(q, pa, b)
        np.add(b, e2v, out=b)
        nonlinear_hat(b, pb)
        np.multiply(pb, 2.0, out=b)
        np.subtract(b, pv, out=b)
        apply(q, b, c)
        apply_add(e_half, a, c)
        nonlinear_hat(c, pc)
        np.add(pa, pb, out=pa)
        apply(e_full, v, e2v)
        apply_add(f1, pv, e2v)
        apply_add(f2, pa, e2v)
        apply_add(f3, pc, e2v)
        np.copyto(v, e2v)

    return step


def propagation_schedule(dt: float, t_end: float,
                         snapshot_times: Optional[Sequence[float]] = None):
    """(steps, step, snapshot steps) of a run of propagate; ValueError on bad options.

    The step is t_end over the whole number of steps nearest t_end/dt. Each
    requested snapshot time (default: only t_end) must lie in [0, t_end] and
    maps to the step nearest it; the snapshot steps come in time order.
    """
    if not (0.0 < dt < np.inf and 0.0 < t_end < np.inf):
        raise ValueError("dt and t_end must be positive and finite")
    if not t_end / dt < np.inf:
        raise ValueError("t_end/dt steps overflow a float")
    nsteps = max(1, int(round(t_end / dt)))
    dt_eff = t_end / nsteps
    requested = [t_end] if snapshot_times is None else sorted(float(t) for t in snapshot_times)
    target_steps = []
    for t in requested:
        if not 0.0 <= t <= t_end + 1e-9 * max(1.0, t_end):
            raise ValueError("snapshot times must lie in [0, t_end]")
        target_steps.append(min(nsteps, max(0, int(round(t / dt_eff)))))
    return nsteps, dt_eff, target_steps


def propagate(w0, params: BSParams, dt: float, t_end: float,
              snapshot_times: Optional[Sequence[float]] = None,
              frame_speed: float = 0.0) -> PropagationResult:
    """Fourth-order exponential time stepping of the evolution system.

    eta_t = -(1 - b dxx)^{-1} dx(u + eta u)
    u_t   = -(1 - d dxx)^{-1} dx(eta + c eta_xx + u^2/2)

    The state is the half spectrum (u^, eta^). With the multipliers
    m_u = -i xi/(1 + d xi^2) and m_eta = -i xi/(1 + b xi^2), the derivatives
    are u_dot^ = m_u ((1 - c xi^2) eta^ + (u^2/2)^) and
    eta_dot^ = m_eta (u^ + (eta u)^): a linear part K that swaps the two
    rows, with K^2 = -omega^2 I, plus weighted products. Each evaluation of
    the products sends the state through one batched inverse real transform
    to get u and eta, and (u^2, eta u) through one batched real transform
    back: 4 transform rows, 4 evaluations a step. Stages are accumulated in
    place in preallocated buffers; no stage allocates an array.

    The run steps the frame moving at frame_speed cs,
    v(x, t) = w(x + cs t, t), which obeys v_t = f(v) + cs dx v, by ETDRK4:
    the linear part cs d1 I + K is integrated exactly per mode, with the
    coefficients of Cox and Matthews evaluated by Kassam and Trefethen's
    contour mean. The default cs = 0 is the lab frame. A solitary wave at
    speed cs is an equilibrium of its frame, which the exponential
    integrator keeps to the size of its residual |F|; the step is bound
    only by the dynamics off the wave. Snapshots are carried back to the
    lab frame by the symbol exp(-cs t d1), 1 at cs = 0. Both multipliers
    zero the Nyquist mode, so the Nyquist coefficients never change.

    dt is the finest step. In a moving frame the run skips the steps that
    change nothing by step doubling: level j steps 2^j dt, and an interval
    at level j >= 1 runs one level-j step and, from the same state, two
    level-(j-1) steps. The two are kept only when the one agrees with them
    to _DOUBLING_TOL relative, l2 over the half spectrum; otherwise the
    state is restored and the level drops by one. Each passed check tries
    one level up on the next interval; a level that failed waits 1, 2, 4,
    ... up to _MAX_WAIT intervals before it is tried again. Level-0 steps
    are never checked or rejected, so wherever the dynamics is real the
    path is the fixed-step path, bit for bit; level 1 keeps level-0 steps,
    so it is checked only on the way to level 2. No interval steps past
    the next snapshot or t_end. The lab frame keeps every step on the grid
    of dt: no wave is an equilibrium there, and its fixed steps are what a
    convergence study in dt needs.

    Grid, step and snapshot steps follow from propagation_schedule. The
    result's steps is the grid position reached, etdrk4_steps the ETDRK4
    steps run (checks and rejected steps included), and longest_step the
    longest step whose result was kept. Snapshots, stacked states (u, eta),
    are transformed back to samples only when they are recorded. A
    non-finite state aborts the run; the result then carries the snapshots
    collected so far and completed=False. Raises ValueError on a state of
    the wrong length, a non-finite frame_speed, or step options
    propagation_schedule rejects.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (2 * params.n,):
        raise ValueError("state length must match the configured grid")
    frame_speed = float(frame_speed)
    if not np.isfinite(frame_speed):
        raise ValueError("frame_speed must be finite")
    nsteps, dt_eff, target_steps = propagation_schedule(dt, t_end, snapshot_times)

    n = params.n
    half = n // 2 + 1
    xi, d1, _ = fourier_symbols(n, params.half_length)
    xi, d1 = xi[:half], d1[:half]
    mult_u = -d1 / (1.0 + params.d * xi ** 2)
    mult_eta = -d1 / (1.0 + params.b * xi ** 2)
    # rows (u^, eta^) of w_dot^: swap[0] eta^ + quad[0] (u^2)^ and swap[1] u^ + quad[1] (eta u)^
    swap = np.stack([mult_u * (1.0 - params.c * xi ** 2), mult_eta])
    quad = np.stack([0.5 * mult_u, mult_eta])

    samples = np.empty((2, n))
    products = np.empty((2, n))

    def nonlinear_hat(state, out):
        np.fft.irfft(state, n, out=samples)
        u, eta = samples
        np.multiply(u, u, out=products[0])
        np.multiply(eta, u, out=products[1])
        np.fft.rfft(products, out=out)

    steppers = {}
    result = PropagationResult(times=[], states=[], completed=True)

    def step(level, state):
        # level j steps 2^j dt; each level's stepper is built on first use
        if level not in steppers:
            steppers[level] = _etdrk4_stepper(dt_eff * 2 ** level, frame_speed, d1, swap,
                                              quad, nonlinear_hat)
        steppers[level](state)
        result.etdrk4_steps += 1

    def keep(k, level):
        # w_hat is the state at grid step k, reached by a step of 2^level dt
        result.steps = k
        result.longest_step = max(result.longest_step, dt_eff * 2 ** level)
        result.completed = bool(np.isfinite(w_hat, out=finite).all())
        return result.completed

    def record(index, w):
        while target_steps and target_steps[0] == index:
            target_steps.pop(0)
            result.times.append(index * dt_eff)
            result.states.append(w.copy())

    record(0, w0)
    w_hat = np.fft.rfft(w0.reshape(2, n))
    start, coarse, first = (np.empty_like(w_hat) for _ in range(3))
    finite = np.empty(w_hat.shape, dtype=bool)
    # known: the level whose one step from w_hat `first` holds, if any
    level, k, known = 0, 0, None
    waits, fails = {}, {}
    # overflow on a blowing-up run is reported via completed=False, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while k < nsteps:
            # try one level up unless that level waits or the frame is the lab's,
            # which keeps the grid of dt; never step past the next snapshot
            j = level
            if waits.get(level + 1, 0):
                waits[level + 1] -= 1
            elif frame_speed:
                j += 1
            room = (target_steps[0] if target_steps else nsteps) - k
            while 2 ** j > room:
                j -= 1
            if j == 1 and level == 1:
                # level 1 keeps level-0 steps, which are never rejected: it is
                # checked only on the way to level 2, and takes single steps meanwhile
                j = 0
            reuse, known = known == j, None
            if j == 0:
                step(0, w_hat)
                k += 1
                if not keep(k, 0):
                    return result
            else:
                # one step of 2^j dt against two of 2^(j-1) dt from the same state
                np.copyto(start, w_hat)
                if reuse:
                    np.copyto(coarse, first)
                else:
                    np.copyto(coarse, w_hat)
                    step(j, coarse)
                step(j - 1, w_hat)
                np.copyto(first, w_hat)
                # level-0 steps are the fixed-step path: kept, never checked
                if j == 1 and not keep(k + 1, 0):
                    return result
                step(j - 1, w_hat)
                np.subtract(coarse, w_hat, out=coarse)
                passed = np.linalg.norm(coarse) <= _DOUBLING_TOL * np.linalg.norm(w_hat)
                if passed:
                    level, fails[j] = max(level, j), 0
                else:
                    level, fails[j] = j - 1, fails.get(j, 0) + 1
                    waits[j] = min(_MAX_WAIT, 2 ** (fails[j] - 1))
                if passed or j == 1:
                    k += 2 ** j
                    if not keep(k, j - 1):
                        return result
                else:
                    # the next interval, at level j - 1, opens with the step `first` holds
                    np.copyto(w_hat, start)
                    known = j - 1
            if target_steps and target_steps[0] == k:
                lab = np.exp(-frame_speed * k * dt_eff * d1) * w_hat
                w = np.fft.irfft(lab, n).reshape(2 * n)
                if not np.isfinite(w).all():
                    result.completed = False
                    return result
                record(k, w)
    return result
