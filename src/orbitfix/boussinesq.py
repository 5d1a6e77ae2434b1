"""Solitary-wave profiles of a symmetric two-component long-wave system.

States stack velocity and elevation samples as w = (u, eta) on the
periodic grid of [-L, L) (orbitfix.periodic). The travelling-wave system
F(w) = S(w) - (u*eta, u^2/2) = 0 couples both fields through a
constant-coefficient symmetric operator S built from the wave speed and
the dispersion coefficients; its Jacobian stays symmetric, and the grid's
translations act on the solution set, so profiles are determined only up
to a shift, which this module aligns on eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numlin import FourierOperator, fourier_operator, matrix_2x2_function
from .periodic import check_grid, field_center, fourier_symbols, grid, periodic_wrap, translations
from .solvers import HomogeneousSplit, ProblemSpec
from .symmetry import GroupAction

__all__ = [
    "BSParams",
    "ExactProfile",
    "exact_profile",
    "build_bs_problem",
    "precond_operator",
    "translation_action",
    "PropagationResult",
    "propagation_schedule",
    "propagate",
]


@dataclass(frozen=True)
class BSParams:
    """Wave speed, grid, and the coefficients derived from theta2.

    The modelling parameter theta2 fixes c = 2/3 - theta2 and the one
    dispersion coefficient b = (theta2 - 1/3)/2, shared by both fields,
    which makes the travelling-wave Jacobian symmetric.
    """

    theta2: float
    speed: float
    n: int = 1024
    half_length: float = 50.0
    c: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self):
        if not (2.0 / 3.0 < self.theta2 <= 1.0):
            raise ValueError("theta2 must lie in (2/3, 1]")
        if not 1.0 < self.speed < np.inf:
            raise ValueError("wave speed must be finite and exceed 1")
        check_grid(self.n, self.half_length)
        object.__setattr__(self, "c", 2.0 / 3.0 - self.theta2)
        object.__setattr__(self, "b", 0.5 * (self.theta2 - 1.0 / 3.0))


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
    check_grid(n, half_length)
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


def _linear_symbol(params: BSParams, speed: float) -> np.ndarray:
    """S's symmetric 2x2 block at the given speed, shape (2, 2, n//2 + 1)."""
    xi = fourier_symbols(params.n, params.half_length)[0]
    a12 = speed * (1.0 + params.b * xi ** 2)
    return np.array([[np.full(xi.shape, -1.0), a12], [a12, -(1.0 - params.c * xi ** 2)]])


def build_bs_problem(params: BSParams) -> ProblemSpec:
    """Travelling-wave system for the given speed on the configured grid.

    F(w) = S w - N(w) with N(w) = (u eta, u^2/2), quadratic: the problem is
    the split (S, S^{-1}, N, degree 2), which gives F and G = S^{-1}N. S and
    S^{-1} are matrix symbols, one Fourier apply each; S^{-1} is
    matrix_2x2_function of S with f = 1/lambda. It exists on every mode:
    det S = (1 - c xi^2) - cs^2 (1 + b xi^2)^2 < 0 whenever cs > 1, as
    2b - |c| = 1/3.
    The Jacobian at w0 is the FourierOperator with symbol S and the
    symmetric 2x2 fields [[eta0, u0], [u0, 0]], whose reflection_blocks
    bs spectrum diagonalizes.
    """
    n = params.n
    s_symbol = _linear_symbol(params, params.speed)
    s_inverse = matrix_2x2_function(s_symbol, np.reciprocal)

    def nonlinear(w):
        w = np.asarray(w, dtype=float)
        u, eta = w[:n], w[n:]
        return np.concatenate([u * eta, 0.5 * u * u])

    def jacobian_at(w0):
        u0, eta0 = np.asarray(w0, dtype=float).reshape(2, n)
        return fourier_operator(s_symbol, n, np.array([[eta0, u0], [u0, np.zeros(n)]]))

    split = HomogeneousSplit(fourier_operator(s_symbol, n), fourier_operator(s_inverse, n),
                             nonlinear, 2.0)
    return ProblemSpec(F=split.residual, G=split.fixed_point_map, jacobian_at=jacobian_at,
                       homogeneous_split=split)


def precond_operator(params: BSParams) -> FourierOperator:
    """|S|^{-1} for the linear part S of the travelling-wave system.

    Per Fourier mode S is the symmetric block [[-1, cs(1 + b xi^2)],
    [cs(1 + b xi^2), -(1 - c xi^2)]], indefinite with negative determinant.
    Its absolute value |S| has the same eigenvectors and the moduli of the
    eigenvalues, so |S|^{-1}, matrix_2x2_function of S with f = 1/|lambda|,
    is symmetric positive definite and serves as the MINRES preconditioner
    for the indefinite Jacobian. Passed to minres as the operator itself,
    not its apply, it is fused with the Jacobian: each iteration's M r and
    J M r come from one transform pair.
    """
    symbol = matrix_2x2_function(_linear_symbol(params, params.speed),
                                 lambda lam: 1.0 / np.abs(lam))
    return fourier_operator(symbol, params.n)


def translation_action(params: BSParams) -> GroupAction:
    """Spatial shifts act(alpha, w)(x) = w(x - alpha) on both fields (periodic.translations).

    align reads the shift from the first Fourier mode of eta: exact between
    translates, and otherwise an element whose distance bounds the L2 orbit
    distance from above. An eta with no first mode, as at w = 0, a one-point
    orbit, aligns at 0: the reference.
    """
    n, L = params.n, params.half_length

    def align(x, xref):
        center, ref_center = field_center(x[n:], L), field_center(xref[n:], L)
        return 0.0 if None in (center, ref_center) else periodic_wrap(center - ref_center, L)

    return GroupAction(*translations(n, L), align)


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


# phi_3's Taylor coefficients 1/22!, ..., 1/3!, highest degree first; tail < 1e-22 for |z| < 1
_PHI3_TAYLOR = 1.0 / np.cumprod(np.arange(1.0, 23.0))[:1:-1]


def _phis(z: np.ndarray) -> np.ndarray:
    """(phi_1, phi_2, phi_3) at each complex z, stacked; phi_k(z) = sum_m z^m/(m + k)!.

    Inside the unit disc phi_3 is its Taylor series (Horner's rule), then
    phi_2 = 1/2 + z phi_3 and phi_1 = 1 + z phi_2. Elsewhere the recurrence
    phi_{k+1} = (phi_k - 1/k!)/z runs down from phi_1 = (e^z - 1)/z, which
    cancels no more than a few bits for |z| >= 1 (Hochbruck and Ostermann,
    Acta Numer. 19, 2010).
    """
    phis = np.empty((3, *z.shape), dtype=complex)
    small = np.abs(z) < 1.0
    s = z[small]
    phi3 = np.polyval(_PHI3_TAYLOR, s)
    phi2 = 0.5 + s * phi3
    phis[:, small] = 1.0 + s * phi2, phi2, phi3
    s = z[~small]
    phi1 = (np.exp(s) - 1.0) / s
    phi2 = (phi1 - 1.0) / s
    phis[:, ~small] = phi1, phi2, (phi2 - 0.5) / s
    return phis


def _etdrk4_level(h: float, L: np.ndarray, W: np.ndarray) -> tuple:
    """ETDRK4 coefficients of v_t = L v + W (u^2, eta u)^ for the step h (_evolution_symbols).

    The level is the tuple of 2x2 blocks (exp(hL/2), exp(hL), Q, f1, f2,
    f3), all six from one matrix_2x2_function of L, the last four scaled
    column by column by W (Cox and Matthews, J. Comput. Phys. 176, 2002):
    at z = h lambda for each eigenvalue lambda of L, Q = (h/2) phi_1(z/2),
    f1 = h (phi_1 - 3 phi_2 + 4 phi_3), f2 = 2h (phi_2 - 2 phi_3) and
    f3 = h (4 phi_3 - phi_2), the phi_k at z.
    """

    def functions(lam):
        z = h * lam
        # one evaluation at z/2 and z; only phi_1 is needed at z/2
        (half_phi1, phi1), (_, phi2), (_, phi3) = _phis(np.stack([0.5 * z, z]))
        return np.stack([np.exp(0.5 * z), np.exp(z), 0.5 * h * half_phi1,
                         h * (phi1 - 3.0 * phi2 + 4.0 * phi3), 2.0 * h * (phi2 - 2.0 * phi3),
                         h * (4.0 * phi3 - phi2)], axis=1)

    coefficients = np.moveaxis(matrix_2x2_function(L, functions), 2, 0)
    coefficients[2:] *= W
    return tuple(coefficients)


def _etdrk4_stepper(coefficients: tuple, nonlinear_hat):
    """One in-place ETDRK4 step on the half spectrum, by the coefficients of _etdrk4_level.

    A block acts as diag * x + anti * x[::-1], with its diagonal and anti-diagonal rows.
    """
    e_half, e_full, q, f1, f2, f3 = ((flat[[0, 3]], flat[1:3])
                                     for flat in (c.reshape(4, -1) for c in coefficients))
    pv, pa, pb, pc, e2v, a, b, c, tmp = (np.empty(e_full[1].shape, dtype=complex)
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


def _evolution_symbols(params: BSParams, frame_speed: float):
    """(d1, L, W) on modes 0..n/2 of the evolution -m P (S v - N(v)) in the frame at frame_speed.

    With m = -i xi/(1 + b xi^2) and P the row swap, v_dot^ = L v^ + W (u^2,
    eta u)^: the linear part L = -m P S_0 + frame_speed d1 I is -m P S at
    the speed frame_speed, and m P N weights the products by W = (m/2, m).
    """
    xi, d1 = fourier_symbols(params.n, params.half_length)
    m = -d1 / (1.0 + params.b * xi ** 2)
    L = -m * _linear_symbol(params, 0.0)[::-1] + frame_speed * d1 * np.eye(2)[:, :, None]
    return d1, L, np.stack([0.5 * m, m])


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
    u_t   = -(1 - b dxx)^{-1} dx(eta + c eta_xx + u^2/2)

    The state is the half spectrum (u^, eta^). With m = -i xi/(1 + b xi^2),
    P the row swap and S_0 the speed-0 part of S, the derivative is
    -m P (S_0 w - N(w)): a linear part -m P S_0 that swaps the two rows,
    plus weighted products. Each evaluation of the products sends the state
    through one batched inverse real transform to get u and eta, and
    (u^2, eta u) through one batched real transform back: 4 transform rows,
    4 evaluations a step. Stages are accumulated in place in preallocated
    buffers; no stage allocates an array.

    The run steps the frame moving at frame_speed cs,
    v(x, t) = w(x + cs t, t), which obeys v_t = f(v) + cs dx v, by ETDRK4:
    the linear part L = -m P S_0 + cs d1 I of _evolution_symbols is
    integrated exactly per mode, with the coefficients of Cox and Matthews
    built from the phi-functions at the step (_etdrk4_level). The default
    cs = 0 is the lab frame. As L = -m P S for S at speed cs, the frame's
    evolution is -m P (S v - N(v)) = -m P F: a solitary wave at speed cs, a
    zero of F, is an equilibrium of its frame by construction, which the
    exponential integrator keeps to the size of its residual |F|; the step
    is bound only by the dynamics off the wave. Snapshots are carried back
    to the lab frame by the symbol exp(-cs t d1), 1 at cs = 0. m zeroes the
    Nyquist mode, so the Nyquist coefficients never change.

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
    convergence study in dt needs. Each level's coefficients are built on
    its first use, from its own step alone.

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
    d1, L, W = _evolution_symbols(params, frame_speed)

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
        # level j steps 2^j dt; its stepper is built on first use
        if level not in steppers:
            coefficients = _etdrk4_level(dt_eff * 2 ** level, L, W)
            steppers[level] = _etdrk4_stepper(coefficients, nonlinear_hat)
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
