"""Property tests of the built-in problems' symmetries.

The wave problem is equivariant under translations; the ring potential is
equivariant under global rotations and under relabelling the bodies. Along
a solution's group orbit the generator stays in the Jacobian's kernel.
Anderson mixing keeps the iteration equivariant under these orthogonal
actions, and its extrapolated steps stay under the divergence cap. The
quotient Newton solve's forcing terms stay between their floor and
EW_ETA_MAX, and a step that can finish solves to the floor.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from orbitfix.boussinesq import (BSParams, build_bs_problem, exact_profile,  # noqa: E402
                                 translation_action)
from orbitfix.nbody import (NBodyConfig, build_nbody, grad_U, hess_U,  # noqa: E402
                            polygon_solution, rotation_action)
from orbitfix.solvers import (DIVERGED, DIVERGENCE_CAP, EW_ETA_MAX, EW_FINISH,  # noqa: E402
                              EW_GAMMA, AndersonMixer, ProblemSpec, SolverConfig,
                              _forcing_term, fixed_point_solve, petviashvili_solve)
from orbitfix.symmetry import kernel_check  # noqa: E402

N, L = 64, 10.0
PARAMS = BSParams(theta2=0.9, speed=1.3, n=N, half_length=L)
STATES = arrays(np.float64, 2 * N, elements=st.floats(-1.0, 1.0))
SHIFTS = st.floats(-L, L)
PROPERTY = settings(max_examples=40, deadline=None, database=None)


# A real field's Nyquist coefficient is real, so it cannot carry the
# fractional phase exp(-i xi alpha): act keeps only the real part of that
# mode, and act(a, act(b, w)) = act(a + b, w) holds only once the mode is
# removed. On a random state with the mode present, act(-0.3, act(0.3, w))
# misses w by about 2e-3 at N = 64, L = 10.
def _drop_nyquist(v):
    v_hat = np.fft.rfft(v.reshape(-1, N))
    v_hat[:, N // 2] = 0.0
    return np.fft.irfft(v_hat, N).reshape(v.shape)


@PROPERTY
@given(STATES, SHIFTS, SHIFTS)
def test_act_composes_on_states_without_nyquist_mode(w, a, b):
    act = translation_action(PARAMS).act
    w = _drop_nyquist(w)
    assert np.allclose(act(a, act(b, w)), act(a + b, w), rtol=0.0, atol=1e-12)


@PROPERTY
@given(STATES, st.integers(0, N - 1))
def test_residual_is_equivariant_under_grid_rolls(w, k):
    F = build_bs_problem(PARAMS).F

    def roll(v):
        return np.concatenate([np.roll(v[:N], k), np.roll(v[N:], k)])

    assert np.allclose(F(roll(w)), roll(F(w)), rtol=0.0, atol=1e-10)


# h = 2L/n is about 0.1 here. At n = 256 (h about 0.2) an off-grid shift of
# the closed-form wave lifts |F| from 7e-10 to 1e-8, past kernel_check's gate.
WAVE = exact_profile(0.9, 512, 25.0)
WAVE_PARAMS = BSParams(theta2=0.9, speed=WAVE.speed, n=512, half_length=25.0)
WAVE_PROBLEM = build_bs_problem(WAVE_PARAMS)


@PROPERTY
@given(st.floats(-25.0, 25.0))
def test_translation_generator_stays_in_the_kernel_along_the_wave_orbit(alpha):
    action = translation_action(WAVE_PARAMS)
    w = action.act(alpha, WAVE.wave)
    assert np.linalg.norm(WAVE_PROBLEM.F(w)) <= 1e-11
    assert kernel_check(WAVE_PROBLEM, w, action) <= 1e-10


# ---------------- ring potential ----------------

@st.composite
def rings(draw):
    """A ring and a state near its regular polygon."""
    n = draw(st.integers(2, 8))
    cfg = NBodyConfig(n=n, m0=draw(st.floats(0.0, 10.0)))
    noise = draw(arrays(np.float64, 2 * n, elements=st.floats(-0.1, 0.1)))
    return cfg, polygon_solution(n) + noise


def _rotation(n, alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.kron(np.eye(n), np.array([[c, -s], [s, c]]))


def _close(got, want):
    return np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


@PROPERTY
@given(rings(), st.floats(-np.pi, np.pi))
def test_ring_potential_is_rotation_equivariant(ring, alpha):
    cfg, q = ring
    R = _rotation(cfg.n, alpha)
    assert _close(grad_U(cfg, R @ q), R @ grad_U(cfg, q))
    assert _close(hess_U(cfg, R @ q), R @ hess_U(cfg, q) @ R.T)


@PROPERTY
@given(st.integers(2, 16), st.floats(0.0, 20.0), st.floats(-np.pi, np.pi))
def test_rotation_generator_stays_in_the_kernel_along_the_polygon_orbit(n, m0, alpha):
    problem = build_nbody(NBodyConfig(n=n, m0=m0))
    q = _rotation(n, alpha) @ polygon_solution(n)
    assert kernel_check(problem, q, rotation_action()) <= 1e-11


@PROPERTY
@given(rings(), st.data())
def test_ring_potential_is_relabelling_equivariant(ring, data):
    cfg, q = ring
    perm = np.array(data.draw(st.permutations(range(cfg.n))))
    idx = (2 * perm[:, None] + np.array([0, 1])).ravel()
    # the bodies have equal masses, so relabelling them is a symmetry of the ring
    assert _close(grad_U(cfg, q[idx]), grad_U(cfg, q)[idx])
    assert _close(hess_U(cfg, q[idx]), hess_U(cfg, q)[np.ix_(idx, idx)])


# ---------------- Anderson mixing ----------------

@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1), st.floats(-np.pi, np.pi),
       st.integers(1, 4))
def test_accelerated_ring_iteration_commutes_with_rotations(n, seed, alpha, window):
    # a generic ring from a seeded generator: a state with a symmetry of its
    # own (say the exact polygon) gives rank-deficient least-squares problems,
    # whose cut-off rank, and so the step, can change with round-off
    rng = np.random.default_rng(seed)
    cfg = NBodyConfig(n=n, m0=rng.uniform(0.0, 10.0))
    q = polygon_solution(n) + 0.05 * rng.standard_normal(2 * n)
    problem = build_nbody(cfg)
    R = _rotation(cfg.n, alpha)
    config = SolverConfig(max_outer=5, anderson=window)
    plain = petviashvili_solve(problem, q, config)
    rotated = petviashvili_solve(problem, R @ q, config)
    assert (rotated.status, rotated.iterations) == (plain.status, plain.iterations)
    if np.all(np.isfinite(plain.x)):
        assert np.allclose(rotated.x, R @ plain.x, rtol=0.0,
                           atol=1e-9 * max(1.0, np.max(np.abs(plain.x))))


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1), SHIFTS, st.integers(1, 4))
def test_anderson_step_commutes_with_translations(seed, alpha, window):
    # history[k] = (x_k, g_k), Nyquist-free, where the shift is orthogonal.
    # Gaussian states keep the least-squares problems full rank: on a
    # rank-deficient history the cut-off rank, and so the step, can change
    # with round-off even at alpha = 0.
    act = translation_action(PARAMS).act
    history = np.random.default_rng(seed).standard_normal((5, 2, 2 * N))
    history = [[_drop_nyquist(v) for v in pair] for pair in history]
    mix, shifted = AndersonMixer(window), AndersonMixer(window)
    for x, g in history:
        got = shifted(act(alpha, x), act(alpha, g))
        want = act(alpha, mix(x, g))
    assert np.allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))


@PROPERTY
@given(st.integers(1, 5))
def test_divergence_cap_stops_a_wild_accelerated_step(window):
    # f(x) = G(x) - x = 1 - 2e-9 x + 1e-9 x^2 is nearly flat between the
    # first two iterates 0 and 1, so the first mixed (secant) step jumps to
    # x of about 1e9, where the gap is about 1e9: above DIVERGENCE_CAP.
    # The plain iteration creeps up by about 1 a step.
    def G(x):
        return x + 1.0 - 2e-9 * x + 1e-9 * x * x

    problem = ProblemSpec(F=lambda x: x - G(x), G=G)
    plain = fixed_point_solve(problem, np.zeros(1), SolverConfig(max_outer=50))
    assert plain.status == "MaxIterations"
    wild = fixed_point_solve(problem, np.zeros(1),
                             SolverConfig(max_outer=50, anderson=window))
    assert (wild.status, wild.iterations) == (DIVERGED, 2)
    assert wild.trace[-1].residual > DIVERGENCE_CAP


@PROPERTY
@given(st.floats(1e-14, 1e-6), st.floats(1e-14, 1e-2), st.floats(1.0, 1e12, exclude_min=True),
       st.one_of(st.none(), st.floats(1e-3, 1e3)))
def test_forcing_term_stays_between_its_floor_and_eta_max(tol, inner_tol, scale, ratio):
    # scale = |F_k| / tol > 1, as at every step Newton takes; ratio = |F_k-1| / |F_k|
    residual = tol * scale
    prev = None if ratio is None else residual * ratio
    eta = _forcing_term(residual, prev, tol, inner_tol)
    floor = max(inner_tol, min(EW_ETA_MAX, 0.5 * tol / residual))
    assert floor <= eta <= EW_ETA_MAX
    choice2 = EW_ETA_MAX if prev is None else min(EW_ETA_MAX, EW_GAMMA * (residual / prev) ** 2)
    # never looser than choice 2 asks, unless the floor says so
    assert eta <= max(choice2, floor)
    if choice2 * residual <= EW_FINISH * tol:
        # a step that can finish the run solves to the floor
        assert eta == floor
