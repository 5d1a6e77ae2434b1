import numpy as np
import pytest

from orbitfix.boussinesq import (BSParams, WavePair, build_bs_problem, exact_profile, grid,
                                 precond_operator, propagate,
                                 translation_action, translation_shift)
from orbitfix.numlin import dense_eigenvalues, fd_jacobian, materialize, minres
from orbitfix.symmetry import kernel_check


THETA2 = 0.9


def _params(n=256, half_length=25.0, speed=None):
    if speed is None:
        speed = exact_profile(THETA2, n, half_length).speed
    return BSParams(theta2=THETA2, speed=speed, n=n, half_length=half_length)


# ---------------- parameters ----------------

def test_params_validation():
    with pytest.raises(ValueError):
        BSParams(theta2=0.5, speed=2.0, n=64, half_length=10.0)
    with pytest.raises(ValueError):
        BSParams(theta2=0.9, speed=0.5, n=64, half_length=10.0)
    with pytest.raises(ValueError):
        BSParams(theta2=0.9, speed=2.0, n=63, half_length=10.0)
    with pytest.raises(ValueError):
        BSParams(theta2=0.9, speed=2.0, n=64, half_length=-1.0)


def test_derived_coefficients():
    p = _params()
    assert abs(p.c - (2.0 / 3.0 - THETA2)) < 1e-15
    assert abs(p.b - (THETA2 - 1.0 / 3.0) / 2.0) < 1e-15
    assert p.b == p.d


def test_grid_layout():
    x = grid(8, 2.0)
    assert x[0] == -2.0
    assert abs(x[1] - x[0] - 0.5) < 1e-15
    assert len(x) == 8
    assert x[-1] < 2.0  # right endpoint excluded


# ---------------- closed-form travelling wave ----------------

def test_profile_constants():
    prof = exact_profile(THETA2, 512, 50.0)
    assert abs(prof.eta0 - 5.5) < 1e-12
    assert abs(prof.speed - 2.772405) < 1e-5
    assert abs(prof.decay - 0.832633) < 1e-5
    assert abs(prof.ratio - 0.594089) < 1e-5


def test_profile_domain_errors():
    with pytest.raises(ValueError):
        exact_profile(0.75, 64, 10.0)  # below 7/9
    with pytest.raises(ValueError):
        exact_profile(1.0, 64, 10.0)


def test_profile_velocity_proportional_to_height():
    prof = exact_profile(THETA2, 256, 25.0)
    assert np.allclose(prof.wave.u, prof.ratio * prof.wave.eta, atol=1e-13)


def test_profile_even_and_localized():
    prof = exact_profile(THETA2, 256, 25.0)
    eta = prof.wave.eta
    assert prof.wave.localized()
    # even about the centre: eta(x_j) = eta(x_{-j}) for the sech^2 bump at 0
    assert np.allclose(eta[1:], eta[1:][::-1], atol=1e-13)


def test_profile_offset_center():
    prof = exact_profile(THETA2, 512, 50.0, x0=1.5)
    assert abs(translation_shift(prof, 50.0) - 1.5) < 1e-10


def test_measured_center_wraps_into_domain():
    params = _params(n=512, half_length=50.0)
    action = translation_action(params)
    w = exact_profile(THETA2, 512, 50.0).wave.vector()
    # 300 grid cells = 58.59...: lands at 58.59 - 100 on (-50, 50]
    h = 2 * params.half_length / params.n
    shifted = action.act(300 * h, w)
    measured = translation_shift(WavePair.from_vector(shifted), 50.0)
    assert abs(measured - (300 * h - 100.0)) < 1e-8


# ---------------- residual and Jacobian ----------------

def test_profile_is_near_solution_fine_grid():
    params = _params(n=1024, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 1024, 50.0).wave.vector()
    assert np.linalg.norm(problem.F(w)) < 1e-10


def test_zero_wave_is_trivial_solution():
    params = _params()
    problem = build_bs_problem(params)
    assert np.linalg.norm(problem.F(np.zeros(2 * params.n))) < 1e-14


def test_jacobian_is_symmetric():
    params = _params(n=128)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 128, 25.0).wave.vector()
    J = materialize(problem.jacobian_at(w))
    assert np.allclose(J, J.T, atol=1e-10)


def test_jacobian_matches_fd():
    params = _params(n=32, half_length=10.0)
    problem = build_bs_problem(params)
    rng = np.random.default_rng(41)
    w = 0.1 * rng.standard_normal(64)
    J = materialize(problem.jacobian_at(w))
    fd = fd_jacobian(problem.F, w)
    assert np.allclose(J, fd, atol=1e-5)


def test_equivariance_under_grid_shifts():
    params = _params(n=128)
    problem = build_bs_problem(params)
    rng = np.random.default_rng(42)
    base = exact_profile(THETA2, 128, 25.0).wave.vector()
    w = base + 0.01 * rng.standard_normal(256)

    def roll(v, k):
        u, eta = v[:128], v[128:]
        return np.concatenate([np.roll(u, k), np.roll(eta, k)])

    for k in (1, 7, 64):
        assert np.allclose(problem.F(roll(w, k)), roll(problem.F(w), k), atol=1e-8)


def test_kernel_contains_translation_generator():
    params = _params(n=512, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 512, 50.0).wave.vector()
    val = kernel_check(problem, w, translation_action(params))
    assert val <= 1e-6


def test_jacobian_spectrum_at_wave():
    # exactly one eigenvalue sits at zero (the translation mode); the rest
    # are O(1) and of both signs
    params = _params(n=512, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 512, 50.0).wave.vector()
    rep = dense_eigenvalues(problem.jacobian_at(w))
    assert rep.count_near_zero == 1
    vals = rep.eigenvalues.real
    assert vals.max() > 0.1 and vals.min() < -0.1


# ---------------- preconditioner ----------------

def test_precond_validation():
    params = _params(n=4, half_length=1.0)
    with pytest.raises(ValueError):
        precond_operator(params, 0.0)
    with pytest.raises(ValueError):
        precond_operator(params, -1.0)
    with pytest.raises(ValueError):
        precond_operator(params, 1.0).apply(np.ones(7))


def test_precond_constant_mode():
    # on constants the operator (s - dxx)^{-1} is multiplication by 1/s
    v = np.concatenate([np.full(16, 3.0), np.full(16, -2.0)])
    out = precond_operator(_params(n=16, half_length=2.0), 4.0).apply(v)
    assert np.allclose(out, v / 4.0, atol=1e-13)


def test_precond_inverts_shifted_laplacian():
    n, L, s = 64, 5.0, 1.7
    x = grid(n, L)
    rng = np.random.default_rng(43)
    coeffs = rng.standard_normal(5)
    field = sum(c * np.cos((k + 1) * np.pi * x / L) for k, c in enumerate(coeffs))
    v = np.concatenate([field, 2 * field])
    out = precond_operator(_params(n=n, half_length=L), s).apply(v)
    from orbitfix.numlin import spectral_derivative
    recovered = np.concatenate([
        s * out[:n] - spectral_derivative(out[:n], L, 2),
        s * out[n:] - spectral_derivative(out[n:], L, 2),
    ])
    assert np.allclose(recovered, v, atol=1e-10)


def test_precond_single_mode_eigenvalue():
    n, L, s = 32, np.pi, 2.0
    x = grid(n, L)
    mode = np.sin(3 * x)  # xi = 3 on this domain
    v = np.concatenate([mode, np.zeros(n)])
    out = precond_operator(_params(n=n, half_length=L), s).apply(v)
    assert np.allclose(out[:n], mode / (s + 9.0), atol=1e-12)


def test_precond_operator_is_spd_for_minres():
    params = _params(n=64)
    M = precond_operator(params, 1.0)
    assert M.symmetric
    col = materialize(M)
    assert np.allclose(col, col.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(col) > 0)


# ---------------- translation diagnostics ----------------

def test_shift_act_is_exact_roll_on_grid_multiples():
    params = _params(n=128)
    action = translation_action(params)
    w = exact_profile(THETA2, 128, 25.0).wave.vector()
    h = 2 * params.half_length / params.n
    rolled = action.act(3 * h, w)
    u, eta = w[:128], w[128:]
    assert np.allclose(rolled, np.concatenate([np.roll(u, 3), np.roll(eta, 3)]),
                       atol=1e-12)


def test_translation_shift_components_agree():
    prof = exact_profile(THETA2, 512, 50.0, x0=0.8)
    xu = translation_shift(prof, 50.0, component="u")
    xe = translation_shift(prof, 50.0, component="eta")
    assert abs(xu - 0.8) < 1e-8
    assert abs(xu - xe) < 1e-10


def test_translation_shift_errors():
    with pytest.raises(ValueError, match="component"):
        translation_shift(exact_profile(THETA2, 64, 10.0), 10.0, component="w")
    zero = WavePair(u=np.zeros(64), eta=np.zeros(64))
    with pytest.raises(ValueError, match="mode"):
        translation_shift(zero, 10.0)


# ---------------- time propagation ----------------

def test_propagate_zero_stays_zero():
    params = _params(n=64, half_length=10.0)
    w0 = WavePair(u=np.zeros(64), eta=np.zeros(64))
    result = propagate(w0, params, dt=0.01, t_end=0.5)
    assert result.completed
    assert np.linalg.norm(result.states[-1].vector()) < 1e-14


def test_propagate_travelling_wave():
    params = _params(n=512, half_length=50.0)
    prof = exact_profile(THETA2, 512, 50.0)
    t_end = 2.0
    result = propagate(prof.wave, params, dt=0.005, t_end=t_end)
    assert result.completed
    final = result.states[-1]
    center = translation_shift(final, 50.0)
    assert abs(center - prof.speed * t_end) < 1e-3

    # aligned shape error: compare against the analytic profile recentred
    moved = exact_profile(THETA2, 512, 50.0, x0=center)
    num = np.linalg.norm(final.vector() - moved.wave.vector())
    den = np.linalg.norm(moved.wave.vector())
    assert num / den < 1e-3


def test_propagate_snapshot_times():
    params = _params(n=64, half_length=10.0)
    prof = exact_profile(THETA2, 64, 10.0)
    result = propagate(prof.wave, params, dt=0.01, t_end=1.0,
                       snapshot_times=[0.0, 0.5, 1.0])
    assert result.completed
    assert len(result.times) == 3
    assert abs(result.times[0]) < 1e-12
    assert abs(result.times[1] - 0.5) < 0.011
    assert abs(result.times[2] - 1.0) < 1e-9


def test_propagate_aborts_on_blowup():
    params = _params(n=64, half_length=10.0)
    w0 = WavePair(u=np.full(64, 1e200), eta=np.zeros(64))
    result = propagate(w0, params, dt=0.1, t_end=1.0)
    assert not result.completed


def test_propagate_rejects_bad_steps():
    params = _params(n=64, half_length=10.0)
    w0 = WavePair(u=np.zeros(64), eta=np.zeros(64))
    with pytest.raises(ValueError):
        propagate(w0, params, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        propagate(w0, params, dt=0.1, t_end=0.0)


def test_propagate_fourth_order_in_time():
    params = _params(n=256, half_length=25.0)
    prof = exact_profile(THETA2, 256, 25.0)
    t_end = 1.0
    ref = propagate(prof.wave, params, dt=0.0025, t_end=t_end).states[-1].vector()
    errs = []
    dts = (0.04, 0.02, 0.01)
    for dt in dts:
        got = propagate(prof.wave, params, dt=dt, t_end=t_end).states[-1].vector()
        errs.append(np.linalg.norm(got - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.5
