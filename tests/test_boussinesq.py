from dataclasses import replace

import numpy as np
import pytest

from orbitfix.boussinesq import (BSParams, build_bs_problem, exact_profile, grid, precond_operator,
                                 propagate, reflection_blocks, translation_action,
                                 translation_shift)
from orbitfix.numlin import (abs_inverse_2x2, dense_eigenvalues, fd_jacobian, fourier_apply,
                             fourier_symbols, inverse_2x2, materialize, minres)
from orbitfix.solvers import SolverConfig, newton_solve, petviashvili_solve
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


@pytest.mark.parametrize("name", ["c", "b", "d"])
def test_derived_coefficients_are_not_arguments(name):
    # c, b and d follow from theta2, so none is a constructor argument
    with pytest.raises(TypeError):
        BSParams(theta2=THETA2, speed=2.0, n=64, half_length=10.0, **{name: 0.1})


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
    u, eta = prof.wave.reshape(2, 256)
    assert np.allclose(u, prof.ratio * eta, atol=1e-13)


def test_profile_even_and_localized():
    eta = exact_profile(THETA2, 256, 25.0).wave[256:]
    assert abs(eta[0]) < 1e-10  # decayed at the cell boundary
    # even about the centre: eta(x_j) = eta(x_{-j}) for the sech^2 bump at 0
    assert np.allclose(eta[1:], eta[1:][::-1], atol=1e-13)


def test_profile_offset_center():
    prof = exact_profile(THETA2, 512, 50.0, x0=1.5)
    assert abs(translation_shift(prof.wave, 50.0) - 1.5) < 1e-10


def test_measured_center_wraps_into_domain():
    params = _params(n=512, half_length=50.0)
    action = translation_action(params)
    w = exact_profile(THETA2, 512, 50.0).wave
    # 300 grid cells = 58.59...: lands at 58.59 - 100 on (-50, 50]
    h = 2 * params.half_length / params.n
    shifted = action.act(300 * h, w)
    measured = translation_shift(shifted, 50.0)
    assert abs(measured - (300 * h - 100.0)) < 1e-8


# ---------------- residual and Jacobian ----------------

def test_profile_is_near_solution_fine_grid():
    params = _params(n=1024, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 1024, 50.0).wave
    assert np.linalg.norm(problem.F(w)) < 1e-10


def test_zero_wave_is_trivial_solution():
    params = _params()
    problem = build_bs_problem(params)
    assert np.linalg.norm(problem.F(np.zeros(2 * params.n))) < 1e-14


def _complex_fft_apply(symbol, v):
    # fourier_apply's former definition: complex transforms, real part kept
    n = symbol.shape[-1]
    if symbol.ndim == 1:
        return np.fft.ifft(np.fft.fft(v.reshape(-1, n)) * symbol).real.reshape(-1)
    v_hat = np.fft.fft(v.reshape(symbol.shape[0], n))
    return np.fft.ifft(np.einsum("ijn,jn->in", symbol, v_hat)).real.reshape(-1)


def _d2_linear_part(params, v):
    # S v written out through d2, as F and the Jacobian used to apply it
    n = params.n
    u, eta = v[:n], v[n:]
    d2v = _complex_fft_apply(fourier_symbols(n, params.half_length)[2], v)
    d2u, d2eta = d2v[:n], d2v[n:]
    return np.concatenate([-u + params.speed * (eta - params.b * d2eta),
                           params.speed * (u - params.d * d2u) - (eta + params.c * d2eta)])


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_real_transforms_match_the_complex_fft_definition():
    params = _params(n=512, half_length=50.0)
    xi, d1, d2 = fourier_symbols(512, 50.0)
    a12 = params.speed * (1.0 + params.b * xi ** 2)
    a22 = -(1.0 - params.c * xi ** 2)
    s_symbol = np.array([[-np.ones(512), a12], [a12, a22]])
    v = np.random.default_rng(18).standard_normal(1024)  # every mode, Nyquist included
    symbols = (d1, d2, np.exp(-1j * xi * 0.123), s_symbol,
               inverse_2x2(-1.0, a12, a22), abs_inverse_2x2(-1.0, a12, a22))
    for symbol in symbols:
        assert _rel_err(fourier_apply(symbol, v), _complex_fft_apply(symbol, v)) <= 1e-13


def test_residual_and_jacobian_match_the_d2_formulas():
    params = _params(n=512, half_length=50.0)
    n = params.n
    problem = build_bs_problem(params)
    rng = np.random.default_rng(19)
    w, v = rng.standard_normal((2, 2 * n))
    u, eta = w[:n], w[n:]
    vu, ve = v[:n], v[n:]
    F_ref = _d2_linear_part(params, w) - np.concatenate([u * eta, 0.5 * u * u])
    J_ref = _d2_linear_part(params, v) - np.concatenate([eta * vu + u * ve, u * vu])
    assert _rel_err(problem.F(w), F_ref) <= 1e-13
    assert _rel_err(problem.jacobian_at(w).apply(v), J_ref) <= 1e-13
    assert _rel_err(problem.homogeneous_split.linear(v), _d2_linear_part(params, v)) <= 1e-13


def test_jacobian_is_symmetric():
    params = _params(n=128)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 128, 25.0).wave
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
    base = exact_profile(THETA2, 128, 25.0).wave
    w = base + 0.01 * rng.standard_normal(256)

    def roll(v, k):
        u, eta = v[:128], v[128:]
        return np.concatenate([np.roll(u, k), np.roll(eta, k)])

    for k in (1, 7, 64):
        assert np.allclose(problem.F(roll(w, k)), roll(problem.F(w), k), atol=1e-8)


def test_kernel_contains_translation_generator():
    params = _params(n=512, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 512, 50.0).wave
    val = kernel_check(problem, w, translation_action(params))
    assert val <= 1e-6


def test_jacobian_spectrum_at_wave():
    # exactly one eigenvalue sits at zero (the translation mode); the rest
    # are O(1) and of both signs
    params = _params(n=512, half_length=50.0)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 512, 50.0).wave
    rep = dense_eigenvalues(problem.jacobian_at(w))
    assert rep.count_near_zero == 1
    vals = rep.eigenvalues.real
    assert vals.max() > 0.1 and vals.min() < -0.1


def _matvec_reflection_blocks(problem, w0):
    """Reference blocks: one Jacobian matvec per even or odd basis vector."""
    w0 = np.asarray(w0, dtype=float)
    n = w0.shape[0] // 2
    j = np.arange(n)
    mirror = np.concatenate([(-j) % n, n + (-j) % n])
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
    return blocks


def _random_even_state(n, seed):
    # reflection-even, Nyquist content in both fields, u not proportional to eta
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal((2, n)) + 0.3 * (-1.0) ** np.arange(n) * rng.standard_normal((2, 1))
    return (fields + fields[:, (-np.arange(n)) % n]).reshape(2 * n)


@pytest.mark.parametrize("n, half_length", [(64, 10.0), (256, 25.0)])
@pytest.mark.parametrize("state", ["profile", "random"])
def test_reflection_blocks_match_matvec_reference(n, half_length, state):
    params = _params(n=n, half_length=half_length)
    if state == "profile":
        w = exact_profile(THETA2, n, half_length).wave
    else:
        w = _random_even_state(n, seed=n)
        assert abs(np.sum(w[:n] * (-1.0) ** np.arange(n))) > 1.0
        assert abs(np.sum(w[n:] * (-1.0) ** np.arange(n))) > 1.0
    ref = _matvec_reflection_blocks(build_bs_problem(params), w)
    got = list(reflection_blocks(params, w))
    assert [g.shape for g in got] == [(n + 2, n + 2), (n - 2, n - 2)]
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("n, half_length", [(64, 10.0), (256, 25.0)])
def test_reflection_blocks_match_dense_spectrum(n, half_length):
    params = _params(n=n, half_length=half_length)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, n, half_length).wave
    even, odd = reflection_blocks(params, w)
    assert even.shape == (n + 2, n + 2) and odd.shape == (n - 2, n - 2)
    dense = np.linalg.eigvalsh(materialize(problem.jacobian_at(w)))
    rep = dense_eigenvalues((even, odd))
    split = np.sort(rep.eigenvalues.real)
    assert np.max(np.abs(rep.eigenvalues.imag)) == 0.0
    assert np.max(np.abs(split - dense)) <= 1e-10 * np.max(np.abs(dense))
    # the translation generator is odd, so the symmetry-forced zero is too
    assert rep.block_dims == (n + 2, n - 2)
    assert rep.block_near_zero == (0, 1)


def test_spectrum_builds_each_reflection_block_after_dropping_the_last(monkeypatch):
    import weakref

    import orbitfix.boussinesq as bq

    params = _params(n=64, half_length=10.0)
    w = exact_profile(THETA2, 64, 10.0).wave
    build = bq._reflection_block
    built = []  # weak references to the blocks built so far
    held = []  # per build: was an earlier block still alive?

    def tracked(*args):
        held.append(any(ref() is not None for ref in built))
        block = build(*args)
        built.append(weakref.ref(block))
        return block

    monkeypatch.setattr(bq, "_reflection_block", tracked)
    blocks = reflection_blocks(params, w)
    assert built == []
    rep = dense_eigenvalues(blocks)
    assert held == [False, False]
    assert rep.block_dims == (66, 62)


def test_reflection_blocks_reject_uncentred_state():
    params = _params(n=64, half_length=25.0)
    shifted = exact_profile(THETA2, 64, 25.0, x0=0.3).wave
    with pytest.raises(ValueError, match="even"):
        reflection_blocks(params, shifted)


# ---------------- preconditioner ----------------

def _s_block(params, xi):
    """The linear part S at one wavenumber, as a dense 2x2 matrix."""
    a12 = params.speed * (1.0 + params.b * xi ** 2)
    return np.array([[-1.0, a12], [a12, -(1.0 - params.c * xi ** 2)]])


def _abs_inverse(block):
    lam, vec = np.linalg.eigh(block)
    return vec @ np.diag(1.0 / np.abs(lam)) @ vec.T


def test_precond_validation():
    params = _params(n=4, half_length=1.0)
    M = precond_operator(params)
    assert M.dim == 8
    for bad in (np.ones(7), np.ones(4), np.ones(12)):
        with pytest.raises(ValueError):
            M.apply(bad)


def test_precond_constant_mode():
    # on constants S is the 2x2 block [[-1, cs], [cs, -1]]; |S|^{-1} is its absolute inverse
    params = _params(n=16, half_length=2.0)
    v = np.concatenate([np.full(16, 3.0), np.full(16, -2.0)])
    out = precond_operator(params).apply(v)
    expected = _abs_inverse(_s_block(params, 0.0)) @ np.array([3.0, -2.0])
    assert np.allclose(out, np.repeat(expected, 16), atol=1e-13)


def test_precond_times_linear_part_is_an_involution():
    # |S|^{-1} S is the sign of S, whose square is the identity
    n, L = 64, 5.0
    params = _params(n=n, half_length=L)
    S = build_bs_problem(params).jacobian_at(np.zeros(2 * n))
    M = precond_operator(params)
    v = np.random.default_rng(43).standard_normal(2 * n)
    once = M.apply(S.apply(v))
    assert not np.allclose(once, v, atol=1e-3)
    assert np.allclose(M.apply(S.apply(once)), v, atol=1e-12)


def test_precond_single_mode_eigenvalue():
    n, L = 32, np.pi
    params = _params(n=n, half_length=L)
    x = grid(n, L)
    mode = np.sin(3 * x)  # xi = 3 on this domain
    v = np.concatenate([mode, np.zeros(n)])
    out = precond_operator(params).apply(v)
    column = _abs_inverse(_s_block(params, 3.0))[:, 0]
    assert np.allclose(out, np.concatenate([column[0] * mode, column[1] * mode]), atol=1e-12)


def test_precond_operator_is_spd_for_minres():
    params = _params(n=64)
    M = precond_operator(params)
    assert M.symmetric
    col = materialize(M)
    assert np.allclose(col, col.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(col) > 0)
    # minres raises when the preconditioned inner products are not positive
    S = build_bs_problem(params).jacobian_at(np.zeros(2 * params.n))
    b = np.random.default_rng(5).standard_normal(2 * params.n)
    _, stats = minres(S, b, tol=1e-10, maxit=50, precond=M.apply)
    assert stats.relative_residual <= 1e-10


def test_precond_minres_solves_linear_part_in_few_iterations():
    n = 16
    params = _params(n=n, half_length=5.0)
    S = build_bs_problem(params).jacobian_at(np.zeros(2 * n))
    b = np.random.default_rng(6).standard_normal(2 * n)
    _, plain = minres(S, b, tol=1e-10, maxit=200)
    x, prec = minres(S, b, tol=1e-10, maxit=200, precond=precond_operator(params).apply)
    assert prec.iterations <= 3 < plain.iterations
    assert np.linalg.norm(S.apply(x) - b) <= 1e-10 * np.linalg.norm(b)


# ---------------- deflated, preconditioned Newton ----------------

def _wave_newton(params, w0, tol, record=None):
    problem = build_bs_problem(params)
    if record is not None:
        F = problem.F

        def recording_F(w):
            record.append(np.array(w))
            return F(w)

        problem = replace(problem, F=recording_F)
    config = SolverConfig(tol_residual=tol, max_outer=50, inner_solver="minres",
                          inner_maxit=500)
    return newton_solve(problem, w0, config, precond=precond_operator(params).apply,
                        generators=translation_action(params).generators)


def _generator_seed(n, eps):
    profile = exact_profile(THETA2, n, 50.0)
    params = BSParams(theta2=THETA2, speed=profile.speed, n=n, half_length=50.0)
    w = profile.wave
    return params, w + eps * fourier_apply(fourier_symbols(n, 50.0)[1], w)


def test_deflated_newton_converges_from_small_generator_seed():
    # at eps = 0.01 the tolerance sits just above the residual floor; without
    # projecting -F(x) the inner solves lose all accuracy there and Newton diverges
    params, w0 = _generator_seed(1024, 0.01)
    out = _wave_newton(params, w0, 1e-11)
    assert out.status == "ConvergedResidual"
    assert out.iterations <= 4
    assert abs(translation_shift(out.x, 50.0) - (-0.01)) < 1e-6


def test_deflated_newton_steps_are_orthogonal_to_the_generator():
    params, w0 = _generator_seed(512, 0.1)
    iterates = []
    out = _wave_newton(params, w0, 1e-11, record=iterates)
    assert out.converged and len(iterates) == out.iterations + 1 >= 3
    generators = translation_action(params).generators
    for x, x_next in zip(iterates, iterates[1:]):
        g = generators(x)[0]
        dx = x_next - x
        # the second term is the round-off of x_next - x
        bound = (1e-12 * np.linalg.norm(dx) + 1e-14 * np.linalg.norm(x)) * np.linalg.norm(g)
        assert abs(np.dot(dx, g)) <= bound


def test_deflated_newton_at_prescribed_speed_needs_few_inner_iterations():
    n = 512
    profile = exact_profile(THETA2, n, 50.0)
    params = BSParams(theta2=THETA2, speed=1.2, n=n, half_length=50.0)
    out = _wave_newton(params, profile.wave, 1e-11)
    assert out.status == "ConvergedResidual"
    assert out.iterations <= 12
    assert out.inner_iterations < 500


# ---------------- Petviashvili ----------------

def test_fixed_point_form_matches_the_residual():
    # F(w) = S w - N(w) and G = S^{-1}N, so F(w) = S(w - G(w))
    params = _params(speed=1.3)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, 256, 25.0).wave
    split = problem.homogeneous_split
    assert split.degree == 2.0
    got = split.linear(w - problem.G(w))
    assert np.allclose(got, problem.F(w), rtol=0.0, atol=1e-11 * np.abs(problem.F(w)).max())


def test_petviashvili_stops_on_the_residual_not_only_the_gap():
    # at cs = 2 and tol 1e-6 the gap |w - G(w)| meets the tolerance one step
    # before |F(w)| does
    params = _params(speed=2.0)
    problem = build_bs_problem(params)
    w0 = exact_profile(THETA2, 256, 25.0).wave
    config = SolverConfig(tol_residual=1e-6, max_outer=50, anderson=5)
    on_gap = petviashvili_solve(problem, w0, config)
    on_F = petviashvili_solve(problem, w0, config, tol_on_F=True)
    assert on_gap.status == on_F.status == "ConvergedResidual"
    assert on_gap.f_norm > 1e-6 >= on_gap.trace.residuals[-1]
    assert on_F.iterations > on_gap.iterations
    assert on_F.f_norm <= 1e-6
    assert on_F.f_norm == pytest.approx(np.linalg.norm(problem.F(on_F.x)), rel=1e-6)


def test_petviashvili_lands_on_the_newton_wave():
    n = 512
    profile = exact_profile(THETA2, n, 50.0)
    params = BSParams(theta2=THETA2, speed=1.2, n=n, half_length=50.0)
    problem = build_bs_problem(params)
    out = petviashvili_solve(problem, profile.wave,
                             SolverConfig(tol_residual=1e-11, max_outer=15, anderson=5),
                             tol_on_F=True)
    assert out.status == "ConvergedResidual" and out.iterations <= 14
    newton = _wave_newton(params, profile.wave, 1e-11)
    assert np.linalg.norm(out.x - newton.x) <= 1e-10 * np.linalg.norm(newton.x)


# ---------------- translation diagnostics ----------------

def test_shift_act_is_exact_roll_on_grid_multiples():
    params = _params(n=128)
    action = translation_action(params)
    w = exact_profile(THETA2, 128, 25.0).wave
    h = 2 * params.half_length / params.n
    rolled = action.act(3 * h, w)
    u, eta = w[:128], w[128:]
    assert np.allclose(rolled, np.concatenate([np.roll(u, 3), np.roll(eta, 3)]),
                       atol=1e-12)


def test_translation_shift_components_agree():
    prof = exact_profile(THETA2, 512, 50.0, x0=0.8)
    xu = translation_shift(prof.wave, 50.0, component="u")
    xe = translation_shift(prof.wave, 50.0, component="eta")
    assert abs(xu - 0.8) < 1e-8
    assert abs(xu - xe) < 1e-10


def test_translation_shift_errors():
    with pytest.raises(ValueError, match="component"):
        translation_shift(exact_profile(THETA2, 64, 10.0).wave, 10.0, component="w")
    with pytest.raises(ValueError, match="mode"):
        translation_shift(np.zeros(128), 10.0)
    for bad in (np.zeros(127), np.zeros((2, 64))):
        with pytest.raises(ValueError, match="even length"):
            translation_shift(bad, 10.0)


def test_exact_profile_wave_is_read_only():
    wave = exact_profile(THETA2, 64, 10.0).wave
    with pytest.raises(ValueError):
        wave[0] = 1.0


# ---------------- time propagation ----------------

def _complex_fft_rk4(w, params, dt, nsteps):
    """RK4 with the right-hand side written as five complex transforms."""
    n = params.n
    xi, d1, lap = fourier_symbols(n, params.half_length)
    mult_eta = d1 / (1.0 + params.b * xi ** 2)
    mult_u = d1 / (1.0 + params.d * xi ** 2)

    def rhs(state):
        u, eta = state[:n], state[n:]
        eta_hat = np.fft.fft(eta)
        flux_eta = np.fft.fft(u + eta * u)
        flux_u = np.fft.fft(0.5 * u * u + eta) + params.c * lap * eta_hat
        u_dot = -np.fft.ifft(mult_u * flux_u).real
        eta_dot = -np.fft.ifft(mult_eta * flux_eta).real
        return np.concatenate([u_dot, eta_dot])

    for _ in range(nsteps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def _smooth_state_with_nyquist(n, seed):
    rng = np.random.default_rng(seed)
    k = np.arange(n // 2 + 1)
    fields = []
    for _ in range(2):
        spectrum = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) \
            * np.exp(-0.2 * k)
        field = np.fft.irfft(spectrum, n)
        fields.append(0.5 * field / np.max(np.abs(field)) + 1e-3 * (-1.0) ** np.arange(n))
    return np.concatenate(fields)


@pytest.mark.parametrize("state", ["profile", "random"])
def test_propagate_matches_complex_fft_reference(state):
    params = _params(n=64, half_length=10.0)
    if state == "profile":
        w0 = exact_profile(THETA2, 64, 10.0).wave
    else:
        w0 = _smooth_state_with_nyquist(64, seed=7)
    dt = 0.01
    result = propagate(w0, params, dt=dt, t_end=100 * dt, snapshot_times=[0.0, 0.37, 0.5, 1.0])
    assert result.completed
    ref = w0.copy()
    done = 0
    for t, snap in zip(result.times, result.states):
        steps = int(round(t / dt))
        ref = _complex_fft_rk4(ref, params, dt, steps - done)
        done = steps
        assert np.max(np.abs(snap - ref)) <= 1e-12
    assert done == 100


def test_propagate_keeps_nyquist_coefficients():
    params = _params(n=64, half_length=10.0)
    w0 = _smooth_state_with_nyquist(64, seed=7)
    final = propagate(w0, params, dt=0.01, t_end=1.0).states[-1]
    before = np.fft.rfft(w0.reshape(2, 64))[:, -1]
    after = np.fft.rfft(final.reshape(2, 64))[:, -1]
    assert np.all(np.abs(before) > 1e-2)
    assert np.max(np.abs(after - before)) <= 1e-13 * np.max(np.abs(before))


def test_propagate_zero_stays_zero():
    params = _params(n=64, half_length=10.0)
    result = propagate(np.zeros(128), params, dt=0.01, t_end=0.5)
    assert result.completed
    assert np.linalg.norm(result.states[-1]) < 1e-14


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
    num = np.linalg.norm(final - moved.wave)
    den = np.linalg.norm(moved.wave)
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
    w0 = np.concatenate([np.full(64, 1e200), np.zeros(64)])
    result = propagate(w0, params, dt=0.1, t_end=1.0)
    assert not result.completed


def test_propagate_blowup_after_first_snapshot_keeps_finite_states():
    # a large smooth bump steepens and overflows within a few dozen steps
    params = _params(n=64, half_length=10.0)
    x = grid(64, 10.0)
    w0 = np.concatenate([40.0 / np.cosh(x) ** 2, np.zeros(64)])
    result = propagate(w0, params, dt=0.1, t_end=10.0, snapshot_times=[0.0, 0.1, 10.0])
    assert not result.completed
    assert result.times[:2] == [0.0, 0.1]
    assert len(result.states) == 2
    assert all(np.all(np.isfinite(s)) for s in result.states)


def test_propagate_rejects_bad_steps():
    params = _params(n=64, half_length=10.0)
    w0 = np.zeros(128)
    with pytest.raises(ValueError):
        propagate(w0, params, dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        propagate(w0, params, dt=0.1, t_end=0.0)


def test_propagate_fourth_order_in_time():
    params = _params(n=256, half_length=25.0)
    prof = exact_profile(THETA2, 256, 25.0)
    t_end = 1.0
    ref = propagate(prof.wave, params, dt=0.0025, t_end=t_end).states[-1]
    errs = []
    dts = (0.04, 0.02, 0.01)
    for dt in dts:
        got = propagate(prof.wave, params, dt=dt, t_end=t_end).states[-1]
        errs.append(np.linalg.norm(got - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.5
