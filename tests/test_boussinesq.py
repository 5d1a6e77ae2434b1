from dataclasses import replace

import numpy as np
import pytest

from orbitfix.boussinesq import (BSParams, _etdrk4_level, _etdrk4_stepper, _evolution_symbols,
                                 _phis, build_bs_problem, exact_profile, grid,
                                 periodic_wrap, precond_operator, propagate, propagation_schedule,
                                 translation_action, translation_shift)
from orbitfix.numlin import (_check_symmetry, dense_eigenvalues, fourier_operator,
                             fourier_symbols, materialize, matrix_2x2_function, minres,
                             preconditioned_product, reflection_blocks)
from orbitfix.solvers import SolverConfig, newton_solve, petviashvili_solve
from orbitfix.symmetry import kernel_check
from reference import fd_jacobian


THETA2 = 0.9


def _params(n=256, half_length=25.0, speed=None):
    if speed is None:
        speed = exact_profile(THETA2, n, half_length).speed
    return BSParams(theta2=THETA2, speed=speed, n=n, half_length=half_length)


# ---------------- parameters ----------------

@pytest.mark.parametrize("speed, half_length", [
    (np.inf, 10.0), (np.nan, 10.0), (2.0, np.inf), (2.0, np.nan),
], ids=["speed-inf", "speed-nan", "half-length-inf", "half-length-nan"])
def test_params_reject_non_finite_fields(speed, half_length):
    with pytest.raises(ValueError, match="finite"):
        BSParams(theta2=0.9, speed=speed, n=64, half_length=half_length)


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


@pytest.mark.parametrize("name", ["c", "b", "d"])
def test_derived_coefficients_are_not_arguments(name):
    # c and b follow from theta2, and b is the one dispersion coefficient (no d),
    # so none is a constructor argument
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


def _full_grid_symbols(n, half_length):
    # xi and d1 = i xi on all n modes, in np.fft.fftfreq order; d1 zeroes the Nyquist mode
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_length / n)
    d1 = 1j * xi
    if n % 2 == 0:
        d1[n // 2] = 0.0
    return xi, d1


def _complex_fft_apply(symbol, v):
    # the product of a symbol through complex transforms, real part kept
    n = symbol.shape[-1]
    if symbol.ndim == 1:
        return np.fft.ifft(np.fft.fft(v.reshape(-1, n)) * symbol).real.reshape(-1)
    v_hat = np.fft.fft(v.reshape(symbol.shape[0], n))
    return np.fft.ifft(np.einsum("ijn,jn->in", symbol, v_hat)).real.reshape(-1)


def _d2_linear_part(params, v):
    # S v written out through d2, as F and the Jacobian used to apply it
    n = params.n
    u, eta = v[:n], v[n:]
    xi = _full_grid_symbols(n, params.half_length)[0]
    d2v = _complex_fft_apply(-(xi ** 2), v)
    d2u, d2eta = d2v[:n], d2v[n:]
    return np.concatenate([-u + params.speed * (eta - params.b * d2eta),
                           params.speed * (u - params.b * d2u) - (eta + params.c * d2eta)])


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_real_transforms_match_the_complex_fft_definition():
    n = 512
    params = _params(n=n, half_length=50.0)
    xi, d1 = _full_grid_symbols(n, 50.0)
    a12 = params.speed * (1.0 + params.b * xi ** 2)
    a22 = -(1.0 - params.c * xi ** 2)
    s_symbol = np.array([[-np.ones(n), a12], [a12, a22]])
    v = np.random.default_rng(18).standard_normal(2 * n)  # every mode, Nyquist included
    # the scalar symbols of a shift and of the generator -d/dx, on both fields
    action = translation_action(params)
    shift = np.exp(-1j * xi * 0.123)
    assert _rel_err(action.act(0.123, v), _complex_fft_apply(shift, v)) <= 1e-13
    assert _rel_err(action.generators(v)[0], _complex_fft_apply(-d1, v)) <= 1e-13
    # every other symbol goes through its Fourier operator, a scalar one times the
    # identity, which stores modes 0..n/2 of the full-grid symbol
    for symbol in (s_symbol, -(xi ** 2) * np.eye(2)[:, :, None],
                   matrix_2x2_function(s_symbol, np.reciprocal),
                   matrix_2x2_function(s_symbol, lambda lam: 1.0 / np.abs(lam))):
        op = fourier_operator(symbol[..., :n // 2 + 1], n)
        assert _rel_err(op.apply(v), _complex_fft_apply(symbol, v)) <= 1e-13


@pytest.mark.parametrize("alpha", [0.123, 0.37, 1.0, 50.0 / 512],
                         ids=["0.123", "0.37", "1", "half-step"])
def test_shift_scales_the_nyquist_mode_by_its_cosine(alpha):
    # a real field's Nyquist coefficient cannot carry the phase exp(-i xi_N alpha):
    # the shift keeps cos(xi_N alpha) of it, xi_N = pi n/(2L), on both fields
    n, L = 512, 50.0
    nyquist = (-1.0) ** np.arange(n)
    shifted = translation_action(_params(n=n, half_length=L)).act(alpha, np.tile(nyquist, 2))
    want = np.cos(np.pi * n / (2.0 * L) * alpha) * nyquist
    assert np.max(np.abs(shifted - np.tile(want, 2))) <= 1e-15


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_generator_is_minus_the_spectral_derivative_bit_for_bit(n):
    # d1 is purely imaginary, so its product with a mode rounds alike in either operand order
    params = _params(n=n, half_length=50.0)
    d1 = fourier_symbols(n, 50.0)[1]
    w = np.random.default_rng(n).standard_normal(2 * n)
    want = -np.fft.irfft(np.fft.rfft(w.reshape(2, n)) * d1, n)
    assert np.array_equal(translation_action(params).generators(w)[0], want.reshape(-1))


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
    assert _rel_err(problem.homogeneous_split.linear.apply(v),
                    _d2_linear_part(params, v)) <= 1e-13


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
    rep = dense_eigenvalues(materialize(problem.jacobian_at(w)))
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
    problem = build_bs_problem(params)
    ref = _matvec_reflection_blocks(problem, w)
    got = list(reflection_blocks(problem.jacobian_at(w)))
    assert [g.shape for g in got] == [(n + 2, n + 2), (n - 2, n - 2)]
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("n, half_length", [(64, 10.0), (256, 25.0)])
def test_reflection_blocks_match_dense_spectrum(n, half_length):
    params = _params(n=n, half_length=half_length)
    problem = build_bs_problem(params)
    w = exact_profile(THETA2, n, half_length).wave
    even, odd = reflection_blocks(problem.jacobian_at(w))
    assert even.shape == (n + 2, n + 2) and odd.shape == (n - 2, n - 2)
    dense = np.linalg.eigvalsh(materialize(problem.jacobian_at(w)))
    rep = dense_eigenvalues(iter((even, odd)))
    split = np.sort(rep.eigenvalues.real)
    assert np.max(np.abs(rep.eigenvalues.imag)) == 0.0
    assert np.max(np.abs(split - dense)) <= 1e-10 * np.max(np.abs(dense))
    # the translation generator is odd, so the symmetry-forced zero is too
    assert rep.block_dims == (n + 2, n - 2)
    assert rep.block_near_zero == (0, 1)


def test_spectrum_builds_each_reflection_block_after_dropping_the_last(monkeypatch):
    import weakref

    import orbitfix.numlin as numlin

    params = _params(n=64, half_length=10.0)
    w = exact_profile(THETA2, 64, 10.0).wave
    build = numlin._reflection_block
    built = []  # weak references to the blocks built so far
    held = []  # per build: was an earlier block still alive?

    def tracked(*args):
        held.append(any(ref() is not None for ref in built))
        block = build(*args)
        built.append(weakref.ref(block))
        return block

    monkeypatch.setattr(numlin, "_reflection_block", tracked)
    blocks = reflection_blocks(build_bs_problem(params).jacobian_at(w))
    assert built == []
    rep = dense_eigenvalues(blocks)
    assert held == [False, False]
    assert rep.block_dims == (66, 62)


def test_reflection_blocks_reject_uncentred_state():
    params = _params(n=64, half_length=25.0)
    shifted = exact_profile(THETA2, 64, 25.0, x0=0.3).wave
    with pytest.raises(ValueError, match="even"):
        reflection_blocks(build_bs_problem(params).jacobian_at(shifted))


def _gathered_reflection_block(columns, fields, sign):
    """Reference: each circulant gathered from its column by index arrays, scaled by t t^T."""
    k, _, n = columns.shape
    half = n // 2
    a = np.arange(half + 1) if sign > 0.0 else np.arange(1, half)
    m = a.size
    t = np.where((a == 0) | (a == half), np.sqrt(0.5), 1.0)
    block = np.zeros((k * m, k * m))
    for r in range(k):
        for c in range(k):
            col = columns[r, c]
            quadrant = col[np.subtract.outer(a, a) % n]
            quadrant += sign * col[np.add.outer(a, a) % n]
            quadrant *= t[:, None]
            quadrant *= t
            quadrant[np.arange(m), np.arange(m)] -= fields[r, c, a]
            block[r * m:(r + 1) * m, c * m:(c + 1) * m] = quadrant
    return block


def _circulant_columns(op):
    return np.fft.irfft(op.symbol.real, op.dim // op.symbol.shape[0])


@pytest.mark.parametrize("n, half_length", [(4, 10.0), (8, 10.0), (64, 10.0), (1024, 50.0)])
@pytest.mark.parametrize("state", ["profile", "random"])
def test_reflection_block_rows_equal_the_index_gather(n, half_length, state):
    # strided Toeplitz and Hankel views of two rows of each circulant column,
    # bit for bit; at n = 4 the odd block has one row per field
    params = _params(n=n, half_length=half_length)
    if state == "profile":
        w = exact_profile(THETA2, n, half_length).wave
    else:
        w = _random_even_state(n, seed=n)
    J = build_bs_problem(params).jacobian_at(w)
    columns = _circulant_columns(J)
    blocks = list(reflection_blocks(J))
    for block, sign, m in zip(blocks, (1.0, -1.0), (n // 2 + 1, n // 2 - 1)):
        assert block.shape == (2 * m, 2 * m)
        assert np.array_equal(block, _gathered_reflection_block(columns, J.fields, sign))


def test_reflection_block_holds_no_index_array_or_gather_temporary():
    import tracemalloc

    import orbitfix.numlin as numlin

    n = 1024
    params = _params(n=n, half_length=50.0)
    J = build_bs_problem(params).jacobian_at(exact_profile(THETA2, n, 50.0).wave)
    columns = _circulant_columns(J)
    m = n // 2 + 1
    tracemalloc.start()
    try:
        block = numlin._reflection_block(columns, J.fields, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block, and nothing of an m x m size: an index gather holds an m x m
    # int array and an m x m gather temporary
    assert peak < block.nbytes + 1.5 * m * m * 8


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
    col = materialize(M)
    assert np.allclose(col, col.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(col) > 0)
    # minres raises when the preconditioned inner products are not positive
    S = build_bs_problem(params).jacobian_at(np.zeros(2 * params.n))
    b = np.random.default_rng(5).standard_normal(2 * params.n)
    _, stats = minres(S, b, tol=1e-10, maxit=50, precond=M)
    assert stats.relative_residual <= 1e-10


def test_precond_minres_solves_linear_part_in_few_iterations():
    n = 16
    params = _params(n=n, half_length=5.0)
    S = build_bs_problem(params).jacobian_at(np.zeros(2 * n))
    b = np.random.default_rng(6).standard_normal(2 * n)
    _, plain = minres(S, b, tol=1e-10, maxit=200)
    x, prec = minres(S, b, tol=1e-10, maxit=200, precond=precond_operator(params))
    assert prec.iterations <= 3 < plain.iterations
    assert np.linalg.norm(S.apply(x) - b) <= 1e-10 * np.linalg.norm(b)


# ---------------- |S|^{-1} fused with the Jacobian ----------------

@pytest.mark.parametrize("perturbed", [False, True], ids=["wave", "perturbed"])
@pytest.mark.parametrize("n", [512, 1024])
def test_fused_product_equals_precond_then_jacobian(n, perturbed):
    params = _params(n=n, half_length=50.0)
    rng = np.random.default_rng(n)
    w = exact_profile(THETA2, n, 50.0).wave
    if perturbed:
        w = w + 0.05 * rng.standard_normal(2 * n)
    J = build_bs_problem(params).jacobian_at(w)
    if perturbed:
        with pytest.raises(ValueError, match="not even"):
            reflection_blocks(J)
    M = precond_operator(params)
    r = rng.standard_normal(2 * n) + np.tile((-1.0) ** np.arange(n), 2)
    assert np.min(np.abs(np.fft.rfft(r.reshape(2, n))[:, -1])) > 1.0  # Nyquist content
    y, jy = preconditioned_product(J, M)(r)
    my = M.apply(r)
    assert _rel_err(y, my) <= 1e-13
    assert _rel_err(jy, J.apply(my)) <= 1e-13


def _count_transforms(monkeypatch):
    # the names of the real transforms called from now on, in order
    calls = []
    for name in ("rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_fused_minres_takes_one_transform_pair_an_iteration(monkeypatch):
    params, w0 = _generator_seed(512, 0.1)
    problem = build_bs_problem(params)
    J = problem.jacobian_at(w0)
    M = precond_operator(params)
    g = translation_action(params).generators(w0)[0]
    rhs = -problem.F(w0)
    rhs = rhs - (np.dot(g, rhs) / np.dot(g, g)) * g
    calls = _count_transforms(monkeypatch)
    _, stats = minres(J, rhs, tol=1e-10, maxit=500, precond=M)
    monkeypatch.undo()
    assert stats.iterations >= 10 and stats.relative_residual <= 1e-9
    # fixed work, one transform pair each: the first (M r, J M r) and the
    # final true residual; the symmetry check reads J's symbol
    assert len(calls) == 2 * 2 + 2 * stats.iterations
    assert calls.count("rfft") == calls.count("irfft")


def test_wave_jacobian_symmetry_check_takes_no_transform(monkeypatch):
    params, w0 = _generator_seed(512, 0.1)
    J = build_bs_problem(params).jacobian_at(w0)
    calls = _count_transforms(monkeypatch)
    _check_symmetry(J)
    assert calls == []


# ---------------- deflated, preconditioned Newton ----------------

def _wave_newton(params, w0, tol, record=None):
    problem = build_bs_problem(params)
    if record is not None:
        F = problem.F

        def recording_F(w):
            record.append(np.array(w))
            return F(w)

        problem = replace(problem, F=recording_F)
    config = SolverConfig(tol_residual=tol, max_outer=50, inner_maxit=500)
    return newton_solve(problem, w0, config, precond=precond_operator(params),
                        generators=translation_action(params).generators)


def _generator_seed(n, eps):
    profile = exact_profile(THETA2, n, 50.0)
    params = BSParams(theta2=THETA2, speed=profile.speed, n=n, half_length=50.0)
    w = profile.wave
    return params, w - eps * translation_action(params).generators(w)[0]


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


def test_deflated_newton_solves_loosely_until_it_can_finish():
    # from the eps = 0.1 shift seed, inner solves to a fixed relative 1e-10
    # took 85 MINRES iterations over 3 steps; the forcing terms take at most half
    params, w0 = _generator_seed(512, 0.1)
    out = _wave_newton(params, w0, 1e-11)
    assert out.status == "ConvergedResidual" and out.f_norm <= 1e-11
    assert out.inner_iterations <= 85 // 2
    tols = [row.inner_tol for row in out.trace[:-1]]
    # the finishing step solves to the floor 0.5 tol / |F|
    assert tols[0] == 0.1 and tols[-1] == 0.5e-11 / out.trace[-2].residual
    assert sum(row.inner_iterations for row in out.trace[:-1]) == out.inner_iterations


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
    got = split.linear.apply(w - problem.G(w))
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
    assert on_gap.f_norm > 1e-6 >= on_gap.trace[-1].residual
    assert on_F.iterations > on_gap.iterations
    assert on_F.f_norm <= 1e-6
    assert on_F.f_norm == pytest.approx(np.linalg.norm(problem.F(on_F.x)), rel=1e-6)


def test_petviashvili_evaluates_F_once_per_iterate():
    # |F| is asked for only once the gap meets the tolerance, and at most once
    # per iterate: here at the last two, the second accepted with that value
    n = 512
    profile = exact_profile(THETA2, n, 50.0)
    params = BSParams(theta2=THETA2, speed=1.1 * profile.speed, n=n, half_length=50.0)
    problem = build_bs_problem(params)
    calls = []

    def counted_F(w):
        calls.append(1)
        return problem.F(w)

    config = SolverConfig(tol_residual=1e-11, max_outer=50, anderson=5)
    out = petviashvili_solve(replace(problem, F=counted_F), profile.wave, config,
                             tol_on_F=True)
    assert (out.status, out.iterations) == ("ConvergedResidual", 12)
    assert len(calls) == sum(row.residual <= 1e-11 for row in out.trace) == 2
    assert out.f_norm == float(np.linalg.norm(problem.F(out.x)))


def test_petviashvili_stall_at_the_F_floor_names_gap_and_F():
    # at theta2 0.99 and cs 11.85 the gap falls below 1e-11 from iteration 11,
    # while |F| stays above it: the budget stop says both
    profile = exact_profile(0.99, 256, 25.0)
    params = BSParams(theta2=0.99, speed=11.85, n=256, half_length=25.0)
    config = SolverConfig(tol_residual=1e-11, max_outer=20, anderson=5)
    out = petviashvili_solve(build_bs_problem(params), profile.wave, config, tol_on_F=True)
    assert (out.status, out.iterations) == ("MaxIterations", 20)
    gap = out.trace[-1].residual
    assert gap <= 1e-11 < out.f_norm
    assert out.message == (f"stopped at the budget: the gap |x - G(x)| = {gap:.3g} met tol "
                           f"1e-11, |F(x)| = {out.f_norm:.3g} did not")


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
    xi, d1 = _full_grid_symbols(n, params.half_length)
    lap = -(xi ** 2)
    mult_eta = d1 / (1.0 + params.b * xi ** 2)
    mult_u = d1 / (1.0 + params.b * xi ** 2)

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
    # propagate (ETDRK4) and the independent classical RK4 reference are both
    # fourth order, so their gap at the snapshots shrinks 16-fold a halving of
    # dt: 4.4e-7, 2.7e-8, 1.7e-9 on the profile and 3.0e-10, 1.9e-11, 1.2e-12
    # on the random state at dt 0.01, 0.005, 0.0025
    params = _params(n=64, half_length=10.0)
    if state == "profile":
        w0 = exact_profile(THETA2, 64, 10.0).wave
    else:
        w0 = _smooth_state_with_nyquist(64, seed=7)
    gaps = []
    for dt in (0.01, 0.005, 0.0025):
        result = propagate(w0, params, dt=dt, t_end=1.0, snapshot_times=[0.0, 0.37, 0.5, 1.0])
        assert result.completed
        ref = w0.copy()
        done = 0
        gap = 0.0
        for t, snap in zip(result.times, result.states):
            steps = int(round(t / dt))
            ref = _complex_fft_rk4(ref, params, dt, steps - done)
            done = steps
            gap = max(gap, np.max(np.abs(snap - ref)))
        assert done == result.steps
        gaps.append(gap)
    assert gaps[0] <= 1e-6
    assert all(14.0 <= coarse / fine <= 18.0 for coarse, fine in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("frame", ["lab", "comoving"])
def test_propagate_keeps_nyquist_coefficients(frame):
    params = _params(n=64, half_length=10.0)
    frame_speed = 0.0 if frame == "lab" else params.speed
    w0 = _smooth_state_with_nyquist(64, seed=7)
    final = propagate(w0, params, dt=0.05, t_end=1.0, frame_speed=frame_speed).states[-1]
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
    assert result.steps == 100


def test_propagate_aborts_on_blowup():
    params = _params(n=64, half_length=10.0)
    w0 = np.concatenate([np.full(64, 1e200), np.zeros(64)])
    result = propagate(w0, params, dt=0.1, t_end=1.0)
    assert not result.completed


@pytest.mark.parametrize("frame", ["lab", "comoving"])
def test_propagate_blowup_after_first_snapshot_keeps_finite_states(frame):
    # a large smooth bump steepens and overflows, at step 6 of 100 in the lab
    # frame and 13 in the comoving one; warnings are errors
    params = _params(n=64, half_length=10.0)
    frame_speed = 0.0 if frame == "lab" else params.speed
    x = grid(64, 10.0)
    w0 = np.concatenate([40.0 / np.cosh(x) ** 2, np.zeros(64)])
    result = propagate(w0, params, dt=0.1, t_end=10.0, snapshot_times=[0.0, 0.1, 10.0],
                       frame_speed=frame_speed)
    assert not result.completed
    assert 1 < result.steps < 100
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
    for dt, t_end in ((np.inf, 1.0), (0.1, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            propagate(w0, params, dt=dt, t_end=t_end)
    for times in ([-0.1], [0.0, 1.5], [np.nan]):
        with pytest.raises(ValueError, match="snapshot times"):
            propagate(w0, params, dt=0.1, t_end=1.0, snapshot_times=times)


@pytest.mark.parametrize("frame_speed", [np.nan, np.inf, -np.inf])
def test_propagate_rejects_non_finite_frame_speed(frame_speed):
    params = _params(n=64, half_length=10.0)
    with pytest.raises(ValueError, match="frame_speed must be finite"):
        propagate(np.zeros(128), params, dt=0.1, t_end=1.0, frame_speed=frame_speed)


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


# ---------------- comoving ETDRK4 ----------------

def _wave_params(theta2, n, half_length):
    prof = exact_profile(theta2, n, half_length)
    return prof, BSParams(theta2=theta2, speed=prof.speed, n=n, half_length=half_length)


@pytest.mark.parametrize("theta2", [0.84, 0.88, 0.92])
def test_comoving_propagate_keeps_the_closed_form_wave(theta2):
    # the wave is an equilibrium of its own frame; the lab frame at the same
    # dt misses the centre by 4.7e-5 to 9.7e-3 here, and at dt 0.01 by
    # 2.7e-8 to 3.4e-6
    prof, params = _wave_params(theta2, 512, 50.0)
    t_end = 100.0
    result = propagate(prof.wave, params, dt=0.05, t_end=t_end, frame_speed=params.speed)
    assert result.completed
    assert result.steps == 2000
    # step doubling skips most of the 2,000 steps: 83, 199 and 417 run, a count
    # that rides on round-off in the doubling checks
    assert result.etdrk4_steps <= 600
    final = result.states[-1]
    center = translation_shift(final, 50.0)
    expected = prof.speed * t_end
    assert abs(periodic_wrap(center - expected, 50.0)) <= 1e-10
    moved = translation_action(params).act(center, prof.wave)
    assert np.linalg.norm(final - moved) / np.linalg.norm(prof.wave) <= 1e-10


def test_comoving_propagate_is_fourth_order_on_a_perturbed_wave():
    # off the lab frame at dt 0.001 by 3.2e-7 at dt 0.05 and 5.2e-6 at dt 0.1;
    # the lab frame itself at dt 0.05 is off by 2.0e-5
    prof, params = _wave_params(0.9, 256, 25.0)
    bump = 0.05 * np.exp(-(grid(256, 25.0) - 3.0) ** 2)
    w0 = prof.wave + np.concatenate([bump, bump])
    times = [5.0, 10.0]
    ref = propagate(w0, params, dt=0.001, t_end=10.0, snapshot_times=times).states
    errs = []
    for dt in (0.05, 0.1):
        got = propagate(w0, params, dt=dt, t_end=10.0, snapshot_times=times,
                        frame_speed=params.speed)
        assert got.completed and got.times == pytest.approx(times)
        errs.append(max(np.linalg.norm(g - r) / np.linalg.norm(r)
                        for g, r in zip(got.states, ref)))
    assert errs[0] <= 1e-6
    assert 10.0 <= errs[1] / errs[0] <= 25.0


# ---------------- step doubling ----------------

def _fixed_step_propagate(w0, params, dt, t_end, frame_speed=0.0):
    """Final state of propagate's ETDRK4 step taken at every point of the grid of dt.

    Returns (state, steps), or (None, k) when step k goes non-finite.
    """
    nsteps, h, _ = propagation_schedule(dt, t_end)
    n = params.n
    d1, L, W = _evolution_symbols(params, frame_speed)

    def nonlinear_hat(state, out):
        u, eta = np.fft.irfft(state, n)
        out[...] = np.fft.rfft(np.stack([u * u, eta * u]))

    step = _etdrk4_stepper(_etdrk4_level(h, L, W), nonlinear_hat)
    v = np.fft.rfft(np.asarray(w0, dtype=float).reshape(2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nsteps + 1):
            step(v)
            if not np.isfinite(v).all():
                return None, k
    return np.fft.irfft(np.exp(-frame_speed * nsteps * h * d1) * v, n).reshape(2 * n), nsteps


def _mp_level(mp, h, frame_speed, d1, L, W, modes):
    """_etdrk4_level's six blocks on the given modes, in mpmath.

    L's off-diagonal entries K12 and K21, the same in every frame, give
    the eigenvalues mu+- = frame_speed d1 +- i omega, omega^2 = -K12 K21. The blocks are
    taken from the closed forms of exp and phi_1..phi_3 at h mu+- on the
    float inputs, with every later operation in mpmath too.
    """
    h, frame_speed = mp.mpf(h), mp.mpf(frame_speed)
    ref = np.zeros((6, 2, 2, len(modes)), dtype=complex)
    for col, m in enumerate(modes):
        sw = [mp.mpc(L[0, 1, m]), mp.mpc(L[1, 0, m])]
        weights = [mp.mpc(W[0, m]), mp.mpc(W[1, m])]
        omega = mp.sqrt(max(-mp.re(sw[0] * sw[1]), 0))
        at_mu = []
        for sign in (1, -1):
            z = h * (frame_speed * mp.mpc(d1[m]) + sign * 1j * omega)
            e_half = mp.exp(z / 2)
            if z == 0:
                phi1, phi2, phi3, half_phi1 = 1, mp.mpf(1) / 2, mp.mpf(1) / 6, 1
            else:
                phi1 = (e_half ** 2 - 1) / z
                phi2 = (phi1 - 1) / z
                phi3 = (phi2 - mp.mpf(1) / 2) / z
                half_phi1 = (e_half - 1) / (z / 2)
            at_mu.append((e_half, e_half ** 2, h / 2 * half_phi1,
                          h * (phi1 - 3 * phi2 + 4 * phi3), 2 * h * (phi2 - 2 * phi3),
                          h * (4 * phi3 - phi2)))
        k_scale = 1 / (2j * omega) if omega > 0 else 0
        for i, (plus, minus) in enumerate(zip(*at_mu)):
            for r in range(2):
                diag, anti = (plus + minus) / 2, (plus - minus) * k_scale * sw[r]
                if i >= 2:
                    diag, anti = diag * weights[r], anti * weights[1 - r]
                ref[i, r, r, col], ref[i, r, 1 - r, col] = complex(diag), complex(anti)
    return ref


@pytest.mark.parametrize("theta2, n, half_length", [(0.84, 512, 50.0), (0.92, 512, 50.0),
                                                     (THETA2, 256, 25.0)])
def test_etdrk4_levels_match_mpmath(theta2, n, half_length):
    # every level 0-9 of both frames, on every 7th mode, against 50 digits: within
    # 2.6e-13 of each coefficient's largest entry here, most of it the conditioning
    # of exp(z) to the rounding of z = h mu, |z| up to 700 at level 9
    mpmath = pytest.importorskip("mpmath")
    prof, params = _wave_params(theta2, n, half_length)
    modes = list(range(0, n // 2 + 1, 7))
    with mpmath.mp.workdps(50):
        for frame_speed in (0.0, params.speed):
            d1, L, W = _evolution_symbols(params, frame_speed)
            for j in range(10):
                h = 0.05 * 2 ** j
                got = np.array(_etdrk4_level(h, L, W))[..., modes]
                ref = _mp_level(mpmath.mp, h, frame_speed, d1, L, W, modes)
                for coefficient, exact in zip(got, ref):
                    err = np.max(np.abs(coefficient - exact))
                    assert err <= 1e-12 * np.max(np.abs(exact)), (frame_speed, j)


def _closed_form_level(h, frame_speed, d1, swap, quad):
    """ETDRK4 coefficients in the closed form for the swap multiplier K, as (diag, anti) rows.

    K = [[0, swap[0]], [swap[1], 0]] has K^2 = -omega^2 I, so the linear part
    frame_speed d1 I + K has the eigenvalues mu+- = frame_speed d1 +- i omega,
    and g(hL) = (g(h mu+) + g(h mu-))/2 I + (g(h mu+) - g(h mu-))/(2 i omega) K.
    The comoving step counts ride on the round-off of this form.
    """
    omega = np.sqrt(np.maximum(-(swap[0] * swap[1]).real, 0.0))
    mu = np.stack([frame_speed * d1 + 1j * omega, frame_speed * d1 - 1j * omega])
    k_scale = np.divide(1.0, 2j * omega, out=np.zeros_like(mu[0]), where=omega > 0.0)
    z = h * mu

    def symbol(at_mu, weights):
        plus, minus = at_mu
        return 0.5 * (plus + minus) * weights, (plus - minus) * k_scale * swap * weights[::-1]

    (half_phi1, phi1), (_, phi2), (_, phi3) = _phis(np.stack([0.5 * z, z]))
    ones = np.ones(swap.shape)
    return (symbol(np.exp(0.5 * z), ones), symbol(np.exp(z), ones),
            *(symbol(at_mu, quad) for at_mu in (0.5 * h * half_phi1,
                                                h * (phi1 - 3.0 * phi2 + 4.0 * phi3),
                                                2.0 * h * (phi2 - 2.0 * phi3),
                                                h * (4.0 * phi3 - phi2))))


@pytest.mark.parametrize("theta2, n, half_length", [(0.84, 512, 50.0), (THETA2, 256, 25.0),
                                                     (1.0, 64, 10.0)])
def test_etdrk4_levels_equal_the_closed_form_bit_for_bit(theta2, n, half_length):
    # every coefficient of levels 0-9 in both frames equals the closed form of the
    # swap multiplier -m P S_0, the lab frame's L, which the comoving step counts ride on
    params = BSParams(theta2=theta2, speed=1.3, n=n, half_length=half_length)
    lab = _evolution_symbols(params, 0.0)[1]
    swap = np.stack([lab[0, 1], lab[1, 0]])
    for frame_speed in (0.0, 1.3):
        d1, L, W = _evolution_symbols(params, frame_speed)
        for j in range(10):
            h = 0.05 * 2 ** j
            for block, (diag, anti) in zip(_etdrk4_level(h, L, W),
                                           _closed_form_level(h, frame_speed, d1, swap, W)):
                flat = block.reshape(4, -1)
                assert np.array_equal(flat[[0, 3]], diag) and np.array_equal(flat[1:3], anti)


@pytest.mark.parametrize("speed", [1.5, None], ids=["1.5", "closed-form"])
def test_evolution_is_the_travelling_wave_residual(speed):
    # the flow in the frame at speed c is -m P F_c: a zero of F_c is its fixed point
    params = _params(n=64, half_length=10.0, speed=speed)
    n, c = params.n, params.speed
    w = np.random.default_rng(23).standard_normal(2 * n)
    d1, L, W = _evolution_symbols(params, c)
    w_hat = np.fft.rfft(w.reshape(2, n))
    u, eta = w.reshape(2, n)
    flow = np.einsum("ijk,jk->ik", L, w_hat) + W * np.fft.rfft(np.stack([u * u, eta * u]))
    xi = fourier_symbols(n, 10.0)[0]
    m = -d1 / (1.0 + params.b * xi ** 2)
    expected = -m * np.fft.rfft(build_bs_problem(params).F(w).reshape(2, n))[::-1]
    assert np.linalg.norm(flow - expected) <= 1e-12 * np.linalg.norm(expected)


def _bumped_wave(theta2, n, half_length, amplitude):
    prof, params = _wave_params(theta2, n, half_length)
    bump = amplitude * np.exp(-(grid(n, half_length) - 3.0) ** 2)
    return prof.wave + np.concatenate([bump, bump]), params


@pytest.mark.parametrize("frame, dt", [
    ("comoving", 0.05), ("comoving", 0.1), ("comoving", 0.01),
    ("lab", 0.0025), ("lab", 0.01), ("lab", 0.04),
])
def test_propagate_is_the_fixed_step_path_where_the_dynamics_is_real(frame, dt):
    # comoving: on the wave plus a bump every doubling check fails, so the
    # kept steps are the fixed ones, at 2-7 % extra steps for the checks.
    # Lab: a broad bump, on which a doubling check would pass at dt 0.0025
    # and 0.01 (steps of 0.01 and 0.02 kept); the lab frame never doubles
    if frame == "comoving":
        w0, params = _bumped_wave(0.9, 256, 25.0, 0.05 if dt > 0.01 else 1e-3)
        frame_speed, t_end = params.speed, 10.0
    else:
        bump = 0.1 * np.exp(-(grid(256, 25.0) / 3.0) ** 2)
        w0, params = np.concatenate([bump, bump]), _params(n=256, half_length=25.0)
        frame_speed, t_end = 0.0, 1.0
    ref, nsteps = _fixed_step_propagate(w0, params, dt, t_end, frame_speed)
    result = propagate(w0, params, dt=dt, t_end=t_end, frame_speed=frame_speed)
    assert result.completed and result.steps == nsteps
    assert np.array_equal(result.states[-1], ref)
    assert result.longest_step == pytest.approx(t_end / nsteps)
    if frame == "lab":
        assert result.etdrk4_steps == nsteps
    else:
        assert nsteps < result.etdrk4_steps <= 1.1 * nsteps


def test_comoving_snapshots_land_on_odd_grid_steps_between_longer_steps():
    prof, params = _wave_params(THETA2, 256, 25.0)
    times = [0.35, 3.15, 10.05, 19.95]
    result = propagate(prof.wave, params, dt=0.05, t_end=20.0, snapshot_times=times,
                       frame_speed=params.speed)
    assert result.completed and result.steps == 400
    assert result.times == [k * 0.05 for k in (7, 63, 201, 399)]
    assert result.longest_step >= 16 * 0.05
    assert result.etdrk4_steps < 100
    act = translation_action(params).act
    for t, w in zip(result.times, result.states):
        center = translation_shift(w, 25.0)
        assert abs(periodic_wrap(center - prof.speed * t, 25.0)) <= 1e-10
        assert np.linalg.norm(w - act(center, prof.wave)) / np.linalg.norm(prof.wave) <= 1e-10


def test_comoving_propagate_completes_where_a_fixed_long_step_blows_up():
    # a fixed step of 2 overflows at step 25 of 50; the checks keep steps of
    # at most 1.6 here
    prof, params = _wave_params(0.92, 512, 50.0)
    fixed, k = _fixed_step_propagate(prof.wave, params, 2.0, 100.0, params.speed)
    assert fixed is None and k < 50
    result = propagate(prof.wave, params, dt=0.05, t_end=100.0, frame_speed=params.speed)
    assert result.completed
    assert result.longest_step < 2.0


def test_comoving_propagate_keeps_the_zero_state():
    params = _params(n=64, half_length=10.0)
    result = propagate(np.zeros(128), params, dt=0.01, t_end=10.0, frame_speed=params.speed)
    assert result.completed and result.steps == 1000
    assert not np.any(result.states[-1])
    assert result.etdrk4_steps < 100
