import numpy as np
import pytest

from orbitfix.numlin import (DENSE_DIM_LIMIT, KrylovStats, LinearOperator, abs_inverse_2x2,
                             inverse_2x2,
                             as_operator, dense_eigenvalues, fd_jacobian, fourier_apply,
                             fourier_symbols, materialize, minres, pcg, spectral_derivative)


# ---------------- spectral_derivative ----------------

def test_spectral_derivative_trig_exact():
    n, L = 32, np.pi
    x = -L + (2 * L / n) * np.arange(n)
    assert np.allclose(spectral_derivative(np.sin(x), L, 1), np.cos(x), atol=1e-12)
    assert np.allclose(spectral_derivative(np.sin(x), L, 2), -np.sin(x), atol=1e-11)


def test_spectral_derivative_general_period():
    n, L = 64, 3.0
    x = -L + (2 * L / n) * np.arange(n)
    f = np.sin(np.pi * x / L)
    assert np.allclose(spectral_derivative(f, L, 1), (np.pi / L) * np.cos(np.pi * x / L),
                       atol=1e-12)


def test_spectral_derivative_constant():
    assert np.allclose(spectral_derivative(np.full(16, 2.5), 1.0, 1), 0.0, atol=1e-13)


def test_spectral_derivative_nyquist_zeroed():
    n, L = 16, 2.0
    x = -L + (2 * L / n) * np.arange(n)
    nyquist = np.cos(np.pi * n / 2 * x / L)  # alternating +-1
    assert np.allclose(spectral_derivative(nyquist, L, 1), 0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.ones(5), np.ones(2), np.ones((4, 4))])
def test_spectral_derivative_bad_samples(bad):
    with pytest.raises(ValueError):
        spectral_derivative(bad, 1.0, 1)


def test_spectral_derivative_bad_order_and_length():
    with pytest.raises(ValueError):
        spectral_derivative(np.ones(8), 1.0, 3)
    with pytest.raises(ValueError):
        spectral_derivative(np.ones(8), -1.0, 1)


# ---------------- fourier_symbols / fourier_apply ----------------

def test_fourier_symbols_are_cached_and_read_only():
    xi, d1, d2 = fourier_symbols(16, 2.0)
    assert all(a is b for a, b in zip(fourier_symbols(16, 2.0), (xi, d1, d2)))
    for a in (xi, d1, d2):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert np.array_equal(d2, -(xi ** 2))


def test_fourier_symbols_zero_the_nyquist_first_derivative():
    xi, d1, _ = fourier_symbols(16, 2.0)
    assert xi[8] != 0.0 and d1[8] == 0.0
    keep = np.arange(16) != 8
    assert np.array_equal(d1[keep], 1j * xi[keep])


def test_fourier_apply_blockwise_equals_per_block():
    n, L = 32, 3.0
    xi, d1, d2 = fourier_symbols(n, L)
    v = np.random.default_rng(7).standard_normal(3 * n)
    for symbol in (d1, d2, 1.0 / (1.7 + xi ** 2), np.exp(-1j * xi * 0.37)):
        half = symbol[:n // 2 + 1]
        per_block = np.concatenate([np.fft.irfft(np.fft.rfft(v[k * n:(k + 1) * n]) * half, n)
                                    for k in range(3)])
        assert np.array_equal(fourier_apply(symbol, v), per_block)
        assert np.array_equal(fourier_apply(symbol, v[:2 * n]), per_block[:2 * n])


def test_fourier_apply_rejects_partial_blocks():
    with pytest.raises(ValueError):
        fourier_apply(fourier_symbols(8, 1.0)[1], np.ones(12))


def test_fourier_apply_matrix_symbol_equals_per_mode_product():
    # a real-to-real map needs a Hermitian symbol; a real one must be even in the mode
    n = 16
    rng = np.random.default_rng(11)
    symbol = rng.standard_normal((2, 2, n))
    symbol = symbol + symbol[:, :, (-np.arange(n)) % n]
    v = rng.standard_normal(2 * n)
    v_hat = np.fft.fft(v.reshape(2, n))
    out_hat = np.empty((2, n), dtype=complex)
    for m in range(n):
        out_hat[:, m] = symbol[:, :, m] @ v_hat[:, m]
    expected = np.fft.ifft(out_hat).real.reshape(-1)
    assert np.allclose(fourier_apply(symbol, v), expected, rtol=0.0, atol=1e-13)


def test_fourier_apply_matrix_symbol_rejects_bad_shapes():
    symbol = np.ones((2, 2, 8))
    with pytest.raises(ValueError):
        fourier_apply(symbol, np.ones(8))
    with pytest.raises(ValueError):
        fourier_apply(symbol, np.ones(24))
    with pytest.raises(ValueError):
        fourier_apply(np.ones((2, 3, 8)), np.ones(16))


def test_abs_inverse_2x2_matches_eigendecomposition():
    rng = np.random.default_rng(12)
    a11, a12, a22 = rng.standard_normal((3, 200)) * np.array([[1.0], [3.0], [0.1]])
    blocks = abs_inverse_2x2(a11, a12, a22)
    assert blocks.shape == (2, 2, 200)
    for m in range(200):
        lam, vec = np.linalg.eigh(np.array([[a11[m], a12[m]], [a12[m], a22[m]]]))
        expected = vec @ np.diag(1.0 / np.abs(lam)) @ vec.T
        assert np.allclose(blocks[:, :, m], expected, rtol=1e-13,
                           atol=1e-13 * np.abs(expected).max())


def test_inverse_2x2_inverts_each_block():
    rng = np.random.default_rng(13)
    a11, a12, a22 = rng.standard_normal((3, 200))
    blocks = inverse_2x2(a11, a12, a22)
    assert blocks.shape == (2, 2, 200)
    for m in range(200):
        a = np.array([[a11[m], a12[m]], [a12[m], a22[m]]])
        assert np.allclose(blocks[:, :, m] @ a, np.eye(2), rtol=0.0, atol=1e-12 * np.linalg.cond(a))
    # a scalar entry is shared by every block
    assert np.array_equal(inverse_2x2(-1.0, a12, a22), inverse_2x2(np.full(200, -1.0), a12, a22))


def test_inverse_2x2_rejects_singular_blocks():
    with pytest.raises(ValueError, match="nonsingular"):
        inverse_2x2(np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 4.0]))


def test_abs_inverse_2x2_rejects_singular_blocks():
    with pytest.raises(ValueError, match="nonsingular"):
        abs_inverse_2x2(np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 4.0]))


# ---------------- fd_jacobian ----------------

def test_fd_jacobian_linear_map_exact():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4))
    J = fd_jacobian(lambda x: A @ x, rng.standard_normal(4))
    assert np.allclose(J, A, atol=1e-9)


def test_fd_jacobian_quadratic():
    def F(x):
        return np.array([x[0] ** 2, x[0] * x[1]])

    x = np.array([2.0, 3.0])
    J = fd_jacobian(F, x)
    assert np.allclose(J, [[4.0, 0.0], [3.0, 2.0]], atol=1e-8)


def test_fd_jacobian_custom_step():
    J = fd_jacobian(lambda x: np.array([np.sin(x[0])]), np.zeros(1), step=1e-5)
    assert abs(J[0, 0] - 1.0) < 1e-9


# ---------------- dense_eigenvalues ----------------

def test_dense_eigenvalues_sorted_by_modulus():
    rep = dense_eigenvalues(np.diag([3.0, 1.0, -5.0]))
    assert np.allclose(sorted(rep.eigenvalues.real), [-5.0, 1.0, 3.0])
    assert abs(rep.eigenvalues[0]) == rep.dominant_modulus == 5.0


def test_dense_eigenvalues_counters():
    rep = dense_eigenvalues(np.diag([1.0, 1.0 + 1e-8, 5e-7, 2.0]))
    assert rep.count_near_unit == 2
    assert rep.count_near_zero == 1
    # a plain matrix is one block
    assert rep.block_dims == (4,)
    assert rep.block_near_zero == (1,)


def test_dense_eigenvalues_rotation_block():
    rep = dense_eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    # eigenvalues +-i: modulus one but far from the value 1
    assert rep.count_near_unit == 0
    assert rep.count_near_zero == 0
    assert abs(rep.dominant_modulus - 1.0) < 1e-12


def test_dense_eigenvalues_dimension_guard():
    big = LinearOperator(dim=DENSE_DIM_LIMIT + 1, apply=lambda v: v)
    with pytest.raises(ValueError, match="limit"):
        dense_eigenvalues(big)


def test_dense_eigenvalues_accepts_operator():
    op = as_operator(np.diag([2.0, -1.0]))
    rep = dense_eigenvalues(op)
    assert np.allclose(sorted(rep.eigenvalues.real), [-1.0, 2.0])


def test_dense_eigenvalues_of_blocks_is_the_union():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = np.diag([1e-9, 3.0])
    rep = dense_eigenvalues((a, b))
    full = np.zeros((6, 6))
    full[:4, :4] = a
    full[4:, 4:] = b
    assert np.allclose(sorted(rep.eigenvalues.real), np.linalg.eigvalsh(full), atol=1e-12)
    assert rep.block_dims == (4, 2)
    assert rep.block_near_zero == (0, 1)
    assert rep.count_near_zero == 1
    assert abs(rep.dominant_modulus - np.max(np.abs(np.linalg.eigvalsh(full)))) < 1e-12


def test_dense_eigenvalues_consumes_an_iterator_one_block_at_a_time():
    import weakref

    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    b = np.diag([2.0, 1e-9])
    released = []

    def blocks():
        first = a.copy()
        ref = weakref.ref(first)
        yield first
        del first
        released.append(ref() is None)
        yield b.copy()

    rep = dense_eigenvalues(blocks())
    assert released == [True]
    tup = dense_eigenvalues((a, b))
    assert np.array_equal(rep.eigenvalues, tup.eigenvalues)
    assert rep.block_dims == (5, 2) and rep.block_near_zero == (0, 1)


def test_dense_eigenvalues_symmetry_test_uses_absolute_tolerance():
    # the tolerance is 1e-12 * max(1, max|M|); antisymmetric parts at or
    # under it are ignored, larger ones give a rotation's complex pair
    tol = 1e-12
    inside = np.array([[1.0, -0.25 * tol], [0.25 * tol, 1.0]])
    outside = np.array([[1.0, -tol], [tol, 1.0]])
    assert np.all(dense_eigenvalues(inside).eigenvalues.imag == 0.0)
    assert np.allclose(np.abs(dense_eigenvalues(outside).eigenvalues.imag), tol, rtol=1e-3, atol=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        dense_eigenvalues(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_dense_eigenvalues_dimension_guard_applies_per_block():
    big = LinearOperator(dim=DENSE_DIM_LIMIT + 1, apply=lambda v: v)
    with pytest.raises(ValueError, match="limit"):
        dense_eigenvalues((np.eye(2), big))


def test_materialize_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 5))
    assert np.allclose(materialize(as_operator(M)), M)


# ---------------- minres ----------------

def _spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_minres_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, stats = minres(np.eye(3), b)
    assert np.allclose(x, b, atol=1e-12)
    assert stats.iterations == 1
    assert not stats.breakdown


def test_minres_spd_matches_dense_solve():
    A = _spd(50, 3)
    b = np.random.default_rng(4).standard_normal(50)
    x, stats = minres(A, b, tol=1e-12, maxit=500)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert stats.relative_residual <= 1e-10


def test_minres_indefinite_system():
    A = np.diag([2.0, -1.0, 0.5])
    b = np.array([2.0, 2.0, 1.0])
    x, stats = minres(A, b, tol=1e-12)
    assert np.allclose(x, [1.0, -2.0, 2.0], atol=1e-10)


def test_minres_singular_consistent_system():
    # kernel direction e3 is never excited by a consistent right-hand side
    A = np.diag([1.0, 1.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    x, stats = minres(A, b, tol=1e-12)
    assert abs(x[2]) < 1e-12
    assert np.allclose(x[:2], [1.0, 2.0], atol=1e-10)
    assert stats.relative_residual <= 1e-10


def test_minres_zero_rhs():
    x, stats = minres(np.eye(4), np.zeros(4))
    assert np.all(x == 0.0)
    assert stats == KrylovStats(0, 0.0, False)


def test_minres_rejects_nonsymmetric_probe():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    op = LinearOperator(dim=2, apply=lambda v: A @ v, symmetric=True)
    with pytest.raises(ValueError, match="symmetr"):
        minres(op, np.ones(2))


def test_minres_rejects_declared_nonsymmetric():
    op = LinearOperator(dim=2, apply=lambda v: v, symmetric=False)
    with pytest.raises(ValueError, match="symmetric"):
        minres(op, np.ones(2))


def test_minres_preconditioned():
    A = _spd(40, 5)
    b = np.random.default_rng(6).standard_normal(40)
    d = 1.0 / np.diag(A)
    x, stats = minres(A, b, tol=1e-12, precond=lambda v: d * v)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)


def test_minres_rhs_length_mismatch():
    with pytest.raises(ValueError):
        minres(np.eye(3), np.ones(4))


# ---------------- pcg ----------------

def test_pcg_spd_matches_dense_solve():
    A = _spd(60, 7)
    b = np.random.default_rng(8).standard_normal(60)
    x, stats = pcg(A, b, tol=1e-12, maxit=500)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert not stats.breakdown


def test_pcg_preconditioned_converges_faster():
    A = _spd(60, 9) + np.diag(np.linspace(0.0, 200.0, 60))
    b = np.random.default_rng(10).standard_normal(60)
    d = 1.0 / np.diag(A)
    x_plain, plain = pcg(A, b, tol=1e-10, maxit=500)
    x_prec, prec = pcg(A, b, precond=lambda v: d * v, tol=1e-10, maxit=500)
    assert prec.iterations <= plain.iterations
    assert np.allclose(x_prec, np.linalg.solve(A, b), atol=1e-7)


def test_pcg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    x, stats = pcg(A, np.array([0.0, 1.0]), tol=1e-12, maxit=50)
    assert stats.breakdown
    # breakdown always leaves budget unused
    assert stats.iterations < 50


def test_pcg_zero_rhs():
    x, stats = pcg(np.eye(3), np.zeros(3))
    assert np.all(x == 0.0)
    assert stats.iterations == 0 and not stats.breakdown


def test_pcg_identity_single_iteration():
    b = np.array([1.0, 2.0])
    x, stats = pcg(np.eye(2), b)
    assert np.allclose(x, b, atol=1e-14)
    assert stats.iterations == 1
