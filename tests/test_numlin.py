from dataclasses import replace

import numpy as np
import pytest

from orbitfix.boussinesq import BSParams, build_bs_problem, exact_profile, precond_operator
from orbitfix.nbody import (NBodyConfig, _lifted_abs_inverse, _polygon_symbol, build_nbody,
                            polygon_solution)
from orbitfix.numlin import (_SYMMETRY_BAND, DENSE_DIM_LIMIT, KrylovStats, LinearOperator,
                             _check_symmetry, _is_symmetric, _symbol_product, dense_eigenvalues,
                             fourier_operator, fourier_symbols,
                             matrix_2x2_function, materialize, minres, pcg,
                             preconditioned_product, reflection_blocks)
from reference import fd_jacobian


def _operator(M):
    """The LinearOperator of a square matrix: the form the solvers and materialize take."""
    M = np.asarray(M, dtype=float)
    return LinearOperator(dim=M.shape[0], apply=lambda v: M @ v)


# ---------------- spectral differentiation by fourier_symbols ----------------

def _derivative(v, half_length, order):
    n = v.shape[0]
    xi, d1 = fourier_symbols(n, half_length)
    symbol = d1 if order == 1 else -(xi ** 2)
    return np.fft.irfft(np.fft.rfft(v) * symbol, n)


def test_spectral_derivative_trig_exact():
    n, L = 32, np.pi
    x = -L + (2 * L / n) * np.arange(n)
    assert np.allclose(_derivative(np.sin(x), L, 1), np.cos(x), atol=1e-12)
    assert np.allclose(_derivative(np.sin(x), L, 2), -np.sin(x), atol=1e-11)


def test_spectral_derivative_general_period():
    n, L = 64, 3.0
    x = -L + (2 * L / n) * np.arange(n)
    f = np.sin(np.pi * x / L)
    assert np.allclose(_derivative(f, L, 1), (np.pi / L) * np.cos(np.pi * x / L), atol=1e-12)


def test_spectral_derivative_constant():
    assert np.allclose(_derivative(np.full(16, 2.5), 1.0, 1), 0.0, atol=1e-13)


def test_spectral_derivative_nyquist_zeroed():
    n, L = 16, 2.0
    x = -L + (2 * L / n) * np.arange(n)
    nyquist = np.cos(np.pi * n / 2 * x / L)  # alternating +-1
    assert np.allclose(_derivative(nyquist, L, 1), 0.0, atol=1e-12)


# ---------------- fourier_symbols / _symbol_product ----------------

def test_fourier_symbols_are_cached_and_read_only():
    xi, d1 = fourier_symbols(16, 2.0)
    assert all(a is b for a, b in zip(fourier_symbols(16, 2.0), (xi, d1)))
    for a in (xi, d1):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_fourier_symbols_zero_the_nyquist_first_derivative():
    # modes 0..8 of 16 samples on [-2, 2): xi = m pi/2, the Nyquist mode last and positive
    xi, d1 = fourier_symbols(16, 2.0)
    assert np.allclose(xi, 0.5 * np.pi * np.arange(9), rtol=1e-15, atol=0.0)
    assert xi[-1] > 0.0 and d1[-1] == 0.0
    assert np.array_equal(d1[:-1], 1j * xi[:-1])


def test_fourier_symbols_keep_the_highest_mode_of_an_odd_grid():
    # an odd grid has no Nyquist mode: its highest modes +-3 (n = 7) are a conjugate pair
    n, L = 7, np.pi
    xi, d1 = fourier_symbols(n, L)
    assert xi.shape == (4,) and np.array_equal(d1, 1j * xi)
    x = -L + (2 * L / n) * np.arange(n)
    assert np.allclose(_derivative(np.sin(3 * x), L, 1), 3 * np.cos(3 * x), rtol=0.0, atol=1e-13)


def test_symbol_product_equals_per_mode_product():
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
    expected = np.fft.ifft(out_hat).real
    # the library's symbols hold modes 0..n/2 alone
    half = symbol[..., :n // 2 + 1]
    assert np.allclose(_symbol_product(half, n)(v), expected, rtol=0.0, atol=1e-13)
    assert np.allclose(fourier_operator(half, n).apply(v), expected.reshape(-1),
                       rtol=0.0, atol=1e-13)


def test_symbol_product_rejects_bad_shapes():
    # the product refuses a vector that is not the symbol's field count times the grid size
    product = _symbol_product(np.ones((2, 2, 5)), 8)
    for bad in (np.ones(8), np.ones(24)):
        with pytest.raises(ValueError):
            product(bad)
    with pytest.raises(ValueError):
        _symbol_product(np.ones((2, 5)), 8)
    # a symbol holds modes 0..n//2, 5 of 8 or 9 samples: a stale full-length
    # one, or one of another grid, is refused by the product and the operator
    for n in (8, 9):
        for modes in (n, n // 2, n // 2 + 2):
            with pytest.raises(ValueError, match="shape"):
                _symbol_product(np.ones((2, 2, modes)), n)
            with pytest.raises(ValueError, match="shape"):
                fourier_operator(np.ones((2, 2, modes)), n)
        assert fourier_operator(np.ones((2, 2, 5)), n).dim == 2 * n


def _hermitian_symbol(rng, shape, complex_part):
    # symbol(-xi) = conj symbol(xi): real and even, or complex with an odd imaginary part
    symbol = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_part else 0)
    return symbol + symbol[..., (-np.arange(shape[-1])) % shape[-1]].conj()


@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("rows", [1, 2], ids=["square", "stacked"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbol_product_is_the_summed_broadcast_bit_for_bit(k, rows, complex_part):
    # the kernel adds each row's terms in j order, as a sum over the middle axis does
    n = 32
    rng = np.random.default_rng(20 + k)
    symbol = _hermitian_symbol(rng, (rows * k, k, n), complex_part)
    v = rng.standard_normal(k * n)
    half = symbol[..., :n // 2 + 1]
    expected = np.fft.irfft((half * np.fft.rfft(v.reshape(k, n))).sum(axis=1), n)
    out = _symbol_product(half, n)(v)
    assert out.shape == (rows * k, n)
    assert np.array_equal(out, expected)


def _even_symbol(rng, shape):
    # real and even in the mode on shape[-1] samples, so Hermitian; symmetric per
    # mode when square; returned on modes 0..n/2, the modes the library stores
    n = shape[-1]
    symbol = rng.standard_normal(shape)
    symbol = symbol + symbol[..., (-np.arange(n)) % n]
    symbol = symbol + symbol.transpose(1, 0, 2) if shape[0] == shape[1] else symbol
    return symbol[..., :n // 2 + 1]


def test_symbol_product_of_a_rectangular_symbol_stacks_its_rows():
    # an (m, k, n) symbol maps k fields to m; row i is the (1, k, n) symbol's image
    n = 16
    rng = np.random.default_rng(12)
    symbol = _even_symbol(rng, (3, 2, n))
    v = rng.standard_normal(2 * n)
    out = _symbol_product(symbol, n)(v).copy()
    assert out.shape == (3, n)
    for i in range(3):
        assert np.allclose(out[i], _symbol_product(symbol[i:i + 1], n)(v)[0],
                           rtol=0.0, atol=1e-14)


# ---------------- Fourier operators ----------------

def _symmetric_fields(rng, k, n):
    fields = rng.standard_normal((k, k, n))
    return fields + fields.transpose(1, 0, 2)


def _fourier_pair(n, seed):
    # A = symbol minus symmetric fields; M a symmetric positive definite multiplier
    rng = np.random.default_rng(seed)
    fields = _symmetric_fields(rng, 2, n)
    A = fourier_operator(_even_symbol(rng, (2, 2, n)), n, fields)
    root = _even_symbol(rng, (2, 2, n))
    M = fourier_operator(np.einsum("ijn,kjn->ikn", root, root) + np.eye(2)[:, :, None], n)
    return A, M, fields, rng


def test_fourier_operator_applies_symbol_minus_pointwise():
    n = 16
    A, M, fields, rng = _fourier_pair(n, 13)
    v = rng.standard_normal(2 * n)
    vu, ve = v.reshape(2, n)
    assert A.dim == M.dim == 2 * n and M.fields is None
    # the fields' sum in j order, as a hand-written coupling adds it
    coupling = np.concatenate([fields[0, 0] * vu + fields[0, 1] * ve,
                               fields[1, 0] * vu + fields[1, 1] * ve])
    assert np.array_equal(A.apply(v), _symbol_product(A.symbol, n)(v).reshape(-1) - coupling)
    assert np.array_equal(M.apply(v), _symbol_product(M.symbol, n)(v).reshape(-1))
    dense = materialize(A)
    assert np.allclose(dense, dense.T, rtol=0.0, atol=1e-12)
    for bad in (np.ones(9), np.ones((2, 3, 9))):
        with pytest.raises(ValueError):
            fourier_operator(bad, n)
    with pytest.raises(ValueError, match="fields"):
        fourier_operator(A.symbol, n, fields[:, :, :8])


def test_fourier_operator_apply_returns_a_fresh_vector():
    # the product's buffers stay inside the operator: no result is overwritten later
    n = 16
    A, M, _, rng = _fourier_pair(n, 16)
    r, s = rng.standard_normal((2, 2 * n))
    for op in (A, M):
        first = op.apply(r)
        kept = first.copy()
        second = op.apply(s)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, kept) and np.array_equal(op.apply(r), kept)


def test_preconditioned_product_equals_the_composition():
    n = 32
    A, M, _, rng = _fourier_pair(n, 14)
    product = preconditioned_product(A, M)
    r, s = rng.standard_normal((2, 2 * n))
    # each call returns views into one buffer, which the next call overwrites
    first = [a.copy() for a in product(r)]
    for (y, ay), v in ((first, r), (product(s), s)):
        assert np.allclose(y, M.apply(v), rtol=0.0, atol=1e-13 * np.linalg.norm(y))
        assert np.allclose(ay, A.apply(M.apply(v)), rtol=0.0, atol=1e-13 * np.linalg.norm(ay))


def test_preconditioned_product_declines_what_it_cannot_fuse():
    n = 16
    A, M, _, rng = _fourier_pair(n, 15)
    plain = LinearOperator(dim=M.dim, apply=M.apply)
    assert preconditioned_product(A, M) is not None
    # a callable, a plain operator, an M with fields, a dense A, another grid, and
    # grids of 16 and 17 samples, whose symbols share the shape (2, 2, 9)
    odd = fourier_operator(_even_symbol(rng, (2, 2, n + 1)), n + 1)
    assert odd.symbol.shape == M.symbol.shape
    for a, m in ((A, M.apply), (A, plain), (A, A), (plain, M), (materialize(A), M),
                 (fourier_operator(_even_symbol(rng, (2, 2, 2 * n)), 2 * n), M),
                 (odd, M), (A, odd)):
        assert preconditioned_product(a, m) is None


# ---------------- reflection blocks ----------------

def _reflection_basis(k, n, sign):
    """Columns: the even (sign 1) or odd (sign -1) orthonormal grid vectors of each of k fields."""
    half = n // 2
    samples = range(half + 1) if sign > 0.0 else range(1, half)
    m = len(samples)
    Q = np.zeros((k * n, k * m))
    for f in range(k):
        for idx, a in enumerate(samples):
            if a in (0, half):
                Q[f * n + a, f * m + idx] = 1.0
            else:
                Q[f * n + a, f * m + idx] = np.sqrt(0.5)
                Q[f * n + (-a) % n, f * m + idx] = sign * np.sqrt(0.5)
    return Q


def _even_operator(rng, k, n):
    # a real even symbol, and even symmetric fields with Nyquist content
    nyquist = (-1.0) ** np.arange(n)
    fields = _symmetric_fields(rng, k, n) + 0.3 * nyquist * _symmetric_fields(rng, k, 1)
    return fourier_operator(_even_symbol(rng, (k, k, n)), n,
                            fields + fields[..., (-np.arange(n)) % n])


@pytest.mark.parametrize("n", [4, 8, 64])
@pytest.mark.parametrize("k", [1, 3])
def test_reflection_blocks_are_the_even_and_odd_projections(k, n):
    op = _even_operator(np.random.default_rng(100 * k + n), k, n)
    dense = materialize(op)
    blocks = list(reflection_blocks(op))
    assert [b.shape for b in blocks] == [(k * (n // 2 + 1),) * 2, (k * (n // 2 - 1),) * 2]
    for block, sign in zip(blocks, (1.0, -1.0)):
        Q = _reflection_basis(k, n, sign)
        ref = Q.T @ dense @ Q
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_reflection_blocks_refuse_an_operator_that_is_not_even():
    n = 16
    rng = np.random.default_rng(19)
    op = _even_operator(rng, 2, n)
    # d1 is odd in the mode; random fields are not even on the grid
    odd_symbol = op.symbol + 0.5 * fourier_symbols(n, 1.0)[1]
    for bad in (fourier_operator(odd_symbol, n, op.fields),
                fourier_operator(op.symbol, n, _symmetric_fields(rng, 2, n))):
        with pytest.raises(ValueError, match="even"):
            reflection_blocks(bad)


def _abs_inverse(lam):
    return 1.0 / np.abs(lam)


def _hermitian(a11, a12, a22):
    # Hermitian blocks [[a11, a12], [conj a12, a22]] in the layout of matrix symbols
    return np.array([[a11, a12], [np.conj(a12), a22]])


def test_abs_inverse_2x2_matches_eigendecomposition():
    rng = np.random.default_rng(12)
    a11, a12, a22 = rng.standard_normal((3, 200)) * np.array([[1.0], [3.0], [0.1]])
    blocks = matrix_2x2_function(_hermitian(a11, a12, a22), _abs_inverse)
    assert blocks.shape == (2, 2, 200)
    for m in range(200):
        lam, vec = np.linalg.eigh(np.array([[a11[m], a12[m]], [a12[m], a22[m]]]))
        expected = vec @ np.diag(1.0 / np.abs(lam)) @ vec.T
        assert np.allclose(blocks[:, :, m], expected, rtol=1e-13,
                           atol=1e-13 * np.abs(expected).max())


def _eigh_abs_inverse(block, kernel_tol=None, largest=None):
    lam, vec = np.linalg.eigh(block)
    mod = np.abs(lam)
    if kernel_tol is not None:
        mod = np.where(mod <= kernel_tol * largest, largest, mod)
    return (vec / mod) @ vec.conj().T


def test_abs_inverse_2x2_hermitian_blocks_match_eigh():
    rng = np.random.default_rng(14)
    a11, a22 = rng.standard_normal((2, 200))
    a12 = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    blocks = matrix_2x2_function(_hermitian(a11, a12, a22), _abs_inverse)
    assert blocks.shape == (2, 2, 200) and np.iscomplexobj(blocks)
    for m in range(200):
        expected = _eigh_abs_inverse(np.array([[a11[m], a12[m]], [a12[m].conjugate(), a22[m]]]))
        assert np.allclose(blocks[:, :, m], expected, rtol=0.0,
                           atol=1e-12 * np.abs(expected).max())


def test_abs_inverse_2x2_kernel_stand_in():
    # rank-one blocks l u u^H with complex u, a zero block, diag(2, 1e-12) and
    # four nonsingular blocks; through the ring's lift, kernel eigenvalues
    # take the largest modulus
    rng = np.random.default_rng(15)
    u1, u2 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    lam = 3.0 * rng.standard_normal(3)
    a11 = np.concatenate([lam * abs(u1) ** 2, [0.0, 2.0], rng.standard_normal(4)])
    a22 = np.concatenate([lam * abs(u2) ** 2, [0.0, 1e-12], rng.standard_normal(4)])
    a12 = np.concatenate([lam * u1 * u2.conj(), [0.0, 0.0],
                          rng.standard_normal(4) + 1j * rng.standard_normal(4)])
    hermitian = [np.array([[a11[m], a12[m]], [a12[m].conjugate(), a22[m]]]) for m in range(9)]
    largest = max(np.abs(np.linalg.eigvalsh(h)).max() for h in hermitian)
    blocks = matrix_2x2_function(_hermitian(a11, a12, a22), _lifted_abs_inverse)
    for m, h in enumerate(hermitian):
        expected = _eigh_abs_inverse(h, 1e-8, largest)
        assert np.allclose(blocks[:, :, m], expected, rtol=0.0,
                           atol=1e-12 * np.abs(expected).max())


def test_inverse_2x2_inverts_each_block():
    rng = np.random.default_rng(13)
    a11, a12, a22 = rng.standard_normal((3, 200))
    blocks = matrix_2x2_function(_hermitian(a11, a12, a22), np.reciprocal)
    assert blocks.shape == (2, 2, 200)
    for m in range(200):
        a = np.array([[a11[m], a12[m]], [a12[m], a22[m]]])
        assert np.allclose(blocks[:, :, m] @ a, np.eye(2), rtol=0.0, atol=1e-12 * np.linalg.cond(a))


def test_matrix_2x2_function_of_general_blocks_matches_eig():
    # non-normal complex blocks, exp and 1/lambda from one call of f, against V f(L) V^{-1}
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 2, 300)) + 1j * rng.standard_normal((2, 2, 300))
    a *= np.exp(rng.uniform(-2.0, 2.0, 300))
    blocks = matrix_2x2_function(a, lambda lam: np.stack([np.exp(lam), 1.0 / lam], axis=1))
    assert blocks.shape == (2, 2, 2, 300)
    for m in range(300):
        lam, vec = np.linalg.eig(a[:, :, m])
        for k, f in enumerate((np.exp, np.reciprocal)):
            expected = (vec * f(lam)) @ np.linalg.inv(vec)
            err = np.max(np.abs(blocks[:, :, k, m] - expected))
            assert err <= 1e-13 * np.max(np.abs(expected)), (m, k)


def _eigh_function(blocks, f):
    # f(A) block by block from batched eigh, f applied to all eigenvalues at once
    lam, vec = np.linalg.eigh(np.moveaxis(blocks, -1, 0).astype(complex))
    f_lam = f(lam.T).T
    return (vec * f_lam[:, None, :]) @ vec.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("n", [128, 2048])
def test_matrix_2x2_function_lifts_the_ring_kernel_to_round_off(n):
    # the polygon's symbol at m0 = 10 has the rotation generator in its kernel
    # and eigenvalues spread over orders of magnitude; every block of the lifted
    # |S|^{-1} must agree with eigh to round-off
    symbol = _polygon_symbol(NBodyConfig(n=n, m0=10.0))
    got = np.moveaxis(matrix_2x2_function(symbol, _lifted_abs_inverse), -1, 0)
    expected = _eigh_function(symbol, _lifted_abs_inverse)
    err = np.linalg.norm(got - expected, axis=(1, 2)) / np.linalg.norm(expected, axis=(1, 2))
    assert err.max() <= 1e-14


def test_matrix_2x2_function_on_scalar_blocks():
    # blocks t I (h = 0) give f(t) I exactly, with f reading every block's eigenvalues
    t = np.array([3.0, -2.0, 0.0, 5.0])
    blocks = matrix_2x2_function(np.eye(2)[:, :, None] * t, _lifted_abs_inverse)
    # the zero block is a kernel block and takes the largest modulus, 5
    expected = 1.0 / np.array([3.0, 2.0, 5.0, 5.0])
    assert np.array_equal(blocks, np.eye(2)[:, :, None] * expected)
    t = np.array([0.3 - 2.0j, -1.5 + 0.25j, 4.0j, 0.7])
    blocks = matrix_2x2_function(np.eye(2)[:, :, None] * t, np.exp)
    assert np.array_equal(blocks, np.eye(2)[:, :, None] * np.exp(t))


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


def _too_big():
    # a zero-stride view: a matrix past the limit without its memory
    return np.broadcast_to(0.0, (DENSE_DIM_LIMIT + 1,) * 2)


def test_dense_eigenvalues_dimension_guard():
    with pytest.raises(ValueError, match="limit"):
        dense_eigenvalues(_too_big())


def test_dense_eigenvalues_of_blocks_is_the_union():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = np.diag([1e-9, 3.0])
    rep = dense_eigenvalues(iter((a, b)))
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
    listed = dense_eigenvalues(iter((a, b)))
    assert np.array_equal(rep.eigenvalues, listed.eigenvalues)
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


def test_dense_eigenvalues_holds_no_temporary_of_matrix_size():
    import tracemalloc

    rng = np.random.default_rng(21)
    M = rng.standard_normal((1026, 1026))
    M += M.T
    tracemalloc.start()
    try:
        rep = dense_eigenvalues(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.block_dims == (1026,) and np.all(rep.eigenvalues.imag == 0.0)
    assert peak <= M.nbytes // 4


@pytest.mark.parametrize("i, j", [(-2, -1), (0, -1)], ids=["last-band", "first-and-last"])
def test_dense_eigenvalues_sees_an_asymmetry_in_the_last_row_band(i, j):
    # a partial last band; the pair (i, j) is a rotation c +- 1i on top of
    # a symmetric diagonal, so only a banded test that reaches it gives a
    # complex pair
    n = 2 * _SYMMETRY_BAND + 5
    M = np.diag(np.arange(1.0, n + 1.0))
    M[i, i] = M[j, j] = 0.5
    M[i, j], M[j, i] = -1.0, 1.0
    assert not _is_symmetric(M, 1e-12)
    ev = dense_eigenvalues(M).eigenvalues
    pair = ev[ev.imag != 0.0]
    assert np.allclose(np.sort_complex(pair), [0.5 - 1j, 0.5 + 1j], atol=1e-12)
    M[j, i] = -1.0
    assert _is_symmetric(M, 1e-12)
    assert np.all(dense_eigenvalues(M).eigenvalues.imag == 0.0)


def test_dense_eigenvalues_sends_a_lower_triangle_nan_to_eigvals():
    n = 2 * _SYMMETRY_BAND + 5
    M = np.eye(n)
    M[-1, 0] = np.nan
    assert not _is_symmetric(M, 1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        dense_eigenvalues(M)


def test_dense_eigenvalues_dimension_guard_applies_per_block():
    with pytest.raises(ValueError, match="limit"):
        dense_eigenvalues(iter((np.eye(2), _too_big())))


def test_materialize_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 5))
    assert np.allclose(materialize(_operator(M)), M)


# ---------------- minres ----------------

def _spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_minres_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, stats = minres(_operator(np.eye(3)), b)
    assert np.allclose(x, b, atol=1e-12)
    assert stats.iterations == 1
    assert not stats.breakdown


def test_minres_spd_matches_dense_solve():
    A = _spd(50, 3)
    b = np.random.default_rng(4).standard_normal(50)
    x, stats = minres(_operator(A), b, tol=1e-12, maxit=500)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert stats.relative_residual <= 1e-10


def test_minres_indefinite_system():
    A = np.diag([2.0, -1.0, 0.5])
    b = np.array([2.0, 2.0, 1.0])
    x, stats = minres(_operator(A), b, tol=1e-12)
    assert np.allclose(x, [1.0, -2.0, 2.0], atol=1e-10)


def test_minres_singular_consistent_system():
    # kernel direction e3 is never excited by a consistent right-hand side
    A = np.diag([1.0, 1.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    x, stats = minres(_operator(A), b, tol=1e-12)
    assert abs(x[2]) < 1e-12
    assert np.allclose(x[:2], [1.0, 2.0], atol=1e-10)
    assert stats.relative_residual <= 1e-10


def test_minres_zero_rhs():
    x, stats = minres(_operator(np.eye(4)), np.zeros(4))
    assert np.all(x == 0.0)
    assert stats == KrylovStats(0, 0.0, False)


def test_minres_rejects_nonsymmetric_probe():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    op = LinearOperator(dim=2, apply=lambda v: A @ v)
    with pytest.raises(ValueError, match="symmetr"):
        minres(op, np.ones(2))


def test_minres_rejects_a_fourier_operator_whose_symbol_is_not_hermitian():
    n = 16
    A, _, fields, _ = _fourier_pair(n, 16)
    symbol = A.symbol.astype(complex)
    symbol[0, 1, 3] += 1e-6j  # mode 3 alone: its block is no longer Hermitian
    with pytest.raises(ValueError, match="symmetr"):
        minres(fourier_operator(symbol, n, fields), np.ones(2 * n))


def test_minres_rejects_a_fourier_operator_whose_fields_are_not_symmetric():
    # [[a, b], [b (1 + 1e-9), 0]] sample by sample: read from the fields, a
    # relative asymmetry of 1e-9 is far past the check's 1e-12
    n = 16
    A, _, _, rng = _fourier_pair(n, 17)
    a, b = rng.standard_normal((2, n))
    fields = np.array([[a, b], [b * (1.0 + 1e-9), np.zeros(n)]])
    with pytest.raises(ValueError, match="symmetr"):
        minres(fourier_operator(A.symbol, n, fields), np.ones(2 * n))
    fields[1, 0] = b
    minres(fourier_operator(A.symbol, n, fields), np.ones(2 * n), maxit=1)


def test_symmetry_check_of_a_fourier_operator_applies_it_zero_times():
    n = 16
    A, _, _, _ = _fourier_pair(n, 18)
    calls = []

    def counted(v):
        calls.append(1)
        return A.apply(v)

    _check_symmetry(replace(A, apply=counted))
    assert calls == []
    # a plain operator is probed: two applies
    _check_symmetry(LinearOperator(dim=A.dim, apply=counted))
    assert len(calls) == 2


def test_minres_preconditioned():
    A = _spd(40, 5)
    b = np.random.default_rng(6).standard_normal(40)
    d = 1.0 / np.diag(A)
    x, stats = minres(_operator(A), b, tol=1e-12,
                      precond=LinearOperator(dim=40, apply=lambda v: d * v))
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)


def _reference_minres(op, b, tol=1e-10, maxit=500, precond=None):
    """MINRES as it was before preconditioned products were fused.

    Each iteration applies the preconditioner, a callable, to the new
    residual and then the operator op to the scaled result. Kept as the
    reference for the paths that must not change: unpreconditioned, and
    preconditioned by an operator that does not fuse with op.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(op.dim), KrylovStats(0, 0.0, False)
    _check_symmetry(op)

    apply_m = precond if precond is not None else (lambda v: v)
    x = np.zeros(op.dim)
    r1 = b.copy()
    y = np.asarray(apply_m(r1), dtype=float)
    beta1 = np.sqrt(float(np.dot(r1, y)))
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(op.dim)
    w2 = np.zeros(op.dim)
    r2 = r1.copy()
    it = 0
    best = np.inf
    stalled = 0
    for it in range(1, maxit + 1):
        v = y / beta
        y = op.apply(v)
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = np.asarray(apply_m(r2), dtype=float)
        oldb = beta
        beta = np.sqrt(float(np.dot(r2, y)))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        rel = phibar / beta1
        if rel < best:
            best = rel
            stalled = 0
        else:
            stalled += 1
        if rel <= tol or stalled > 50:
            break

    true_rel = float(np.linalg.norm(b - op.apply(x)) / bnorm)
    return x, KrylovStats(it, true_rel, False)


def _dense_indefinite():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = (q * np.linspace(-3.0, 5.0, 60)) @ q.T
    return _operator((A + A.T) / 2.0), rng.standard_normal(60), None


def _ring_jacobian():
    problem = build_nbody(NBodyConfig(n=16, m0=10.0))
    x = polygon_solution(16) + 0.01 * np.random.default_rng(22).standard_normal(32)
    return problem.jacobian_at(x), -problem.F(x), None


def _wave_jacobian_with_callable_precond():
    # |S|^{-1}'s apply, which the test wraps in a plain LinearOperator: no
    # FourierOperator to fuse with, so M then J
    n = 256
    profile = exact_profile(0.9, n, 25.0)
    params = BSParams(theta2=0.9, speed=profile.speed, n=n, half_length=25.0)
    problem = build_bs_problem(params)
    w = profile.wave + 0.01 * np.random.default_rng(23).standard_normal(2 * n)
    return problem.jacobian_at(w), -problem.F(w), precond_operator(params).apply


@pytest.mark.parametrize("case", [_dense_indefinite, _ring_jacobian,
                                  _wave_jacobian_with_callable_precond],
                         ids=["dense-indefinite", "ring-16", "wave-callable-precond"])
def test_minres_matches_the_reference_loop_bit_for_bit(case):
    A, b, precond = case()
    calls = []

    def counted(v):
        calls.append(1)
        return precond(v)

    x, stats = minres(A, b, tol=1e-12, maxit=500,
                      precond=None if precond is None else LinearOperator(b.size, counted))
    x_ref, stats_ref = _reference_minres(A, b, tol=1e-12, maxit=500, precond=precond)
    assert stats.iterations > 5
    assert np.array_equal(x, x_ref) and stats == stats_ref
    # the plain composition: one preconditioner call on b and one an iteration
    assert len(calls) == (0 if precond is None else stats.iterations + 1)


def test_minres_takes_a_preconditioner_by_its_apply_method():
    A, b, _ = _dense_indefinite()
    d = 1.0 / (1.0 + np.abs(np.diag(materialize(A))))

    class Diagonal:
        def apply(self, v):
            return d * v

    x, stats = minres(A, b, tol=1e-12, precond=Diagonal())
    x_ref, stats_ref = _reference_minres(A, b, tol=1e-12, precond=lambda v: d * v)
    assert np.array_equal(x, x_ref) and stats == stats_ref


def test_minres_rhs_length_mismatch():
    with pytest.raises(ValueError):
        minres(_operator(np.eye(3)), np.ones(4))


# ---------------- pcg ----------------

def test_pcg_spd_matches_dense_solve():
    A = _spd(60, 7)
    b = np.random.default_rng(8).standard_normal(60)
    x, stats = pcg(_operator(A), b, tol=1e-12, maxit=500)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)
    assert not stats.breakdown


def test_pcg_preconditioned_converges_faster():
    A = _spd(60, 9) + np.diag(np.linspace(0.0, 200.0, 60))
    b = np.random.default_rng(10).standard_normal(60)
    d = 1.0 / np.diag(A)
    x_plain, plain = pcg(_operator(A), b, tol=1e-10, maxit=500)
    x_prec, prec = pcg(_operator(A), b, precond=LinearOperator(dim=60, apply=lambda v: d * v),
                       tol=1e-10, maxit=500)
    assert prec.iterations <= plain.iterations
    assert np.allclose(x_prec, np.linalg.solve(A, b), atol=1e-7)


def test_pcg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    x, stats = pcg(_operator(A), np.array([0.0, 1.0]), tol=1e-12, maxit=50)
    assert stats.breakdown
    # breakdown always leaves budget unused
    assert stats.iterations < 50


def test_pcg_zero_rhs():
    x, stats = pcg(_operator(np.eye(3)), np.zeros(3))
    assert np.all(x == 0.0)
    assert stats.iterations == 0 and not stats.breakdown


def test_pcg_identity_single_iteration():
    b = np.array([1.0, 2.0])
    x, stats = pcg(_operator(np.eye(2)), b)
    assert np.allclose(x, b, atol=1e-14)
    assert stats.iterations == 1
