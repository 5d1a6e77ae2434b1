import dataclasses

import numpy as np
import pytest

from orbitfix.nbody import (NBodyConfig, _polygon_symbol, build_nbody, grad_U, hess_U,
                            polygon_solution, precond_operator, ring_constant, rotation_action)
from orbitfix.numlin import LinearOperator, _check_symmetry, dense_eigenvalues, materialize
from orbitfix.solvers import iteration_matrix_spectrum
from orbitfix.symmetry import align_to_orbit
from reference import fd_jacobian, petviashvili_map, reduced_polar_residual


# ---------------- loop reference for the potential ----------------
# One body pair at a time, written straight from the formulas with a mass
# per body; the library's unit-mass array expressions must agree with it to
# round-off.

def _loop_grad_U(cfg, q):
    a, b = cfg.coefficients
    masses = np.ones(cfg.n)
    pos = q.reshape(cfg.n, 2)
    g = np.zeros_like(pos)
    for j in range(cfg.n):
        g[j] = -a * masses[j] * pos[j] / np.linalg.norm(pos[j]) ** 3
        for i in range(cfg.n):
            if i != j:
                d = pos[j] - pos[i]
                g[j] -= b * masses[i] * masses[j] * d / np.linalg.norm(d) ** 3
    return g.ravel()


def _loop_pair_block(r):
    dist = np.linalg.norm(r)
    return np.eye(2) / dist ** 3 - 3.0 * np.outer(r, r) / dist ** 5


def _loop_hess_U(cfg, q):
    a, b = cfg.coefficients
    masses = np.ones(cfg.n)
    pos = q.reshape(cfg.n, 2)
    H = np.zeros((2 * cfg.n, 2 * cfg.n))
    for j in range(cfg.n):
        diag = -a * masses[j] * _loop_pair_block(pos[j])
        for i in range(cfg.n):
            if i != j:
                block = b * masses[i] * masses[j] * _loop_pair_block(pos[j] - pos[i])
                diag -= block
                H[2 * j:2 * j + 2, 2 * i:2 * i + 2] = block
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = diag
    return H


# ---------------- array reference for the potential ----------------
# grad_U's and hess_U's array expressions as they were when the ring
# carried per-body masses m and each call weighted its terms by a m and
# b m m^T. At unit masses the library's scalar coefficients must reproduce
# them bit for bit.

def _array_pairs(q):
    pos = q.reshape(-1, 2)
    x, y = pos[:, 0], pos[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return x, y, x * x + y * y, dx, dy, d2


def _array_grad_U(cfg, q):
    a, b = cfg.coefficients
    x, y, r2, dx, dy, d2 = _array_pairs(q)
    masses = np.ones(cfg.n)
    central = a * masses * r2 ** -1.5
    pair = b * np.outer(masses, masses) * d2 ** -1.5
    g = np.empty(2 * cfg.n)
    g[0::2] = -central * x - np.sum(pair * dx, axis=1)
    g[1::2] = -central * y - np.sum(pair * dy, axis=1)
    return g


def _array_hess_U(cfg, q):
    a, b = cfg.coefficients
    x, y, r2, dx, dy, d2 = _array_pairs(q)
    masses = np.ones(cfg.n)
    inv3 = d2 ** -1.5
    inv5 = inv3 / d2
    c = b * np.outer(masses, masses)
    hxx = c * (inv3 - 3.0 * dx * dx * inv5)
    hxy = -3.0 * c * dx * dy * inv5
    hyy = c * (inv3 - 3.0 * dy * dy * inv5)
    central3 = a * masses * r2 ** -1.5
    central5 = 3.0 * central3 / r2
    np.fill_diagonal(hxx, central5 * x * x - central3 - np.sum(hxx, axis=1))
    np.fill_diagonal(hxy, central5 * x * y - np.sum(hxy, axis=1))
    np.fill_diagonal(hyy, central5 * y * y - central3 - np.sum(hyy, axis=1))
    H = np.empty((2 * cfg.n, 2 * cfg.n))
    H[0::2, 0::2] = hxx
    H[0::2, 1::2] = hxy
    H[1::2, 0::2] = hxy
    H[1::2, 1::2] = hyy
    return H


# ---------------- configuration ----------------

def test_ring_constant_two_bodies():
    assert abs(ring_constant(2) - 0.25) < 1e-15


def test_omega_two_bodies():
    cfg = NBodyConfig(n=2, m0=10.0)
    assert abs(cfg.omega ** 2 - 10.25) < 1e-13


def test_coefficient_identity():
    # a + b*c_n must equal omega^2 for the polygon to be an equilibrium
    for n in (2, 3, 5, 8):
        for m0 in (0.0, 1.0, 4.0, 10.0):
            cfg = NBodyConfig(n=n, m0=m0)
            a, b = cfg.coefficients
            assert abs(a + b * ring_constant(n) - cfg.omega ** 2) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        NBodyConfig(n=1, m0=1.0)
    with pytest.raises(ValueError):
        NBodyConfig(n=2, m0=-1.0)


@pytest.mark.parametrize("m0", [np.nan, np.inf], ids=["m0-nan", "m0-inf"])
def test_config_rejects_non_finite_masses(m0):
    with pytest.raises(ValueError, match="finite"):
        NBodyConfig(n=3, m0=m0)


def test_config_derives_omega_and_rejects_it_as_argument():
    # omega follows from n and m0, so it is not a constructor argument
    with pytest.raises(TypeError):
        NBodyConfig(n=2, m0=10.0, omega=1.0)
    assert NBodyConfig(n=2, m0=10.0) == NBodyConfig(n=2, m0=10.0)
    assert "omega=" in repr(NBodyConfig(n=2, m0=10.0))


# ---------------- polygon geometry ----------------

def test_polygon_two_bodies():
    assert np.allclose(polygon_solution(2), [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_polygon_unit_circle():
    q = polygon_solution(6)
    r = np.hypot(q[0::2], q[1::2])
    assert np.allclose(r, 1.0, atol=1e-14)


def test_polygon_four_bodies():
    q = polygon_solution(4)
    pts = q.reshape(-1, 2)
    expected = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(pts, expected, atol=1e-14)


# ---------------- residual at the polygon ----------------

@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_polygon_is_equilibrium(n):
    problem = build_nbody(NBodyConfig(n=n, m0=10.0))
    assert np.linalg.norm(problem.F(polygon_solution(n))) < 1e-10


@pytest.mark.parametrize("m0", [0.0, 1.0, 4.0, 10.0])
def test_polygon_is_equilibrium_all_masses(m0):
    problem = build_nbody(NBodyConfig(n=2, m0=m0))
    assert np.linalg.norm(problem.F(polygon_solution(2))) < 1e-12


# ---------------- forces and derivatives ----------------

def test_grad_matches_fd():
    cfg = NBodyConfig(n=3, m0=2.0)
    rng = np.random.default_rng(21)
    q = polygon_solution(3) + 0.05 * rng.standard_normal(6)

    def U(qv):
        a, b = cfg.coefficients
        pts = qv.reshape(-1, 2)
        val = 0.0
        for j in range(3):
            val += a / np.linalg.norm(pts[j])
        for j in range(3):
            for i in range(j):
                val += b / np.linalg.norm(pts[j] - pts[i])
        return val

    g = grad_U(cfg, q)
    h = 1e-6
    fd = np.zeros(6)
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        fd[k] = (U(q + e) - U(q - e)) / (2 * h)
    assert np.allclose(g, fd, atol=1e-6)


def test_hessian_symmetric_and_matches_fd():
    cfg = NBodyConfig(n=3, m0=2.0)
    rng = np.random.default_rng(22)
    q = polygon_solution(3) + 0.05 * rng.standard_normal(6)
    H = hess_U(cfg, q)
    assert np.allclose(H, H.T, atol=1e-13)
    fd = fd_jacobian(lambda v: grad_U(cfg, v), q)
    assert np.allclose(H, fd, atol=1e-5)


def test_gradient_homogeneity():
    # U is homogeneous of degree -1, so grad scales with degree -2
    cfg = NBodyConfig(n=4, m0=3.0)
    q = polygon_solution(4) + 0.02
    assert np.allclose(grad_U(cfg, 2 * q), grad_U(cfg, q) / 4.0, atol=1e-12)


def test_euler_identity():
    # homogeneity gives H(q) q = -2 grad U(q)
    cfg = NBodyConfig(n=3, m0=5.0)
    rng = np.random.default_rng(23)
    q = polygon_solution(3) + 0.05 * rng.standard_normal(6)
    assert np.allclose(hess_U(cfg, q) @ q, -2.0 * grad_U(cfg, q), atol=1e-10)


# 65 bodies take row blocks of 63 and 2, 130 bodies four of 31 and one of 6
@pytest.mark.parametrize("n", [2, 3, 7, 16, 65, 130])
def test_potential_matches_loop_reference(n):
    rng = np.random.default_rng(100 + n)
    cfg = NBodyConfig(n=n, m0=rng.uniform(0.0, 10.0))
    for _ in range(3):
        q = polygon_solution(n) + 0.05 * rng.standard_normal(2 * n)
        g_ref = _loop_grad_U(cfg, q)
        H_ref = _loop_hess_U(cfg, q)
        g = grad_U(cfg, q)
        H = hess_U(cfg, q)
        assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))
        assert np.max(np.abs(H - H_ref)) <= 1e-13 * np.max(np.abs(H_ref))
        assert np.array_equal(H, H.T)
        assert np.array_equal(g, _array_grad_U(cfg, q))
        assert np.array_equal(H, _array_hess_U(cfg, q))
        J = materialize(build_nbody(cfg).jacobian_at(q))
        assert np.array_equal(J, cfg.omega ** 2 * np.eye(2 * n) + H)


@pytest.mark.parametrize("changes", [{"m0": 3.0}], ids=["m0"])
def test_derived_weights_follow_replace_and_stay_out_of_identity(changes):
    # coefficients derived in __post_init__ are rederived by dataclasses.replace,
    # and repr, == and hash see only the declared fields
    cfg = dataclasses.replace(NBodyConfig(n=3, m0=7.0), **changes)
    fresh = NBodyConfig(**{"n": 3, "m0": 7.0, **changes})
    q = polygon_solution(3) + 0.05 * np.random.default_rng(7).standard_normal(6)
    assert np.array_equal(grad_U(cfg, q), grad_U(fresh, q))
    assert np.array_equal(hess_U(cfg, q), hess_U(fresh, q))
    assert cfg == fresh
    assert hash(cfg) == hash((cfg.n, cfg.m0, cfg.omega))
    assert repr(cfg) == f"NBodyConfig(n={cfg.n!r}, m0={cfg.m0!r}, omega={cfg.omega!r})"


def test_collision_raises():
    two = NBodyConfig(n=2, m0=1.0)
    three = NBodyConfig(n=3, m0=1.0)
    for potential in (grad_U, hess_U):
        with pytest.raises(ValueError, match="two ring bodies collide"):
            potential(two, np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="body collides with the center"):
            potential(two, np.array([0.0, 0.0, 1.0, 0.0]))
        # bodies 1 and 3 coincide, body 2 is elsewhere: the self-pair mask on
        # the diagonal must not hide a collision between distinct bodies
        with pytest.raises(ValueError, match="two ring bodies collide"):
            potential(three, np.array([1.0, 0.5, -1.0, 0.0, 1.0, 0.5]))
        # the same in hess_U's fourth row block (bodies 93-123), whose self-pair
        # mask starts at the block's first row
        q = polygon_solution(130)
        q[240:244] = q[200:204]
        with pytest.raises(ValueError, match="two ring bodies collide"):
            potential(NBodyConfig(n=130, m0=1.0), q)
        # body 1 at NaN, bodies 2 and 3 coincide: the NaN pairs must not hide
        # the collision, as a bare d2.min() would
        with pytest.raises(ValueError, match="two ring bodies collide"):
            potential(three, np.array([np.nan, np.nan, -1.0, 0.0, -1.0, 0.0]))


def test_hessian_temporaries_stay_bounded():
    import tracemalloc

    # hess_U: row blocks of _PAIR_BLOCK pairs beside the 2 MiB output; whole-ring
    # pair arrays would add 0.5 MiB each. grad_U: the same blocks beside a 16 KiB
    # output, where whole-ring arrays take 40 MiB a call
    for potential, n, bound in ((hess_U, 256, 3 * 2 ** 20), (grad_U, 1024, 2 ** 20)):
        q = polygon_solution(n)
        tracemalloc.start()
        try:
            potential(NBodyConfig(n=n, m0=10.0), q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, potential.__name__


# ---------------- fixed-point map ----------------

def test_map_homogeneity():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    q = polygon_solution(2) + 0.03
    assert np.allclose(problem.G(2 * q), problem.G(q) / 4.0, atol=1e-12)


def test_map_fixes_polygon():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    q = polygon_solution(2)
    assert np.allclose(problem.G(q), q, atol=1e-13)


def test_map_equivariance():
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    action = rotation_action()
    q = polygon_solution(2) + 0.05 * np.array([1.0, -2.0, 0.5, 1.5])
    for alpha in (0.3, -1.2):
        lhs = problem.G(action.act(alpha, q))
        rhs = action.act(alpha, problem.G(q))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_residual_norm_rotation_invariant():
    problem = build_nbody(NBodyConfig(n=2, m0=5.0))
    action = rotation_action()
    q = polygon_solution(2) + 0.05 * np.array([1.0, -2.0, 0.5, 1.5])
    base = np.linalg.norm(problem.F(q))
    for alpha in (0.7, -2.1):
        assert abs(np.linalg.norm(problem.F(action.act(alpha, q))) - base) < 1e-10


# ---------------- rotation alignment ----------------

def test_rotation_align_hand_value():
    action = rotation_action()
    q = polygon_solution(2)
    x = action.act(np.pi / 6, q)
    rep = align_to_orbit(x, q, action)
    assert abs(rep.alpha_star - np.pi / 6) < 1e-12


# ---------------- reduced polar residual ----------------

@pytest.mark.parametrize("m0", [0.0, 1.0, 4.0, 5.0, 10.0])
def test_reduced_residual_vanishes_at_polygon(m0):
    out = reduced_polar_residual(1.0, 1.0, np.pi, m0)
    assert np.linalg.norm(out) < 1e-12


def test_reduced_residual_matches_full_system():
    # polar change of variables: body 1 at r1*(cos 0, sin 0), body 2 at
    # r2*(cos theta, sin theta); radial rows project F on q_j / |q_j| and the
    # angular row is the weighted difference of tangential components
    rng = np.random.default_rng(31)
    for _ in range(100):
        m0 = rng.uniform(0.0, 10.0)
        r1 = rng.uniform(0.5, 2.0)
        r2 = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.3, 2 * np.pi - 0.3)

        problem = build_nbody(NBodyConfig(n=2, m0=m0))
        q = np.array([r1, 0.0, r2 * np.cos(theta), r2 * np.sin(theta)])
        F = problem.F(q)
        f1, f2 = F[:2], F[2:]
        u1 = q[:2] / r1
        u2 = q[2:] / r2
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])

        expected = np.array([
            np.dot(f1, u1),
            np.dot(f2, u2),
            r1 * np.dot(f1, rot @ u1) - r2 * np.dot(f2, rot @ u2),
        ])
        got = reduced_polar_residual(r1, r2, theta, m0)
        assert np.allclose(got, expected, atol=1e-10)


def test_reduced_residual_collision_guard():
    with pytest.raises(ValueError):
        reduced_polar_residual(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        reduced_polar_residual(0.0, 1.0, np.pi, 1.0)


# ---------------- linearized iteration spectrum ----------------

@pytest.mark.parametrize("m0", [0.0, 1.0, 4.0, 5.0, 10.0])
def test_iteration_spectrum_closed_form(m0):
    # the plain fixed-point map at the two-body polygon has eigenvalues
    # {-2, 1, -8/(m0+4), 4/(m0+4)}
    problem = build_nbody(NBodyConfig(n=2, m0=m0))
    cfg = NBodyConfig(n=2, m0=m0)
    qstar = polygon_solution(2)
    J = -hess_U(cfg, qstar) / cfg.omega ** 2
    rep = dense_eigenvalues(J)
    expected = sorted([-2.0, 1.0, -8.0 / (m0 + 4.0), 4.0 / (m0 + 4.0)])
    assert np.allclose(sorted(rep.eigenvalues.real), expected, atol=1e-10)
    assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-10

    # cross-check against a finite-difference linearization of G
    fd = fd_jacobian(problem.G, qstar)
    fd_rep = dense_eigenvalues(fd)
    assert np.allclose(sorted(fd_rep.eigenvalues.real), expected, atol=1e-5)


def test_stabilized_spectrum_filters_dominant_mode():
    # gamma = 2/3 sends the eigenvalue -2 (eigenvector = the solution ray)
    # to 0 while leaving the rest of the spectrum alone
    problem = build_nbody(NBodyConfig(n=2, m0=10.0))
    step = petviashvili_map(problem)
    rep = dense_eigenvalues(fd_jacobian(step, polygon_solution(2)))
    vals = sorted(rep.eigenvalues.real)
    expected = sorted([0.0, 1.0, -8.0 / 14.0, 4.0 / 14.0])
    assert np.allclose(vals, expected, atol=1e-5)


@pytest.mark.parametrize("m0", [10.0, 1000.0])
def test_stabilized_map_is_unstable_at_eight_body_polygon(m0):
    # the stabilized map's dominant modulus at the 8-body polygon is about 5,
    # so the ring Petviashvili iteration diverging there is the map's own
    # linear instability, not a solver fault
    problem = build_nbody(NBodyConfig(n=8, m0=m0))
    rep = iteration_matrix_spectrum(problem, polygon_solution(8), stabilized=True)
    assert rep.dominant_modulus > 1.0


# ---------------- block-circulant structure at the polygon ----------------

def _polygon_jacobian(cfg, alpha=0.0):
    q = rotation_action().act(alpha, polygon_solution(cfg.n))
    return cfg.omega ** 2 * np.eye(2 * cfg.n) + hess_U(cfg, q), q


def _dense_abs_inverse(J, kernel_tol=1e-8):
    # |J|^{-1} by eigendecomposition; kernel eigenvalues take the largest modulus
    lam, vec = np.linalg.eigh(J)
    mod = np.abs(lam)
    mod = np.where(mod <= kernel_tol * mod.max(), mod.max(), mod)
    return (vec / mod) @ vec.T


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
@pytest.mark.parametrize("m0", [0.0, 10.0])
def test_polygon_symbol_spectrum_is_the_dense_spectrum(n, m0):
    # the DFT over bodies splits J* into n Hermitian 2x2 blocks whose
    # eigenvalues together are J*'s; the symbol stores modes 0..n/2, and
    # S(n - m) = conj S(m) gives the rest
    cfg = NBodyConfig(n=n, m0=m0)
    symbol = _polygon_symbol(cfg)
    assert symbol.shape == (2, 2, n // 2 + 1)
    full = np.concatenate([symbol, symbol[..., 1:(n + 1) // 2][..., ::-1].conj()], axis=-1)
    assert full.shape == (2, 2, n)
    blocks = np.moveaxis(full, -1, 0)
    assert np.array_equal(blocks, blocks.conj().transpose(0, 2, 1))
    by_mode = np.sort(np.linalg.eigvalsh(blocks).ravel())
    dense = np.linalg.eigvalsh(_polygon_jacobian(cfg)[0])
    assert np.allclose(by_mode, dense, rtol=0.0, atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("m0", [0.0, 10.0])
def test_precond_operator_is_the_dense_abs_inverse(n, m0):
    cfg = NBodyConfig(n=n, m0=m0)
    J, q = _polygon_jacobian(cfg)
    expected = _dense_abs_inverse(J)
    op = precond_operator(cfg)
    M = materialize(op)
    assert np.all(np.isfinite(M))
    # equal on the complement of the rotation generator g
    g = rotation_action().generators(q)[0]
    g /= np.linalg.norm(g)
    P = np.eye(2 * n) - np.outer(g, g)
    assert np.abs(P @ (M - expected) @ P).max() <= 1e-12 * np.abs(expected).max()
    # symmetric positive definite, with g an eigenvector
    _check_symmetry(op)
    assert np.linalg.eigvalsh(M).min() > 0.0
    mg = M @ g
    assert np.linalg.norm(mg - np.dot(g, mg) * g) <= 1e-12 * np.linalg.norm(mg)


@pytest.mark.parametrize("n", [3, 16])
def test_precond_operator_rotates_with_the_polygon(n):
    cfg = NBodyConfig(n=n, m0=10.0)
    alpha = 0.7
    rotate = materialize(LinearOperator(dim=2 * n,
                                        apply=lambda v: rotation_action().act(alpha, v)))
    M0 = materialize(precond_operator(cfg))
    M = materialize(precond_operator(cfg, alpha))
    assert np.allclose(M, rotate @ M0 @ rotate.T, rtol=0.0, atol=1e-13 * np.abs(M0).max())
    expected = _dense_abs_inverse(_polygon_jacobian(cfg, alpha)[0])
    assert np.allclose(M, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
