"""Planar relative equilibria of a central mass with a ring of bodies.

States interleave coordinates as (x_1, y_1, ..., x_n, y_n) for the ring
bodies; the central body of mass m0 sits at the origin and is eliminated.
In the frame rotating at the equilibrium rate the bodies satisfy
F(q) = omega^2 q + grad U(q) = 0 (every ring body has unit mass), and the
interaction coefficients are normalized so the unit regular polygon is an
exact solution at omega^2 = m0 + ring_constant(n). The system is
equivariant under global rotations, so solutions come in circles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .numlin import LinearOperator, abs_inverse_2x2, fourier_apply
from .solvers import HomogeneousSplit, ProblemSpec
from .symmetry import GroupAction

__all__ = [
    "NBodyConfig",
    "ring_constant",
    "polygon_solution",
    "grad_U",
    "hess_U",
    "build_nbody",
    "precond_operator",
    "rotation_action",
    "reduced_polar_residual",
]

_COLLISION_EPS = 1e-12


def ring_constant(n: int) -> float:
    """Quarter sum of cosecants; the polygon's self-interaction strength."""
    if n < 2:
        raise ValueError("need at least two ring bodies")
    k = np.arange(1, n)
    return 0.25 * float(np.sum(1.0 / np.sin(np.pi * k / n)))


@dataclass(frozen=True)
class NBodyConfig:
    """Ring size, central mass, and the equilibrium rate; ring bodies have unit mass."""

    n: int
    m0: float
    omega: float = field(init=False)  # filled from n and m0
    # (central, pairwise) interaction strengths, filled from n and m0. Chosen
    # so the unit polygon solves F = 0 at the configured omega:
    # central + pairwise * ring_constant(n) = omega^2.
    coefficients: Tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two ring bodies")
        if not 0.0 <= self.m0 < np.inf:
            raise ValueError("central mass must be nonnegative and finite")
        c = ring_constant(self.n)
        object.__setattr__(self, "omega", float(np.sqrt(self.m0 + c)))
        a = (self.m0 + c) / (1.0 + self.m0 * c)
        object.__setattr__(self, "coefficients", (a, self.m0 * a))


def polygon_solution(n: int) -> np.ndarray:
    """Unit regular polygon with body j at angle 2*pi*j/n, j = 1..n."""
    if n < 2:
        raise ValueError("need at least two ring bodies")
    th = 2.0 * np.pi * np.arange(1, n + 1) / n
    q = np.empty(2 * n)
    q[0::2] = np.cos(th)
    q[1::2] = np.sin(th)
    return q


def _positions(config: NBodyConfig, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * config.n,):
        raise ValueError("state length must be twice the body count")
    return q.reshape(config.n, 2)


def _pairs(config: NBodyConfig, q: np.ndarray):
    """Coordinates, squared radii and pair offsets of q, collision-checked.

    dx[j, i] = x_j - x_i and likewise dy; the squared pair distances d2
    carry inf on the diagonal, so self-pairs vanish from every inverse power.
    """
    pos = _positions(config, q)
    x, y = pos[:, 0], pos[:, 1]
    r2 = x * x + y * y
    if (r2 < _COLLISION_EPS ** 2).any():
        raise ValueError("body collides with the center")
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    d2.flat[::config.n + 1] = np.inf
    if (d2 < _COLLISION_EPS ** 2).any():
        raise ValueError("two ring bodies collide")
    return x, y, r2, dx, dy, d2


def grad_U(config: NBodyConfig, q: np.ndarray) -> np.ndarray:
    """Gradient of the interaction potential at q."""
    a, b = config.coefficients
    x, y, r2, dx, dy, d2 = _pairs(config, q)
    central = a * r2 ** -1.5
    pair = b * d2 ** -1.5
    g = np.empty(2 * config.n)
    g[0::2] = -central * x - (pair * dx).sum(axis=1)
    g[1::2] = -central * y - (pair * dy).sum(axis=1)
    return g


def hess_U(config: NBodyConfig, q: np.ndarray) -> np.ndarray:
    """Hessian of the interaction potential at q (dense, symmetric).

    Body j's 2x2 block against body i != j is b (I/d^3 - 3 r r^T/d^5)
    with r = q_j - q_i; each diagonal block is the central term
    -a (I/r_j^3 - 3 q_j q_j^T/r_j^5) minus the row's pair blocks.
    """
    a, b = config.coefficients
    x, y, r2, dx, dy, d2 = _pairs(config, q)
    n = config.n
    inv3 = d2 ** -1.5
    inv5 = inv3 / d2
    hxx = b * (inv3 - 3.0 * dx * dx * inv5)
    hxy = -3.0 * b * dx * dy * inv5
    hyy = b * (inv3 - 3.0 * dy * dy * inv5)
    central3 = a * r2 ** -1.5
    central5 = 3.0 * central3 / r2
    hxx.flat[::n + 1] = central5 * x * x - central3 - hxx.sum(axis=1)
    hxy.flat[::n + 1] = central5 * x * y - hxy.sum(axis=1)
    hyy.flat[::n + 1] = central5 * y * y - central3 - hyy.sum(axis=1)
    H = np.empty((2 * n, 2 * n))
    H[0::2, 0::2] = hxx
    H[0::2, 1::2] = hxy
    H[1::2, 0::2] = hxy
    H[1::2, 1::2] = hyy
    return H


def build_nbody(config: NBodyConfig) -> ProblemSpec:
    """Rotating-frame equilibrium system for the configured ring.

    F(q) = A q - N(q) with A = omega^2 and N = -grad U, homogeneous of
    degree -2 (stabilizing exponent 2/3). The fixed-point form
    G(q) = A^{-1}N(q) = -grad U(q) / omega^2 serves both iterations.
    """
    w2 = config.omega ** 2
    dim = 2 * config.n

    def F(q):
        return w2 * q + grad_U(config, q)

    def G(q):
        return -grad_U(config, q) / w2

    def jacobian_at(q):
        m = hess_U(config, q)
        m.flat[::dim + 1] += w2
        return LinearOperator(dim=dim, apply=lambda v: m @ v)

    split = HomogeneousSplit(linear=LinearOperator(dim=dim, apply=lambda v: w2 * v),
                             inverse=LinearOperator(dim=dim, apply=lambda v: v / w2),
                             degree=-2.0)
    return ProblemSpec(F=F, G=G, jacobian_at=jacobian_at, homogeneous_split=split)


# eigenvalues of the polygon's Jacobian at most this fraction of the largest
# modulus are its kernel (the rotation generator; every tangential motion at m0 = 0)
_KERNEL_TOL = 1e-8


def _polygon_symbol(config: NBodyConfig) -> np.ndarray:
    """Per-mode symbol S(m) of the Jacobian at the unit polygon, shape (2, 2, n).

    In each body's (radial, tangential) frame the polygon's Jacobian is
    block-circulant: body j's block against body j + d is the same 2x2
    matrix C_d for every j, since rotating by 2 pi/n and relabelling is a
    symmetry. A DFT over the bodies splits it into the Hermitian blocks
    S(m) = sum_d C_d exp(2 pi i m d/n), laid out like np.fft.fftfreq. C_d
    comes from one body's pair geometry, O(n).
    """
    n = config.n
    a, b = config.coefficients
    phi = 2.0 * np.pi * np.arange(1, n) / n
    c, s = np.cos(phi), np.sin(phi)
    # the body at (1, 0) against the one at angle phi: r = (1 - c, -s), |r|^2 = 2 - 2c
    rx, ry = 1.0 - c, -s
    d2 = 2.0 - 2.0 * c
    inv3 = b * d2 ** -1.5
    inv5 = 3.0 * inv3 / d2
    hxx = inv3 - inv5 * rx * rx
    hxy = -inv5 * rx * ry
    hyy = inv3 - inv5 * ry * ry
    # C_d = H R(phi): the partner's frame is turned by phi
    blocks = np.empty((2, 2, n))
    blocks[:, :, 1:] = [[hxx * c + hxy * s, hxy * c - hxx * s],
                        [hxy * c + hyy * s, hyy * c - hxy * s]]
    w2 = config.omega ** 2
    blocks[:, :, 0] = [[w2 + 2.0 * a - hxx.sum(), -hxy.sum()],
                       [-hxy.sum(), w2 - a - hyy.sum()]]
    # C_d is real, so S(m) = conj(rfft(C)[m]) and S(n - m) = conj(S(m))
    half = np.fft.rfft(blocks)
    return np.concatenate([half.conj(), half[..., 1:(n + 1) // 2][..., ::-1]], axis=-1)


def precond_operator(config: NBodyConfig, alpha: float = 0.0) -> LinearOperator:
    """|J|^{-1} at the unit polygon rotated by alpha.

    The ring's counterpart of boussinesq.precond_operator: v is turned
    into the bodies' (radial, tangential) frames, multiplied mode by mode
    by |S(m)|^{-1} of _polygon_symbol in one fourier_apply, and turned
    back. The result is symmetric positive definite: kernel eigenvalues
    (the rotation generator, and every tangential motion at m0 = 0) get
    the largest modulus as stand-in, so M maps the generator to a
    multiple of itself. Build O(n), apply O(n log n).
    """
    symbol = _polygon_symbol(config)
    symbol = abs_inverse_2x2(symbol[0, 0].real, symbol[0, 1], symbol[1, 1].real,
                             kernel_tol=_KERNEL_TOL)
    n = config.n
    # body j's radial direction as a unit complex number; states are x + iy per body
    turn = np.exp(1j * (2.0 * np.pi * np.arange(1, n + 1) / n + alpha))
    unturn = turn.conj()

    def apply(v):
        rt = np.ascontiguousarray(v, dtype=float).view(complex) * unturn
        rt = fourier_apply(symbol, np.concatenate([rt.real, rt.imag]))
        return ((rt[:n] + 1j * rt[n:]) * turn).view(float)

    return LinearOperator(dim=2 * n, apply=apply)


def _rotate(alpha: float, q: np.ndarray) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    out = np.empty_like(q)
    out[0::2] = c * q[0::2] - s * q[1::2]
    out[1::2] = s * q[0::2] + c * q[1::2]
    return out


def _rotation_generator(q: np.ndarray) -> np.ndarray:
    v = np.empty_like(q)
    v[0::2] = -q[1::2]
    v[1::2] = q[0::2]
    return v


def _rotation_align(x: np.ndarray, xref: np.ndarray) -> float:
    # argmax over alpha of <x, R_alpha xref> = A cos + B sin
    a = float(np.dot(x, xref))
    b = float(np.dot(x, _rotation_generator(xref)))
    return float(np.arctan2(b, a))


def rotation_action() -> GroupAction:
    """Simultaneous rotation of all bodies about the origin."""
    return GroupAction(
        act=lambda alpha, q: _rotate(float(alpha), np.asarray(q, dtype=float)),
        generators=lambda q: [_rotation_generator(np.asarray(q, dtype=float))],
        align=_rotation_align,
    )


def reduced_polar_residual(r1: float, r2: float, theta: float, m0: float) -> np.ndarray:
    """Two-body system reduced to radii and separation angle.

    Components: the two radial force balances and the rotation-invariant
    angular balance r1<F_1, J q_1^> - r2<F_2, J q_2^>. All three vanish
    at the polygon (r1 = r2 = 1, theta = pi) for every central mass.
    """
    if r1 < _COLLISION_EPS or r2 < _COLLISION_EPS:
        raise ValueError("body collides with the center")
    a, b = NBodyConfig(n=2, m0=m0).coefficients
    # not NBodyConfig's omega squared, which can differ in the last bit
    w2 = m0 + ring_constant(2)
    rho2 = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * np.cos(theta)
    if rho2 < _COLLISION_EPS ** 2:
        raise ValueError("two ring bodies collide")
    rho3 = rho2 ** 1.5
    return np.array([
        w2 * r1 - a / r1 ** 2 - b * (r1 - r2 * np.cos(theta)) / rho3,
        w2 * r2 - a / r2 ** 2 - b * (r2 - r1 * np.cos(theta)) / rho3,
        2.0 * b * r1 * r2 * np.sin(theta) / rho3,
    ])
