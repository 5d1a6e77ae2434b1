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

from .numlin import LinearOperator, fourier_operator, matrix_2x2_function
from .solvers import DomainError, HomogeneousSplit, ProblemSpec
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


def _positions(config: NBodyConfig, q: np.ndarray):
    """Coordinates and squared radii of q; DomainError when a body meets the center."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2 * config.n,):
        raise ValueError("state length must be twice the body count")
    x, y = q[0::2], q[1::2]
    r2 = x * x + y * y
    if (r2 < _COLLISION_EPS ** 2).any():
        raise DomainError("body collides with the center")
    return x, y, r2


# the pair walk's block of body pairs (32 KiB an array): a few cache-sized temporaries
# instead of whole-ring n x n arrays; rings of up to 64 bodies take one block
_PAIR_BLOCK = 4096


def _pair_blocks(x: np.ndarray, y: np.ndarray):
    """Rows lo..hi-1 of the pair offsets, _PAIR_BLOCK pairs at a time; DomainError on a collision.

    Yields lo, hi, dx, dy, d2 with dx[k, i] = x_{lo+k} - x_i, likewise dy, and
    the squared distances d2, inf at the self-pairs so they vanish from every
    inverse power. fmin skips a NaN body's pairs, so other bodies' collisions show.
    """
    n = x.size
    rows = max(1, _PAIR_BLOCK // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dx = x[lo:hi, None] - x
        dy = y[lo:hi, None] - y
        d2 = dx * dx + dy * dy
        d2.flat[lo::n + 1] = np.inf
        if np.fmin.reduce(d2, axis=None) < _COLLISION_EPS ** 2:
            raise DomainError("two ring bodies collide")
        yield lo, hi, dx, dy, d2


def _pair_hessian(b: float, dx: np.ndarray, dy: np.ndarray, d2: np.ndarray):
    """The xx, xy and yy entries of the pair blocks b (I/d^3 - 3 r r^T/d^5), r = (dx, dy)."""
    inv3 = d2 ** -1.5
    inv5 = inv3 / d2
    return (b * (inv3 - 3.0 * dx * dx * inv5), -3.0 * b * dx * dy * inv5,
            b * (inv3 - 3.0 * dy * dy * inv5))


def grad_U(config: NBodyConfig, q: np.ndarray) -> np.ndarray:
    """Gradient of the interaction potential at q."""
    a, b = config.coefficients
    x, y, r2 = _positions(config, q)
    pull = -a * r2 ** -1.5  # the central term of the gradient is pull * (x, y)
    g = np.empty(2 * config.n)
    gx, gy = g[0::2], g[1::2]
    np.multiply(pull, x, out=gx)
    np.multiply(pull, y, out=gy)
    for lo, hi, dx, dy, d2 in _pair_blocks(x, y):
        pair = b * d2 ** -1.5
        gx[lo:hi] -= (pair * dx).sum(axis=1)
        gy[lo:hi] -= (pair * dy).sum(axis=1)
    return g


def hess_U(config: NBodyConfig, q: np.ndarray) -> np.ndarray:
    """Hessian of the interaction potential at q (dense, symmetric).

    Body j's 2x2 block against body i != j is _pair_hessian's
    b (I/d^3 - 3 r r^T/d^5) with r = q_j - q_i; each diagonal block is the
    central term -a (I/r_j^3 - 3 q_j q_j^T/r_j^5) minus the row's pair
    blocks. The rows are built a _pair_blocks block at a time, straight into H.
    """
    a, b = config.coefficients
    x, y, r2 = _positions(config, q)
    n = config.n
    central3 = a * r2 ** -1.5
    central5 = 3.0 * central3 / r2
    cxx = central5 * x * x - central3
    cxy = central5 * x * y
    cyy = central5 * y * y - central3
    H = np.empty((n, 2, n, 2))
    for lo, hi, dx, dy, d2 in _pair_blocks(x, y):
        hxx, hxy, hyy = _pair_hessian(b, dx, dy, d2)
        hxx.flat[lo::n + 1] = cxx[lo:hi] - hxx.sum(axis=1)
        hxy.flat[lo::n + 1] = cxy[lo:hi] - hxy.sum(axis=1)
        hyy.flat[lo::n + 1] = cyy[lo:hi] - hyy.sum(axis=1)
        block = H[lo:hi]
        block[:, 0, :, 0], block[:, 1, :, 1] = hxx, hyy
        block[:, 0, :, 1] = block[:, 1, :, 0] = hxy
    return H.reshape(2 * n, 2 * n)


def build_nbody(config: NBodyConfig) -> ProblemSpec:
    """Rotating-frame equilibrium system for the configured ring.

    F(q) = A q - N(q) with A = omega^2 and N = -grad U, homogeneous of
    degree -2 (stabilizing exponent 2/3). F and the fixed-point form
    G(q) = A^{-1}N(q) = -grad U(q) / omega^2 come from the split.
    """
    w2 = config.omega ** 2
    dim = 2 * config.n

    def jacobian_at(q):
        m = hess_U(config, q)
        m.flat[::dim + 1] += w2
        return LinearOperator(dim=dim, apply=lambda v: m @ v)

    split = HomogeneousSplit(linear=LinearOperator(dim=dim, apply=lambda v: w2 * v),
                             inverse=LinearOperator(dim=dim, apply=lambda v: v / w2),
                             nonlinear=lambda q: -grad_U(config, q), degree=-2.0)
    return ProblemSpec(F=split.residual, G=split.fixed_point_map, jacobian_at=jacobian_at,
                       homogeneous_split=split)


# eigenvalues of the polygon's Jacobian at most this fraction of the largest
# modulus are its kernel (the rotation generator; every tangential motion at m0 = 0)
_KERNEL_TOL = 1e-8


def _lifted_abs_inverse(lam: np.ndarray) -> np.ndarray:
    # 1/|lam|, each kernel eigenvalue first raised to the largest modulus
    mod = np.abs(lam)
    return 1.0 / np.where(mod <= _KERNEL_TOL * mod.max(), mod.max(), mod)


def _polygon_symbol(config: NBodyConfig) -> np.ndarray:
    """Per-mode symbol S(m) of the Jacobian at the unit polygon, shape (2, 2, n//2 + 1).

    In each body's (radial, tangential) frame the polygon's Jacobian is
    block-circulant: body j's block against body j + d is the same 2x2
    matrix C_d for every j, since rotating by 2 pi/n and relabelling is a
    symmetry. A DFT over the bodies splits it into the Hermitian blocks
    S(m) = sum_d C_d exp(2 pi i m d/n), stored on the modes m = 0..n//2
    of a real transform; C_d is real, so S(n - m) = conj S(m) holds the
    rest. C_d comes from one body's pair geometry, O(n).
    """
    n = config.n
    a, b = config.coefficients
    phi = 2.0 * np.pi * np.arange(1, n) / n
    c, s = np.cos(phi), np.sin(phi)
    # the body at (1, 0) against the one at angle phi: r = (1 - c, -s), |r|^2 = 2 - 2c
    hxx, hxy, hyy = _pair_hessian(b, 1.0 - c, -s, 2.0 - 2.0 * c)
    # C_d = H R(phi): the partner's frame is turned by phi
    blocks = np.empty((2, 2, n))
    blocks[:, :, 1:] = [[hxx * c + hxy * s, hxy * c - hxx * s],
                        [hxy * c + hyy * s, hyy * c - hxy * s]]
    w2 = config.omega ** 2
    blocks[:, :, 0] = [[w2 + 2.0 * a - hxx.sum(), -hxy.sum()],
                       [-hxy.sum(), w2 - a - hyy.sum()]]
    # the Hermitian part, which rfft's round-off leaves Hermitian only to about 1e-14 relative
    symbol = np.fft.rfft(blocks).conj()
    return 0.5 * (symbol + symbol.transpose(1, 0, 2).conj())


def precond_operator(config: NBodyConfig, alpha: float = 0.0) -> LinearOperator:
    """|J|^{-1} at the unit polygon rotated by alpha.

    The ring's counterpart of boussinesq.precond_operator: v is turned
    into the bodies' (radial, tangential) frames, multiplied mode by mode
    by |S(m)|^{-1} of _polygon_symbol through one FourierOperator, and
    turned back. |S(m)|^{-1} is matrix_2x2_function with f = _lifted_abs_inverse,
    which gives kernel eigenvalues (the rotation generator, and every
    tangential motion at m0 = 0) the largest modulus over all modes. So
    the result is symmetric positive definite, and M maps the generator to
    a multiple of itself. Build O(n), apply O(n log n).
    """
    n = config.n
    symbol = matrix_2x2_function(_polygon_symbol(config), _lifted_abs_inverse)
    product = fourier_operator(symbol, n).apply
    # body j's radial direction as a unit complex number; states are x + iy per body
    turn = np.exp(1j * (2.0 * np.pi * np.arange(1, n + 1) / n + alpha))
    unturn = turn.conj()

    def apply(v):
        rt = np.ascontiguousarray(v, dtype=float).view(complex) * unturn
        rt = product(np.concatenate([rt.real, rt.imag]))
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
