"""Dense and matrix-free numerical linear algebra helpers.

Vectors are 1-D numpy arrays. Matrix-free maps are wrapped in
LinearOperator so the iterative solvers can consume dense matrices and
callables through one interface.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "DENSE_DIM_LIMIT",
    "LinearOperator",
    "KrylovStats",
    "SpectrumReport",
    "as_operator",
    "materialize",
    "fourier_symbols",
    "fourier_apply",
    "inverse_2x2",
    "abs_inverse_2x2",
    "spectral_derivative",
    "fd_jacobian",
    "dense_eigenvalues",
    "minres",
    "pcg",
]

# dense eigenvalue work is O(n^3); refuse anything past this
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class LinearOperator:
    """Linear map on R^dim given by a callable."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    symmetric: bool = True

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)


@dataclass(frozen=True)
class KrylovStats:
    """Iteration count, true relative residual, and breakdown flag.

    breakdown=True means the method stopped on an indefiniteness test,
    which can only happen before the iteration budget is exhausted.
    """

    iterations: int
    relative_residual: float
    breakdown: bool = False


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues sorted by decreasing modulus plus summary counters.

    block_dims and block_near_zero hold the size and near-0 count of each
    diagonal block the spectrum was computed from (one block for a plain
    matrix).
    """

    eigenvalues: np.ndarray
    count_near_unit: int
    count_near_zero: int
    dominant_modulus: float
    block_dims: Tuple[int, ...]
    block_near_zero: Tuple[int, ...]


def as_operator(A, symmetric: Optional[bool] = None) -> LinearOperator:
    """Wrap a square matrix (or pass through a LinearOperator)."""
    if isinstance(A, LinearOperator):
        return A
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if symmetric is None:
        symmetric = bool(np.allclose(M, M.T, rtol=0.0, atol=1e-12))
    return LinearOperator(dim=M.shape[0], apply=lambda v: M @ v, symmetric=symmetric)


def materialize(op) -> np.ndarray:
    """Evaluate a linear operator column by column into a dense matrix."""
    if not isinstance(op, LinearOperator):
        return np.asarray(op, dtype=float)
    n = op.dim
    M = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        M[:, j] = op.apply(e)
        e[j] = 0.0
    return M


@lru_cache(maxsize=16)
def fourier_symbols(n: int, half_length: float):
    """Wavenumbers xi and the symbols of d/dx and d2/dx2 on n samples of [-L, L).

    Returns read-only arrays (xi, d1, d2) with d1 = i*xi and d2 = -xi^2,
    shared between callers. d1 zeroes the Nyquist mode, which has no
    consistent odd-order derivative on an even grid.
    """
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_length / n)
    d1 = 1j * xi
    d1[n // 2] = 0.0
    d2 = -(xi ** 2)
    for a in (xi, d1, d2):
        a.flags.writeable = False
    return xi, d1, d2


def fourier_apply(symbol: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply v by symbol in Fourier space, through real transforms.

    The symbol is laid out like np.fft.fftfreq and must be Hermitian,
    symbol(-xi) = conj symbol(xi), so that it maps real fields to real
    fields; only its modes 0..n/2 are read, and the imaginary parts of
    the mean and Nyquist terms are dropped. d1, d2, exp(-i xi alpha) and
    every symbol built from xi^2 qualify.

    A scalar symbol of shape (n,) multiplies each n-sample block of v, so a
    stacked state (u, eta) goes through one batched transform. A matrix
    symbol of shape (k, k, n) mixes k stacked fields mode by mode: v holds
    k blocks of n samples and block i of the result is the sum over j of
    symbol[i, j] times block j.
    """
    v = np.asarray(v, dtype=float)
    n = symbol.shape[-1]
    half = symbol[..., :n // 2 + 1]
    if symbol.ndim == 1:
        if v.ndim != 1 or v.shape[0] % n:
            raise ValueError("vector length must be a multiple of the symbol length")
        return np.fft.irfft(np.fft.rfft(v.reshape(-1, n)) * half, n).reshape(v.shape)
    k = symbol.shape[0]
    if symbol.shape != (k, k, n):
        raise ValueError("matrix symbol must have shape (k, k, n)")
    if v.shape != (k * n,):
        raise ValueError("vector length must be the symbol's field count times its length")
    v_hat = np.fft.rfft(v.reshape(k, n))
    return np.fft.irfft((half * v_hat).sum(axis=1), n).reshape(v.shape)


def inverse_2x2(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Per-mode A^{-1} of symmetric 2x2 blocks [[a11, a12], [a12, a22]], shape (2, 2, n).

    A^{-1} = adj(A) / det A. Every block must be nonsingular.
    """
    a11, a12, a22 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (a11, a12, a22)))
    det = a11 * a22 - a12 * a12
    if not np.all(det != 0.0):
        raise ValueError("every 2x2 block must be nonsingular")
    return np.stack([np.stack([a22, -a12]), np.stack([-a12, a11])]) / det


def abs_inverse_2x2(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Per-mode |A|^{-1} of symmetric 2x2 blocks [[a11, a12], [a12, a22]], shape (2, 2, n).

    |A| = sqrt(A^2) is the SPD matrix with A's eigenvectors and the moduli
    of its eigenvalues. With B = A^2 + |det A| I and s = |l1| + |l2| =
    sqrt(tr(A^2) + 2|det A|), |A| = B / s, so |A|^{-1} = adj(B) / (s |det A|)
    and no eigenvectors are needed. Every block must be nonsingular.
    """
    a11, a12, a22 = (np.asarray(a, dtype=float) for a in (a11, a12, a22))
    absdet = np.abs(a11 * a22 - a12 * a12)
    if not np.all(absdet > 0.0):
        raise ValueError("every 2x2 block must be nonsingular")
    b11 = a11 * a11 + a12 * a12 + absdet
    b22 = a12 * a12 + a22 * a22 + absdet
    b12 = a12 * (a11 + a22)
    scale = np.sqrt(b11 + b22) * absdet
    return np.stack([np.stack([b22, -b12]), np.stack([-b12, b11])]) / scale


def spectral_derivative(v: np.ndarray, half_length: float, order: int = 1) -> np.ndarray:
    """Fourier differentiation of samples on a uniform grid over [-L, L).

    The first derivative zeroes the Nyquist mode.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.ndim != 1 or n < 4 or n % 2:
        raise ValueError("spectral_derivative requires an even number of samples >= 4")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not half_length > 0.0:
        raise ValueError("half_length must be positive")
    return fourier_apply(fourier_symbols(n, half_length)[order], v)


def fd_jacobian(F: Callable, x: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Central-difference Jacobian of F at x."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * max(1.0, float(np.linalg.norm(x, np.inf)))
    n = x.shape[0]
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = step
        cols.append((np.asarray(F(x + e)) - np.asarray(F(x - e))) / (2.0 * step))
        e[j] = 0.0
    return np.column_stack(cols)


def _block_eigenvalues(A) -> np.ndarray:
    if isinstance(A, LinearOperator) and A.dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dimension {A.dim} exceeds the dense eigenvalue limit {DENSE_DIM_LIMIT}"
        )
    M = materialize(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if M.shape[0] > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dimension {M.shape[0]} exceeds the dense eigenvalue limit {DENSE_DIM_LIMIT}"
        )
    if M.shape[0] == 0:
        return np.empty(0, dtype=complex)
    # NaN compares false, so a matrix holding one counts as non-symmetric
    if np.abs(M - M.T).max() <= 1e-12 * max(1.0, float(np.abs(M).max())):
        return np.linalg.eigvalsh(M).astype(complex)
    return np.linalg.eigvals(M)


def dense_eigenvalues(A, tol_unit: float = 1e-6, tol_zero: float = 1e-6) -> SpectrumReport:
    """Full eigenvalue set of a small matrix, with near-1 and near-0 counts.

    A tuple or an iterator of square matrices or operators stands for the
    block-diagonal matrix they form: its spectrum is the union of the
    blocks' spectra, the dimension limit applies to each block, and
    block_dims and block_near_zero give the size and near-0 count of each
    block in order. An iterator is consumed one block at a time, and no
    block is kept once its eigenvalues are known.
    """
    blocks = list(map(_block_eigenvalues, A if isinstance(A, (tuple, Iterator)) else (A,)))
    near_zero = tuple(int(np.count_nonzero(np.abs(b) <= tol_zero)) for b in blocks)
    ev = np.concatenate(blocks)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")]
    return SpectrumReport(
        eigenvalues=ev,
        count_near_unit=int(np.count_nonzero(np.abs(ev - 1.0) <= tol_unit)),
        count_near_zero=sum(near_zero),
        dominant_modulus=float(np.abs(ev[0])) if ev.size else 0.0,
        block_dims=tuple(b.size for b in blocks),
        block_near_zero=near_zero,
    )


def _check_symmetry_probe(op: LinearOperator) -> None:
    # two-vector probe: <Au, w> must equal <u, Aw> for a symmetric map
    if not op.symmetric:
        raise ValueError("operator is declared non-symmetric")
    rng = np.random.default_rng(0x5EED)
    u = rng.standard_normal(op.dim)
    w = rng.standard_normal(op.dim)
    au = op.apply(u)
    aw = op.apply(w)
    scale = np.linalg.norm(au) * np.linalg.norm(w) + np.linalg.norm(u) * np.linalg.norm(aw)
    if abs(np.dot(au, w) - np.dot(u, aw)) > 1e-8 * max(scale, 1e-30):
        raise ValueError("operator failed the symmetry probe")


def minres(A, b: np.ndarray, tol: float = 1e-10, maxit: int = 500,
           precond: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Minimum-residual iteration for symmetric (possibly indefinite) systems.

    precond, when given, applies a symmetric positive definite approximation
    of A^{-1}. Returns (x, KrylovStats) with the true relative residual.
    Stops on tolerance, iteration budget, or stagnation (no residual-estimate
    decrease over 50 consecutive iterations).
    """
    op = as_operator(A)
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise ValueError("right-hand side length does not match operator dimension")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(op.dim), KrylovStats(0, 0.0, False)
    _check_symmetry_probe(op)

    apply_m = precond if precond is not None else (lambda v: v)
    x = np.zeros(op.dim)
    r1 = b.copy()
    y = np.asarray(apply_m(r1), dtype=float)
    beta1 = float(np.dot(r1, y))
    if beta1 <= 0.0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)

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
        beta = float(np.dot(r2, y))
        if beta < 0.0:
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(beta)

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


def pcg(A, b: np.ndarray,
        precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        tol: float = 1e-10, maxit: int = 500):
    """Preconditioned conjugate gradients.

    Indefiniteness (a nonpositive curvature or preconditioned inner product)
    is reported through KrylovStats.breakdown, not an exception; the current
    iterate is returned so callers can switch methods.
    """
    op = as_operator(A)
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise ValueError("right-hand side length does not match operator dimension")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(op.dim), KrylovStats(0, 0.0, False)

    apply_m = precond if precond is not None else (lambda v: v)
    x = np.zeros(op.dim)
    r = b.copy()
    z = np.asarray(apply_m(r), dtype=float)
    rz = float(np.dot(r, z))
    if rz <= 0.0:
        return x, KrylovStats(0, 1.0, True)
    p = z.copy()
    it = 0
    breakdown = False
    for k in range(1, maxit + 1):
        ap = op.apply(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            breakdown = True
            break
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        it = k
        if np.linalg.norm(r) / bnorm <= tol:
            break
        z = np.asarray(apply_m(r), dtype=float)
        rz_new = float(np.dot(r, z))
        if rz_new <= 0.0:
            breakdown = True
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    true_rel = float(np.linalg.norm(b - op.apply(x)) / bnorm)
    return x, KrylovStats(it, true_rel, breakdown)
