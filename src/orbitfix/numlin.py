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
    "FourierOperator",
    "KrylovStats",
    "SpectrumReport",
    "as_operator",
    "materialize",
    "fourier_symbols",
    "fourier_apply",
    "fourier_operator",
    "preconditioned_product",
    "inverse_2x2",
    "abs_inverse_2x2",
    "spectral_derivative",
    "fd_jacobian",
    "check_dense_dim",
    "dense_eigenvalues",
    "minres",
    "pcg",
]

# dense eigenvalue work is O(n^3); refuse anything past this
DENSE_DIM_LIMIT = 4096

# rows per band of the symmetry test: a band's temporaries stay far below
# the matrix's own size
_SYMMETRY_BAND = 64

# floor of the Givens norm in MINRES, looked up once for all iterations
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LinearOperator:
    """Linear map on R^dim given by a callable."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)


@dataclass(frozen=True, eq=False, kw_only=True)
class FourierOperator(LinearOperator):
    """v -> symbol v mode by mode (fourier_apply), minus pointwise(v) when given.

    symbol is a per-mode k x k matrix symbol of shape (k, k, n) and dim is
    k n. apply computes exactly this map; build instances with
    fourier_operator. MINRES reads the structure to fuse a Fourier
    preconditioner with the operator (preconditioned_product).
    """

    symbol: np.ndarray
    pointwise: Optional[Callable[[np.ndarray], np.ndarray]] = None


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


def as_operator(A) -> LinearOperator:
    """Wrap a square matrix (or pass through a LinearOperator)."""
    if isinstance(A, LinearOperator):
        return A
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    return LinearOperator(dim=M.shape[0], apply=lambda v: M @ v)


def _is_symmetric(M: np.ndarray, atol: float) -> bool:
    """Whether |M[i, j] - M[j, i]| <= atol for all i, j; a NaN fails.

    Compares each band of rows with the matching band of columns, on and
    right of the diagonal, so no temporary is larger than a band.
    """
    n = M.shape[0]
    for i in range(0, n, _SYMMETRY_BAND):
        j = min(i + _SYMMETRY_BAND, n)
        diff = M[i:j, i:] - M[i:, i:j].T
        # NaN compares false, so a band holding one fails
        if not np.abs(diff, out=diff).max() <= atol:
            return False
    return True


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
    symbol of shape (m, k, n) maps k stacked fields to m mode by mode: v
    holds k blocks of n samples and block i of the result (m blocks) is the
    sum over j of symbol[i, j] times block j. Either way it takes one
    forward and one batched inverse transform.
    """
    v = np.asarray(v, dtype=float)
    n = symbol.shape[-1]
    half = symbol[..., :n // 2 + 1]
    if symbol.ndim == 1:
        if v.ndim != 1 or v.shape[0] % n:
            raise ValueError("vector length must be a multiple of the symbol length")
        return np.fft.irfft(np.fft.rfft(v.reshape(-1, n)) * half, n).reshape(v.shape)
    if symbol.ndim != 3:
        raise ValueError("matrix symbol must have shape (m, k, n)")
    m, k = symbol.shape[:2]
    if v.shape != (k * n,):
        raise ValueError("vector length must be the symbol's field count times its length")
    v_hat = np.fft.rfft(v.reshape(k, n))
    return np.fft.irfft((half * v_hat).sum(axis=1), n).reshape(m * n)


def fourier_operator(symbol: np.ndarray,
                     pointwise: Optional[Callable[[np.ndarray], np.ndarray]] = None
                     ) -> FourierOperator:
    """The symmetric map v -> fourier_apply(symbol, v) - pointwise(v).

    symbol is a per-mode symmetric k x k matrix symbol of shape (k, k, n);
    pointwise, when given, is a symmetric map on R^(k n) that acts sample
    by sample, such as multiplication by fields.
    """
    if symbol.ndim != 3 or symbol.shape[0] != symbol.shape[1]:
        raise ValueError("a Fourier operator needs a matrix symbol of shape (k, k, n)")
    if pointwise is None:
        def apply(v):
            return fourier_apply(symbol, v)
    else:
        def apply(v):
            return fourier_apply(symbol, v) - pointwise(v)
    return FourierOperator(dim=symbol.shape[0] * symbol.shape[2], apply=apply,
                           symbol=symbol, pointwise=pointwise)


def preconditioned_product(A, M) -> Optional[Callable]:
    """r -> (M r, A M r) in one forward and one batched inverse transform, or None.

    Defined when A and M are FourierOperators of the same shape and M has
    no pointwise part. The symbols of M and of A's multiplier times M are
    stacked once into a (2k, k, n) symbol, so one fourier_apply returns
    M r and the multiplier part of A M r together; A's pointwise part is
    then subtracted from M r. Any other pair returns None: its product is
    the composition, M then A.
    """
    if not (isinstance(A, FourierOperator) and isinstance(M, FourierOperator)
            and M.pointwise is None and A.symbol.shape == M.symbol.shape):
        return None
    stacked = np.concatenate([M.symbol, np.einsum("ijn,jkn->ikn", A.symbol, M.symbol)])
    dim = M.dim

    def apply(r):
        out = fourier_apply(stacked, r)
        y, ay = out[:dim], out[dim:]
        if A.pointwise is not None:
            ay -= A.pointwise(y)
        return y, ay

    return apply


def inverse_2x2(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Per-mode A^{-1} of symmetric 2x2 blocks [[a11, a12], [a12, a22]], shape (2, 2, n).

    A^{-1} = adj(A) / det A. Every block must be nonsingular.
    """
    a11, a12, a22 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (a11, a12, a22)))
    det = a11 * a22 - a12 * a12
    if not np.all(det != 0.0):
        raise ValueError("every 2x2 block must be nonsingular")
    return np.stack([np.stack([a22, -a12]), np.stack([-a12, a11])]) / det


def abs_inverse_2x2(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray,
                    kernel_tol: Optional[float] = None) -> np.ndarray:
    """Per-mode |A|^{-1} of Hermitian 2x2 blocks [[a11, a12], [conj a12, a22]], shape (2, 2, n).

    a11 and a22 are real; a12 may be complex, and then so is the result.
    |A| = sqrt(A^2) is the positive definite matrix with A's eigenvectors
    and the moduli of its eigenvalues. With B = A^2 + |det A| I and
    s = |l1| + |l2| = sqrt(tr(A^2) + 2|det A|), |A| = B / s, so
    |A|^{-1} = adj(B) / (s |det A|) and no eigenvectors are needed.

    Without kernel_tol every block must be nonsingular. With it, an
    eigenvalue whose modulus is at most kernel_tol times the largest
    modulus over all blocks stands for a kernel direction: it is first
    raised to that largest modulus along its own eigenvector, so |A|^{-1}
    stays positive definite and bounded and gives the kernel the smallest
    weight.
    """
    a11, a22 = (np.asarray(a, dtype=float) for a in (a11, a22))
    a12 = np.asarray(a12, dtype=complex if np.iscomplexobj(a12) else float)
    if kernel_tol is not None:
        # eigenvalues t +- h, with eigenprojectors (I +- U)/2 for U = (A - t I)/h
        t, d = 0.5 * (a11 + a22), 0.5 * (a11 - a22)
        h = np.hypot(d, np.abs(a12))
        lam = np.stack([t + h, t - h])
        big = np.abs(lam).max()
        lift = np.where(np.abs(lam) <= kernel_tol * big, big - lam, 0.0)
        # A + mean I + diff (A - t I); a block with h = 0 is t I and has d = a12 = 0
        mean = 0.5 * (lift[0] + lift[1])
        diff = 0.5 * (lift[0] - lift[1]) / np.where(h > 0.0, h, 1.0)
        a11, a12, a22 = a11 + mean + diff * d, a12 + diff * a12, a22 + mean - diff * d
    sq12 = (a12 * a12.conj()).real
    absdet = np.abs(a11 * a22 - sq12)
    if not np.all(absdet > 0.0):
        raise ValueError("every 2x2 block must be nonsingular")
    b11 = a11 * a11 + sq12 + absdet
    b22 = sq12 + a22 * a22 + absdet
    b12 = a12 * (a11 + a22)
    scale = np.sqrt(b11 + b22) * absdet
    return np.stack([np.stack([b22, -b12]), np.stack([-b12.conj(), b11])]) / scale


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


def check_dense_dim(dim: int) -> None:
    """Refuse a dense eigenvalue problem past DENSE_DIM_LIMIT, before it is built."""
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dimension {dim} exceeds the dense eigenvalue limit {DENSE_DIM_LIMIT}")


def _block_eigenvalues(A) -> np.ndarray:
    if isinstance(A, LinearOperator):
        check_dense_dim(A.dim)
    M = materialize(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    check_dense_dim(M.shape[0])
    if M.shape[0] == 0:
        return np.empty(0, dtype=complex)
    if _is_symmetric(M, 1e-12 * max(1.0, float(M.max()), float(-M.min()))):
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

    Memory: at any time one block is held, plus the copy LAPACK makes of
    it, and nothing else of the block's size. The symmetry test that picks
    eigvalsh or eigvals works on bands of rows.
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


@lru_cache(maxsize=16)
def _symmetry_probes(dim: int):
    """The two seeded probe vectors of length dim, read-only and shared."""
    rng = np.random.default_rng(0x5EED)
    u = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    for a in (u, w):
        a.flags.writeable = False
    return u, w


def _check_symmetry_probe(op: LinearOperator) -> None:
    # two-vector probe: <Au, w> must equal <u, Aw> for a symmetric map
    u, w = _symmetry_probes(op.dim)
    au = op.apply(u)
    aw = op.apply(w)
    scale = np.linalg.norm(au) * np.linalg.norm(w) + np.linalg.norm(u) * np.linalg.norm(aw)
    if abs(np.dot(au, w) - np.dot(u, aw)) > 1e-8 * max(scale, 1e-30):
        raise ValueError("operator failed the symmetry probe")


def minres(A, b: np.ndarray, tol: float = 1e-10, maxit: int = 500,
           precond: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Minimum-residual iteration for symmetric (possibly indefinite) systems.

    precond, when given, applies a symmetric positive definite approximation
    M of A^{-1}: a callable, or an operator whose apply method applies M.
    Each iteration applies M to the new residual r and A to M r; when A
    and M are Fourier operators that preconditioned_product fuses, both
    come from one transform pair, else M and then A are applied. Returns
    (x, KrylovStats) with the true relative residual. Stops on tolerance,
    iteration budget, or stagnation (no residual-estimate decrease over 50
    consecutive iterations).
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

    apply_m = getattr(precond, "apply", precond) if precond is not None else (lambda v: v)
    fused = None if precond is None else preconditioned_product(op, precond)

    def precondition(r):
        # (M r, A M r) when fused, else (M r, None) and A is applied to M r / beta
        if fused is None:
            return np.asarray(apply_m(r), dtype=float), None
        return fused(r)

    x = np.zeros(op.dim)
    r1 = b.copy()
    y, ay = precondition(r1)
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
        y = op.apply(v) if ay is None else ay / beta
        if it >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y, ay = precondition(r2)
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
        gamma = max(np.hypot(gbar, beta), _EPS)
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
