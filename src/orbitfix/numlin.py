"""Dense and matrix-free numerical linear algebra helpers.

Vectors are 1-D numpy arrays. A linear map the solvers apply is a
LinearOperator; dense spectra are taken of matrices, and materialize turns
an operator into one. A Fourier operator takes its sample count n and a
symbol on the modes of periodic.fourier_symbols; nothing here knows a
grid's length.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DENSE_DIM_LIMIT",
    "LinearOperator",
    "FourierOperator",
    "KrylovStats",
    "SpectrumReport",
    "materialize",
    "fourier_operator",
    "preconditioned_product",
    "matrix_2x2_function",
    "check_dense_dim",
    "dense_eigenvalues",
    "reflection_blocks",
    "minres",
    "pcg",
]

# dense eigenvalue work is O(n^3); refuse anything past this
DENSE_DIM_LIMIT = 4096

# rows per band of the symmetry test: a band's temporaries stay far below
# the matrix's own size
_SYMMETRY_BAND = 64

# distances from 1 and from 0 within which dense_eigenvalues counts an eigenvalue as 1 or 0
_TOL_UNIT = 1e-6
_TOL_ZERO = 1e-6

# floor of the Givens norm in MINRES, looked up once for all iterations
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LinearOperator:
    """Linear map on R^dim given by a callable."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False, kw_only=True)
class FourierOperator(LinearOperator):
    """v -> symbol v mode by mode, minus fields v sample by sample.

    symbol, (k, k, n//2 + 1), holds the modes of periodic.fourier_symbols
    and fields, (k, k, n), the samples; n = dim/k. Built by
    fourier_operator, whose apply computes exactly this map. MINRES reads
    symbol and fields to check symmetry and to fuse a Fourier
    preconditioner (preconditioned_product); reflection_blocks splits it.
    """

    symbol: np.ndarray
    fields: Optional[np.ndarray] = None


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


def materialize(op: LinearOperator) -> np.ndarray:
    """Evaluate a linear operator column by column into a dense matrix."""
    n = op.dim
    M = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        M[:, j] = op.apply(e)
        e[j] = 0.0
    return M


def _symbol_product(symbol: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> symbol v mode by mode, as an (m, n) buffer that the next call overwrites.

    symbol, of shape (m, k, n//2 + 1) on the modes of
    periodic.fourier_symbols, maps the k blocks of n samples of v to m rows:
    row i is the sum over j, in j order, of symbol[i, j] times block j, from
    one forward and one batched inverse real transform. Its columns and the
    buffers are made here. The imaginary parts of the mean and Nyquist
    terms are dropped.
    """
    if symbol.ndim != 3 or symbol.shape[-1] != n // 2 + 1:
        raise ValueError(f"matrix symbol must have shape (m, k, {n // 2 + 1}) on {n} samples")
    m, k, modes = symbol.shape
    columns = [np.ascontiguousarray(symbol[:, j]) for j in range(k)]
    v_hat = np.empty((k, modes), dtype=complex)
    acc, term = np.empty((2, m, modes), dtype=complex)
    out = np.empty((m, n))

    def product(v):
        np.fft.rfft(np.asarray(v, dtype=float).reshape(k, n), out=v_hat)
        np.multiply(columns[0], v_hat[0], out=acc)
        for j in range(1, k):
            np.multiply(columns[j], v_hat[j], out=term)
            np.add(acc, term, out=acc)
        return np.fft.irfft(acc, n, out=out)

    return product


def fourier_operator(symbol: np.ndarray, n: int,
                     fields: Optional[np.ndarray] = None) -> FourierOperator:
    """The map v -> symbol v mode by mode (_symbol_product, built once), minus fields v.

    symbol has shape (k, k, n//2 + 1), a k x k matrix on each mode of
    periodic.fourier_symbols for n samples, and fields, when given, shape
    (k, k, n), one per sample; fields v is their product sample by sample
    (_fields_product), and s * np.eye(k)[:, :, None] is a scalar symbol s
    on k stacked fields. The imaginary parts of the mean and Nyquist terms
    are dropped. Each apply returns a fresh vector.
    """
    if symbol.ndim != 3 or symbol.shape[0] != symbol.shape[1]:
        raise ValueError("a Fourier operator needs a matrix symbol of shape (k, k, n//2 + 1)")
    k = symbol.shape[0]
    if fields is not None and fields.shape != (k, k, n):
        raise ValueError(f"fields must have shape ({k}, {k}, {n})")
    product = _symbol_product(symbol, n)
    coupling = None if fields is None else _fields_product(fields)

    def apply(v):
        out = product(v)
        if coupling is None:
            return out.reshape(k * n).copy()
        return (out - coupling(np.asarray(v, dtype=float).reshape(k, n))).reshape(k * n)

    return FourierOperator(dim=k * n, apply=apply, symbol=symbol, fields=fields)


def _fields_product(fields):
    # v -> fields[:, 0] v[0] + fields[:, 1] v[1] + ... for v of shape (k, n), into one
    # reused buffer, bit for bit: a reduction along a middle axis adds in index order
    terms, sums = np.empty(fields.shape), np.empty(fields.shape[1:])
    return lambda v: np.add.reduce(np.multiply(fields, v, out=terms), axis=1, out=sums)


def preconditioned_product(A, M) -> Optional[Callable]:
    """r -> (M r, A M r) in one forward and one batched inverse transform, or None.

    Defined when A and M are FourierOperators of the same dimension and
    symbol shape, and M has no fields. One _symbol_product of M's symbol
    stacked over A's times M's, built once, gives M r and the multiplier
    part of A M r; A's fields times M r is then subtracted as A.apply
    subtracts it. Returns one (2, dim) buffer, which the next call
    overwrites. Any other pair returns None: its product is the
    composition, M then A.
    """
    if not (isinstance(A, FourierOperator) and isinstance(M, FourierOperator)
            and M.fields is None and A.dim == M.dim and A.symbol.shape == M.symbol.shape):
        return None
    k = M.symbol.shape[0]
    product = _symbol_product(
        np.concatenate([M.symbol, np.einsum("ijn,jkn->ikn", A.symbol, M.symbol)]), M.dim // k)
    coupling = None if A.fields is None else _fields_product(A.fields)

    def apply(r):
        out = product(r)
        if coupling is not None:
            out[k:] -= coupling(out[:k])
        return out.reshape(2, -1)

    return apply


def matrix_2x2_function(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per-mode f(A) of the 2x2 blocks a, shape (2, 2, modes): the matrix symbols' layout.

    A block has the eigenvalues t +- h, with t and d the mean and
    half-difference of its diagonal and h = sqrt(d^2 + a12 a21), the
    principal root in a's dtype, so
    f(A) = (f(t + h) + f(t - h))/2 I + (f(t + h) - f(t - h))/(2h) (A - t I),
    which is symmetric in +-h; no eigenvectors are formed. The formula
    holds when a block whose eigenvalues coincide is t I, where the slope
    is 0, and when a real a has real eigenvalues, as a symmetric one does.
    f maps the stacked eigenvalues of every block at once, shape (2, modes)
    with t + h first, to values of shape (2, ..., modes), so it may read all
    of them, such as their largest modulus, and may return several
    functions; the result then has shape (2, 2, ..., modes).
    """
    t, d = 0.5 * (a[0, 0] + a[1, 1]), 0.5 * (a[0, 0] - a[1, 1])
    off = a[[0, 1], [1, 0]]
    # d^2 + a12 a21 stays finite for entries below 2^511; past that, (A - t I)/h,
    # which is scale-free, and the root are taken of A over its largest entry
    scale = np.abs(a).max(axis=(0, 1))
    big = scale >= 2.0 ** 511
    d[big] /= scale[big]
    off[:, big] /= scale[big]
    root = np.sqrt(d * d + off[0] * off[1])
    h = np.where(big, scale * root, root)
    f_up, f_down = f(np.stack([t + h, t - h]))
    mean = 0.5 * (f_up + f_down)
    slope = (f_up - f_down) * np.divide(0.5, root, out=np.zeros_like(root), where=root != 0.0)
    return np.stack([np.stack([mean + slope * d, slope * off[0]]),
                     np.stack([slope * off[1], mean - slope * d])])


def check_dense_dim(dim: int) -> None:
    """Refuse a dense eigenvalue problem past DENSE_DIM_LIMIT, before it is built."""
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dimension {dim} exceeds the dense eigenvalue limit {DENSE_DIM_LIMIT}")


def _block_eigenvalues(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    check_dense_dim(M.shape[0])
    if M.shape[0] == 0:
        return np.empty(0, dtype=complex)
    if _is_symmetric(M, 1e-12 * max(1.0, float(M.max()), float(-M.min()))):
        return np.linalg.eigvalsh(M).astype(complex)
    return np.linalg.eigvals(M)


def dense_eigenvalues(A) -> SpectrumReport:
    """Full eigenvalue set of a small matrix, counting those within _TOL_UNIT of 1, _TOL_ZERO of 0.

    A is a square matrix, or an iterator of blocks that stands for the
    block-diagonal matrix they form: its spectrum is the union of the
    blocks' spectra, the dimension limit applies to each block, and
    block_dims and block_near_zero give the size and near-0 count of each
    block in order. The blocks are drawn one at a time, and none is kept
    once its eigenvalues are known.

    Memory: at any time one block is held, plus the copy LAPACK makes of
    it, and nothing else of the block's size. The symmetry test that picks
    eigvalsh or eigvals works on bands of rows.
    """
    blocks = list(map(_block_eigenvalues, A if isinstance(A, Iterator) else (A,)))
    near_zero = tuple(int(np.count_nonzero(np.abs(b) <= _TOL_ZERO)) for b in blocks)
    ev = np.concatenate(blocks)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")]
    return SpectrumReport(
        eigenvalues=ev,
        count_near_unit=int(np.count_nonzero(np.abs(ev - 1.0) <= _TOL_UNIT)),
        count_near_zero=sum(near_zero),
        dominant_modulus=float(np.abs(ev[0])) if ev.size else 0.0,
        block_dims=tuple(b.size for b in blocks),
        block_near_zero=near_zero,
    )


def reflection_blocks(op: FourierOperator) -> Iterator[np.ndarray]:
    """op split by the grid reflection x -> -x into its even and odd blocks.

    The reflection, sample j to (-j) mod n in each field, commutes with op
    when op's symbol is real on modes 0..n/2 and its fields are even; op is
    then block diagonal in the orthonormal even vectors (e_j + e_-j)/sqrt(2),
    e_0, e_{n/2} and odd ones (e_j - e_-j)/sqrt(2), its isotypic decomposition
    (Golubitsky, Stewart and Schaeffer, 1988). Yields the even block, k (n/2
    + 1) rows, then the odd one, k (n/2 - 1), each built when drawn. Raises
    ValueError at once past DENSE_DIM_LIMIT, on odd n, or when the symbol or
    fields are not even to 1e-12 relative.
    """
    k = op.symbol.shape[0]
    n = op.dim // k
    check_dense_dim(k * (n // 2 + 1))
    if n % 2:
        raise ValueError("reflection blocks need an even number of samples")
    symbol = op.symbol
    if not np.abs(np.imag(symbol)).max() <= 1e-12 * np.abs(symbol).max():
        raise ValueError("operator's symbol is not real on modes 0..n/2, so it is not even")
    fields = op.fields
    if fields is not None and (np.linalg.norm(fields[..., (-np.arange(n)) % n] - fields)
                               > 1e-12 * np.linalg.norm(fields)):
        raise ValueError("operator's fields are not even under the grid reflection")
    columns = np.fft.irfft(np.real(symbol), n)  # column 0 of each entry's circulant
    return (_reflection_block(columns, fields, sign) for sign in (1.0, -1.0))


def _reflection_block(columns: np.ndarray, fields: Optional[np.ndarray],
                      sign: float) -> np.ndarray:
    # Entry (r, c) of op is the circulant of even column col = columns[r, c]
    # minus diag(fields[r, c]). On the basis (e_a + sign e_-a)/sqrt(2), and e_a
    # alone for a = 0, n/2 (even only), a diagonal keeps its form and the
    # circulant becomes t_p t_q (col[a_p - a_q] + sign col[a_p + a_q]), t =
    # 1/sqrt(2) at a = 0, n/2 and 1 elsewhere, with a_p = lo + p.
    k, _, n = columns.shape
    lo, m = (0, n // 2 + 1) if sign > 0.0 else (1, n // 2 - 1)
    j = np.arange(2 * m - 1)
    toeplitz = sliding_window_view(columns[..., (j - (m - 1)) % n], m, axis=-1)[..., ::-1]
    hankel = sliding_window_view(columns[..., (j + 2 * lo) % n], m, axis=-1)
    block = np.empty((k * m, k * m))
    quadrants = block.reshape(k, m, k, m)  # quadrant (r, c) is quadrants[r, :, c]
    (np.add if sign > 0.0 else np.subtract)(toeplitz, hankel,
                                            out=quadrants.transpose(0, 2, 1, 3))
    if sign > 0.0:
        # a = 0 and n/2 are rows and columns 0 and m - 1 of each quadrant; t = 1 elsewhere is exact
        quadrants[:, ::m - 1] *= np.sqrt(0.5)
        quadrants[..., ::m - 1] *= np.sqrt(0.5)
    if fields is not None:
        i = np.arange(m)
        quadrants[:, i, :, i] -= fields[..., lo:lo + m].transpose(2, 0, 1)
    return block


@lru_cache(maxsize=16)
def _symmetry_probes(dim: int):
    """The two seeded probe vectors of length dim, uniform in [-0.5, 0.5), read-only and shared."""
    # drawn by the standard library: importing numpy.random costs about 11 ms and 6 MiB
    bits = np.frombuffer(random.Random(0x5EED).randbytes(16 * dim), dtype="<u8")
    probes = ((bits >> 11) * 2.0 ** -53 - 0.5).reshape(2, dim)
    probes.flags.writeable = False
    return tuple(probes)


def _check_symmetry(op: LinearOperator) -> None:
    """Refuse an operator that is not symmetric.

    A FourierOperator is judged by its data and applied not once: each
    mode of its symbol must be Hermitian and each sample of its fields
    symmetric, each to 1e-12 of its largest modulus. Any other operator
    must pass a probe: <Au, w> = <u, Aw> for two seeded vectors, to 1e-8 relative.
    """
    if isinstance(op, FourierOperator):
        for name, part in (("Fourier symbol", op.symbol), ("fields", op.fields)):
            # a NaN compares false, so a part holding one fails
            if part is not None and not (np.abs(part - part.transpose(1, 0, 2).conj()).max()
                                         <= 1e-12 * np.abs(part).max()):
                raise ValueError(f"operator is not symmetric: {name} not Hermitian to 1e-12")
        return
    u, w = _symmetry_probes(op.dim)
    au = op.apply(u)
    aw = op.apply(w)
    scale = np.linalg.norm(au) * np.linalg.norm(w) + np.linalg.norm(u) * np.linalg.norm(aw)
    if abs(np.dot(au, w) - np.dot(u, aw)) > 1e-8 * max(scale, 1e-30):
        raise ValueError("operator failed the symmetry probe")


def minres(op: LinearOperator, b: np.ndarray, tol: float = 1e-10, maxit: int = 500,
           precond: Optional[LinearOperator] = None):
    """Minimum-residual iteration for a symmetric (possibly indefinite) operator.

    precond, when given, is an operator that applies a symmetric positive
    definite approximation M of op^{-1}.
    Each iteration applies M to the new residual r and op to M r; when op
    and M are Fourier operators that preconditioned_product fuses, both
    come from one transform pair, else M and then op are applied. Returns
    (x, KrylovStats) with the true relative residual. Stops on tolerance,
    iteration budget, or stagnation (no residual-estimate decrease over 50
    consecutive iterations).

    The vectors of the iteration live in buffers allocated once per call
    and rotated by reference; every update keeps the operand order of the
    plain expressions, so the result is the same to the bit.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise ValueError("right-hand side length does not match operator dimension")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    r1 = b.copy()
    # sqrt(b . b) of a contiguous copy, as np.linalg.norm takes a 1-D norm
    bnorm = math.sqrt(r1.dot(r1))
    if bnorm == 0.0:
        return np.zeros(op.dim), KrylovStats(0, 0.0, False)
    _check_symmetry(op)

    apply_m = precond.apply if precond is not None else (lambda v: v)
    fused = None if precond is None else preconditioned_product(op, precond)

    def precondition(r):
        # (M r, A M r) when fused, else (M r, None) and A is applied to M r / beta
        if fused is None:
            return np.asarray(apply_m(r), dtype=float), None
        return fused(r)

    x = np.zeros(op.dim)
    y, ay = precondition(r1)
    beta1 = float(r1.dot(y))
    if beta1 <= 0.0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = math.sqrt(beta1)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    v = np.empty(op.dim)
    tmp = np.empty(op.dim)
    w = np.zeros(op.dim)
    w1 = np.zeros(op.dim)
    w2 = np.zeros(op.dim)
    r2 = r1.copy()
    it = 0
    best = np.inf
    stalled = 0
    for it in range(1, maxit + 1):
        np.divide(y, beta, out=v)
        if ay is None:
            y = op.apply(v)
        else:
            y = np.divide(ay, beta, out=ay)
        # the new Lanczos vector y - (beta/oldb) r1 - (alfa/beta) r2 goes into r1
        if it >= 2:
            np.multiply(r1, beta / oldb, out=tmp)
            y = np.subtract(y, tmp, out=r1)
        alfa = float(v.dot(y))
        np.multiply(r2, alfa / beta, out=tmp)
        np.subtract(y, tmp, out=r1)
        r1, r2 = r2, r1
        y, ay = precondition(r2)
        oldb = beta
        beta = float(r2.dot(y))
        if beta < 0.0:
            raise ValueError("preconditioner is not positive definite")
        beta = math.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(float(np.hypot(gbar, beta)), _EPS)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma into the buffer the old w1 frees
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=tmp)
        np.subtract(v, tmp, out=w)
        np.multiply(w2, delta, out=tmp)
        np.subtract(w, tmp, out=w)
        np.divide(w, gamma, out=w)
        np.multiply(w, phi, out=tmp)
        np.add(x, tmp, out=x)

        rel = phibar / beta1
        if rel < best:
            best = rel
            stalled = 0
        else:
            stalled += 1
        if rel <= tol or stalled > 50:
            break

    np.subtract(b, op.apply(x), out=tmp)
    return x, KrylovStats(it, math.sqrt(tmp.dot(tmp)) / bnorm, False)


def pcg(op: LinearOperator, b: np.ndarray, precond: Optional[LinearOperator] = None,
        tol: float = 1e-10, maxit: int = 500):
    """Preconditioned conjugate gradients; precond, when given, is an operator.

    Indefiniteness (a nonpositive curvature or preconditioned inner product)
    is reported through KrylovStats.breakdown, not an exception; the current
    iterate is returned so callers can switch methods.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise ValueError("right-hand side length does not match operator dimension")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(op.dim), KrylovStats(0, 0.0, False)

    apply_m = precond.apply if precond is not None else (lambda v: v)
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
