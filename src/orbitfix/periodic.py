"""The periodic grid of n samples of [-L, L), its Fourier modes, and the shifts that act on it.

A state stacks any number of n-sample fields. Positions wrap into (-L, L],
and a field's centre is read from its first Fourier mode.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Optional

import numpy as np

from .numlin import fourier_operator

__all__ = ["grid", "check_grid", "fourier_symbols", "periodic_wrap", "field_center",
           "translations"]


def grid(n: int, half_length: float) -> np.ndarray:
    """Uniform samples of [-L, L), left endpoint included."""
    return -half_length + (2.0 * half_length / n) * np.arange(n)


def check_grid(n: int, half_length: float):
    if n < 4 or n % 2:
        raise ValueError("grid size must be even and >= 4")
    if not 0.0 < half_length < np.inf:
        raise ValueError("half_length must be positive and finite")


@lru_cache(maxsize=16)
def fourier_symbols(n: int, half_length: float):
    """Wavenumbers xi and the symbol of d/dx on n samples of [-L, L).

    Returns read-only arrays (xi, d1) with d1 = i*xi, shared between
    callers, on modes 0..n//2 in np.fft.rfftfreq order: the layout of every
    Fourier symbol. On an even grid d1 zeroes the Nyquist mode, the last,
    which has no consistent odd-order derivative; an odd grid has none.
    """
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=2.0 * half_length / n)
    d1 = 1j * xi
    if n % 2 == 0:
        d1[-1] = 0.0
    for a in (xi, d1):
        a.flags.writeable = False
    return xi, d1


def periodic_wrap(v: float, half_length: float) -> float:
    """The point of (-L, L] that v reaches by whole periods 2L; -L itself reads L."""
    v = (v + half_length) % (2.0 * half_length) - half_length
    return half_length if v == -half_length else v


def field_center(v: np.ndarray, half_length: float) -> Optional[float]:
    """Centre of one field from the phase of its first Fourier mode; None below 1e-13."""
    m1 = -np.fft.rfft(np.asarray(v, dtype=float))[1]
    if abs(m1) < 1e-13:
        return None
    return periodic_wrap(-(half_length / np.pi) * float(np.angle(m1)), half_length)


def translations(n: int, half_length: float):
    """(act, generators) of the shifts w(x) -> w(x - alpha) on each of a state's k fields.

    act applies exp(-i xi alpha) I_k, built per shift, and the generator is
    -d/dx, d1 I_k, built once per k. act keeps c cos(xi_N alpha) of a real
    Nyquist coefficient c, so act(a, act(b, w)) = act(a + b, w) holds only
    on fields without a Nyquist mode, or at whole grid steps.
    """
    xi, d1 = fourier_symbols(n, half_length)
    derivative = cache(lambda k: fourier_operator(d1 * np.eye(k)[:, :, None], n))

    def act(alpha, w):
        shift = np.exp(-1j * xi * float(alpha)) * np.eye(len(w) // n)[:, :, None]
        return fourier_operator(shift, n).apply(w)

    def generators(w):
        return [-derivative(len(w) // n).apply(w)]

    return act, generators
